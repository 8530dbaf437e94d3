"""Child-process probes: set-up time and the peak memory of one pass.

    python3 perfbench/probe.py setup SPEC_JSON   # prints {"setup_s": ...}
    python3 perfbench/probe.py pass ARGV_JSON    # runs `sparseppc ARGV` once

SPEC_JSON is {"config": <config file>, "overrides": {...}}. The parent sets
PYTHONPATH to the checkout's src/ and pins the BLAS thread count.
"""

from time import perf_counter

T0 = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"


def _package():
    import sparseppc
    if Path(sparseppc.__file__).resolve().parent != (SRC / "sparseppc").resolve():
        sys.exit(f"probe: sparseppc imported from {sparseppc.__file__}, not {SRC}")
    return sparseppc


def setup(spec: dict) -> float:
    """Seconds from interpreter start-up to a built SimSetup."""
    _package()
    from sparseppc.sim import build_setup, config_from_dict
    with open(spec["config"]) as fh:
        cfg = config_from_dict(json.load(fh), **spec["overrides"])
    build_setup(cfg)
    return perf_counter() - T0


def main() -> int:
    mode, arg = sys.argv[1], json.loads(sys.argv[2])
    if mode == "setup":
        print(json.dumps({"setup_s": setup(arg)}))
        return 0
    if mode == "pass":
        _package()
        from sparseppc.cli import main as cli_main
        return cli_main(arg)
    sys.exit(f"probe: unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main())
