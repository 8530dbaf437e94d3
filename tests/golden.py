"""Golden outputs: the digest of every file the CLI writes, at fixed configs and seeds.

CASES is the one list of command lines that tests/test_golden.py reruns and
compares with tests/golden.json. A PR that changes outputs on purpose
rewrites the digests from the repository root with

    PYTHONPATH=src python -m tests.golden

which prints each file whose digest moved (or that came or went) and each
exit code that changed.

Each case runs at every seed of SEEDS in a directory of its own, on the
benchmark workloads' shape (perfbench/run.py): the paper's plant, N = 10,
Q = I, Markov dropouts and 100 steps. A file's record is the SHA-256 of its
bytes (meta.json without its wall-clock "timing" block) and a one-byte
fingerprint of each line, so a mismatch can name the first line that moved.
"""

import base64
import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np
import pytest

from sparseppc.cli import main
from sparseppc.sim import NS_MAIN, NS_TEST, NS_TRAIN

from .failures import fail_trials

GOLDEN = Path(__file__).with_name("golden.json")
SEEDS = (1, 7, 12345)

CONFIG = {"plant": "cessna500", "N": 10, "Q": "identity",
          "dropout": {"kind": "markov", "p_dd": 0.8, "p_dg": 0.2}, "steps": 100}
NOISY = {"noise": {"kind": "gaussian", "sigma": 0.01}}


@dataclass(frozen=True)
class Case:
    name: str
    argv: tuple          # the command and its flags, without --config and --out-dir
    config: dict         # on top of CONFIG; the seed is added per run
    failing: object = None   # failing(cfg, key) for tests/failures.py, or None


def _sweep(family, grid, *flags):
    return ("sweep", "--family", family, "--grid", grid, *flags)


L1_GRID = "1e2,1e3,5.3e3,1e4"
BITRATE = {"trials": 2, "train_trials": 6, **NOISY}

CASES = (
    Case("simulate-omp", ("simulate", "--controller", "omp"), {"trials": 5}),
    Case("simulate-l2-plots", ("simulate", "--controller", "l2", "--plots"), {"trials": 50}),
    Case("simulate-l1l2", ("simulate", "--controller", "l1l2"), {"trials": 5}),
    Case("sweep-l1l2", _sweep("l1l2", L1_GRID), {"trials": 2}),
    Case("sweep-l2-plots", _sweep("l2", "1,100,310,1e4", "--plots"), {"trials": 2}),
    Case("bitrate", ("bitrate", "--dump-packets"), BITRATE),
    Case("design", ("design",), {}),
    # failed trials, so that meta.json's failure lists are pinned too
    Case("simulate-omp-failing", ("simulate", "--controller", "omp"), {"trials": 5},
         failing=lambda cfg, key: key in ((NS_MAIN, 1), (NS_MAIN, 3))),
    Case("sweep-l1l2-failing", _sweep("l1l2", L1_GRID), {"trials": 2},
         failing=lambda cfg, key: cfg.nu1 == 1e3 and key == (NS_MAIN, 0)),
    Case("sweep-l1l2-value-fails", _sweep("l1l2", L1_GRID), {"trials": 2},
         failing=lambda cfg, key: cfg.nu1 == 5.3e3),
    Case("bitrate-failing", ("bitrate", "--dump-packets"), BITRATE,
         failing=lambda cfg, key: key in ((NS_TRAIN, 1), (NS_TEST, 0)) if cfg.controller == "omp"
         else key == (NS_TEST, 1)),
)


def environment() -> dict:
    """The numpy version and BLAS that outputs are computed with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version', '?')}"}


def canonical(name: str, data: bytes) -> bytes:
    """A file's bytes as digested: meta.json loses its wall-clock timing."""
    if name != "meta.json":
        return data
    meta = json.loads(data)
    meta.pop("timing", None)
    return (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode()


def digest(name: str, data: bytes) -> dict:
    data = canonical(name, data)
    lines = data.splitlines(keepends=True)
    marks = bytes(hashlib.sha256(line).digest()[0] for line in lines)
    return {"sha256": hashlib.sha256(data).hexdigest(),
            "lines": base64.b64encode(marks).decode()}


def line_marks(record: dict) -> bytes:
    """The one-byte fingerprint of each line of a digested file."""
    return base64.b64decode(record["lines"])


def run_case(case: Case, seed: int, out: Path) -> dict:
    """Run case at seed into out, a new directory; its exit code and file digests."""
    out.mkdir(parents=True)
    config = out.parent / f"{out.name}.json"
    config.write_text(json.dumps({**CONFIG, **case.config, "seed": seed}))
    argv = [*case.argv, "--config", str(config), "--out-dir", str(out)]
    with pytest.MonkeyPatch.context() as mp, \
            redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        if case.failing is not None:
            fail_trials(mp, case.failing)
        code = main(argv)
    return {"exit": code, "files": {p.name: digest(p.name, p.read_bytes())
                                    for p in sorted(out.iterdir())}}


def key(case: Case, seed: int) -> str:
    return f"{case.name}/{seed}"


def run_all(root: Path) -> dict:
    return {key(case, seed): run_case(case, seed, root / case.name / str(seed))
            for case in CASES for seed in SEEDS}


def moved(old: dict, new: dict) -> list:
    """Each run/file whose record differs between two golden documents, and each exit code."""
    lines = []
    for run in sorted(set(old) | set(new)):
        a, b = old.get(run, {}), new.get(run, {})
        if a.get("exit") != b.get("exit"):
            lines.append(f"{run}: exit {a.get('exit')} -> {b.get('exit')}")
        fa, fb = a.get("files", {}), b.get("files", {})
        lines += [f"{run}/{name}" for name in sorted(set(fa) | set(fb))
                  if fa.get(name, {}).get("sha256") != fb.get(name, {}).get("sha256")]
    return lines


def rewrite() -> list:
    old = json.loads(GOLDEN.read_text())["runs"] if GOLDEN.exists() else {}
    with TemporaryDirectory() as tmp:
        runs = run_all(Path(tmp))
    GOLDEN.write_text(json.dumps({"environment": environment(), "runs": runs},
                                 indent=1, sort_keys=True) + "\n")
    return moved(old, runs)


if __name__ == "__main__":
    changed = rewrite()
    print("\n".join(changed) if changed else "no digest moved")
    print(f"wrote {GOLDEN}", file=sys.stderr)
