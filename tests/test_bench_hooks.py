"""The benchmark's span tracer (perfbench/tracer.py) still finds the package's layers.

The tracer replaces each layer function at the module attributes it names,
from outside the package, so a refactor of src can silently leave a layer
unreached or a name gone. This runs the tracer, loaded by path and not
edited, over one small pass of each command.
"""

import importlib.util
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np

from sparseppc import cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
SMALL = ("--trials", "1", "--steps", "5", "--seed", "1")

# no command reaches sim.run_trial: monte_carlo steps its rows through the
# engine directly, so the benchmark's layer of that name reads 0
UNREACHED = {"sim.run_trial"}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_tracer_spans_every_layer_and_restores_it(tmp_path):
    tracer = _load_tracer()
    originals = {(site, attr): getattr(site, attr)
                 for _home, attr, sites in tracer.LAYERS.values() for site in sites}
    tr = tracer.Tracer()
    for argv in (("simulate", "--controller", "omp", "--plots"),
                 ("sweep", "--family", "l1l2", "--grid", "1e3"),
                 ("bitrate", "--dump-packets", "--train-trials", "1")):
        with redirect_stdout(StringIO()):
            rc, _ = tr.run_pass(cli.main, [*argv, *SMALL, "--out-dir", str(tmp_path / argv[0])])
        assert rc == 0, argv
    names = np.array(tr.name, dtype=object)
    for layer in sorted(set(tracer.LAYERS) - UNREACHED):
        assert np.count_nonzero(names == layer), layer
    for (site, attr), fn in originals.items():
        assert getattr(site, attr) is fn, f"{site.__name__}.{attr}"
