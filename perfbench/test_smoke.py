"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

It lives beside the benchmark, outside the package's tier-1 suite.
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run as bench
from tracer import LAYERS, PER_LAYER

BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
ORIGINALS = {(site.__name__, attr): getattr(site, attr)
             for _home, attr, sites in LAYERS.values() for site in sites}


def tiny(name):
    wl = bench.WORKLOADS[name]
    return replace(wl, trials=1, passes=2, traced_passes=1,
                   train_trials=1 if wl.train_trials else 0)


def measure(name, seed=1, trace=False):
    return bench.measure(tiny(name), seed, seconds=0, trace=trace, setup_repeats=1)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]} \
        == bench.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name):
    doc = measure(name)
    assert doc["correct"], doc["problems"]
    assert doc["failed"] == 0 and doc["attempted"] >= 1
    assert set(doc["metrics"]) == set(bench.END_TO_END)
    assert all(v > 0 for v in doc["metrics"].values()), doc["metrics"]


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric_and_restores(name):
    doc = measure(name, trace=True)
    assert doc["correct"], doc["problems"]
    m = doc["metrics"]
    assert set(m) == set(PER_LAYER)
    for home, attr, sites in LAYERS.values():
        for site in sites:
            fn = getattr(site, attr)
            assert fn is ORIGINALS[(site.__name__, attr)], f"{site.__name__}.{attr}"
            assert fn.__module__ == home.__name__, f"{site.__name__}.{attr}"

    # self times of every traced function plus the uncovered remainder
    # account for the traced passes' wall time
    own = sum(v for k, v in m.items()
              if k.endswith(".self_s") or (k.endswith(".s") and not k.startswith("trace.")))
    assert own + m["trace.uncovered_s"] == pytest.approx(m["trace.wall_s"], rel=1e-9)

    # each workload exercises only the layers it was chosen for
    assert (m["codec.encode.calls"] > 0) == (name == "bitrate")
    assert (m["controllers.l1l2_packet.calls"] > 0) == (name == "sweep_l1l2")
    assert (m["controllers.l2_packet.calls"] > 0) == (name in ("sim_l2", "bitrate"))
    assert (m["controllers.omp_packet.calls"] > 0) == (name in ("mc_omp", "bitrate"))
    if name == "bitrate":
        assert m["codec.roundtrip_ok_frac"] == 1.0


def test_a_second_seed_runs_on_other_inputs():
    first, second = measure("mc_omp", seed=1), measure("mc_omp", seed=2)
    assert first["correct"] and second["correct"]
    assert first["metrics"]["mean_perf"] != second["metrics"]["mean_perf"]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload", "mc_omp",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
