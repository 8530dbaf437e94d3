import json

import numpy as np

from sparseppc.cli import main


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_design_to_stdout(capsys):
    assert main(["design"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) >= {"Q", "P", "K", "Wstar", "Eps", "W", "c1", "rho", "c", "N", "eta", "plant"}
    assert np.asarray(doc["P"]).shape == (4, 4)


def test_design_to_file_and_reuse_in_simulate(tmp_path, capsys):
    out = tmp_path / "design_out"
    assert main(["design", "--out-dir", str(out)]) == 0
    design_path = out / "design.json"
    assert design_path.exists()

    cfg = _write(tmp_path / "sim.json", {"trials": 2, "steps": 15})
    run = tmp_path / "run"
    code = main(["simulate", "--config", cfg, "--design", str(design_path),
                 "--out-dir", str(run), "--seed", "5"])
    assert code == 0
    for name in ("trace.csv", "trajectory.csv", "summary.csv", "meta.json"):
        assert (run / name).exists()
    meta = json.loads((run / "meta.json").read_text())
    assert meta["config"]["seed"] == 5
    assert meta["config"]["dropout"] == {"kind": "markov", "p_dd": 0.8, "p_dg": 0.2}
    assert meta["results"]["total_violations"] == 0


def test_simulate_with_saved_design_is_byte_identical(tmp_path):
    # reusing design.json must not perturb a single output byte
    out = tmp_path / "d"
    assert main(["design", "--out-dir", str(out)]) == 0
    cfg = _write(tmp_path / "c.json", {"trials": 3, "steps": 20, "seed": 11})
    a, b = tmp_path / "fresh", tmp_path / "reused"
    assert main(["simulate", "--config", cfg, "--out-dir", str(a)]) == 0
    assert main(["simulate", "--config", cfg, "--design", str(out / "design.json"),
                 "--out-dir", str(b)]) == 0
    for name in ("trace.csv", "trajectory.csv", "summary.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_meta_config_lists_every_parameter(tmp_path):
    from sparseppc.sim import SimConfig

    cfg = _write(tmp_path / "c.json", {"trials": 2, "steps": 10})
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
    meta = json.loads((out / "meta.json").read_text())
    for field in SimConfig.__dataclass_fields__:
        assert field in meta["config"], field
    assert meta["config"]["paired_trials"] is True
    assert "l1l2_zero_clamp" in meta["config"]


def test_design_reads_a_simulate_config(tmp_path, capsys):
    sim_cfg = {"trials": 2, "steps": 15, "N": 8, "eta": 0.5,
               "noise": {"kind": "gaussian", "sigma": 0.01}}
    assert main(["design", "--config", _write(tmp_path / "s.json", sim_cfg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["N"] == 8 and doc["eta"] == 0.5
    bad = _write(tmp_path / "bad.json", {"N": 8, "not_a_key": 1})
    assert main(["design", "--config", bad]) == 2


def test_design_hidden_horizon_dump(tmp_path):
    out = tmp_path / "d"
    assert main(["design", "--out-dir", str(out), "--dump-horizon"]) == 0
    G = np.loadtxt(out / "G.csv", delimiter=",")
    assert G.shape == (40, 10)


def test_simulate_requires_out_dir():
    assert main(["simulate"]) == 2


def test_simulate_byte_identical_reruns(tmp_path):
    cfg = _write(tmp_path / "c.json", {"trials": 3, "steps": 20, "seed": 42})
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out-dir", str(a)]) == 0
    assert main(["simulate", "--config", cfg, "--out-dir", str(b)]) == 0
    for name in ("trace.csv", "trajectory.csv", "summary.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_validation_exit_code(tmp_path):
    cfg = _write(tmp_path / "bad.json", {"trials": -3})
    assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 2
    cfg2 = _write(tmp_path / "bad2.json", {"unknown_key": 1})
    assert main(["simulate", "--config", cfg2, "--out-dir", str(tmp_path / "o2")]) == 2
    assert main(["simulate", "--config", str(tmp_path / "missing.json"),
                 "--out-dir", str(tmp_path / "o3")]) == 2


def test_solver_failure_exit_code(tmp_path):
    # a hugely negative Riccati regularizer drives B'PB + delta negative
    cfg = _write(tmp_path / "c.json", {"trials": 1, "steps": 5, "delta": -1e9})
    assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 3


def test_simulate_plots(tmp_path):
    cfg = _write(tmp_path / "c.json", {"trials": 2, "steps": 15})
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out), "--plots"]) == 0
    svg = (out / "norm_vs_k.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_sweep_cli(tmp_path):
    cfg = _write(tmp_path / "c.json", {"trials": 2, "steps": 15})
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", cfg, "--family", "l2",
                 "--grid", "1e0,1e2,1e4", "--out-dir", str(out), "--seed", "3"])
    assert code == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "family,nu,mean_perf"
    assert len(rows) == 4
    meta = json.loads((out / "meta.json").read_text())
    assert meta["sweep"]["argmin_nu"] in (1.0, 100.0, 10000.0)
    assert main(["sweep", "--config", cfg, "--out-dir", str(tmp_path / "s2")]) == 2


def test_bitrate_cli(tmp_path):
    cfg = _write(tmp_path / "c.json", {"trials": 4, "train_trials": 4, "steps": 25})
    out = tmp_path / "rates"
    code = main(["bitrate", "--config", cfg, "--out-dir", str(out), "--seed", "2"])
    assert code == 0
    rows = (out / "rates.csv").read_text().strip().splitlines()
    assert rows[0] == "trial,k,scheme,bits"
    assert len(rows) == 1 + 2 * 4 * 25
    meta = json.loads((out / "meta.json").read_text())
    assert meta["rates"]["roundtrip_failures"] == 0
    codec = json.loads((out / "codec_omp.json").read_text())
    assert codec["scheme"] == "sparse" and len(codec["coders"]) == 10


def test_bitrate_quantizer_overflow_exit_code(tmp_path):
    # packets of order 1 overflow the 32-bit index range at a 1e-12 step
    cfg = _write(tmp_path / "c.json", {"trials": 2, "train_trials": 2, "steps": 10,
                                        "quantizer_delta": 1e-12})
    assert main(["bitrate", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 3


def test_bitrate_byte_identical_reruns(tmp_path):
    cfg = _write(tmp_path / "c.json", {"trials": 3, "train_trials": 3, "steps": 15})
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["bitrate", "--config", cfg, "--out-dir", str(a), "--seed", "8"]) == 0
    assert main(["bitrate", "--config", cfg, "--out-dir", str(b), "--seed", "8"]) == 0
    assert (a / "rates.csv").read_bytes() == (b / "rates.csv").read_bytes()
