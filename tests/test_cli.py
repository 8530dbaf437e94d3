import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseppc.cli import _json_text, build_parser, main
from sparseppc.codec import EncodedPacket, decode, encode
from sparseppc.sim import NS_MAIN, NS_TEST, NS_TRAIN

from .oracles import bit_account_reference, codec_from_dict


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


_JSON_SCALARS = st.one_of(
    st.integers(), st.booleans(), st.none(), st.text(),
    st.floats(), st.sampled_from([0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324]))
_JSON_DOCS = st.recursive(_JSON_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=5), st.dictionaries(st.text(), inner, max_size=5)), max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(doc=_JSON_DOCS)
def test_the_json_writer_writes_what_json_writes(doc):
    # str keys with escapes and non-ASCII; dicts and lists of every scalar json
    # writes (floats signed zero, NaN, infinite and subnormal), empty ones too
    assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_design_to_stdout(capsys):
    assert main(["design"]) == 0
    text = capsys.readouterr().out
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
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


def test_simulate_rejects_a_design_of_another_plant(tmp_path, capsys):
    out = tmp_path / "d"
    assert main(["design", "--out-dir", str(out)]) == 0
    design = str(out / "design.json")
    # the design is built from the config first, so a plant of another
    # size must itself be reachable to reach the comparison
    for plant in ({"preset": "cessna500", "Ts": 0.4},
                  {"A": [[1.0, 1.0], [0.0, 1.0]], "B": [0.5, 1.0]}):
        cfg = _write(tmp_path / "c.json", {"trials": 3, "steps": 10, "plant": plant})
        assert main(["simulate", "--config", cfg, "--design", design,
                     "--out-dir", str(tmp_path / "o")]) == 2
        assert "differs from the config's own design" in capsys.readouterr().err
    cfg = _write(tmp_path / "c.json", {"trials": 3, "steps": 10, "delta": 1e-3})
    assert main(["simulate", "--config", cfg, "--design", design,
                 "--out-dir", str(tmp_path / "o")]) == 2


def test_simulate_rejects_a_design_of_another_q_or_eta(tmp_path, capsys):
    out = tmp_path / "d"
    assert main(["design", "--out-dir", str(out)]) == 0
    design = str(out / "design.json")
    twice = (2.0 * np.eye(4)).tolist()
    for doc in ({"Q": twice}, {"eta": 0.5}, {"Q": twice, "eta": 0.5}):
        cfg = _write(tmp_path / "c.json", {"trials": 3, "steps": 10, **doc})
        assert main(["simulate", "--config", cfg, "--design", design,
                     "--out-dir", str(tmp_path / "o")]) == 2, doc
        assert "differs from the config's own design" in capsys.readouterr().err
        # a design built from that same config is accepted
        assert main(["design", "--config", cfg, "--out-dir", str(tmp_path / "own")]) == 0
        assert main(["simulate", "--config", cfg, "--design", str(tmp_path / "own" / "design.json"),
                     "--out-dir", str(tmp_path / "o")]) == 0, doc


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


def test_simulate_rejects_a_design_file_edited_away_from_the_config(tmp_path, capsys):
    out = tmp_path / "d"
    assert main(["design", "--out-dir", str(out)]) == 0
    capsys.readouterr()
    design = json.loads((out / "design.json").read_text())
    P = np.asarray(design["P"])
    cfg = _write(tmp_path / "c.json", {"trials": 2, "steps": 20})
    for i, (edit, differ) in enumerate((
            ({"W": (1e3 * P).tolist()}, ["W"]),
            ({"c": -5.0, "Eps": np.zeros((4, 4)).tolist()}, ["Eps", "c"]),
            ({"W": np.eye(2).tolist()}, ["W"]),
            ({"N": 8}, ["N"]))):
        path = _write(tmp_path / f"design{i}.json", {**design, **edit})
        run = tmp_path / f"o{i}"
        assert main(["simulate", "--config", cfg, "--design", path,
                     "--out-dir", str(run)]) == 2, edit
        assert f"fields {differ}" in capsys.readouterr().err
        assert not run.exists()


def test_simulate_accepts_a_design_within_the_riccati_tolerance(tmp_path):
    out = tmp_path / "d"
    assert main(["design", "--out-dir", str(out)]) == 0
    design = json.loads((out / "design.json").read_text())
    design["P"] = (np.asarray(design["P"]) * (1 + 1e-12)).tolist()
    path = _write(tmp_path / "scaled.json", design)
    cfg = _write(tmp_path / "c.json", {"trials": 3, "steps": 20, "seed": 4})
    a, b = tmp_path / "fresh", tmp_path / "scaled"
    assert main(["simulate", "--config", cfg, "--out-dir", str(a)]) == 0
    assert main(["simulate", "--config", cfg, "--design", path, "--out-dir", str(b)]) == 0
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


def test_design_reads_a_simulate_config(tmp_path, capsys):
    sim_cfg = {"trials": 2, "steps": 15, "N": 8, "eta": 0.5,
               "noise": {"kind": "gaussian", "sigma": 0.01}}
    assert main(["design", "--config", _write(tmp_path / "s.json", sim_cfg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["N"] == 8 and doc["eta"] == 0.5
    bad = _write(tmp_path / "bad.json", {"N": 8, "not_a_key": 1})
    assert main(["design", "--config", bad]) == 2


def test_a_design_whose_gtg_does_not_factor_exits_3_and_writes_nothing(tmp_path, capsys):
    # G'G of these reachable plants passes build_horizon's rank test, but
    # not the Cholesky factorization of the contraction constants
    for i, (A, B, N, delta) in enumerate((([[9.0]], [5e-05], 4, 1), ([[-6.3]], [0.0026], 8, 1),
                                          ([[-29.874774042211197]], [3.5871756293554187], 7, 0))):
        cfg = _write(tmp_path / f"c{i}.json", {"plant": {"A": A, "B": B}, "N": N, "delta": delta})
        out = tmp_path / f"d{i}"
        assert main(["design", "--config", cfg, "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: DesignInfeasibleError: G'G") and err.count("\n") == 1, err
        assert not out.exists()


def test_design_has_no_horizon_dump(tmp_path, capsys):
    # G and H are one build_horizon call away; the CLI writes neither
    with pytest.raises(SystemExit) as exc:
        main(["design", "--out-dir", str(tmp_path / "d"), "--dump-horizon"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --dump-horizon" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_simulate_requires_out_dir():
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])
    assert exc.value.code == 2


def test_out_dir_that_cannot_be_a_directory_exits_2(tmp_path, monkeypatch, capsys):
    # an existing file, a dangling symlink, and a path under either: each
    # command exits 2 with one error line, and finds out before its first trial
    import sparseppc.sim as sim_mod

    trials = []
    real_engine = sim_mod._lockstep
    monkeypatch.setattr(sim_mod, "_lockstep",
                        lambda *a, **kw: trials.append(a) or real_engine(*a, **kw))
    cfg = _write(tmp_path / "c.json", {"trials": 2, "train_trials": 2, "steps": 10})
    taken = tmp_path / "taken"
    taken.write_text("")
    dangling = tmp_path / "dangling"
    dangling.symlink_to(tmp_path / "nowhere")
    for command, extra in (("simulate", []), ("sweep", ["--family", "l2", "--grid", "1"]),
                           ("bitrate", []), ("design", [])):
        for out in (taken, taken / "sub", dangling, dangling / "sub"):
            assert main([command, "--config", cfg, "--out-dir", str(out), *extra]) == 2, command
            err = capsys.readouterr().err
            assert err.startswith("error: cannot create output directory"), err
            assert err.count("\n") == 1, err
        assert trials == [], command
    assert taken.read_text() == ""
    assert not (tmp_path / "nowhere").exists()


def test_simulate_byte_identical_reruns(tmp_path):
    cfg = _write(tmp_path / "c.json", {"trials": 3, "steps": 20, "seed": 42})
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out-dir", str(a)]) == 0
    assert main(["simulate", "--config", cfg, "--out-dir", str(b)]) == 0
    for name in ("trace.csv", "trajectory.csv", "summary.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


# each command's options that write every file it can, and those files
WRITES = {
    "simulate": (["--plots"], ("meta.json", "norm_vs_k.svg", "norm_vs_k_linear.svg",
                               "sparsity_vs_k.svg", "summary.csv", "trace.csv",
                               "trajectory.csv")),
    "sweep": (["--family", "l2", "--grid", "1,100", "--plots"],
              ("meta.json", "sweep.csv", "sweep.svg")),
    "bitrate": (["--dump-packets"], ("codec_l2.json", "codec_omp.json", "meta.json",
                                     "packets.csv", "rates.csv")),
    "design": ([], ("design.json",)),
}


# the flag of each command that adds optional outputs, and those outputs
OPTIONAL = {
    "simulate": ("--plots", {"norm_vs_k.svg", "norm_vs_k_linear.svg", "sparsity_vs_k.svg"}),
    "sweep": ("--plots", {"sweep.svg"}),
    "bitrate": ("--dump-packets", {"packets.csv"}),
}


def _write_all(tmp_path, command, out, without=()):
    """Run command into out with every output it has, but the flags in without; its exit code."""
    cfg = _write(tmp_path / "c.json", {"trials": 2, "train_trials": 2, "steps": 10, "seed": 4})
    flags = [flag for flag in WRITES[command][0] if flag not in without]
    return main([command, "--config", cfg, "--out-dir", str(out), *flags])


def _outputs(out) -> dict:
    """Each file's bytes by name; meta.json without its wall-clock timing."""
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    if "meta.json" in files:
        meta = json.loads(files["meta.json"])
        meta.pop("timing", None)
        files["meta.json"] = meta
    return files


@pytest.mark.parametrize("command", list(WRITES))
def test_a_rerun_replaces_every_output_with_the_same_bytes(tmp_path, command):
    out = tmp_path / "o"
    assert _write_all(tmp_path, command, out) == 0
    first = _outputs(out)
    assert sorted(first) == list(WRITES[command][1])
    assert _write_all(tmp_path, command, out) == 0
    assert _outputs(out) == first


@pytest.mark.parametrize("command", list(OPTIONAL))
def test_a_rerun_removes_the_optional_outputs_it_does_not_write(tmp_path, command):
    flag, names = OPTIONAL[command]
    out, fresh = tmp_path / "o", tmp_path / "fresh"
    assert _write_all(tmp_path, command, out) == 0
    assert names <= set(_outputs(out))
    assert _write_all(tmp_path, command, out, without=[flag]) == 0
    assert _write_all(tmp_path, command, fresh, without=[flag]) == 0
    assert not names & set(_outputs(out))
    assert _outputs(out) == _outputs(fresh)


@pytest.mark.parametrize("command", list(OPTIONAL))
def test_an_optional_output_that_cannot_be_removed_exits_2(tmp_path, command, capsys):
    flag, names = OPTIONAL[command]
    for name in sorted(names):
        out = tmp_path / f"{command}-{name}"
        (out / name / "kept").mkdir(parents=True)
        assert _write_all(tmp_path, command, out, without=[flag]) == 2, name
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot remove {out / name}: "), err
        assert err.count("\n") == 1 and "Traceback" not in err, err
        assert (out / name / "kept").is_dir()


@pytest.mark.parametrize("command", list(WRITES))
def test_an_output_path_that_is_a_directory_exits_2(tmp_path, command, capsys):
    for name in WRITES[command][1]:
        out = tmp_path / f"{command}-{name}"
        (out / name).mkdir(parents=True)
        assert _write_all(tmp_path, command, out) == 2, name
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out / name}: "), err
        assert err.count("\n") == 1 and "Traceback" not in err, err
        assert (out / name).is_dir()


@pytest.mark.parametrize("command", list(WRITES))
def test_a_symlink_at_an_output_path_is_replaced_and_its_target_kept(tmp_path, command):
    fresh, out, targets = tmp_path / "fresh", tmp_path / "o", tmp_path / "targets"
    assert _write_all(tmp_path, command, fresh) == 0
    out.mkdir()
    targets.mkdir()
    for name in WRITES[command][1]:
        (targets / name).write_text("kept")
        (out / name).symlink_to(targets / name)
    assert _write_all(tmp_path, command, out) == 0
    assert _outputs(out) == _outputs(fresh)
    for name in WRITES[command][1]:
        assert not (out / name).is_symlink() and (out / name).is_file(), name
        assert (targets / name).read_text() == "kept", name


def test_validation_exit_code(tmp_path):
    cfg = _write(tmp_path / "bad.json", {"trials": -3})
    assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 2
    cfg2 = _write(tmp_path / "bad2.json", {"unknown_key": 1})
    assert main(["simulate", "--config", cfg2, "--out-dir", str(tmp_path / "o2")]) == 2
    assert main(["simulate", "--config", str(tmp_path / "missing.json"),
                 "--out-dir", str(tmp_path / "o3")]) == 2
    # config errors found before any design or trial work still exit 2
    run = {"trials": 2, "steps": 5}
    cases = [
        ({"nu2": 0}, ["--controller", "l2"]),
        ({"N": 0}, []),
        ({"x0": [1, 2]}, []),
        ({"dropout": {"kind": "scripted", "script": [0, 1, 0]}}, []),
        ({"N": 3, "dropout": {"kind": "scripted", "script": [0, 1, 1, 1] * 5}}, []),
        ({"N": 13}, ["--controller", "oracle"]),
        ({"N": "10"}, []),
        ({"nu1": "1e3"}, []),
        ({"steps": 2.5}, []),
        ({"oracle_cap": 12}, []),
        ({"noise": {"kind": "gaussian", "sigma": -1}}, []),
        ({"dropout": 5}, []),
        ({"Q": "bogus"}, []),
        ({"noise": {"kind": "gaussian", "sigma": "a"}}, []),
        ({"noise": {"kind": "none", "sigma": 0.1}}, []),
        ({"noise": {"kind": "gaussian", "sigm": 0.1}}, []),
        ({"x0": [1, "a", 0, 0]}, []),
        ({"plant": {"A": "x", "B": [1]}}, []),
        ({"plant": {"preset": "cessna500", "Ts": "x"}}, []),
        ({"dropout": {"kind": "markov", "p_dd": "x"}}, []),
        ({"dropout": {"kind": "iid", "p_drop": None}}, []),
        ({"dropout": {"kind": "scripted", "script": [0, "a"]}}, []),
        ({"dropout": {"kind": "scripted", "script": [0, 256, 0, 0, 0]}}, []),
        ({"plant": {"preset": [1]}}, []),
    ]
    for i, (doc, extra) in enumerate(cases):
        cfg = _write(tmp_path / f"bad{i}.json", {**run, **doc})
        argv = ["simulate", "--config", cfg, "--out-dir", str(tmp_path / f"o{i}")]
        assert main(argv + extra) == 2, doc
    # JSON 1e400 reads as inf, and a 401-digit integer overflows a float:
    # a setting that is no finite number, a negative seed and a Q that is
    # not symmetric positive definite exit 2 before any run, and so never
    # reach meta.json
    huge = "1" + "0" * 400
    negative = json.dumps(np.diag([1, 1, 1, -1]).tolist())
    asym = np.eye(4).tolist()
    asym[0][1] = 0.5
    asym = json.dumps(asym)
    for i, (entry, cmd) in enumerate((
            ('"nu2": 1e400', ["simulate", "--controller", "l2"]),
            ('"nu1": 1e400', ["simulate"]),
            ('"delta": 1e400', ["simulate"]),
            ('"eta": -1e400', ["simulate"]),
            ('"noise": {"kind": "gaussian", "sigma": 1e400}', ["simulate"]),
            ('"quantizer_delta": 1e400', ["bitrate"]),
            (f'"nu2": {huge}', ["simulate", "--controller", "l2"]),
            (f'"noise": {{"kind": "gaussian", "sigma": {huge}}}', ["simulate"]),
            ('"seed": -1', ["simulate"]),
            ('"seed": 1', ["simulate", "--seed", "-1"]),
            ('"plant": {"preset": "cessna500", "Ts": 1e400}', ["simulate"]),
            (f'"plant": {{"preset": "cessna500", "Ts": {huge}}}', ["simulate"]),
            (f'"Q": {negative}', ["simulate"]),
            (f'"Q": {negative}', ["design"]),
            (f'"Q": {asym}', ["simulate"]),
            (f'"Q": {asym}', ["design"]))):
        cfg = tmp_path / f"inf{i}.json"
        cfg.write_text('{"trials": 2, "train_trials": 2, "steps": 5, ' + entry + "}")
        out = tmp_path / f"inf_out{i}"
        assert main(cmd + ["--config", str(cfg), "--out-dir", str(out)]) == 2, entry
        assert not out.exists()
    # an int setting past the signed 64-bit range exits 2 before any array
    # of that size is made, from the file or from a flag. trials has the
    # same bound (test_config_validation); no case here would loop over
    # 2^63 trials if that bound broke
    for i, (doc, flags) in enumerate((({"steps": 10**30}, []), ({"N": 10**30}, []),
                                      ({"seed": 2**63}, []), ({"train_trials": 10**30}, []),
                                      ({}, ["--seed", str(2**63)]),
                                      ({}, ["--steps", str(10**30)]))):
        cfg = _write(tmp_path / f"int{i}.json", {**run, **doc})
        out = tmp_path / f"int_out{i}"
        assert main(["simulate", "--config", cfg, "--out-dir", str(out), *flags]) == 2, doc
        assert not out.exists()
    # past 4300 digits Python's json cannot read an integer at all
    cfg = tmp_path / "long_int.json"
    cfg.write_text('{"steps": 1' + "0" * 5000 + "}")
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "lo")]) == 2
    assert not (tmp_path / "lo").exists()
    cfg = _write(tmp_path / "sweep.json", run)
    for grid in ("1e2,-1", "1e2,abc", "inf", "1e2,,1e3"):
        assert main(["sweep", "--config", cfg, "--family", "l2", "--grid", grid,
                     "--out-dir", str(tmp_path / "s")]) == 2, grid
    for grid in (["a"], 5, [1e2, None], [[1e2]]):
        cfg = _write(tmp_path / "sweep.json", {**run, "family": "l2", "grid": grid})
        assert main(["sweep", "--config", cfg, "--out-dir", str(tmp_path / "s")]) == 2, grid
    # a design file whose fields are not numbers of the right shape
    assert main(["design", "--out-dir", str(tmp_path / "d")]) == 0
    design = json.loads((tmp_path / "d" / "design.json").read_text())
    cfg = _write(tmp_path / "run.json", run)
    for i, field in enumerate(({"N": "x"}, {"P": "abc"}, {"eta": None}, {"N": 10.5},
                               {"c1": [1.0, 2.0]}, {"K": design["P"]})):
        path = _write(tmp_path / f"design{i}.json", {**design, **field})
        assert main(["simulate", "--config", cfg, "--design", path,
                     "--out-dir", str(tmp_path / f"do{i}")]) == 2, field


def test_config_errors_print_a_bounded_value(tmp_path, capsys):
    # the offending value is echoed only in part: a 4000-digit steps and an
    # x0 of 100 000 numbers and one string each take a short line on stderr
    for i, text in enumerate(('{"steps": 1' + "0" * 3999 + "}",
                              json.dumps({"x0": [0.5] * 100_000 + ["a"]}))):
        cfg = tmp_path / f"c{i}.json"
        cfg.write_text(text)
        out = tmp_path / f"o{i}"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err) < 300, err[:400]
        assert not out.exists()


def test_overflowed_state_prints_one_error_line_and_no_warning(tmp_path, capsys):
    # x'Px overflows at step 0 of every trial: the run exits 3 with its one
    # error line, and numpy warns of nothing on the way
    import warnings

    cfg = _write(tmp_path / "c.json", {"trials": 2, "steps": 5, "x0": [1e308] * 4})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 3
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error: SparsePpcError: all 2 trials failed; first: NumericError")
    assert err.count("\n") == 1, err


def test_overflowed_performance_exits_3_and_writes_no_infinity(tmp_path, capsys):
    # every state stays finite, but sum_k ||x(k)||^2 overflows: nu1 is so
    # large that every l1 packet is zero, and the open loop grows from x0
    import warnings

    cfg = _write(tmp_path / "c.json", {"x0": [1e150, 1, 0, 0], "controller": "l1l2",
                                       "nu1": 1e300, "trials": 2, "steps": 100})
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 3
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error: SparsePpcError: all 2 trials failed; first: NumericError: "
                          "performance"), err
    assert err.count("\n") == 1, err
    for path in out.rglob("*"):
        text = path.read_text()
        assert "Infinity" not in text and "NaN" not in text, path


def test_solver_failure_exit_code(tmp_path, monkeypatch):
    # a Riccati iteration cut off after two steps fails to converge
    from sparseppc import design

    monkeypatch.setattr(design, "DARE_MAX_ITER", 2)
    cfg = _write(tmp_path / "c.json", {"trials": 1, "steps": 5})
    assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 3


def test_negative_delta_exits_2_and_writes_nothing(tmp_path, capsys):
    # the OMP termination bound needs delta >= 0; a negative one used to
    # fail every trial (or the Riccati iteration) only after the design
    for delta in (-1e-3, -0.5, -1e9):
        cfg = _write(tmp_path / "c.json", {"trials": 2, "steps": 5, "delta": delta})
        for command in ("simulate", "design"):
            out = tmp_path / f"{command}{delta}"
            assert main([command, "--config", cfg, "--out-dir", str(out)]) == 2, (command, delta)
            err = capsys.readouterr().err
            assert err.startswith("error: delta must be >= 0") and err.count("\n") == 1, err
            assert not out.exists()


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
    # a noise-free sweep writes each value's Lyapunov violation count
    violations = meta["sweep"]["violations"]
    assert len(violations) == 3 and all(isinstance(v, int) and v >= 0 for v in violations)
    assert main(["sweep", "--config", cfg, "--out-dir", str(tmp_path / "s2")]) == 2


def test_sweep_flags_override_config_family_and_grid(tmp_path):
    cfg = _write(tmp_path / "c.json", {"trials": 2, "steps": 15, "family": "l2",
                                        "grid": [1e0, 1e2]})
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--family", "l1l2", "--grid", "1e3,1e4",
                 "--out-dir", str(out)]) == 0
    rows = [row.split(",") for row in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert [(family, float(nu)) for family, nu, _ in rows] == [("l1l2", 1e3), ("l1l2", 1e4)]


def test_sweep_lists_a_failed_trial_and_averages_the_others(tmp_path, monkeypatch, fail_trials):
    from sparseppc.sim import SimConfig, monte_carlo

    cfg = _write(tmp_path / "c.json", {"steps": 10})
    out = tmp_path / "s"
    fail_trials(lambda cfg, key: cfg.nu1 == 1e2 and key == (NS_MAIN, 1))
    assert main(["sweep", "--config", cfg, "--family", "l1l2", "--grid", "1e2,1e3",
                 "--trials", "3", "--seed", "4", "--out-dir", str(out)]) == 0
    monkeypatch.undo()
    meta = json.loads((out / "meta.json").read_text())
    assert meta["sweep"]["failures"] == [
        {"nu": 100.0, "trial": 1, "error": "SolverFailureError: synthetic failure"}]
    perf = monte_carlo(SimConfig(controller="l1l2", nu1=1e2, trials=3, steps=10,
                                 seed=4)).records.perf
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[1] == f"l1l2,100.0,{float(np.mean(perf[[0, 2]]))}"


def test_sweep_value_whose_trials_all_fail_exits_3(tmp_path, capsys, fail_trials):
    cfg = _write(tmp_path / "c.json", {"steps": 10})
    out = tmp_path / "s"
    fail_trials(lambda cfg, key: cfg.nu1 == 1e3)
    assert main(["sweep", "--config", cfg, "--family", "l1l2", "--grid", "1e2,1e3",
                 "--trials", "3", "--out-dir", str(out)]) == 3
    assert capsys.readouterr().err == ("error: SparsePpcError: all 3 trials failed at "
                                       "nu1 = 1000.0; first: SolverFailureError: "
                                       "synthetic failure\n")
    assert not (out / "sweep.csv").exists()


def test_sweep_rejects_a_match_perf_that_is_not_finite(tmp_path, capsys):
    # abs(p - nan) is nan for every p, so argmin used to report grid[0] as matched
    cfg = _write(tmp_path / "c.json", {"trials": 2, "steps": 15})
    for level in ("nan", "inf", "-inf"):
        out = tmp_path / level
        assert main(["sweep", "--config", cfg, "--family", "l2", "--grid", "1,2",
                     f"--match-perf={level}", "--out-dir", str(out)]) == 2, level
        assert "match_perf must be a finite number" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()


def test_sweep_family_that_is_no_string_exits_2(tmp_path, capsys):
    # a list or a mapping used to raise TypeError (unhashable) from the
    # family lookup and exit 1
    for family in (["l2"], {"a": 1}):
        cfg = _write(tmp_path / "c.json", {"trials": 2, "steps": 10, "family": family,
                                            "grid": [1]})
        out = tmp_path / "s"
        assert main(["sweep", "--config", cfg, "--out-dir", str(out)]) == 2, family
        err = capsys.readouterr().err
        assert err.startswith("error: sweep family must be one of") and err.count("\n") == 1
        assert not out.exists()


def test_sweep_family_choices_are_the_sweep_keys():
    from sparseppc.sim import SWEEP_KEYS

    sweep = build_parser()._subparsers._group_actions[0].choices["sweep"]
    family = next(a for a in sweep._actions if a.dest == "family")
    assert family.choices == list(SWEEP_KEYS)


def test_bitrate_takes_no_plots(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bitrate", "--plots", "--out-dir", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "--plots" in capsys.readouterr().err


def test_meta_json_holds_tool_config_and_the_command_sections(tmp_path):
    cfg = _write(tmp_path / "c.json", {"trials": 2, "train_trials": 2, "steps": 15})
    for command, extra, sections in (
            ("simulate", [], {"results", "timing"}),
            ("sweep", ["--family", "l2", "--grid", "1,2"], {"sweep"}),
            ("bitrate", [], {"rates"})):
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out-dir", str(out), *extra]) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert set(meta) == {"tool", "config"} | sections, command
        assert meta["tool"]["name"] == "sparseppc"


def test_meta_config_records_the_settings_the_runs_used(tmp_path):
    # bitrate runs OMP against l2 whatever the config's controller; a sweep
    # runs its family at each grid point's nu
    cfg = _write(tmp_path / "b.json", {"trials": 2, "train_trials": 2, "steps": 15,
                                        "controller": "l1l2", "nu2": 5.0})
    assert main(["bitrate", "--config", cfg, "--out-dir", str(tmp_path / "b")]) == 0
    config = json.loads((tmp_path / "b" / "meta.json").read_text())["config"]
    assert config["controller"] == ["omp", "l2"] and config["nu2"] == 5.0
    cfg = _write(tmp_path / "s.json", {"trials": 2, "steps": 15})
    assert main(["sweep", "--config", cfg, "--family", "l2", "--grid", "1,2",
                 "--out-dir", str(tmp_path / "s")]) == 0
    config = json.loads((tmp_path / "s" / "meta.json").read_text())["config"]
    assert config["controller"] == "l2" and config["nu2"] == [1.0, 2.0]
    assert config["nu1"] == 5.3e3


def test_bitrate_cli(tmp_path):
    cfg = _write(tmp_path / "c.json", {"trials": 4, "train_trials": 4, "steps": 25})
    out = tmp_path / "rates"
    code = main(["bitrate", "--config", cfg, "--out-dir", str(out), "--seed", "2",
                 "--dump-packets"])
    assert code == 0
    rows = (out / "rates.csv").read_text().strip().splitlines()
    assert rows[0] == "trial,k,scheme,bits"
    assert len(rows) == 1 + 2 * 4 * 25
    meta = json.loads((out / "meta.json").read_text())
    assert meta["rates"]["roundtrip_failures"] == 0
    codecs = {"sparse": codec_from_dict(json.loads((out / "codec_omp.json").read_text())),
              "dense": codec_from_dict(json.loads((out / "codec_l2.json").read_text()))}
    assert codecs["sparse"].scheme == "sparse" and len(codecs["sparse"].coders) == 10
    assert codecs["dense"].scheme == "dense"
    for name in ("codec_omp.json", "codec_l2.json"):
        doc = json.loads((out / name).read_text())
        assert all(set(c) == {"position", "lengths"} for c in doc["coders"])
    # every dumped packet, cut to its bit count, decodes with the codec
    # rebuilt from the lengths alone and re-encodes to the same hex
    packets = (out / "packets.csv").read_text().strip().splitlines()
    assert packets[0] == "trial,k,scheme,bit_count,hex"
    assert [p.split(",")[:4] for p in packets[1:]] == [r.split(",") for r in rows[1:]]
    for row in packets[1:]:
        _trial, _k, scheme, bit_count, hexdump = row.split(",")
        codec = codecs[scheme]
        enc = encode(codec, decode(codec, EncodedPacket(bytes.fromhex(hexdump), int(bit_count))))
        assert enc.to_hex() == hexdump


def test_bitrate_lists_failed_train_and_test_trials(tmp_path, fail_trials):
    # OMP training trial 1 and test trial 0 fail: neither trains the codec
    # nor is coded, and meta.json lists both
    cfg = _write(tmp_path / "c.json", {"trials": 2, "train_trials": 3, "steps": 15})
    out = tmp_path / "o"
    fail_trials(lambda cfg, key: cfg.controller == "omp" and
                key in ((NS_TRAIN, 1), (NS_TEST, 0)))
    assert main(["bitrate", "--config", cfg, "--out-dir", str(out)]) == 0
    error = "SolverFailureError: synthetic failure"
    assert json.loads((out / "meta.json").read_text())["rates"]["failures"] == [
        {"controller": "omp", "phase": "train", "trial": 1, "error": error},
        {"controller": "omp", "phase": "test", "trial": 0, "error": error}]
    rows = [row.split(",") for row in (out / "rates.csv").read_text().splitlines()[1:]]
    assert {trial for trial, _k, scheme, _bits in rows if scheme == "sparse"} == {"1"}


def test_bitrate_bit_account_adds_up_to_the_mean_bits(tmp_path, fail_trials):
    # OMP training trial 1 and l2 test trial 0 fail; each scheme's account in
    # meta.json is that of its coded test packets, read back from packets.csv
    # and the codec files, and its parts add up to mean_bits_*
    cfg = _write(tmp_path / "c.json", {"trials": 3, "train_trials": 3, "steps": 15})
    out = tmp_path / "o"
    fail_trials(lambda cfg, key: (cfg.controller, key) in (("omp", (NS_TRAIN, 1)),
                                                            ("l2", (NS_TEST, 0))))
    assert main(["bitrate", "--config", cfg, "--out-dir", str(out), "--dump-packets"]) == 0
    rates = json.loads((out / "meta.json").read_text())["rates"]
    assert len(rates["failures"]) == 2
    rows = [row.split(",") for row in (out / "packets.csv").read_text().splitlines()[1:]]
    for controller, scheme in (("omp", "sparse"), ("l2", "dense")):
        codec = codec_from_dict(json.loads((out / f"codec_{controller}.json").read_text()))
        packets = [decode(codec, EncodedPacket(bytes.fromhex(hexdump), int(bits)))
                   for _t, _k, s, bits, hexdump in rows if s == scheme]
        assert len(packets) == (3 if scheme == "sparse" else 2) * 15
        got, want = rates[f"bit_account_{controller}"], bit_account_reference(codec, packets)
        count = want["packets"]
        assert got["bitmap"] == want["bitmap"] == (5 if scheme == "sparse" else 0)
        assert got["codewords"] == want["codewords"] / count
        assert got["escapes"] == want["escapes"] / count
        assert got["entropy"] == pytest.approx(want["entropy"], rel=1e-12, abs=1e-12)
        assert got["bound"] == pytest.approx(sum(want["entropy"]) + want["bitmap"], rel=1e-12)
        mean = rates[f"mean_bits_{controller}"]
        assert got["bitmap"] + got["codewords"] + got["escapes"] == pytest.approx(mean, rel=1e-12)
        assert (want["bitmap"] * count + want["codewords"] + want["escapes"]
                == sum(int(bits) for _t, _k, s, bits, _h in rows if s == scheme))


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
