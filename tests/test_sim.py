import ast
from collections import Counter
from dataclasses import fields, replace
from itertools import count
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparseppc as sp
from sparseppc.codec import EncodedPacket, codec_to_dict
from sparseppc.controllers import ControlPacket
from sparseppc.design import CostDesign
from sparseppc.errors import ConfigError
from sparseppc.sim import (BITRATE_PLAN, CONTROLLERS, CSV_CHUNK_ROWS, NS_MAIN, NS_TEST, NS_TRAIN,
                           SETUP_FIELDS, SWEEP_KEYS, SimConfig, TrialResult, build_setup,
                           config_from_dict, lyapunov_audit, make_controller, monte_carlo,
                           packet_columns, rate_columns, run_trial, summary_columns,
                           sweep_columns, sweep_regularization, trace_columns, trajectory_columns,
                           trial_inputs, write_csv)

from .oracles import (bitrate_reference, csv_reference, lyapunov_audit_reference,
                      sweep_reference, write_csv_reference)


def _setup(**kw):
    """A setup with the controller its config picks."""
    cfg = SimConfig(**kw)
    setup = build_setup(cfg)
    return setup, make_controller(cfg, setup)


def _quiet(T, n=4):
    return np.zeros((T, n))


def test_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(steps=0)
    with pytest.raises(ConfigError):
        SimConfig(controller="bogus")
    with pytest.raises(ConfigError):
        SimConfig(noise={"kind": "weird"})
    inf = float("inf")
    for bad in ({"N": 0}, {"nu1": 0.0}, {"nu2": -1.0}, {"nu1": float("nan")},
                {"nu1": inf}, {"nu2": inf}, {"delta": inf}, {"delta": float("nan")},
                {"delta": -1e-3}, {"delta": -0.5}, {"delta": -1e6},
                {"eta": -inf}, {"quantizer_delta": inf},
                {"noise": {"kind": "gaussian", "sigma": inf}},
                {"N": True}, {"trials": 3.0}, {"eta": "0.5"}, {"dropout": [0, 1]},
                {"Q": "diag"}, {"Q": [1.0, 2.0]}, {"Q": [[1.0, 0.0]]},
                {"Q": [[1.0, 0.0], [0.0, float("inf")]]}, {"Q": [[1.0], [2.0, 3.0]]},
                {"noise": {"kind": "gaussian", "sigma": "0.1"}},
                {"noise": {"kind": "gaussian", "sigma": True}},
                {"noise": {"kind": "gaussian", "sigma": -0.1}},
                {"noise": {"kind": "gaussian", "sigma": float("nan")}},
                {"noise": "none"}, {"noise": {"sigma": 0.1}},
                {"noise": {"kind": "none", "sigma": 0.1}},
                {"noise": {"kind": "gaussian", "sigm": 0.1}},
                {"x0": [1, "a", 0, 0]}, {"x0": [[1.0], [2.0, 3.0]]}, {"x0": "bogus"},
                {"nu2": 10**400}, {"seed": -1}, {"Q": [[1.0, 0.0], [0.0, -1.0]]},
                {"Q": [[1.0, 0.5], [0.0, 1.0]]}, {"steps": 10**30}, {"N": 10**30}):
        with pytest.raises(ConfigError):
            SimConfig(**bad)
    # every int field holds exactly the signed 64-bit range above its floor;
    # these configs are only built, never run
    ints = [f.name for f in fields(SimConfig) if f.type is int]
    assert ints == ["N", "steps", "trials", "train_trials", "seed"]
    for name in ints:
        assert getattr(SimConfig(**{name: 2**63 - 1}), name) == 2**63 - 1
        with pytest.raises(ConfigError, match=f"{name} must be in"):
            SimConfig(**{name: 2**63})
    # plant and dropout entries are checked when the setup is built, before
    # any design or trial work
    for bad in ({"plant": {"A": "x", "B": [1]}},
                {"plant": {"preset": "cessna500", "Ts": "x"}},
                {"plant": {"Ac": [[0.0]], "Bc": [1.0], "Ts": True}},
                {"plant": {"preset": "cessna500", "Ts": inf}},
                {"dropout": {"kind": "markov", "p_dd": "x"}},
                {"dropout": {"kind": "iid", "p_drop": None}},
                {"dropout": {"kind": "scripted", "script": [0, "a"]}},
                {"dropout": {"kind": "scripted", "script": 5}},
                {"plant": {"preset": "cessna500", "Tss": 0.01}},
                {"plant": {"A": [[1.1]], "B": [1], "Ts": 3}, "N": 3},
                {"dropout": {"kind": "iid", "p_dd": 0.9}},
                {"dropout": {"kind": "scripted", "script": [0] * 100, "p_drop": 0.5}}):
        with pytest.raises(ConfigError):
            build_setup(SimConfig(**bad))
    # a non-finite explicit x0 is well formed; its trial fails instead
    SimConfig(x0=[float("inf"), 0.0, 0.0, 0.0])
    for unknown in ({"not_a_key": 1}, {"oracle_cap": 12}):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict(unknown)
    cfg = config_from_dict({"trials": 7}, seed=99)
    assert cfg.trials == 7 and cfg.seed == 99


def test_config_errors_show_a_bounded_value():
    # a message echoes at most a short prefix of the offending value, and an
    # int past Python's 4300-digit str() limit still gives a ConfigError
    from sparseppc.channel import DropoutModel
    from sparseppc.linalg import shown
    from sparseppc.plant import ContinuousPlant, zoh_discretize

    huge = 10**5000
    long = [0.5] * 10_000
    cases = [lambda: SimConfig(steps=huge), lambda: SimConfig(steps=10**4000),
             lambda: SimConfig(seed=-huge), lambda: SimConfig(nu1=huge),
             lambda: SimConfig(x0=[huge, 0, 0, 0]), lambda: SimConfig(x0=long + ["a"]),
             lambda: SimConfig(Q=[[huge]]), lambda: SimConfig(controller="x" * 10_000),
             lambda: SimConfig(noise={"kind": "gaussian", "sigma": huge}),
             lambda: SimConfig(dropout=long),
             lambda: config_from_dict({"k" * 10_000: 1}),
             lambda: DropoutModel(kind="markov", N=10, p_dd=huge),
             lambda: DropoutModel(kind="scripted", N=3, script=[long]),
             lambda: zoh_discretize(ContinuousPlant(Ac=[[0.0]], Bc=[1.0]), huge),
             lambda: sp.resolve_plant("x" * 10_000),
             lambda: sp.resolve_plant({"preset": [1]}),
             lambda: sweep_regularization(SimConfig(), "l2", [long]),
             lambda: sweep_regularization(SimConfig(), "l2", [huge])]
    for i, case in enumerate(cases):
        with pytest.raises(ConfigError) as exc_info:
            case()
        assert len(str(exc_info.value)) < 200, (i, str(exc_info.value)[:300])
    assert shown(huge) == "<int too long to print>"
    assert shown([1, huge]) == "<list too long to print>"
    assert shown("abc") == "'abc'" and shown(2.5) == "2.5"
    assert shown(10**99) == "1" + "0" * 59 + "... (100 characters)"


# Config errors that no single field shows: each one names a shape, length
# or cap that only the plant, the dropout script or the controller fixes.
CROSS_FIELD_ERRORS = (
    {"x0": [1.0, 2.0]},
    {"dropout": {"kind": "scripted", "script": [0, 1, 0]}, "steps": 5},
    {"N": 3, "dropout": {"kind": "scripted", "script": [0, 1, 1, 1] * 5}},
    {"N": 13, "controller": "oracle"},
)


def test_trial_config_errors_stop_before_the_design(monkeypatch):
    import sparseppc.sim as sim_mod

    calls = []
    monkeypatch.setattr(sim_mod, "build_design", lambda *a, **kw: calls.append(a))
    for bad in CROSS_FIELD_ERRORS:
        cfg = SimConfig(**{"trials": 2, "steps": 20, **bad})
        with pytest.raises(ConfigError):
            sim_mod.build_setup(cfg)
        with pytest.raises(ConfigError):
            sim_mod.monte_carlo(cfg)
    assert calls == []


# A key its plant form or dropout kind never reads, and a quantizer step
# that is not positive, each with the name the error must give.
UNREAD_OR_BAD_SETTINGS = (
    ({"plant": {"preset": "cessna500", "Tss": 0.01}}, "Tss"),
    ({"plant": {"A": [[1.1]], "B": [1], "Ts": 3}, "N": 4}, "Ts"),
    ({"dropout": {"kind": "iid", "p_dd": 0.9}}, "p_dd"),
    ({"dropout": {"kind": "scripted", "script": [0] * 20, "p_drop": 0.5}}, "p_drop"),
    ({"quantizer_delta": -1.0}, "quantizer_delta"),
    ({"quantizer_delta": 0.0}, "quantizer_delta"),
)


def test_setting_errors_exit_2_before_the_design(monkeypatch, tmp_path, capsys):
    import json

    import sparseppc.plant as plant_mod
    import sparseppc.sim as sim_mod
    from sparseppc.cli import main

    designs, discretized = [], []
    real_zoh = plant_mod.zoh_discretize
    monkeypatch.setattr(sim_mod, "build_design", lambda *a, **kw: designs.append(a))
    monkeypatch.setattr(plant_mod, "zoh_discretize",
                        lambda *a: discretized.append(a) or real_zoh(*a))
    path = tmp_path / "c.json"
    for bad, name in UNREAD_OR_BAD_SETTINGS:
        path.write_text(json.dumps({"trials": 2, "train_trials": 2, "steps": 20,
                                    "noise": {"kind": "gaussian", "sigma": 0.01}, **bad}))
        discretized.clear()
        for command in ("simulate", "bitrate"):
            assert main([command, "--config", str(path), "--out-dir",
                         str(tmp_path / "o")]) == 2, (bad, command)
            assert name in capsys.readouterr().err, (bad, command)
        if "plant" in bad:
            assert discretized == [], bad
    assert designs == []


def test_rebinding_a_setup_checks_the_run_config(monkeypatch):
    import sparseppc.sim as sim_mod

    script = {"kind": "scripted", "script": [0, 1, 0]}
    cases = [(SimConfig(trials=2, steps=20), {"x0": [1.0, 2.0]}),
             (SimConfig(trials=2, steps=3, dropout=script), {"steps": 5}),
             (SimConfig(trials=2, steps=20, N=13), {"controller": "oracle"}),
             (SimConfig(trials=2, steps=20), {"N": 8})]
    setups = [build_setup(cfg) for cfg, _ in cases]
    calls = []
    monkeypatch.setattr(sim_mod, "_lockstep", lambda *a, **kw: calls.append(a))
    for (cfg, change), setup in zip(cases, setups):
        with pytest.raises(ConfigError):
            sim_mod.monte_carlo(replace(cfg, **change), setup=setup)
    assert calls == []


def test_a_setup_runs_only_the_settings_it_was_built_from(monkeypatch):
    import sparseppc.sim as sim_mod

    base = SimConfig(trials=2, steps=20)
    iid = {"kind": "iid", "p_drop": 0.0}
    fast = {"preset": "cessna500", "Ts": 0.1}
    cases = [(replace(base, dropout=iid), ["dropout"]),
             (replace(base, plant=fast), ["plant"]),
             (replace(base, plant=fast, eta=0.5, dropout=iid), ["plant", "eta", "dropout"])]
    calls = []
    monkeypatch.setattr(sim_mod, "_lockstep", lambda *a, **kw: calls.append(a))
    for built_from, differ in cases:
        with pytest.raises(ConfigError) as err:
            sim_mod.monte_carlo(base, setup=build_setup(built_from))
        for name in SETUP_FIELDS:
            assert (repr(name) in str(err.value)) == (name in differ), (name, err.value)
    assert calls == []


def test_setup_settings_compare_in_their_written_form():
    # a numpy Q and its nested-list form are the same setting in meta.json
    cfg = SimConfig(trials=1, steps=10, Q=np.diag([1.0, 2.0, 3.0, 4.0]))
    listed = replace(cfg, Q=cfg.Q.tolist())
    assert monte_carlo(listed, setup=build_setup(cfg)).results[0].norms.size == 10


@pytest.mark.parametrize("sigma", [0.0, 0.01])
def test_loop_propagates_the_plant_exactly(sigma):
    # v(k) is the k-th of successive normal(0, sigma, n) draws from trial
    # 0's third spawned stream, so one (T, n) draw per trial must keep
    # matching per-step draws bit for bit
    noise = {"kind": "gaussian", "sigma": sigma} if sigma else {"kind": "none"}
    cfg = SimConfig(trials=1, steps=60, seed=29, noise=noise)
    setup = build_setup(cfg)
    r = monte_carlo(cfg, setup=setup).results[0]
    A, B = setup.model.A, setup.model.B
    stream = np.random.SeedSequence(cfg.seed, spawn_key=(NS_MAIN, 0)).spawn(3)[2]
    rng_noise = np.random.default_rng(stream)
    assert np.count_nonzero(r.d) > 0   # some inputs come from the buffer
    for k in range(cfg.steps - 1):
        v = rng_noise.normal(0.0, sigma, 4) if sigma else 0.0
        assert np.array_equal(r.states[k + 1], A @ r.states[k] + B * r.u_applied[k] + v), k


def test_zero_sigma_is_noise_free_and_audited():
    base = SimConfig(trials=2, steps=20, seed=37)
    quiet = monte_carlo(replace(base, noise={"kind": "gaussian", "sigma": 0}))
    plain = monte_carlo(base)
    assert quiet.total_violations == plain.total_violations == 0
    for a, b in zip(quiet.results, plain.results):
        assert np.array_equal(a.states, b.states)


def test_zero_initial_state_stays_zero():
    setup, controller = _setup(trials=1, steps=30, x0=[0.0, 0.0, 0.0, 0.0])
    trace = sp.generate_trace(setup.dropout, 30, rng=np.random.default_rng(1))
    res = run_trial(setup, controller, trace, np.zeros(4), _quiet(30))
    assert np.all(res.norms == 0.0)
    assert np.all(res.u_applied == 0.0)
    assert np.all(res.sparsity == 0)


def test_no_dropout_least_squares_decreases_v(rng):
    setup, controller = _setup(trials=1, steps=40, controller="least_squares",
                               dropout={"kind": "iid", "p_drop": 0.0})
    trace = sp.generate_trace(setup.dropout, 40, rng=np.random.default_rng(2))
    res = run_trial(setup, controller, trace, rng.standard_normal(4), _quiet(40))
    assert np.all(np.diff(res.V) < 0.0)
    assert lyapunov_audit(res, setup.design).total == 0


def test_worst_case_burst_trace_contracts_between_deliveries(rng):
    # bursts of N-1 = 9 losses after every delivery
    N, T = 10, 100
    script = ([0] + [1] * (N - 1)) * (T // N)
    setup, controller = _setup(trials=1, steps=T,
                               dropout={"kind": "scripted", "script": script})
    res = run_trial(setup, controller, sp.generate_trace(setup.dropout, T, rng=None),
                    rng.standard_normal(4), _quiet(T))
    audit = lyapunov_audit(res, setup.design)
    assert audit.pair_violations == 0
    assert audit.burst_violations == 0
    deliveries = np.flatnonzero(res.d == 0)
    V_at = res.V[deliveries]
    nz = res.norms[deliveries] > 1e-9
    assert np.all(np.diff(V_at[nz]) < 0.0)


def test_lyapunov_audit_detects_broken_slack(cessna, rng):
    # slack blown far beyond the stability cap: the loop may go unstable,
    # and when it does the audit has to see it
    base = sp.build_design(cessna, N=10)
    broken = CostDesign(Q=base.Q, P=base.P, K=base.K, Wstar=base.Wstar,
                        Eps=1e3 * base.P, W=base.Wstar + 1e3 * base.P,
                        c1=base.c1, rho=base.rho, c=base.c, N=base.N, eta=base.eta)
    cfg = SimConfig(trials=1, steps=60, seed=3)
    setup = replace(build_setup(cfg), design=broken)
    trace = sp.generate_trace(setup.dropout, 60, rng=np.random.default_rng(3))
    res = run_trial(setup, make_controller(cfg, setup), trace, rng.standard_normal(4),
                    _quiet(60))
    audit = lyapunov_audit(res, broken)
    counts = (audit.deliveries, audit.pair_violations, audit.burst_violations)
    assert counts == lyapunov_audit_reference(res, broken)
    assert audit.total > 0  # this seed does destabilize the loop


@settings(max_examples=150, deadline=None)
@given(N=st.integers(1, 12), T=st.integers(1, 200), rows=st.integers(1, 4),
       p_dd=st.floats(0.0, 1.0), p_dg=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_lyapunov_audit_matches_the_delivery_walk(N, T, rows, p_dd, p_dg, seed):
    # small integer states under P = diag(1, 0): V ties everywhere, and a
    # state can have V = 0 with or without a zero norm; the audit of a
    # stack of trials gives each row the counts of that row's own walk
    rng = np.random.default_rng(seed)
    model = sp.DropoutModel(kind="markov", N=N, p_dd=p_dd, p_dg=p_dg)
    stack = SimpleNamespace(states=rng.integers(-2, 3, size=(rows, T, 2)).astype(float),
                            d=np.array([sp.generate_trace(model, T, rng=rng).d
                                        for _ in range(rows)]))
    design = SimpleNamespace(P=np.diag([1.0, 0.0]))
    audit = lyapunov_audit(stack, design)
    for i in range(rows):
        result = SimpleNamespace(states=stack.states[i], d=stack.d[i])
        expected = lyapunov_audit_reference(result, design)
        alone = lyapunov_audit(result, design)
        assert (alone.deliveries, alone.pair_violations, alone.burst_violations) == expected
        assert (audit.deliveries[i], audit.pair_violations[i],
                audit.burst_violations[i]) == expected


def test_each_rows_violations_are_its_own_audit():
    # a large nu2 lets V rise between deliveries; the run's one stacked
    # audit gives every row the count of auditing that row alone
    import sparseppc.sim as sim_mod

    cfg = SimConfig(controller="l2", nu2=3.1e4, trials=6, steps=60, seed=4)
    setup = build_setup(cfg)
    calls = Counter()

    def counted(result, design):
        calls[np.shape(result.d)] += 1
        return lyapunov_audit(result, design)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim_mod, "lyapunov_audit", counted)
        rep = monte_carlo(cfg, setup=setup)
    assert calls == {(6, 60): 1}
    assert rep.total_violations > 0
    assert rep.records.violations.tolist() == [r.violations for r in rep.results]
    for r in rep.results:
        assert r.violations == lyapunov_audit(r, setup.design).total
    assert rep.total_violations == sum(r.violations for r in rep.results)


def test_lyapunov_audit_zero_trajectory_vacuous():
    setup, controller = _setup(trials=1, steps=20)
    trace = sp.generate_trace(setup.dropout, 20, rng=np.random.default_rng(4))
    res = run_trial(setup, controller, trace, np.zeros(4), _quiet(20))
    assert lyapunov_audit(res, setup.design).total == 0


def test_monte_carlo_single_trial_equals_run_trial():
    cfg = SimConfig(trials=1, steps=25, seed=21)
    rep = monte_carlo(cfg)
    setup = build_setup(cfg)
    res = run_trial(setup, make_controller(cfg, setup),
                    *trial_inputs(cfg, setup, NS_MAIN, 0))
    assert np.array_equal(rep.results[0].norms, res.norms)
    assert np.array_equal(rep.results[0].u_applied, res.u_applied)
    assert np.array_equal(rep.results[0].d, res.d)


def test_trial_alone_equals_its_row_in_a_monte_carlo():
    # each trial on a fresh setup (cold OMP cache) matches the same trial
    # run after others have warmed the cache, to the last bit
    cfg = SimConfig(trials=30, steps=100, seed=8)
    rep = monte_carlo(cfg)
    assert not rep.failures
    for i in (0, 11, 29):
        setup = build_setup(cfg)
        res = run_trial(setup, make_controller(cfg, setup),
                        *trial_inputs(cfg, setup, NS_MAIN, i), trial=i)
        row = rep.results[i]
        assert np.array_equal(res.states, row.states)
        assert np.array_equal(res.packets, row.packets)
        assert np.array_equal(res.sparsity, row.sparsity)


@pytest.mark.parametrize("controller", ["l2", "omp"])
def test_trial_bits_do_not_depend_on_cache_warmth(controller):
    # trial 13 alone on a fresh setup, whose horizon caches start empty,
    # against the same trial inside a 20-trial run on a setup that other
    # states have already filled
    cfg = SimConfig(controller=controller, trials=20, steps=100, seed=5)
    warm = build_setup(cfg)
    monte_carlo(replace(cfg, seed=6, trials=5), setup=warm)
    assert warm.hm._l2_gains or warm.hm._omp_nodes.count
    row = monte_carlo(cfg, setup=warm).results[13]
    setup = build_setup(cfg)
    alone = run_trial(setup, make_controller(cfg, setup),
                      *trial_inputs(cfg, setup, NS_MAIN, 13), trial=13)
    alone.violations = lyapunov_audit(alone, setup.design).total
    for f in fields(alone):
        assert np.array_equal(getattr(alone, f.name), getattr(row, f.name)), f.name


def test_l1_trial_bits_do_not_depend_on_the_trials_before():
    # the l1 solver warm-starts from the trial's previous packet; trial 13
    # alone must equal row 13 of a 20-trial run on a setup another run used
    cfg = SimConfig(controller="l1l2", trials=20, steps=100, seed=5)
    used = build_setup(cfg)
    monte_carlo(replace(cfg, seed=6, trials=5), setup=used)
    row = monte_carlo(cfg, setup=used).results[13]
    setup = build_setup(cfg)
    alone = run_trial(setup, make_controller(cfg, setup),
                      *trial_inputs(cfg, setup, NS_MAIN, 13), trial=13)
    alone.violations = lyapunov_audit(alone, setup.design).total
    assert np.count_nonzero(alone.sparsity) > 1   # some solve had a guess to try
    for f in fields(alone):
        assert np.array_equal(getattr(alone, f.name), getattr(row, f.name)), f.name


def test_monte_carlo_reproducible_and_paired(tmp_path):
    cfg = SimConfig(trials=4, steps=30, seed=77)
    r1 = monte_carlo(cfg)
    r2 = monte_carlo(cfg)
    for a, b in zip(r1.results, r2.results):
        assert np.array_equal(a.norms, b.norms)
        assert np.array_equal(a.d, b.d)

    # identical traces and initial states across controller families
    r3 = monte_carlo(SimConfig(trials=4, steps=30, seed=77, controller="l2"))
    for a, b in zip(r1.results, r3.results):
        assert np.array_equal(a.d, b.d)
        assert np.allclose(a.states[0], b.states[0])

    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(p1, trajectory_columns(r1))
    write_csv(p2, trajectory_columns(r2))
    assert p1.read_bytes() == p2.read_bytes()


def test_monte_carlo_aggregates_shapes():
    cfg = SimConfig(trials=3, steps=20, seed=5)
    rep = monte_carlo(cfg)
    summary = summary_columns(rep)
    for name in ("k", "mean_norm", "median_norm", "max_norm", "mean_V", "mean_sparsity"):
        assert summary[name].shape == (20,), name
    assert rep.per_trial_perf.shape == (3,)
    assert rep.total_violations == 0
    assert rep.failures == []


def _raise_on_states(monkeypatch, states, error):
    """Make every controller of the next runs raise error(i) on a block holding states[i].

    Each of states is one a clean run records for one trial and step, so a
    failure keyed on it fails exactly that row, however many rows its block
    holds: the engine solves a block that raises again row by row.
    """
    import sparseppc.sim as sim_mod

    real, keys = sim_mod.make_controller, [x.tobytes() for x in states]

    def make(cfg, setup, grid=None):
        solve = real(cfg, setup, grid)

        def controller(X, rows):
            for x in X:
                if x.tobytes() in keys:
                    raise error(keys.index(x.tobytes()))
            return solve(X, rows)
        return controller

    monkeypatch.setattr(sim_mod, "make_controller", make)


def test_monte_carlo_continues_after_trial_failure(monkeypatch):
    import sparseppc.sim as sim_mod

    cfg = SimConfig(trials=3, steps=10, seed=5)
    _raise_on_states(monkeypatch, [monte_carlo(cfg).results[1].states[0]],
                     lambda i: sp.NumericError("synthetic failure"))
    rep = sim_mod.monte_carlo(cfg)
    assert len(rep.results) == 2
    assert rep.failures == [(1, "NumericError: synthetic failure")]


def test_monte_carlo_solver_failure_fails_only_its_trial(monkeypatch):
    # a block holding a state of trial 1 runs OMP on a horizon with a zero
    # column: the kernel's SolverFailureError must fail that trial and leave
    # the others alone
    import sparseppc.sim as sim_mod

    cfg = SimConfig(trials=3, steps=10, seed=5)
    trial_1 = {x.tobytes() for x in monte_carlo(cfg).results[1].states}
    real = sim_mod.make_controller

    def make(cfg, setup, grid=None):
        G = setup.hm.G.copy()
        G[:, 0] = 0.0
        hm = replace(setup.hm, G=G, col_norm_sq=np.sum(G * G, axis=0))
        broken, solve = real(cfg, replace(setup, hm=hm), grid), real(cfg, setup, grid)
        return lambda X, rows: (broken if any(x.tobytes() in trial_1 for x in X)
                                else solve)(X, rows)

    monkeypatch.setattr(sim_mod, "make_controller", make)
    with np.errstate(invalid="ignore"):
        rep = sim_mod.monte_carlo(cfg)
    assert [r.trial for r in rep.results] == [0, 2]
    assert [t for t, _ in rep.failures] == [1]
    assert rep.failures[0][1].startswith("SolverFailureError: column 0")


def test_monte_carlo_raises_when_everything_fails(monkeypatch):
    import sparseppc.sim as sim_mod

    cfg = SimConfig(trials=2, steps=5, seed=5)
    _raise_on_states(monkeypatch, [r.states[0] for r in monte_carlo(cfg).results],
                     lambda trial: sp.NumericError(f"synthetic failure {trial}"))
    with pytest.raises(sp.SparsePpcError,
                       match="all 2 trials failed; first: NumericError: synthetic failure 0"):
        sim_mod.monte_carlo(cfg)


def test_monte_carlo_config_error_ends_the_run(monkeypatch):
    # the first solve raises it, and no row is solved again on its own
    import sparseppc.sim as sim_mod

    calls = []

    def misconfigured(trial):
        calls.append(trial)
        return ConfigError("synthetic config error")

    cfg = SimConfig(trials=3, steps=5, seed=5)
    _raise_on_states(monkeypatch, [r.states[0] for r in monte_carlo(cfg).results],
                     misconfigured)
    with pytest.raises(ConfigError, match="synthetic config error"):
        sim_mod.monte_carlo(cfg)
    assert calls == [0]


@settings(max_examples=20, deadline=None)
@given(controller=st.sampled_from(CONTROLLERS), sigma=st.sampled_from([0.0, 0.01]),
       seed=st.integers(0, 2**32 - 1), i=st.integers(0, 49))
def test_a_row_does_not_depend_on_its_batch(controller, sigma, seed, i):
    # trial j run alone on a fresh setup equals row j of runs of 1, 5 and
    # 50 trials, to the last bit
    noise = {"kind": "gaussian", "sigma": sigma} if sigma else {"kind": "none"}
    cfg = SimConfig(controller=controller, N=6 if controller == "oracle" else 10,
                    steps=15, seed=seed, noise=noise)
    setup = build_setup(cfg)
    for batch in (1, 5, 50):
        j = i % batch
        rep = monte_carlo(replace(cfg, trials=batch), setup=setup)
        assert not rep.failures
        fresh = build_setup(cfg)
        alone = run_trial(fresh, make_controller(cfg, fresh),
                          *trial_inputs(cfg, fresh, NS_MAIN, j), trial=j)
        if sigma == 0:
            alone.violations = lyapunov_audit(alone, fresh.design).total
        for f in fields(alone):
            assert np.array_equal(getattr(alone, f.name), getattr(rep.results[j], f.name)), \
                (batch, f.name)


@pytest.mark.parametrize("controller", CONTROLLERS)
def test_a_failing_row_leaves_the_batch_alone(controller, monkeypatch):
    # trial 2's state turns NaN at step 8, and trial 4's solve raises at
    # step 5 (keyed on the state a clean run records there): each leaves the
    # batch with its own error, and every other row keeps the bits of a run
    # without them
    import sparseppc.sim as sim_mod

    cfg = SimConfig(controller=controller, N=6 if controller == "oracle" else 10,
                    trials=6, steps=20, seed=3)
    clean = monte_carlo(cfg)
    real = sim_mod.trial_inputs

    def nan_noise(cfg, setup, namespace, trial):
        trace, x0, noise = real(cfg, setup, namespace, trial)
        if trial == 2:
            noise[7] = np.nan
        return trace, x0, noise

    monkeypatch.setattr(sim_mod, "trial_inputs", nan_noise)
    _raise_on_states(monkeypatch, [clean.results[4].states[5]],
                     lambda i: sp.SolverFailureError("synthetic failure"))
    failed = {2: "NumericError: state is not finite at step 8: V = nan",
              4: "SolverFailureError: synthetic failure"}
    rep = sim_mod.monte_carlo(cfg)
    assert rep.failures == sorted(failed.items())
    assert [r.trial for r in rep.results] == [t for t in range(6) if t not in failed]
    for r in rep.results:
        for f in fields(r):
            assert np.array_equal(getattr(r, f.name), getattr(clean.results[r.trial], f.name)), \
                (r.trial, f.name)


def test_a_row_whose_walk_raises_fails_alone(monkeypatch):
    # exactly one walk of a clean run, trial t's at step k, reaches the
    # support mask; when that node's build fails, the walk raises inside
    # the OMP block of all 5 rows. The block is solved again row by row:
    # trial t fails alone with its own error, and the other four rows keep
    # every field of the clean run, bit for bit
    import re

    import sparseppc.controllers as ctl_mod
    import sparseppc.sim as sim_mod

    from .oracles import omp_node_reference

    cfg = SimConfig(trials=5, steps=20, seed=3)
    clean = monte_carlo(cfg)
    setup = build_setup(cfg)
    reached = {}
    for r in clean.results:
        for k, x in enumerate(r.states):
            path = {}
            omp_node_reference(setup.hm, setup.design.W, x, path)
            for mask in path:
                reached.setdefault(mask, []).append((r.trial, k))
    mask = max(m for m, at in reached.items() if len(at) == 1)
    [(t, k)] = reached[mask]
    cols = [j for j in range(cfg.N) if mask >> j & 1]
    real_lsq, real_omp, raised = ctl_mod._support_lsq, sim_mod.omp_packet, []

    def lsq(G, support, b):
        if support.tolist() == cols:
            raise np.linalg.LinAlgError("synthetic")
        return real_lsq(G, support, b)

    def omp(hm, W, X):
        try:
            return real_omp(hm, W, X)
        except sp.SolverFailureError:
            raised.append(len(X))
            raise

    monkeypatch.setattr(ctl_mod, "_support_lsq", lsq)
    monkeypatch.setattr(sim_mod, "omp_packet", omp)
    rep = sim_mod.monte_carlo(cfg)
    assert raised == [5, 1], (t, k)
    [(trial, msg)] = rep.failures
    assert trial == t and re.fullmatch(
        rf"SolverFailureError: column \d+: support solve failed on {re.escape(str(cols))}: "
        "synthetic", msg), msg
    assert [r.trial for r in rep.results] == [i for i in range(5) if i != t]
    for r in rep.results:
        for f in fields(r):
            assert np.array_equal(getattr(r, f.name), getattr(clean.results[r.trial], f.name)), \
                (r.trial, f.name)


def test_a_gain_that_raises_fails_every_live_row(monkeypatch):
    # one call solves every live row of a gain controller; a gain that fails
    # to build raises on every call from then on, so solved again row by
    # row, every live row fails with that error
    import sparseppc.sim as sim_mod

    real, solves = sim_mod.l2_packet, count()

    def flaky(hm, x, nu2):
        if next(solves) >= 3:
            raise sp.SolverFailureError("synthetic failure")
        return real(hm, x, nu2)

    monkeypatch.setattr(sim_mod, "l2_packet", flaky)
    with pytest.raises(sp.SparsePpcError,
                       match="all 4 trials failed; first: SolverFailureError: synthetic failure"):
        sim_mod.monte_carlo(SimConfig(controller="l2", trials=4, steps=10, seed=5))


def test_a_gain_that_raises_fails_only_its_block(monkeypatch):
    # on a grid the controller solves the block with each row's own gain; a
    # block holding a row of the value whose gain raises (on every call from
    # step 3 on) is solved again row by row: the rows of that value fail,
    # and the others keep their own bits
    import sparseppc.sim as sim_mod

    cfg = SimConfig(controller="l2", trials=3, steps=10, seed=5,
                    noise={"kind": "gaussian", "sigma": 0.01})
    setup = build_setup(cfg)
    clean = monte_carlo(replace(cfg, nu2=1e4), setup=setup)
    real = sim_mod.l2_packet

    def raise_at_step_3():
        solves = count()

        def flaky(hm, X, nu2):
            if np.any(np.asarray(nu2) == 1e2) and next(solves) >= 3:
                raise sp.SolverFailureError("synthetic failure")
            return real(hm, X, nu2)
        monkeypatch.setattr(sim_mod, "l2_packet", flaky)

    raise_at_step_3()
    inputs = [(t, *trial_inputs(cfg, setup, NS_MAIN, t)) for t in range(cfg.trials)]
    controller = make_controller(cfg, setup, [1e2, 1e4])
    records, failures = sim_mod._lockstep(setup, controller, inputs, copies=2)
    assert [(row, str(exc)) for row, exc in failures] == [(r, "synthetic failure")
                                                          for r in range(3)]
    for row, alone in zip(records.rows(), clean.results, strict=True):
        for f in fields(alone):
            assert np.array_equal(getattr(alone, f.name), getattr(row, f.name)), f.name
    raise_at_step_3()
    with pytest.raises(sp.SparsePpcError, match="all 3 trials failed at nu2 = 100.0; "
                                                "first: SolverFailureError: synthetic failure"):
        sim_mod.monte_carlo(cfg, setup=setup, grid=[1e4, 1e2])


L1_GRID = [1e2, 1e3, 5.3e3]


def _l1_grid_key(clean):
    """(row, step) of the first state, from step 3 on, that only one row of
    the clean grid run records, with a nonzero packet: a failure keyed on it
    fails that row alone."""
    states = clean.records.states
    seen = Counter(x.tobytes() for x in states.reshape(-1, states.shape[-1]))
    for k in range(3, states.shape[1]):
        for row in range(len(states)):
            if seen[states[row, k].tobytes()] == 1 and clean.records.sparsity[row, k]:
                return row, k


def test_a_failing_l1_row_on_a_grid_fails_alone(monkeypatch):
    # an l1 grid run of 3 trials at 3 values is one block of 9 rows, and one
    # controller solves it. The block solve that holds the key state raises
    # once it has run: the engine solves each row again on its own, that row
    # fails alone with its own error, and the other eight keep every field
    # of the clean run. The failed call changed no warm start: each retry
    # gets its row's guess from the failed call, and the next block gets
    # each surviving row's own last packet
    import sparseppc.sim as sim_mod

    cfg = SimConfig(controller="l1l2", trials=3, steps=20, seed=3)
    clean = monte_carlo(cfg, grid=L1_GRID)
    row, k = _l1_grid_key(clean)
    key = clean.records.states[row, k].tobytes()
    real, calls = sim_mod.l1l2_packet, []

    def l1(hm, X, nu1, guess=None):
        calls.append((X.copy(), np.array(nu1), guess.copy()))
        pkt = real(hm, X, nu1, guess=guess)
        if any(x.tobytes() == key for x in X):
            raise sp.SolverFailureError(f"synthetic failure {len(X)}")
        return pkt

    monkeypatch.setattr(sim_mod, "l1l2_packet", l1)
    rep = sim_mod.monte_carlo(cfg, grid=L1_GRID)
    assert rep.failures == [(L1_GRID[row // 3], row % 3, "SolverFailureError: synthetic failure 1")]
    kept = [r for r in range(9) if r != row]
    assert rep.point.tolist() == [r // 3 for r in kept]
    for r, res in zip(kept, rep.results, strict=True):
        for f in fields(res):
            assert np.array_equal(getattr(res, f.name), getattr(clean.results[r], f.name)), \
                (r, f.name)
    assert [len(X) for X, _, _ in calls] == [9] * (k + 1) + [1] * 9 + [8] * (cfg.steps - k - 1)
    X, nu1, guess = calls[k]
    assert nu1.tolist() == [L1_GRID[r // 3] for r in range(9)]
    for r in range(9):
        assert [a.tobytes() for a in calls[k + 1 + r]] == [
            X[r:r + 1].tobytes(), nu1[r:r + 1].tobytes(), guess[r:r + 1].tobytes()]
    assert np.array_equal(calls[k + 10][2], clean.records.packets[kept, k])


def test_a_config_error_ends_an_l1_grid_run(monkeypatch):
    # the block solve that holds the key state raises a ConfigError: the
    # run ends there, and no row is solved again on its own
    import sparseppc.sim as sim_mod

    cfg = SimConfig(controller="l1l2", trials=3, steps=20, seed=3)
    clean = monte_carlo(cfg, grid=L1_GRID)
    row, k = _l1_grid_key(clean)
    _raise_on_states(monkeypatch, [clean.records.states[row, k]],
                     lambda i: ConfigError("synthetic config error"))
    calls = []
    real = sim_mod.l1l2_packet
    monkeypatch.setattr(sim_mod, "l1l2_packet",
                        lambda hm, X, nu1, guess=None: calls.append(len(X)) or real(
                            hm, X, nu1, guess=guess))
    with pytest.raises(ConfigError, match="synthetic config error"):
        sim_mod.monte_carlo(cfg, grid=L1_GRID)
    assert calls == [9] * k


def test_l1_grid_rows_warm_start_from_their_own_packets(monkeypatch):
    # each row of an l1 grid run is solved at its own value, with its own
    # last packet as its guess (none at step 0)
    import sparseppc.sim as sim_mod

    cfg = SimConfig(controller="l1l2", trials=3, steps=20, seed=3)
    real, calls = sim_mod.l1l2_packet, []
    monkeypatch.setattr(sim_mod, "l1l2_packet", lambda hm, X, nu1, guess=None: calls.append(
        (np.array(nu1), guess.copy())) or real(hm, X, nu1, guess=guess))
    rep = sim_mod.monte_carlo(cfg, grid=L1_GRID)
    assert not rep.failures and len(calls) == cfg.steps
    packets = rep.records.packets
    for k, (nu1, guess) in enumerate(calls):
        assert nu1.tolist() == [L1_GRID[r // 3] for r in range(9)]
        assert np.array_equal(guess, packets[:, k - 1] if k else np.zeros_like(packets[:, 0]))


@pytest.mark.parametrize("family", sorted(SWEEP_KEYS))
def test_a_grid_run_actuates_each_trial_once(family, monkeypatch):
    # the rows of one trial share its read schedule: a grid run of 3 trials
    # at 4 values makes one actuate call per trial, not one per row. When
    # the schedule of trial 1 is refused, every row of trial 1 fails with
    # that error and the other rows keep every field of the clean run
    import sparseppc.sim as sim_mod

    cfg = SimConfig(controller=family, trials=3, steps=15, seed=2)
    grid = SWEEP_VALUES[family][:3] + SWEEP_VALUES[family][2:3]
    clean = monte_carlo(cfg, grid=grid)
    real, traces = sim_mod.actuate, []

    def actuate(trace, N):
        traces.append(trace)
        if len(traces) == 2:
            raise sp.ProtocolViolationError("synthetic burst")
        return real(trace, N)

    monkeypatch.setattr(sim_mod, "actuate", actuate)
    rep = sim_mod.monte_carlo(cfg, grid=grid)
    assert [trace.d.tolist() for trace in traces] == [r.d.tolist() for r in clean.results[:3]]
    assert rep.failures == [(nu, 1, "ProtocolViolationError: synthetic burst") for nu in grid]
    kept = [r for r in range(12) if r % 3 != 1]
    for r, res in zip(kept, rep.results, strict=True):
        for f in fields(res):
            assert np.array_equal(getattr(res, f.name), getattr(clean.results[r], f.name)), \
                (r, f.name)


def test_controller_dispatch():
    # each controller, on a block of one state, maps the zero state to the
    # zero packet; on a short run the run times its engine and counts
    # nonzeros from the packets it records, and a re-solve of each recorded
    # state gives the same packet
    base = SimConfig(trials=1, steps=12, seed=23)
    setup = build_setup(base)
    for name in CONTROLLERS:
        cfg = replace(base, controller=name)
        fn = make_controller(cfg, setup)
        assert np.count_nonzero(fn(np.zeros((1, 4)), np.arange(1))) == 0
        rep = monte_carlo(cfg, setup=setup)
        res = rep.results[0]
        for k, x in enumerate(res.states):
            u = fn(x[None], np.arange(1))
            assert res.sparsity[k] == np.count_nonzero(u), (name, k)
            # every controller solves the block, as row 0, to (1, N)
            assert u.shape == (1, cfg.N) and np.array_equal(res.packets[k], u[0]), (name, k)
        assert res.sparsity.dtype == np.int64
        assert np.isfinite(rep.mean_step_seconds) and rep.mean_step_seconds >= 0.0


# each controller's solver, by the name sim looks it up under
SOLVERS = {"omp": "omp_packet", "oracle": "exhaustive_l0_packet",
           "least_squares": "least_squares_packet", "l2": "l2_packet", "l1l2": "l1l2_packet"}


def test_every_controller_calls_its_solver_where_sim_looks_it_up(monkeypatch):
    # a span tracer wraps the solvers on sim and reads each call's
    # solver_iters and converged: every controller, with a grid or without
    # and made before the wrappers went in, calls its own solver's wrapper
    # once per block, and that call returns a ControlPacket
    import sparseppc.sim as sim_mod

    assert set(SOLVERS) == set(CONTROLLERS)
    base = SimConfig(trials=2, steps=6, seed=13)
    setup = build_setup(base)
    runs = [(replace(base, controller=name), grid) for name in CONTROLLERS
            for grid in [None] + ([[1e2, 1e3, 1e2]] if name in SWEEP_KEYS else [])]
    made = [make_controller(cfg, setup, grid) for cfg, grid in runs]
    calls = Counter()

    def counted(name, fn):
        def spy(*args, **kwargs):
            pkt = fn(*args, **kwargs)
            assert isinstance(pkt, ControlPacket) and pkt.converged and pkt.solver_iters >= 0
            calls[name] += 1
            return pkt
        return spy

    for name in SOLVERS.values():
        monkeypatch.setattr(sim_mod, name, counted(name, getattr(sim_mod, name)))
    X = np.random.default_rng(13).standard_normal((2, 4))
    for (cfg, grid), controller in zip(runs, made):
        calls.clear()
        assert controller(X, np.arange(2)).shape == (2, cfg.N)
        assert calls == Counter({SOLVERS[cfg.controller]: 1}), (cfg.controller, grid)
        calls.clear()
        rep = sim_mod.monte_carlo(cfg, setup=setup, grid=grid)
        assert rep.failures == []
        assert calls == Counter({SOLVERS[cfg.controller]: cfg.steps}), (cfg.controller, grid)


def test_run_config_picks_controller_over_setup_config():
    cfg = SimConfig(trials=3, steps=20, seed=19)
    l2 = replace(cfg, controller="l2")
    shared = monte_carlo(l2, setup=build_setup(cfg))
    own = monte_carlo(l2)
    for a, b in zip(shared.results, own.results):
        assert np.array_equal(a.norms, b.norms)
        assert np.array_equal(a.d, b.d)
        assert np.array_equal(a.u_applied, b.u_applied)
    assert np.all(summary_columns(shared)["mean_sparsity"] == cfg.N)


def test_sweep_single_point_and_curve():
    cfg = SimConfig(trials=2, steps=20, seed=9)
    rep = sweep_regularization(cfg, "l2", [310.0])
    assert rep.grid == [310.0] and len(rep.mean_perf) == 1
    assert rep.argmin_nu == 310.0

    rep2 = sweep_regularization(cfg, "l2", [1.0, 1e2, 1e4], match_perf=rep.mean_perf[0])
    assert len(rep2.mean_perf) == 3
    assert rep2.argmin_nu in rep2.grid
    assert rep2.matched_nu in rep2.grid
    assert np.all(np.isfinite(rep2.mean_perf))

    rep3 = sweep_regularization(SimConfig(trials=2, steps=10, seed=9), "l1l2", [5.3, 5.3e3])
    assert len(rep3.mean_perf) == 2 and np.all(np.isfinite(rep3.mean_perf))
    with pytest.raises(ConfigError):
        sweep_regularization(cfg, "l2", [])
    with pytest.raises(ConfigError):
        sweep_regularization(cfg, "omp", [1.0])


def test_sweep_rejects_a_grid_of_non_numbers_before_any_setup(monkeypatch):
    import sparseppc.sim as sim_mod

    calls = []
    monkeypatch.setattr(sim_mod, "build_setup", lambda *a, **kw: calls.append(a))
    cfg = SimConfig(trials=2, steps=10, seed=9)
    for grid in (["a"], [1e2, "abc"], ["1e2"], 5, [[1e2, 1e3]], [True], None, [1e2, None]):
        with pytest.raises(ConfigError, match="sweep grid"):
            sim_mod.sweep_regularization(cfg, "l2", grid)
    with pytest.raises(ConfigError, match="finite"):
        sim_mod.sweep_regularization(cfg, "l2", [1e2, float("inf")])
    assert calls == []


def test_sweep_rejects_a_family_that_is_no_string_before_any_setup(monkeypatch):
    import sparseppc.sim as sim_mod

    calls = []
    monkeypatch.setattr(sim_mod, "build_setup", lambda *a, **kw: calls.append(a))
    cfg = SimConfig(trials=2, steps=10, seed=9)
    for family in (["l2"], {"a": 1}):
        with pytest.raises(ConfigError, match="sweep family"):
            sim_mod.sweep_regularization(cfg, family, [1.0])
    assert calls == []


def test_sweep_rejects_a_match_perf_that_is_not_finite_before_any_setup(monkeypatch):
    import sparseppc.sim as sim_mod

    calls = []
    monkeypatch.setattr(sim_mod, "build_setup", lambda *a, **kw: calls.append(a))
    cfg = SimConfig(trials=2, steps=10, seed=9)
    for level in (float("nan"), float("inf"), -float("inf"), "1.0", True):
        with pytest.raises(ConfigError, match="match_perf must be a finite number"):
            sim_mod.sweep_regularization(cfg, "l2", [1.0, 2.0], match_perf=level)
    assert calls == []


def test_sweep_builds_one_design(monkeypatch):
    import sparseppc.sim as sim_mod

    calls = []
    real = sim_mod.build_design

    def counted(*a, **kw):
        calls.append(a)
        return real(*a, **kw)

    monkeypatch.setattr(sim_mod, "build_design", counted)
    rep = sim_mod.sweep_regularization(SimConfig(trials=2, steps=10, seed=9), "l2",
                                       [1.0, 1e2, 1e4])
    assert len(rep.mean_perf) == 3
    assert len(calls) == 1


def test_sweep_rejects_nonpositive_nu_before_any_trial(monkeypatch):
    import sparseppc.sim as sim_mod

    calls = []
    for name in ("build_setup", "_lockstep"):
        monkeypatch.setattr(sim_mod, name, lambda *a, name=name, **kw: calls.append(name))
    cfg = SimConfig(trials=2, steps=10, seed=9)
    for family, grid in (("l2", [1e2, -1.0]), ("l1l2", [1e2, 0.0])):
        with pytest.raises(ConfigError, match="must be positive"):
            sim_mod.sweep_regularization(cfg, family, grid)
    assert calls == []


SWEEP_VALUES = {"l1l2": [1e-3, 5.3, 1e2, 1e3, 5.3e3, 1e4], "l2": [1.0, 1e2, 310.0, 1e4]}


@settings(max_examples=20, deadline=None)
@given(family=st.sampled_from(sorted(SWEEP_KEYS)), sigma=st.sampled_from([0.0, 0.01]),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_sweep_rows_equal_their_own_runs(family, sigma, seed, data):
    # row (g, t) of a grid run equals trial t of the run at grid[g] alone, to
    # the last bit, duplicates included; the sweep is one grid run, one batch,
    # and gives the per-value loop's report
    import sparseppc.sim as sim_mod

    grid = data.draw(st.lists(st.sampled_from(SWEEP_VALUES[family]), min_size=1, max_size=4))
    noise = {"kind": "gaussian", "sigma": sigma} if sigma else {"kind": "none"}
    cfg = SimConfig(controller=family, trials=3, steps=15, seed=seed, noise=noise)
    setup = build_setup(cfg)
    batch = monte_carlo(cfg, setup=setup, grid=grid)
    assert batch.failures == []
    assert batch.point.tolist() == [g for g in range(len(grid)) for _ in range(cfg.trials)]
    totals = []
    for g, nu in enumerate(grid):
        own = monte_carlo(replace(cfg, **{SWEEP_KEYS[family]: nu}), setup=setup)
        totals.append(own.total_violations)
        for t, alone in enumerate(own.results):
            row = batch.results[g * cfg.trials + t]
            for f in fields(alone):
                assert np.array_equal(getattr(alone, f.name), getattr(row, f.name)), \
                    (nu, t, f.name)

    calls = Counter()

    def counted(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return spy

    with pytest.MonkeyPatch.context() as mp:
        for name in ("_lockstep", "monte_carlo", "lyapunov_audit"):
            mp.setattr(sim_mod, name, counted(name, getattr(sim_mod, name)))
        swept = sim_mod.sweep_regularization(cfg, family, grid, match_perf=50.0)
    # a noise-free grid run is audited in one stacked call, and each value's
    # count is its own run's total
    assert calls == Counter(_lockstep=1, monte_carlo=1, lyapunov_audit=int(sigma == 0))
    assert swept.violations == (None if sigma else totals)
    assert swept == sweep_reference(cfg, family, grid, match_perf=50.0)


def test_a_grid_run_needs_a_sweep_family():
    with pytest.raises(ConfigError, match="a grid run needs a controller of"):
        monte_carlo(SimConfig(trials=2, steps=10), grid=[1.0])


@pytest.mark.parametrize("grid", [[], np.array([])])
def test_an_empty_grid_is_refused_before_any_setup(monkeypatch, grid):
    import sparseppc.sim as sim_mod

    built = []
    monkeypatch.setattr(sim_mod, "build_setup", lambda *a, **kw: built.append(a))
    with pytest.raises(ConfigError, match="a grid run needs .* a non-empty grid"):
        monte_carlo(SimConfig(trials=2, steps=10, controller="l2"), grid=grid)
    assert built == []


def test_bitrate_experiment_smoke():
    cfg = SimConfig(trials=6, train_trials=6, steps=40, seed=13,
                    noise={"kind": "gaussian", "sigma": 0.01})
    rep = sp.bitrate_experiment(cfg)
    assert rep.roundtrip_failures == 0
    assert rep.max_quant_error <= 0.5 * cfg.quantizer_delta
    assert rep.mean_bits_omp > 0 and rep.mean_bits_l2 > 0
    assert [(s, run.controller, run.codec.scheme) for s, run in rep.schemes.items()] == [
        ("sparse", "omp", "sparse"), ("dense", "l2", "dense")]
    for quiet in ({"kind": "none"}, {"kind": "gaussian", "sigma": 0.0}):
        with pytest.raises(ConfigError, match="sigma > 0"):
            sp.bitrate_experiment(SimConfig(noise=quiet))


def test_bitrate_bits_code_the_recorded_test_packets():
    cfg = SimConfig(trials=3, train_trials=3, steps=20, seed=17,
                    noise={"kind": "gaussian", "sigma": 0.01})
    rep = sp.bitrate_experiment(cfg)
    q = sp.Quantizer(delta=cfg.quantizer_delta)
    for run, mean in ((rep.schemes["sparse"], rep.mean_bits_omp),
                      (rep.schemes["dense"], rep.mean_bits_l2)):
        assert run.bits.shape == (3, 20) and len(run.encoded) == 3 * 20
        assert mean == np.mean(run.bits)
        encoded = iter(run.encoded)
        for r, row in zip(run.test.results, run.bits):
            for pkt, b in zip(r.packets, row):
                enc = sp.encode(run.codec, sp.quantize_packet(q, pkt))
                assert enc.bit_count == b and enc == next(encoded)


def test_bitrate_decodes_each_packet_right_after_encoding_it(monkeypatch):
    # perfbench pairs each decode with the encode just before it
    import sparseppc.sim as sim_mod

    calls = []

    def tap(kind, fn):
        def tapped(codec, arg):
            out = fn(codec, arg)
            calls.append((kind, codec.scheme, arg, out))
            return out
        return tapped

    monkeypatch.setattr(sim_mod, "encode", tap("encode", sim_mod.encode))
    monkeypatch.setattr(sim_mod, "decode", tap("decode", sim_mod.decode))
    sim_mod.bitrate_experiment(SimConfig(trials=2, train_trials=2, steps=10, seed=8,
                                         noise={"kind": "gaussian", "sigma": 0.01}))
    assert [c[0] for c in calls] == ["encode", "decode"] * (len(calls) // 2)
    for (_, scheme, _, enc), (_, decoded_scheme, arg, _) in zip(calls[::2], calls[1::2]):
        assert arg is enc and decoded_scheme == scheme
    assert [c[1] for c in calls[::2]] == ["sparse"] * 2 * 10 + ["dense"] * 2 * 10


def test_rates_make_no_hex_dumps(monkeypatch):
    dumps = []
    to_hex = EncodedPacket.to_hex
    monkeypatch.setattr(EncodedPacket, "to_hex",
                        lambda enc: dumps.append(enc) or to_hex(enc))
    rep = sp.bitrate_experiment(SimConfig(trials=2, train_trials=2, steps=10, seed=8,
                                          noise={"kind": "gaussian", "sigma": 0.01}))
    rate_columns(rep)
    assert dumps == []
    assert len(packet_columns(rep)["hex"]) == len(dumps) == 2 * 2 * 10


def _noisy(**kw):
    return SimConfig(noise={"kind": "gaussian", "sigma": 0.01}, **kw)


def _assert_same_bitrate(got, want):
    """Two BitrateReports agree bit for bit, timings aside."""
    assert list(got.schemes) == list(want.schemes)
    for run, ref in zip(got.schemes.values(), want.schemes.values()):
        assert run.controller == ref.controller and run.codec == ref.codec
        assert codec_to_dict(run.codec) == codec_to_dict(ref.codec)
        assert run.test.cfg == ref.test.cfg and run.test.failures == ref.test.failures
        assert run.test.total_violations is ref.test.total_violations is None
        assert run.test.point is ref.test.point is None
        for f in fields(TrialResult):
            a, b = getattr(run.test.records, f.name), getattr(ref.test.records, f.name)
            assert (a is None and b is None) or (
                a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()), f.name
        assert [r.trial for r in run.test.results] == [r.trial for r in ref.test.results]
        assert all(r.packets.tobytes() == q.packets.tobytes()
                   for r, q in zip(run.test.results, ref.test.results, strict=True))
        assert run.bits.dtype == ref.bits.dtype and np.array_equal(run.bits, ref.bits)
        assert run.encoded == ref.encoded
    for name in ("mean_bits_omp", "mean_bits_l2", "reduction_pct", "roundtrip_failures",
                 "max_quant_error", "failures"):
        assert getattr(got, name) == getattr(want, name), name


@pytest.mark.parametrize("seed,failing", [
    (1, None),
    (7, None),
    # an OMP training row and an l2 test row fail, each alone in its block
    (12345, lambda cfg, key: (cfg.controller, key) in (("omp", (NS_TRAIN, 2)),
                                                       ("l2", (NS_TEST, 1)))),
])
def test_bitrate_equals_one_run_per_controller_and_phase(fail_trials, seed, failing):
    cfg = _noisy(trials=3, train_trials=5, steps=30, seed=seed)
    if failing:
        fail_trials(failing)
    got = sp.bitrate_experiment(cfg)
    _assert_same_bitrate(got, bitrate_reference(cfg))
    if failing:
        error = "SolverFailureError: synthetic failure"
        assert got.failures == [("omp", "train", 2, error), ("l2", "test", 1, error)]
        assert [r.trial for r in got.schemes["dense"].test.results] == [0, 2]


@pytest.mark.parametrize("failing", [
    lambda cfg, key: cfg.controller == "omp" and key in {(NS_TRAIN, t) for t in range(4)},
    lambda cfg, key: cfg.controller == "omp",
    lambda cfg, key: cfg.controller == "l2" and key in {(NS_TEST, t) for t in range(2)},
], ids=["omp-train", "omp-both-phases", "l2-test"])
def test_bitrate_phase_whose_every_trial_fails_raises_as_its_own_run(fail_trials, failing):
    cfg = _noisy(trials=2, train_trials=4, steps=10, seed=5)
    fail_trials(failing)
    with pytest.raises(sp.SparsePpcError) as want:
        bitrate_reference(cfg)
    with pytest.raises(sp.SparsePpcError) as got:
        sp.bitrate_experiment(cfg)
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)
    assert str(got.value).startswith("all ")


def test_bitrate_runs_each_controller_once_on_inputs_drawn_once(monkeypatch, fail_trials):
    # the benchmark's report tap counts each monte_carlo call by its config:
    # attempted rows by cfg.trials, OMP nonzeros by cfg.controller
    import sparseppc.sim as sim_mod

    for failing, kept in ((lambda cfg, key: False, 5), (lambda cfg, key: key == (NS_TEST, 0), 4)):
        fail_trials(failing)
        runs, drawn = [], Counter()
        real_mc, real_inputs = sim_mod.monte_carlo, sim_mod.trial_inputs

        def mc(cfg, *args, **kwargs):
            report = real_mc(cfg, *args, **kwargs)
            runs.append((cfg.controller, cfg.trials, len(report.results)))
            return report

        def inputs(cfg, setup, namespace, trial):
            drawn[namespace, trial] += 1
            return real_inputs(cfg, setup, namespace, trial)

        monkeypatch.setattr(sim_mod, "monte_carlo", mc)
        monkeypatch.setattr(sim_mod, "trial_inputs", inputs)
        sim_mod.bitrate_experiment(_noisy(trials=2, train_trials=3, steps=10, seed=8))
        monkeypatch.undo()
        assert runs == [(name, 5, kept) for name, _ in BITRATE_PLAN]
        assert drawn == Counter([(NS_TRAIN, t) for t in range(3)] +
                                [(NS_TEST, t) for t in range(2)])


def test_monte_carlo_phases_equal_their_own_runs():
    # each phase's rows have the bits of the phase's own run, whatever the
    # solver and whichever rows step beside them
    base = _noisy(trials=3, steps=25, seed=11)
    setup = build_setup(base)
    phases = [[(t, *trial_inputs(base, setup, ns, t)) for t in range(count)]
              for ns, count in ((NS_TRAIN, 4), (NS_TEST, 3))]
    for name in ("omp", "l2", "l1l2", "least_squares"):
        merged = monte_carlo(replace(base, controller=name, trials=7), setup=setup,
                             inputs=phases)
        assert merged.point.tolist() == [0] * 4 + [1] * 3 and merged.failures == []
        for p, (ns, count) in enumerate(((NS_TRAIN, 4), (NS_TEST, 3))):
            own = monte_carlo(replace(base, controller=name, trials=count), setup=setup,
                              inputs=[[(t, *trial_inputs(base, setup, ns, t))
                                       for t in range(count)]])
            for f in ("trial", "states", "V", "d", "u_applied", "packets", "sparsity", "perf",
                      "overrides"):
                a, b = getattr(merged.records, f)[merged.point == p], getattr(own.records, f)
                assert a.tobytes() == b.tobytes(), (name, p, f)


def test_monte_carlo_inputs_refuses_malformed_phases():
    cfg = _noisy(trials=2, steps=10, seed=3)
    setup = build_setup(cfg)
    rows = [(t, *trial_inputs(cfg, setup, NS_MAIN, t)) for t in range(2)]
    trace, x0, noise = rows[0][1:]
    short = trial_inputs(replace(cfg, steps=9), setup, NS_MAIN, 0)[0]
    for bad in (rows, [rows[:1]], [rows, []], [[list(rows[0])], rows[1:]], (rows,),
                [[rows[0][:3]], rows[1:]], [[(0.5, trace, x0, noise)], rows[1:]],
                [[(0, short, x0, noise)], rows[1:]], [[(0, "trace", x0, noise)], rows[1:]],
                [[(0, trace, x0[:3], noise)], rows[1:]], [[(0, trace, x0, noise[:9])], rows[1:]],
                [[(0, trace, ["a"] * 4, noise)], rows[1:]], "rows"):
        with pytest.raises(ConfigError):
            monte_carlo(cfg, setup=setup, inputs=bad)
    with pytest.raises(ConfigError):
        monte_carlo(replace(cfg, controller="l2"), setup=setup, inputs=[rows], grid=[1.0])
    # a well-formed phase list runs, and a row's trial is the one it is given
    report = monte_carlo(cfg, setup=setup, inputs=[rows[1:], [(7, trace, x0, noise)]])
    assert report.records.trial.tolist() == [1, 7] and report.point.tolist() == [0, 1]


def test_bitrate_rejects_odd_horizon_before_any_trial(monkeypatch):
    import sparseppc.sim as sim_mod

    calls = []
    monkeypatch.setattr(sim_mod, "monte_carlo", lambda *a, **kw: calls.append(a))
    cfg = SimConfig(N=9, trials=2, train_trials=2, steps=10, seed=3,
                    noise={"kind": "gaussian", "sigma": 0.01})
    with pytest.raises(ConfigError, match="even packet length"):
        sim_mod.bitrate_experiment(cfg)
    assert calls == []


def test_recorded_packets_replay_to_the_applied_inputs():
    from .oracles import interpret_trace

    cfg = SimConfig(trials=1, steps=60, seed=23,
                    noise={"kind": "gaussian", "sigma": 0.01})
    r = monte_carlo(cfg).results[0]
    assert r.packets.shape == (60, cfg.N)
    assert np.count_nonzero(r.d) > 0
    assert np.array_equal(interpret_trace(r.d, r.packets), r.u_applied)


def test_vanishing_noise_rates_collapse_to_scheme_floor():
    # sigma -> 0: after the transient every packet quantizes to all zeros,
    # so sparse packets cost 5 head zero-codewords + 5 bitmap bits and
    # dense packets cost 10 zero-codewords
    cfg = SimConfig(trials=4, train_trials=4, steps=100, seed=31,
                    noise={"kind": "gaussian", "sigma": 1e-9})
    rep = sp.bitrate_experiment(cfg)
    sparse, dense = rep.schemes["sparse"], rep.schemes["dense"]
    for run in (sparse, dense):
        late = run.bits[:, 70:]
        assert np.all(late == late[0, 0])  # flat at the floor
    head_zero = sum(sparse.codec.coders[p].lengths[0] for p in range(5))
    assert sparse.bits[0, 70] == head_zero + 5
    assert dense.bits[0, 70] == sum(dense.codec.coders[p].lengths[0] for p in range(10))


def test_five_controller_families_run_paired():
    reports = {}
    for name in ("omp", "l2", "l1l2", "least_squares", "oracle"):
        reports[name] = monte_carlo(SimConfig(trials=3, steps=15, seed=41,
                                              controller=name))
    base = reports["omp"]
    for name, rep in reports.items():
        for a, b in zip(base.results, rep.results):
            assert np.array_equal(a.d, b.d)
            assert np.allclose(a.states[0], b.states[0])
    # generically dense baselines vs sparsity-seeking solvers
    sparsity = {name: summary_columns(rep)["mean_sparsity"].mean()
                for name, rep in reports.items()}
    assert sparsity["least_squares"] == 10.0
    assert sparsity["l2"] == 10.0
    assert sparsity["oracle"] <= sparsity["omp"]


def test_run_trial_rejects_noise_of_the_wrong_shape():
    setup, controller = _setup(trials=1, steps=5)
    trace = sp.generate_trace(setup.dropout, 5, rng=np.random.default_rng(0))
    for noise in (np.zeros((4, 4)), np.zeros((5, 3)), np.zeros(5), np.zeros((5, 4, 1)), 0.0):
        with pytest.raises(ConfigError, match=r"noise must have shape \(5, 4\)"):
            run_trial(setup, controller, trace, np.zeros(4), noise)
    for x0 in (np.zeros(3), np.zeros((2, 4)), np.zeros((4, 1)), np.zeros(5), 0.0):
        with pytest.raises(ConfigError, match=r"x0 must have shape \(4,\)"):
            run_trial(setup, controller, trace, x0, _quiet(5))
    # strings, complex numbers and ragged nesting are no real array at all
    for x0 in (["a", "b", "c", "d"], [1, 2, 3, 4j], [[1.0, 2.0], [3.0, 4.0, 5.0]]):
        with pytest.raises(ConfigError, match="x0 must hold only numbers"):
            run_trial(setup, controller, trace, x0, _quiet(5))
    for noise in ([["a"] * 4] * 5, _quiet(5) + 1j, [[0.0] * 4] * 4 + [[0.0] * 3]):
        with pytest.raises(ConfigError, match="noise must hold only numbers"):
            run_trial(setup, controller, trace, np.zeros(4), noise)


def test_run_trial_raises_on_a_non_finite_state():
    setup, controller = _setup(trials=1, steps=5)
    trace = sp.generate_trace(setup.dropout, 5, rng=np.random.default_rng(0))
    with np.errstate(invalid="ignore"), pytest.raises(sp.NumericError, match="step 0"):
        run_trial(setup, controller, trace, np.array([np.inf, 0.0, 0.0, 0.0]), _quiet(5))


def test_run_trial_raises_on_a_non_finite_packet():
    # the last packet is never applied, so no state shows it; the trial
    # still fails rather than record it
    setup, controller = _setup(trials=1, steps=5, controller="l2")
    trace = sp.generate_trace(setup.dropout, 5, rng=np.random.default_rng(0))
    calls = []

    def nan_last(X, rows):
        calls.append(X)
        u = controller(X, rows)
        return np.full((len(X), 10), np.nan) if len(calls) == 5 else u

    with pytest.raises(sp.NumericError, match="packet is not finite at step 4"):
        run_trial(setup, nan_last, trace, np.ones(4), _quiet(5))


def _overflow_trial_1(monkeypatch):
    """Make trial 1's x0 so large that V(0) = x'Px overflows."""
    import sparseppc.sim as sim_mod

    real = sim_mod.trial_inputs

    def overflowing(cfg, setup, namespace, trial):
        trace, x0, noise = real(cfg, setup, namespace, trial)
        return trace, x0 * (1e200 if trial == 1 else 1.0), noise

    monkeypatch.setattr(sim_mod, "trial_inputs", overflowing)


def test_overflowing_trial_fails_and_leaves_no_nonfinite_rows(monkeypatch, tmp_path):
    # trial 1 must be listed as failed, and no inf or nan may reach the CSVs
    import json

    from sparseppc.cli import main

    _overflow_trial_1(monkeypatch)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"trials": 3, "steps": 10, "seed": 5}))
    out = tmp_path / "o"
    with np.errstate(over="ignore"):
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
    failures = json.loads((out / "meta.json").read_text())["results"]["failures"]
    assert [f["trial"] for f in failures] == [1]
    assert failures[0]["error"].startswith("NumericError: state is not finite at step 0")
    for name in ("trace.csv", "trajectory.csv", "summary.csv"):
        text = (out / name).read_text().lower()
        assert "nan" not in text and "inf" not in text, name


def test_scripted_dropout_through_config():
    script = [0, 1, 0, 1, 1] * 4
    cfg = SimConfig(trials=1, steps=20, dropout={"kind": "scripted", "script": script})
    rep = monte_carlo(cfg)
    assert np.array_equal(rep.results[0].d, script)


def test_write_csv_formats(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, {"a": [1, 2], "b": np.array([0.5, 1e-17]), "c": ["x", "yz"],
                     "d": np.array([3, -4], dtype=np.int8)})
    assert path.read_text() == "a,b,c,d\n1,0.5,x,3\n2,1e-17,yz,-4\n"
    for writer in (write_csv, write_csv_reference):
        with pytest.raises(ValueError):
            writer(path, {"a": [1, 2], "b": [0.5]})


class _FileWrites(ast.NodeVisitor):
    """(enclosing function, line) of each call that opens a file for writing or writes one."""

    def __init__(self):
        self.where, self.found = None, []

    def visit_FunctionDef(self, node):
        outer, self.where = self.where, node.name
        self.generic_visit(node)
        self.where = outer

    def visit_Call(self, node):
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        mode = (node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
                or [ast.Constant("r")])[0]
        # a mode that is not a literal counts as a write
        writes = not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                      and not set(mode.value) & set("wax+"))
        if (name == "open" and writes or
                name in ("savetxt", "tofile", "write_text", "write_bytes")):
            self.found.append((self.where, node.lineno))
        self.generic_visit(node)


def test_write_file_is_the_only_code_that_writes_a_file():
    found = {}
    for path in sorted(Path(sp.__file__).parent.glob("*.py")):
        scan = _FileWrites()
        scan.visit(ast.parse(path.read_text()))
        found.update({(path.name, where): line for where, line in scan.found})
    assert list(found) == [("sim.py", "write_file")]


FLOAT_CELLS = st.floats() | st.sampled_from([-0.0, 1e-17, 1e16, 5e-324, 2.2e-308, np.inf, -np.inf,
                                              np.nan])
CELLS = {
    "int": (st.integers(-2**63, 2**63 - 1), np.int64),
    "int8": (st.integers(-128, 127), np.int8),
    "float": (FLOAT_CELLS, float),
    "str": (st.text(st.characters(blacklist_categories=("Cs",)), max_size=4), str),
}


@st.composite
def csv_columns(draw):
    """Up to four columns of one length, from 0 rows to past two chunks of rows."""
    rows = draw(st.integers(0, 40) | st.sampled_from(
        [CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1, 2 * CSV_CHUNK_ROWS + 3]))
    columns = {}
    for name in "abcd"[:draw(st.integers(1, 4))]:
        values, dtype = CELLS[draw(st.sampled_from(sorted(CELLS)))]
        pool = draw(st.lists(values, min_size=1, max_size=12))
        # a long column repeats a short drawn pool, so every size draws little data
        columns[name] = np.array([pool[i % len(pool)] for i in range(rows)], dtype=dtype)
    return columns


@settings(max_examples=60, deadline=None)
@given(columns=csv_columns())
def test_write_csv_is_the_row_by_row_writer(tmp_path_factory, columns):
    d = tmp_path_factory.mktemp("csv")
    write_csv(d / "got.csv", columns)
    write_csv_reference(d / "ref.csv", columns)
    got = (d / "got.csv").read_bytes()
    assert got == (d / "ref.csv").read_bytes()
    if not len(next(iter(columns.values()))):
        assert got == (",".join(columns) + "\n").encode()


def test_sim_l2_shaped_trajectory_matches_the_row_reference(tmp_path):
    report = monte_carlo(SimConfig(trials=50, steps=100, seed=11, controller="l2",
                                   dropout={"kind": "markov", "p_dd": 0.8, "p_dg": 0.2}))
    _assert_columns_match_reference(tmp_path, {"trajectory": trajectory_columns}, report)


def _spawned_inputs(cfg, setup, namespace, trial):
    """trial_inputs' streams as the children of spawn(3) of the trial's key."""
    ss = np.random.SeedSequence(cfg.seed, spawn_key=(namespace, trial))
    rng_x0, rng_trace, rng_noise = (np.random.default_rng(k) for k in ss.spawn(3))
    trace = sp.generate_trace(setup.dropout, cfg.steps, rng=rng_trace)
    n = setup.model.n
    x0 = rng_x0.standard_normal(n) if isinstance(cfg.x0, str) else np.asarray(cfg.x0, dtype=float)
    shape = (cfg.steps, n)
    noise = rng_noise.normal(0.0, cfg.sigma, shape) if cfg.sigma > 0 else np.zeros(shape)
    return trace, x0, noise


@pytest.mark.parametrize("sigma", [0.0, 0.01])
@pytest.mark.parametrize("x0", ["standard_normal", [0.3, -0.2, 0.1, 0.5]])
@pytest.mark.parametrize("namespace", [NS_MAIN, NS_TRAIN, NS_TEST])
def test_trial_inputs_are_the_spawned_streams(sigma, x0, namespace):
    cfg = SimConfig(steps=30, seed=2024, x0=x0, noise={"kind": "gaussian", "sigma": sigma}
                    if sigma else {"kind": "none"})
    setup = build_setup(cfg)
    for trial in (0, 1, 17):
        (trace, x, noise), (ref_trace, ref_x, ref_noise) = (
            f(cfg, setup, namespace, trial) for f in (trial_inputs, _spawned_inputs))
        assert np.array_equal(trace.d, ref_trace.d) and trace.overrides == ref_trace.overrides
        assert x.tobytes() == ref_x.tobytes() and noise.tobytes() == ref_noise.tobytes()


def _assert_columns_match_reference(tmp_path, builders, report):
    for name, columns in builders.items():
        path = tmp_path / f"{name}.csv"
        write_csv(path, columns(report))
        assert path.read_bytes() == csv_reference(name, report).encode(), name


def test_column_builders_match_the_row_reference(monkeypatch, tmp_path):
    per_step = {"trace": trace_columns, "trajectory": trajectory_columns,
                "summary": summary_columns}
    noisy = monte_carlo(SimConfig(trials=3, steps=25, seed=4,
                                  noise={"kind": "gaussian", "sigma": 0.01}))
    _assert_columns_match_reference(tmp_path, per_step, noisy)

    # trial 1 of the l2 run fails, so the trial column skips it
    _overflow_trial_1(monkeypatch)
    with np.errstate(over="ignore"):
        l2 = monte_carlo(SimConfig(trials=4, steps=20, seed=5, controller="l2"))
    monkeypatch.undo()
    assert [r.trial for r in l2.results] == [0, 2, 3]
    _assert_columns_match_reference(tmp_path, per_step, l2)

    sweep = sweep_regularization(SimConfig(trials=2, steps=10, seed=9), "l1l2", [1e2, 1e3])
    _assert_columns_match_reference(tmp_path, {"sweep": sweep_columns}, sweep)

    bitrate = sp.bitrate_experiment(SimConfig(trials=2, train_trials=3, steps=15, seed=6,
                                              noise={"kind": "gaussian", "sigma": 0.01}))
    _assert_columns_match_reference(
        tmp_path, {"rates": rate_columns, "packets": packet_columns}, bitrate)
