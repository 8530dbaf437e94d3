import numpy as np
import pytest

import sparseppc as sp
from sparseppc.design import CostDesign
from sparseppc.errors import ConfigError
from sparseppc.sim import (NS_MAIN, SimConfig, build_setup, config_from_dict,
                           draw_x0, lyapunov_audit, make_controller,
                           monte_carlo, run_trial, sweep_regularization,
                           trial_streams, write_csv)


def _setup(**kw):
    return build_setup(SimConfig(**kw))


def test_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(steps=0)
    with pytest.raises(ConfigError):
        SimConfig(controller="bogus")
    with pytest.raises(ConfigError):
        SimConfig(noise={"kind": "weird"})
    with pytest.raises(ConfigError):
        config_from_dict({"not_a_key": 1})
    cfg = config_from_dict({"trials": 7}, seed=99)
    assert cfg.trials == 7 and cfg.seed == 99


def test_zero_initial_state_stays_zero():
    setup = _setup(trials=1, steps=30, x0=[0.0, 0.0, 0.0, 0.0])
    trace = sp.generate_trace(setup.dropout, 30, rng=np.random.default_rng(1))
    res = run_trial(setup, trace, np.zeros(4))
    assert np.all(res.norms == 0.0)
    assert np.all(res.u_applied == 0.0)
    assert np.all(res.sparsity == 0)


def test_no_dropout_least_squares_decreases_v(rng):
    setup = _setup(trials=1, steps=40, controller="least_squares",
                   dropout={"kind": "iid", "p_drop": 0.0})
    trace = sp.generate_trace(setup.dropout, 40, rng=np.random.default_rng(2))
    res = run_trial(setup, trace, rng.standard_normal(4))
    assert np.all(np.diff(res.V) < 0.0)
    assert lyapunov_audit(res, setup.design).total == 0


def test_worst_case_burst_trace_contracts_between_deliveries(rng):
    # bursts of N-1 = 9 losses after every delivery
    N, T = 10, 100
    script = ([0] + [1] * (N - 1)) * (T // N)
    setup = _setup(trials=1, steps=T, dropout={"kind": "scripted", "script": script})
    res = run_trial(setup, sp.generate_trace(setup.dropout, T), rng.standard_normal(4))
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
    setup = build_setup(cfg, design=broken)
    trace = sp.generate_trace(setup.dropout, 60, rng=np.random.default_rng(3))
    res = run_trial(setup, trace, rng.standard_normal(4))
    audit = lyapunov_audit(res, broken)

    # independent recount straight from the recorded trajectory
    V = np.einsum("ki,ij,kj->k", res.states, broken.P, res.states)
    deliveries = np.flatnonzero(res.d == 0)
    pair = sum(1 for a, b in zip(deliveries, deliveries[1:])
               if np.linalg.norm(res.states[a]) > 1e-9 and V[b] >= V[a])
    assert audit.pair_violations == pair
    assert audit.total > 0  # this seed does destabilize the loop


def test_lyapunov_audit_zero_trajectory_vacuous():
    setup = _setup(trials=1, steps=20)
    trace = sp.generate_trace(setup.dropout, 20, rng=np.random.default_rng(4))
    res = run_trial(setup, trace, np.zeros(4))
    assert lyapunov_audit(res, setup.design).total == 0


def test_monte_carlo_single_trial_equals_run_trial():
    cfg = SimConfig(trials=1, steps=25, seed=21)
    rep = monte_carlo(cfg)
    setup = build_setup(cfg)
    rng_x0, rng_trace, rng_noise = trial_streams(cfg.seed, NS_MAIN, 0)
    trace = sp.generate_trace(setup.dropout, cfg.steps, rng=rng_trace)
    res = run_trial(setup, trace, draw_x0(cfg, 4, rng_x0), noise_rng=rng_noise)
    assert np.array_equal(rep.results[0].norms, res.norms)
    assert np.array_equal(rep.results[0].u_applied, res.u_applied)
    assert np.array_equal(rep.results[0].d, res.d)


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
    from sparseppc.sim import trajectory_rows
    write_csv(p1, ("trial", "k", "norm", "V", "u", "sparsity"), trajectory_rows(r1))
    write_csv(p2, ("trial", "k", "norm", "V", "u", "sparsity"), trajectory_rows(r2))
    assert p1.read_bytes() == p2.read_bytes()


def test_monte_carlo_aggregates_shapes():
    cfg = SimConfig(trials=3, steps=20, seed=5)
    rep = monte_carlo(cfg)
    assert rep.mean_norm.shape == (20,)
    assert rep.median_norm.shape == (20,)
    assert rep.mean_sparsity.shape == (20,)
    assert rep.per_trial_perf.shape == (3,)
    assert rep.total_violations == 0
    assert rep.failures == []


def test_monte_carlo_continues_after_trial_failure(monkeypatch):
    import sparseppc.sim as sim_mod

    real = sim_mod.run_trial

    def flaky(setup, trace, x0, **kw):
        if kw.get("trial") == 1:
            raise sp.NumericError("synthetic failure")
        return real(setup, trace, x0, **kw)

    monkeypatch.setattr(sim_mod, "run_trial", flaky)
    rep = sim_mod.monte_carlo(SimConfig(trials=3, steps=10, seed=5))
    assert len(rep.results) == 2
    assert rep.failures == [(1, "NumericError: synthetic failure")]


def test_monte_carlo_raises_when_everything_fails():
    cfg = SimConfig(trials=2, steps=5, seed=5, controller="oracle", oracle_cap=9)
    with pytest.raises(sp.SparsePpcError):
        monte_carlo(cfg)


def test_controller_dispatch(cessna_design):
    setup = _setup(trials=1, steps=5)
    for name in ("omp", "l1l2", "l2", "least_squares", "oracle"):
        fn = make_controller(setup, name)
        pkt = fn(np.zeros(4))
        assert pkt.sparsity == 0
    with pytest.raises(ConfigError):
        make_controller(setup, "nope")


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


def test_bitrate_experiment_smoke():
    cfg = SimConfig(trials=6, train_trials=6, steps=40, seed=13,
                    noise={"kind": "gaussian", "sigma": 0.01})
    rep = sp.bitrate_experiment(cfg)
    assert rep.roundtrip_failures == 0
    assert rep.max_quant_error <= 0.5 * cfg.quantizer_delta
    assert rep.mean_bits_omp > 0 and rep.mean_bits_l2 > 0
    assert rep.codec_omp.scheme == "sparse" and rep.codec_l2.scheme == "dense"
    with pytest.raises(ConfigError):
        sp.bitrate_experiment(SimConfig(noise={"kind": "none"}))


def test_bitrate_bits_code_the_recorded_test_packets():
    cfg = SimConfig(trials=3, train_trials=3, steps=20, seed=17,
                    noise={"kind": "gaussian", "sigma": 0.01})
    rep = sp.bitrate_experiment(cfg)
    q = sp.Quantizer(delta=cfg.quantizer_delta)
    for scheme, codec, test, mean in (
            ("sparse", rep.codec_omp, rep.test_omp, rep.mean_bits_omp),
            ("dense", rep.codec_l2, rep.test_l2, rep.mean_bits_l2)):
        bits = rep.bits[scheme]
        assert bits.shape == (3, 20)
        assert mean == np.mean(bits)
        for r, row, dumps in zip(test.results, bits, rep.hexes[scheme]):
            assert len(dumps) == 20
            for pkt, b, h in zip(r.packets, row, dumps):
                enc = sp.encode(codec, sp.quantize_packet(q, pkt))
                assert enc.bit_count == b and enc.to_hex() == h


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
    for bits in rep.bits.values():
        late = bits[:, 70:]
        assert np.all(late == late[0, 0])  # flat at the floor
    head_zero = sum(len(rep.codec_omp.coders[p].codebook[0]) for p in range(5))
    assert rep.bits["sparse"][0, 70] == head_zero + 5
    assert rep.bits["dense"][0, 70] == sum(len(rep.codec_l2.coders[p].codebook[0]) for p in range(10))


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
    assert reports["least_squares"].mean_sparsity.mean() == 10.0
    assert reports["l2"].mean_sparsity.mean() == 10.0
    assert reports["oracle"].mean_sparsity.mean() <= reports["omp"].mean_sparsity.mean()


def test_run_trial_requires_noise_stream():
    setup = _setup(trials=1, steps=5, noise={"kind": "gaussian", "sigma": 0.1})
    trace = sp.generate_trace(setup.dropout, 5, rng=np.random.default_rng(0))
    with pytest.raises(ConfigError):
        run_trial(setup, trace, np.zeros(4))


def test_scripted_dropout_through_config():
    script = [0, 1, 0, 1, 1] * 4
    cfg = SimConfig(trials=1, steps=20, dropout={"kind": "scripted", "script": script})
    rep = monte_carlo(cfg)
    assert np.array_equal(rep.results[0].d, script)


def test_write_csv_formats(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, ("a", "b"), [(1, 0.5), (2, 1e-17)])
    assert path.read_text() == "a,b\n1,0.5\n2,1e-17\n"
