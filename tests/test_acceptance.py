"""End-to-end acceptance suite: one test per criterion, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Every tolerance is pinned here, not configurable.
"""

from time import perf_counter

import numpy as np
import pytest

import sparseppc as sp
from sparseppc.cli import main
from sparseppc.controllers import _support_lsq
from sparseppc.sim import SimConfig, monte_carlo

from .oracles import interpret_trace, random_reachable, random_spd

SEED = 20260808

_TERMINAL = None


@pytest.fixture(scope="module", autouse=True)
def _grab_terminal(request):
    # the terminal reporter writes outside pytest's fd-level capture, so the
    # verdict lines show up in any run, -s or not
    global _TERMINAL
    _TERMINAL = request.config.pluginmanager.get_plugin("terminalreporter")
    yield


def _report(num: int, ok: bool, detail: str) -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    if _TERMINAL is not None:
        _TERMINAL.write_line(line)
    else:
        print(line)
    return line


@pytest.fixture(scope="module")
def omp_500(cessna_design):
    """Criterion 3's Monte Carlo run, shared with criterion 4 (paired traces)."""
    cfg = SimConfig(trials=500, steps=100, seed=SEED, controller="omp")
    t0 = perf_counter()
    rep = monte_carlo(cfg)
    return rep, perf_counter() - t0


def test_criterion_1_riccati_design_identities(cessna, cessna_design, cessna_horizon, rng):
    t0 = perf_counter()
    systems = [(cessna, cessna_design.Q, cessna_design.P, cessna_horizon)]
    for _ in range(100):
        m = random_reachable(rng)
        Q = random_spd(rng, m.n)
        P = sp.solve_dare(m, Q)
        systems.append((m, Q, P, sp.build_horizon(m, Q, P, 6)))

    worst = {"dare": 0.0, "cl": 0.0, "orth": 0.0, "wstar": 0.0}
    for m, Q, P, hm in systems:
        nP = np.linalg.norm(P, "fro")
        from sparseppc.design import dare_residual

        worst["dare"] = max(worst["dare"], dare_residual(m, P, Q) / nP)
        K = sp.lq_gain(m, P)
        Acl = m.A + np.outer(m.B, K)
        worst["cl"] = max(worst["cl"],
                          np.linalg.norm(Acl.T @ P @ Acl - P + Q, "fro") / nP)
        worst["orth"] = max(worst["orth"],
                            np.max(np.abs(m.B @ P @ Acl)) / (nP * np.linalg.norm(m.B)))
        Wstar = P - Q
        for _ in range(100 // len(systems) + 1):
            x = rng.standard_normal(m.n)
            ref = float(x @ Wstar @ x)
            got = sp.cost_quadratic(hm, sp.least_squares_packet(hm, x).u, x)
            # floor at the Riccati solver's own accuracy contract: for
            # near-deadbeat plants Wstar is exactly singular and both sides
            # sit at the 1e-9*||P|| noise floor
            denom = max(abs(ref), 1e-9 * nP * float(x @ x))
            worst["wstar"] = max(worst["wstar"], abs(got - ref) / denom)
    # dedicated 100-state check on the aircraft design itself
    for _ in range(100):
        x = rng.standard_normal(4)
        ref = float(x @ (cessna_design.P - cessna_design.Q) @ x)
        got = sp.cost_quadratic(cessna_horizon,
                                sp.least_squares_packet(cessna_horizon, x).u, x)
        worst["wstar"] = max(worst["wstar"], abs(got - ref) / max(abs(ref), 1e-12))
    elapsed = perf_counter() - t0

    ok = (worst["dare"] <= 1e-9 and worst["cl"] <= 1e-8
          and worst["orth"] <= 1e-8 and worst["wstar"] <= 1e-6 and elapsed < 1.0)
    line = _report(1, ok, f"dare {worst['dare']:.2e} (<=1e-9), closed-loop "
                          f"{worst['cl']:.2e} (<=1e-8), orthogonality {worst['orth']:.2e} "
                          f"(<=1e-8), Wstar {worst['wstar']:.2e} (<=1e-6), {elapsed:.2f}s (<1s)")
    assert ok, line


def test_criterion_2_omp_vs_oracle(cessna_design, cessna_horizon, rng):
    t0 = perf_counter()
    d, hm = cessna_design, cessna_horizon
    matches = 0
    for _ in range(200):
        x = rng.standard_normal(4)
        pkt = sp.omp_packet(hm, d.W, x)
        assert sp.check_feasible(hm, d.W, pkt.u, x).feasible

        # strictly decreasing residual along the greedy path
        Hx = hm.H @ x
        r = Hx.copy()
        prev = float(r @ r)
        supp = []
        for _k in range(pkt.solver_iters):
            z = (hm.G.T @ r) / hm.col_norm_sq
            e = np.sum((hm.G * z[None, :] - r[:, None]) ** 2, axis=0)
            e[supp] = np.inf
            supp.append(int(np.argmin(e)))
            coef, Gs = _support_lsq(hm.G, supp, Hx)
            r = Hx - Gs @ coef
            cur = float(r @ r)
            assert cur < prev + 1e-12
            prev = cur

        oracle = sp.exhaustive_l0_packet(hm, d.W, x)
        assert oracle.sparsity <= pkt.sparsity
        matches += oracle.sparsity == pkt.sparsity
    elapsed = perf_counter() - t0
    ok = elapsed < 60.0
    line = _report(2, ok, f"200 states: all feasible, residuals decreasing, oracle "
                          f"never worse; greedy matches oracle sparsity in "
                          f"{matches}/200 ({matches / 2:.0f}%), {elapsed:.1f}s (<60s)")
    assert ok, line


def test_criterion_3_bounded_dropout_stability(omp_500):
    rep, elapsed = omp_500
    rows = rep.records.rows()
    assert len(rows) == 500 and not rep.failures
    violations = int(sum(r.violations for r in rows))
    ratios = np.array([r.norms[-1] / r.norms[0] for r in rows])
    contracted = int(np.sum([r.norms[-1] < r.norms[0] for r in rows]))
    med = float(np.median(ratios))
    gaps_ok = all(np.all(np.diff(np.flatnonzero(r.d == 0)) - 1 <= 9) for r in rows)
    ok = (violations == 0 and contracted == 500 and med <= 1e-2
          and gaps_ok and elapsed < 120.0)
    line = _report(3, ok, f"500 noise-free trials: {violations} Lyapunov violations "
                          f"(=0), ||x(99)||<||x(0)|| in {contracted}/500, median ratio "
                          f"{med:.2e} (<=1e-2), bursts bounded by 9: {gaps_ok}, "
                          f"{elapsed:.1f}s (<120s)")
    assert ok, line


def test_criterion_4_baseline_behavior(cessna_design, cessna_horizon, rng, omp_500):
    d, hm = cessna_design, cessna_horizon
    # (a) vanishing Tikhonov penalty reproduces the least-squares packet
    worst_l2 = 0.0
    for _ in range(50):
        x = rng.standard_normal(4)
        ls = sp.least_squares_packet(hm, x)
        near = sp.l2_packet(hm, x, 1e-12)
        scale = max(1.0, float(np.max(np.abs(ls.u))))
        worst_l2 = max(worst_l2, float(np.max(np.abs(near.u - ls.u))) / scale)
    # (b) large l1 penalty returns the zero packet
    zeros_ok = True
    for _ in range(50):
        x = rng.standard_normal(4)
        thr = float(np.max(np.abs(hm.GtH @ x)))
        zeros_ok &= sp.l1l2_packet(hm, x, max(thr, 1e-9) * 1.0000001).sparsity == 0

    # (c) practical-stability signature on the same paired traces
    omp_rep, _ = omp_500
    cfg = SimConfig(trials=500, steps=100, seed=SEED, controller="l1l2", nu1=5.3e3)
    l1_rep = monte_carlo(cfg)
    omp_rows, l1_rows = omp_rep.records.rows(), l1_rep.records.rows()
    for a, b in zip(omp_rows, l1_rows):
        assert np.array_equal(a.d, b.d)  # paired traces
    fails = np.array([r.norms[-1] > 1e-3 * r.norms[0] for r in l1_rows])
    frac_fail = float(np.mean(fails))
    omp_ok = int(sum(r.violations for r in omp_rows)) == 0

    ok = worst_l2 <= 1e-6 and zeros_ok and frac_fail > 0.5 and omp_ok
    line = _report(4, ok, f"l2(nu->0) vs LS {worst_l2:.1e} (<=1e-6), big-nu1 zero "
                          f"packets: {zeros_ok}, l1l2(5.3e3) missed 1e-3 decay in "
                          f"{100 * frac_fail:.0f}% of 500 paired trials (>50%), OMP "
                          f"stable on same traces: {omp_ok}")
    assert ok, line


def test_criterion_5_bitrate_reduction():
    cfg = SimConfig(trials=200, train_trials=200, steps=100, seed=SEED,
                    noise={"kind": "gaussian", "sigma": 0.01})
    rep = sp.bitrate_experiment(cfg)
    roundtrip_ok = rep.roundtrip_failures == 0
    quant_ok = rep.max_quant_error <= 0.5 * cfg.quantizer_delta
    reduction_ok = rep.reduction_pct >= 30.0
    ok = roundtrip_ok and quant_ok and reduction_ok
    line = _report(5, ok, f"mean bits OMP {rep.mean_bits_omp:.2f} vs l2 "
                          f"{rep.mean_bits_l2:.2f}: reduction {rep.reduction_pct:.1f}% "
                          f"(>=30%), roundtrip exact: {roundtrip_ok}, max quant error "
                          f"{rep.max_quant_error:.2e} (<= {0.5 * cfg.quantizer_delta}) ")
    assert ok, line


def test_criterion_6_protocol_conformance(rng):
    from sparseppc.channel import DropoutModel

    # 10^4 random bounded traces: the read schedule equals the stepwise oracle
    mismatches = 0
    for i in range(10_000):
        N = int(rng.integers(2, 12))
        kind = ("iid", "markov", "scripted")[i % 3]
        if kind == "scripted":
            T = int(rng.integers(1, 40))
            bits = [0]
            run = 0
            for _ in range(T - 1):
                b = int(rng.random() < 0.5) if run < N - 1 else 0
                run = run + 1 if b else 0
                bits.append(b)
            model = DropoutModel(kind="scripted", N=N, script=bits)
            trace_rng = None
        elif kind == "iid":
            model = DropoutModel(kind="iid", N=N, p_drop=float(rng.uniform(0, 1)))
            trace_rng = np.random.default_rng(int(rng.integers(0, 2**31)))
            T = int(rng.integers(1, 40))
        else:
            model = DropoutModel(kind="markov", N=N, p_dd=float(rng.uniform(0, 1)),
                                 p_dg=float(rng.uniform(0, 1)))
            trace_rng = np.random.default_rng(int(rng.integers(0, 2**31)))
            T = int(rng.integers(1, 40))
        tr = sp.generate_trace(model, T, rng=trace_rng)
        packets = np.array([rng.standard_normal(N) for _ in range(T)])
        src, age = sp.actuate(tr, N)
        want = interpret_trace(tr.d, packets)
        mismatches += not np.array_equal(packets[src, age], want)

    # 10^6 generated steps: the burst bound never breaks
    total_steps = 0
    max_excess = 0
    for j, (kind, kw) in enumerate([("iid", {"p_drop": 0.97}),
                                    ("markov", {"p_dd": 0.95, "p_dg": 0.5}),
                                    ("iid", {"p_drop": 0.5}),
                                    ("markov", {"p_dd": 0.8, "p_dg": 0.2})]):
        N = 10
        model = DropoutModel(kind=kind, N=N, **kw)
        tr = sp.generate_trace(model, 250_000, rng=np.random.default_rng(1000 + j))
        total_steps += tr.T
        max_excess = max(max_excess, int(tr.gaps().max(initial=0)) - (N - 1))
    ok = mismatches == 0 and max_excess <= 0 and total_steps == 1_000_000
    line = _report(6, ok, f"10^4 traces: {mismatches} interpreter mismatches (=0); "
                          f"10^6 generated steps: bound excess {max_excess} (<=0)")
    assert ok, line


def test_criterion_7_cli_reproducibility(tmp_path):
    import json

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"trials": 4, "steps": 25, "seed": SEED}))
    pairs = []
    for cmd, names in (
        (["simulate"], ("trace.csv", "trajectory.csv", "summary.csv")),
        (["sweep", "--family", "l2", "--grid", "1e0,1e2"], ("sweep.csv",)),
        (["bitrate", "--train-trials", "4"], ("rates.csv",)),
    ):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{cmd[0]}_{tag}"
            code = main(cmd + ["--config", str(cfg_path), "--out-dir", str(out)])
            assert code == 0
            outs.append(out)
        for name in names:
            pairs.append((f"{cmd[0]}/{name}",
                          (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()))
    bad = [name for name, same in pairs if not same]
    ok = not bad
    line = _report(7, ok, f"byte-identical reruns for {len(pairs)} CSVs "
                          f"across simulate/sweep/bitrate" + (f"; mismatches: {bad}" if bad else ""))
    assert ok, line
