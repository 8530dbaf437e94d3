import math
import warnings
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sparseppc as sp
from sparseppc.controllers import (FEASIBILITY_SLACK, OMP_PREFIX, ORACLE_CAP, ControlPacket,
                                   _l1_gathers, _node_products, _row_products, _support_lsq,
                                   _support_node, budget_for)
from sparseppc.errors import ConfigError, FeasibilityError, NumericError, SolverFailureError
from sparseppc.sim import SimConfig, build_setup, monte_carlo

from .oracles import (exhaustive_reference, l1l2_reference, l2_reference,
                      lasso_kkt_violation, least_squares_reference, omp_node_reference,
                      omp_reference, random_reachable, random_spd)

W_SCALE_HUGE = 1e6


def test_check_feasible_zero_state(cessna_design, cessna_horizon):
    cert = sp.check_feasible(cessna_horizon, cessna_design.W, np.zeros(10), np.zeros(4))
    assert cert.feasible and cert.residual_sq == 0.0 and cert.budget == 0.0


def test_least_squares_packet_is_feasible_with_slack(cessna_design, cessna_horizon, rng):
    d, hm = cessna_design, cessna_horizon
    for _ in range(20):
        x = rng.standard_normal(4)
        pkt = sp.least_squares_packet(hm, x)
        cert = sp.check_feasible(hm, d.W, pkt.u, x)
        assert cert.feasible
        slack = float(x @ d.Eps @ x)
        assert cert.budget - cert.residual_sq >= 0.5 * slack  # strict margin ~ x'Eps x


def test_zero_packet_infeasible_direction_exists(cessna_design, cessna_horizon):
    # any direction where ||Hx||^2 > x'Wx certifies u = 0 infeasible
    d, hm = cessna_design, cessna_horizon
    M = hm.H.T @ hm.H - d.W
    w, V = np.linalg.eigh(M)
    assert w[-1] > 0.0
    x = V[:, -1]
    cert = sp.check_feasible(hm, d.W, np.zeros(10), x)
    assert not cert.feasible


def test_omp_zero_state_returns_zero_packet(cessna_design, cessna_horizon):
    pkt = sp.omp_packet(cessna_horizon, cessna_design.W, np.zeros(4))
    assert pkt.sparsity == 0 and pkt.solver_iters == 0
    assert np.all(pkt.u == 0.0)


def test_omp_huge_budget_returns_zero_packet(cessna_design, cessna_horizon, rng):
    W = W_SCALE_HUGE * cessna_design.W
    x = rng.standard_normal(4)
    pkt = sp.omp_packet(cessna_horizon, W, x)
    assert pkt.sparsity == 0
    assert sp.check_feasible(cessna_horizon, W, pkt.u, x).feasible


def test_omp_feasibility_and_iteration_contract(cessna_design, cessna_horizon, rng):
    d, hm = cessna_design, cessna_horizon
    for _ in range(1000):
        x = rng.standard_normal(4)
        pkt = sp.omp_packet(hm, d.W, x)
        assert sp.check_feasible(hm, d.W, pkt.u, x).feasible
        assert pkt.sparsity <= pkt.solver_iters <= 10


def test_omp_residual_strictly_decreasing(cessna_design, cessna_horizon, rng):
    # replay the greedy selection step by step and record the residual path
    d, hm = cessna_design, cessna_horizon
    for _ in range(50):
        x = rng.standard_normal(4)
        budget = float(x @ d.W @ x)
        Hx = hm.H @ x
        pkt = sp.omp_packet(hm, d.W, x)
        supp_order = []
        r = Hx.copy()
        path = [float(r @ r)]
        for _k in range(pkt.solver_iters):
            z = (hm.G.T @ r) / hm.col_norm_sq
            e = np.sum((hm.G * z[None, :] - r[:, None]) ** 2, axis=0)
            e[supp_order] = np.inf
            supp_order.append(int(np.argmin(e)))
            coef, Gs = _support_lsq(hm.G, supp_order, Hx)
            r = Hx - Gs @ coef
            path.append(float(r @ r))
        for a, b in zip(path, path[1:]):
            assert b < a + 1e-12
        assert path[-1] <= budget + FEASIBILITY_SLACK * max(1.0, budget)
        assert np.array_equal(np.sort(supp_order), np.flatnonzero(pkt.u)) or pkt.sparsity < pkt.solver_iters


def test_omp_support_least_squares_optimality(cessna_design, cessna_horizon, rng):
    d, hm = cessna_design, cessna_horizon
    for _ in range(50):
        x = rng.standard_normal(4)
        pkt = sp.omp_packet(hm, d.W, x)
        support = np.flatnonzero(pkt.u)
        if support.size == 0:
            continue
        coef, _ = _support_lsq(hm.G, list(support), hm.H @ x)
        resolved = np.zeros(10)
        resolved[support] = coef
        assert np.allclose(resolved, pkt.u, rtol=1e-9, atol=1e-12)
        off = np.setdiff1d(np.arange(10), support)
        assert np.all(pkt.u[off] == 0.0)


def test_omp_scale_covariance(cessna_design, cessna_horizon, rng):
    d, hm = cessna_design, cessna_horizon
    for alpha in (3.7, -2.0, 100.0):
        for _ in range(20):
            x = rng.standard_normal(4)
            p1 = sp.omp_packet(hm, d.W, x)
            p2 = sp.omp_packet(hm, d.W, alpha * x)
            assert np.array_equal(np.flatnonzero(p1.u), np.flatnonzero(p2.u))
            assert np.allclose(p2.u, alpha * p1.u, rtol=1e-9, atol=1e-12)


def _scaled_or_refused(solve, x, k):
    """solve(2^k x), or None if it raises NumericError; any warning fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return solve(2.0**k * x)
        except NumericError:
            return None


def _is_scaled(got, base, k):
    """got is base scaled by 2^k bit for bit, with the same count."""
    return (got.u.tobytes() == (2.0**k * base.u).tobytes()
            and got.solver_iters == base.solver_iters)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(-100, 600))
def test_omp_scales_by_powers_of_two_or_refuses(cessna_design, cessna_horizon, seed, k):
    # scaling by 2^k is exact, so OMP makes the same picks at 2^k x; where
    # a norm or score overflows it refuses the state instead of picking
    d, hm = cessna_design, cessna_horizon
    x = np.random.default_rng(seed).standard_normal(4)
    got = _scaled_or_refused(lambda y: sp.omp_packet(hm, d.W, y), x, k)
    assert got is None or _is_scaled(got, sp.omp_packet(hm, d.W, x), k)


@pytest.fixture(scope="module")
def cessna_n8(cessna):
    d = sp.build_design(cessna, N=8)
    return d, sp.build_horizon(cessna, d.Q, d.P, d.N)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(-100, 600))
def test_exhaustive_scales_by_powers_of_two_or_refuses(cessna_n8, seed, k):
    # as for OMP; the feasibility slack is absolute below a budget of 1, so
    # there the search need not scale, and such draws are left out
    d, hm = cessna_n8
    x = np.random.default_rng(seed).standard_normal(4)
    budget = budget_for(d.W, x[None]).item()    # 2^k x has 4^k times this budget
    assume(budget >= 1.0 and math.ldexp(budget, min(2 * k, 0)) >= 1.0)
    got = _scaled_or_refused(lambda y: sp.exhaustive_l0_packet(hm, d.W, y), x, k)
    assert got is None or _is_scaled(got, sp.exhaustive_l0_packet(hm, d.W, x), k)


@pytest.mark.parametrize("k", [495, 500, 505])
def test_omp_and_exhaustive_refuse_an_overflowing_state_without_a_warning(
        cessna_design, cessna_horizon, k):
    # (C x)_j^2 overflows for k >= 495, x'Mx and ||Hx||^2 at 505, x'Wx only at 507
    d, hm = cessna_design, cessna_horizon
    x = np.array([1.0, -1.0, 1.0, 0.0])
    omp = _scaled_or_refused(lambda y: sp.omp_packet(hm, d.W, y), x, k)
    assert omp is None
    oracle = _scaled_or_refused(lambda y: sp.exhaustive_l0_packet(hm, d.W, y), x, k)
    assert (oracle is None) == (k == 505)
    assert oracle is None or _is_scaled(oracle, sp.exhaustive_l0_packet(hm, d.W, x), k)


def test_omp_dominated_by_exhaustive_oracle(cessna_design, cessna_horizon, rng):
    d, hm = cessna_design, cessna_horizon
    ties = 0
    trials = 60
    for _ in range(trials):
        x = rng.standard_normal(4)
        greedy = sp.omp_packet(hm, d.W, x)
        oracle = sp.exhaustive_l0_packet(hm, d.W, x)
        assert sp.check_feasible(hm, d.W, oracle.u, x).feasible
        assert oracle.sparsity <= greedy.sparsity
        ties += oracle.sparsity == greedy.sparsity
    assert 0 <= ties <= trials


def test_exhaustive_matches_the_per_support_reference(cessna_design, cessna_horizon, rng):
    # the stacked solve per size gives the very bits and counts of one QR per support
    d, hm = cessna_design, cessna_horizon
    states = [np.zeros(4)] + [rng.standard_normal(4) * 10.0 ** rng.uniform(-3.0, 2.0)
                              for _ in range(100)]
    sizes = set()
    for x in states:
        pkt = sp.exhaustive_l0_packet(hm, d.W, x)
        u, examined = exhaustive_reference(hm, d.W, x)
        assert np.array_equal(pkt.u, u) and pkt.solver_iters == examined, x
        sizes.add(pkt.sparsity)
    assert 0 in sizes and len(sizes) >= 3


def test_exhaustive_raises_only_on_a_singular_support_before_the_first_fit(
        cessna_design, cessna_horizon, rng):
    # column 9 is zero: (9,) is the last support of size 1, so a state that
    # support (0,) fits never reaches it, and any other state does
    d, hm = cessna_design, cessna_horizon
    G = hm.G.copy()
    G[:, 9] = 0.0
    bad = replace(hm, G=G, col_norm_sq=np.sum(G * G, axis=0))
    x, *_ = np.linalg.lstsq(hm.H, hm.G[:, 0], rcond=None)
    pkt = sp.exhaustive_l0_packet(bad, d.W, x)
    u, examined = exhaustive_reference(bad, d.W, x)
    assert np.array_equal(pkt.u, u) and pkt.solver_iters == examined == 1
    for solve in (sp.exhaustive_l0_packet, exhaustive_reference):
        with pytest.raises(SolverFailureError, match="support \\(9,\\)"):
            solve(bad, d.W, rng.standard_normal(4))


def test_exhaustive_block_equals_its_rows_own_searches(cessna_design, cessna_horizon, rng):
    # a block is one budget_for call and a search per row: each row has the
    # bits of its own call, solver_iters is the rows' total, and the first
    # row whose search raises ends the call
    d, hm = cessna_design, cessna_horizon
    X = np.vstack([np.zeros(4), rng.standard_normal((11, 4)) * 10.0 ** rng.uniform(-3, 2, (11, 1))])
    for B in (1, 5, 12):
        for block in np.array_split(X, -(-len(X) // B)):
            pkt = sp.exhaustive_l0_packet(hm, d.W, block)
            alone = [sp.exhaustive_l0_packet(hm, d.W, x) for x in block]
            assert pkt.u.shape == (len(block), hm.N)
            assert pkt.u.tobytes() == np.array([a.u for a in alone]).tobytes()
            assert pkt.solver_iters == sum(a.solver_iters for a in alone)
    G = hm.G.copy()
    G[:, 9] = 0.0
    bad = replace(hm, G=G, col_norm_sq=np.sum(G * G, axis=0))
    fits, *_ = np.linalg.lstsq(hm.H, hm.G[:, 0], rcond=None)
    with pytest.raises(SolverFailureError, match="support \\(9,\\)"):
        sp.exhaustive_l0_packet(bad, d.W, np.array([fits, X[1]]))
    with pytest.raises(NumericError, match="state is not finite"):
        sp.exhaustive_l0_packet(hm, d.W, np.array([X[1], [np.nan, 0.0, 0.0, 0.0]]))


def _assert_walk_bits(hm, W, x, ops=None):
    """omp_packet's packet and solver_iters are the per-node walk's, bit for bit."""
    pkt = sp.omp_packet(hm, W, x)
    u, iters = omp_node_reference(hm, W, x, ops)
    assert pkt.u.tobytes() == u.tobytes() and pkt.solver_iters == iters, x
    return pkt


def _assert_matches_reference(hm, W, x):
    pkt = _assert_walk_bits(hm, W, x)
    u, order = omp_reference(hm, W, x)
    assert np.array_equal(np.flatnonzero(pkt.u), np.sort(order)), x
    assert pkt.solver_iters == len(order)
    assert np.linalg.norm(pkt.u - u) <= 1e-9 * np.linalg.norm(u), x


def _closed_loop_states(**cfg):
    rep = monte_carlo(SimConfig(steps=100, seed=3, **cfg))
    assert not rep.failures
    return np.concatenate([r.states for r in rep.results])


def test_omp_matches_qr_reference(cessna_design, cessna_horizon, rng):
    # every state a 30 x 100 closed loop visits, then 500 random states
    d, hm = cessna_design, cessna_horizon
    for x in _closed_loop_states(trials=30):
        _assert_matches_reference(hm, d.W, x)
    for _ in range(500):
        _assert_matches_reference(hm, d.W, rng.standard_normal(4))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), s=st.floats(-2.0, 0.5))
def test_omp_matches_qr_reference_across_scales(cessna_design, cessna_horizon, seed, s):
    z = np.random.default_rng(seed).standard_normal(4)
    _assert_matches_reference(cessna_horizon, cessna_design.W, z * 10.0**s)


@pytest.mark.parametrize("noise", [{"kind": "none"}, {"kind": "gaussian", "sigma": 0.01}],
                         ids=["noise_free", "sigma_0.01"])
def test_omp_equals_the_per_node_walk(cessna_design, cessna_horizon, noise):
    # criterion 3's closed loop and criterion 5's noisy one, on a table that
    # starts empty, so that walks run both inside and past the prefix
    hm, ops = replace(cessna_horizon), {}
    for x in _closed_loop_states(trials=100, noise=noise):
        _assert_walk_bits(hm, cessna_design.W, x, ops)
    assert hm._omp_nodes.count > OMP_PREFIX


def test_omp_equals_the_per_node_walk_past_the_prefix(cessna):
    # at N = 30 the table outgrows the prefix many times over, and many
    # walks end on a node past it
    d = sp.build_design(cessna, N=30)
    hm, ops = sp.build_horizon(cessna, d.Q, d.P, d.N), {}
    past = 0
    for x in _closed_loop_states(N=30, trials=10):
        pkt = _assert_walk_bits(hm, d.W, x, ops)
        mask = sum(1 << int(j) for j in np.flatnonzero(pkt.u))
        past += hm._omp_nodes.index[mask] >= OMP_PREFIX
    assert hm._omp_nodes.count > 4 * OMP_PREFIX and past > 100


def test_omp_all_zero_scores_pick_the_smallest_unselected_column(cessna_horizon):
    # G's columns are unit vectors and H x = 2 g_0 + e_N: after g_0 the
    # residual e_N is orthogonal to every column, so every score is exactly
    # 0, selected ones included, and the walk must go on in index order
    # until the full support still misses the zero budget; the first solve
    # builds the nodes, the second walks them all inside the prefix
    N, rows = cessna_horizon.N, cessna_horizon.G.shape[0]
    G, H = np.eye(rows, N), np.zeros((rows, 4))
    H[0, 0], H[N, 0] = 2.0, 1.0
    hm = replace(cessna_horizon, G=G, H=H, col_norm_sq=np.ones(N))
    x, W = np.eye(4)[0], np.zeros((4, 4))
    for solve in (sp.omp_packet, sp.omp_packet, omp_node_reference):
        with pytest.raises(FeasibilityError) as err:
            solve(hm, W, x)
        assert err.value.residual_sq == 1.0
    assert hm._omp_nodes.masks == [(1 << k) - 1 for k in range(N + 1)]


def _node_table(hm, rng, count):
    """hm's table with the empty support and count - 1 random ones."""
    _support_node(hm, 0)
    while hm._omp_nodes.count < count:
        _support_node(hm, int(rng.integers(1, 2**hm.N)))
    return hm._omp_nodes


def test_node_products_equal_each_nodes_own_products(cessna_design, cessna_horizon, rng):
    # whether a node is inside the prefix depends on the table's history, and
    # how many rows a block holds on the run, so the block products must have
    # the bits of each row's and node's own: on the cessna table a closed
    # loop builds, and on random n = 9 and n = 12 plants, where a single
    # product over all rows of the stacked C or M does not
    hm = replace(cessna_horizon)
    states = _closed_loop_states(trials=5)
    sp.omp_packet(hm, cessna_design.W, states)
    tables = [(hm._omp_nodes, cessna_design.W, states)]
    for n in (9, 12):
        m = random_reachable(rng, n, n)
        tables.append((_node_table(sp.build_horizon(m, np.eye(n), np.eye(n), 10), rng, 60),
                       random_spd(rng, n),
                       rng.standard_normal((100, n)) * 10.0 ** rng.uniform(-3, 3, (100, 1))))
    for nodes, W, X in tables:
        assert nodes.count > OMP_PREFIX
        for B in (1, 5, 50):
            for block in np.array_split(X, -(-len(X) // B)):
                budgets = budget_for(W, block)
                c, q = _node_products(nodes, nodes.count, block)
                assert c.shape == (len(block), nodes.count, nodes.C.shape[1])
                assert budgets.shape == (len(block),) and q.shape == c.shape[:2]
                for r, x in enumerate(block):
                    assert budgets[r].tobytes() == (x @ W @ x).tobytes()
                    for i in range(nodes.count):
                        assert c[r, i].tobytes() == nodes.C[i].dot(x).tobytes()
                        assert q[r, i].tobytes() == x.dot(nodes.M[i].dot(x)).tobytes()


def _assert_block_bits(hm, W, X, B, ops):
    """omp_packet on blocks of B rows of X: each row is the per-node walk's,
    bit for bit, and each block's solver_iters is its rows' total. Returns
    the packets."""
    packets = []
    for block in np.array_split(X, -(-len(X) // B)):
        pkt = sp.omp_packet(hm, W, block)
        packets.extend(pkt.u)
        assert pkt.u.shape == (len(block), hm.N)
        total = 0
        for u, x in zip(pkt.u, block):
            want, iters = omp_node_reference(hm, W, x, ops)
            assert u.tobytes() == want.tobytes(), x
            total += iters
        assert pkt.solver_iters == total
    return packets


@pytest.mark.parametrize("B", [1, 5, 50])
def test_omp_block_equals_the_per_node_walk(cessna, cessna_design, cessna_horizon, rng, B):
    # the cessna closed loop, random n = 9 and n = 12 plants, and N = 30
    # walks that end past the prefix; every table starts empty, so that a
    # block's walks build nodes that its later rows then step past
    _assert_block_bits(replace(cessna_horizon), cessna_design.W,
                       _closed_loop_states(trials=10), B, {})
    for n in (9, 12):
        m = random_reachable(rng, n, n)
        hm = sp.build_horizon(m, np.eye(n), np.eye(n), 10)
        # a budget just above the full support's cost, so that every walk
        # ends and takes about six picks
        E = hm.H - hm.G @ np.linalg.lstsq(hm.G, hm.H, rcond=None)[0]
        W = E.T @ E + 1e-3 * (hm.H.T @ hm.H - E.T @ E)
        X = rng.standard_normal((100, n)) * 10.0 ** rng.uniform(-3, 3, (100, 1))
        _assert_block_bits(hm, W, X, B, {})
        assert hm._omp_nodes.count > OMP_PREFIX
    d = sp.build_design(cessna, N=30)
    hm = sp.build_horizon(cessna, d.Q, d.P, d.N)
    packets = _assert_block_bits(hm, d.W, _closed_loop_states(N=30, trials=3), B, {})
    ends = [hm._omp_nodes.index[sum(1 << int(j) for j in np.flatnonzero(u))] for u in packets]
    assert hm._omp_nodes.count > 4 * OMP_PREFIX and sum(i >= OMP_PREFIX for i in ends) > 30


def _with_bad_column(hm, value):
    G = hm.G.copy()
    G[:, 0] = value
    return replace(hm, G=G, col_norm_sq=np.sum(G * G, axis=0))


@pytest.mark.parametrize("value", [0.0, np.nan])
def test_omp_degenerate_column_raises_solver_failure(cessna_design, cessna_horizon, rng, value):
    # a zero or NaN column scores NaN and is picked first; its support
    # solve is singular (zero) or has no finite fit (NaN)
    hm = _with_bad_column(cessna_horizon, value)
    with np.errstate(invalid="ignore"), pytest.raises(SolverFailureError, match="column 0"):
        sp.omp_packet(hm, cessna_design.W, rng.standard_normal(4))
    assert hm._omp_nodes.masks == [0] and hm._omp_nodes.child == [[-1] * hm.N]


def test_omp_failed_support_solve_raises_solver_failure(cessna_design, cessna_horizon, rng,
                                                         monkeypatch):
    # a cold horizon: the warm session one has built every support it needs
    def singular(*_a):
        raise np.linalg.LinAlgError("Singular matrix")

    d, hm = cessna_design, replace(cessna_horizon)
    x = rng.standard_normal(4)
    real = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(SolverFailureError, match="support solve failed"):
        sp.omp_packet(hm, d.W, x)
    # a failed build adds no node and no link: only the empty support,
    # which needs no solve, is kept, and the horizon then solves as an
    # untouched one does
    assert hm._omp_nodes.masks == [0] and hm._omp_nodes.child == [[-1] * hm.N]
    monkeypatch.setattr(np.linalg, "solve", real)
    got = sp.omp_packet(hm, d.W, x)
    want = sp.omp_packet(replace(cessna_horizon), d.W, x)
    assert np.array_equal(got.u, want.u) and got.solver_iters == want.solver_iters


def test_omp_packet_does_not_depend_on_cache_history(cessna_design, cessna_horizon, rng):
    # a cold horizon builds each support from the state in hand; a warm one
    # reuses operators that earlier states built; the packets are the same
    d, warm = cessna_design, replace(cessna_horizon)
    assert warm._omp_nodes.count == 0
    for _ in range(300):
        sp.omp_packet(warm, d.W, rng.standard_normal(4) * 10.0 ** rng.uniform(-2.0, 0.5))
    for _ in range(50):
        x = rng.standard_normal(4)
        cold = sp.omp_packet(replace(cessna_horizon), d.W, x)
        hot = sp.omp_packet(warm, d.W, x)
        assert np.array_equal(cold.u, hot.u) and cold.solver_iters == hot.solver_iters
    nodes = warm._omp_nodes
    assert 1 < nodes.count <= 2**warm.N
    assert sorted(nodes.index.values()) == list(range(nodes.count))
    assert all(nodes.masks[i] == mask for mask, i in nodes.index.items())
    assert not any(a.flags.writeable for a in nodes.K + nodes.cols)
    assert replace(warm)._omp_nodes.count == 0


def test_exhaustive_singular_support_raises_solver_failure(cessna_design, cessna_horizon, rng):
    hm = _with_bad_column(cessna_horizon, 0.0)
    with pytest.raises(SolverFailureError, match="support \\(0,\\)"):
        sp.exhaustive_l0_packet(hm, cessna_design.W, rng.standard_normal(4))


def test_l2_singular_system_raises_solver_failure(cessna_horizon, rng):
    hm = replace(cessna_horizon, GtG=-np.eye(10))
    with pytest.raises(SolverFailureError):
        sp.l2_packet(hm, rng.standard_normal(4), 1.0)
    assert hm._l2_gains == {}   # a failed build keeps nothing


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), s=st.floats(-6.0, 3.0), t=st.floats(-6.0, 6.0))
def test_l2_packet_matches_the_per_state_solve(cessna_horizon, seed, s, t):
    # The gain's K x and a per-state solve both solve A u = G'H x, with
    # A = nu2 I + G'G, stably: their difference d has ||A d|| within 1e-12
    # of ||A|| ||u||. d itself can be cond(A) times larger (cond(A) is about
    # 3e5 for nu2 <= 1), so ||d|| / ||u|| reaches 8.7e-11 at nu2 = 0.1.
    hm, nu2 = cessna_horizon, 10.0**t
    x = np.random.default_rng(seed).standard_normal(4) * 10.0**s
    got, want = sp.l2_packet(hm, x, nu2).u, l2_reference(hm, x, nu2)
    A = nu2 * np.eye(hm.N) + hm.GtG
    assert (np.linalg.norm(A @ (got - want))
            <= 1e-12 * np.linalg.norm(A, 2) * np.linalg.norm(want))


def test_l2_gains_are_kept_per_nu2(cessna_horizon, rng):
    hm = replace(cessna_horizon)
    assert hm._l2_gains == {}
    x = rng.standard_normal(4)
    packets = {nu2: sp.l2_packet(hm, x, nu2).u for nu2 in (1.0, 3.1e2)}
    assert set(hm._l2_gains) == {1.0, 3.1e2}
    assert not np.allclose(packets[1.0], packets[3.1e2])
    for nu2, u in packets.items():
        # the same as on a horizon that has never seen the other nu2
        assert np.array_equal(sp.l2_packet(replace(cessna_horizon), x, nu2).u, u)
        assert np.array_equal(sp.l2_packet(hm, x, nu2).u, u)
    assert not any(K.flags.writeable for K in hm._l2_gains.values())
    assert replace(hm)._l2_gains == {}


@pytest.mark.parametrize("n", [4, 9, 12])
def test_l2_per_row_nu2_equals_each_rows_own_solve(cessna_horizon, rng, n):
    # nu2 as one value per row gives each row the bits of its own float-nu2
    # call, alone and in a block of its value's rows, at any block size,
    # with a grid value repeated and the rows in any order
    hm = (replace(cessna_horizon) if n == 4 else
          sp.build_horizon(random_reachable(rng, n, n), np.eye(n), np.eye(n), 10))
    grid = np.array([1.0, 3.1e2, 1e4, 3.1e2])
    for b in (1, 8, 50):
        X = rng.standard_normal((b, n)) * 10.0 ** rng.uniform(-3, 3, (b, 1))
        nu2 = np.repeat(grid, -(-b // grid.size))[:b]     # grid-major, as a sweep's rows
        for order in (np.arange(b), rng.permutation(b)):
            got = sp.l2_packet(hm, X[order], nu2[order])
            assert got.u.shape == (b, hm.N) and got.solver_iters == 1
            for r, (x, nu) in enumerate(zip(X[order], nu2[order].tolist())):
                assert got.u[r].tobytes() == sp.l2_packet(hm, x, nu).u.tobytes(), (b, r)
            for nu in set(nu2.tolist()):
                rows = nu2[order] == nu
                assert got.u[rows].tobytes() == sp.l2_packet(hm, X[order][rows], nu).u.tobytes()
    assert set(hm._l2_gains) == set(grid.tolist())
    with pytest.raises(ConfigError, match="nu2 must be positive, got -1.0"):
        sp.l2_packet(hm, X[:2], np.array([1.0, -1.0]))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), s=st.floats(-6.0, 3.0))
def test_least_squares_packet_matches_the_full_qr(cessna_horizon, seed, s):
    hm = cessna_horizon
    x = np.random.default_rng(seed).standard_normal(4) * 10.0**s
    got, want = sp.least_squares_packet(hm, x).u, least_squares_reference(hm, x)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_least_squares_packet_is_the_full_support_operator(cessna_horizon, rng):
    hm = replace(cessna_horizon)
    x = rng.standard_normal(4)
    u = sp.least_squares_packet(hm, x).u
    assert hm._omp_nodes.masks == [(1 << hm.N) - 1]
    assert np.array_equal(u, hm._omp_nodes.K[0].dot(x))


@pytest.mark.parametrize("solve", [
    lambda hm, W, x: sp.omp_packet(hm, W, x),
    lambda hm, W, x: sp.l2_packet(hm, x, 3.1e2),
    lambda hm, W, x: sp.least_squares_packet(hm, x),
    lambda hm, W, x: sp.l1l2_packet(hm, x, 5.3),
], ids=["omp", "l2", "least_squares", "l1l2"])
def test_packets_are_read_only_and_share_no_memory(cessna_design, cessna_horizon, rng,
                                                    solve):
    # the packet is frozen in place, so it must be an array of its own: not
    # a view of a cached operator or gain, nor of the packet before it
    hm = replace(cessna_horizon)
    x = rng.standard_normal(4)
    before = None
    for _ in range(5):
        pkt = solve(hm, cessna_design.W, x)
        assert not pkt.u.flags.writeable
        nodes = hm._omp_nodes
        cached = nodes.K + nodes.cols + [a for a in (nodes.C, nodes.M, nodes.w) if a is not None]
        cached += [a for entry in hm._l1_gathers.values() for a in entry]
        cached += list(hm._l2_gains.values())
        cached += [hm.G, hm.H, hm.GtG, hm.GtH, hm.col_norm_sq]
        if before is not None:
            cached.append(before.u)
        assert not any(np.shares_memory(pkt.u, a) for a in cached)
        before = pkt
        x = 0.5 * x + rng.standard_normal(4)


def test_exhaustive_zero_state_and_cap(cessna, cessna_design, cessna_horizon):
    pkt = sp.exhaustive_l0_packet(cessna_horizon, cessna_design.W, np.zeros(4))
    assert pkt.sparsity == 0
    d = cessna_design
    for N, refused in ((ORACLE_CAP, False), (ORACLE_CAP + 1, True)):
        hm = sp.build_horizon(cessna, d.Q, d.P, N)
        if refused:
            with pytest.raises(ConfigError, match="exhaustive search refused"):
                sp.exhaustive_l0_packet(hm, d.W, np.zeros(4))
        else:
            assert sp.exhaustive_l0_packet(hm, d.W, np.zeros(4)).sparsity == 0


def test_exhaustive_single_column_case(cessna_design, cessna_horizon):
    # a state proportional to what one column can reach is feasible at k = 1
    d, hm = cessna_design, cessna_horizon
    u = np.zeros(10)
    u[3] = 1.0
    # pick x so that Hx = G u exactly: solve H x = G[:, 3] in least squares,
    # then verify the residual actually meets the budget before asserting.
    x, *_ = np.linalg.lstsq(hm.H, hm.G @ u, rcond=None)
    if sp.check_feasible(hm, d.W, u, x).feasible:
        pkt = sp.exhaustive_l0_packet(hm, d.W, x)
        assert pkt.sparsity <= 1


def test_least_squares_packet_examples(cessna, cessna_design, cessna_horizon, rng):
    d, hm = cessna_design, cessna_horizon
    assert sp.least_squares_packet(hm, np.zeros(4)).sparsity == 0
    hm1 = sp.build_horizon(cessna, d.Q, d.P, 1)
    x = rng.standard_normal(4)
    pkt1 = sp.least_squares_packet(hm1, x)
    want = float(hm1.G[:, 0] @ (hm1.H @ x)) / float(hm1.G[:, 0] @ hm1.G[:, 0])
    assert np.isclose(pkt1.u[0], want, rtol=1e-10)
    for _ in range(10):
        x = rng.standard_normal(4)
        pkt = sp.least_squares_packet(hm, x)
        assert np.isclose(sp.cost_quadratic(hm, pkt.u, x),
                          float(x @ d.Wstar @ x), rtol=1e-6, atol=1e-9)


def test_l2_packet_limits(cessna_horizon, rng):
    hm = cessna_horizon
    x = rng.standard_normal(4)
    ls = sp.least_squares_packet(hm, x)
    near = sp.l2_packet(hm, x, 1e-12)
    scale = max(1.0, float(np.max(np.abs(ls.u))))
    assert np.allclose(near.u, ls.u, rtol=1e-6, atol=1e-6 * scale)
    huge = sp.l2_packet(hm, x, 1e12)
    assert np.max(np.abs(huge.u)) <= 1e-3 * scale
    assert sp.l2_packet(hm, x, 3.1e2).sparsity == 10
    with pytest.raises(ConfigError):
        sp.l2_packet(hm, x, 0.0)


def test_l1l2_zero_condition(cessna_horizon, rng):
    hm = cessna_horizon
    for _ in range(10):
        x = rng.standard_normal(4)
        thr = float(np.max(np.abs(hm.GtH @ x)))
        pkt = sp.l1l2_packet(hm, x, 1.001 * thr)
        assert pkt.sparsity == 0
        assert np.all(pkt.u == 0.0)


def test_l1l2_small_penalty_matches_least_squares(cessna_horizon, rng):
    # limit behavior: at a vanishing penalty the path ends on the full
    # support, where the packet is the least-squares one
    hm = cessna_horizon
    x = rng.standard_normal(4)
    ls = sp.least_squares_packet(hm, x)
    pkt = sp.l1l2_packet(hm, x, 1e-12)
    scale = max(1.0, float(np.max(np.abs(ls.u))))
    assert np.allclose(pkt.u, ls.u, rtol=1e-5, atol=1e-5 * scale)


def test_l1l2_objective_dominance(cessna_horizon, rng):
    # the KKT conditions certify the packet optimal, so its objective is
    # at most that of the zero and the least-squares packets
    hm = cessna_horizon

    def objective(u, x, nu1):
        return nu1 * float(np.sum(np.abs(u))) + 0.5 * sp.cost_quadratic(hm, u, x)

    for nu1 in (5.3, 5.3e3):
        for _ in range(10):
            x = rng.standard_normal(4)
            pkt = sp.l1l2_packet(hm, x, nu1)
            assert lasso_kkt_violation(hm, x, pkt.u, nu1) <= 1e-9
            assert pkt.solver_iters >= pkt.sparsity
            ls = sp.least_squares_packet(hm, x)
            got = objective(pkt.u, x, nu1)
            assert got <= objective(np.zeros(10), x, nu1) + 1e-9
            assert got <= objective(ls.u, x, nu1) + 1e-9


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), s=st.floats(-2.0, 0.5),
       nu1=st.sampled_from([1.0, 5.3, 1e2, 1e3, 5.3e3, 1e4]))
def test_l1l2_meets_kkt_across_scales(cessna_horizon, seed, s, nu1):
    hm = cessna_horizon
    x = np.random.default_rng(seed).standard_normal(4) * 10.0**s
    pkt = sp.l1l2_packet(hm, x, nu1)
    assert lasso_kkt_violation(hm, x, pkt.u, nu1) <= 1e-9
    # the zero packet is optimal exactly when no correlation exceeds nu1
    assert (pkt.sparsity == 0) == (float(np.max(np.abs(hm.GtH @ x))) <= nu1)


def test_l1l2_long_paths_meet_kkt(cessna_horizon, rng):
    # tiny penalties walk the whole path down to the dense least-squares
    # end, through dozens of joins and leaves
    hm = cessna_horizon
    for nu1 in (1e-6, 1e-3):
        for _ in range(100):
            x = rng.standard_normal(4) * 10.0 ** rng.uniform(-2.0, 0.5)
            pkt = sp.l1l2_packet(hm, x, nu1)
            assert lasso_kkt_violation(hm, x, pkt.u, nu1) <= 1e-9


def test_l1l2_closed_loop_packets_meet_kkt():
    # every packet of a run shaped like the l1 sweep: 2 trials x 100 steps
    # at each nu1 of the grid 1e2 .. 1e4
    cfg = SimConfig(trials=2, steps=100, seed=1, controller="l1l2")
    setup = build_setup(cfg)
    for nu1 in (1e2, 1e3, 5.3e3, 1e4):
        rep = monte_carlo(replace(cfg, nu1=nu1), setup=setup)
        assert rep.failures == []
        for r in rep.results:
            for x, u in zip(r.states, r.packets):
                assert lasso_kkt_violation(setup.hm, x, u, nu1) <= 1e-9


def test_l1l2_warm_start_equals_the_cold_walk_bit_for_bit(monkeypatch):
    # every packet a 100 x 100 closed loop recorded, each solved with the
    # trial's previous packet as its guess, against a solve with no guess;
    # solver_iters tells a certified guess (1) from a miss (1 + the walk).
    # The loop solves a block of rows at a time, so each row's own count is
    # that of the row solved alone, and the block's is their total
    import sparseppc.sim as sim_mod

    real = sim_mod.l1l2_packet
    guessed = []

    def recording(hm, X, nu1, guess=None):
        pkt = real(hm, X, nu1, guess=guess)
        total = 0
        for x, nu, g, u in zip(X, np.broadcast_to(nu1, len(X)), guess, pkt.u):
            iters = real(hm, x, nu, guess=g).solver_iters
            total += iters
            if np.any(g) and np.any(u):
                guessed.append(iters)
        assert pkt.solver_iters == total
        return pkt

    monkeypatch.setattr(sim_mod, "l1l2_packet", recording)
    cfg = SimConfig(trials=100, steps=100, seed=1, controller="l1l2")
    setup = build_setup(cfg)
    for nu1 in (1e2, 5.3e3):
        guessed.clear()
        rep = monte_carlo(replace(cfg, nu1=nu1), setup=setup)
        assert rep.failures == []
        for r in rep.results:
            for x, u in zip(r.states, r.packets):
                assert np.array_equal(u, sp.l1l2_packet(setup.hm, x, nu1).u), (nu1, r.trial)
        # the warm start does the work: most guesses are certified
        hits = np.mean(np.array(guessed) == 1)
        assert min(guessed) >= 1 and hits > 0.5, (nu1, hits)


def test_l1l2_closed_loop_packets_equal_the_reference_solver():
    # every state of l1 runs over the sweep grid, each solved with its
    # trial's previous packet as the guess, as the loop solved it
    cfg = SimConfig(trials=20, steps=100, seed=3, controller="l1l2")
    setup = build_setup(cfg)
    for nu1 in (1e2, 1e3, 5.3e3, 1e4):
        rep = monte_carlo(replace(cfg, nu1=nu1), setup=setup)
        assert rep.failures == []
        for r in rep.results:
            guess = None
            for x, u in zip(r.states, r.packets):
                got = sp.l1l2_packet(setup.hm, x, nu1, guess=guess)
                want = l1l2_reference(setup.hm, x, nu1, guess=guess)
                assert np.array_equal(got.u, want.u) and np.array_equal(got.u, u)
                assert got.solver_iters == want.solver_iters, (nu1, r.trial)
                guess = u
    # each support's gathers are kept read-only, and a replaced horizon starts without them
    gathers = setup.hm._l1_gathers
    assert gathers and not any(a.flags.writeable for entry in gathers.values() for a in entry)
    assert replace(setup.hm)._l1_gathers == {}


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), s=st.floats(-2.0, 0.5),
       nu1=st.sampled_from([1e-3, 1.0, 5.3, 1e2, 1e3, 5.3e3, 1e4]))
def test_l1l2_equals_the_reference_solver_for_any_guess(cessna_horizon, seed, s, nu1):
    hm = cessna_horizon
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(4) * 10.0**s
    cold = l1l2_reference(hm, x, nu1).u
    superset, subset = cold.copy(), cold.copy()
    superset[cold == 0.0] = 1.0
    subset[np.flatnonzero(cold)[:1]] = 0.0
    for guess in (None, cold, -cold, superset, subset):
        got = sp.l1l2_packet(hm, x, nu1, guess=guess)
        want = l1l2_reference(hm, x, nu1, guess=guess)
        assert np.array_equal(got.u, want.u) and got.solver_iters == want.solver_iters


def _l1_cases(cessna_horizon, rng):
    """(horizon, states, nu1 grid) on the cessna closed loop and on random
    n = 9 and n = 12 plants; each grid holds a duplicate value."""
    cases = [(cessna_horizon, _closed_loop_states(controller="l1l2", nu1=1e2, trials=3),
              [1e-3, 5.3, 1e2, 1e3, 5.3e3, 5.3e3, 1e4])]
    for n in (9, 12):
        hm = sp.build_horizon(random_reachable(rng, n, n), np.eye(n), np.eye(n), 10)
        X = rng.standard_normal((100, n)) * 10.0 ** rng.uniform(-3, 3, (100, 1))
        # values among the rows' own thresholds ||G'Hx||_inf, so that some
        # rows get the zero packet and others walk far down the path
        lam0 = np.abs(_row_products(hm.GtH, X)).max(axis=1)
        cases.append((hm, X, np.quantile(lam0, [0.01, 0.1, 0.3, 0.3, 0.6, 0.9]).tolist()))
    return cases


@pytest.mark.parametrize("B", [1, 8, 50])
def test_l1l2_block_equals_the_reference(cessna_horizon, rng, B):
    # each row gets a nu1 drawn from its grid and one guess: none, its own
    # packet (certified), another row's packet (stale: wrong support or
    # signs) or its own packet negated; blocks of B rows must give every
    # row the reference's packet bit for bit, and their rows' total of
    # solver_iters. B = 1 is the single-state call. shared counts the rows
    # whose guess shares its sign pattern with a row of another nu1 in the
    # block, so that one solve serves rows of different values
    kinds, shared = Counter(), 0
    for hm, X, grid in _l1_cases(cessna_horizon, rng):
        nu1 = rng.choice(grid, len(X))
        cold = np.array([l1l2_reference(hm, x, nu).u for x, nu in zip(X, nu1)])
        kind = rng.integers(0, 4, len(X))
        guesses = np.where((kind == 0)[:, None], 0.0, cold)
        guesses[kind == 2] = cold[rng.permutation(len(X))][kind == 2]
        guesses[kind == 3] *= -1.0
        for at in np.array_split(np.arange(len(X)), -(-len(X) // B)):
            if B == 1:
                [r] = at
                pkt = sp.l1l2_packet(hm, X[r], nu1[r], guess=guesses[r])
                assert pkt.u.shape == (hm.N,)
            else:
                pkt = sp.l1l2_packet(hm, X[at], nu1[at], guess=guesses[at])
                assert pkt.u.shape == (len(at), hm.N)
            total = 0
            for u, r in zip(pkt.u.reshape(-1, hm.N), at):
                want = l1l2_reference(hm, X[r], nu1[r], guess=guesses[r])
                assert u.tobytes() == want.u.tobytes(), (r, nu1[r], guesses[r])
                total += want.solver_iters
                tried = guesses[r].any() and want.solver_iters > 0
                kinds["zero" if want.solver_iters == 0 else "certified"
                      if tried and want.solver_iters == 1 else "missed" if tried else "cold"] += 1
            assert pkt.solver_iters == total
            patterns = {}
            for r in at:
                if guesses[r].any() and np.abs(hm.GtH @ X[r]).max() > nu1[r]:
                    patterns.setdefault(np.sign(guesses[r]).tobytes(), set()).add(nu1[r])
            shared += sum(len(values) for values in patterns.values() if len(values) > 1)
    assert min(kinds.values()) >= 20 and len(kinds) == 4, kinds
    assert (shared > 0) == (B > 1), shared


def test_l1_block_products_equal_each_rows_own(cessna_horizon, rng):
    # the stacked products of the l1 block solve, and its broadcast solve
    # with (g, k, 2) right-hand sides, give each row the bits of that row's
    # own call, as the walk makes it, at n = 4, 9 and 12
    for hm, X, grid in _l1_cases(cessna_horizon, rng):
        X = X[:60]
        B, HX = _row_products(hm.GtH, X), _row_products(hm.H, X)
        for r, x in enumerate(X):
            assert B[r].tobytes() == (hm.GtH @ x).tobytes()
            assert HX[r].tobytes() == (hm.H @ x).tobytes()
        for mask in {int(m) for m in rng.integers(1, 2**hm.N, 12)} | {1, 2**hm.N - 1}:
            S, GtG_SS, G_S, _ = _l1_gathers(hm, mask)
            s_S = rng.choice([-1.0, 1.0], S.size)
            lam = rng.choice(grid, len(X))
            rhs = np.empty((len(X), S.size, 2))
            rhs[..., 0] = s_S
            rhs[..., 1] = B[:, S] - lam[:, None] * s_S
            sol = np.linalg.solve(GtG_SS, rhs)
            U = sol[..., 1]
            C = _row_products(hm.G.T, HX - _row_products(G_S, U))
            for r in range(len(X)):
                d, u_S = np.linalg.solve(GtG_SS, np.array((s_S, B[r, S] - lam[r] * s_S)).T).T
                assert sol[r].tobytes() == np.linalg.solve(GtG_SS, rhs[r]).tobytes()
                assert sol[r, :, 0].tobytes() == d.tobytes() and U[r].tobytes() == u_S.tobytes()
                assert C[r].tobytes() == (hm.G.T @ (HX[r] - G_S @ u_S)).tobytes(), (mask, r)


def test_l1l2_guess_that_misses_falls_back_to_the_walk(cessna_horizon, rng):
    hm = cessna_horizon
    nu1 = 5.3
    checked = 0
    for _ in range(20):
        x = rng.standard_normal(4)
        cold = sp.l1l2_packet(hm, x, nu1)
        off = np.flatnonzero(cold.u == 0.0)
        if cold.sparsity == 0 or off.size == 0:
            continue
        superset = cold.u.copy()
        superset[off[0]] = 1.0
        wrong = {"flipped signs": -cold.u, "strict superset": superset}
        for name, guess in wrong.items():
            pkt = sp.l1l2_packet(hm, x, nu1, guess=guess)
            assert np.array_equal(pkt.u, cold.u), name
            assert pkt.solver_iters == 1 + cold.solver_iters, name
        # the all-zeros guess is no guess
        pkt = sp.l1l2_packet(hm, x, nu1, guess=np.zeros(10))
        assert np.array_equal(pkt.u, cold.u) and pkt.solver_iters == cold.solver_iters
        # the packet's own signs are certified at once, whatever the magnitudes
        for guess in (cold.u, 3.0 * cold.u):
            pkt = sp.l1l2_packet(hm, x, nu1, guess=guess)
            assert np.array_equal(pkt.u, cold.u) and pkt.solver_iters == 1
        # a state whose packet is zero ignores any guess
        small = x * 0.999 * nu1 / float(np.max(np.abs(hm.GtH @ x)))
        pkt = sp.l1l2_packet(hm, small, nu1, guess=cold.u)
        assert pkt.sparsity == 0 and pkt.solver_iters == 0
        checked += 1
    assert checked >= 5


def test_l1l2_guess_whose_solve_fails_falls_back_to_the_walk(cessna_horizon, rng,
                                                              monkeypatch):
    # the first solve (the guess's) raises; the walk then runs as if cold
    hm = cessna_horizon
    x = rng.standard_normal(4)
    cold = sp.l1l2_packet(hm, x, 5.3)
    real = np.linalg.solve
    calls = []

    def first_fails(A, B):
        calls.append(len(A))
        if len(calls) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return real(A, B)

    monkeypatch.setattr(np.linalg, "solve", first_fails)
    pkt = sp.l1l2_packet(hm, x, 5.3, guess=cold.u)
    assert np.array_equal(pkt.u, cold.u)
    assert pkt.solver_iters == 1 + cold.solver_iters


def test_l1l2_never_returns_a_packet_that_misses_kkt(cessna_horizon, rng, monkeypatch):
    # a solve that is off by 1e-6 relative leaves the correlations on the
    # support off by far more than the 1e-9 certificate allows
    real = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda A, B: real(A, B) * (1.0 + 1e-6))
    with pytest.raises(SolverFailureError, match="KKT"):
        sp.l1l2_packet(cessna_horizon, rng.standard_normal(4), 5.3)


def test_l1l2_failed_active_set_solve_raises_solver_failure(cessna_horizon, rng,
                                                            monkeypatch):
    def singular(*_a):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(SolverFailureError, match="active-set solve failed"):
        sp.l1l2_packet(cessna_horizon, rng.standard_normal(4), 5.3)


@pytest.mark.parametrize("solve,x", [
    (lambda hm, W, x: sp.l1l2_packet(hm, x, 5.3), [np.nan, 0.0, 0.0, 0.0]),
    (lambda hm, W, x: sp.omp_packet(hm, W, x), [np.nan, 0.0, 0.0, 0.0]),
    (lambda hm, W, x: sp.omp_packet(hm, W, x), [1e200, 1e200, 0.0, 0.0]),
    (lambda hm, W, x: sp.omp_packet(hm, W, x), [[1.0, 0.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 0.0]]),
    (lambda hm, W, x: sp.exhaustive_l0_packet(hm, W, x), [np.nan, 0.0, 0.0, 0.0]),
], ids=["l1l2-nan", "omp-nan", "omp-overflow", "omp-block-nan", "oracle-nan"])
def test_solvers_refuse_a_non_finite_state(cessna_design, cessna_horizon, solve, x):
    # NaN reads as "below nu1" or "within budget", and an overflowed x'Wx
    # as a budget no residual exceeds: each would return a wrong packet
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericError, match="state is not finite"):
        solve(cessna_horizon, cessna_design.W, np.array(x))


# each solver as solve(hm, W, X, nu, guess); nu and guess reach the solvers that take them
CONTRACT = {
    "omp": lambda hm, W, X, nu, guess: sp.omp_packet(hm, W, X),
    "oracle": lambda hm, W, X, nu, guess: sp.exhaustive_l0_packet(hm, W, X),
    "least_squares": lambda hm, W, X, nu, guess: sp.least_squares_packet(hm, X),
    "l2": lambda hm, W, X, nu, guess: sp.l2_packet(hm, X, nu),
    "l1l2": lambda hm, W, X, nu, guess: sp.l1l2_packet(hm, X, nu, guess=guess),
}


@pytest.mark.parametrize("name", list(CONTRACT))
def test_solvers_take_one_input_form_and_refuse_any_other(cessna_design, cessna_horizon, rng,
                                                          monkeypatch, name):
    # a state (n,) or a block (b, n) of numbers, nu one positive number or
    # one per row, a guess shaped like the packets; anything else raises
    # ConfigError before a support node is built or a budget computed
    import sparseppc.controllers as ctl

    solve, hm, W = CONTRACT[name], replace(cessna_horizon), cessna_design.W
    calls = Counter()

    def counted(fn, real):
        def call(*args):
            calls[fn] += 1
            return real(*args)
        return call

    for fn in ("_support_node", "budget_for"):
        monkeypatch.setattr(ctl, fn, counted(fn, getattr(ctl, fn)))
    X = rng.standard_normal((5, 4))
    for bad in (np.ones(8), np.ones(3), np.ones((2, 8)), np.ones((2, 2, 4)), np.ones((0, 4)),
                1.0, ["a"] * 4, [1, 2, 3, 4j], [[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0]],
                [True] * 4):
        with pytest.raises(ConfigError, match="^x must"):
            solve(hm, W, bad, 310.0, None)
    if name in ("l2", "l1l2"):
        arg = {"l2": "nu2", "l1l2": "nu1"}[name]
        for bad in (np.full(4, 310.0), np.full(1, 310.0), np.full(6, 310.0),
                    np.full((5, 1), 310.0), "a", True, 0.0, -1.0, np.nan,
                    [310.0] * 4 + [0.0], [310.0] * 4 + [np.nan]):
            with pytest.raises(ConfigError, match=f"^{arg} must"):
                solve(hm, W, X, bad, None)
        with pytest.raises(ConfigError, match=f"{arg} must be positive, got -1.0"):
            solve(hm, W, X, np.array([310.0, -1.0, 310.0, 310.0, 310.0]), None)
    if name == "l1l2":
        for bad in (np.zeros(10), np.zeros((5, 9)), np.zeros((4, 10)), np.zeros((5, 10, 1)),
                    [["a"] * 10] * 5):
            with pytest.raises(ConfigError, match="^guess must"):
                solve(hm, W, X, 310.0, bad)
        with pytest.raises(ConfigError, match="^guess must"):
            solve(hm, W, X[0], 310.0, np.zeros((1, 10)))
    assert calls == Counter()
    assert hm._omp_nodes.count == 0 and hm._l2_gains == {} and hm._l1_gathers == {}
    # one state gives the (N,) packet and a block the (b, N) packets, each
    # row with the bits of its own solve; one state with its (1,) nu is
    # the one-value call
    one, block = solve(hm, W, X[0], 310.0, None), solve(hm, W, X, 310.0, None)
    assert one.u.shape == (hm.N,) and block.u.shape == (5, hm.N)
    assert one.u.tobytes() == block.u[0].tobytes()
    assert solve(hm, W, X[0].tolist(), 310.0, None).u.tobytes() == one.u.tobytes()
    if name in ("l2", "l1l2"):
        row = solve(hm, W, X[0], np.array([310.0]), None)
        assert row.u.shape == (hm.N,) and row.u.tobytes() == one.u.tobytes()


def test_check_feasible_takes_one_state_and_its_packet(cessna_design, cessna_horizon):
    hm, W = cessna_horizon, cessna_design.W
    for u, x in ((np.zeros(9), np.zeros(4)), (np.zeros((1, 10)), np.zeros(4)),
                 (np.zeros(10), np.zeros(8)), (np.zeros(10), np.zeros((1, 4))),
                 (np.zeros(10), np.zeros((2, 4))), (["a"] * 10, np.zeros(4)),
                 (np.zeros(10), ["a"] * 4)):
        with pytest.raises(ConfigError):
            sp.check_feasible(hm, W, u, x)


def test_l1l2_rejects_bad_penalty(cessna_horizon):
    with pytest.raises(ConfigError):
        sp.l1l2_packet(cessna_horizon, np.zeros(4), 0.0)


def test_omp_budget_below_least_squares_cost_raises(cessna_design, cessna_horizon, rng):
    # a budget strictly under the unconstrained optimum is infeasible even
    # at full support; the solver must say so with the numbers attached
    from sparseppc.errors import FeasibilityError

    d, hm = cessna_design, cessna_horizon
    x = rng.standard_normal(4)
    with pytest.raises(FeasibilityError) as exc_info:
        sp.omp_packet(hm, 0.99 * d.Wstar, x)
    assert exc_info.value.residual_sq > exc_info.value.budget > 0.0


def test_packet_sparsity_counts_exact_zeros(cessna_design, cessna_horizon, rng):
    d, hm = cessna_design, cessna_horizon
    x = rng.standard_normal(4)
    pkt = sp.omp_packet(hm, d.W, x)
    assert pkt.sparsity == int(np.count_nonzero(pkt.u))
    # -0.0 is an exact zero; NaN is not
    assert ControlPacket(np.array([0.0, -0.0, np.nan, 1e-300]), solver_iters=0).sparsity == 2


def test_packet_holds_only_its_inputs_and_iteration_count():
    assert [f.name for f in fields(ControlPacket)] == ["u", "solver_iters"]
    pkt = ControlPacket(np.zeros(3), solver_iters=4)
    assert pkt.converged is True and ControlPacket.converged is True
    for extra in ({"converged": False}, {"sparsity": 0}, {"solve_seconds": 0.0}):
        with pytest.raises(TypeError):
            ControlPacket(np.zeros(3), solver_iters=4, **extra)
