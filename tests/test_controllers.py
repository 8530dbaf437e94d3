import math
import warnings
from collections import Counter
from dataclasses import fields, replace
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sparseppc as sp
from sparseppc.controllers import (FEASIBILITY_SLACK, OMP_PREFIX, ORACLE_CAP, ControlPacket,
                                   SupportNodes, _columns, _kkt_gap_floats, _kkt_gaps,
                                   _l1_gathers, _l1_ratios, _node_products, _row_products,
                                   _support_lsq, _support_node, budget_for)
from sparseppc.errors import (ConfigError, FeasibilityError, NumericError, SolverFailureError,
                              SparsePpcError)
from sparseppc.sim import SimConfig, build_setup, monte_carlo

from .oracles import (_kkt_gap, exhaustive_reference, l1l2_reference, l2_reference,
                      lasso_kkt_violation, least_squares_reference, omp_node_reference,
                      omp_reference, random_reachable, random_spd, receding_guess)

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


@pytest.mark.parametrize("k", [495, 500, 505, 1022])
def test_omp_and_exhaustive_refuse_an_overflowing_state_without_a_warning(
        cessna_design, cessna_horizon, k):
    # (C x)_j^2 overflows for k >= 495, x'Mx and ||Hx||^2 at 505, x'Wx only at 507:
    # the oracle refuses from 505 on; OMP solves 2^-e x and returns 2^e times
    # its packet, refused only where that packet overflows (its 5.93 at 2^1022)
    d, hm = cessna_design, cessna_horizon
    x = np.array([1.0, -1.0, 1.0, 0.0])
    omp = _scaled_or_refused(lambda y: sp.omp_packet(hm, d.W, y), x, k)
    assert (omp is None) == (k == 1022)
    assert omp is None or _is_scaled(omp, sp.omp_packet(hm, d.W, x), k)
    oracle = _scaled_or_refused(lambda y: sp.exhaustive_l0_packet(hm, d.W, y), x, k)
    assert (oracle is None) == (k >= 505)
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


def _nodes(hm):
    """hm's OMP support-node table, or an empty one if no solve has made it."""
    return hm._cache.get("omp", SupportNodes(hm.N, hm.n))


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
    return np.concatenate(rep.records.states)


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
    assert len(_nodes(hm).masks) > OMP_PREFIX


def test_omp_equals_the_per_node_walk_past_the_prefix(cessna):
    # at N = 30 the table outgrows the prefix many times over, and many
    # walks end on a node past it
    d = sp.build_design(cessna, N=30)
    hm, ops = sp.build_horizon(cessna, d.Q, d.P, d.N), {}
    past = 0
    for x in _closed_loop_states(N=30, trials=10):
        pkt = _assert_walk_bits(hm, d.W, x, ops)
        mask = sum(1 << int(j) for j in np.flatnonzero(pkt.u))
        past += _nodes(hm).index[mask] >= OMP_PREFIX
    assert len(_nodes(hm).masks) > 4 * OMP_PREFIX and past > 100


def test_omp_all_zero_scores_pick_the_smallest_unselected_column(cessna_horizon):
    # G's columns are unit vectors and H x = 2 g_0 + e_N: after g_0 the
    # residual e_N is orthogonal to every column, so every score is exactly
    # 0, selected ones included, and the walk must go on in index order
    # until the full support still misses the zero budget; the first solve
    # builds the nodes, the second walks them again: at N = 10 all inside
    # the prefix, at N = 30 the last N + 1 - OMP_PREFIX of them past it
    x, W = np.eye(4)[0], np.zeros((4, 4))
    for N in (10, 30):
        G, H = np.eye(4 * N, N), np.zeros((4 * N, 4))
        H[0, 0], H[N, 0] = 2.0, 1.0
        hm = replace(cessna_horizon, N=N, G=G, H=H, col_norm_sq=np.ones(N))
        for solve in (sp.omp_packet, sp.omp_packet, omp_node_reference):
            with pytest.raises(FeasibilityError) as err:
                solve(hm, W, x)
            assert err.value.residual_sq == 1.0
        assert _nodes(hm).masks == [(1 << k) - 1 for k in range(N + 1)]
        assert (len(_nodes(hm).masks) > OMP_PREFIX) == (N == 30)


def _node_table(hm, rng, count):
    """hm's table with the empty support and count - 1 random ones."""
    _support_node(hm, 0)
    while len(_nodes(hm).masks) < count:
        _support_node(hm, int(rng.integers(1, 2**hm.N)))
    return _nodes(hm)


def test_node_products_equal_each_nodes_own_products(cessna_design, cessna_horizon, rng):
    # whether a node is inside the prefix depends on the table's history, and
    # how many rows a block holds on the run, so the block products must have
    # the bits of each row's and node's own: on the cessna table a closed
    # loop builds, and on random n = 9 and n = 12 plants, where a single
    # product over all rows of the stacked C or M does not
    hm = replace(cessna_horizon)
    states = _closed_loop_states(trials=5)
    sp.omp_packet(hm, cessna_design.W, states)
    tables = [(_nodes(hm), cessna_design.W, states)]
    for n in (9, 12):
        m = random_reachable(rng, n, n)
        tables.append((_node_table(sp.build_horizon(m, np.eye(n), np.eye(n), 10), rng, 60),
                       random_spd(rng, n),
                       rng.standard_normal((100, n)) * 10.0 ** rng.uniform(-3, 3, (100, 1))))
    for nodes, W, X in tables:
        count = len(nodes.masks)
        assert count > OMP_PREFIX
        for B in (1, 5, 50):
            for block in np.array_split(X, -(-len(X) // B)):
                budgets = budget_for(W, block)
                c, q = _node_products(nodes, count, block)
                assert c.shape == (len(block), count, nodes.C.shape[1])
                assert budgets.shape == (len(block),) and q.shape == c.shape[:2]
                for r, x in enumerate(block):
                    assert budgets[r].tobytes() == (x @ W @ x).tobytes()
                    for i in range(count):
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
        assert len(_nodes(hm).masks) > OMP_PREFIX
    d = sp.build_design(cessna, N=30)
    hm = sp.build_horizon(cessna, d.Q, d.P, d.N)
    packets = _assert_block_bits(hm, d.W, _closed_loop_states(N=30, trials=3), B, {})
    ends = [_nodes(hm).index[sum(1 << int(j) for j in np.flatnonzero(u))] for u in packets]
    assert len(_nodes(hm).masks) > 4 * OMP_PREFIX and sum(i >= OMP_PREFIX for i in ends) > 30


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
    assert _nodes(hm).masks == [0] and _nodes(hm).index == {0: 0}


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
    # a failed build adds no node and no index entry: only the empty
    # support, which needs no solve, is kept, and the horizon then solves as
    # an untouched one does
    assert _nodes(hm).masks == [0] and _nodes(hm).index == {0: 0}
    monkeypatch.setattr(np.linalg, "solve", real)
    got = sp.omp_packet(hm, d.W, x)
    want = sp.omp_packet(replace(cessna_horizon), d.W, x)
    assert np.array_equal(got.u, want.u) and got.solver_iters == want.solver_iters


def test_omp_packet_does_not_depend_on_cache_history(cessna_design, cessna_horizon, rng):
    # a cold horizon builds each support from the state in hand; a warm one
    # reuses operators that earlier states built; the packets are the same
    d, warm = cessna_design, replace(cessna_horizon)
    assert warm._cache == {}
    for _ in range(300):
        sp.omp_packet(warm, d.W, rng.standard_normal(4) * 10.0 ** rng.uniform(-2.0, 0.5))
    for _ in range(50):
        x = rng.standard_normal(4)
        cold = sp.omp_packet(replace(cessna_horizon), d.W, x)
        hot = sp.omp_packet(warm, d.W, x)
        assert np.array_equal(cold.u, hot.u) and cold.solver_iters == hot.solver_iters
    assert 1 < len(_nodes(warm).masks) <= 2**warm.N
    _assert_table_layout(warm)
    assert replace(warm)._cache == {}


def _assert_table_layout(hm):
    """hm's table: index and masks are inverses, w[i] is col_norm_sq with
    +inf exactly on mask i's bits, and every K is read-only and zero off
    them."""
    nodes = _nodes(hm)
    assert sorted(nodes.index.values()) == list(range(len(nodes.masks)))
    assert all(nodes.masks[i] == mask for mask, i in nodes.index.items())
    assert all(nodes.index[mask] == i for i, mask in enumerate(nodes.masks))
    assert len(nodes.K) == len(nodes.masks) <= len(nodes.C) == len(nodes.M) == len(nodes.w)
    for i, mask in enumerate(nodes.masks):
        on = np.array([mask >> j & 1 for j in range(hm.N)], dtype=bool)
        assert np.array_equal(_columns(mask), np.flatnonzero(on))
        assert nodes.w[i].tobytes() == np.where(on, np.inf, hm.col_norm_sq).tobytes()
        assert not nodes.K[i].flags.writeable and not nodes.K[i][~on].any()


def test_table_layout_holds_past_63_columns(cessna, rng):
    # masks are Python ints, so a support may hold columns past bit 63: at
    # N = 70, random supports over all 70 columns, and OMP walks whose
    # budget (a heavy terminal weight, just above the full support's cost)
    # takes them to column 69, build nodes whose columns, weights and K rows
    # come from the whole mask
    hm = sp.build_horizon(cessna, np.eye(4), 1e6 * np.eye(4), 70)
    masks = [0, 1 << 69, (1 << 70) - 1] + [int(m) << 8 for m in rng.integers(1, 2**62, 20)]
    for mask in masks:
        _support_node(hm, mask)
    X = rng.standard_normal((3, 4))
    E = hm.H - hm.G @ np.linalg.lstsq(hm.G, hm.H, rcond=None)[0]
    W = E.T @ E + 1e-10 * (hm.H.T @ hm.H - E.T @ E)
    pkt = sp.omp_packet(hm, W, X)
    for u, x in zip(pkt.u, X):
        want, _ = omp_node_reference(hm, W, x)
        assert u.tobytes() == want.tobytes()
        assert np.flatnonzero(u).max() > 63
    _assert_table_layout(hm)


def test_exhaustive_singular_support_raises_solver_failure(cessna_design, cessna_horizon, rng):
    hm = _with_bad_column(cessna_horizon, 0.0)
    with pytest.raises(SolverFailureError, match="support \\(0,\\)"):
        sp.exhaustive_l0_packet(hm, cessna_design.W, rng.standard_normal(4))


def test_l2_singular_system_raises_solver_failure(cessna_horizon, rng):
    hm = replace(cessna_horizon, GtG=-np.eye(10))
    with pytest.raises(SolverFailureError):
        sp.l2_packet(hm, rng.standard_normal(4), 1.0)
    assert hm._cache.get("l2", {}) == {}   # a failed build keeps nothing


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
    assert hm._cache == {}
    x = rng.standard_normal(4)
    packets = {nu2: sp.l2_packet(hm, x, nu2).u for nu2 in (1.0, 3.1e2)}
    assert set(hm._cache["l2"]) == {1.0, 3.1e2}
    assert not np.allclose(packets[1.0], packets[3.1e2])
    for nu2, u in packets.items():
        # the same as on a horizon that has never seen the other nu2
        assert np.array_equal(sp.l2_packet(replace(cessna_horizon), x, nu2).u, u)
        assert np.array_equal(sp.l2_packet(hm, x, nu2).u, u)
    assert not any(K.flags.writeable for K in hm._cache["l2"].values())
    assert replace(hm)._cache == {}


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
    assert set(hm._cache["l2"]) == set(grid.tolist())
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
    assert _nodes(hm).masks == [(1 << hm.N) - 1]
    assert np.array_equal(u, _nodes(hm).K[0].dot(x))


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
        nodes = _nodes(hm)
        cached = nodes.K + [nodes.C, nodes.M, nodes.w]
        cached += [a for entry in hm._cache.get("l1", {}).values() for a in entry]
        cached += list(hm._cache.get("l2", {}).values())
        cached += [hm.G, hm.H, hm.GtG, hm.GtH, hm.col_norm_sq]
        if before is not None:
            cached.append(before.u)
        assert not any(np.shares_memory(pkt.u, a) for a in cached)
        before = pkt
        x = 0.5 * x + rng.standard_normal(4)


ZERO_ROWS = [1, 3, 4]    # zero states between nonzero ones, in a block of 7 rows


@pytest.mark.parametrize("name", ["omp", "oracle", "least_squares", "l2", "l2_per_row",
                                  "l1l2", "l1l2_guess"])
def test_zero_rows_change_no_other_row_and_no_cache(cessna_design, cessna_horizon, rng, name):
    # the engine rests a failed row at x = 0 in every later block: each
    # solver gives a zero row the zero packet with no pick, walk or cache
    # entry, and every other row the bits and solver_iters of the block
    # without the zero rows. A resting row keeps its nu2, so one zero row
    # holds a value that no nonzero row holds: its gain is never built
    W = cessna_design.W
    X = 2.0 * rng.standard_normal((7, 4))
    X[ZERO_ROWS] = 0.0
    nu = np.array([31.0, 310.0, 3100.0, 31.0, 1e4, 310.0, 3100.0])
    # l1l2 guesses: a zero row's is another row's packet, a nonzero row's its own or another's
    guess = sp.l1l2_packet(cessna_horizon, X, 5.3).u[[0, 0, 5, 6, 2, 5, 0]]
    solve = {
        "omp": lambda hm, rows: sp.omp_packet(hm, W, X[rows]),
        "oracle": lambda hm, rows: sp.exhaustive_l0_packet(hm, W, X[rows]),
        "least_squares": lambda hm, rows: sp.least_squares_packet(hm, X[rows]),
        "l2": lambda hm, rows: sp.l2_packet(hm, X[rows], 310.0),
        "l2_per_row": lambda hm, rows: sp.l2_packet(hm, X[rows], nu[rows]),
        "l1l2": lambda hm, rows: sp.l1l2_packet(hm, X[rows], 5.3),
        "l1l2_guess": lambda hm, rows: sp.l1l2_packet(hm, X[rows], 5.3, guess=guess[rows]),
    }[name]
    assert guess[ZERO_ROWS].any(axis=1).all()
    rows = [r for r in range(7) if r not in ZERO_ROWS]
    full_hm, part_hm = replace(cessna_horizon), replace(cessna_horizon)
    full, part = solve(full_hm, np.arange(7)), solve(part_hm, rows)
    assert np.count_nonzero(full.u[ZERO_ROWS]) == 0
    assert part.u.any(axis=1).all()
    assert full.u[rows].tobytes() == part.u.tobytes()
    assert full.solver_iters == part.solver_iters
    assert _nodes(full_hm).masks == _nodes(part_hm).masks
    for solver in ("l1", "l2"):
        assert full_hm._cache.get(solver, {}).keys() == part_hm._cache.get(solver, {}).keys()
    if name == "l2_per_row":
        # a zero row's packet has the bits of K 0 with its own value's gain,
        # each zero's sign included
        gain_hm = replace(cessna_horizon)
        for r in ZERO_ROWS:
            assert full.u[r].tobytes() == sp.l2_packet(gain_hm, X[r], float(nu[r])).u.tobytes()


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
        for r in rep.records.rows():
            for x, u in zip(r.states, r.packets):
                assert lasso_kkt_violation(setup.hm, x, u, nu1) <= 1e-9


def test_l1l2_warm_start_equals_the_cold_walk_bit_for_bit(monkeypatch):
    # every packet a 100 x 100 closed loop recorded, each solved with the
    # guess the loop made from the trial's previous packet, against a solve
    # with no guess;
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
        for r in rep.records.rows():
            for x, u in zip(r.states, r.packets):
                assert np.array_equal(u, sp.l1l2_packet(setup.hm, x, nu1).u), (nu1, r.trial)
        # the warm start does the work: most guesses are certified
        hits = np.mean(np.array(guessed) == 1)
        assert min(guessed) >= 1 and hits > 0.5, (nu1, hits)


def test_l1l2_closed_loop_packets_equal_the_reference_solver():
    # every state of l1 runs over the sweep grid, each solved with the
    # receding_guess of its trial's previous packet, as the loop solved it
    cfg = SimConfig(trials=20, steps=100, seed=3, controller="l1l2")
    setup = build_setup(cfg)
    for nu1 in (1e2, 1e3, 5.3e3, 1e4):
        rep = monte_carlo(replace(cfg, nu1=nu1), setup=setup)
        assert rep.failures == []
        for r in rep.records.rows():
            guess = None
            for x, u in zip(r.states, r.packets):
                got = sp.l1l2_packet(setup.hm, x, nu1, guess=guess)
                want = l1l2_reference(setup.hm, x, nu1, guess=guess)
                assert np.array_equal(got.u, want.u) and np.array_equal(got.u, u)
                assert got.solver_iters == want.solver_iters, (nu1, r.trial)
                guess = receding_guess(u)
    # each support's gathers are kept read-only, and a replaced horizon starts without them
    gathers = setup.hm._cache["l1"]
    assert gathers and not any(a.flags.writeable for entry in gathers.values() for a in entry)
    assert replace(setup.hm)._cache == {}


def _l1_outcome(solve, hm, x, nu1, guess=None):
    """A solve's packet bytes and solver_iters, or its error's type and message."""
    try:
        pkt = solve(hm, x, nu1, guess=guess)
    except SparsePpcError as exc:
        return type(exc), str(exc)
    return pkt.u.tobytes(), pkt.solver_iters


def _l1_reference_block(hm, X, nu1, guess):
    """The reference's outcome of a block, as _l1_outcome gives the block's:
    its packet bytes and the rows' total of solver_iters, or the error of
    its first failing row."""
    reference = np.errstate(all="ignore")(l1l2_reference)
    ends = [_l1_outcome(reference, hm, x, nu, g) for x, nu, g in zip(X, nu1, guess)]
    failed = [end for end in ends if isinstance(end[0], type)]
    if failed:
        return failed[0]
    return b"".join(u for u, _ in ends), sum(iters for _, iters in ends)


@pytest.fixture(scope="module")
def l1_horizons(cessna_horizon):
    """The horizons of _l1_cases: cessna's, then the random n = 9 and n = 12 plants'."""
    return [hm for hm, _, _ in _l1_cases(cessna_horizon, np.random.default_rng(20240611))]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), plant=st.sampled_from([0, 1, 2]),
       s=st.one_of(st.floats(-2.0, 0.5), st.floats(306.0, 308.25)),
       nu1=st.sampled_from([1e-3, 1.0, 5.3, 1e2, 1e3, 5.3e3, 1e4]), scaled=st.booleans())
def test_l1l2_equals_the_reference_solver_for_any_guess(l1_horizons, seed, plant, s, nu1,
                                                        scaled):
    # s <= 0.5 scales a normal state by 10^s; s >= 306 scales it toward
    # overflow, to ||G'Hx||_inf = 10^s, where the walk down to nu1 (or to
    # 10^(s - 4) nu1, if scaled) meets correlations and coefficients, and
    # so ratio tests, that are inf or NaN, and some solves raise. Each
    # guess gives the reference's packet bytes and count, or its error's
    # type and message; the solver warns of no overflow, the reference may
    hm = l1_horizons[plant]
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(hm.n)
    if s >= 306.0:
        with np.errstate(over="ignore"):
            x = x / np.abs(hm.GtH @ x).max() * 10.0**s
        assume(np.isfinite(x).all())
        nu1 *= 10.0 ** (s - 4.0) if scaled else 1.0
    else:
        x *= 10.0**s
    guesses = [None, rng.standard_normal(hm.N) * (rng.random(hm.N) < 0.5)]
    reference = np.errstate(all="ignore")(l1l2_reference)
    try:
        cold = reference(hm, x, nu1).u
    except SparsePpcError:
        pass
    else:
        superset, subset = cold.copy(), cold.copy()
        superset[cold == 0.0] = 1.0
        subset[np.flatnonzero(cold)[:1]] = 0.0
        guesses += [cold, -cold, superset, subset]
    for guess in guesses:
        want = _l1_outcome(reference, hm, x, nu1, guess)
        assert _l1_outcome(sp.l1l2_packet, hm, x, nu1, guess) == want, guess
    # the block of x and its mirror -x, guessing one support with opposite
    # signs, so that one broadcast solve serves both rows
    X, nu = np.array([x, -x]), np.array([nu1, nu1])
    for guess in guesses[1:]:
        mirrored = np.array([guess, -guess])
        want = _l1_reference_block(hm, X, nu, mirrored)
        assert _l1_outcome(sp.l1l2_packet, hm, X, nu, mirrored) == want, guess


# floats that the ratio tests meet: signed zeros, +-1 (a zero denominator
# 1 -+ a_j), infinities, NaN, and any other
RATIO_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]),
                         st.floats(-4.0, 4.0), st.floats())


def _same_float(a, b):
    """a and b are the same number, with the same sign of zero, or both NaN."""
    return (a != a and b != b) or (a == b and math.copysign(1.0, a) == math.copysign(1.0, b))


def _assert_ratios_equal_numpys(lam, c, a, d, u_S, s_S, blocked):
    """_l1_ratios against the reference: the same tests on numpy arrays."""
    sides = np.array([[1.0], [-1.0]])
    with np.errstate(all="ignore"):
        join = (lam - sides * np.array(c)) / (1.0 - sides * np.array(a))
        join[np.array(blocked) | ~(join > 0.0)] = np.inf
        side, j = divmod(int(join.argmin()), len(c))
        leave = np.where(np.array(d) * s_S < 0.0, -np.array(u_S) / np.array(d), np.inf)
        i = int(leave.argmin())
    got = _l1_ratios(lam, c, a, d, u_S, s_S, blocked)
    assert got[1:3] == (side, j) and got[4] == i, (got, side, j, i)
    assert _same_float(got[0], float(join[side, j])) and _same_float(got[3], float(leave[i])), got


@settings(max_examples=500, deadline=None)
@given(data=st.data(), n=st.integers(1, 6))
def test_l1_ratio_tests_on_floats_equal_numpys(data, n):
    # any floats; the active set is never empty, so neither is u_S
    lam = data.draw(RATIO_FLOATS)
    c, a = (data.draw(st.lists(RATIO_FLOATS, min_size=n, max_size=n)) for _ in range(2))
    k = data.draw(st.integers(1, n))
    d, u_S = (data.draw(st.lists(RATIO_FLOATS, min_size=k, max_size=k)) for _ in range(2))
    s_S = data.draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=k, max_size=k))
    blocked = tuple(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)) for _ in range(2))
    _assert_ratios_equal_numpys(lam, c, a, d, u_S, s_S, blocked)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("lam,c,a,d,u_S,s_S", [
    # leave: the first NaN wins over a smaller ratio and over a later NaN
    (1.0, [0.0, 0.0], [0.0, 0.0], [-1.0, -1.0, -1.0, -1.0], [0.5, NAN, 0.1, NAN], [1.0] * 4),
    # join: 1 - a_j = 0 on side 0 and 1 + a_j = 0 on side 1 are +inf, not an error
    (1.0, [0.0, 0.5, 0.0], [1.0, -1.0, 0.0], [1.0], [1.0], [1.0]),
    # join: a zero ratio (c_j = lam), a NaN one and an infinite one are +inf
    (2.0, [2.0, NAN, -2.0, 0.0], [0.0, 0.0, INF, 0.0], [1.0], [1.0], [1.0]),
    # every join is +inf: the pick is (inf, 0, 0)
    (1.0, [1.0, -1.0], [1.0, -1.0], [1.0], [-0.0], [-1.0]),
    # leave: signed zeros, and an infinite coefficient over an infinite step
    (1.0, [0.0], [0.0], [-1.0, INF, -INF], [-0.0, INF, INF], [1.0, -1.0, 1.0]),
])
def test_l1_ratio_tests_edges(lam, c, a, d, u_S, s_S):
    # under every pattern of bars
    for bars in product([False, True], repeat=2 * len(c)):
        blocked = list(bars[:len(c)]), list(bars[len(c):])
        _assert_ratios_equal_numpys(lam, c, a, d, u_S, s_S, blocked)


# floats that a KKT gap meets: signed zeros, NaN, infinities, the
# extremes of nu1, and any other
KKT_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan,
                                        1e-300, -1e-300, 1e300, -1e300]),
                       st.floats(-4.0, 4.0), st.floats())


def _assert_kkt_forms(u, c, s, nu1, tol):
    """The walk's gap on floats and the block's signs form against the
    reference's _kkt_gap: equal bits, or NaN on both sides, and the same
    held or missed decision. The walk holds where its gap is within tol; a
    guess with signs s, whose packet u is zero off s's support, holds where
    sign(u) = s and the signs form with s is within tol, as the reference's
    guess check decides. numpy's overflow is not warned of, as in the
    solver."""
    with np.errstate(over="ignore", invalid="ignore"):
        want = _kkt_gap(u, c, nu1)
        signed = float(_kkt_gaps(c[None], np.sign(u)[None], np.array([nu1]))[0])
        guessed = float(_kkt_gaps(c[None], s[None], np.array([nu1]))[0])
    walk = _kkt_gap_floats(u.tolist(), c.tolist(), nu1)
    assert _same_float(walk, want) and _same_float(signed, want), (walk, signed, want)
    assert (walk <= tol) == (want <= tol)
    on = np.flatnonzero(s)
    held = bool((np.sign(u) == s).all()) and guessed <= tol
    assert held == (np.array_equal(np.sign(u[on]), s[on]) and want <= tol), (guessed, want)
    if np.array_equal(np.sign(u), s):
        assert _same_float(guessed, want)


@settings(max_examples=500, deadline=None)
@given(data=st.data(), n=st.integers(1, 8))
def test_kkt_gap_in_three_forms_follows_one_rule(data, n):
    # any coefficients on the guessed support (exact zeros, -0.0 and NaN
    # among them), any correlations (NaN and +-inf among them), nu1 from
    # 1e-300 to 1e300 and tolerances down to 0
    s = np.array(data.draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=n, max_size=n)))
    u = np.zeros(n)
    u[s != 0.0] = [data.draw(KKT_FLOATS) for _ in range(np.count_nonzero(s))]
    c = np.array(data.draw(st.lists(KKT_FLOATS, min_size=n, max_size=n)))
    nu1 = data.draw(st.one_of(st.sampled_from([1e-300, 1e300, 5.3]), st.floats(1e-300, 1e300)))
    tol = data.draw(st.sampled_from([0.0, 1e-9 * nu1, 1e-9, 1.0, 1e300]))
    _assert_kkt_forms(u, c, s, nu1, tol)


@pytest.mark.parametrize("nu1", [1e-300, 5.3, 1e300])
@pytest.mark.parametrize("u,c", [
    # a NaN correlation on the support, off it, and +-inf on and off it
    ([1.0, 0.0, -2.0], [NAN, 0.0, 0.0]),
    ([1.0, 0.0, -2.0], [0.0, NAN, 0.0]),
    ([1.0, 0.0, -2.0], [INF, -INF, 0.0]),
    ([1.0, 0.0, -2.0], [0.0, 0.0, -INF]),
    # an exact 0 and a -0.0 on the guessed support: off u's support, and
    # the guess's sign test misses
    ([0.0, 1.0, -2.0], [0.0, 0.0, 0.0]),
    ([-0.0, 1.0, -2.0], [-0.0, 1.0, -1.0]),
    # a NaN coefficient, with finite correlations
    ([NAN, 1.0, -2.0], [0.0, 0.0, 0.0]),
    # a held packet: c_j = nu1 sign(u_j) on the support, |c_j| < nu1 off it
    ([1.0, 0.0, -2.0], [1.0, 0.5, -1.0]),
])
def test_kkt_gap_in_three_forms_edges(u, c, nu1):
    # c is given in units of nu1, so that a held packet holds at every nu1
    u, c = np.array(u), np.array(c) * nu1
    for s in ([1.0, 1.0, -1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, -1.0]):
        for tol in (0.0, 1e-9 * nu1, 1e300):
            _assert_kkt_forms(u, c, np.array(s), nu1, tol)


def test_kkt_gap_in_three_forms_overflows_alike():
    # c_j + nu1 overflows to +inf on a negative coefficient
    big = float(np.finfo(float).max)
    for s in ([-1.0, 0.0], [-1.0, 1.0]):
        _assert_kkt_forms(np.array([-1.0, 0.0]), np.array([big, 0.0]), np.array(s), 1e300, 0.0)
    assert _kkt_gap_floats([-1.0, 0.0], [big, 0.0], 1e300) == math.inf


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


def _count_walks(monkeypatch):
    """A list that gets the targets of every _l1_walk call from now on."""
    import sparseppc.controllers as controllers

    real, calls = controllers._l1_walk, []

    def counted(hm, b, Hx, lam0, targets):
        calls.append(list(targets))
        return real(hm, b, Hx, lam0, targets)

    monkeypatch.setattr(controllers, "_l1_walk", counted)
    return calls


def _assert_shared_walks(hm, X, nu1, guess, walks):
    """The block's packets are the reference's bytes, its solver_iters the
    rows' total, and walks holds one walk per state that walks: the
    distinct values of its walking rows, largest first, in the order of
    each state's first walking row."""
    walks.clear()
    pkt = sp.l1l2_packet(hm, X, nu1, guess=guess)
    total, targets = 0, {}
    for r, u in enumerate(pkt.u):
        want = l1l2_reference(hm, X[r], nu1[r], guess=guess[r])
        assert u.tobytes() == want.u.tobytes(), r
        total += want.solver_iters
        if want.solver_iters > int(guess[r].any()):    # neither zero nor certified: a walk
            targets.setdefault(X[r].tobytes(), set()).add(nu1[r])
    assert pkt.solver_iters == total
    assert walks == [sorted(values, reverse=True) for values in targets.values()]
    return sum(len(values) - 1 for values in targets.values())


def test_l1l2_rows_of_one_state_share_one_walk(cessna_horizon, rng, monkeypatch):
    # blocks of 12 rows on 4 states, so that states repeat across nu1
    # values and within one, in shuffled row order with nu1 unsorted; a row
    # has no guess, its own cold packet (certified) or another row's (stale:
    # it misses, then walks). Then a grid run's first block, where every
    # value's copy of a trial holds the same x0
    walks = _count_walks(monkeypatch)
    saved = 0
    for hm, X, grid in _l1_cases(cessna_horizon, rng):
        for _ in range(8):
            at = rng.choice(len(X), 4, replace=False)[rng.integers(0, 4, 12)]
            B, nu1 = X[at], rng.choice(grid, 12)
            cold = np.array([l1l2_reference(hm, x, nu).u for x, nu in zip(B, nu1)])
            kind = rng.integers(0, 3, 12)
            guess = np.where((kind == 0)[:, None], 0.0, cold)
            guess[kind == 2] = cold[rng.permutation(12)][kind == 2]
            saved += _assert_shared_walks(hm, B, nu1, guess, walks)
    assert saved >= 20, saved

    import sparseppc.sim as sim_mod

    real, blocks = sim_mod.l1l2_packet, []

    def first_block(hm, X, nu1, guess=None):
        if not blocks:
            blocks.append((X.copy(), np.array(nu1), guess.copy()))
        return real(hm, X, nu1, guess=guess)

    monkeypatch.setattr(sim_mod, "l1l2_packet", first_block)
    cfg = SimConfig(trials=5, steps=2, seed=1, controller="l1l2")
    setup = build_setup(cfg)
    monte_carlo(cfg, setup=setup, grid=[1e2, 1e3, 5.3e3, 1e4])
    X, nu1, guess = blocks[0]
    assert not guess.any() and len({x.tobytes() for x in X}) == 5
    assert _assert_shared_walks(setup.hm, X, nu1, guess, walks) >= 5


def test_l1l2_block_raises_its_first_failing_rows_own_error(cessna_horizon, rng):
    # states scaled toward overflow: x's walk ends in a packet for a large
    # nu1, misses the KKT conditions (SolverFailureError) for a smaller one
    # and meets a gap that is not finite (NumericError) for a smaller one
    # still, all in one shared walk; z's walk ends in a packet and in an
    # error. In any row order the block raises the error of its first
    # failing row, as that row alone and the reference do, whichever state
    # walks first
    hm = cessna_horizon
    reference = np.errstate(all="ignore")(l1l2_reference)
    found = []
    for seed in range(100):
        z = np.random.default_rng(seed).standard_normal(4)
        with np.errstate(over="ignore"):
            x = z / np.abs(hm.GtH @ z).max() * 10.0**308.2
            lam0 = float(np.abs(hm.GtH @ x).max())
        if not (np.isfinite(x).all() and math.isfinite(lam0)):
            continue
        ends = {}
        for f in (0.9, 0.5, 0.1, 1e-2, 1e-4, 1e-8):
            end = _l1_outcome(sp.l1l2_packet, hm, x, f * lam0)
            assert end == _l1_outcome(reference, hm, x, f * lam0)
            ends.setdefault(end[0] if isinstance(end[0], type) else bytes, f * lam0)
        if len(ends) == 3 and len(found) == 0 or len(ends) > 1 and len(found) == 1:
            found.append((x, ends))
        if len(found) == 2:
            break
    else:
        pytest.fail(f"{len(found)} of 2 overflowing states found")
    (x, xs), (z, zs) = found
    y = rng.standard_normal(4)
    X = np.array([x, x, x, z, z, y, y])
    nu1 = np.array([xs[bytes], xs[SolverFailureError], xs[NumericError], zs[bytes],
                    zs[max(zs, key=lambda k: k is not bytes)], 5.3, 1e2])
    raised = Counter()
    for _ in range(40):
        order = rng.permutation(len(X))
        rows = [_l1_outcome(sp.l1l2_packet, hm, X[r], nu1[r]) for r in order]
        first = next(r for r, end in enumerate(rows) if isinstance(end[0], type))
        assert _l1_outcome(sp.l1l2_packet, hm, X[order], nu1[order]) == rows[first], order
        # whether a state whose first row comes later holds the first failing row
        later = order[first] >= 3 and (X[order[:first]] == x).all(axis=1).any()
        raised[rows[first][0], later] += 1
    assert {kind for kind, _ in raised} == {SolverFailureError, NumericError}
    assert {later for _, later in raised} == {True, False}, raised


def _guess_solves(monkeypatch):
    """A list that gets the row count of every broadcast guess solve from now on."""
    real, solves = np.linalg.solve, []

    def counted(A, B):
        if np.ndim(B) == 3:         # a (rows, k, 2) stack: the guesses' solve
            solves.append(len(B))
        return real(A, B)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return solves


def test_l1l2_rows_of_one_support_share_one_solve_whatever_their_signs(cessna_horizon, rng,
                                                                       monkeypatch):
    # closed-loop states and their mirrors -x, whose packets are -u(x), so
    # that a row's guess (the shifted cold packet of its trial's previous
    # state) and its mirror's share a support with opposite signs; among
    # rows of other states, shuffled, with nu1 per row drawn with repeats.
    # Each block makes one broadcast solve per support that its guessed rows
    # hold, and gives every row the reference's bytes and the rows' total
    # of solver_iters; mixed counts the rows certified in a support whose
    # rows guess more than one sign pattern
    hm = cessna_horizon
    states = _closed_loop_states(controller="l1l2", nu1=1e2, trials=3).reshape(3, 100, 4)
    grid = [5.3, 1e2, 1e3, 5.3e3]
    solves = _guess_solves(monkeypatch)
    mixed = 0
    for _ in range(30):
        picks = [(t, k, rng.choice(grid)) for t, k in
                 zip(rng.integers(0, 3, 8), rng.integers(1, 100, 8))]
        X, nu1, guess = [], [], []
        for i, (t, k, nu) in enumerate(picks):
            g = receding_guess(l1l2_reference(hm, states[t, k - 1], nu).u)
            mirrors = [1.0, -1.0] if i < 4 else [1.0]
            for m in mirrors:
                X.append(m * states[t, k]), nu1.append(nu), guess.append(m * g)
        order = rng.permutation(len(X))
        X, nu1, guess = np.array(X)[order], np.array(nu1)[order], np.array(guess)[order]
        solves.clear()
        got = _l1_outcome(sp.l1l2_packet, hm, X, nu1, guess)
        assert got == _l1_reference_block(hm, X, nu1, guess)
        rows, patterns, held = Counter(), {}, Counter()
        for x, nu, g in zip(X, nu1, guess):
            if g.any() and np.abs(hm.GtH @ x).max() > nu:     # a guessed row
                support = (g != 0.0).tobytes()
                rows[support] += 1
                patterns.setdefault(support, set()).add(np.sign(g).tobytes())
                held[support] += l1l2_reference(hm, x, nu, guess=g).solver_iters == 1
        assert sorted(solves) == sorted(rows.values())
        mixed += sum(held[s] for s, p in patterns.items() if len(p) > 1)
    assert mixed >= 40, mixed


def test_l1l2_support_whose_solve_fails_walks_each_of_its_rows(cessna_horizon, rng):
    # columns 0 and 1 of G are equal, so (G'G)_SS is exactly singular on
    # any S that holds both. Rows guessing S = {0, 1, 2}, with any signs,
    # share one solve that fails, and each row walks to its own packet or
    # its own error, as alone and in the reference; rows guessing their own
    # cold packet, on other supports, are certified beside them
    G = cessna_horizon.G.copy()
    G[:, 1] = G[:, 0]
    hm = replace(cessna_horizon, G=G, GtG=G.T @ G, GtH=G.T @ cessna_horizon.H,
                 col_norm_sq=np.sum(G * G, axis=0))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(_l1_gathers(hm, 0b111)[1], np.ones((3, 2)))
    walked, failed, certified = [], [], []
    for _ in range(400):
        x = rng.standard_normal(4)
        nu = float(rng.choice([0.9, 0.5, 0.1, 1e-3])) * np.abs(hm.GtH @ x).max()
        guess = np.zeros(hm.N)
        guess[:3] = rng.choice([-1.0, 1.0], 3)
        end = _l1_outcome(sp.l1l2_packet, hm, x, nu, guess)
        cold = _l1_outcome(l1l2_reference, hm, x, nu)
        assert end == _l1_outcome(l1l2_reference, hm, x, nu, guess)
        if isinstance(end[0], type):
            assert end == cold
            failed.append((x, nu, guess))
        else:
            assert end == (cold[0], cold[1] + 1)      # the cold walk's packet, after the try
            walked.append((x, nu, guess))
        if isinstance(cold[0], bytes) and np.frombuffer(cold[0]).any():
            u = np.frombuffer(cold[0]).copy()
            assert _l1_outcome(sp.l1l2_packet, hm, x, nu, u) == (cold[0], 1)
            certified.append((x, nu, u))
        if len(walked) >= 6 and len(failed) >= 2 and len(certified) >= 4:
            break
    else:
        pytest.fail(f"{len(walked)} walks, {len(failed)} failures, {len(certified)} packets")
    for rows in (walked[:6] + certified[:4], walked[:6] + failed[:2] + certified[:4]):
        for _ in range(10):
            X, nu1, guess = (np.array(a) for a in zip(*[rows[r] for r in
                                                          rng.permutation(len(rows))]))
            want = _l1_reference_block(hm, X, nu1, guess)
            assert _l1_outcome(sp.l1l2_packet, hm, X, nu1, guess) == want
    assert isinstance(want[0], type)


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
    (lambda hm, W, x: sp.omp_packet(hm, W, x), [1.7e308, -1.7e308, 1.7e308, 0.0]),
    (lambda hm, W, x: sp.omp_packet(hm, W, x), [[1.0, 0.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 0.0]]),
    (lambda hm, W, x: sp.exhaustive_l0_packet(hm, W, x), [np.nan, 0.0, 0.0, 0.0]),
], ids=["l1l2-nan", "omp-nan", "omp-overflow", "omp-block-nan", "oracle-nan"])
def test_solvers_refuse_a_non_finite_state(cessna_design, cessna_horizon, solve, x):
    # NaN reads as "below nu1" or "within budget", and an overflowed x'Wx
    # as a budget no residual exceeds: each would return a wrong packet;
    # OMP walks an overflowing state scaled down, and refuses where the
    # packet of this one overflows
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
    assert hm._cache == {}
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
