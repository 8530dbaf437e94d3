import numpy as np
import pytest

import sparseppc as sp
from sparseppc.errors import DesignInfeasibleError
from sparseppc.linalg import numerical_rank, sym_sqrt
from sparseppc.plant import PlantModel

from .fixtures import CESSNA_G_SHA256, CESSNA_H_SHA256, matrix_digest
from .oracles import naive_horizon, random_reachable, random_spd, recursion_cost


def test_single_step_horizon_blocks(cessna, cessna_design):
    d = cessna_design
    hm = sp.build_horizon(cessna, d.Q, d.P, 1)
    Ps = sym_sqrt(d.P)
    assert np.allclose(hm.Phi[:, 0], cessna.B)
    assert np.allclose(hm.Upsilon, cessna.A)
    assert np.allclose(hm.G[:, 0], Ps @ cessna.B, rtol=1e-12, atol=1e-12)
    assert np.allclose(hm.H, -Ps @ cessna.A, rtol=1e-12, atol=1e-12)


def test_identity_dynamics_structure():
    m = PlantModel(A=np.eye(2), B=[1.0, 0.0])
    hm = sp.build_horizon(m, np.eye(2), np.eye(2), 3)
    for i in range(3):
        for j in range(3):
            blk = hm.Phi[i * 2:(i + 1) * 2, j]
            assert np.allclose(blk, m.B if i >= j else 0.0)
    assert np.allclose(hm.Upsilon, np.vstack([np.eye(2)] * 3))


def test_cessna_horizon_matches_naive_assembly(cessna, cessna_design, cessna_horizon):
    d, hm = cessna_design, cessna_horizon
    Phi, Upsilon, G, H = naive_horizon(cessna.A, cessna.B, d.Q, d.P, 10)
    assert hm.Phi.shape == (40, 10) and hm.G.shape == (40, 10)
    assert hm.Upsilon.shape == (40, 4) and hm.H.shape == (40, 4)
    assert np.allclose(hm.Phi, Phi, atol=1e-12)
    assert np.allclose(hm.Upsilon, Upsilon, atol=1e-12)
    scale = np.max(np.abs(G))
    assert np.max(np.abs(hm.G - G)) <= 1e-12 * scale
    assert np.max(np.abs(hm.H - H)) <= 1e-12 * scale


def test_cessna_gh_digest_fixture(cessna_horizon):
    assert matrix_digest(cessna_horizon.G) == CESSNA_G_SHA256
    assert matrix_digest(cessna_horizon.H) == CESSNA_H_SHA256


def test_g_full_column_rank_for_random_reachable_plants(rng):
    for _ in range(20):
        m = random_reachable(rng, n_lo=1, n_hi=5)
        Q = random_spd(rng, m.n)
        P = sp.solve_dare(m, Q)
        N = int(rng.integers(1, 9))
        hm = sp.build_horizon(m, Q, P, N)
        assert numerical_rank(hm.G) == N


def test_cost_quadratic_examples(cessna_horizon):
    hm = cessna_horizon
    assert sp.cost_quadratic(hm, np.zeros(10), np.zeros(4)) == 0.0


def test_cost_quadratic_matches_recursion_oracle(cessna, cessna_design, cessna_horizon, rng):
    d, hm = cessna_design, cessna_horizon
    for _ in range(200):
        x = rng.standard_normal(4)
        u = rng.standard_normal(10)
        got = sp.cost_quadratic(hm, u, x)
        want = recursion_cost(cessna.A, cessna.B, d.Q, d.P, u, x)
        assert np.isclose(got, want, rtol=1e-9, atol=1e-9)


def test_identity_weights_give_stacked_prediction_norm(cessna, rng):
    # Q = P = I turns ||Gu - Hx||^2 into the plain stacked prediction norm
    hm = sp.build_horizon(cessna, np.eye(4), np.eye(4), 4)
    assert np.allclose(hm.G, hm.Phi, atol=1e-12)
    assert np.allclose(hm.H, -hm.Upsilon, atol=1e-12)
    x = rng.standard_normal(4)
    u = rng.standard_normal(4)
    stacked = hm.Phi @ u + hm.Upsilon @ x
    assert np.isclose(sp.cost_quadratic(hm, u, x), float(stacked @ stacked), rtol=1e-12)


def test_build_horizon_rejects_bad_inputs(cessna, cessna_design):
    with pytest.raises(DesignInfeasibleError):
        sp.build_horizon(cessna, cessna_design.Q, cessna_design.P, 0)
