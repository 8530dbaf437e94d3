import numpy as np
import pytest

import sparseppc as sp
from sparseppc.design import build_design, dare_residual, design_constants, lq_gain, solve_dare
from sparseppc.errors import ConfigError, NumericError
from sparseppc.plant import PlantModel

from .fixtures import CESSNA_C, CESSNA_C1, CESSNA_K, CESSNA_P, CESSNA_RHO
from .oracles import (dare_qz, pencil_lmax_power, pencil_lmin_power,
                      random_reachable, random_spd, scalar_dare_value_iteration)


def test_dare_zero_dynamics_reduces_to_q():
    # n = 1 keeps A = 0 reachable; the update collapses to P = Q
    m = PlantModel(A=[[0.0]], B=[2.0])
    Q = np.array([[1.5]])
    P = solve_dare(m, Q)
    assert np.allclose(P, Q, atol=1e-12)
    assert np.allclose(lq_gain(m, P), [0.0], atol=1e-14)


def test_dare_scalar_closed_form():
    m = PlantModel(A=[[2.0]], B=[1.0])
    P = solve_dare(m, np.eye(1))
    p_ref = scalar_dare_value_iteration(2.0, 1.0, 1.0)
    assert abs(P[0, 0] - p_ref) <= 1e-12
    assert abs(P[0, 0] - 1.0) <= 1e-12  # gain cancels the whole quadratic term
    K = lq_gain(m, P)
    assert np.allclose(K, [-2.0], atol=1e-12)


def test_dare_cessna_matches_golden_and_qz_oracle(cessna, cessna_design):
    P = cessna_design.P
    assert np.allclose(P, CESSNA_P, rtol=1e-9, atol=1e-8)
    P_qz = dare_qz(cessna.A, cessna.B, np.eye(4))
    assert np.allclose(P, P_qz, rtol=1e-8, atol=1e-7)
    assert np.allclose(cessna_design.K, CESSNA_K, rtol=1e-9, atol=1e-10)


def test_dare_residual_and_identities_on_random_systems(rng):
    for _ in range(100):
        m = random_reachable(rng)
        Q = random_spd(rng, m.n)
        P = solve_dare(m, Q)
        nP = np.linalg.norm(P, "fro")
        assert dare_residual(m, P, Q) <= 1e-9 * nP
        # P - Q must be PSD, hence rho in [0, 1)
        assert np.min(np.linalg.eigvalsh(P - Q)) >= -1e-9 * nP
        K = lq_gain(m, P)
        Acl = m.A + np.outer(m.B, K)
        assert np.linalg.norm(Acl.T @ P @ Acl - P + Q, "fro") <= 1e-8 * nP
        assert np.max(np.abs(m.B @ P @ Acl)) <= 1e-8 * nP * np.linalg.norm(m.B)


def test_lq_gain_zero_dynamics_and_positivity():
    m = PlantModel(A=np.zeros((2, 2)), B=[1.0, 1.0])
    assert np.allclose(lq_gain(m, np.eye(2)), 0.0)
    with pytest.raises(NumericError):
        lq_gain(m, np.zeros((2, 2)))


def test_design_constants_forced_q_equals_p(cessna, cessna_design):
    # test-only: feeding Q = P collapses the contraction rate to zero
    hm = sp.build_horizon(cessna, cessna_design.P, cessna_design.P, 10)
    c1, rho, c = design_constants(cessna, cessna_design.P, cessna_design.P, 10, hm)
    assert abs(rho) <= 1e-10
    assert np.isclose(c, c1, rtol=1e-9)


def test_design_constants_single_step_horizon(cessna, cessna_design):
    hm = sp.build_horizon(cessna, cessna_design.Q, cessna_design.P, 1)
    c1, rho, c = design_constants(cessna, cessna_design.Q, cessna_design.P, 1, hm)
    assert np.isclose(c, c1, rtol=1e-12)
    assert 0.0 <= rho < 1.0


def test_design_constants_cessna_fixture_and_power_iteration(cessna, cessna_design, cessna_horizon):
    d, hm = cessna_design, cessna_horizon
    assert np.isclose(d.c1, CESSNA_C1, rtol=1e-9)
    assert np.isclose(d.rho, CESSNA_RHO, rtol=1e-12)
    assert np.isclose(d.c, CESSNA_C, rtol=1e-9)
    lmax = max(pencil_lmax_power(Phi_i.T @ d.P @ Phi_i, hm.GtG)
               for Phi_i in hm.Phi.reshape(hm.N, hm.n, hm.N))
    assert np.isclose(d.c1, lmax, rtol=1e-6)
    lmin = pencil_lmin_power(d.Q, d.P)
    assert np.isclose(d.rho, 1.0 - lmin, rtol=1e-6, atol=1e-9)


def test_scalar_design_hand_checked():
    # a = 2, b = 1, q = 1, N = 2, eta = 1/2: every quantity is closed form
    m = PlantModel(A=[[2.0]], B=[1.0])
    d = build_design(m, Q=np.eye(1), N=2, eta=0.5)
    assert np.isclose(d.P[0, 0], 1.0, atol=1e-12)
    assert np.isclose(d.K[0], -2.0, atol=1e-12)
    assert np.isclose(d.c1, 1.0, atol=1e-10)
    assert np.isclose(d.rho, 0.0, atol=1e-10)
    assert np.isclose(d.c, 1.0, atol=1e-10)
    assert np.isclose(d.Wstar[0, 0], 0.0, atol=1e-12)
    assert np.isclose(d.Eps[0, 0], 0.5, atol=1e-10)
    assert np.isclose(d.W[0, 0], 0.5, atol=1e-10)


def test_build_design_eta_validation(cessna):
    with pytest.raises(ConfigError):
        build_design(cessna, N=10, eta=0.0)
    with pytest.raises(ConfigError):
        build_design(cessna, N=10, eta=1.0)


def test_build_design_requires_reachability():
    m = PlantModel(A=np.eye(2), B=[1.0, 0.0])
    with pytest.raises(ConfigError):
        build_design(m, N=4)


def test_design_invariants_cessna(cessna_design):
    d = cessna_design
    np.linalg.cholesky(d.Eps)                      # Eps PD
    np.linalg.cholesky(d.W - d.Wstar)              # W - Wstar PD
    np.linalg.cholesky((1.0 - d.rho) / d.c * d.P - d.Eps)  # strictly below the cap
    assert np.allclose(d.Wstar, d.P - d.Q, atol=1e-12)
    assert 0.0 <= d.rho < 1.0
    assert np.min(np.linalg.eigvalsh(d.Wstar)) >= -1e-9 * np.linalg.norm(d.P, "fro")


def test_wstar_characterization_against_least_squares(cessna_design, cessna_horizon, rng):
    # load-bearing consistency check between the design and horizon modules
    d, hm = cessna_design, cessna_horizon
    for _ in range(100):
        x = rng.standard_normal(4)
        pkt = sp.least_squares_packet(hm, x)
        ref = float(x @ d.Wstar @ x)
        assert np.isclose(sp.cost_quadratic(hm, pkt.u, x), ref, rtol=1e-6, atol=1e-9)


def test_tiny_eta_collapses_omp_onto_least_squares(cessna, rng):
    # eta -> 0+ shrinks the feasible set onto the least-squares point: any
    # feasible u has ||G(u - u_ls)||^2 <= x'Eps x, so the packet gap is
    # bounded by sqrt(x'Eps x) / sigma_min(G). On the aircraft model eta
    # must stay above ~1e-6 or the slack sinks below the float noise floor
    # of the residual itself (kappa(G) ~ 5e2).
    d = build_design(cessna, N=10, eta=1e-5)
    hm = sp.build_horizon(cessna, d.Q, d.P, d.N)
    assert np.linalg.norm(d.W - d.Wstar) <= 1e-4 * np.linalg.norm(d.Wstar)
    smin = np.linalg.svd(hm.G, compute_uv=False)[-1]
    for _ in range(10):
        x = rng.standard_normal(4)
        omp = sp.omp_packet(hm, d.W, x)
        ls = sp.least_squares_packet(hm, x)
        bound = np.sqrt(float(x @ d.Eps @ x)) / smin
        assert np.linalg.norm(omp.u - ls.u) <= bound * (1.0 + 1e-9)

    # the literal 1e-9 regime on a well-conditioned scalar plant
    m = PlantModel(A=[[2.0]], B=[1.0])
    d1 = build_design(m, Q=np.eye(1), N=2, eta=1e-9)
    hm1 = sp.build_horizon(m, d1.Q, d1.P, 2)
    smin1 = np.linalg.svd(hm1.G, compute_uv=False)[-1]
    for x0 in (0.7, -3.2):
        x = np.array([x0])
        omp = sp.omp_packet(hm1, d1.W, x)
        ls = sp.least_squares_packet(hm1, x)
        bound = np.sqrt(float(x @ d1.Eps @ x)) / smin1
        assert np.linalg.norm(omp.u - ls.u) <= bound * (1.0 + 1e-9)


def test_delta_regularized_riccati(cessna):
    P0 = solve_dare(cessna, np.eye(4), delta=0.0)
    P1 = solve_dare(cessna, np.eye(4), delta=1e-8)
    assert np.allclose(P0, P1, rtol=1e-6)
    with pytest.raises(NumericError):
        solve_dare(cessna, np.eye(4), delta=-1e9)


def test_dare_nonconvergence_carries_residual(cessna):
    from sparseppc.errors import SolverFailureError

    with pytest.raises(SolverFailureError) as exc_info:
        solve_dare(cessna, np.eye(4), max_iter=2)
    assert exc_info.value.residual is not None
    assert exc_info.value.residual > 0.0


def test_design_json_roundtrip(cessna_design):
    from sparseppc.design import design_from_dict, design_to_dict

    doc = design_to_dict(cessna_design)
    back = design_from_dict(doc)
    assert np.allclose(back.W, cessna_design.W)
    assert back.N == cessna_design.N
    with pytest.raises(ConfigError):
        design_from_dict({"Q": [[1.0]]})
