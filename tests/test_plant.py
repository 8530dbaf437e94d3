import json

import numpy as np
import pytest

import sparseppc as sp
from sparseppc.errors import ConfigError
from sparseppc.plant import (ContinuousPlant, PlantModel, cessna500, controllability_matrix,
                             impulse_response, reachability_rank, zoh_discretize)

from .fixtures import CESSNA_A, CESSNA_B, CESSNA_RANK
from .oracles import zoh_taylor


def test_zoh_zero_dynamics_is_identity_and_scaled_input():
    cp = ContinuousPlant(Ac=np.zeros((3, 3)), Bc=[1.0, -2.0, 0.5])
    m = zoh_discretize(cp, 0.5)
    assert np.allclose(m.A, np.eye(3), atol=1e-14)
    assert np.allclose(m.B, 0.5 * np.array([1.0, -2.0, 0.5]), atol=1e-14)


@pytest.mark.parametrize("h", [0.1, 0.5, 2.0])
def test_zoh_double_integrator_closed_form(h):
    cp = ContinuousPlant(Ac=[[0.0, 1.0], [0.0, 0.0]], Bc=[0.0, 1.0])
    m = zoh_discretize(cp, h)
    assert np.allclose(m.A, [[1.0, h], [0.0, 1.0]], atol=1e-14)
    assert np.allclose(m.B, [h * h / 2.0, h], atol=1e-14)


def test_zoh_cessna_matches_taylor_oracle(cessna):
    cp = cessna500()
    A_ref, B_ref = zoh_taylor(cp.Ac, cp.Bc, 0.5)
    assert np.allclose(cessna.A, A_ref, rtol=1e-10, atol=1e-13)
    assert np.allclose(cessna.B, B_ref, rtol=1e-10, atol=1e-13)
    # frozen golden copy used throughout the acceptance runs
    assert np.allclose(cessna.A, CESSNA_A, rtol=1e-12, atol=1e-14)
    assert np.allclose(cessna.B, CESSNA_B, rtol=1e-12, atol=1e-14)


def test_zoh_exact_on_nilpotent_dynamics(rng):
    # strictly upper triangular => Ac^n = 0 and the series is finite
    for n in (2, 3, 4):
        Ac = np.triu(rng.standard_normal((n, n)), 1)
        Bc = rng.standard_normal(n)
        Ts = 0.7
        m = zoh_discretize(ContinuousPlant(Ac=Ac, Bc=Bc), Ts)
        A_series = np.zeros((n, n))
        term = np.eye(n)
        fact = 1.0
        for j in range(n):
            A_series += term / fact
            term = term @ (Ac * Ts)
            fact *= j + 1
        B_int = np.zeros((n, n))
        term = np.eye(n) * Ts
        for j in range(n):
            B_int += term
            term = term @ (Ac * Ts) / (j + 2)
        assert np.allclose(m.A, A_series, atol=1e-12)
        assert np.allclose(m.B, B_int @ Bc, atol=1e-12)


def test_zoh_rejects_bad_sample_time():
    cp = ContinuousPlant(Ac=np.zeros((2, 2)), Bc=[1.0, 0.0])
    with pytest.raises(ConfigError):
        zoh_discretize(cp, 0.0)


def test_zoh_overflow_raises_numeric_error():
    from sparseppc.errors import NumericError

    cp = ContinuousPlant(Ac=[[1e4]], Bc=[1.0])
    with pytest.raises(NumericError):
        zoh_discretize(cp, 1.0)


def test_reachability_rank_examples(cessna):
    assert reachability_rank(PlantModel(A=np.eye(2), B=[1.0, 0.0])) == 1
    assert reachability_rank(PlantModel(A=[[0.0, 1.0], [0.0, 0.0]], B=[0.0, 1.0])) == 2
    assert reachability_rank(cessna) == CESSNA_RANK
    C = controllability_matrix(cessna)
    assert np.linalg.matrix_rank(C) == CESSNA_RANK


def test_one_impulse_response_builds_c_and_phi(cessna):
    # the controllability matrix and Phi's first column are the same
    # B, AB, A^2 B, ... rows, to the bit
    rows = impulse_response(cessna, 12)
    assert np.array_equal(rows[1], cessna.A @ cessna.B)
    assert np.array_equal(controllability_matrix(cessna), rows[:cessna.n].T)
    design = sp.build_design(cessna, N=12)
    hm = sp.build_horizon(cessna, design.Q, design.P, 12)
    assert np.array_equal(hm.Phi[:, 0], rows.ravel())


def test_plant_validation():
    with pytest.raises(ConfigError):
        PlantModel(A=[[1.0, 0.0]], B=[1.0])
    with pytest.raises(ConfigError):
        PlantModel(A=np.eye(2), B=[1.0, 2.0, 3.0])
    with pytest.raises(ConfigError):
        ContinuousPlant(Ac=[[np.inf, 0.0], [0.0, 1.0]], Bc=[1.0, 0.0])


def test_resolve_plant_forms(cessna):
    doc = {"A": cessna.A.tolist(), "B": cessna.B.tolist()}
    m = sp.resolve_plant(doc)
    assert np.allclose(m.A, cessna.A)
    cp = cessna500()
    m2 = sp.resolve_plant({"Ac": cp.Ac.tolist(), "Bc": cp.Bc.tolist(), "Ts": 0.5})
    assert np.allclose(m2.A, cessna.A)
    m3 = sp.resolve_plant(json.dumps(doc))
    assert np.allclose(m3.B, cessna.B)
    m4 = sp.resolve_plant({"preset": "cessna500"})
    assert np.allclose(m4.A, cessna.A)
    # a bare preset name is its mapping form, default Ts included
    for spec in ("cessna500", {"preset": "cessna500", "Ts": 0.5}):
        same = sp.resolve_plant(spec)
        assert np.array_equal(same.A, m4.A) and np.array_equal(same.B, m4.B)
    with pytest.raises(ConfigError):
        sp.resolve_plant("not_a_preset_or_json")
    with pytest.raises(ConfigError):
        sp.resolve_plant({"Ac": cp.Ac.tolist(), "Bc": cp.Bc.tolist()})
    # each form takes exactly its own keys, and the error names the odd one
    A, B = cessna.A.tolist(), cessna.B.tolist()
    for doc, key in (({"preset": "cessna500", "Tss": 0.5}, "Tss"),
                     ({"preset": "cessna500", "A": A}, "A"),
                     ({"A": A, "B": B, "Ts": 0.5}, "Ts"),
                     ({"Ac": cp.Ac.tolist(), "Bc": cp.Bc.tolist(), "Ts": 0.5, "B": B}, "B"),
                     ({"A": A}, "B")):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            sp.resolve_plant(doc)
