from functools import partial

import numpy as np
import pytest

import sparseppc as sp

from . import failures


@pytest.fixture(scope="session")
def cessna():
    return sp.resolve_plant("cessna500")


@pytest.fixture(scope="session")
def cessna_design(cessna):
    return sp.build_design(cessna, N=10)


@pytest.fixture(scope="session")
def cessna_horizon(cessna, cessna_design):
    d = cessna_design
    return sp.build_horizon(cessna, d.Q, d.P, d.N)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240611)


@pytest.fixture()
def fail_trials(monkeypatch):
    """fail_trials(failing) makes each trial that failing(cfg, key) names fail at its first solve.

    The patch lasts until the test ends; see tests/failures.py.
    """
    return partial(failures.fail_trials, monkeypatch)
