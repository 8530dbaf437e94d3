"""LTI plant containers, zero-order-hold discretization, reachability.

All plants are single-input: B is a column, inputs are scalars. Matrices
are stored as read-only float64 arrays so models can be shared freely
across concurrent trial workers.
"""

from dataclasses import dataclass
import json

import numpy as np

from .errors import ConfigError, NumericError
from .linalg import expm, finite_real, number_array, numerical_rank, shown, square_matrix


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _as_column(v, n: int, name: str) -> np.ndarray:
    """Accept shape (n,), (n,1), or nested single-column lists; return (n,)."""
    v = number_array(v, name).astype(float)
    if v.ndim == 2:
        if v.shape != (n, 1):
            raise ConfigError(f"{name} must be a single column of {n} rows, got shape {v.shape}")
        v = v[:, 0]
    if v.shape != (n,):
        raise ConfigError(f"{name} must have {n} entries, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ConfigError(f"{name} contains non-finite entries")
    return v


@dataclass(frozen=True)
class ContinuousPlant:
    """Continuous-time single-input model dx/dt = Ac x + Bc u."""

    Ac: np.ndarray
    Bc: np.ndarray

    def __post_init__(self):
        Ac = square_matrix(self.Ac, "Ac")
        Bc = _as_column(self.Bc, Ac.shape[0], "Bc")
        object.__setattr__(self, "Ac", _frozen(Ac))
        object.__setattr__(self, "Bc", _frozen(Bc))

    @property
    def n(self) -> int:
        return self.Ac.shape[0]


@dataclass(frozen=True)
class PlantModel:
    """Discrete-time single-input model x(k+1) = A x(k) + B u(k) + v(k)."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = square_matrix(self.A, "A")
        B = _as_column(self.B, A.shape[0], "B")
        object.__setattr__(self, "A", _frozen(A))
        object.__setattr__(self, "B", _frozen(B))

    @property
    def n(self) -> int:
        return self.A.shape[0]


def zoh_discretize(cp: ContinuousPlant, Ts: float) -> PlantModel:
    """Exact zero-order-hold discretization with sample time Ts.

    Both the state transition A = exp(Ac Ts) and the held-input map
    B = int_0^Ts exp(Ac s) ds Bc fall out of one matrix exponential of the
    augmented block matrix [[Ac, Bc], [0, 0]] * Ts.
    """
    if not (finite_real(Ts) and Ts > 0):
        raise ConfigError(f"sample time must be a finite positive number, got {shown(Ts)}")
    n = cp.n
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = cp.Ac
    M[:n, n] = cp.Bc
    E = expm(M * Ts)
    A = E[:n, :n]
    B = E[:n, n]
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
        raise NumericError("discretization overflowed: non-finite entries in A or B")
    return PlantModel(A=A, B=B)


def impulse_response(m: PlantModel, count: int) -> np.ndarray:
    """Rows B, AB, ..., A^(count-1) B, built by repeated multiplication."""
    rows = np.empty((count, m.n))
    row = m.B
    for i in range(count):
        rows[i] = row
        row = m.A @ row
    return rows


def controllability_matrix(m: PlantModel) -> np.ndarray:
    """[B, AB, ..., A^(n-1) B], shape (n, n) for a single-input plant."""
    return impulse_response(m, m.n).T


def reachability_rank(m: PlantModel) -> int:
    """Numerical rank of the controllability matrix."""
    return numerical_rank(controllability_matrix(m))


def require_reachable(m: PlantModel) -> None:
    r = reachability_rank(m)
    if r < m.n:
        raise ConfigError(f"plant is not reachable: controllability rank {r} < {m.n}")


def cessna500() -> ContinuousPlant:
    """Built-in preset: cruise-condition linearized Cessna Citation 500 model."""
    Ac = [
        [-1.2822, 0.0, 0.98, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [-5.4293, 0.0, -1.8366, 0.0],
        [-128.2, 128.2, 0.0, 0.0],
    ]
    Bc = [-0.3, 0.0, -17.0, 0.0]
    return ContinuousPlant(Ac=Ac, Bc=Bc)


PRESETS = {"cessna500": (cessna500, 0.5)}

# Each mapping form of a plant, by the key that marks it: (the keys it
# requires, every key it takes).
PLANT_FORMS = {"preset": ({"preset"}, {"preset", "Ts"}),
               "A": ({"A", "B"}, {"A", "B"}),
               "Ac": ({"Ac", "Bc", "Ts"}, {"Ac", "Bc", "Ts"})}


def resolve_plant(spec) -> PlantModel:
    """Build a PlantModel from a preset name, JSON text, or a plain dict.

    Accepted document forms, each taking exactly its own keys:
      {"A": [[...]], "B": [...]}                 already discrete
      {"Ac": [[...]], "Bc": [...], "Ts": 0.5}    continuous + sample time
      {"preset": "cessna500", "Ts": 0.5}         preset, Ts optional
    """
    if isinstance(spec, str):
        try:
            spec = {"preset": spec} if spec in PRESETS else json.loads(spec)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"unknown plant preset or invalid JSON: {shown(spec)}") from exc
    if not isinstance(spec, dict):
        raise ConfigError(f"plant spec must be a preset name or mapping, got {type(spec).__name__}")
    form = next((key for key in PLANT_FORMS if key in spec), None)
    if form is None:
        raise ConfigError("plant spec must provide A/B, Ac/Bc/Ts, or a preset name")
    required, accepted = PLANT_FORMS[form]
    unknown = set(spec) - accepted
    if unknown:
        raise ConfigError(f"plant given by {form!r} takes only the keys {sorted(accepted)}, "
                          f"got {shown(sorted(unknown, key=str))}")
    missing = required - set(spec)
    if missing:
        raise ConfigError(f"plant given by {form!r} requires the keys {sorted(required)}, "
                          f"missing {sorted(missing)}")
    if form == "preset":
        name = spec["preset"]
        if not isinstance(name, str) or name not in PRESETS:
            raise ConfigError(f"unknown plant preset {shown(name)}")
        factory, default_ts = PRESETS[name]
        return zoh_discretize(factory(), spec.get("Ts", default_ts))
    if form == "A":
        return PlantModel(A=spec["A"], B=spec["B"])
    return zoh_discretize(ContinuousPlant(Ac=spec["Ac"], Bc=spec["Bc"]), spec["Ts"])
