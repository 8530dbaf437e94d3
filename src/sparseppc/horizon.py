"""Stacked N-step prediction operators and the quadratic cost in vector form.

For predictions x'_{i+1} = A x'_i + B u'_i starting at x'_0 = x, the
stacked vector [x'_1; ...; x'_N] equals Phi u + Upsilon x, so the horizon
cost sum_{i=1}^{N-1} x'_i^T Q x'_i + x'_N^T P x'_N becomes ||G u - H x||^2
with G = Qbar^(1/2) Phi and H = -Qbar^(1/2) Upsilon.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DesignInfeasibleError, NumericError
from .linalg import check_sym_pd, int_setting, number_array, numerical_rank, sym_sqrt
from .plant import PlantModel, _frozen, impulse_response


@dataclass(frozen=True)
class HorizonMatrices:
    """Prediction operators for one (plant, Q, P, N) combination.

    GtG, GtH and col_norm_sq are cached products the packet solvers read
    at every solve. _cache, empty until a solve fills it, holds the
    solvers' own caches, each entry a function of G, H and a support or
    nu2 alone: OMP's support-node table, the l1 gathers and the l2 gains.
    Only the controllers module reads it, and dataclasses.replace starts
    it empty.
    """

    N: int
    n: int
    Phi: np.ndarray
    G: np.ndarray
    H: np.ndarray
    GtG: np.ndarray
    GtH: np.ndarray
    col_norm_sq: np.ndarray
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)


def build_horizon(m: PlantModel, Q: np.ndarray, P: np.ndarray, N: int) -> HorizonMatrices:
    """Assemble Phi and the weighted operators G and H = -Qbar^(1/2) Upsilon."""
    N = int_setting(N, "N", 0)
    if N < 1:
        raise DesignInfeasibleError(f"horizon length must be >= 1, got {N}")
    n = m.n
    Q = check_sym_pd(Q, "Q", n)
    P = check_sym_pd(P, "P", n)

    blocks = impulse_response(m, N)    # A^i B
    Phi = np.zeros((N * n, N))
    for j in range(N):
        for i in range(j, N):
            Phi[i * n:(i + 1) * n, j] = blocks[i - j]

    Upsilon = np.empty((N * n, n))
    Ap = np.eye(n)
    for i in range(N):
        Ap = m.A @ Ap
        Upsilon[i * n:(i + 1) * n, :] = Ap

    # Qbar^(1/2) = blockdiag(Q^(1/2), ..., Q^(1/2), P^(1/2))
    QbarSqrt = np.zeros((N * n, N * n))
    Qs = sym_sqrt(Q)
    for i in range(N - 1):
        QbarSqrt[i * n:(i + 1) * n, i * n:(i + 1) * n] = Qs
    QbarSqrt[(N - 1) * n:, (N - 1) * n:] = sym_sqrt(P)

    G = QbarSqrt @ Phi
    H = -QbarSqrt @ Upsilon
    rank = numerical_rank(G)
    if rank < N:
        # Cannot happen for reachable single-input plants with PD weights,
        # but any failure here would poison every solver downstream.
        raise DesignInfeasibleError(f"G is column-rank deficient: rank {rank} < {N}")

    return HorizonMatrices(
        N=N,
        n=n,
        Phi=_frozen(Phi),
        G=_frozen(G),
        H=_frozen(H),
        GtG=_frozen(G.T @ G),
        GtH=_frozen(G.T @ H),
        col_norm_sq=_frozen(np.sum(G * G, axis=0)),
    )


def cost_quadratic(hm: HorizonMatrices, u, x) -> float:
    """||G u - H x||^2 of finite u (N,) and x (n,), else ConfigError; NumericError on overflow."""
    u, x = number_array(u, "u").astype(float), number_array(x, "x").astype(float)
    if u.shape != (hm.N,) or x.shape != (hm.n,) or not np.isfinite(np.append(u, x)).all():
        raise ConfigError(f"need finite u ({hm.N},) and x ({hm.n},), got {u.shape} and {x.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused just below
        r = hm.G @ u - hm.H @ x
        cost = float(r @ r)
    if not np.isfinite(cost):
        raise NumericError(f"cost is not finite: ||G u - H x||^2 = {cost}")
    return cost
