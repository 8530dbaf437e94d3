"""Stacked N-step prediction operators and the quadratic cost in vector form.

For predictions x'_{i+1} = A x'_i + B u'_i starting at x'_0 = x, the
stacked vector [x'_1; ...; x'_N] equals Phi u + Upsilon x, so the horizon
cost sum_{i=1}^{N-1} x'_i^T Q x'_i + x'_N^T P x'_N becomes ||G u - H x||^2
with G = Qbar^(1/2) Phi and H = -Qbar^(1/2) Upsilon.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DesignInfeasibleError
from .linalg import check_sym_pd, numerical_rank, sym_sqrt
from .plant import PlantModel, _frozen


@dataclass(frozen=True)
class HorizonMatrices:
    """Prediction operators for one (plant, Q, P, N) combination.

    GtG, GtH, col_norm_sq and GtG_lmax are cached products the packet
    solvers need; they carry no information beyond G and H.
    """

    N: int
    n: int
    Phi: np.ndarray
    Upsilon: np.ndarray
    G: np.ndarray
    H: np.ndarray
    GtG: np.ndarray
    GtH: np.ndarray
    col_norm_sq: np.ndarray
    GtG_lmax: float


def build_horizon(m: PlantModel, Q: np.ndarray, P: np.ndarray, N: int) -> HorizonMatrices:
    """Assemble Phi, Upsilon and the weighted operators G, H."""
    if N < 1:
        raise DesignInfeasibleError(f"horizon length must be >= 1, got {N}")
    Q = check_sym_pd(np.asarray(Q, dtype=float), "Q")
    P = check_sym_pd(np.asarray(P, dtype=float), "P")
    n = m.n

    # Impulse-response blocks A^i B, built by repeated multiplication.
    blocks = np.empty((N, n))
    col = m.B
    for i in range(N):
        blocks[i] = col
        col = m.A @ col

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

    GtG = G.T @ G
    return HorizonMatrices(
        N=N,
        n=n,
        Phi=_frozen(Phi),
        Upsilon=_frozen(Upsilon),
        G=_frozen(G),
        H=_frozen(H),
        GtG=_frozen(GtG),
        GtH=_frozen(G.T @ H),
        col_norm_sq=_frozen(np.sum(G * G, axis=0)),
        GtG_lmax=float(np.linalg.eigvalsh(GtG)[-1]),
    )


def cost_quadratic(hm: HorizonMatrices, u: np.ndarray, x: np.ndarray) -> float:
    """Horizon cost ||G u - H x||_2^2 for a packet u and current state x."""
    r = hm.G @ np.asarray(u, dtype=float) - hm.H @ np.asarray(x, dtype=float)
    return float(r @ r)
