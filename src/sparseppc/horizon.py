"""Stacked N-step prediction operators and the quadratic cost in vector form.

For predictions x'_{i+1} = A x'_i + B u'_i starting at x'_0 = x, the
stacked vector [x'_1; ...; x'_N] equals Phi u + Upsilon x, so the horizon
cost sum_{i=1}^{N-1} x'_i^T Q x'_i + x'_N^T P x'_N becomes ||G u - H x||^2
with G = Qbar^(1/2) Phi and H = -Qbar^(1/2) Upsilon.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DesignInfeasibleError
from .linalg import check_sym_pd, int_setting, number_array, numerical_rank, sym_sqrt
from .plant import PlantModel, _frozen, impulse_response


class SupportNodes:
    """OMP's table of support nodes, in the order solves discovered them.

    Node i is one support S, the bitmask masks[i], with the operators of
    its least-squares residual r = E x, E = H - G K (see
    controllers._support_node): C[i] = G'E gives the correlations G'r =
    C[i] x, M[i] = E'E the norm ||r||^2 = x'M[i] x, and w[i] is
    col_norm_sq with +inf on S, so that (C[i] x)^2 / w[i] scores the
    columns of S zero. K[i] (N x n, zero rows off S) maps x to the packet
    on S and cols[i] lists S in increasing order; both are read-only.
    child[i][j] is the node of S + {j}, or -1 until a solve has stepped
    from node i to it, and index maps a mask to its node. C, M and w are
    stacked over the nodes and grow by doubling, so the first P nodes are
    one (P, N, n), one (P, n, n) and one (P, N) block.
    """

    def __init__(self):
        self.count = 0
        self.index = {}
        self.masks = []
        self.K = []
        self.cols = []
        self.child = []
        self.C = self.M = self.w = None

    def add(self, mask: int, C, M, w, K, cols) -> int:
        """Append the node of mask and return its index."""
        i = self.count
        if self.C is None or i == len(self.C):
            self.C, self.M, self.w = (_doubled(self.C, C), _doubled(self.M, M),
                                      _doubled(self.w, w))
        self.C[i], self.M[i], self.w[i] = C, M, w
        self.index[mask] = i
        self.masks.append(mask)
        self.K.append(K)
        self.cols.append(cols)
        self.child.append([-1] * len(w))
        self.count = i + 1
        return i


def _doubled(a, row: np.ndarray) -> np.ndarray:
    """A copy of the stacked rows a with room for as many again (8 when a is None)."""
    out = np.empty((2 * len(a) if a is not None else 8, *row.shape))
    if a is not None:
        out[:len(a)] = a
    return out


@dataclass(frozen=True)
class HorizonMatrices:
    """Prediction operators for one (plant, Q, P, N) combination.

    GtG, GtH and col_norm_sq are cached products the packet solvers read
    at every solve. Three caches start empty and fill as solves need them,
    at most one entry per support (2^N) or per nu2: _omp_nodes is the
    support-node table that omp_packet walks and whose full-support K
    least_squares_packet applies (see SupportNodes; its stacked arrays
    only grow, and each node's K and cols are read-only), _l1_gathers the
    read-only per-support gathers of G'G and G that l1l2_packet solves
    with (see controllers._l1_gathers), and _l2_gains the read-only gain
    of l2_packet per nu2 (see controllers.l2_packet). dataclasses.replace
    starts all three anew, empty. None of these carries information beyond
    G, H and nu2.
    """

    N: int
    n: int
    Phi: np.ndarray
    G: np.ndarray
    H: np.ndarray
    GtG: np.ndarray
    GtH: np.ndarray
    col_norm_sq: np.ndarray
    _omp_nodes: SupportNodes = field(default_factory=SupportNodes, init=False,
                                     compare=False, repr=False)
    _l1_gathers: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _l2_gains: dict = field(default_factory=dict, init=False, compare=False, repr=False)


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
    """Horizon cost ||G u - H x||^2 of a finite packet u (N,) and state x (n,), else ConfigError."""
    u, x = number_array(u, "u").astype(float), number_array(x, "x").astype(float)
    if u.shape != (hm.N,) or x.shape != (hm.n,) or not np.isfinite(np.append(u, x)).all():
        raise ConfigError(f"need finite u ({hm.N},) and x ({hm.n},), got {u.shape} and {x.shape}")
    r = hm.G @ u - hm.H @ x
    return float(r @ r)
