"""Stabilizing cost design: Riccati solve, gain, contraction constants, W.

The design pipeline turns an arbitrary PD state weight Q into the full set
of matrices the packet optimization needs: the Riccati solution P
(terminal weight and Lyapunov matrix), the slack budget Eps capped by
(1 - rho) P / c, and the feasibility weight W = (P - Q) + Eps. Designs
built here guarantee that the greedy packet solver terminates and that the
closed loop contracts across every delivery under bounded dropouts.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DesignInfeasibleError, NumericError,
                     SolverFailureError)
from .horizon import HorizonMatrices, build_horizon
from .linalg import check_sym_pd, is_sym_pd, pencil_eigvals
from .plant import PlantModel, _frozen, require_reachable


@dataclass(frozen=True)
class CostDesign:
    """All matrices and constants produced by the design procedure."""

    Q: np.ndarray       # state weight, PD
    P: np.ndarray       # Riccati solution / terminal weight, PD
    K: np.ndarray       # LQ feedback gain (row, shape (n,)), diagnostic
    Wstar: np.ndarray   # unconstrained least-squares cost matrix, P - Q
    Eps: np.ndarray     # feasibility slack, PD, < (1 - rho) P / c
    W: np.ndarray       # feasibility budget weight, Wstar + Eps
    c1: float
    rho: float
    c: float
    N: int
    eta: float

    def __post_init__(self):
        for name in ("Q", "P", "K", "Wstar", "Eps", "W"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))


def dare_residual(m: PlantModel, P: np.ndarray, Q: np.ndarray, delta: float = 0.0) -> float:
    """Frobenius norm of A'PA - A'PB (B'PB + delta)^-1 B'PA + Q - P."""
    Pb = P @ m.B
    bPb = float(m.B @ Pb) + delta
    APb = m.A.T @ Pb
    R = m.A.T @ P @ m.A - np.outer(APb, APb) / bPb + Q - P
    return float(np.linalg.norm(R, "fro"))


def solve_dare(m: PlantModel, Q: np.ndarray, delta: float = 0.0,
               tol: float = 1e-13, max_iter: int = 100_000) -> np.ndarray:
    """Riccati solution by fixed-point iteration from P0 = Q.

    Iterates P <- A'PA - A'PB (B'PB + delta)^-1 B'PA + Q until the relative
    Frobenius change drops below tol. delta > 0 regularizes the scalar
    inverse for plants where the plain equation lacks a PD solution.
    """
    Q = check_sym_pd(np.asarray(Q, dtype=float), "Q")
    if Q.shape[0] != m.n:
        raise ConfigError(f"Q must be {m.n}x{m.n}, got {Q.shape}")
    require_reachable(m)

    A, B = m.A, m.B
    P = Q.copy()
    for _ in range(max_iter):
        Pb = P @ B
        bPb = float(B @ Pb) + delta
        if bPb <= 0.0:
            raise NumericError(f"B'PB + delta = {bPb} is not positive during iteration")
        APb = A.T @ Pb
        Pn = A.T @ (P @ A) - np.outer(APb, APb) / bPb + Q
        Pn = 0.5 * (Pn + Pn.T)
        change = np.linalg.norm(Pn - P, "fro")
        P = Pn
        if change <= tol * np.linalg.norm(P, "fro"):
            break
    else:
        res = dare_residual(m, P, Q, delta)
        raise SolverFailureError(
            f"Riccati iteration did not converge in {max_iter} iterations "
            f"(residual {res:.3e})", residual=res)

    res = dare_residual(m, P, Q, delta)
    if res > 1e-9 * np.linalg.norm(P, "fro"):
        raise SolverFailureError(
            f"Riccati solution fails the residual contract: {res:.3e}", residual=res)
    if not is_sym_pd(P):
        raise SolverFailureError("Riccati iteration converged to a non-PD matrix")
    return P


def lq_gain(m: PlantModel, P: np.ndarray) -> np.ndarray:
    """Optimal feedback gain K = -(B'PB)^-1 B'PA, returned as a row (n,)."""
    Pb = P @ m.B
    bPb = float(m.B @ Pb)
    if bPb <= 0.0:
        raise NumericError(f"B'PB = {bPb} must be strictly positive")
    return -(m.B @ P @ m.A) / bPb


def design_constants(m: PlantModel, Q: np.ndarray, P: np.ndarray, N: int,
                     hm: HorizonMatrices) -> tuple:
    """Contraction constants (c1, rho, c) for an N-step open-loop excursion.

    c1 bounds the per-step cost of the sparsification slack, rho is the
    single-step Lyapunov contraction 1 - lambda_min(Q P^-1), and c folds c1
    through the geometric sum over at most N open-loop steps. Spectra of
    the nonsymmetric products are taken via equivalent symmetric pencils.
    """
    c1 = -np.inf
    for Phi_i in hm.Phi.reshape(N, m.n, N):  # the n x N row blocks of Phi
        Mi = Phi_i.T @ P @ Phi_i
        c1 = max(c1, float(pencil_eigvals(Mi, hm.GtG)[-1]))
    if not (c1 > 0.0):
        raise DesignInfeasibleError(f"c1 = {c1} must be positive")

    lam_min = float(pencil_eigvals(Q, P)[0])
    rho = 1.0 - lam_min
    if -1e-10 < rho < 0.0:
        rho = 0.0  # Q = P up to roundoff
    if not (0.0 <= rho < 1.0):
        raise DesignInfeasibleError(
            f"rho = {rho} outside [0, 1): P >= Q violated numerically")

    c = (1.0 - rho**N) / (1.0 - rho) * c1
    return c1, rho, c


def build_design(m: PlantModel, Q=None, N: int = 10, eta: float = 2.0 / 3.0,
                 delta: float = 0.0) -> CostDesign:
    """Run the full design procedure and return every derived quantity.

    eta in (0, 1) places the slack at Eps = eta (1 - rho) P / c, strictly
    inside the stability cap; eta defaults to 2/3.
    """
    if not (0.0 < eta < 1.0):
        raise ConfigError(f"eta must lie strictly inside (0, 1), got {eta}")
    if Q is None:
        Q = np.eye(m.n)
    Q = check_sym_pd(np.asarray(Q, dtype=float), "Q")

    P = solve_dare(m, Q, delta=delta)
    K = lq_gain(m, P)
    hm = build_horizon(m, Q, P, N)
    c1, rho, c = design_constants(m, Q, P, N, hm)

    Eps = eta * (1.0 - rho) / c * P
    Wstar = P - Q
    W = Wstar + Eps

    if not is_sym_pd(Eps):
        raise DesignInfeasibleError("slack matrix Eps is not positive definite")
    if not is_sym_pd((1.0 - rho) / c * P - Eps):
        raise DesignInfeasibleError("Eps does not sit strictly below the stability cap")
    return CostDesign(Q=Q, P=P, K=K, Wstar=Wstar, Eps=Eps, W=W,
                      c1=c1, rho=rho, c=c, N=N, eta=eta)


def design_to_dict(d: CostDesign) -> dict:
    """JSON-ready mapping with matrices as row-major nested lists."""
    return {
        "Q": d.Q.tolist(),
        "P": d.P.tolist(),
        "K": d.K.tolist(),
        "Wstar": d.Wstar.tolist(),
        "Eps": d.Eps.tolist(),
        "W": d.W.tolist(),
        "c1": d.c1,
        "rho": d.rho,
        "c": d.c,
        "N": d.N,
        "eta": d.eta,
    }


def design_from_dict(doc: dict) -> CostDesign:
    try:
        return CostDesign(
            Q=np.asarray(doc["Q"], dtype=float),
            P=np.asarray(doc["P"], dtype=float),
            K=np.asarray(doc["K"], dtype=float),
            Wstar=np.asarray(doc["Wstar"], dtype=float),
            Eps=np.asarray(doc["Eps"], dtype=float),
            W=np.asarray(doc["W"], dtype=float),
            c1=float(doc["c1"]),
            rho=float(doc["rho"]),
            c=float(doc["c"]),
            N=int(doc["N"]),
            eta=float(doc["eta"]),
        )
    except KeyError as exc:
        raise ConfigError(f"design document is missing field {exc}") from exc
