"""Stabilizing cost design: Riccati solve, gain, contraction constants, W.

The design pipeline turns an arbitrary PD state weight Q into the full set
of matrices the packet optimization needs: the Riccati solution P
(terminal weight and Lyapunov matrix), the slack budget Eps capped by
(1 - rho) P / c, and the feasibility weight W = (P - Q) + Eps. Designs
built here guarantee that the greedy packet solver terminates and that the
closed loop contracts across every delivery under bounded dropouts.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import (ConfigError, DesignInfeasibleError, NumericError,
                     SolverFailureError)
from .horizon import HorizonMatrices, build_horizon
from .linalg import check_sym_pd, finite_real, is_sym_pd, number_array, pencil_eigvals, shown
from .plant import PlantModel, _frozen, require_reachable

# A Riccati solution's residual may be at most this fraction of ||P||_F, and
# each field of a saved design at most this relative distance from the built one.
RICCATI_RTOL = 1e-9

# solve_dare stops once an iteration changes P by at most DARE_TOL * ||P||_F,
# and gives up after DARE_MAX_ITER iterations.
DARE_TOL = 1e-13
DARE_MAX_ITER = 100_000


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
        for f in fields(self):
            if f.type is np.ndarray:
                object.__setattr__(self, f.name, _frozen(getattr(self, f.name)))


def dare_residual(m: PlantModel, P: np.ndarray, Q: np.ndarray, delta: float = 0.0) -> float:
    """Frobenius norm of A'PA - A'PB (B'PB + delta)^-1 B'PA + Q - P."""
    Pb = P @ m.B
    bPb = float(m.B @ Pb) + delta
    APb = m.A.T @ Pb
    R = m.A.T @ P @ m.A - np.outer(APb, APb) / bPb + Q - P
    return float(np.linalg.norm(R, "fro"))


def solve_dare(m: PlantModel, Q: np.ndarray, delta: float = 0.0) -> np.ndarray:
    """Riccati solution by fixed-point iteration from P0 = Q.

    Iterates P <- A'PA - A'PB (B'PB + delta)^-1 B'PA + Q until the relative
    Frobenius change drops below DARE_TOL. delta > 0 regularizes the scalar
    inverse for plants where the plain equation lacks a PD solution. The
    OMP termination bound needs delta >= 0, so a negative delta is refused,
    as is one that is not finite. An iteration whose change is not finite
    (an overflow) raises NumericError at once, with numpy's overflow
    warnings kept silent.
    """
    if not (finite_real(delta) and delta >= 0):
        raise ConfigError(f"delta must be >= 0 and finite, got {shown(delta)}")
    Q = check_sym_pd(Q, "Q", m.n)
    require_reachable(m)

    A, B = m.A, m.B
    P = Q.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, DARE_MAX_ITER + 1):
            Pb = P @ B
            bPb = float(B @ Pb) + delta
            if bPb <= 0.0:
                raise NumericError(f"B'PB + delta = {bPb} is not positive during iteration")
            APb = A.T @ Pb
            Pn = A.T @ (P @ A) - np.outer(APb, APb) / bPb + Q
            Pn = 0.5 * (Pn + Pn.T)
            change = np.linalg.norm(Pn - P, "fro")
            if not np.isfinite(change):
                raise NumericError(f"Riccati iteration {it} is not finite: "
                                   f"its change in P is {change}")
            P = Pn
            if change <= DARE_TOL * np.linalg.norm(P, "fro"):
                break
        else:
            res = dare_residual(m, P, Q, delta)
            raise SolverFailureError(
                f"Riccati iteration did not converge in {DARE_MAX_ITER} iterations "
                f"(residual {res:.3e})", residual=res)

    res = dare_residual(m, P, Q, delta)
    if res > RICCATI_RTOL * np.linalg.norm(P, "fro"):
        raise SolverFailureError(
            f"Riccati solution fails the residual contract: {res:.3e}", residual=res)
    if not is_sym_pd(P):
        raise SolverFailureError("Riccati iteration converged to a non-PD matrix")
    return P


def lq_gain(m: PlantModel, P: np.ndarray) -> np.ndarray:
    """Optimal feedback gain K = -(B'PB)^-1 B'PA, returned as a row (n,)."""
    P = check_sym_pd(P, "P", m.n)
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
    the nonsymmetric products are taken via equivalent symmetric pencils;
    a G'G too ill-conditioned to factor raises DesignInfeasibleError.
    """
    Phis = hm.Phi.reshape(N, m.n, N)    # the n x N row blocks of Phi
    try:
        c1 = float(pencil_eigvals(Phis.swapaxes(1, 2) @ P @ Phis, hm.GtG)[:, -1].max())
    except np.linalg.LinAlgError as exc:    # G'G passed the rank test, not Cholesky
        raise DesignInfeasibleError(f"G'G is not numerically positive definite: {exc}") from exc
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
    if not (finite_real(eta) and 0.0 < eta < 1.0):
        raise ConfigError(f"eta must lie strictly inside (0, 1), got {shown(eta)}")
    Q = check_sym_pd(np.eye(m.n) if Q is None else Q, "Q", m.n)

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
    """JSON-ready mapping of every field, matrices as row-major nested lists."""
    return {f.name: np.asarray(getattr(d, f.name)).tolist() for f in fields(d)}


def design_from_dict(doc: dict) -> CostDesign:
    """The inverse of design_to_dict; a missing or non-numeric field is a ConfigError.

    A field keeps the shape the document gives it: build_setup compares shapes.
    """
    values = {}
    for f in fields(CostDesign):
        if f.name not in doc:
            raise ConfigError(f"design document is missing field {f.name!r}")
        kind = int if f.type is int else float
        arr = number_array(doc[f.name], f"design field {f.name}", "iu" if kind is int else "iuf")
        values[f.name] = arr.astype(kind) if arr.ndim else kind(arr)
    return CostDesign(**values)
