"""Packet solvers: greedy sparse (OMP), exhaustive sparse, and baselines.

Every solver maps a measured state x to a length-N packet of tentative
inputs. The sparse solvers minimize the nonzero count subject to the
quadratic budget ||G u - H x||^2 <= x' W x; the baselines trade that
budget for closed-form penalties (none, Tikhonov, or l1).
"""

from dataclasses import dataclass
from itertools import combinations
from math import sqrt
from time import perf_counter

import numpy as np

from .errors import (ConfigError, DesignInfeasibleError, FeasibilityError,
                     SolverFailureError)
from .horizon import HorizonMatrices
from .plant import _frozen

# Feasibility comparisons inflate the budget by this relative slack so that
# strict float inequalities do not flap at the boundary.
FEASIBILITY_SLACK = 1e-9

# l1 solutions are clamped to exact zero below this fraction of the peak
# magnitude before sparsity is counted (and in the stored packet).
L1_ZERO_CLAMP = 1e-8


@dataclass(frozen=True)
class ControlPacket:
    """A tentative-input packet plus solve metadata.

    sparsity counts exact nonzeros: the sparse solvers produce structural
    zeros, and the l1 solver clamps before counting.
    """

    u: np.ndarray
    sparsity: int
    solver_iters: int
    solve_seconds: float
    converged: bool = True

    def __post_init__(self):
        object.__setattr__(self, "u", _frozen(self.u))


@dataclass(frozen=True)
class FeasibilityCertificate:
    residual_sq: float
    budget: float
    feasible: bool


def _finish(u: np.ndarray, iters: int, t0: float, converged: bool = True) -> ControlPacket:
    return ControlPacket(u=u, sparsity=int(np.count_nonzero(u)),
                         solver_iters=iters, solve_seconds=perf_counter() - t0,
                         converged=converged)


def budget_for(W: np.ndarray, x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    return float(x @ W @ x)


def check_feasible(hm: HorizonMatrices, W: np.ndarray, u: np.ndarray,
                   x: np.ndarray) -> FeasibilityCertificate:
    """Certificate that u meets the quadratic budget for state x."""
    r = hm.G @ np.asarray(u, dtype=float) - hm.H @ np.asarray(x, dtype=float)
    residual_sq = float(r @ r)
    budget = budget_for(W, x)
    feasible = residual_sq <= budget + FEASIBILITY_SLACK * max(1.0, budget)
    return FeasibilityCertificate(residual_sq=residual_sq, budget=budget, feasible=feasible)


def _support_lsq(G: np.ndarray, support, Hx: np.ndarray):
    """Least squares restricted to the given columns, via QR."""
    Gs = G[:, support]
    Qf, Rf = np.linalg.qr(Gs)
    coef = np.linalg.solve(Rf, Qf.T @ Hx)
    return coef, Gs


def omp_packet(hm: HorizonMatrices, W: np.ndarray, x: np.ndarray) -> ControlPacket:
    """Orthogonal matching pursuit for the sparsity-minimizing packet.

    Loop invariant: the columns of Qb[:, :k] are an orthonormal basis of
    the k columns picked so far, G[:, support] = Qb[:, :k] R[:k, :k] with R
    upper triangular, and r = Hx - Qb Qb'Hx is the explicit least-squares
    residual on that support. While ||r||^2 exceeds the budget x'Wx, pick
    the unselected column with the largest (g_j'r)^2 / ||g_j||^2 (smallest
    index on ties); this is the column whose single-column fit to r leaves
    the smallest error. Its component orthogonal to the basis, from
    classical Gram-Schmidt with one re-orthogonalization pass, becomes the
    next basis vector, and r loses its projection on it. One triangular
    solve R u_S = Qb'Hx gives the packet. For budgets built by the design
    procedure the full-support residual is strictly below the budget, so
    the loop terminates for every x.
    """
    t0 = perf_counter()
    x = np.asarray(x, dtype=float)
    N = hm.N
    G = hm.G
    budget = budget_for(W, x)
    Hx = hm.H @ x
    r = Hx.copy()
    Qb = np.empty((Hx.size, N))
    R = np.zeros((N, N))
    support = []

    while float(r @ r) > budget:
        k = len(support)
        if k == N:
            raise FeasibilityError(
                "all columns selected but the residual still exceeds the budget",
                residual_sq=float(r @ r), budget=budget)
        c = G.T @ r
        score = c * c / hm.col_norm_sq
        score[support] = -np.inf
        j = int(np.argmax(score))
        basis, g = Qb[:, :k], G[:, j]
        h = basis.T @ g
        v = g - basis @ h
        h2 = basis.T @ v
        v -= basis @ h2
        norm = sqrt(v @ v)
        if not norm > 0.0:
            raise SolverFailureError(
                f"column {j} has no component orthogonal to the support {support}",
                residual=float(r @ r))
        np.add(h, h2, out=R[:k, k])
        R[k, k] = norm
        q = np.divide(v, norm, out=Qb[:, k])
        r -= (q @ r) * q
        support.append(j)

    u = np.zeros(N)
    k = len(support)
    if k:
        try:
            u[support] = np.linalg.solve(R[:k, :k], Qb[:, :k].T @ Hx)
        except np.linalg.LinAlgError as exc:
            raise SolverFailureError(f"support solve failed: {exc}",
                                     residual=float(r @ r)) from exc
    return _finish(u, k, t0)


def exhaustive_l0_packet(hm: HorizonMatrices, W: np.ndarray, x: np.ndarray,
                         n_max: int = 12) -> ControlPacket:
    """Globally sparsity-minimal packet by support enumeration.

    Scans support sizes k = 0, 1, ... and within each size the supports in
    lexicographic order, returning the first feasible restricted
    least-squares solution. Exponential in N; refused above n_max. Intended
    as the correctness oracle for the greedy solver, not for control loops
    at scale.
    """
    if hm.N > n_max:
        raise ConfigError(
            f"exhaustive search refused for N = {hm.N} > cap {n_max}")
    t0 = perf_counter()
    x = np.asarray(x, dtype=float)
    budget = budget_for(W, x)
    slack = FEASIBILITY_SLACK * max(1.0, budget)
    Hx = hm.H @ x
    examined = 0

    if float(Hx @ Hx) <= budget + slack:
        return _finish(np.zeros(hm.N), 0, t0)
    for k in range(1, hm.N + 1):
        for support in combinations(range(hm.N), k):
            examined += 1
            try:
                coef, Gs = _support_lsq(hm.G, list(support), Hx)
            except np.linalg.LinAlgError as exc:
                raise SolverFailureError(
                    f"support {support} solve failed: {exc}") from exc
            r = Hx - Gs @ coef
            if float(r @ r) <= budget + slack:
                u = np.zeros(hm.N)
                u[list(support)] = coef
                return _finish(u, examined, t0)
    raise FeasibilityError("no feasible support found up to full size",
                           residual_sq=None, budget=budget)


def least_squares_packet(hm: HorizonMatrices, x: np.ndarray) -> ControlPacket:
    """Unconstrained minimizer of ||G u - H x||^2 (generically dense)."""
    t0 = perf_counter()
    x = np.asarray(x, dtype=float)
    try:
        coef, _ = _support_lsq(hm.G, slice(None), hm.H @ x)
    except np.linalg.LinAlgError as exc:
        raise DesignInfeasibleError("G'G is singular") from exc
    return _finish(coef, 1, t0)


def l2_packet(hm: HorizonMatrices, x: np.ndarray, nu2: float) -> ControlPacket:
    """Tikhonov-regularized packet (nu2 I + G'G)^-1 G'H x."""
    if not (nu2 > 0.0):
        raise ConfigError(f"nu2 must be positive, got {nu2}")
    t0 = perf_counter()
    x = np.asarray(x, dtype=float)
    try:
        u = np.linalg.solve(nu2 * np.eye(hm.N) + hm.GtG, hm.GtH @ x)
    except np.linalg.LinAlgError as exc:
        raise SolverFailureError(f"nu2 I + G'G solve failed: {exc}") from exc
    return _finish(u, 1, t0)


def _soft_threshold(v: np.ndarray, thr: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - thr, 0.0)


def l1l2_packet(hm: HorizonMatrices, x: np.ndarray, nu1: float,
                max_iter: int = 10_000, tol: float = 1e-10) -> ControlPacket:
    """FISTA solution of min nu1 ||u||_1 + 0.5 ||G u - H x||^2.

    Step size 1/L with L the largest eigenvalue of G'G (from eigvalsh,
    stored on the horizon), with adaptive function restart: momentum is
    reset whenever the objective rises, which restores fast convergence on
    badly conditioned Gram matrices. Stops on relative objective change
    below tol; the best iterate seen is returned, flagged non-converged if
    the iteration cap is hit first. Entries below L1_ZERO_CLAMP * ||u||_inf
    are clamped to exact zero so sparsity counts are well defined.
    """
    if not (nu1 > 0.0):
        raise ConfigError(f"nu1 must be positive, got {nu1}")
    t0 = perf_counter()
    x = np.asarray(x, dtype=float)
    GtHx = hm.GtH @ x
    Hx = hm.H @ x
    L = hm.GtG_lmax * (1.0 + 1e-6)

    def objective(u):
        # evaluated on the true residual: the expanded quadratic form loses
        # too many digits to cancellation for the stop test to be meaningful
        r = hm.G @ u - Hx
        return nu1 * float(np.sum(np.abs(u))) + 0.5 * float(r @ r)

    u = np.zeros(hm.N)
    y = u
    t = 1.0
    best_u, best_obj = u, objective(u)
    obj_prev = best_obj
    converged = False
    iters = 0
    for iters in range(1, max_iter + 1):
        grad = hm.GtG @ y - GtHx
        u_new = _soft_threshold(y - grad / L, nu1 / L)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = u_new + ((t - 1.0) / t_new) * (u_new - u)
        u, t = u_new, t_new
        obj = objective(u)
        if obj < best_obj:
            best_u, best_obj = u, obj
        if abs(obj - obj_prev) <= tol * max(1.0, abs(obj)):
            converged = True
            break
        if obj > obj_prev:
            t = 1.0
            y = u
        obj_prev = obj

    out = best_u.copy()
    peak = float(np.max(np.abs(out))) if out.size else 0.0
    if peak > 0.0:
        out[np.abs(out) < L1_ZERO_CLAMP * peak] = 0.0
    return _finish(out, iters, t0, converged=converged)
