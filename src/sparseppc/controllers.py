"""Packet solvers: greedy sparse (OMP), exhaustive sparse, and baselines.

Every solver maps a measured state x to a length-N packet of tentative
inputs, and a (b, n) block of states to (b, N) packets, each row's bits
those of its own solve; _solver_input refuses any other input. The sparse
solvers minimize the nonzero count subject to the quadratic budget
||G u - H x||^2 <= x' W x; the baselines trade that budget for a penalty
(none, Tikhonov, or l1). All are exact: the l1 packet ends a finite
lasso homotopy, so no solver has a tolerance.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ConfigError, FeasibilityError, NumericError, SolverFailureError
from .horizon import HorizonMatrices, cost_quadratic
from .linalg import number_array, shown, square_matrix
from .plant import _frozen

# Feasibility comparisons inflate the budget by this relative slack so that
# strict float inequalities do not flap at the boundary.
FEASIBILITY_SLACK = 1e-9

# Largest packet length the exhaustive search accepts (2^12 supports).
ORACLE_CAP = 12

# omp_packet evaluates the first OMP_PREFIX nodes of the support-node table
# in one product per solve, and any node past them on its own.
OMP_PREFIX = 24

# A solver that reads a product of the state refuses one that overflowed
# (see _finite), so it runs under _QUIET, which drops numpy's warning.
_QUIET = np.errstate(over="ignore", invalid="ignore")

# OMP's walk stops at a score (C x)_j^2 that overflowed, where a pick would
# take the first +inf; omp_packet then walks the row at a smaller scale. A
# NaN score is a degenerate column, whose support solve raises.
SCORE_OVERFLOW = "state is not finite: a score (C x)_j^2 / ||g_j||^2 overflowed"


@dataclass(frozen=True)
class ControlPacket:
    """A tentative-input packet and the solver's iteration count.

    u is made read-only in place, not copied: a solver hands over a fresh
    float array that nothing else holds. converged is a constant, not a
    field: every solver is exact or raises.
    """

    u: np.ndarray
    solver_iters: int
    converged = True

    def __post_init__(self):
        self.u.setflags(write=False)

    @property
    def sparsity(self) -> int:
        """Exact nonzeros of u (-0.0 is zero, NaN nonzero); solvers leave zeros off the support."""
        return int(np.count_nonzero(self.u))


@dataclass(frozen=True)
class FeasibilityCertificate:
    residual_sq: float
    budget: float
    feasible: bool


def budget_for(W, X: np.ndarray) -> np.ndarray:
    """x'Wx of each row x of a (b, n) block of states, as a (b,) array.

    X must already be a finite float array, and W a square_matrix (n, n).
    Stacked matmul gives each row the bits of its own (x @ W) @ x. A
    budget that is not finite (an overflow) raises NumericError, the
    block's first such one named: no packet can be judged against it.
    Every caller runs it under _QUIET, so the overflow is not warned of.
    """
    W = square_matrix(W, "W", X.shape[1])
    return _finite(((X[:, None, :] @ W) @ X[:, :, None])[:, 0, 0], "x'Wx")


def _solver_input(hm: HorizonMatrices, X, nu=None, name: str = None, guess=None) -> tuple:
    """Every solver's input check: (block, shape, nu, guess), or a package error.

    X, numbers of shape (n,) or (b, n) with b >= 1, becomes the float (b, n)
    block; shape is the packets', X.shape[:-1] + (N,). nu (the argument
    called name) is a finite positive number, returned as a float, or a
    (b,) array of them; guess is None or numbers of the packets' shape,
    returned as (b, N). Anything else raises ConfigError naming the
    argument, except a state that is not finite: NumericError.
    """
    X = number_array(X, "x")
    if X.ndim not in (1, 2) or X.shape[-1] != hm.n or not X.size:
        raise ConfigError(f"x must have shape ({hm.n},) or (b, {hm.n}) with b >= 1, "
                          f"got {X.shape}")
    shape = X.shape[:-1] + (hm.N,)
    block = X.astype(float, copy=False).reshape(-1, hm.n)
    if not np.isfinite(block).all():
        raise NumericError(f"state is not finite: x = {shown(X.tolist())}")
    if name is not None:
        nu = number_array(nu, name).astype(float, copy=False)
        if nu.shape not in ((), (len(block),)):
            raise ConfigError(f"{name} must be one number or have shape ({len(block)},), "
                              f"got {nu.shape}")
        bad = nu[~((nu > 0.0) & (nu < np.inf))]
        if bad.size:
            raise ConfigError(f"{name} must be positive, got {bad[0]}; it must be finite too")
        nu = float(nu) if nu.ndim == 0 else nu
    if guess is not None:
        guess = number_array(guess, "guess")
        if guess.shape != shape:
            raise ConfigError(f"guess must have the packets' shape {shape}, got {guess.shape}")
        guess = guess.astype(float, copy=False).reshape(-1, hm.N)
    return block, shape, nu, guess


@_QUIET
def check_feasible(hm: HorizonMatrices, W: np.ndarray, u: np.ndarray,
                   x: np.ndarray) -> FeasibilityCertificate:
    """Certificate that the packet u (N,) meets the quadratic budget for one state x (n,)."""
    residual_sq = cost_quadratic(hm, u, x)
    budget = budget_for(W, np.asarray(x, dtype=float)[None]).item()
    feasible = residual_sq <= budget + FEASIBILITY_SLACK * max(1.0, budget)
    return FeasibilityCertificate(residual_sq=residual_sq, budget=budget, feasible=feasible)


def _support_lsq(G: np.ndarray, support, b: np.ndarray):
    """Least squares restricted to the given columns, via QR; b may have columns."""
    Gs = G[:, support]
    Qf, Rf = np.linalg.qr(Gs)
    coef = np.linalg.solve(Rf, Qf.T @ b)
    return coef, Gs


def _support_node(hm: HorizonMatrices, mask: int, j: int = None) -> int:
    """Index of the support with bitmask mask in hm._omp_nodes, built once.

    The node's K maps x to the least-squares packet on the support, from
    one QR of G[:, cols]; with E = H - G K it stores C = G'E and M = E'E
    (see SupportNodes). A node depends on G, H and the support only,
    whichever solve builds it, and a failed build adds nothing. j, the
    column an OMP pick just added, names the failure.
    """
    nodes = hm._omp_nodes
    i = nodes.index.get(mask)
    if i is not None:
        return i
    cols = np.array([i for i in range(hm.N) if mask >> i & 1], dtype=np.intp)
    cols.setflags(write=False)
    K = np.zeros((hm.N, hm.n))
    E = hm.H
    if cols.size:
        where = "" if j is None else f"column {j}: "
        try:
            coef, Gs = _support_lsq(hm.G, cols, hm.H)
        except np.linalg.LinAlgError as exc:
            raise SolverFailureError(f"{where}support solve failed on "
                                     f"{cols.tolist()}: {exc}") from exc
        if not np.all(np.isfinite(coef)):
            raise SolverFailureError(f"{where}no finite least-squares fit "
                                     f"on the support {cols.tolist()}")
        K[cols] = coef
        E = hm.H - Gs @ coef
    w = hm.col_norm_sq.copy()
    w[cols] = np.inf
    return nodes.add(mask, hm.G.T @ E, E.T @ E, w, _frozen(K), cols)


def _node_products(nodes, P: int, X: np.ndarray):
    """Correlations C x (b, P, N) and norms x'M x (b, P).

    For each row x of the (b, n) block X and each node i < P, every entry
    has the bits of that node's own C[i].dot(x) and x.dot(M[i].dot(x)):
    stacked matmul makes, row by row and node by node, the BLAS call of the
    one product alone. A single product of the (P N, n) block with x does
    not: with OpenBLAS on x86-64 its rows differ from the nodes' own for
    n >= 8, and a product of M x with x differs even at n = 4.
    """
    cols = X[:, None, :, None]
    Mx = (nodes.M[None, :P] @ cols)[..., 0]
    return (nodes.C[None, :P] @ cols)[..., 0], (Mx[..., None, :] @ cols)[..., 0, 0]


def _finite(a, name: str):
    """a, or NumericError naming its first entry that is not finite (an overflow)."""
    # count_nonzero, not .all(): on arrays this small, call overhead is the cost
    if math.isfinite(a) if isinstance(a, float) else np.count_nonzero(np.isfinite(a)) == a.size:
        return a
    a = np.ravel(a)
    raise NumericError(f"state is not finite: {name} = {a[~np.isfinite(a)][0]}")


@_QUIET
def omp_packet(hm: HorizonMatrices, W: np.ndarray, X: np.ndarray) -> ControlPacket:
    """Orthogonal matching pursuit for the sparsity-minimizing packet.

    Row r of u depends on row r of X alone (see _solver_input for the
    shapes). solver_iters is the block's total of picks, the sum of each
    packet's support size.

    Each walk goes down hm._omp_nodes (see SupportNodes) from the empty
    support: at node S, with least-squares residual r on S, G'r = C x and
    ||r||^2 = x'M x, and r is never formed. While x'M x exceeds the budget
    x'Wx, pick the unselected column with the largest (C x)_j^2 / ||g_j||^2
    (smallest index on ties), the column whose single-column fit to r
    leaves the smallest error, and step to the child node S + {j}, built
    by the first solve on hm that reaches it. The packet is K x.

    One budget_for call and one product over the first OMP_PREFIX nodes of
    the table, for every row at once, give each row its budget and each of
    those nodes its norm and scores (see _node_products), bit for bit as
    their own products would, so the walks through them are Python only
    (Batch-OMP: Rubinstein, Zibulevsky & Elad, Technion CS-2008-08). A node
    past them, or one built during this call, gets its own products. The
    table's +inf weights score S zero; a pick that still lands on S (every
    score is 0, or a NaN) is taken again with S at -inf, so every pick is
    the one the masked scores give. For budgets built by the design
    procedure the full-support residual is strictly below the budget, so
    the walk ends for every x. A budget, norm or score that is not finite
    (an overflow of a finite state) is never compared: the block is walked
    again row by row, and a row whose own walk overflows is solved at a
    power-of-two scale (see _omp_scaled_rows). Otherwise the first row
    whose walk raises ends the call with its error.

    The block is the fast path: the stacked products cost about as much
    for a few rows as for one, so a single state (n,) pays for the
    broadcast and takes longer than a per-state solve would, while every
    row of a block of five or more costs less.
    """
    X, shape, _, _ = _solver_input(hm, X)
    try:
        u, picks = _omp_walks(hm, W, X)
    except NumericError:
        u, picks = _omp_scaled_rows(hm, W, X)
    return ControlPacket(u.reshape(shape), picks)


def _omp_scaled_rows(hm: HorizonMatrices, W: np.ndarray, X: np.ndarray) -> tuple:
    """omp_packet's (packets, picks) for a block in which a product overflowed.

    Each row is walked on its own. A row whose walk overflows is walked at
    y = 2^-e x, with 2^(e-1) <= max |x| < 2^e, and returned as 2^e times
    y's packet. Scaling by a power of two is exact, so y's budget, norms and
    scores are x's times 4^-e, its picks are those exact arithmetic makes
    at x, and 2^e K y is x's packet. The row is refused with its own
    NumericError where that fails: an entry of y below the normal range,
    whose bits are not x's, or an entry of 2^e K y that overflows. A row
    with max |x| < 1 (e <= 0) is refused as it is: no scale shrinks it.
    """
    rows, picks = [], 0
    for x in X:
        try:
            u, n = _omp_walks(hm, W, x[None])
        except NumericError:
            e = math.frexp(float(np.abs(x).max()))[1]
            y = np.ldexp(x, -e)
            if e <= 0 or np.count_nonzero((y != 0) & (np.abs(y) < np.finfo(float).tiny)):
                raise
            u, n = _omp_walks(hm, W, y[None])
            u = _finite(np.ldexp(u, e), "the packet K x")
        rows.append(u[0])
        picks += n
    return np.array(rows), picks


def _omp_walks(hm: HorizonMatrices, W: np.ndarray, X: np.ndarray) -> tuple:
    """omp_packet's walks for the (b, n) block X: its (b, N) packets and total picks.

    Raises NumericError on the first budget, norm or score that is not finite.
    """
    nodes = hm._omp_nodes
    budgets = budget_for(W, X)
    root = _support_node(hm, 0)
    P = min(nodes.count, OMP_PREFIX)
    c, q = _node_products(nodes, P, X)
    scores = c * c / nodes.w[:P]
    _finite(q, "x'Mx")
    if np.count_nonzero(scores == np.inf):
        raise NumericError(SCORE_OVERFLOW)
    go_rows = (q > budgets[:, None]).tolist()
    pick_rows = scores.argmax(axis=2).tolist()
    ends = []
    # ndarray.dot and .argmax: on arrays this small, call overhead is the cost
    for x, budget, go, picks in zip(X, budgets.tolist(), go_rows, pick_rows):
        i = root
        while go[i] if i < P else _finite(float(x.dot(nodes.M[i].dot(x))), "x'Mx") > budget:
            cols = nodes.cols[i]
            if cols.size == hm.N:
                raise FeasibilityError(
                    "all columns selected but the residual still exceeds the budget",
                    residual_sq=float(x.dot(nodes.M[i].dot(x))), budget=budget)
            if i >= P or nodes.masks[i] >> picks[i] & 1:
                ci = nodes.C[i].dot(x)
                score = ci * ci / hm.col_norm_sq
                score[cols] = -np.inf
                j = int(score.argmax())
                if score[j] == np.inf:    # the largest, or the first NaN
                    raise NumericError(SCORE_OVERFLOW)
            else:
                j = picks[i]
            k = nodes.child[i][j]
            if k < 0:
                k = nodes.child[i][j] = _support_node(hm, nodes.masks[i] | 1 << j, j)
            i = k
        ends.append(i)
    u = np.array([nodes.K[i].dot(x) for i, x in zip(ends, X)])
    return u, sum(nodes.cols[i].size for i in ends)


@_QUIET
def exhaustive_l0_packet(hm: HorizonMatrices, W: np.ndarray, X: np.ndarray) -> ControlPacket:
    """Globally sparsity-minimal packet by support enumeration.

    One budget_for call gives every row of X its budget, and each row has
    its own search: it scans support sizes k = 0, 1, ... and within each
    size the supports in lexicographic order, taking the first feasible
    restricted least-squares solution.
    solver_iters is the block's total of supports examined. Each size is
    one stacked QR of every G[:, S] and one stacked solve of R coef = Q'Hx.
    A support whose R has an exact zero on its diagonal is singular, and
    raises if it comes before the first feasible one; the first row whose
    search raises ends the call. A residual ||Hx||^2 or ||G u - Hx||^2
    that overflows raises NumericError before a comparison reads it.
    Exponential in N; refused above
    ORACLE_CAP. Intended as the correctness oracle for the greedy solver,
    not for control loops at scale, so it shares no code with it.
    """
    if hm.N > ORACLE_CAP:
        raise ConfigError(
            f"exhaustive search refused for N = {hm.N} > cap {ORACLE_CAP}")
    X, shape, _, _ = _solver_input(hm, X)
    found = [_l0_search(hm, x, budget) for x, budget in zip(X, budget_for(W, X).tolist())]
    return ControlPacket(np.array([u for u, _ in found]).reshape(shape),
                         sum(examined for _, examined in found))


def _l0_search(hm: HorizonMatrices, x: np.ndarray, budget: float) -> tuple:
    """exhaustive_l0_packet's search for one state x: its packet and supports examined."""
    slack = FEASIBILITY_SLACK * max(1.0, budget)
    Hx = hm.H @ x
    examined = 0

    if float(_finite(Hx @ Hx, "||Hx||^2")) <= budget + slack:
        return np.zeros(hm.N), 0
    for k in range(1, hm.N + 1):
        supports = np.array(list(combinations(range(hm.N), k)))
        Gs = hm.G[:, supports].swapaxes(0, 1)           # (supports, rows, k)
        Qs, Rs = np.linalg.qr(Gs)
        singular = np.any(np.diagonal(Rs, axis1=-2, axis2=-1) == 0.0, axis=-1)
        Rs[singular] = np.eye(k)    # solvable stand-ins; a singular support never returns
        coef = np.linalg.solve(Rs, (Qs.swapaxes(-1, -2) @ Hx)[..., None])
        # matmul, not einsum or sum: each row gets the bits of its own r @ r
        r = Hx - (Gs @ coef)[..., 0]
        residual_sq = _finite((r[:, None, :] @ r[:, :, None])[:, 0, 0], "residual")
        hits = np.flatnonzero(singular | (residual_sq <= budget + slack))
        if hits.size:
            i = int(hits[0])
            if singular[i]:
                raise SolverFailureError(
                    f"support {tuple(supports[i].tolist())} solve failed: singular matrix")
            u = np.zeros(hm.N)
            u[supports[i]] = coef[i, :, 0]
            return u, examined + i + 1
        examined += len(supports)
    raise FeasibilityError("no feasible support found up to full size",
                           residual_sq=None, budget=budget)


def _row_products(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A x for one vector x (n,) or each row x of a block X (..., n).

    A stacked matmul, A times each row as a column, makes row by row the
    BLAS call of A @ x alone, so every row gets the bits of its own
    product. A single product X @ A.T, or an einsum, need not.
    """
    return (A @ X[..., None])[..., 0]


def _finite_products(A: np.ndarray, X: np.ndarray, name: str) -> np.ndarray:
    """_row_products(A, X), or NumericError naming its first entry that overflowed float64."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused just below
        AX = _row_products(A, X)
    return _finite(AX, name)


def least_squares_packet(hm: HorizonMatrices, X: np.ndarray) -> ControlPacket:
    """Unconstrained minimizer of ||G u - H x||^2 (generically dense).

    It is the least-squares packet K x of the full-support node of the
    OMP table (see _support_node); build_horizon has already refused a G
    without full column rank. A K x that overflows raises NumericError.
    """
    X, shape, _, _ = _solver_input(hm, X)
    K = hm._omp_nodes.K[_support_node(hm, (1 << hm.N) - 1)]
    return ControlPacket(_finite_products(K, X, "K x").reshape(shape), 1)


def _l2_gain(hm: HorizonMatrices, nu2: float) -> np.ndarray:
    """K = (nu2 I + G'G)^-1 G'H, kept read-only in hm._l2_gains; a failed build keeps none."""
    K = hm._l2_gains.get(nu2)
    if K is None:
        try:
            K = np.linalg.solve(nu2 * np.eye(hm.N) + hm.GtG, hm.GtH)
        except np.linalg.LinAlgError as exc:
            raise SolverFailureError(f"nu2 I + G'G solve failed: {exc}") from exc
        K.setflags(write=False)
        hm._l2_gains[nu2] = K
    return K


def l2_packet(hm: HorizonMatrices, X: np.ndarray, nu2) -> ControlPacket:
    """Tikhonov-regularized packet (nu2 I + G'G)^-1 G'H x, as K x (see _l2_gain).

    With one number nu2 every row is K x; with a (b,) array, a value per
    row, row r is K_r x_r with its own value's gain, taken once per distinct
    value. One stacked product makes, row by row, the call of K x alone, so
    each row has the bits of its own one-value solve. A K x that overflows
    raises NumericError.
    """
    X, shape, nu, _ = _solver_input(hm, X, nu2, "nu2")
    if np.ndim(nu):
        values, at = np.unique(nu, return_inverse=True)
        K = np.array([_l2_gain(hm, v) for v in values.tolist()])[at]
    else:
        K = _l2_gain(hm, nu)
    return ControlPacket(_finite_products(K, X, "K x").reshape(shape), 1)


SIDES = np.array([[1.0], [-1.0]])     # join ratio rows: c_j reaches +lam, then -lam


def _l1_gathers(hm: HorizonMatrices, mask: int) -> tuple:
    """Read-only (S, (G'G)_SS, G_S, (G'G)_:S) of the support with bitmask mask.

    S is ascending, and each gather is the array indexing gives, layout
    included, so products keep their bits. Kept in hm._l1_gathers.
    """
    ops = hm._l1_gathers.get(mask)
    if ops is None:
        S = np.array([i for i in range(hm.N) if mask >> i & 1], dtype=np.intp)
        ops = hm._l1_gathers[mask] = (S, hm.GtG[S[:, None], S], hm.G[:, S], hm.GtG[:, S])
        for a in ops:
            a.setflags(write=False)
    return ops


def _kkt_gap(u: np.ndarray, c: np.ndarray, nu1) -> np.ndarray:
    """Largest miss of c_j = nu1 sign(u_j) on u's support and |c_j| <= nu1 off it.

    u and c are one row (N,) or rows (g, N), and nu1 a value or one per row.
    """
    nu1 = np.asarray(nu1)[..., None]
    return np.max(np.where(u != 0.0, np.abs(c - nu1 * np.sign(u)), np.abs(c) - nu1), axis=-1)


@_QUIET
def l1l2_packet(hm: HorizonMatrices, X: np.ndarray, nu1, guess: np.ndarray = None) -> ControlPacket:
    """Exact minimizer of nu1 ||u||_1 + 0.5 ||G u - H x||^2 by the lasso homotopy.

    Row r of u depends on row r of X and nu1 alone; nu1 is one number or
    a (b,) array, a value per row. guess, the loop's previous packets, is
    None or shaped like u; a row of zeros is no guess.

    On the active set S with signs s, u_S(lam) = (G'G)_SS^-1 (G'Hx_S -
    lam s) (Osborne, Presnell & Turlach 2000). A row with ||G'Hx||_inf <=
    nu1 gets the zero packet. A row's guess is tried first: that support
    and signs at lam = nu1, kept if every coefficient keeps its sign (an
    exact zero does not) and the KKT conditions hold (Ferreau, Bock & Diehl
    2008); the minimizer is unique, so it is the walk's packet to the bit.
    Any other row walks from u = 0 at lam = ||G'Hx||_inf down to nu1 (see
    _l1_walk). solver_iters is the block's total: per row 0 for the zero
    packet, 1 for a certified guess, else the walk's breakpoints, plus 1 if
    a guess was tried.

    One stacked G'H x gives every row its zero test, and the guessed rows
    are solved per sign pattern: one broadcast solve of (G'G)_SS against
    each row's own [s_S, b_S - nu1 s_S], then stacked correlations (the
    Batch-OMP saving of Rubinstein, Zibulevsky & Elad applied to the
    homotopy). Stacked matmul and a broadcast solve make, row by row, the
    call of that row alone, so each row gets the bits of its own solve.
    Only rows that miss walk, one at a time. A non-finite G'Hx raises
    NumericError before any row is solved; otherwise the first walk that
    raises ends the call, with NumericError where its KKT gap is not finite
    (an overflow).
    """
    X, shape, nu, guess = _solver_input(hm, X, nu1, "nu1", guess)
    B = _finite(_row_products(hm.GtH, X), "G'Hx")
    lam0 = np.abs(B).max(axis=1)
    u = np.zeros((len(X), hm.N))
    rows = (lam0 > nu).nonzero()[0]
    iters = 0
    if rows.size:
        nu = np.full(lam0.shape, nu)    # a value per row
        HX = _row_products(hm.H, X)
        signs = np.zeros((len(X), hm.N)) if guess is None else np.sign(guess)
        tried = signs.any(axis=1)
        on = tried[rows]
        walk, guessed = rows[~on].tolist(), rows[on]
        if guessed.size:
            missed = _l1_guesses(hm, u, guessed, signs, B, HX, nu, 1e-9 * lam0)
            iters += guessed.size - len(missed)
            walk += missed
        for r in sorted(walk):
            u[r], breaks = _l1_walk(hm, B[r], HX[r], float(lam0[r]), float(nu[r]))
            iters += breaks + int(tried[r])
    return ControlPacket(u.reshape(shape), iters)


def _l1_guesses(hm: HorizonMatrices, u: np.ndarray, rows: np.ndarray, signs: np.ndarray,
                B: np.ndarray, HX: np.ndarray, nu1: np.ndarray, tol: np.ndarray) -> list:
    """Solve each of the rows on its guess's support and signs; return those that miss.

    Row r has guess signs[r], G'Hx = B[r], Hx = HX[r], its nu1[r] and its
    KKT tolerance tol[r]. Rows of one sign pattern share one broadcast
    solve of (G'G)_SS against each row's [s_S, b_S - nu1 s_S], then
    stacked correlations c = G'(Hx - G_S u_S). A row holds when every
    coefficient keeps its sign and the KKT gap is within tol; its packet
    goes into u[r]. A row that misses, the rows of a pattern whose solve
    fails included, leaves its u[r] to the walk.
    """
    c = np.zeros(u.shape)
    groups = {}
    for r in rows.tolist():
        groups.setdefault(signs[r].tobytes(), []).append(r)
    for g in groups.values():
        s, g = signs[g[0]], np.array(g)
        S, GtG_SS, G_S, _ = _l1_gathers(hm, sum(1 << j for j in s.nonzero()[0].tolist()))
        s_S = s[S]
        rhs = np.empty((g.size, S.size, 2))
        rhs[..., 0] = s_S
        rhs[..., 1] = B[g[:, None], S] - nu1[g, None] * s_S
        try:
            U = np.linalg.solve(GtG_SS, rhs)[..., 1]
        except np.linalg.LinAlgError:
            continue                    # u stays 0, which holds for no guess
        u[g[:, None], S] = U
        c[g] = _row_products(hm.G.T, HX[g] - _row_products(G_S, U))
    # every row of the block is checked; only the guessed rows are read
    held = (np.sign(u) == signs).all(axis=1) & (_kkt_gap(u, c, nu1) <= tol)
    return rows[~held[rows]].tolist()


def _l1_walk(hm: HorizonMatrices, b: np.ndarray, Hx: np.ndarray, lam0: float,
             nu1: float) -> tuple:
    """The lasso homotopy of one state, with b = G'Hx: its packet and breakpoints.

    The walk starts from u = 0 at lam = lam0 = ||b||_inf > nu1 and ends at
    nu1. At a breakpoint an inactive correlation g_j'(Hx - G u) reaches
    +-lam (j joins) or a coefficient moving toward zero reaches 0 (j
    leaves, barred from rejoining on that side at once); u_S is re-solved
    there and at nu1. Over 50 N breakpoints or a packet that misses the KKT
    conditions raise SolverFailureError, a gap that is not finite (an
    overflow) NumericError.
    """
    N, Gt = hm.N, hm.G.T
    j = int(np.abs(b).argmax())
    s, lam, mask, left = np.zeros(N), lam0, 1 << j, (0, j)
    s[j] = np.sign(b[j])
    # the active columns, and left: the (side, column) that left last
    blocked = np.zeros((2, N), dtype=bool)
    blocked[:, j] = True
    with np.errstate(divide="ignore", invalid="ignore"):
        for iters in range(50 * N):
            S, GtG_SS, G_S, GtG_S = _l1_gathers(hm, mask)
            s_S = s[S]
            try:    # d and u_S from one solve against [s_S, b_S - lam s_S]
                d, u_S = np.linalg.solve(GtG_SS, np.array((s_S, b[S] - lam * s_S)).T).T
            except np.linalg.LinAlgError as exc:
                raise SolverFailureError(f"active-set solve failed: {exc}") from exc
            c = Gt @ (Hx - G_S @ u_S)
            if lam == nu1:
                u = np.zeros(N)
                u[S] = u_S
                worst = float(_kkt_gap(u, c, nu1))
                if worst <= 1e-9 * lam0:
                    return u, iters
                if not math.isfinite(worst):
                    raise NumericError(f"state is not finite: the KKT gap is {worst}")
                raise SolverFailureError(
                    f"lasso packet misses the KKT conditions by {worst:.3g}", residual=worst)
            # as lam drops by g, u_S moves by g d and c by -g a
            join = (lam - SIDES * c) / (1.0 - SIDES * (GtG_S @ d))
            join[blocked | ~(join > 0.0)] = np.inf
            side, j = divmod(int(join.argmin()), N)
            leave = np.where(d * s_S < 0.0, -u_S / d, np.inf)
            i = int(leave.argmin())
            if min(join[side, j], leave[i]) >= lam - nu1:
                lam = nu1
                continue
            blocked[left] = s[left[1]] != 0.0   # its bar lifts, unless it is active
            if leave[i] <= join[side, j]:
                lam -= max(leave[i], 0.0)
                side, j = int(s[S[i]] < 0), int(S[i])
                s[j] = 0.0
                blocked[1 - side, j] = False
            else:
                lam -= join[side, j]
                s[j] = 1.0 - 2.0 * side
                blocked[:, j] = True
            left = (side, j)
            mask ^= 1 << j
    raise SolverFailureError(f"lasso path exceeded {50 * N} breakpoints")
