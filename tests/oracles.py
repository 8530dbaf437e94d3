"""Independent reference implementations used only to check the package.

Each oracle takes a deliberately different route from the production code:
Taylor series instead of Pade for the exponential, a QZ deflating-subspace
solve instead of fixed-point iteration for the Riccati equation, explicit
matrix powers instead of incremental assembly, power iteration instead of
eigh, one pencil per row block instead of the stacked design constants,
a stepwise trace interpreter instead of the delivery-age schedule,
a bit-by-bit run counter instead of the delivery ages, a
per-pick QR refactorization instead of the incremental Gram-Schmidt OMP,
one QR per support instead of the stacked exhaustive search,
a per-state linear solve instead of the cached l2 and least-squares gains,
the lasso optimality (KKT) conditions, checked column by column,
instead of the homotopy path, a two-stage l1 solver (a guess certified
on its own, else a walk that gathers G'G afresh at every breakpoint)
instead of the one active-set loop, an explicit Huffman tree walked for
its codewords instead of two queues of merges, Counters of each position's
coded indices instead of the keyed np.unique of the bit account, per-column Counters instead
of np.unique, the '0'/'1' string codec (dictionary prefix matching and
byte-by-byte hex packing) instead of integer code tables, a delivery-by-delivery
walk instead of the masked Lyapunov counts, CSV text rendered a row
and a cell at a time instead of a column at a time, its per-k summaries
summed trial by trial in Python, a sweep that runs one Monte Carlo
run per grid value instead of one batch for the whole grid, and a bit-rate
experiment that runs each controller's training and test trials as two
Monte Carlo runs, each drawing its inputs afresh, instead of one run of
both phases on inputs drawn once, a dropout chain stepped on numpy scalars
in an int8 array instead of Python floats in a list, and a CSV writer that
maps str over every cell and joins each row instead of filling one line
template per chunk of rows.
"""

import statistics

import numpy as np
import scipy.linalg as sla

from sparseppc.channel import ChannelTrace


def expm_taylor(M: np.ndarray) -> np.ndarray:
    """exp(M) by scaling (norm below 1/4), long Taylor sum, and squaring."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    norm = np.linalg.norm(M, 1)
    s = max(0, int(np.ceil(np.log2(norm / 0.25)))) if norm > 0.25 else 0
    A = M / (2.0**s)
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, 60):
        term = term @ A / k
        out = out + term
        if np.linalg.norm(term, 1) < 1e-20 * max(1.0, np.linalg.norm(out, 1)):
            break
    for _ in range(s):
        out = out @ out
    return out


def zoh_taylor(Ac: np.ndarray, Bc: np.ndarray, Ts: float):
    """ZOH pair from the Taylor exponential of the augmented matrix."""
    n = Ac.shape[0]
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = Ac
    M[:n, n] = Bc
    E = expm_taylor(M * Ts)
    return E[:n, :n], E[:n, n]


def dare_qz(A: np.ndarray, B: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Stabilizing Riccati solution from the stable deflating subspace.

    Builds the extended symplectic-style pencil of the zero-input-weight
    LQ problem and reads P off the ordered QZ decomposition. Completely
    independent of the fixed-point iteration in the package.
    """
    n = A.shape[0]
    B2 = B.reshape(n, 1)
    L = np.zeros((2 * n + 1, 2 * n + 1))
    M = np.zeros_like(L)
    L[:n, :n] = np.eye(n)
    L[n:2 * n, n:2 * n] = A.T
    L[2 * n:, n:2 * n] = B2.T
    M[:n, :n] = A
    M[:n, 2 * n:] = B2
    M[n:2 * n, :n] = -Q
    M[n:2 * n, n:2 * n] = np.eye(n)
    _, _, alpha, beta, _, Z = sla.ordqz(M, L, sort="iuc")
    with np.errstate(divide="ignore", invalid="ignore"):
        inside = np.abs(alpha / beta) < 1.0
    if int(np.sum(inside)) != n:
        raise AssertionError(f"expected {n} stable eigenvalues, found {np.sum(inside)}")
    X = Z[:n, :n]
    Lam = Z[n:2 * n, :n]
    P = Lam @ np.linalg.inv(X)
    return 0.5 * (P + P.T)


def scalar_dare_value_iteration(a: float, b: float, q: float, iters: int = 10_000) -> float:
    p = q
    for _ in range(iters):
        p = a * a * p - (a * p * b) ** 2 / (b * b * p) + q
    return p


def naive_horizon(A: np.ndarray, B: np.ndarray, Q: np.ndarray, P: np.ndarray, N: int):
    """Triple-loop block assembly with explicit matrix powers and sqrtm."""
    n = A.shape[0]
    Phi = np.zeros((N * n, N))
    for i in range(N):
        for j in range(N):
            if i >= j:
                Phi[i * n:(i + 1) * n, j] = np.linalg.matrix_power(A, i - j) @ B
    Upsilon = np.zeros((N * n, n))
    for i in range(N):
        Upsilon[i * n:(i + 1) * n, :] = np.linalg.matrix_power(A, i + 1)
    QbarSqrt = np.zeros((N * n, N * n))
    for i in range(N):
        blk = P if i == N - 1 else Q
        QbarSqrt[i * n:(i + 1) * n, i * n:(i + 1) * n] = np.real(sla.sqrtm(blk))
    return Phi, Upsilon, QbarSqrt @ Phi, -QbarSqrt @ Upsilon


def recursion_cost(A, B, Q, P, u, x) -> float:
    """Horizon cost by forward state recursion (no stacked operators)."""
    N = len(u)
    xi = np.asarray(x, dtype=float)
    total = 0.0
    for i in range(N):
        xi = A @ xi + B * u[i]
        Wght = P if i == N - 1 else Q
        total += float(xi @ Wght @ xi)
    return total


def pencil_lmax_power(M: np.ndarray, S: np.ndarray, iters: int = 20_000) -> float:
    """Largest pencil eigenvalue via power iteration on inv(S) M."""
    T = np.linalg.inv(S) @ M
    rng = np.random.default_rng(1234)
    v = rng.standard_normal(M.shape[0])
    lam = 0.0
    for _ in range(iters):
        w = T @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        lam_new = float(v @ (T @ v)) / float(v @ v)
        if abs(lam_new - lam) <= 1e-14 * max(1.0, abs(lam_new)):
            return lam_new
        lam = lam_new
    return lam


def pencil_lmin_power(M: np.ndarray, S: np.ndarray, iters: int = 20_000) -> float:
    return 1.0 / pencil_lmax_power(S, M, iters)


def design_constants_reference(m, Q, P, N: int, hm) -> tuple:
    """(c1, rho, c) with one pencil_eigvals call per n x N row block of Phi."""
    from sparseppc.linalg import pencil_eigvals

    c1 = max(float(pencil_eigvals(Phi_i.T @ P @ Phi_i, hm.GtG)[-1])
             for Phi_i in hm.Phi.reshape(N, m.n, N))
    rho = 1.0 - float(pencil_eigvals(Q, P)[0])
    rho = 0.0 if -1e-10 < rho < 0.0 else rho
    return c1, rho, (1.0 - rho**N) / (1.0 - rho) * c1


def omp_reference(hm, W, x):
    """Greedy OMP that refactors the whole support with a QR at every pick.

    Scores each unselected column by the error of its single-column fit,
    e_j = ||g_j z_j - r||^2 with z_j = g_j'r / ||g_j||^2, picks the
    minimizer (smallest index on ties), and re-solves the least squares on
    the enlarged support from scratch. Returns the packet and the columns
    in the order they were picked.
    """
    from sparseppc.controllers import _support_lsq
    from sparseppc.errors import FeasibilityError

    x = np.asarray(x, dtype=float)
    budget = float(x @ W @ x)
    Hx = hm.H @ x
    u = np.zeros(hm.N)
    r = Hx.copy()
    support = []
    while float(r @ r) > budget:
        if len(support) == hm.N:
            raise FeasibilityError("all columns selected but the budget is still exceeded",
                                   residual_sq=float(r @ r), budget=budget)
        z = (hm.G.T @ r) / hm.col_norm_sq
        e = np.sum((hm.G * z[None, :] - r[:, None]) ** 2, axis=0)
        e[support] = np.inf
        support.append(int(np.argmin(e)))
        coef, Gs = _support_lsq(hm.G, support, Hx)
        u = np.zeros(hm.N)
        u[support] = coef
        r = Hx - Gs @ coef
    return u, support


def omp_node_reference(hm, W, x, ops=None):
    """OMP as a walk that takes each support's own products, node by node.

    The per-node form the support-node table replaced: at the support S
    picked so far, with operators (C, M, K, cols) from one QR of G[:, S],
    stop once x.dot(M.dot(x)) meets the budget, else score C.dot(x) with
    S at -inf and step to S + {argmax}. ops, a dict from support bitmask to
    operators, lets a caller keep them across calls. Returns the packet
    K.dot(x) and its solver_iters, len(S).
    """
    from sparseppc.controllers import _support_lsq
    from sparseppc.errors import FeasibilityError, SolverFailureError

    ops = {} if ops is None else ops

    def operators(mask, j=None):
        if mask not in ops:
            cols = np.array([i for i in range(hm.N) if mask >> i & 1], dtype=np.intp)
            K = np.zeros((hm.N, hm.n))
            E = hm.H
            if cols.size:
                try:
                    coef, Gs = _support_lsq(hm.G, cols, hm.H)
                except np.linalg.LinAlgError as exc:
                    raise SolverFailureError(f"column {j}: support solve failed on "
                                             f"{cols.tolist()}: {exc}") from exc
                if not np.all(np.isfinite(coef)):
                    raise SolverFailureError(f"column {j}: no finite least-squares fit "
                                             f"on the support {cols.tolist()}")
                K[cols] = coef
                E = hm.H - Gs @ coef
            ops[mask] = (hm.G.T @ E, E.T @ E, K, cols)
        return ops[mask]

    x = np.asarray(x, dtype=float)
    budget = float(x @ W @ x)
    mask = 0
    C, M, K, cols = operators(mask)
    while float(x.dot(M.dot(x))) > budget:
        if cols.size == hm.N:
            raise FeasibilityError(
                "all columns selected but the residual still exceeds the budget",
                residual_sq=float(x.dot(M.dot(x))), budget=budget)
        c = C.dot(x)
        score = c * c / hm.col_norm_sq
        score[cols] = -np.inf
        j = int(score.argmax())
        mask |= 1 << j
        C, M, K, cols = operators(mask, j)
    return K.dot(x), cols.size


def exhaustive_reference(hm, W, x):
    """Exhaustive l0 search solving one support at a time.

    Sizes k = 0, 1, ... and within each size the supports in lexicographic
    order; returns the packet of the first support whose least-squares
    residual meets the budget and the number of supports examined.
    """
    from itertools import combinations

    from sparseppc.controllers import FEASIBILITY_SLACK, _support_lsq
    from sparseppc.errors import SolverFailureError

    x = np.asarray(x, dtype=float)
    budget = float(x @ W @ x)
    slack = FEASIBILITY_SLACK * max(1.0, budget)
    Hx = hm.H @ x
    if float(Hx @ Hx) <= budget + slack:
        return np.zeros(hm.N), 0
    examined = 0
    for k in range(1, hm.N + 1):
        for support in combinations(range(hm.N), k):
            examined += 1
            try:
                coef, Gs = _support_lsq(hm.G, list(support), Hx)
            except np.linalg.LinAlgError as exc:
                raise SolverFailureError(f"support {support} solve failed: {exc}") from exc
            r = Hx - Gs @ coef
            if float(r @ r) <= budget + slack:
                u = np.zeros(hm.N)
                u[list(support)] = coef
                return u, examined
    raise AssertionError("no feasible support found up to full size")


def l2_reference(hm, x, nu2) -> np.ndarray:
    """Tikhonov packet by one solve of (nu2 I + G'G) u = G'H x for this x."""
    x = np.asarray(x, dtype=float)
    return np.linalg.solve(nu2 * np.eye(hm.N) + hm.G.T @ hm.G, hm.G.T @ hm.H @ x)


def least_squares_reference(hm, x) -> np.ndarray:
    """Least-squares packet from a QR of the whole G: solve R u = Q'(H x)."""
    Qf, Rf = np.linalg.qr(hm.G)
    return np.linalg.solve(Rf, Qf.T @ (hm.H @ np.asarray(x, dtype=float)))


def lasso_kkt_violation(hm, x, u, nu1) -> float:
    """How far u is from minimizing nu1 ||u||_1 + 0.5 ||G u - H x||^2.

    With r = Hx - G u, u is optimal iff |g_j'r| <= nu1 for every j with
    u_j = 0 and g_j'r = nu1 sign(u_j) for every j with u_j != 0. Returns
    the largest violation of these conditions relative to
    max(nu1, ||G'Hx||_inf); a certified packet returns at most 1e-9.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    Hx = hm.H @ x
    r = Hx - hm.G @ u
    worst = 0.0
    for j in range(hm.N):
        g = hm.G[:, j]
        if u[j] == 0.0:
            worst = max(worst, abs(g @ r) - nu1)
        else:
            worst = max(worst, abs(g @ r - nu1 * np.sign(u[j])))
    return worst / max(nu1, float(np.max(np.abs(hm.G.T @ Hx))))


# A two-stage l1 solver: the guess is certified on its own, and a miss
# walks from scratch, gathering G'G afresh at every breakpoint.
# l1l2_packet must give its packets and iteration counts exactly.
def _active_set_point(hm, Hx, b, s, S, lam):
    """Direction d, point u_S and correlations c = G'(Hx - G_S u_S) at lam.

    One solve of (G'G)_SS against [s_S, G'Hx_S - lam s_S], shared by the
    walk and the warm start so that equal (S, s, lam) give equal bits.
    """
    s_S = s[S]
    d, u_S = np.linalg.solve(hm.GtG[S[:, None], S],
                             np.stack((s_S, b[S] - lam * s_S), axis=1)).T
    return d, u_S, hm.G.T @ (Hx - hm.G[:, S] @ u_S)


def _kkt_gap(u, c, nu1) -> float:
    """Largest miss of c_j = nu1 sign(u_j) on u's support and |c_j| <= nu1 off it."""
    return float(np.max(np.where(u != 0.0, np.abs(c - nu1 * np.sign(u)), np.abs(c) - nu1)))


def l1l2_reference(hm, x, nu1, guess=None):
    """Exact minimizer of nu1 ||u||_1 + 0.5 ||G u - H x||^2 by the lasso homotopy.

    A guess, any candidate packet, with nonzeros is tried first; only its
    signs are read. Its support and signs, solved at nu1 as the walk's
    last step would solve them, give the packet when every coefficient
    keeps its guessed sign (an exact zero does not) and the KKT conditions
    hold (Ferreau, Bock & Diehl 2008). The minimizer is unique, so a
    certified guess returns the packet the walk would, unless a coefficient
    is within the KKT tolerance of 0. Otherwise the walk runs from
    scratch: it takes lam from ||G'Hx||_inf (u = 0) down to nu1 (Osborne,
    Presnell & Turlach 2000). On the active set S with signs s, u_S(lam) =
    (G'G)_SS^-1 (G'Hx_S - lam s). A breakpoint is where an inactive
    correlation g_j'(Hx - G u) reaches +-lam (j joins) or a coefficient
    moving toward zero reaches 0 (j leaves, barred from rejoining on the
    same side at once); u_S is re-solved at each one and at nu1. Over 50 N
    breakpoints, or a packet that misses the KKT conditions, raises
    SolverFailureError; a G'Hx or a KKT gap that is not finite (an
    overflow of a finite x) raises NumericError. solver_iters is 0 for the
    zero packet, 1 for a certified guess, and otherwise the walk's
    breakpoints, plus 1 if a guess was tried.
    """
    from sparseppc.controllers import ControlPacket
    from sparseppc.errors import ConfigError, NumericError, SolverFailureError

    if not (nu1 > 0.0):
        raise ConfigError(f"nu1 must be positive, got {nu1}")
    x = np.asarray(x, dtype=float)
    N = hm.N
    b = hm.GtH @ x
    if not np.all(np.isfinite(b)):
        raise NumericError(f"state is not finite: G'Hx = {b[~np.isfinite(b)][0]}")
    lam = lam0 = float(np.max(np.abs(b)))
    if not lam > nu1:
        return ControlPacket(np.zeros(N), 0)
    Hx = hm.H @ x
    tried = guess is not None and bool(np.any(guess))
    if tried:
        s = np.sign(guess)
        S = np.flatnonzero(s)
        try:
            u_S, c = _active_set_point(hm, Hx, b, s, S, nu1)[1:]
        except np.linalg.LinAlgError:
            pass                    # the walk has the last word
        else:
            if np.array_equal(np.sign(u_S), s[S]):
                u = np.zeros(N)
                u[S] = u_S
                if _kkt_gap(u, c, nu1) <= 1e-9 * lam0:
                    return ControlPacket(u, 1)

    s = np.zeros(N)                 # signs on the active set, 0 off it
    j = int(np.argmax(np.abs(b)))
    s[j] = np.sign(b[j])
    left = (0, j)                   # (side, column) barred from rejoining
    for iters in range(50 * N):
        S = np.flatnonzero(s)
        try:
            d, u_S, c = _active_set_point(hm, Hx, b, s, S, lam)
        except np.linalg.LinAlgError as exc:
            raise SolverFailureError(f"active-set solve failed: {exc}") from exc
        if lam == nu1:
            break
        # as lam drops by g, u_S moves by g d and c by -g a
        a = hm.GtG[:, S] @ d
        leave = np.full(N, np.inf)
        with np.errstate(divide="ignore", invalid="ignore"):
            join = np.stack([(lam - c) / (1.0 - a), (lam + c) / (1.0 + a)])
            leave[S] = np.where(d * s[S] < 0.0, -u_S / d, np.inf)
        join[:, S] = join[left] = np.inf
        join[~(join > 0.0)] = np.inf
        side, j = np.unravel_index(np.argmin(join), join.shape)
        i = int(np.argmin(leave))
        if min(join[side, j], leave[i]) >= lam - nu1:
            lam = nu1
        elif leave[i] <= join[side, j]:
            lam -= max(leave[i], 0.0)
            left, s[i] = (int(s[i] < 0), i), 0.0
        else:                       # j is active now, so left bars nothing
            lam -= join[side, j]
            left, s[j] = (side, j), 1.0 - 2.0 * side
    else:
        raise SolverFailureError(f"lasso path exceeded {50 * N} breakpoints")

    u = np.zeros(N)
    u[S] = u_S
    worst = _kkt_gap(u, c, nu1)
    if not np.isfinite(worst):
        raise NumericError(f"state is not finite: the KKT gap is {worst}")
    if not worst <= 1e-9 * lam0:
        raise SolverFailureError(f"lasso packet misses the KKT conditions by {worst:.3g}",
                                 residual=worst)
    return ControlPacket(u, iters + tried)


def receding_guess(packet) -> np.ndarray:
    """The l1l2 loop's guess from a row's last packet, one row at a time:
    the packet shifted one step (entry i + 1 to i, a 0 last), or the packet
    itself where that shift is all zero."""
    packet = [float(v) for v in packet]
    shifted = packet[1:] + [0.0]
    return np.array(shifted if any(v != 0.0 for v in shifted) else packet)


def receding_guesses(packets) -> np.ndarray:
    """receding_guess of each row of a (rows, N) array of last packets."""
    return np.array([receding_guess(p) for p in packets]).reshape(np.shape(packets))


def sweep_reference(cfg, family, grid, match_perf=None):
    """sim.sweep_regularization as one monte_carlo run per grid value.

    Each grid value gets its own run of cfg.trials trials on the shared
    setup, whose inputs it draws afresh, its mean performance over that
    run's successful trials and, noise-free, that run's total_violations.
    """
    from dataclasses import replace

    from sparseppc import sim
    from sparseppc.errors import ConfigError
    from sparseppc.linalg import finite_real, number_array, shown

    if not (isinstance(family, str) and family in sim.SWEEP_KEYS):
        raise ConfigError(f"sweep family must be one of {tuple(sim.SWEEP_KEYS)}, "
                          f"got {shown(family)}")
    if match_perf is not None and not finite_real(match_perf):
        raise ConfigError(f"match_perf must be a finite number, got {shown(match_perf)}")
    grid = number_array(grid, "sweep grid")
    if grid.ndim != 1 or grid.size == 0:
        raise ConfigError(f"sweep grid must be a non-empty list, got {shown(grid.tolist())}")
    grid = grid.astype(float).tolist()
    subs = [replace(cfg, controller=family, **{sim.SWEEP_KEYS[family]: nu}) for nu in grid]
    # nu does not enter the design, so every grid point shares one setup
    setup = sim.build_setup(subs[0])
    runs = [sim.monte_carlo(sub, setup=setup) for sub in subs]
    perfs = [float(np.mean(run.records.perf)) for run in runs]
    best = int(np.argmin(perfs))
    report = sim.SweepReport(family=family, grid=grid, mean_perf=perfs,
                             argmin_nu=grid[best], argmin_perf=perfs[best])
    if cfg.sigma == 0:
        report.violations = [run.total_violations for run in runs]
    if match_perf is not None:
        near = int(np.argmin([abs(p - match_perf) for p in perfs]))
        report.matched_nu = grid[near]
        report.matched_perf = perfs[near]
    return report


def bitrate_reference(cfg):
    """sim.bitrate_experiment as four monte_carlo runs, one per controller and phase.

    Each (controller, scheme) of BITRATE_PLAN runs its training trials,
    trains its codec, then runs its test trials in a second run; each run
    draws its trials' inputs afresh. Each scheme's entry holds its two
    runs, train and test, where sim.SchemeRun holds the controller's one.
    """
    from dataclasses import replace
    from types import SimpleNamespace

    from sparseppc import sim
    from sparseppc.errors import ConfigError

    if not cfg.sigma > 0:
        raise ConfigError("bitrate experiment requires gaussian noise with sigma > 0")
    if cfg.N % 2 != 0:
        raise ConfigError("sparse scheme requires an even packet length")
    setup = sim.build_setup(cfg)
    quantizer = sim.Quantizer(delta=cfg.quantizer_delta)

    schemes = {}
    failures = []
    roundtrip_failures = 0
    max_quant_error = 0.0

    def run(name, namespace, trials):
        # one phase of trials, each drawing its inputs afresh, as a run of its own
        rows = [(t, *sim.trial_inputs(cfg, setup, namespace, t)) for t in range(trials)]
        return sim.monte_carlo(replace(cfg, controller=name, trials=trials), setup=setup,
                               inputs=[rows])

    for name, scheme in sim.BITRATE_PLAN:
        train = run(name, sim.NS_TRAIN, cfg.train_trials)
        samples = sim.quantize_packet(quantizer, train.records.packets)
        codec = sim.train_codec(samples.reshape(-1, cfg.N), scheme, quantizer)
        test = run(name, sim.NS_TEST, cfg.trials)
        packets = test.records.packets
        indices = sim.quantize_packet(quantizer, packets)
        err = float(np.max(np.abs(packets - sim.dequantize(quantizer, indices))))
        max_quant_error = max(max_quant_error, err)
        encoded = []
        for idx in indices.reshape(-1, cfg.N):
            enc = sim.encode(codec, idx)
            roundtrip_failures += not np.array_equal(sim.decode(codec, enc), idx)
            encoded.append(enc)
        bits = np.array([enc.bit_count for enc in encoded]).reshape(indices.shape[:2])
        schemes[scheme] = SimpleNamespace(controller=name, codec=codec, train=train, test=test,
                                          bits=bits, encoded=encoded)
        failures += [(name, phase, trial, msg) for phase, run in (("train", train), ("test", test))
                     for _, trial, msg in run.failures]

    mean = {run.controller: float(np.mean(run.bits)) for run in schemes.values()}
    return sim.BitrateReport(
        schemes=schemes,
        mean_bits_omp=mean["omp"],
        mean_bits_l2=mean["l2"],
        reduction_pct=100.0 * (1.0 - mean["omp"] / mean["l2"]),
        roundtrip_failures=roundtrip_failures,
        max_quant_error=max_quant_error,
        failures=failures,
    )


def generate_trace_reference(model, T: int, rng):
    """generate_trace's random models, the chain stepped on numpy scalars in an int8 array."""
    p_dd, p_dg = (model.p_drop,) * 2 if model.kind == "iid" else (model.p_dd, model.p_dg)
    uniforms = rng.random(T)
    d = np.zeros(T, dtype=np.int8)
    overrides = 0
    run = 0
    cap = model.N - 1
    for k in range(1, T):
        if uniforms[k] < (p_dd if d[k - 1] else p_dg):
            if run == cap:
                overrides += 1
                run = 0
            else:
                d[k] = 1
                run += 1
        else:
            run = 0
    return ChannelTrace(d=d, N=model.N, overrides=overrides)


def write_csv_reference(path, columns: dict) -> None:
    """write_csv with str mapped over every cell, each row joined, all rows in one writelines."""
    cells = [map(str, np.asarray(col).tolist()) for col in columns.values()]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells, strict=True))


def interpret_trace(d, packets) -> np.ndarray:
    """Reference actuator semantics: u(k) = packet_{k_i}[k - k_i].

    k_i is the latest delivery instant at or before k; packets[k] is the
    packet computed (and possibly lost) at time k.
    """
    d = np.asarray(d)
    out = np.empty(d.size)
    last = None
    for k in range(d.size):
        if d[k] == 0:
            last = k
        out[k] = packets[last][k - last]
    return out


def longest_run(d) -> int:
    """Longest run of consecutive 1s, counted bit by bit."""
    run = best = 0
    for b in d:
        run = run + 1 if b else 0
        best = max(best, run)
    return best


def markov_chain_stats(p_dd: float, p_dg: float, N: int):
    """Stationary facts for the emitted bounded-run dropout chain.

    State r is the current run of consecutive losses (r = 0 after a
    delivery). Returns (pi, override_rate, run_pmf): the stationary
    distribution, the per-step probability of a forced delivery, and the
    distribution of completed run lengths 1..N-1 given a run starts.
    """
    cap = N - 1
    T = np.zeros((cap + 1, cap + 1))
    T[0, 1] = p_dg
    T[0, 0] = 1.0 - p_dg
    for r in range(1, cap):
        T[r, r + 1] = p_dd
        T[r, 0] = 1.0 - p_dd
    if cap >= 1:
        T[cap, 0] = 1.0
    w, V = np.linalg.eig(T.T)
    pi = np.real(V[:, np.argmin(np.abs(w - 1.0))])
    pi = pi / pi.sum()
    override_rate = float(pi[cap] * p_dd) if cap >= 1 else 0.0
    pmf = np.zeros(cap + 1)
    for m in range(1, cap):
        pmf[m] = p_dd ** (m - 1) * (1.0 - p_dd)
    if cap >= 1:
        pmf[cap] = p_dd ** (cap - 1)
    return pi, override_rate, pmf[1:]


def random_reachable(rng, n_lo: int = 1, n_hi: int = 6):
    """Random reachable single-input pair with spectral radius in [0.2, 1.3]."""
    from sparseppc.plant import PlantModel, reachability_rank

    while True:
        n = int(rng.integers(n_lo, n_hi + 1))
        A = rng.standard_normal((n, n))
        sr = max(abs(np.linalg.eigvals(A))) if n > 0 else 0.0
        A *= rng.uniform(0.2, 1.3) / max(sr, 1e-9)
        B = rng.standard_normal(n)
        m = PlantModel(A=A, B=B)
        if reachability_rank(m) == n:
            return m


def random_spd(rng, n: int) -> np.ndarray:
    M = rng.standard_normal((n, n))
    return M.T @ M + 0.1 * np.eye(n)


def huffman_reference(freqs: dict) -> dict:
    """Huffman codewords from an explicit tree, symbol -> bitstring.

    Leaves enter the heap in symbol order (integers ascending, the escape
    symbol last), merges pop the two smallest (frequency, order) entries,
    and the finished tree is walked with 0 for the first child and 1 for
    the second. A single symbol gets the codeword "0".
    """
    import heapq

    symbols = sorted(s for s in freqs if s != "esc") + (["esc"] if "esc" in freqs else [])
    if len(symbols) == 1:
        return {symbols[0]: "0"}
    heap = []
    order = 0
    for sym in symbols:
        heapq.heappush(heap, (freqs[sym], order, sym))
        order += 1
    while len(heap) > 1:
        fa, _, a = heapq.heappop(heap)
        fb, _, b = heapq.heappop(heap)
        heapq.heappush(heap, (fa + fb, order, (a, b)))
        order += 1
    codebook = {}

    def walk(node, prefix):
        if isinstance(node, tuple):
            walk(node[0], prefix + "0")
            walk(node[1], prefix + "1")
        else:
            codebook[node] = prefix

    walk(heap[0][2], "")
    return codebook


def train_codec_reference(samples, scheme: str) -> list:
    """Per-position length tables from a Counter of each column and a heap.

    The head positions (all N for dense, the first N/2 for sparse) count
    every index, the rest only nonzero ones; each alphabet gets the escape
    symbol at count 1, and a length is the depth of its leaf in
    huffman_reference's tree.
    """
    from collections import Counter

    mat = np.asarray(samples)
    head = mat.shape[1] if scheme == "dense" else mat.shape[1] // 2
    tables = []
    for p in range(mat.shape[1]):
        col = [int(v) for v in mat[:, p] if p < head or v != 0]
        freqs = {**Counter(col), "esc": 1}
        tables.append({s: len(w) for s, w in huffman_reference(freqs).items()})
    return tables


def codewords(coder) -> dict:
    """symbol -> '0'/'1' codeword of a PositionCoder, from its integer codes."""
    return {s: format(code, "b").zfill(n) for s, (code, n) in coder.codes.items()}


def packet_bits(enc) -> str:
    """An EncodedPacket's bits as a '0'/'1' string, the padding dropped."""
    return format(int.from_bytes(enc.data, "big"), f"0{8 * len(enc.data)}b")[:enc.bit_count]


def packet_of_bits(bits: str):
    """The EncodedPacket whose bits are the '0'/'1' string bits."""
    from sparseppc.codec import EncodedPacket

    padded = bits + "0" * (-len(bits) % 8)
    return EncodedPacket(int(padded or "0", 2).to_bytes(len(padded) // 8, "big"), len(bits))


def _reference_codebook(lengths: dict) -> dict:
    """symbol -> bitstring: consecutive codewords in (length, symbol order)."""
    symbols = sorted(s for s in lengths if s != "esc") + (["esc"] if "esc" in lengths else [])
    codebook = {}
    code = width = 0
    # a stable sort by length keeps symbol order within each length
    for sym in sorted(symbols, key=lengths.__getitem__):
        code <<= lengths[sym] - width
        width = lengths[sym]
        codebook[sym] = format(code, "b").zfill(width)
        code += 1
    return codebook


def _reference_encode_index(codebook: dict, idx: int) -> str:
    from sparseppc.errors import QuantizerRangeError

    idx = int(idx)
    if not -2 ** 31 <= idx < 2 ** 31:
        raise QuantizerRangeError(f"index {idx} exceeds the 32-bit index range")
    word = codebook.get(idx)
    if word is not None:
        return word
    # Two's-complement raw index after the escape marker.
    return codebook["esc"] + format(idx & 0xFFFFFFFF, "032b")


def _reference_read_symbol(codebook: dict, bits: str, pos: int):
    """Decode one symbol starting at bit offset pos; returns (index, next pos)."""
    from sparseppc.errors import DecodeError

    decode = {w: s for s, w in codebook.items()}
    end = min(len(bits), pos + max(map(len, codebook.values())))
    j = pos
    sym = None
    while j < end:
        j += 1
        sym = decode.get(bits[pos:j])
        if sym is not None:
            break
    if sym is None:
        raise DecodeError("no codeword matches the stream", bit_offset=pos)
    if sym == "esc":
        raw_end = j + 32
        if raw_end > len(bits):
            raise DecodeError("escape raw field runs past the end", bit_offset=j)
        raw = int(bits[j:raw_end], 2)
        if raw >= 2 ** 31:
            raw -= 2 ** 32
        return raw, raw_end
    return int(sym), j


def codec_reference(codec):
    """The string codec: the codec's length tables as '0'/'1' codebooks.

    Returns a namespace of codebooks (one symbol -> bitstring dict per
    position), encode(indices) -> bits, decode(bits) -> indices, which
    matches bitstring prefixes in a dictionary and raises DecodeError at
    the same offsets as the package, and to_hex(bits), which packs the
    zero-padded string eight characters at a time.
    """
    from types import SimpleNamespace

    from sparseppc.errors import DecodeError

    books = [_reference_codebook(c.lengths) for c in codec.coders]
    head = codec.N if codec.scheme == "dense" else codec.N // 2

    def encode(indices) -> str:
        idx = [int(v) for v in indices]
        tail = range(head, codec.N)
        coded = "".join(_reference_encode_index(books[p], idx[p]) for p in range(head))
        bitmap = "".join("1" if idx[p] != 0 else "0" for p in tail)
        flagged = "".join(_reference_encode_index(books[p], idx[p]) for p in tail if idx[p] != 0)
        return coded + bitmap + flagged

    def decode(bits: str) -> np.ndarray:
        idx = np.zeros(codec.N, dtype=np.int64)
        pos = 0
        for p in range(head):
            idx[p], pos = _reference_read_symbol(books[p], bits, pos)
        width = codec.N - head
        if pos + width > len(bits):
            raise DecodeError("bitmap runs past the end", bit_offset=pos)
        bitmap = bits[pos:pos + width]
        pos += width
        for p, flag in zip(range(head, codec.N), bitmap):
            if flag == "1":
                idx[p], pos = _reference_read_symbol(books[p], bits, pos)
        if pos != len(bits):
            raise DecodeError(f"{len(bits) - pos} unread bits after the last symbol",
                              bit_offset=pos)
        return idx

    def to_hex(bits: str) -> str:
        padded = bits + "0" * (-len(bits) % 8)
        return bytes(int(padded[i:i + 8], 2) for i in range(0, len(padded), 8)).hex()

    return SimpleNamespace(codebooks=books, encode=encode, decode=decode, to_hex=to_hex)


def codec_from_dict(doc: dict):
    """Rebuild a codec from codec_to_dict's form as JSON reads it back (string symbols)."""
    from sparseppc.codec import ESCAPE, PacketCodec, PositionCoder, Quantizer

    coders = tuple(PositionCoder(position=c["position"],
                                 lengths={(s if s == ESCAPE else int(s)): n
                                          for s, n in c["lengths"].items()})
                   for c in doc["coders"])
    return PacketCodec(N=doc["N"], quantizer=Quantizer(delta=doc["delta"]),
                       coders=coders, scheme=doc["scheme"])


def bit_account_reference(codec, samples) -> dict:
    """bit_account by a Counter of each position's coded indices and math.log2.

    Totals are ints (bits over all packets), so the split is exact; entropy
    is each position's sum of -c log2(c / n) over its coded indices' counts c,
    per packet.
    """
    import math
    from collections import Counter

    head = codec.N if codec.scheme == "dense" else codec.N // 2
    rows = np.asarray(samples).reshape(-1, codec.N).tolist()
    codewords = escapes = 0
    entropy = []
    for p, coder in enumerate(codec.coders):
        coded = Counter(r[p] for r in rows if p < head or r[p] != 0)
        n = sum(coded.values())
        for v, c in coded.items():
            if v in coder.lengths:
                codewords += c * coder.lengths[v]
            else:
                escapes += c * (coder.lengths["esc"] + 32)
        entropy.append(-sum(c * math.log2(c / n) for c in coded.values()) / len(rows))
    return {"packets": len(rows), "bitmap": codec.N - head, "codewords": codewords,
            "escapes": escapes, "entropy": entropy}


def expected_mean_bits(codec, samples) -> float:
    """Mean encoded size recomputed from code-length tables and raw counts.

    Walks the samples and sums code lengths position by position from the
    length tables directly (plus bitmap bits for the sparse scheme),
    without calling the encoder or looking at a codeword.
    """
    total = 0
    count = 0
    half = codec.N // 2
    for idx in samples:
        bits = 0
        for p, v in enumerate(idx):
            v = int(v)
            in_tail = codec.scheme == "sparse" and p >= half
            if in_tail and v == 0:
                continue
            lengths = codec.coders[p].lengths
            if v in lengths:
                bits += lengths[v]
            else:
                bits += lengths["esc"] + 32  # escape codeword, then the raw field
        if codec.scheme == "sparse":
            bits += half
        total += bits
        count += 1
    return total / count


def lyapunov_audit_reference(result, design):
    """(deliveries, pair violations, burst violations), one delivery at a time.

    For each delivery k_i with ||x(k_i)|| > 1e-9, counts every k inside the
    following burst with V(k) >= V(k_i), and the next delivery k_j if
    V(k_j) >= V(k_i).
    """
    V = np.einsum("ki,ij,kj->k", result.states, design.P, result.states)
    norms = np.linalg.norm(result.states, axis=1)
    deliveries = np.flatnonzero(result.d == 0)
    pair = burst = 0
    for i, ki in enumerate(deliveries):
        if norms[ki] <= 1e-9:
            continue
        kj = deliveries[i + 1] if i + 1 < len(deliveries) else None
        end = kj if kj is not None else len(V)
        for k in range(ki + 1, end):
            if V[k] >= V[ki]:
                burst += 1
        if kj is not None and V[kj] >= V[ki]:
            pair += 1
    return len(deliveries), pair, burst


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _trace_rows(report):
    for r in report.records.rows():
        for k, dk in enumerate(r.d):
            yield (r.trial, k, int(dk))


def _trajectory_rows(report):
    for r in report.records.rows():
        for k in range(len(r.norms)):
            yield (r.trial, k, float(r.norms[k]), float(r.V[k]),
                   float(r.u_applied[k]), int(r.sparsity[k]))


def _summary_rows(report):
    # sequential sums, as numpy reduces over trials, so means agree to the bit
    rows = report.records.rows()
    for k in range(report.cfg.steps):
        norms = [float(r.norms[k]) for r in rows]
        V = [float(r.V[k]) for r in rows]
        sparsity = [int(r.sparsity[k]) for r in rows]
        yield (k, sum(norms) / len(norms), statistics.median(norms), max(norms),
               sum(V) / len(V), sum(sparsity) / len(sparsity))


def coded_rows(run) -> list:
    """A SchemeRun's test rows, those of its run's second phase, one view per trial."""
    return [r for r, phase in zip(run.report.records.rows(), run.report.point) if phase == 1]


def _packet_rows(breport):
    for scheme, run in breport.schemes.items():
        encoded = iter(run.encoded)
        for r, bits in zip(coded_rows(run), run.bits, strict=True):
            for k, b in enumerate(bits):
                enc = next(encoded)
                assert enc.bit_count == b
                yield (r.trial, k, scheme, int(b), enc.to_hex())


def _rate_rows(breport):
    for row in _packet_rows(breport):
        yield row[:4]


def _sweep_rows(sreport):
    for nu, perf in zip(sreport.grid, sreport.mean_perf):
        yield (sreport.family, float(nu), float(perf))


# file name -> (header, row generator over the report the file is written from)
_CSV_REFERENCE = {
    "trace": (("trial", "k", "d"), _trace_rows),
    "trajectory": (("trial", "k", "norm", "V", "u", "sparsity"), _trajectory_rows),
    "summary": (("k", "mean_norm", "median_norm", "max_norm", "mean_V", "mean_sparsity"),
                _summary_rows),
    "packets": (("trial", "k", "scheme", "bit_count", "hex"), _packet_rows),
    "rates": (("trial", "k", "scheme", "bits"), _rate_rows),
    "sweep": (("family", "nu", "mean_perf"), _sweep_rows),
}


def csv_reference(name: str, report) -> str:
    """The text of <name>.csv for report, built a row and a cell at a time."""
    header, rows = _CSV_REFERENCE[name]
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows(report)]
    return "\n".join(lines) + "\n"
