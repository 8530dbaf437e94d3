"""Closed-loop simulation engine, Monte Carlo harness, sweeps, bit-rate runs.

The controller computes (and is charged for) a packet at every step; the
channel decides whether it reaches the actuator buffer. The actuator plays
unquantized packets, so bit-rate runs quantize and code the recorded
packets after each closed loop instead of inside it. Trials are paired
across controllers: trial i always sees the same initial state, dropout
trace, and noise stream regardless of which solver is running, so
comparisons between controller families are like-for-like.

Seed discipline: trial_inputs draws a trial's (trace, x0, noise) from
streams that derive from the master seed through SeedSequence spawn keys
(namespace, trial, substream), so any trial is reproducible in isolation
and training/test phases never share entropy.
"""

import json
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property
from itertools import chain, islice
from pathlib import Path
from time import perf_counter

import numpy as np

from .channel import (DROPOUT_KEYS, ChannelTrace, DropoutModel, actuate,
                      delivery_age, generate_trace)
from .codec import (PacketCodec, Quantizer, bit_account, decode, dequantize, encode,
                    quantize_packet, train_codec)
from .controllers import (ORACLE_CAP, exhaustive_l0_packet,
                          l1l2_packet, l2_packet, least_squares_packet, omp_packet)
from .design import RICCATI_RTOL, CostDesign, build_design
from .errors import (ConfigError, NumericError, SparsePpcError,
                     TraceValidationError)
from .horizon import HorizonMatrices, build_horizon
from .linalg import finite_real, int_setting, is_sym_pd, number_array, shown
from .plant import PlantModel, resolve_plant

CONTROLLERS = ("omp", "l1l2", "l2", "least_squares", "oracle")

# SeedSequence namespaces keeping the three experiment phases disjoint.
NS_MAIN = 0
NS_TRAIN = 1
NS_TEST = 2

CSV_CHUNK_ROWS = 512     # rows per write: larger chunks write no faster and hold more text


@dataclass(frozen=True)
class SimConfig:
    """Fully resolved experiment description (JSON-compatible fields)."""

    plant: object = "cessna500"
    N: int = 10
    Q: object = "identity"
    eta: float = 2.0 / 3.0
    delta: float = 0.0
    controller: str = "omp"
    nu1: float = 5.3e3
    nu2: float = 3.1e2
    dropout: dict = field(default_factory=lambda: {"kind": "markov", "p_dd": 0.8, "p_dg": 0.2})
    steps: int = 100
    trials: int = 500
    train_trials: int = 200
    noise: dict = field(default_factory=lambda: {"kind": "none"})
    x0: object = "standard_normal"
    seed: int = 12345
    quantizer_delta: float = 1e-3

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is int:     # each in [1, INT64_MAX], the seed in [0, INT64_MAX]
                int_setting(value, f.name, 0 if f.name == "seed" else 1)
            elif f.type is float and not finite_real(value):
                raise ConfigError(f"{f.name} must be a finite float, got {shown(value)}")
        if not (self.nu1 > 0 and self.nu2 > 0 and self.quantizer_delta > 0):
            raise ConfigError(f"nu1, nu2 and quantizer_delta must be positive, got "
                              f"{self.nu1}, {self.nu2}, {self.quantizer_delta}")
        if not self.delta >= 0:
            raise ConfigError(f"delta must be >= 0, got {shown(self.delta)}")
        if self.controller not in CONTROLLERS:
            raise ConfigError(f"controller must be one of {CONTROLLERS}, got {shown(self.controller)}")
        if not isinstance(self.dropout, dict):
            raise ConfigError(f"dropout must be a mapping, got {shown(self.dropout)}")
        if not (isinstance(self.x0, str) and self.x0 == "standard_normal"):
            number_array(self.x0, "x0 ('standard_normal' or a vector)")
        if not (isinstance(self.Q, str) and self.Q == "identity" or is_sym_pd(self.Q)):
            raise ConfigError(f"Q must be 'identity' or a finite symmetric positive "
                              f"definite matrix, got {shown(self.Q)}")
        if not (isinstance(self.noise, dict) and self.noise.get("kind") in ("none", "gaussian")):
            raise ConfigError(f"noise must be a mapping with kind 'none' or 'gaussian', "
                              f"got {shown(self.noise)}")
        keys = {"kind", "sigma"} if self.noise["kind"] == "gaussian" else {"kind"}
        if not set(self.noise) <= keys:
            raise ConfigError(f"noise of kind {self.noise['kind']!r} takes only the keys "
                              f"{sorted(keys)}, got {shown(sorted(self.noise))}")
        sigma = self.sigma
        if not (finite_real(sigma) and sigma >= 0):
            raise ConfigError(f"noise sigma must be a finite number >= 0, got {shown(sigma)}")

    @property
    def sigma(self):
        """Process-noise standard deviation; noise kind 'none' means 0."""
        return self.noise.get("sigma", 0.01) if self.noise["kind"] == "gaussian" else 0.0


_CONFIG_FIELDS = set(SimConfig.__dataclass_fields__)


def config_from_dict(doc: dict, **overrides) -> SimConfig:
    """Build a SimConfig from a JSON mapping; reject unknown keys."""
    merged = dict(doc)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    unknown = set(merged) - _CONFIG_FIELDS
    if unknown:
        raise ConfigError(f"unknown config keys: {shown(sorted(unknown))}")
    return SimConfig(**merged)


# The config fields build_setup reads; every run on a setup must agree on them.
SETUP_FIELDS = ("plant", "N", "Q", "eta", "delta", "dropout")


@dataclass(frozen=True)
class SimSetup:
    """What the design fixes, built once and shared by every run and trial."""

    model: PlantModel
    design: CostDesign
    hm: HorizonMatrices
    dropout: DropoutModel
    settings: dict    # SETUP_FIELDS of the config built from, as meta.json has them


def build_setup(cfg: SimConfig, design: CostDesign = None) -> SimSetup:
    """Plant, dropout model, design and horizon; the inputs are checked first.

    The design is always built from cfg. A given design (a saved
    design.json) is only checked against it: each field must have the
    built field's shape and lie within RICCATI_RTOL of it relative to the
    built field's Frobenius norm.
    """
    model = resolve_plant(cfg.plant)
    drop = dict(cfg.dropout)
    kind = drop.pop("kind", "markov")
    keys = DROPOUT_KEYS.get(kind) if isinstance(kind, str) else None
    if keys is None:
        raise ConfigError(f"dropout kind must be one of {tuple(DROPOUT_KEYS)}, got {shown(kind)}")
    if not set(drop) <= keys:
        raise ConfigError(f"dropout of kind {kind!r} takes only the keys {sorted(keys)}, "
                          f"got {shown(sorted(set(drop) - keys, key=str))}")
    dropout = DropoutModel(kind=kind, N=cfg.N, **drop)
    _check_trials(cfg, model, dropout)
    Q = np.eye(model.n) if isinstance(cfg.Q, str) else np.asarray(cfg.Q, dtype=float)
    built = build_design(model, Q=Q, N=cfg.N, eta=cfg.eta, delta=cfg.delta)
    if design is not None:
        differ = [f.name for f in fields(CostDesign)
                  if not _same_field(getattr(design, f.name), getattr(built, f.name))]
        if differ:
            raise ConfigError(f"design differs from the config's own design in fields {differ}")
    hm = build_horizon(model, built.Q, built.P, built.N)
    return SimSetup(model=model, design=built, hm=hm, dropout=dropout,
                    settings=_setup_settings(cfg))


def _setup_settings(cfg: SimConfig) -> dict:
    """cfg's SETUP_FIELDS as JSON reads them back (arrays become lists)."""
    doc = resolved_config(cfg)
    return json.loads(json.dumps({name: doc[name] for name in SETUP_FIELDS},
                                 default=lambda v: np.asarray(v).tolist()))


def _same_field(given, built) -> bool:
    given, built = np.asarray(given), np.asarray(built)
    return given.shape == built.shape and bool(
        np.linalg.norm(given - built) <= RICCATI_RTOL * np.linalg.norm(built))


def _check_trials(cfg: SimConfig, model: PlantModel, dropout: DropoutModel) -> None:
    """Reject the config errors a trial would otherwise meet at its first step."""
    if not isinstance(cfg.x0, str) and np.shape(cfg.x0) != (model.n,):
        raise ConfigError(f"explicit x0 must have shape ({model.n},), "
                          f"got {np.shape(cfg.x0)}")
    if dropout.kind == "scripted" and len(dropout.script) < cfg.steps:
        raise TraceValidationError(f"script has {len(dropout.script)} bits but "
                                   f"steps is {cfg.steps}")
    if cfg.controller == "oracle" and cfg.N > ORACLE_CAP:
        raise ConfigError(f"exhaustive search refused for N = {cfg.N} > cap {ORACLE_CAP}")


def make_controller(cfg: SimConfig, setup: SimSetup, grid: list = None):
    """The config's packet solver on the setup, as a function of a block of rows.

    A controller takes a (b, n) block of states X and rows, the indices of
    the run's rows they are (see _lockstep), and returns their (b, N)
    packets. A run's rows are its trials, once per value on a grid of nu
    values, grid-major (see monte_carlo). One controller serves every row
    of a run: it is its solver's call on the block, the solver looked up in
    this module at each call, where a tracer may wrap it. l2 and l1l2 get
    the run's one nu as a float, or each row's off the grid, so a packet
    depends on its state and its value alone. l1l2 keeps each row's last
    packet; a call that raises keeps none. A row's guess, a candidate
    packet of which l1l2_packet reads only the signs, is the
    receding-horizon shift of that packet: entry i + 1 moves to i and the
    last entry is 0, since the packet sent at step k + 1 mostly carries
    on what the packet at step k planned for later steps (Mayne, Rawlings,
    Rao & Scokaert 2000). Where the shift is all zero, the guess is the
    last packet itself: a packet whose support is {0} tends to repeat. A
    guess that l1l2_packet certifies is its walk's packet, so the guess
    sets how many rows walk, not the packets, except where the
    certificate accepts two supports (see l1l2_packet).
    """
    hm, W = setup.hm, setup.design.W
    name = cfg.controller
    values = None if grid is None else np.repeat(np.asarray(grid, dtype=float), cfg.trials)

    def nu(rows):
        """The block's nu: the run's one value, a float, or each row's off the grid."""
        return getattr(cfg, SWEEP_KEYS[name]) if values is None else values[rows]

    if name != "l1l2":
        return {"omp": lambda X, rows: omp_packet(hm, W, X).u,
                "oracle": lambda X, rows: exhaustive_l0_packet(hm, W, X).u,
                "least_squares": lambda X, rows: least_squares_packet(hm, X).u,
                "l2": lambda X, rows: l2_packet(hm, X, nu(rows)).u}[name]
    # each row's last packet, then a 0, so that last[r, 1:] is its shift
    last = np.zeros((cfg.trials if values is None else values.size, hm.N + 1))

    def l1l2(X, rows):
        prev = last[rows]
        shift = prev[:, 1:]
        guess = np.where(shift.any(axis=1, keepdims=True), shift, prev[:, :-1])
        last[rows, :-1] = u = l1l2_packet(hm, X, nu(rows), guess=guess).u
        return u

    return l1l2


def trial_inputs(cfg: SimConfig, setup: SimSetup, namespace: int, trial: int):
    """One trial's (trace, x0, noise) from its x0, trace and noise streams.

    Stream s (0: x0, 1: trace, 2: noise) is seeded by the key (namespace,
    trial, s), as child s of spawn(3) is, and only if drawn from: x0's for a
    random x0, noise's when sigma > 0, else noise is zeros. noise is (steps,
    n), row k being v(k), with the bits of steps successive draws of n values.
    """
    def rng(s):
        key = (namespace, trial, s)
        return np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=key))
    n = setup.model.n
    trace = generate_trace(setup.dropout, cfg.steps, rng=rng(1))
    x0 = rng(0).standard_normal(n) if isinstance(cfg.x0, str) else np.asarray(cfg.x0, dtype=float)
    shape = (cfg.steps, n)
    noise = rng(2).normal(0.0, cfg.sigma, shape) if cfg.sigma > 0 else np.zeros(shape)
    return trace, x0, noise


@dataclass
class TrialResult:
    """Per-step records of one closed-loop run (k = 0 .. steps-1).

    The engine returns the records of its rows stacked: every field then
    has a leading axis over the rows, and rows() splits it per trial. Each
    comment gives a field's stacked shape, then one trial's.
    """

    trial: int                # (rows,); one trial's index
    states: np.ndarray        # (rows, T, n); (T, n) state at each k
    norms: np.ndarray         # (rows, T); ||x(k)||_2
    perf: float               # (rows,); sqrt(sum_k ||x(k)||^2)
    V: np.ndarray             # (rows, T); x(k)' P x(k)
    d: np.ndarray             # (rows, T); dropout bit at k
    u_applied: np.ndarray     # (rows, T); actuator output at k
    packets: np.ndarray       # (rows, T, N); (T, N) packet computed at k, delivered or not
    sparsity: np.ndarray      # (rows, T); nonzeros of the packet computed at k
    overrides: int            # (rows,); the trace's forced deliveries
    violations: int = None    # (rows,); Lyapunov violations, set by the audit on noise-free runs

    def rows(self) -> list:
        """Each row of stacked records as one trial's TrialResult of views."""
        cols = {f.name: getattr(self, f.name) for f in fields(self)
                if getattr(self, f.name) is not None}
        return [TrialResult(**{name: col[i] if col.ndim > 1 else col[i].item()
                               for name, col in cols.items()})
                for i in range(len(self.trial))]


def run_trial(setup: SimSetup, controller, trace: ChannelTrace, x0: np.ndarray,
              noise: np.ndarray, trial: int = 0) -> TrialResult:
    """Simulate one closed loop over the length of the trace.

    This is the engine's call with one row (see _lockstep): at each step
    the controller solves a (1, n) block holding the row's state, as row 0.
    Where the engine would drop the row, the trial fails and its error is
    raised. An x0 or noise that is not a real array of shape (n,) or (T, n),
    or a trial that is not an int >= 0, raises ConfigError.
    """
    records, failures = _lockstep(setup, controller, [_trial_input(setup, trace.T, trial, trace,
                                                                   x0, noise)])
    if failures:
        raise failures[0][1]
    return records.rows()[0]


def _trial_input(setup: SimSetup, T: int, trial, trace, x0, noise) -> tuple:
    """(trial, trace, x0, noise) checked as one of a run of T steps (see run_trial)."""
    trial, shape = int_setting(trial, "trial", 0), (T, setup.model.n)
    if not (isinstance(trace, ChannelTrace) and trace.T == T):
        raise ConfigError(f"trace must be a ChannelTrace of {T} steps, got {shown(trace)}")
    x0, noise = number_array(x0, "x0"), number_array(noise, "noise")
    if x0.shape != shape[1:] or noise.shape != shape:
        raise ConfigError(f"x0 must have shape {shape[1:]} and noise must have shape {shape}, "
                          f"got {x0.shape} and {noise.shape}")
    return trial, trace, x0, noise


def _lockstep(setup: SimSetup, controller, inputs: list, copies: int = 1):
    """The closed-loop engine: step the loops of all rows together.

    inputs holds each trial's (trial, trace, x0, noise), all of one length
    T, and the rows are copies of them, copy-major: row r steps inputs[r %
    len(inputs)]. Each trial's read schedule is computed once (one actuate
    call) and shared by its rows. At each step k, every row has V(k)
    checked and its packet solved and recorded; its input is the recorded
    element that its schedule names, and noise[k] is added to x(k+1). The
    controller solves all rows in one call, on the basic slice X[a:b] of
    the rows a..b-1, told which rows they are, and returns their packets
    (see make_controller). If that call raises a package error, each of
    those rows is solved again on its own, and only the rows that raise
    again fail, each with its own error. Products and quadratic forms are
    stacked matmuls, one small product per row, so each row gets the bits
    it would get alone. A row fails on a package error: a burst that
    outruns the packets (before any solve), a V(k) that is not finite, its
    solve raising, or, once the loop ends, a recorded packet or a
    performance sqrt(sum_k ||x(k)||^2) that is not finite. A ConfigError
    ends the run.

    Rows never move: a failed row keeps its index and rests at x = 0 from
    its next solve on, and the records of failed rows are dropped once,
    after the loop. Resting is safe because every package solver maps the
    zero state to the zero packet without a pick, a walk, a cache entry or
    an error, and a row's packet depends on its own state alone. Once every
    row has failed, the run stops stepping, so a controller is never
    called on a block of resting rows alone (run_trial's one row included).

    Returns the stacked records of the rows that finished and the failures
    as (row, error) in row order.
    """
    # an overflowing row fails on the engine's finiteness checks, so numpy's
    # overflow warnings would only say it first; a warnings filter, unlike
    # np.errstate, costs the numpy calls inside nothing
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", r"(overflow|invalid value) encountered",
                                RuntimeWarning)
        A, B, P, N = setup.model.A, setup.model.B, setup.design.P, setup.design.N
        trials, traces, x0, noise = zip(*inputs)
        m, T = len(inputs), traces[0].T
        rows = m * copies
        index = np.arange(rows)
        failed = {}               # row -> error
        src, age = np.zeros((2, m, T), dtype=np.intp)
        for t, trace in enumerate(traces):
            try:
                src[t], age[t] = actuate(trace, N)
            except ConfigError:
                raise
            except SparsePpcError as exc:
                failed.update(dict.fromkeys(range(t, rows, m), exc))
        # plays[i, k]: the element row i plays at step k, as an index into packets.ravel()
        plays = np.tile(src * N + age, (copies, 1)) + index[:, None] * T * N
        X = np.array(x0 * copies, dtype=float)
        noise = np.array(noise * copies, dtype=float)

        states = np.empty((rows, T, setup.model.n))
        V = np.empty((rows, T))
        packets = np.empty((rows, T, N))
        played = packets.reshape(-1)
        for k in range(T):
            Vk = ((X[:, None, :] @ P) @ X[:, :, None])[:, 0, 0]
            ok = np.isfinite(Vk)
            if not ok.all():
                for j in np.flatnonzero(~ok).tolist():
                    failed.setdefault(j, NumericError(
                        f"state is not finite at step {k}: V = {Vk[j]}"))
            if failed:
                if len(failed) == rows:     # also when every schedule was refused
                    break
                X[list(failed)] = 0.0       # failed rows rest at the zero state
            # a block that raises is solved again one row at a time (spans grows)
            spans = [(0, rows)]
            for a, b in spans:
                try:
                    u = number_array(controller(X[a:b], index[a:b]), "packets")
                    if u.shape != (b - a, N):
                        raise ConfigError(f"controller gave shape {u.shape}, not ({b - a}, {N})")
                    packets[a:b, k] = u
                except ConfigError:
                    raise
                except SparsePpcError as exc:
                    if b - a > 1:
                        spans += [(r, r + 1) for r in range(a, b) if r not in failed]
                    else:
                        failed[a] = exc
            states[:, k] = X
            V[:, k] = Vk
            X = (A @ X[:, :, None])[:, :, 0] + B * played[plays[:, k]][:, None] + noise[:, k]
        norms = np.sqrt((states[..., None, :] @ states[..., :, None])[..., 0, 0])
        perf = np.sqrt(np.sum(norms**2, axis=1))
        bad = ~np.isfinite(packets).all(axis=2)
        for j in np.flatnonzero(bad.any(axis=1) | ~np.isfinite(perf)).tolist():
            failed.setdefault(j, NumericError(
                f"packet is not finite at step {np.argmax(bad[j])}" if bad[j].any() else
                f"performance sqrt(sum_k ||x(k)||^2) is not finite: {perf[j]}"))
        at = np.delete(index, list(failed)) if failed else slice(None)
        kept = packets[at]
        records = TrialResult(
            trial=np.array(trials * copies)[at], states=states[at], norms=norms[at],
            perf=perf[at], V=V[at], d=np.array([trace.d for trace in traces] * copies)[at],
            u_applied=played[plays[at]], packets=kept, sparsity=np.count_nonzero(kept, axis=2),
            overrides=np.array([trace.overrides for trace in traces] * copies)[at])
        return records, [(i, failed[i]) for i in sorted(failed)]


@dataclass
class AuditReport:
    """Lyapunov decrease bookkeeping over noise-free trials, one count per trial."""

    deliveries: np.ndarray
    pair_violations: np.ndarray    # V not strictly decreasing across delivery pairs
    burst_violations: np.ndarray   # V not below the last delivery value inside a burst

    @property
    def total(self) -> np.ndarray:
        return self.pair_violations + self.burst_violations


def lyapunov_audit(result: TrialResult, design: CostDesign) -> AuditReport:
    """Count Lyapunov-decrease violations, recomputing V from raw states.

    Checks V(x(k_{i+1})) < V(x(k_i)) for consecutive delivery instants with
    nonzero state (||x(k_i)|| > 1e-9), and V(x(k)) < V(x(k_i)) for every k
    inside the following dropout burst. result holds one trial's records
    or a stack of them, and each count is one per trial.
    """
    V = np.einsum("...ki,ij,...kj->...k", result.states, design.P, result.states)
    live = np.linalg.norm(result.states, axis=-1) > 1e-9
    delivered = result.d == 0
    # at each k, V and live at the latest delivery k_i <= k
    last = np.arange(V.shape[-1]) - delivery_age(result.d)
    V_last, live_last = (np.take_along_axis(a, last, axis=-1) for a in (V, live))
    burst = ~delivered & live_last & (V >= V_last)
    # each later delivery against the one before it, the latest at k - 1
    pair = delivered[..., 1:] & live_last[..., :-1] & (V[..., 1:] >= V_last[..., :-1])
    return AuditReport(*(np.count_nonzero(c, axis=-1) for c in (delivered, pair, burst)))


@dataclass
class MonteCarloReport:
    """A run's records over the rows that succeeded, in row order.

    A run's rows are its trials, in trial order or its phases' order; a
    grid run repeats them for each grid value, grid-major. records holds
    them all, and every reader takes its rows from it.
    """

    cfg: SimConfig
    records: TrialResult        # stacked, one row per row of the run
    failures: list              # (point, trial, error message) of each failed row
    mean_step_seconds: float    # engine wall time per row and step
    point: np.ndarray           # (rows,) int; each row's grid value or phase index, else 0

    @property
    def total_violations(self) -> int:
        """The sum of records.violations; None on a run that was not audited."""
        violations = self.records.violations
        return None if violations is None else int(violations.sum())

    @cached_property
    def results(self) -> list:
        """records.rows(), built once; read only by the benchmark's report tap."""
        return self.records.rows()

    @property
    def per_trial_perf(self) -> np.ndarray:
        """records.perf; read only by the benchmark's report tap."""
        return self.records.perf


# Each sweep family and the config field its grid sets.
SWEEP_KEYS = {"l1l2": "nu1", "l2": "nu2"}


def monte_carlo(cfg: SimConfig, setup: SimSetup = None, grid: list = None,
                inputs: list = None) -> MonteCarloReport:
    """Run cfg.trials independent paired trials in lockstep; keep every result.

    Every trial is one row of the engine (_lockstep), and one controller
    (make_controller) solves every row's state in one call per step;
    the l1l2 warm start is kept per row, so none crosses trials. The run's
    config alone picks the controller, nu and noise; a given setup must
    share cfg's SETUP_FIELDS and is checked as build_setup does. A
    noise-free run (sigma = 0) is audited for Lyapunov decrease. A config
    error ends the run; any other package error fails only its trial, and
    the run fails when all its trials do. numpy's overflow warnings are
    dropped, since the trial they concern fails, its performance included.

    With a grid of nu values, cfg's controller must be a sweep family
    (SWEEP_KEYS), and each value sets the family's nu field for a copy of
    the trials, grid-major: every trial's inputs are drawn once, its read
    schedule is computed once, and each of its rows steps them, all in one
    batch. The run's one controller reads each row's value off the grid,
    so every row has the bits of its own value's run.

    Without inputs, trial t's inputs are trial_inputs(cfg, setup, NS_MAIN,
    t). With inputs, the trials are given as a list of phases, each a
    non-empty list of (trial, trace, x0, noise) tuples, cfg.trials in all,
    with no grid; they step in one batch, phase-major (see
    bitrate_experiment).
    The run fails when all trials of any one grid value or phase do;
    point is each row's index among them, and a failure is (point, trial,
    message), point 0 on a plain run. The engine call is timed once,
    and mean_step_seconds is its wall time per row and step, failed rows
    included; it is the run's only wall time.
    """
    if grid is not None and (cfg.controller not in SWEEP_KEYS or
                             number_array(grid, "grid").ndim != 1 or not len(grid)):
        raise ConfigError(f"a grid run needs a controller of {tuple(SWEEP_KEYS)} and a "
                          f"non-empty grid, got {shown(cfg.controller)} and {shown(grid)}")
    if inputs is not None and not (grid is None and isinstance(inputs, list) and all(
            isinstance(p, list) and p and all(isinstance(r, tuple) and len(r) == 4 for r in p)
            for p in inputs) and sum(map(len, inputs)) == cfg.trials):
        raise ConfigError(f"inputs must be non-empty lists of (trial, trace, x0, noise), "
                          f"{cfg.trials} in all, without a grid; got {shown(inputs)}")
    # each value is checked as its own run's config before the setup is built
    runs = [cfg] if grid is None else [replace(cfg, **{SWEEP_KEYS[cfg.controller]: nu})
                                       for nu in grid]
    if setup is None:
        setup = build_setup(cfg)
    else:
        own = _setup_settings(cfg)
        differ = [name for name in SETUP_FIELDS if setup.settings[name] != own[name]]
        if differ:
            raise ConfigError(f"setup was built from other settings than the config: {differ}")
        _check_trials(cfg, setup.model, setup.dropout)

    phases = ([[(trial, *trial_inputs(cfg, setup, NS_MAIN, trial))
                for trial in range(cfg.trials)]] if inputs is None else
              [[_trial_input(setup, cfg.steps, *row) for row in phase] for phase in inputs])
    rows = sum(phases, [])
    controller = make_controller(cfg, setup, grid)
    t0 = perf_counter()
    records, errors = _lockstep(setup, controller, rows, copies=len(runs))
    seconds = perf_counter() - t0
    errors = {row: f"{type(exc).__name__}: {exc}" for row, exc in errors}
    sizes = [len(phase) for phase in phases] * len(runs)    # rows of each phase or grid value
    group = np.repeat(np.arange(len(sizes)), sizes)
    point = np.delete(group, list(errors))
    kept = np.bincount(point, minlength=len(sizes))
    if not kept.all():
        g = int(np.argmin(kept))
        where = "" if grid is None else f" at {SWEEP_KEYS[cfg.controller]} = {grid[g]}"
        raise SparsePpcError(f"all {sizes[g]} trials failed{where}; "
                             f"first: {errors[sum(sizes[:g])]}")

    if cfg.sigma == 0:
        records.violations = lyapunov_audit(records, setup.design).total
    failures = [(int(group[row]), rows[row % len(rows)][0], msg) for row, msg in errors.items()]
    return MonteCarloReport(cfg=cfg, records=records, failures=failures,
                            mean_step_seconds=seconds / (len(runs) * cfg.trials * cfg.steps),
                            point=point)


@dataclass
class SweepReport:
    family: str
    grid: list
    mean_perf: list
    argmin_nu: float
    argmin_perf: float
    matched_nu: float = None    # grid point closest to a requested level
    matched_perf: float = None
    failures: list = field(default_factory=list)    # (nu, trial, error message)
    violations: list = None     # Lyapunov violations per grid value, on noise-free sweeps


def sweep_regularization(cfg: SimConfig, family: str, grid,
                         match_perf: float = None) -> SweepReport:
    """Monte Carlo performance curve over a regularization grid.

    Performance per trial is sqrt(sum_k ||x(k)||^2) over the run; the curve
    holds its Monte Carlo mean for each grid value, over the trials that
    did not fail (failures lists the others). A noise-free sweep also
    counts each value's Lyapunov violations, the sum of its rows' audit.
    The sweep is one monte_carlo grid run: every grid value steps the same
    trials, with identical traces, initial states and noise, in one batch.
    """
    if not (isinstance(family, str) and family in SWEEP_KEYS):
        raise ConfigError(f"sweep family must be one of {tuple(SWEEP_KEYS)}, got {shown(family)}")
    if match_perf is not None and not finite_real(match_perf):
        raise ConfigError(f"match_perf must be a finite number, got {shown(match_perf)}")
    grid = number_array(grid, "sweep grid")
    if grid.ndim != 1 or grid.size == 0:
        raise ConfigError(f"sweep grid must be a non-empty list, got {shown(grid.tolist())}")
    grid = grid.astype(float).tolist()
    mc = monte_carlo(replace(cfg, controller=family), grid=grid)
    at = [mc.point == g for g in range(len(grid))]
    perfs = [float(np.mean(mc.records.perf[rows])) for rows in at]
    best = int(np.argmin(perfs))
    report = SweepReport(family=family, grid=grid, mean_perf=perfs,
                         argmin_nu=grid[best], argmin_perf=perfs[best],
                         failures=[(grid[p], t, msg) for p, t, msg in mc.failures])
    if mc.records.violations is not None:
        report.violations = [int(mc.records.violations[rows].sum()) for rows in at]
    if match_perf is not None:
        near = int(np.argmin([abs(p - match_perf) for p in perfs]))
        report.matched_nu = grid[near]
        report.matched_perf = perfs[near]
    return report


# The paper's bit-rate comparison as (controller, scheme) pairs, in the
# order every bit-rate output lists them.
BITRATE_PLAN = (("omp", "sparse"), ("l2", "dense"))


@dataclass
class SchemeRun:
    """One controller's test packets coded under one scheme."""

    controller: str
    codec: PacketCodec        # trained on the controller's training packets
    report: MonteCarloReport  # the controller's one run; its test rows are those at point 1
    bits: np.ndarray          # (test rows, T) encoded size of each test packet
    encoded: list             # EncodedPacket of each test packet, trial-major
    account: dict             # codec.bit_account of the test packets


@dataclass
class BitrateReport:
    schemes: dict             # scheme -> SchemeRun, in BITRATE_PLAN order
    mean_bits_omp: float
    mean_bits_l2: float
    reduction_pct: float
    roundtrip_failures: int
    max_quant_error: float
    failures: list            # (controller, phase, trial, error message) of failed trials


def bitrate_experiment(cfg: SimConfig) -> BitrateReport:
    """Train per-position coders, then measure rates on fresh seeds.

    For each (controller, scheme) of BITRATE_PLAN: cfg.train_trials noisy
    training trials fit the scheme's codec to the controller's quantized
    packets, and each packet of the test trials, on disjoint seeds, is
    encoded and decoded back, one at a time; one quantize_packet call
    quantizes both phases' packets. Reports mean bits per packet, their
    bit_account, and the relative reduction, and lists the trials that
    failed in either phase, which neither trains nor codes.

    Each phase's inputs are drawn once; a controller's train and test trials
    step as the phases of one monte_carlo run, paying the cost per step once.
    The controllers do not share a run: the benchmark's report tap counts a
    run's nonzeros as its config's controller's. At criterion 5's 200 + 200
    trials that cost is already amortized, so there the merge gains nothing.
    """
    if not cfg.sigma > 0:
        raise ConfigError("bitrate experiment requires gaussian noise with sigma > 0")
    if cfg.N % 2 != 0:
        raise ConfigError("sparse scheme requires an even packet length")
    setup = build_setup(cfg)
    quantizer = Quantizer(delta=cfg.quantizer_delta)
    phases = [[(trial, *trial_inputs(cfg, setup, namespace, trial)) for trial in range(count)]
              for namespace, count in ((NS_TRAIN, cfg.train_trials), (NS_TEST, cfg.trials))]

    schemes, failures, roundtrip_failures, max_quant_error = {}, [], 0, 0.0
    for name, scheme in BITRATE_PLAN:
        run = monte_carlo(replace(cfg, controller=name, trials=cfg.train_trials + cfg.trials),
                          setup=setup, inputs=phases)
        train_rows, test_rows = (run.point == phase for phase in (0, 1))
        quantized = quantize_packet(quantizer, run.records.packets)
        codec = train_codec(quantized[train_rows].reshape(-1, cfg.N), scheme, quantizer)
        packets, indices = run.records.packets[test_rows], quantized[test_rows]
        err = float(np.max(np.abs(packets - dequantize(quantizer, indices))))
        max_quant_error = max(max_quant_error, err)
        encoded, rows = [], indices.reshape(-1, cfg.N)
        for idx, row in zip(rows, rows.tolist()):
            enc = encode(codec, idx)
            roundtrip_failures += decode(codec, enc).tolist() != row
            encoded.append(enc)
        bits = np.array([enc.bit_count for enc in encoded]).reshape(indices.shape[:2])
        schemes[scheme] = SchemeRun(controller=name, codec=codec, report=run, bits=bits,
                                    encoded=encoded, account=bit_account(codec, indices))
        failures += [(name, ("train", "test")[p], t, msg) for p, t, msg in run.failures]

    mean = {run.controller: float(np.mean(run.bits)) for run in schemes.values()}
    return BitrateReport(schemes=schemes, mean_bits_omp=mean["omp"], mean_bits_l2=mean["l2"],
                         reduction_pct=100.0 * (1.0 - mean["omp"] / mean["l2"]),
                         roundtrip_failures=roundtrip_failures, max_quant_error=max_quant_error,
                         failures=failures)


# ---------------------------------------------------------------------------
# Deterministic CSV / metadata emission

def write_file(path, chunks) -> None:
    """Write the strings of chunks, in order, as a new file at path.

    Whatever is at path is unlinked first, so the file is created, never
    truncated (a rewrite by truncation can wait for the old blocks'
    writeback), and a symlink there is replaced, its target untouched.
    Newlines are LF. An OSError raises ConfigError naming path. Every
    output file of the package is written here.
    """
    try:
        Path(path).unlink(missing_ok=True)
        with open(path, "x", newline="\n") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def remove_files(paths) -> None:
    """Unlink whatever is at each of paths: the optional outputs a rerun does not write.

    An OSError raises ConfigError naming the path.
    """
    for path in paths:
        try:
            Path(path).unlink(missing_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot remove {path}: {exc}") from exc


def write_csv(path, columns: dict) -> None:
    """Plain deterministic CSV from {column name: 1-D sequence}.

    A cell is str() of the Python scalar tolist() gives (a %s field), so a
    float is its shortest round-trip repr(); no quoting, LF newlines. Rows
    are written CSV_CHUNK_ROWS at a time, one write each, by write_file.
    Every column must have the same length, else ValueError.
    """
    cells = [np.asarray(col).tolist() for col in columns.values()]
    line = ",".join(["%s"] * len(cells)) + "\n"
    rows = zip(*cells, strict=True)
    chunks = iter(lambda: list(islice(rows, CSV_CHUNK_ROWS)), [])
    write_file(path, chain([",".join(columns) + "\n"],
                           ("".join([line % row for row in chunk]) for chunk in chunks)))


def _per_step(report: MonteCarloReport, rows=slice(None), **attrs) -> dict:
    """trial and k columns, then each named record array, trial-major, of the selected rows."""
    records = report.records
    T = report.cfg.steps
    trial = records.trial[rows]
    return {"trial": np.repeat(trial, T), "k": np.tile(np.arange(T), len(trial)),
            **{name: getattr(records, attr)[rows].ravel() for name, attr in attrs.items()}}


def trace_columns(report: MonteCarloReport) -> dict:
    return _per_step(report, d="d")


def trajectory_columns(report: MonteCarloReport) -> dict:
    return _per_step(report, norm="norms", V="V", u="u_applied", sparsity="sparsity")


def summary_columns(report: MonteCarloReport) -> dict:
    """Per-k aggregates over the successful trials."""
    records = report.records
    norms = records.norms
    return {"k": np.arange(report.cfg.steps), "mean_norm": norms.mean(axis=0),
            "median_norm": np.median(norms, axis=0), "max_norm": norms.max(axis=0),
            "mean_V": records.V.mean(axis=0), "mean_sparsity": records.sparsity.mean(axis=0)}


def rate_columns(breport: BitrateReport) -> dict:
    """Exact bit count of each coded test packet, schemes in BITRATE_PLAN order."""
    parts = [{**_per_step(run.report, run.report.point == 1),
              "scheme": np.repeat(scheme, run.bits.size), "bits": run.bits.ravel()}
             for scheme, run in breport.schemes.items()]
    return {name: np.concatenate([p[name] for p in parts]) for name in parts[0]}


def packet_columns(breport: BitrateReport) -> dict:
    """rate_columns with bits named bit_count, then each packet's hex dump (made only here)."""
    cols = rate_columns(breport)
    cols["bit_count"] = cols.pop("bits")
    cols["hex"] = [enc.to_hex() for run in breport.schemes.values() for enc in run.encoded]
    return cols


def sweep_columns(sreport: SweepReport) -> dict:
    return {"family": np.repeat(sreport.family, len(sreport.grid)), "nu": sreport.grid,
            "mean_perf": sreport.mean_perf}


def resolved_config(cfg: SimConfig, **ran) -> dict:
    """Every parameter that shaped the run, defaults included.

    ran overrides the fields the runs set themselves: the value they used,
    or the list of values where it differed between runs.
    """
    doc = {**asdict(cfg), **ran}
    # trial i always sees the same trace/x0/noise regardless of controller
    doc["paired_trials"] = True
    return doc
