"""Closed-loop simulation engine, Monte Carlo harness, sweeps, bit-rate runs.

The controller computes (and is charged for) a packet at every step; the
channel decides whether it reaches the actuator buffer. The actuator plays
unquantized packets, so bit-rate runs quantize and code the recorded
packets after each closed loop instead of inside it. Trials are paired
across controllers: trial i always sees the same initial state, dropout
trace, and noise stream regardless of which solver is running, so
comparisons between controller families are like-for-like.

Seed discipline: per-trial streams derive from the master seed through
SeedSequence spawn keys (namespace, trial, substream), so any trial is
reproducible in isolation and training/test phases never share entropy.
"""

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .channel import ChannelTrace, DropoutModel, actuate, generate_trace
from .codec import (PacketCodec, Quantizer, decode, dequantize, encode,
                    quantize_packet, train_codec)
from .controllers import (L1_ZERO_CLAMP, exhaustive_l0_packet, l1l2_packet,
                          l2_packet, least_squares_packet, omp_packet)
from .design import CostDesign, build_design
from .errors import ConfigError, SparsePpcError
from .horizon import HorizonMatrices, build_horizon
from .plant import PlantModel, resolve_plant

CONTROLLERS = ("omp", "l1l2", "l2", "least_squares", "oracle")

# SeedSequence namespaces keeping the three experiment phases disjoint.
NS_MAIN = 0
NS_TRAIN = 1
NS_TEST = 2


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
    oracle_cap: int = 12

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.train_trials < 1:
            raise ConfigError(f"train_trials must be >= 1, got {self.train_trials}")
        if self.controller not in CONTROLLERS:
            raise ConfigError(f"controller must be one of {CONTROLLERS}, got {self.controller!r}")
        kind, sigma = noise_params(self.noise)
        if kind == "gaussian" and sigma < 0:
            raise ConfigError(f"noise sigma must be >= 0, got {sigma}")


_CONFIG_FIELDS = set(SimConfig.__dataclass_fields__)


def config_from_dict(doc: dict, **overrides) -> SimConfig:
    """Build a SimConfig from a JSON mapping; reject unknown keys."""
    merged = dict(doc)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    unknown = set(merged) - _CONFIG_FIELDS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return SimConfig(**merged)


def noise_params(noise: dict):
    if not isinstance(noise, dict) or "kind" not in noise:
        raise ConfigError("noise spec must be a mapping with a 'kind' key")
    kind = noise["kind"]
    if kind == "none":
        return "none", 0.0
    if kind == "gaussian":
        return "gaussian", float(noise.get("sigma", 0.01))
    raise ConfigError(f"noise kind must be 'none' or 'gaussian', got {kind!r}")


@dataclass(frozen=True)
class SimSetup:
    """Immutable per-experiment bundle shared by every trial."""

    cfg: SimConfig
    model: PlantModel
    design: CostDesign
    hm: HorizonMatrices
    dropout: DropoutModel


def build_setup(cfg: SimConfig, design: CostDesign = None) -> SimSetup:
    model = resolve_plant(cfg.plant)
    if design is None:
        Q = None if cfg.Q == "identity" else np.asarray(cfg.Q, dtype=float)
        design = build_design(model, Q=Q, N=cfg.N, eta=cfg.eta, delta=cfg.delta)
    elif design.N != cfg.N:
        raise ConfigError(f"design horizon {design.N} does not match config N {cfg.N}")
    hm = build_horizon(model, design.Q, design.P, design.N)
    drop = dict(cfg.dropout)
    kind = drop.pop("kind", "markov")
    script = drop.pop("script", None)
    if script is not None:
        script = tuple(int(b) for b in script)
    unknown = set(drop) - {"p_drop", "p_dd", "p_dg"}
    if unknown:
        raise ConfigError(f"unknown dropout keys: {sorted(unknown)}")
    dropout = DropoutModel(kind=kind, N=design.N, script=script,
                           seed=cfg.seed, **drop)
    return SimSetup(cfg=cfg, model=model, design=design, hm=hm, dropout=dropout)


def make_controller(setup: SimSetup, name: str = None):
    """Packet solver as a pure function of the state."""
    cfg, hm, design = setup.cfg, setup.hm, setup.design
    name = cfg.controller if name is None else name
    if name == "omp":
        return lambda x: omp_packet(hm, design.W, x)
    if name == "oracle":
        return lambda x: exhaustive_l0_packet(hm, design.W, x, n_max=cfg.oracle_cap)
    if name == "least_squares":
        return lambda x: least_squares_packet(hm, x)
    if name == "l2":
        return lambda x: l2_packet(hm, x, cfg.nu2)
    if name == "l1l2":
        return lambda x: l1l2_packet(hm, x, cfg.nu1)
    raise ConfigError(f"unknown controller {name!r}")


def trial_streams(master_seed: int, namespace: int, trial: int):
    """Independent (x0, trace, noise) generators for one trial index."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(namespace, trial))
    kids = ss.spawn(3)
    return tuple(np.random.default_rng(k) for k in kids)


def draw_x0(cfg: SimConfig, n: int, rng) -> np.ndarray:
    if isinstance(cfg.x0, str):
        if cfg.x0 != "standard_normal":
            raise ConfigError(f"unknown x0 spec {cfg.x0!r}")
        return rng.standard_normal(n)
    x0 = np.asarray(cfg.x0, dtype=float)
    if x0.shape != (n,):
        raise ConfigError(f"explicit x0 must have shape ({n},), got {x0.shape}")
    return x0


@dataclass
class TrialResult:
    """Per-step records of one closed-loop run (k = 0 .. steps-1)."""

    trial: int
    states: np.ndarray        # (T, n) state at each k
    norms: np.ndarray         # ||x(k)||_2
    V: np.ndarray             # x(k)' P x(k)
    d: np.ndarray             # dropout bit at k
    u_applied: np.ndarray     # actuator output at k
    packets: np.ndarray       # (T, N) packet computed at k, delivered or not
    sparsity: np.ndarray      # nonzeros of the packet computed at k
    solve_seconds: np.ndarray
    x_final: np.ndarray       # state after the last input, x(T)
    overrides: int
    violations: int = None    # filled by the harness on noise-free runs

    @property
    def final_norm(self) -> float:
        return float(self.norms[-1])

    def perf(self) -> float:
        """l2 norm of the stacked state-norm sequence over the run."""
        return float(np.sqrt(np.sum(self.norms**2)))


def run_trial(setup: SimSetup, trace: ChannelTrace, x0: np.ndarray,
              noise_rng=None, controller=None, trial: int = 0) -> TrialResult:
    """Simulate one closed loop over the length of the trace.

    The packet is computed from x(k) at every k and recorded; only
    delivered packets (d(k) = 0) reach the buffer.
    """
    cfg = setup.cfg
    T = trace.T
    n = setup.model.n
    if controller is None:
        controller = make_controller(setup)
    kind, sigma = noise_params(cfg.noise)
    if kind == "gaussian" and sigma > 0 and noise_rng is None:
        raise ConfigError("gaussian noise requires a noise stream")

    states = np.empty((T, n))
    norms = np.empty(T)
    V = np.empty(T)
    u_applied = np.empty(T)
    packets = np.empty((T, setup.design.N))
    sparsity = np.empty(T, dtype=np.int64)
    solve_seconds = np.empty(T)

    A, B, P = setup.model.A, setup.model.B, setup.design.P
    x = np.asarray(x0, dtype=float)
    buf = None
    for k in range(T):
        pkt = controller(x)
        u, buf = actuate(buf, int(trace.d[k]), incoming=pkt)
        states[k] = x
        norms[k] = np.linalg.norm(x)
        V[k] = float(x @ P @ x)
        u_applied[k] = u
        packets[k] = pkt.u
        sparsity[k] = pkt.sparsity
        solve_seconds[k] = pkt.solve_seconds
        v = noise_rng.normal(0.0, sigma, n) if (kind == "gaussian" and sigma > 0) else 0.0
        x = A @ x + B * u + v

    return TrialResult(trial=trial, states=states, norms=norms, V=V,
                       d=np.array(trace.d, dtype=np.int8), u_applied=u_applied,
                       packets=packets, sparsity=sparsity,
                       solve_seconds=solve_seconds, x_final=x,
                       overrides=trace.overrides)


@dataclass
class AuditReport:
    """Lyapunov decrease bookkeeping over one noise-free trial."""

    deliveries: int
    pair_violations: int    # V not strictly decreasing across delivery pairs
    burst_violations: int   # V not below the last delivery value inside a burst

    @property
    def total(self) -> int:
        return self.pair_violations + self.burst_violations


def lyapunov_audit(result: TrialResult, design: CostDesign,
                   zero_tol: float = 1e-9) -> AuditReport:
    """Count Lyapunov-decrease violations, recomputing V from raw states.

    Checks V(x(k_{i+1})) < V(x(k_i)) for consecutive delivery instants with
    nonzero state, and V(x(k)) < V(x(k_i)) for every k inside the following
    dropout burst.
    """
    V = np.einsum("ki,ij,kj->k", result.states, design.P, result.states)
    norms = np.linalg.norm(result.states, axis=1)
    deliveries = np.flatnonzero(result.d == 0)
    pair = burst = 0
    for i, ki in enumerate(deliveries):
        if norms[ki] <= zero_tol:
            continue
        kj = deliveries[i + 1] if i + 1 < len(deliveries) else None
        end = kj if kj is not None else len(V)
        for k in range(ki + 1, end):
            if V[k] >= V[ki]:
                burst += 1
        if kj is not None and V[kj] >= V[ki]:
            pair += 1
    return AuditReport(deliveries=len(deliveries), pair_violations=pair,
                       burst_violations=burst)


@dataclass
class MonteCarloReport:
    cfg: SimConfig
    results: list
    failures: list            # (trial, error message)
    mean_norm: np.ndarray     # per-k aggregates over successful trials
    median_norm: np.ndarray
    max_norm: np.ndarray
    mean_V: np.ndarray
    mean_sparsity: np.ndarray
    per_trial_perf: np.ndarray
    total_overrides: int
    total_violations: int = None
    mean_solve_seconds: float = 0.0


def monte_carlo(cfg: SimConfig, design: CostDesign = None,
                namespace: int = NS_MAIN, setup: SimSetup = None,
                controller_name: str = None) -> MonteCarloReport:
    """Run cfg.trials independent paired trials and aggregate per-k stats."""
    if setup is None:
        setup = build_setup(cfg, design=design)
    controller = make_controller(setup, controller_name)
    kind, _sigma = noise_params(cfg.noise)

    results = []
    failures = []
    for trial in range(cfg.trials):
        rng_x0, rng_trace, rng_noise = trial_streams(cfg.seed, namespace, trial)
        try:
            trace = generate_trace(setup.dropout, cfg.steps, rng=rng_trace)
            x0 = draw_x0(cfg, setup.model.n, rng_x0)
            res = run_trial(setup, trace, x0, noise_rng=rng_noise,
                            controller=controller, trial=trial)
            if kind == "none":
                res.violations = lyapunov_audit(res, setup.design).total
            results.append(res)
        except SparsePpcError as exc:
            failures.append((trial, f"{type(exc).__name__}: {exc}"))

    if not results:
        raise SparsePpcError(f"all {cfg.trials} trials failed; first: {failures[0][1]}")

    norm_mat = np.stack([r.norms for r in results])
    v_mat = np.stack([r.V for r in results])
    sp_mat = np.stack([r.sparsity for r in results])
    report = MonteCarloReport(
        cfg=cfg,
        results=results,
        failures=failures,
        mean_norm=norm_mat.mean(axis=0),
        median_norm=np.median(norm_mat, axis=0),
        max_norm=norm_mat.max(axis=0),
        mean_V=v_mat.mean(axis=0),
        mean_sparsity=sp_mat.mean(axis=0),
        per_trial_perf=np.array([r.perf() for r in results]),
        total_overrides=sum(r.overrides for r in results),
        mean_solve_seconds=float(np.mean([r.solve_seconds.mean() for r in results])),
    )
    if kind == "none":
        report.total_violations = int(sum(r.violations for r in results))
    return report


@dataclass
class SweepReport:
    family: str
    grid: list
    mean_perf: list
    argmin_nu: float
    argmin_perf: float
    matched_nu: float = None    # grid point closest to a requested level
    matched_perf: float = None


def sweep_regularization(cfg: SimConfig, family: str, grid,
                         match_perf: float = None) -> SweepReport:
    """Monte Carlo performance curve over a regularization grid.

    Performance per trial is sqrt(sum_k ||x(k)||^2) over the run; the curve
    holds its Monte Carlo mean for each grid value. All grid points share
    the same master seed, so they see identical traces and initial states.
    """
    grid = [float(g) for g in grid]
    if not grid:
        raise ConfigError("sweep grid must be non-empty")
    if family not in ("l1l2", "l2"):
        raise ConfigError(f"sweep family must be 'l1l2' or 'l2', got {family!r}")
    perfs = []
    for nu in grid:
        sub = replace(cfg, controller=family,
                      **({"nu1": nu} if family == "l1l2" else {"nu2": nu}))
        rep = monte_carlo(sub)
        perfs.append(float(np.mean(rep.per_trial_perf)))
    best = int(np.argmin(perfs))
    report = SweepReport(family=family, grid=grid, mean_perf=perfs,
                         argmin_nu=grid[best], argmin_perf=perfs[best])
    if match_perf is not None:
        near = int(np.argmin([abs(p - match_perf) for p in perfs]))
        report.matched_nu = grid[near]
        report.matched_perf = perfs[near]
    return report


@dataclass
class BitrateReport:
    cfg: SimConfig
    mean_bits_omp: float
    mean_bits_l2: float
    reduction_pct: float
    roundtrip_failures: int
    max_quant_error: float
    codec_omp: PacketCodec
    codec_l2: PacketCodec
    test_omp: MonteCarloReport
    test_l2: MonteCarloReport
    bits: dict                # scheme -> (trials, T) encoded size of each test packet
    hexes: dict               # scheme -> per test trial, hex dumps of its packets


def _recorded_packets(rep: MonteCarloReport) -> np.ndarray:
    """Every packet the successful trials computed, as (trials, T, N)."""
    return np.stack([r.packets for r in rep.results])


def _code_packets(codec: PacketCodec, indices: np.ndarray):
    """Encode, then decode, each quantized packet of a (trials, T, N) stack.

    Returns the bit counts (trials, T), the hex dumps per trial, and how
    many packets failed to decode back to the indices that were encoded.
    """
    bits = np.empty(indices.shape[:2], dtype=np.int64)
    hexes = []
    failures = 0
    for i, trial_indices in enumerate(indices):
        dumps = []
        for k, idx in enumerate(trial_indices):
            enc = encode(codec, idx)
            failures += not np.array_equal(decode(codec, enc), idx)
            bits[i, k] = enc.bit_count
            dumps.append(enc.to_hex())
        hexes.append(dumps)
    return bits, hexes, failures


def bitrate_experiment(cfg: SimConfig, design: CostDesign = None) -> BitrateReport:
    """Train per-position coders, then measure rates on fresh seeds.

    Phase 1 runs cfg.train_trials noisy trials per controller and fits the
    sparse-scheme codec to the greedy packets and the dense-scheme codec to
    the Tikhonov packets. Phase 2 reruns on disjoint seeds, then quantizes
    and codes the recorded test packets and reports mean bits per packet
    and the relative reduction.
    """
    kind, sigma = noise_params(cfg.noise)
    if kind != "gaussian" or sigma <= 0:
        raise ConfigError("bitrate experiment requires gaussian noise with sigma > 0")
    if cfg.N % 2 != 0:
        raise ConfigError("sparse scheme requires an even packet length")
    setup = build_setup(cfg, design=design)
    quantizer = Quantizer(delta=cfg.quantizer_delta)
    plan = (("omp", "sparse"), ("l2", "dense"))

    train_cfg = replace(cfg, trials=cfg.train_trials)
    codecs = {}
    for name, scheme in plan:
        rep = monte_carlo(train_cfg, namespace=NS_TRAIN, setup=setup,
                          controller_name=name)
        samples = quantize_packet(quantizer, _recorded_packets(rep)).reshape(-1, cfg.N)
        codecs[name] = train_codec(samples, scheme, quantizer)

    tests, bits, hexes = {}, {}, {}
    roundtrip_failures = 0
    max_quant_error = 0.0
    for name, scheme in plan:
        tests[name] = monte_carlo(cfg, namespace=NS_TEST, setup=setup,
                                  controller_name=name)
        packets = _recorded_packets(tests[name])
        indices = quantize_packet(quantizer, packets)
        err = float(np.max(np.abs(packets - dequantize(quantizer, indices))))
        max_quant_error = max(max_quant_error, err)
        bits[scheme], hexes[scheme], failures = _code_packets(codecs[name], indices)
        roundtrip_failures += failures

    mean_omp = float(np.mean(bits["sparse"]))
    mean_l2 = float(np.mean(bits["dense"]))
    return BitrateReport(
        cfg=cfg,
        mean_bits_omp=mean_omp,
        mean_bits_l2=mean_l2,
        reduction_pct=100.0 * (1.0 - mean_omp / mean_l2),
        roundtrip_failures=roundtrip_failures,
        max_quant_error=max_quant_error,
        codec_omp=codecs["omp"],
        codec_l2=codecs["l2"],
        test_omp=tests["omp"],
        test_l2=tests["l2"],
        bits=bits,
        hexes=hexes,
    )


# ---------------------------------------------------------------------------
# Deterministic CSV / metadata emission

def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path, header, rows) -> None:
    """Plain deterministic CSV: repr() floats, no quoting, LF newlines."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def trace_rows(report: MonteCarloReport):
    for r in report.results:
        for k, dk in enumerate(r.d):
            yield (r.trial, k, int(dk))


def trajectory_rows(report: MonteCarloReport):
    for r in report.results:
        for k in range(len(r.norms)):
            yield (r.trial, k, float(r.norms[k]), float(r.V[k]),
                   float(r.u_applied[k]), int(r.sparsity[k]))


def summary_rows(report: MonteCarloReport):
    for k in range(len(report.mean_norm)):
        yield (k, float(report.mean_norm[k]), float(report.median_norm[k]),
               float(report.max_norm[k]), float(report.mean_V[k]),
               float(report.mean_sparsity[k]))


def packet_rows(breport: BitrateReport):
    """Hex-dumped bitstreams with their exact bit counts."""
    for scheme, rep in (("sparse", breport.test_omp), ("dense", breport.test_l2)):
        for r, bits, dumps in zip(rep.results, breport.bits[scheme], breport.hexes[scheme]):
            for k, (b, h) in enumerate(zip(bits, dumps)):
                yield (r.trial, k, scheme, int(b), h)


def rate_rows(breport: BitrateReport):
    for row in packet_rows(breport):
        yield row[:4]


def sweep_rows(sreport: SweepReport):
    for nu, perf in zip(sreport.grid, sreport.mean_perf):
        yield (sreport.family, float(nu), float(perf))


def resolved_config(cfg: SimConfig) -> dict:
    """Every parameter that shaped the run, defaults included."""
    doc = asdict(cfg)
    doc["l1l2_zero_clamp"] = L1_ZERO_CLAMP
    # trial i always sees the same trace/x0/noise regardless of controller
    doc["paired_trials"] = True
    return doc
