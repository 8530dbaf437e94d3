#!/usr/bin/env python3
"""Benchmark of the sparseppc CLI: closed-loop throughput, set-up time,
memory and control quality on four workloads, plus a traced per-layer run.

    python3 perfbench/run.py --workload mc_omp --seed 1 --seconds 12 --trace 0

Run it from the root of a checkout: the package is imported from src/ and
outputs go to .perfbench_out/. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics (end-to-end
metrics with --trace 0, per-layer metrics with --trace 1); the lines before
it start with "#" and give the environment and every number by name and
unit. perfbench/README.md says why each workload exists.
"""

import os

# Pinned before numpy loads: the loop solves 10 x 10 systems, where BLAS
# threads add only scheduling noise.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager, redirect_stdout  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from io import StringIO  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PROBE = Path(__file__).resolve().parent / "probe.py"

if not (SRC / "sparseppc" / "__init__.py").is_file():
    sys.exit(f"perfbench: no sparseppc package under {SRC}; run from a checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import sparseppc  # noqa: E402
from sparseppc import cli, sim  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402

if Path(sparseppc.__file__).resolve().parent != (SRC / "sparseppc").resolve():
    sys.exit(f"perfbench: sparseppc imported from {sparseppc.__file__}, not {SRC}")

# name -> (unit, better); values come from untraced passes only.
END_TO_END = {
    "steps_per_s": ("steps/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "ok_trial_frac": ("ratio", "higher"),
    "mean_perf": ("norm", "lower"),
    "mean_sparsity": ("nonzeros", "lower"),
}

# Shared by every workload: the paper's plant, N = 10, Q = I, Markov
# dropouts and 100 steps per trial.
CONFIG = {
    "plant": "cessna500",
    "N": 10,
    "Q": "identity",
    "dropout": {"kind": "markov", "p_dd": 0.8, "p_dg": 0.2},
    "steps": 100,
}
SIM_CSVS = ("trace.csv", "trajectory.csv", "summary.csv")
SETUP_REPEATS = 6


@dataclass(frozen=True)
class Workload:
    """One CLI invocation shape; a pass is one call of `sparseppc.cli.main`.

    A run cycles over `passes` pass seeds drawn from the run seed: the first
    full cycle fixes the quality metrics, and every later pass repeats an
    earlier seed, whose outputs must then match byte for byte.
    """

    name: str
    args: tuple          # subcommand and its flags
    controller: str      # solver whose packets mean_sparsity counts
    trials: int          # trials per pass (test trials for bitrate)
    passes: int          # pass seeds in one cycle
    traced_passes: int   # traced passes the per-layer metrics sum over
    sigma: float = 0.0   # process-noise level; 0 is noise-free
    train_trials: int = 0
    csvs: tuple = SIM_CSVS

    def argv(self, config: Path, seed: int, out: Path) -> list:
        train = ["--train-trials", str(self.train_trials)] if self.train_trials else []
        return [self.args[0], "--config", str(config), "--seed", str(seed),
                "--trials", str(self.trials), "--out-dir", str(out), *train,
                *self.args[1:]]

    def config(self) -> dict:
        noise = {"kind": "gaussian", "sigma": self.sigma} if self.sigma else {"kind": "none"}
        return {**CONFIG, "noise": noise}


WORKLOADS = {w.name: w for w in (
    Workload("mc_omp", ("simulate", "--controller", "omp"), "omp",
             trials=5, passes=32, traced_passes=8),
    Workload("sim_l2", ("simulate", "--controller", "l2", "--plots"), "l2",
             trials=50, passes=16, traced_passes=6),
    Workload("bitrate", ("bitrate", "--dump-packets"), "omp", trials=2,
             train_trials=6, passes=32, traced_passes=6, sigma=0.01,
             csvs=("rates.csv", "packets.csv")),
    Workload("sweep_l1l2", ("sweep", "--family", "l1l2", "--grid", "1e2,1e3,5.3e3,1e4"),
             "l1l2", trials=2, passes=60, traced_passes=9, csvs=("sweep.csv",)),
)}


@dataclass
class PassResult:
    seed: int
    wall: float = math.nan
    scale: float = 1.0   # machine-speed factor from speed.SpeedProbe
    steps: int = 0
    attempted: int = 0
    trial_failures: int = 0
    perf: list = field(default_factory=list)
    nonzeros: int = 0
    packets: int = 0
    violations: int = 0
    meta: dict = field(default_factory=dict)
    digest: str = ""
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return max(self.attempted, 1) if self.problems else self.trial_failures

    def fingerprint(self) -> tuple:
        """Everything a pass computes that must repeat exactly for its seed."""
        return (self.digest, self.perf, self.nonzeros, self.packets,
                self.violations, json.dumps(self.meta, sort_keys=True))


class ReportTap:
    """Collects every MonteCarloReport a pass produces, then restores."""

    def __init__(self, result: PassResult, controller: str):
        self.result = result
        self.controller = controller

    def _wrap(self, fn):
        res = self.result

        def tapped(cfg, *args, **kwargs):
            res.attempted += cfg.trials
            rep = fn(cfg, *args, **kwargs)
            res.steps += len(rep.results) * cfg.steps
            res.trial_failures += len(rep.failures)
            res.perf.extend(rep.per_trial_perf.tolist())
            res.violations += rep.total_violations or 0
            if (kwargs.get("controller_name") or cfg.controller) == self.controller:
                res.nonzeros += int(sum(r.sparsity.sum() for r in rep.results))
                res.packets += sum(r.sparsity.size for r in rep.results)
            return rep

        return tapped

    @contextmanager
    def installed(self):
        saved = [(site, site.monte_carlo) for site in (sim, cli)]
        try:
            for site, fn in saved:
                site.monte_carlo = self._wrap(fn)
            yield
        finally:
            for site, fn in saved:
                site.monte_carlo = fn


def run_pass(wl: Workload, config: Path, seed: int, tracer: Tracer = None) -> PassResult:
    """One CLI call, timed around `cli.main` only, then its output checks."""
    out = OUT / wl.name / "pass"
    shutil.rmtree(out, ignore_errors=True)
    argv = wl.argv(config, seed, out)
    res = PassResult(seed=seed)
    try:
        with ReportTap(res, wl.controller).installed(), redirect_stdout(StringIO()):
            if tracer is None:
                t0 = perf_counter()
                rc = cli.main(argv)
                res.wall = perf_counter() - t0
            else:
                rc, res.wall = tracer.run_pass(cli.main, argv)
    except Exception:  # the benchmark must report a crashing pass, not die
        res.problems.append("pass raised:\n" + traceback.format_exc(limit=4))
        return res
    if rc != 0:
        res.problems.append(f"sparseppc exited with code {rc}")
    check_outputs(wl, out, res)
    return res


def check_outputs(wl: Workload, out: Path, res: PassResult) -> None:
    missing = [n for n in wl.csvs + ("meta.json",) if not (out / n).is_file()]
    if missing:
        res.problems.append(f"missing outputs: {missing}")
        return
    h = hashlib.sha256()
    for name in wl.csvs:
        h.update((out / name).read_bytes())
    res.digest = h.hexdigest()
    res.meta = json.loads((out / "meta.json").read_text())
    res.meta.pop("timing", None)   # wall times legitimately differ per pass
    if not res.perf or not all(math.isfinite(p) for p in res.perf):
        res.problems.append("non-finite or missing trial performance")
    # The design guarantees Lyapunov decrease for the budget-feasible (OMP)
    # packets without noise; the l2 and l1 baselines carry no such promise.
    if wl.controller == "omp" and wl.sigma == 0 and res.violations:
        res.problems.append(f"{res.violations} Lyapunov violations")
    rates = res.meta.get("rates")
    if rates is not None:
        if rates["roundtrip_failures"]:
            res.problems.append(f"{rates['roundtrip_failures']} codec round-trip failures")
        half_step = res.meta["config"]["quantizer_delta"] / 2
        if rates["max_quant_error"] > half_step * (1 + 1e-9):
            res.problems.append(
                f"quantization error {rates['max_quant_error']} exceeds delta/2 = {half_step}")


def pass_seeds(seed: int, count: int) -> list:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def probe_setup(wl: Workload, config: Path, seed: int) -> float:
    spec = {"config": str(config),
            "overrides": {"seed": seed, "trials": wl.trials, "controller": wl.controller}}
    done = subprocess.run([sys.executable, str(PROBE), "setup", json.dumps(spec)],
                          env=_child_env(), capture_output=True, text=True,
                          timeout=60, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def probe_peak_rss(wl: Workload, config: Path, seed: int) -> float:
    """Peak resident MiB of a fresh process running one pass."""
    argv = wl.argv(config, seed, OUT / wl.name / "rss")
    proc = subprocess.Popen([sys.executable, str(PROBE), "pass", json.dumps(argv)],
                            env=_child_env(), stdout=subprocess.DEVNULL)
    _pid, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"peak-memory pass exited with code {proc.returncode}")
    return usage.ru_maxrss / 1024.0    # Linux reports KiB


def _child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def environment() -> dict:
    """What a result depends on besides the code: recorded with every run."""
    sha = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = done.stdout.strip() or sha
    digest = hashlib.sha256()
    for path in sorted((SRC / "sparseppc").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + path.read_bytes())
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
    }


class Run:
    """State of one benchmark run: its passes and per-seed references."""

    def __init__(self, wl: Workload, seed: int):
        self.wl = wl
        self.seeds = pass_seeds(seed, wl.passes)
        self.passes = []
        self.reference = {}
        self.speed = SpeedProbe()
        shutil.rmtree(OUT / wl.name, ignore_errors=True)
        (OUT / wl.name).mkdir(parents=True)
        self.config = OUT / wl.name / "config.json"
        self.config.write_text(json.dumps(wl.config()))

    def checked_pass(self, i: int, tracer: Tracer = None, timed: bool = True) -> PassResult:
        seed = self.seeds[i % len(self.seeds)]
        if timed:
            res, scale = self.speed.timed(
                lambda: run_pass(self.wl, self.config, seed, tracer))
            res.scale = scale
        else:
            res = run_pass(self.wl, self.config, seed, tracer)
        if not res.problems:
            ref = self.reference.setdefault(seed, res.fingerprint())
            if res.fingerprint() != ref:
                res.problems.append(f"outputs differ from the earlier pass with seed {seed}")
        self.passes.append(res)
        return res

    def failures(self) -> tuple:
        attempted = sum(max(r.attempted, 1) for r in self.passes)
        return attempted, sum(r.failed for r in self.passes)


def repeat(seconds: float, minimum: int, step) -> None:
    """Call `step(i)` for i = 0, 1, ... until `minimum` calls are done and
    `seconds` have elapsed."""
    t0 = perf_counter()
    i = 0
    while i < minimum or perf_counter() - t0 < seconds:
        step(i)
        i += 1


def step_rate(passes, scaled: bool = True) -> float:
    """Median steps per second over the passes that passed their checks."""
    rates = [r.steps / (r.wall * (r.scale if scaled else 1.0))
             for r in passes if not r.problems and r.wall > 0]
    return statistics.median(rates) if rates else 0.0


def measure(wl: Workload, seed: int, seconds: float, trace: bool,
            setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run one workload; return the result document (metrics and checks)."""
    run = Run(wl, seed)
    if trace:
        metrics, info = _measure_traced(run, seconds), {}
    else:
        metrics, info = _measure(run, seconds, setup_repeats)
    attempted, failed = run.failures()
    problems = [f"pass seed {r.seed}: {p}" for r in run.passes for p in r.problems]
    return {"correct": not problems and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics, "info": info,
            "problems": problems, "passes": len(run.passes)}


def _measure(run: Run, seconds: float, setup_repeats: int) -> tuple:
    """End-to-end metrics: timed passes cycling over the pass seeds."""
    wl = run.wl
    peak_rss = probe_peak_rss(wl, run.config, run.seeds[0])
    run.checked_pass(0, timed=False)          # warm-up; sets the first reference
    # Set-up probes are spread over the first cycle so that, like the timed
    # passes, they sample the machine at different moments.
    setup, setup_raw, timed = [], [], []
    stride = max(1, wl.passes // setup_repeats)

    def step(i):
        if i % stride == 0 and len(setup) < setup_repeats:
            raw, scale = run.speed.timed(lambda: probe_setup(wl, run.config, run.seeds[0]))
            setup_raw.append(raw)
            setup.append(raw * scale)
        timed.append(run.checked_pass(i))

    repeat(seconds, wl.passes, step)
    cycle = timed[:wl.passes]
    attempted, failed = run.failures()
    packets = sum(r.packets for r in cycle)
    metrics = {
        "steps_per_s": step_rate(timed),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss,
        "ok_trial_frac": 1.0 - failed / attempted,
        "mean_perf": statistics.fmean([p for r in cycle for p in r.perf] or [0.0]),
        "mean_sparsity": sum(r.nonzeros for r in cycle) / packets if packets else 0.0,
    }
    info = {
        "steps_per_s_unscaled": (step_rate(timed, scaled=False), "steps/s"),
        "setup_s_unscaled": (statistics.median(setup_raw), "s"),
        "failed_trial_frac": (failed / attempted, "ratio"),
        "lyapunov_violations": (sum(r.violations for r in cycle), "count"),
    }
    rates = [r.meta["rates"] for r in cycle if "rates" in r.meta]
    if rates:
        omp = statistics.fmean(r["mean_bits_omp"] for r in rates)
        l2 = statistics.fmean(r["mean_bits_l2"] for r in rates)
        info["bits_per_packet"] = (omp, "bits")
        info["bitrate_reduction_pct"] = (100.0 * (1.0 - omp / l2), "%")
    return metrics, info


def _measure_traced(run: Run, seconds: float) -> dict:
    """Per-layer metrics summed over `traced_passes` traced passes.

    Each traced pass is paired with an untraced pass of the same seed, in
    alternating order, so trace.overhead_frac compares like with like.
    """
    wl = run.wl
    tracer = Tracer()
    run.checked_pass(0, timed=False)
    plain, traced = [], []

    def pair(i):
        tr = tracer if i < wl.traced_passes else Tracer()
        if i % 2 == 0:
            plain.append(run.checked_pass(i))
            traced.append(run.checked_pass(i, tr))
        else:
            traced.append(run.checked_pass(i, tr))
            plain.append(run.checked_pass(i))

    repeat(seconds, wl.traced_passes, pair)
    untraced_rate = step_rate(plain)
    overhead = 1.0 - step_rate(traced) / untraced_rate if untraced_rate else 0.0
    tracer.write_spans(OUT / wl.name / "spans.csv")
    return tracer.metrics(overhead, [r.scale for r in traced[:wl.traced_passes]])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    # One CPU for the benchmark and its probes, so the speed kernel samples
    # the core the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = environment()
    doc = measure(wl, args.seed, args.seconds, bool(args.trace))
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": doc["metrics"][name], "unit": units[name][0]} for name in units}
    (OUT / wl.name / f"result-trace{args.trace}.json").write_text(json.dumps(
        {"workload": wl.name, "seed": args.seed, "env": env, **doc, "metrics": metrics},
        indent=1))

    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# workload {wl.name} seed {args.seed} passes {doc['passes']}")
    for name, m in metrics.items():
        print(f"# {name} {m['value']!r} {m['unit']}")
    for name, (value, unit) in doc["info"].items():
        print(f"# {name} {value!r} {unit} (not bounded)")
    for problem in doc["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"correct": doc["correct"], "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
