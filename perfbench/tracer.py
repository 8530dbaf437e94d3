"""Span tracing of sparseppc's layer functions, installed from outside.

Every public layer function is replaced, at each module attribute through
which `sim` and `cli` look it up, by a wrapper that records one span per
call: name, start, end and parent span. No file of the package changes;
`Tracer.installed()` puts the originals back when its block exits. Spans
stay in memory until `write_spans` is called at the end of a run.
"""

import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from sparseppc import (channel, cli, codec, controllers, design, horizon,
                       plant, sim, svgplot)

# span name -> (defining module, function name, modules that look it up)
LAYERS = {
    "plant.resolve_plant": (plant, "resolve_plant", (sim, cli)),
    "design.build_design": (design, "build_design", (sim, cli)),
    "horizon.build_horizon": (horizon, "build_horizon", (sim, cli)),
    "controllers.omp_packet": (controllers, "omp_packet", (sim,)),
    "controllers.l2_packet": (controllers, "l2_packet", (sim,)),
    "controllers.l1l2_packet": (controllers, "l1l2_packet", (sim,)),
    "channel.generate_trace": (channel, "generate_trace", (sim,)),
    "channel.actuate": (channel, "actuate", (sim,)),
    "codec.quantize_packet": (codec, "quantize_packet", (sim,)),
    "codec.encode": (codec, "encode", (sim,)),
    "codec.decode": (codec, "decode", (sim,)),
    "codec.train_codec": (codec, "train_codec", (sim,)),
    "sim.run_trial": (sim, "run_trial", (sim,)),
    "sim.lyapunov_audit": (sim, "lyapunov_audit", (sim,)),
    "sim.monte_carlo": (sim, "monte_carlo", (sim, cli)),
    "sim.sweep_regularization": (sim, "sweep_regularization", (cli,)),
    "sim.bitrate_experiment": (sim, "bitrate_experiment", (cli,)),
    "sim.write_csv": (sim, "write_csv", (cli,)),
    "svgplot.write_line_svg": (svgplot, "write_line_svg", (cli,)),
}
ROOT_SPAN = "cli.main"

# Per-layer metrics of a traced cycle: name -> (unit, better). Layers that
# call no other traced function report `.s` (their self time equals it);
# the others report `.self_s`, so these times plus `trace.uncovered_s` add
# up to `trace.wall_s`.
PER_LAYER = {
    "plant.resolve_plant.s": ("s", "lower"),
    "design.build_design.calls": ("count", "lower"),
    "design.build_design.s": ("s", "lower"),
    "horizon.build_horizon.calls": ("count", "lower"),
    "horizon.build_horizon.s": ("s", "lower"),
    "controllers.omp_packet.calls": ("count", "lower"),
    "controllers.omp_packet.us_p50": ("us", "lower"),
    "controllers.omp_packet.us_p99": ("us", "lower"),
    "controllers.omp_packet.self_s": ("s", "lower"),
    "controllers.omp_packet.iters_mean": ("columns", "lower"),
    "controllers.l2_packet.calls": ("count", "lower"),
    "controllers.l2_packet.us_p50": ("us", "lower"),
    "controllers.l2_packet.us_p99": ("us", "lower"),
    "controllers.l2_packet.self_s": ("s", "lower"),
    "controllers.l1l2_packet.calls": ("count", "lower"),
    "controllers.l1l2_packet.us_p50": ("us", "lower"),
    "controllers.l1l2_packet.us_p99": ("us", "lower"),
    "controllers.l1l2_packet.self_s": ("s", "lower"),
    "controllers.l1l2_packet.iters_mean": ("iters", "lower"),
    "controllers.l1l2_packet.iters_max": ("iters", "lower"),
    "controllers.l1l2_packet.converged_frac": ("ratio", "higher"),
    "channel.generate_trace.calls": ("count", "lower"),
    "channel.generate_trace.s": ("s", "lower"),
    "channel.actuate.calls": ("count", "lower"),
    "channel.actuate.us_p50": ("us", "lower"),
    "channel.actuate.self_s": ("s", "lower"),
    "channel.overrides": ("count", "lower"),
    "channel.drop_frac": ("ratio", "lower"),
    "codec.quantize_packet.calls": ("count", "lower"),
    "codec.quantize_packet.s": ("s", "lower"),
    "codec.encode.calls": ("count", "lower"),
    "codec.encode.us_p50": ("us", "lower"),
    "codec.encode.s": ("s", "lower"),
    "codec.decode.calls": ("count", "lower"),
    "codec.decode.us_p50": ("us", "lower"),
    "codec.decode.s": ("s", "lower"),
    "codec.train_codec.s": ("s", "lower"),
    "codec.bits_total": ("bits", "lower"),
    "codec.roundtrip_ok_frac": ("ratio", "higher"),
    "codec.bits_per_packet": ("bits", "lower"),
    "codec.bitrate_reduction_pct": ("%", "higher"),
    "sim.run_trial.self_s": ("s", "lower"),
    "sim.lyapunov_audit.s": ("s", "lower"),
    "sim.monte_carlo.self_s": ("s", "lower"),
    "sim.sweep_regularization.self_s": ("s", "lower"),
    "sim.bitrate_experiment.self_s": ("s", "lower"),
    "sim.write_csv.s": ("s", "lower"),
    "sim.write_csv.bytes": ("bytes", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "svgplot.write_line_svg.s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.uncovered_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def _solve_hook(tr, name, args, pkt):
    tr.solves[name].append((pkt.solver_iters, pkt.converged))


def _trace_hook(tr, name, args, trace):
    tr.counts["overrides"] += trace.overrides
    tr.counts["drops"] += int(np.count_nonzero(trace.d))
    tr.counts["slots"] += trace.T


def _encode_hook(tr, name, args, enc):
    scheme = args[0].scheme
    tr.counts[f"bits.{scheme}"] += enc.bit_count
    tr.counts[f"packets.{scheme}"] += 1
    tr.last_encoded = (enc, np.array(args[1], dtype=np.int64))


def _decode_hook(tr, name, args, idx):
    enc, sent = tr.last_encoded if tr.last_encoded else (None, None)
    if args[1] is enc and np.array_equal(idx, sent):
        tr.counts["roundtrip_ok"] += 1


def _csv_hook(tr, name, args, out):
    tr.counts["csv_bytes"] += os.path.getsize(args[0])


# Bookkeeping done after a span closes: it is charged to the parent span's
# self time and shows up in trace.overhead_frac, never in the layer's own.
_HOOKS = {
    "controllers.omp_packet": _solve_hook,
    "controllers.l2_packet": _solve_hook,
    "controllers.l1l2_packet": _solve_hook,
    "channel.generate_trace": _trace_hook,
    "codec.encode": _encode_hook,
    "codec.decode": _decode_hook,
    "sim.write_csv": _csv_hook,
}


class Tracer:
    """In-memory span recorder for one or more traced passes."""

    def __init__(self):
        self.name, self.start, self.end, self.parent = [], [], [], []
        self.pass_first = []      # index of the first span of each pass
        self.wall = []            # benchmark-measured wall time of each pass
        self.solves = defaultdict(list)
        self.counts = Counter()
        self.last_encoded = None
        self._stack = []

    def wrap(self, name, fn):
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            i = len(self.name)
            self.name.append(name)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(i)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[i], self.end[i] = t0, t1
            if hook is not None:
                hook(self, name, args, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Swap every lookup site to its traced wrapper; restore on exit."""
        saved = []
        try:
            for name, (_home, attr, sites) in LAYERS.items():
                for site in sites:
                    current = getattr(site, attr)
                    saved.append((site, attr, current))
                    setattr(site, attr, self.wrap(name, current))
            yield
        finally:
            for site, attr, current in reversed(saved):
                setattr(site, attr, current)

    def run_pass(self, main, argv):
        """Call `main(argv)` under a root span; return (exit code, wall s)."""
        self.pass_first.append(len(self.name))
        root = self.wrap(ROOT_SPAN, main)
        with self.installed():
            t0 = perf_counter()
            try:
                rc = root(argv)
            finally:
                self.wall.append(perf_counter() - t0)
        return rc, self.wall[-1]

    def _arrays(self, scales):
        names = np.array(self.name, dtype=object)
        dur = (np.array(self.end) - np.array(self.start)) * scales[self._pass_of()]
        parent = np.array(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        inner = parent >= 0
        np.add.at(child, parent[inner], dur[inner])
        return names, dur, dur - child

    def _pass_of(self) -> np.ndarray:
        return np.searchsorted(self.pass_first, np.arange(len(self.name)), side="right") - 1

    def metrics(self, overhead_frac: float, scales) -> dict:
        """Every PER_LAYER value, summed over the traced passes.

        Times are scaled by each pass's machine-speed factor (speed.py), so
        they add up to the scaled wall time that steps_per_s is based on.
        """
        scales = np.asarray(scales, dtype=float)
        names, dur, self_t = self._arrays(scales)
        out = {}
        for layer in list(LAYERS) + [ROOT_SPAN]:
            sel = names == layer
            d = dur[sel] * 1e6
            out[f"{layer}.calls"] = int(sel.sum())
            out[f"{layer}.s"] = float(dur[sel].sum())
            out[f"{layer}.self_s"] = float(self_t[sel].sum())
            out[f"{layer}.us_p50"] = float(np.percentile(d, 50)) if d.size else 0.0
            out[f"{layer}.us_p99"] = float(np.percentile(d, 99)) if d.size else 0.0
        for layer, rows in ((n, self.solves.get(n, [])) for n in
                            ("controllers.omp_packet", "controllers.l1l2_packet")):
            iters = np.array([r[0] for r in rows], dtype=float)
            out[f"{layer}.iters_mean"] = float(iters.mean()) if iters.size else 0.0
            out[f"{layer}.iters_max"] = float(iters.max()) if iters.size else 0.0
            out[f"{layer}.converged_frac"] = (
                float(np.mean([r[1] for r in rows])) if rows else 0.0)
        c = self.counts
        out["channel.overrides"] = c["overrides"]
        out["channel.drop_frac"] = c["drops"] / c["slots"] if c["slots"] else 0.0
        out["codec.bits_total"] = c["bits.sparse"] + c["bits.dense"]
        decodes = out["codec.decode.calls"]
        out["codec.roundtrip_ok_frac"] = c["roundtrip_ok"] / decodes if decodes else 0.0
        sparse = c["bits.sparse"] / c["packets.sparse"] if c["packets.sparse"] else 0.0
        dense = c["bits.dense"] / c["packets.dense"] if c["packets.dense"] else 0.0
        out["codec.bits_per_packet"] = sparse
        out["codec.bitrate_reduction_pct"] = 100.0 * (1.0 - sparse / dense) if dense else 0.0
        out["sim.write_csv.bytes"] = c["csv_bytes"]
        wall = float(np.dot(self.wall, scales))
        out["trace.wall_s"] = wall
        out["trace.uncovered_s"] = wall - float(self_t.sum())
        out["trace.overhead_frac"] = overhead_frac
        return {name: out[name] for name in PER_LAYER}

    def write_spans(self, path) -> None:
        """Dump every span as CSV: pass, name, start, end, parent index."""
        pass_of = self._pass_of()
        with open(path, "w") as fh:
            fh.write("pass,name,start,end,parent\n")
            for i, name in enumerate(self.name):
                fh.write(f"{pass_of[i]},{name},{self.start[i]!r},"
                         f"{self.end[i]!r},{self.parent[i]}\n")
