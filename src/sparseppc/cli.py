"""Command-line front end: design, simulate, sweep, and bitrate runs.

Exit codes: 0 success, 2 configuration/validation error, 3 solver or
numeric failure. All CSV outputs are byte-identical for identical
configuration and seed; wall-clock timings live only in meta.json.
"""

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .design import design_from_dict, design_to_dict
from .errors import ConfigError, SparsePpcError
from .sim import (MonteCarloReport, bitrate_experiment, build_setup,
                  config_from_dict, monte_carlo, packet_rows, rate_rows,
                  resolved_config, summary_rows, sweep_regularization,
                  sweep_rows, trace_rows, trajectory_rows, write_csv)
from .codec import codec_to_dict
from .svgplot import write_line_svg

# Unused here since design runs go through build_setup, but the span tracer
# in perfbench/tracer.py still wraps these layers on this module.
from .design import build_design  # noqa: F401
from .horizon import build_horizon  # noqa: F401
from .plant import resolve_plant  # noqa: F401


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return doc


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_meta(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _config_overrides(args) -> dict:
    return {
        "seed": args.seed,
        "controller": getattr(args, "controller", None),
        "trials": getattr(args, "trials", None),
        "steps": getattr(args, "steps", None),
    }


def _cmd_design(args) -> int:
    setup = build_setup(config_from_dict(_load_config(args.config)))
    payload = design_to_dict(setup.design)
    payload["plant"] = {"A": setup.model.A.tolist(), "B": setup.model.B.tolist()}

    if args.dump_horizon:
        out = _out_dir(args) if args.out_dir else Path(".")
        np.savetxt(out / "G.csv", setup.hm.G, delimiter=",")
        np.savetxt(out / "H.csv", setup.hm.H, delimiter=",")

    if args.out_dir:
        out = _out_dir(args)
        _write_meta(out / "design.json", payload)
        print(f"wrote {out / 'design.json'}")
    else:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
    return 0


def _emit_simulation(out: Path, report: MonteCarloReport, meta_extra: dict,
                     plots: bool) -> None:
    write_csv(out / "trace.csv", ("trial", "k", "d"), trace_rows(report))
    write_csv(out / "trajectory.csv", ("trial", "k", "norm", "V", "u", "sparsity"),
              trajectory_rows(report))
    write_csv(out / "summary.csv",
              ("k", "mean_norm", "median_norm", "max_norm", "mean_V", "mean_sparsity"),
              summary_rows(report))
    meta = {
        "tool": {"name": "sparseppc", "version": __version__},
        "config": resolved_config(report.cfg),
        "results": {
            "trials_succeeded": len(report.results),
            "failures": [{"trial": t, "error": msg} for t, msg in report.failures],
            "total_overrides": report.total_overrides,
            "total_violations": report.total_violations,
            "mean_perf": float(np.mean(report.per_trial_perf)),
        },
        "timing": {"mean_solve_seconds": report.mean_solve_seconds},
    }
    meta.update(meta_extra)
    _write_meta(out / "meta.json", meta)
    if plots:
        ks = list(range(len(report.mean_norm)))
        write_line_svg(out / "norm_vs_k.svg",
                       [("mean", ks, list(report.mean_norm)),
                        ("median", ks, list(report.median_norm)),
                        ("max", ks, list(report.max_norm))],
                       title="state norm vs k", y_label="||x(k)||", log_y=True)
        write_line_svg(out / "norm_vs_k_linear.svg",
                       [("mean", ks, list(report.mean_norm))],
                       title="state norm vs k", y_label="||x(k)||")
        write_line_svg(out / "sparsity_vs_k.svg",
                       [("mean nonzeros", ks, list(report.mean_sparsity))],
                       title="packet sparsity vs k", y_label="nonzeros")


def _cmd_simulate(args) -> int:
    cfg = config_from_dict(_load_config(args.config), **_config_overrides(args))
    design = design_from_dict(_load_config(args.design)) if args.design else None
    report = monte_carlo(cfg, design=design)
    out = _out_dir(args)
    _emit_simulation(out, report, {}, args.plots)
    print(f"simulate: {len(report.results)}/{cfg.trials} trials ok, "
          f"outputs in {out}")
    return 0


def _cmd_sweep(args) -> int:
    doc = _load_config(args.config)
    family = args.family or doc.pop("family", None)
    grid = doc.pop("grid", None)
    if args.grid:
        grid = [float(g) for g in args.grid.split(",")]
    if family is None or not grid:
        raise ConfigError("sweep requires a controller family and a nu grid")
    cfg = config_from_dict(doc, **_config_overrides(args))
    report = sweep_regularization(cfg, family, grid, match_perf=args.match_perf)
    out = _out_dir(args)
    write_csv(out / "sweep.csv", ("family", "nu", "mean_perf"), sweep_rows(report))
    _write_meta(out / "meta.json", {
        "tool": {"name": "sparseppc", "version": __version__},
        "config": resolved_config(cfg),
        "sweep": {k: v for k, v in asdict(report).items() if k not in ("grid", "mean_perf")},
    })
    if args.plots:
        write_line_svg(out / "sweep.svg",
                       [(report.family, report.grid, report.mean_perf)],
                       title="regularization vs performance", x_label="nu",
                       y_label="mean perf")
    print(f"sweep: argmin nu = {report.argmin_nu:g} "
          f"(perf {report.argmin_perf:.6g}), outputs in {out}")
    return 0


def _cmd_bitrate(args) -> int:
    doc = _load_config(args.config)
    doc.setdefault("noise", {"kind": "gaussian", "sigma": 0.01})
    overrides = _config_overrides(args)
    overrides["train_trials"] = args.train_trials
    overrides.pop("controller", None)
    cfg = config_from_dict(doc, **overrides)
    report = bitrate_experiment(cfg)
    out = _out_dir(args)
    write_csv(out / "rates.csv", ("trial", "k", "scheme", "bits"), rate_rows(report))
    if args.dump_packets:
        write_csv(out / "packets.csv", ("trial", "k", "scheme", "bit_count", "hex"),
                  packet_rows(report))
    _write_meta(out / "codec_omp.json", codec_to_dict(report.codec_omp))
    _write_meta(out / "codec_l2.json", codec_to_dict(report.codec_l2))
    _write_meta(out / "meta.json", {
        "tool": {"name": "sparseppc", "version": __version__},
        "config": resolved_config(cfg),
        "rates": {
            "mean_bits_omp": report.mean_bits_omp,
            "mean_bits_l2": report.mean_bits_l2,
            "reduction_pct": report.reduction_pct,
            "roundtrip_failures": report.roundtrip_failures,
            "max_quant_error": report.max_quant_error,
        },
    })
    print(f"bitrate: OMP {report.mean_bits_omp:.2f} bits vs l2 "
          f"{report.mean_bits_l2:.2f} bits ({report.reduction_pct:.1f}% reduction), "
          f"outputs in {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparseppc",
        description="Sparse packetized predictive control simulator")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, controller=True):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--out-dir", help="output directory")
        p.add_argument("--trials", type=int, help="trial count override")
        p.add_argument("--steps", type=int, help="steps per trial override")
        p.add_argument("--plots", action="store_true", help="emit SVG plots")
        if controller:
            p.add_argument("--controller", choices=["omp", "l1l2", "l2", "least_squares", "oracle"],
                           help="controller override")

    p = sub.add_parser("design", help="build the stabilizing cost design")
    p.add_argument("--config", help="JSON config (plant, N, Q, eta, delta; "
                   "a simulate config also works)")
    p.add_argument("--out-dir", help="write design.json here (default: stdout)")
    p.add_argument("--dump-horizon", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("simulate", help="closed-loop Monte Carlo run")
    common(p)
    p.add_argument("--design", help="reuse a design.json from the design command")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="regularization-vs-performance curve")
    common(p, controller=False)
    p.add_argument("--family", choices=["l1l2", "l2"], help="controller family")
    p.add_argument("--grid", help="comma-separated nu values")
    p.add_argument("--match-perf", type=float,
                   help="report the grid point closest to this performance level")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("bitrate", help="train/test entropy-coding experiment")
    common(p, controller=False)
    p.add_argument("--train-trials", type=int, help="training trial count")
    p.add_argument("--dump-packets", action="store_true",
                   help="also write packets.csv with hex bitstreams")
    p.set_defaults(func=_cmd_bitrate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        required_out = args.command in ("simulate", "sweep", "bitrate")
        if required_out and not args.out_dir:
            raise ConfigError(f"{args.command} requires --out-dir")
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SparsePpcError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
