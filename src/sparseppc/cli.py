"""Command-line front end: design, simulate, sweep, and bitrate runs.

Exit codes: 0 success, 2 configuration/validation error, 3 solver or
numeric failure. All CSV outputs are byte-identical for identical
configuration and seed; wall-clock timings live only in meta.json.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .design import design_from_dict, design_to_dict
from .errors import ConfigError, SparsePpcError
from .linalg import shown
from .sim import (CONTROLLERS, SWEEP_KEYS, bitrate_experiment, build_setup,
                  config_from_dict, monte_carlo, packet_columns, rate_columns,
                  resolved_config, summary_columns, sweep_columns,
                  sweep_regularization, trace_columns, trajectory_columns,
                  write_csv, write_file)
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
    except ValueError as exc:     # also an integer past Python's 4300-digit limit
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return doc


def _check_out_dir(args) -> None:
    """Refuse, before any compute and creating nothing, an --out-dir that cannot be one."""
    out = Path(args.out_dir).absolute()
    # lexists, not exists: a dangling symlink is refused, not passed over
    near = next(p for p in (out, *out.parents) if os.path.lexists(p))
    if not near.is_dir():
        raise ConfigError(f"cannot create output directory {args.out_dir}: "
                          f"{near} is not a directory")


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _write_meta(path: Path, payload: dict) -> None:
    write_file(path, [json.dumps(payload, indent=2, sort_keys=True) + "\n"])


def _write_run_meta(out: Path, config: dict, **sections) -> None:
    """A run's meta.json: the tool, the config its runs used, then its sections."""
    _write_meta(out / "meta.json", {"tool": {"name": "sparseppc", "version": __version__},
                                    "config": config, **sections})


def _config_overrides(args) -> dict:
    return {
        "seed": args.seed,
        "controller": getattr(args, "controller", None),
        "trials": getattr(args, "trials", None),
        "steps": getattr(args, "steps", None),
    }


def _cmd_design(args) -> int:
    cfg = config_from_dict(_load_config(args.config))
    if args.out_dir:
        _check_out_dir(args)
    setup = build_setup(cfg)
    payload = design_to_dict(setup.design)
    payload["plant"] = {"A": setup.model.A.tolist(), "B": setup.model.B.tolist()}

    if args.out_dir:
        _write_meta(path := _out_dir(args) / "design.json", payload)
        print(f"wrote {path}")
    else:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
    return 0


def _cmd_simulate(args) -> int:
    cfg = config_from_dict(_load_config(args.config), **_config_overrides(args))
    design = design_from_dict(_load_config(args.design)) if args.design else None
    _check_out_dir(args)
    setup = build_setup(cfg, design=design)
    out = _out_dir(args)
    report = monte_carlo(cfg, setup=setup)
    write_csv(out / "trace.csv", trace_columns(report))
    write_csv(out / "trajectory.csv", trajectory_columns(report))
    summary = summary_columns(report)
    write_csv(out / "summary.csv", summary)
    succeeded = len(report.records.trial)
    _write_run_meta(out, resolved_config(cfg), results={
        "trials_succeeded": succeeded,
        "failures": [{"trial": t, "error": msg} for t, msg in report.failures],
        "total_overrides": int(report.records.overrides.sum()),
        "total_violations": report.total_violations,
        "mean_perf": float(np.mean(report.per_trial_perf)),
    }, timing={"mean_step_seconds": report.mean_step_seconds})
    if args.plots:
        ks = summary["k"].tolist()
        write_line_svg(out / "norm_vs_k.svg",
                       [("mean", ks, list(summary["mean_norm"])),
                        ("median", ks, list(summary["median_norm"])),
                        ("max", ks, list(summary["max_norm"]))],
                       title="state norm vs k", y_label="||x(k)||", log_y=True)
        write_line_svg(out / "norm_vs_k_linear.svg",
                       [("mean", ks, list(summary["mean_norm"]))],
                       title="state norm vs k", y_label="||x(k)||")
        write_line_svg(out / "sparsity_vs_k.svg",
                       [("mean nonzeros", ks, list(summary["mean_sparsity"]))],
                       title="packet sparsity vs k", y_label="nonzeros")
    print(f"simulate: {succeeded}/{cfg.trials} trials ok, outputs in {out}")
    return 0


def _cmd_sweep(args) -> int:
    doc = _load_config(args.config)
    family, grid = doc.pop("family", None), doc.pop("grid", None)
    family = args.family or family
    if args.grid:
        try:
            grid = [float(g) for g in args.grid.split(",")]
        except ValueError:
            raise ConfigError(f"--grid must list numbers, got {shown(args.grid)}") from None
    if family is None or not grid:
        raise ConfigError("sweep requires a controller family and a nu grid")
    cfg = config_from_dict(doc, **_config_overrides(args))
    _check_out_dir(args)
    report = sweep_regularization(cfg, family, grid, match_perf=args.match_perf)
    out = _out_dir(args)
    write_csv(out / "sweep.csv", sweep_columns(report))
    config = resolved_config(cfg, controller=family, **{SWEEP_KEYS[family]: report.grid})
    sweep = {k: v for k, v in asdict(report).items() if k not in ("grid", "mean_perf")}
    sweep["failures"] = [{"nu": nu, "trial": t, "error": msg} for nu, t, msg in report.failures]
    _write_run_meta(out, config, sweep=sweep)
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
    cfg = config_from_dict(doc, **_config_overrides(args), train_trials=args.train_trials)
    _check_out_dir(args)
    report = bitrate_experiment(cfg)
    out = _out_dir(args)
    write_csv(out / "rates.csv", rate_columns(report))
    if args.dump_packets:
        write_csv(out / "packets.csv", packet_columns(report))
    for run in report.schemes.values():
        _write_meta(out / f"codec_{run.controller}.json", codec_to_dict(run.codec))
    config = resolved_config(cfg, controller=[run.controller for run in report.schemes.values()])
    _write_run_meta(out, config, rates={
        "mean_bits_omp": report.mean_bits_omp,
        "mean_bits_l2": report.mean_bits_l2,
        "reduction_pct": report.reduction_pct,
        "roundtrip_failures": report.roundtrip_failures,
        "max_quant_error": report.max_quant_error,
        "failures": [{"controller": c, "phase": phase, "trial": t, "error": msg}
                     for c, phase, t, msg in report.failures],
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

    def common(p, plots=True):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--out-dir", required=True, help="output directory")
        p.add_argument("--trials", type=int, help="trial count override")
        p.add_argument("--steps", type=int, help="steps per trial override")
        if plots:
            p.add_argument("--plots", action="store_true", help="emit SVG plots")

    p = sub.add_parser("design", help="build the stabilizing cost design")
    p.add_argument("--config", help="JSON config (plant, N, Q, eta, delta; "
                   "a simulate config also works)")
    p.add_argument("--out-dir", help="write design.json here (default: stdout)")
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("simulate", help="closed-loop Monte Carlo run")
    common(p)
    p.add_argument("--controller", choices=CONTROLLERS, help="controller override")
    p.add_argument("--design", help="a design.json from the design command, which "
                   "must equal the design this config builds")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="regularization-vs-performance curve")
    common(p)
    p.add_argument("--family", choices=list(SWEEP_KEYS),
                   help="controller family (overrides the config's family)")
    p.add_argument("--grid", help="comma-separated nu values (overrides the config's grid)")
    p.add_argument("--match-perf", type=float,
                   help="report the grid point closest to this performance level")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("bitrate", help="train/test entropy-coding experiment")
    common(p, plots=False)
    p.add_argument("--train-trials", type=int, help="training trial count")
    p.add_argument("--dump-packets", action="store_true",
                   help="also write packets.csv; only then are the bitstreams hex-dumped")
    p.set_defaults(func=_cmd_bitrate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SparsePpcError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
