"""Command-line interface: simulate, estimate, mc, normality.

All JSON outputs embed provenance (tool version, config digest, base seed
where one exists) and are byte-identical across reruns.
Exit codes: 0 success, 1 runtime error (single machine-parsable line on
stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .config import parse_config, parse_kernel_spec, require_seed, require_stream_id
from .errors import InarError, ValidationError
from .estimate import build_design, rcond, residual_norm, solve_cls
from .inference import _checked_level, confidence_intervals, normality_report, sandwich_covariance
from .model import ModelParams
from .montecarlo import _MIN_NORMALITY_N, component_label, normality_suite, run_experiment
from .simulate import (
    DEFAULT_LAMBDA_CAP,
    RngStream,
    _csv_column,
    _opened,
    _write_csv,
    read_path_csv,
    read_samples_csv,
    simulate_path,
    write_path_csv,
    write_samples_csv,
)

__all__ = ["main", "build_parser"]


def _digest(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()[:16]


def _provenance(config_payload: dict, base_seed: int | None) -> dict:
    return {
        "tool": "inar",
        "version": __version__,
        "config_digest": _digest(config_payload),
        "base_seed": base_seed,
    }


def _write_json(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2, allow_nan=False) + "\n"  # before any file opens
    with _opened(sys.stdout if out is None else out, "w") as fh:
        fh.write(text)


def _finite_or_none(value: float) -> float | None:
    return value if math.isfinite(value) else None


def _cmd_simulate(args) -> int:
    kernel = parse_kernel_spec(args.kernel)
    params = ModelParams(nu=args.nu, kernel=kernel, kernel_tail=args.kernel)
    rng = RngStream(require_seed(args.seed), require_stream_id(args.stream_id))
    path = simulate_path(params, args.T, rng, args.lambda_cap)
    write_path_csv(path, args.out)
    return 0


def _cmd_estimate(args) -> int:
    # The level goes into the provenance with or without --ci.
    _checked_level(args.level)
    path = read_path_csv(args.path)
    system = build_design(path, args.p)
    theta = solve_cls(system)
    doc = {
        "mu_hat": theta.mu,
        "beta_hat": list(theta.betas),
        "p": system.p,
        "T": system.T,
        "residual_norm": residual_norm(system, theta),
        "rcond": rcond(system),
    }
    if args.ci:
        cov = sandwich_covariance(path, theta, args.p)
        intervals = confidence_intervals(theta, cov, system.T, args.level)
        ses = [float(v) for v in np.sqrt(np.maximum(cov.Sigma_hat.diagonal(), 0.0) / system.T)]
        doc["level"] = args.level
        doc["se"] = ses
        doc["ci"] = [[lo, hi] for lo, hi in intervals]
    doc["provenance"] = _provenance(
        {"command": "estimate", "path": os.path.basename(args.path), "p": args.p,
         "ci": bool(args.ci), "level": args.level},
        None,
    )
    _write_json(doc, args.out)
    return 0


def _cmd_mc(args) -> int:
    with _opened(args.config, "r") as fh:
        config = parse_config(fh.read())
    if args.seed is not None:
        config = replace(config, base_seed=require_seed(args.seed))
    # The study ends in the normality suite: a size it cannot take fails
    # here, before anything is simulated.
    if config.n_experiments < _MIN_NORMALITY_N:
        raise ValidationError(
            f"n_experiments: inar mc needs >= {_MIN_NORMALITY_N} for its normality suite, "
            f"got {config.n_experiments}"
        )
    summary = run_experiment(config)
    diagnostics = normality_suite(summary)

    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)

    config_payload = {
        "command": "mc",
        "case": config.case,
        "nu": config.params.nu,
        "kernel": config.params.kernel_tail,
        "T": config.T,
        "p": config.p,
        "n_experiments": config.n_experiments,
        "seed": config.base_seed,
        "cap_negatives": config.cap_negatives,
        "lambda_cap": config.lam_cap,
    }
    doc = {
        "case": config.case,
        "T": config.T,
        "p": config.p,
        "n_experiments": config.n_experiments,
        "base_seed": config.base_seed,
        "mean_theta": [float(v) for v in summary.mean_theta],
        "mse": summary.mse,
        # A zero truth makes the relative error infinite: null in JSON.
        "rel_err_theta": _finite_or_none(summary.rel_err_theta),
        "rel_err_alpha": _finite_or_none(summary.rel_err_alpha),
        "failures": summary.failures,
        "n_success": summary.n_success,
        "normality": {
            diag.label: {
                "jb_stat": diag.report.jb_stat,
                "jb_p": diag.report.jb_p,
                "sw_stat": diag.report.sw_stat,
                "sw_p": diag.report.sw_p,
            }
            for diag in diagnostics
        },
        "normality_samples": "raw",
        "provenance": _provenance(config_payload, config.base_seed),
    }
    _write_json(doc, os.path.join(out_dir, "mc_summary.json"))

    if not args.no_samples:
        labels = [component_label(j) for j in range(summary.per_component_samples.shape[1])]
        write_samples_csv(os.path.join(out_dir, "samples.csv"), labels, summary.rep_ids,
                          summary.per_component_samples)
    # Every component has the same sample size, so the same Q-Q quantiles:
    # their text is rendered once.
    qq_z = _csv_column(diagnostics[0].qq_z)
    for diag in diagnostics:
        _write_csv(os.path.join(out_dir, f"qq_{diag.label}.csv"), ["z", "value"],
                   [qq_z, diag.qq_value])
        _write_csv(os.path.join(out_dir, f"hist_{diag.label}.csv"),
                   ["bin_left", "bin_right", "count"],
                   [diag.hist_left, diag.hist_right, diag.hist_count])
    return 0


def _cmd_normality(args) -> int:
    labels, samples = read_samples_csv(args.samples)
    if args.components:
        wanted = [c.strip() for c in args.components.split(",") if c.strip()]
    else:
        wanted = labels[: min(3, len(labels))]
    reports = {}
    for label in wanted:
        if label not in labels:
            raise InarError(f"component {label!r} not present in samples CSV")
        reports[label] = asdict(normality_report(samples[:, labels.index(label)]))
    doc = {
        "normality": reports,
        "normality_samples": "raw",
        "provenance": _provenance(
            {"command": "normality", "samples": os.path.basename(args.samples),
             "components": wanted},
            None,
        ),
    }
    _write_json(doc, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inar",
        description="Simulate, estimate, and study cumulative INAR count processes.",
    )
    parser.add_argument("--version", action="version", version=f"inar {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate one path to CSV")
    sim.add_argument("--nu", type=float, required=True, help="immigration rate")
    sim.add_argument("--kernel", required=True,
                     help="none | geometric:<ratio> | lags:[a1,a2,...]")
    sim.add_argument("--T", type=int, required=True, help="path length")
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--stream-id", type=int, default=0)
    sim.add_argument("--lambda-cap", type=float, default=DEFAULT_LAMBDA_CAP)
    sim.add_argument("--out", required=True, help="output path CSV")
    sim.set_defaults(func=_cmd_simulate)

    est = sub.add_parser("estimate", help="CLS estimate from a path CSV")
    est.add_argument("--path", required=True, help="input path CSV")
    est.add_argument("--p", type=int, required=True, help="lag order")
    est.add_argument("--ci", action="store_true",
                     help="add sandwich standard errors and confidence intervals")
    est.add_argument("--level", type=float, default=0.95)
    est.add_argument("--out", default=None, help="output JSON (default stdout)")
    est.set_defaults(func=_cmd_estimate)

    mc = sub.add_parser("mc", help="Monte Carlo study from a JSON config")
    mc.add_argument("--config", required=True, help="config JSON path")
    mc.add_argument("--out-dir", default=".", help="output directory")
    mc.add_argument("--seed", type=int, default=None,
                    help="override the config's base seed")
    mc.add_argument("--no-samples", action="store_true",
                    help="skip writing samples.csv")
    mc.set_defaults(func=_cmd_mc)

    norm = sub.add_parser("normality", help="normality tests on a samples CSV")
    norm.add_argument("--samples", required=True, help="samples CSV from mc")
    norm.add_argument("--components", default=None,
                      help="comma-separated labels (default: first three)")
    norm.add_argument("--out", default=None, help="output JSON (default stdout)")
    norm.set_defaults(func=_cmd_normality)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InarError, ValueError, OSError) as exc:
        sys.stderr.write(f"inar: error: {type(exc).__name__}: {exc}\n")
        return 1
    except MemoryError as exc:
        # numpy raises a private subclass; name the builtin.
        sys.stderr.write(f"inar: error: MemoryError: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
