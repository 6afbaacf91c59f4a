"""Command-line entry point: ingestion, orchestration, report emission.

Batch-only: ``run`` writes a self-identifying JSON report, ``diagnose``
prints per-observation tail diagnostics without adapting anything, and
``curves`` exports ROC / precision-recall point lists from an existing
report for external plotting.

Exit codes: 0 on success, 3 when the run completed but some observations
could not be adapted (the report is still written), 1 on input errors.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .data import Dataset, RunConfig, load_dataset_csv, load_draws_csv
from .engine import LooReport, ObservationResult, eta_weights, run_loo
from .errors import LooAdaptError
from .gpd import pareto_smooth
from .models import GaussianPrior, LogisticModel, ReluOneModel, SigmoidalModel, evaluate_posterior

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_UNADAPTED = 3


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _json_safe(value):
    """Recursively convert to JSON-encodable values; non-finite floats
    become null (documented in the report schema)."""
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return value if math.isfinite(value) else None
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return value


def _observation_dict(result: ObservationResult) -> dict:
    return {
        "index": result.index,
        "raw_khat": result.raw_khat,
        "adapted": result.adapted,
        "winning_transform": None
        if result.winning_transform is None
        else {
            "kind": result.winning_transform.kind,
            "hbar": result.winning_transform.hbar,
            "observation_index": result.index,
        },
        "final_khat": result.final_khat,
        "final_weights": {"normalized": result.final_weights.normalized},
        "loo_predictive_prob": result.loo_predictive_prob,
        "loo_log_predictive_density": result.loo_log_predictive_density,
        "loo_predictive_prob_se": result.loo_predictive_prob_se,
        "loo_log_predictive_density_se": result.loo_log_predictive_density_se,
        "attempts": [
            {
                "kind": a.kind,
                "hbar": a.hbar,
                "khat": a.khat,
                "fittable": a.fittable,
                "degenerate": a.degenerate,
                "flags": list(a.flags),
                "h_used": a.h_used,
                "max_step_sd": a.max_step_sd,
            }
            for a in result.attempts
        ],
    }


def _report_dict(report: LooReport) -> dict:
    return {
        "per_observation": [_observation_dict(r) for r in report.per_observation],
        "loo_ic": report.loo_ic,
        "loo_ic_se": report.loo_ic_se,
        "n_failed": report.n_failed,
        "roc_points": [{"threshold": p.threshold, "x": p.x, "y": p.y} for p in report.roc_points],
        "prc_points": [{"threshold": p.threshold, "x": p.x, "y": p.y} for p in report.prc_points],
        "auroc": report.auroc,
        "auprc": report.auprc,
    }


def render_report_json(envelope: dict) -> str:
    return json.dumps(_json_safe(envelope), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _build_model(args, dataset: Dataset) -> SigmoidalModel:
    if args.model == "logistic":
        return LogisticModel(p=dataset.p)
    if args.model == "relu1":
        if args.hidden is None:
            raise LooAdaptError("--hidden is required for the relu1 model")
        return ReluOneModel(d=args.hidden, p=dataset.p)
    raise LooAdaptError(f"unknown model {args.model!r}")


def _build_prior(args, param_dim: int) -> GaussianPrior:
    if args.prior_sd_file is None:
        return GaussianPrior.isotropic(param_dim, args.prior_sd)
    sds = []
    with open(args.prior_sd_file, encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    sds.append(float(line))
                except ValueError:
                    raise LooAdaptError(f"prior sd file line {number}: not a number: {line.strip()!r}") from None
    return GaussianPrior(sd=np.array(sds))


def _load_inputs(args):
    dataset = load_dataset_csv(args.data, label_column=args.label_column, add_intercept=args.add_intercept)
    draws = load_draws_csv(args.draws)
    model = _build_model(args, dataset)
    prior = _build_prior(args, model.param_dim)
    config = RunConfig()
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            config = RunConfig.from_json(fh.read())
    return dataset, draws, model, prior, config


def cmd_run(args) -> int:
    t0 = time.perf_counter()
    dataset, draws, model, prior, config = _load_inputs(args)
    t_ingest = time.perf_counter()
    report = run_loo(model, draws, dataset, prior, config, workers=args.workers)
    t_engine = time.perf_counter()
    envelope = {
        "tool_version": __version__,
        "config_echo": config.to_json_dict(),
        "dataset_fingerprint": _sha256(args.data),
        "draws_fingerprint": _sha256(args.draws),
        "report": _report_dict(report),
        "timings": {
            "ingest_ms": round(1e3 * (t_ingest - t0), 3),
            "engine_ms": round(1e3 * (t_engine - t_ingest), 3),
            "total_ms": round(1e3 * (time.perf_counter() - t0), 3),
        },
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(render_report_json(envelope))
    return EXIT_OK if report.n_failed == 0 else EXIT_UNADAPTED


def cmd_diagnose(args) -> int:
    dataset, draws, model, prior, config = _load_inputs(args)
    evaluation = evaluate_posterior(model, draws.values, dataset, prior, with_grad=False)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["observation_index", "raw_khat", "needs_adaptation"])
    for i in range(dataset.n):
        # The command line takes posterior draws only: the proposal is the posterior.
        _, fit = pareto_smooth(eta_weights(evaluation, evaluation.log_post, i))
        khat = fit.khat
        writer.writerow([i, "inf" if math.isinf(khat) else f"{khat:.6f}", khat > config.khat_threshold])
    return EXIT_OK


def _write_curve_csv(path: str, points: list[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["threshold", "x", "y"])
        for pt in points:
            thr = pt["threshold"]
            writer.writerow(["inf" if thr is None else repr(float(thr)), repr(float(pt["x"])), repr(float(pt["y"]))])


def cmd_curves(args) -> int:
    try:
        with open(args.report, encoding="utf-8") as fh:
            envelope = json.load(fh)
        report = envelope["report"]
        roc_points = report["roc_points"]
        prc_points = report["prc_points"]
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        print(f"error: cannot read report: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    if not roc_points and not prc_points:
        print("warning: report contains no curves (single-class labels?)", file=sys.stderr)
        return EXIT_OK
    _write_curve_csv(os.path.join(out_dir, "roc.csv"), roc_points)
    _write_curve_csv(os.path.join(out_dir, "prc.csv"), prc_points)
    return EXIT_OK


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="dataset CSV (header row, one label column)")
    parser.add_argument("--draws", required=True, help="draws CSV (header = parameter names)")
    parser.add_argument("--model", required=True, choices=["logistic", "relu1"])
    parser.add_argument("--hidden", type=int, default=None, help="hidden width d (relu1 only)")
    parser.add_argument("--prior-sd", type=float, default=1.0, help="isotropic Gaussian prior sd")
    parser.add_argument("--prior-sd-file", default=None, help="file with one prior sd per parameter")
    parser.add_argument("--config", default=None, help="run configuration JSON")
    parser.add_argument("--label-column", default="y", help="name of the label column")
    parser.add_argument("--add-intercept", action="store_true", help="append a constant-1 feature")
    parser.add_argument("--workers", type=int, default=1, help="engine parallelism")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="looadapt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="adapt every observation and write a JSON report")
    _add_input_flags(run_p)
    run_p.add_argument("--out", required=True, help="report output path")
    run_p.set_defaults(func=cmd_run)

    diag_p = sub.add_parser("diagnose", help="print raw tail diagnostics per observation")
    _add_input_flags(diag_p)
    diag_p.set_defaults(func=cmd_diagnose)

    curves_p = sub.add_parser("curves", help="export ROC/PRC point lists from a report")
    curves_p.add_argument("report", help="report JSON produced by `run`")
    curves_p.add_argument("--out-dir", default=".", help="directory for roc.csv / prc.csv")
    curves_p.set_defaults(func=cmd_curves)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LooAdaptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
