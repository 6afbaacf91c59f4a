"""Command-line entry point: ingestion, orchestration, report emission.

Batch-only: ``run`` writes a self-identifying JSON report, ``diagnose``
prints per-observation tail diagnostics without adapting anything, and
``curves`` exports ROC / precision-recall point lists from an existing
report for external plotting. ``run`` and ``diagnose`` print k-hat band
counts on stderr, and ``run`` a reason for each observation it could not
adapt.

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
from dataclasses import fields, is_dataclass

import numpy as np

from . import __version__
from .data import Dataset, RunConfig, load_dataset_csv, load_draws_csv, open_input
from .engine import LooReport, ObservationResult, eta_weights, run_loo
from .errors import LooAdaptError
from .gpd import pareto_smooth
from .models import GaussianPrior, LogisticModel, ReluOneModel, SigmoidalModel, evaluate_posterior

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_UNADAPTED = 3

# Upper edges of the k-hat bands printed on stderr: <=0.5, 0.5-0.7, 0.7-1, >1.
_KHAT_BAND_EDGES = (0.5, 0.7, 1.0)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _fields(record) -> dict:
    """A dataclass instance's fields by name; unlike ``vars``, without the
    attributes computed on first read, such as ``WeightVector.normalized``."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


def _json_safe(value):
    """Recursively convert to JSON-encodable values: a dataclass instance
    becomes an object of its fields, and non-finite floats become null
    (documented in the report schema)."""
    if isinstance(value, float):  # np.float64 is a float
        return value if math.isfinite(value) else None
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if is_dataclass(value):
        return _json_safe(_fields(value))
    return value


def _observation_dict(result: ObservationResult) -> dict:
    """The record as the report writes it, except in two forms: the winner is
    its kind and hbar with the observation's index, and the final weights are
    their PSIS summary, the effective sample size 1/sum(w^2) and the largest
    normalized weight w."""
    win = result.winning_transform
    if win is not None:
        win = {"kind": win.kind, "hbar": win.hbar, "observation_index": result.index}
    w = result.final_weights.normalized
    return {
        **_fields(result),
        "winning_transform": win,
        # np.sum, unlike a BLAS dot, adds in an order that no thread count changes
        "final_weights": {"ess": 1.0 / np.sum(np.square(w)), "max_weight": w.max()},
    }


def render_report_json(envelope: dict) -> str:
    return json.dumps(_json_safe(envelope), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _khat_bands(label: str, khats) -> str:
    """Counts of k-hat in the bands of Vehtari, Gelman and Gabry (2017); an
    unfittable tail (infinite k-hat) counts as over 1."""
    counts = np.bincount(np.searchsorted(_KHAT_BAND_EDGES, khats), minlength=4)
    return f"{label} k-hat: <=0.5 {counts[0]}, 0.5-0.7 {counts[1]}, 0.7-1 {counts[2]}, >1 {counts[3]}"


def _failure_reason(result: ObservationResult) -> str:
    """Why an observation was not adapted, from its record alone."""
    if not result.attempts:  # a flagged observation skips the scan only when the tail rule leaves too few draws
        return "raw tail unfittable and no attempts (too few draws)"
    if all(a.degenerate for a in result.attempts):
        return "every attempt degenerate"
    win = result.winning_transform
    where = "with the raw weights" if win is None else f"at {win.kind}/{win.hbar!r}"
    return f"best k-hat {result.final_khat:.6f} {where}"


def _print_run_summary(report: LooReport, config: RunConfig) -> None:
    """k-hat bands, winner counts and one line per unadapted observation, on stderr."""
    results = report.per_observation
    winners = [r.winning_transform.kind if r.winning_transform else "raw" for r in results]
    lines = [
        _khat_bands("raw", [r.raw_khat for r in results]),
        _khat_bands("final", [r.final_khat for r in results]),
        "winners: " + ", ".join(f"{kind} {winners.count(kind)}" for kind in (*config.transform_order, "raw")),
        *(f"observation {r.index} not adapted: {_failure_reason(r)}" for r in results if not r.adapted),
    ]
    print("\n".join(lines), file=sys.stderr)


def _build_model(args, dataset: Dataset) -> SigmoidalModel:
    if args.model == "relu1" and args.hidden is None:
        raise LooAdaptError("--hidden is required for the relu1 model")
    if args.model == "logistic" and args.hidden is not None:
        raise LooAdaptError("--hidden applies to the relu1 model only")
    return LogisticModel(p=dataset.p) if args.model == "logistic" else ReluOneModel(d=args.hidden, p=dataset.p)


def _build_prior(args, param_dim: int) -> GaussianPrior:
    if args.prior_sd_file is None:
        return GaussianPrior.isotropic(param_dim, args.prior_sd)
    sds = []
    with open_input(args.prior_sd_file) as fh:
        for number, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    sds.append(float(line))
                except ValueError:
                    raise LooAdaptError(f"prior sd file line {number}: not a number: {line.strip()!r}") from None
    if not sds:
        raise LooAdaptError("prior sd file holds no values")
    return GaussianPrior(sd=np.array(sds))


def _load_inputs(args):
    dataset = load_dataset_csv(args.data, label_column=args.label_column, add_intercept=args.add_intercept)
    draws = load_draws_csv(args.draws)
    model = _build_model(args, dataset)
    prior = _build_prior(args, model.param_dim)
    config = RunConfig()
    if args.config is not None:
        with open_input(args.config) as fh:
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
        "config_echo": config,
        "dataset_fingerprint": _sha256(args.data),
        "draws_fingerprint": _sha256(args.draws),
        "report": {**_fields(report), "per_observation": [_observation_dict(r) for r in report.per_observation]},
        "timings": {
            "ingest_ms": round(1e3 * (t_ingest - t0), 3),
            "engine_ms": round(1e3 * (t_engine - t_ingest), 3),
            "total_ms": round(1e3 * (time.perf_counter() - t0), 3),
        },
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(render_report_json(envelope))
    _print_run_summary(report, config)
    return EXIT_OK if report.n_failed == 0 else EXIT_UNADAPTED


def cmd_diagnose(args) -> int:
    dataset, draws, model, prior, config = _load_inputs(args)
    evaluation = evaluate_posterior(model, draws.values, dataset, prior, with_grad=False)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["observation_index", "raw_khat", "needs_adaptation"])
    khats = []
    for i in range(dataset.n):
        # The command line takes posterior draws only: the proposal is the posterior.
        _, fit = pareto_smooth(eta_weights(evaluation.log_lik[:, i], evaluation.log_post, evaluation.log_post))
        khat = fit.khat
        khats.append(khat)
        writer.writerow([i, "inf" if math.isinf(khat) else f"{khat:.6f}", khat > config.khat_threshold])
    print(_khat_bands("raw", khats), file=sys.stderr)
    return EXIT_OK


def _write_curve_csv(path: str, points: list[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["threshold", "x", "y"])
        for pt in points:
            thr = pt["threshold"]
            writer.writerow(["inf" if thr is None else repr(float(thr)), repr(float(pt["x"])), repr(float(pt["y"]))])


def _curve_points(report: dict, key: str) -> list[dict]:
    """The point list ``key`` of a report, checked before any file is written."""
    def number(value):
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    points = report[key]
    if not isinstance(points, list):
        raise ValueError(f"{key} must be a list, got {points!r}")
    for i, pt in enumerate(points):
        if not (isinstance(pt, dict) and number(pt.get("x")) and number(pt.get("y"))
                and "threshold" in pt and (pt["threshold"] is None or number(pt["threshold"]))):
            raise ValueError(f"{key}[{i}] needs numeric x and y and a numeric or null threshold, got {pt!r}")
    return points


def cmd_curves(args) -> int:
    try:
        with open_input(args.report) as fh:
            report = json.load(fh)["report"]
        roc_points = _curve_points(report, "roc_points")
        prc_points = _curve_points(report, "prc_points")
    except (OSError, ValueError, KeyError, TypeError) as exc:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="looadapt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="adapt every observation and write a JSON report")
    _add_input_flags(run_p)
    run_p.add_argument("--out", required=True, help="report output path")
    run_p.add_argument("--workers", type=int, default=1, help="threads for the per-observation loop (at least 1)")
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
    except (LooAdaptError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
