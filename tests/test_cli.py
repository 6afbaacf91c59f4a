"""End-to-end command-line behavior."""

import csv
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from looadapt import GaussianPrior, LogisticModel, PosteriorDraws, RunConfig, load_dataset_csv, load_draws_csv, run_loo
from looadapt.cli import _failure_reason, _observation_dict, _print_run_summary, main, render_report_json
from looadapt.engine import AttemptRecord, ObservationResult
from looadapt.gpd import WeightVector

from conftest import gaussian_proposal, make_grid_instance_2, make_logistic_toy
from test_golden import golden_args


@pytest.fixture
def toy_files(tmp_path):
    """Toy dataset + draws CSVs matching a 3-feature logistic model."""
    model, dataset, prior, draws = make_logistic_toy(seed=71, n=8, p=3, num_draws=60)
    data = tmp_path / "data.csv"
    with open(data, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dataset.feature_names) + ["y"])
        for x, y in zip(dataset.features, dataset.labels):
            writer.writerow([repr(float(v)) for v in x] + [int(y)])
    drws = tmp_path / "draws.csv"
    with open(drws, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(draws.param_names))
        for row in draws.values:
            writer.writerow([repr(float(v)) for v in row])
    return data, drws


def _strip_timings(path):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload.pop("timings")
    return json.dumps(payload, sort_keys=True)


def _bytes_outside_timings(path):
    """The raw bytes of a report around its ``timings`` block, cut by the rule
    of the benchmark's ``tracing.timings_span``."""
    data = path.read_bytes()
    start = data.rfind(b'"timings": {')
    end = data.index(b"}", start) + 1
    assert start > 0
    return data[:start] + data[end:]


class TestCmdRun:
    def test_well_formed_run(self, toy_files, tmp_path):
        data, draws = toy_files
        out = tmp_path / "report.json"
        code = main(["run", "--data", str(data), "--draws", str(draws),
                     "--model", "logistic", "--out", str(out)])
        assert code in (0, 3)
        with open(out, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert set(payload) == {
            "tool_version", "config_echo", "dataset_fingerprint",
            "draws_fingerprint", "report", "timings",
        }
        report = payload["report"]
        assert len(report["per_observation"]) == 8
        for obs in report["per_observation"]:
            assert set(obs) == {
                "index", "raw_khat", "adapted", "winning_transform", "final_khat",
                "final_weights", "loo_predictive_prob", "loo_log_predictive_density",
                "loo_predictive_prob_se", "loo_log_predictive_density_se", "attempts",
            }
        assert (report["n_failed"] == 0) == (code == 0)

    def test_exit_code_semantics(self, toy_files, tmp_path):
        data, draws = toy_files
        out = tmp_path / "report.json"
        config = tmp_path / "config.json"
        config.write_text('{"khat_threshold": 1e300}', encoding="utf-8")  # above every finite k-hat
        code = main(["run", "--data", str(data), "--draws", str(draws),
                     "--model", "logistic", "--config", str(config), "--out", str(out)])
        assert code == 0
        with open(out, encoding="utf-8") as fh:
            payload = json.load(fh)
        for obs in payload["report"]["per_observation"]:
            assert obs["attempts"] == []
            assert obs["adapted"] is True

    def test_column_mismatch_names_counts(self, toy_files, tmp_path, capsys):
        data, draws = toy_files
        out = tmp_path / "report.json"
        code = main(["run", "--data", str(data), "--draws", str(draws),
                     "--model", "relu1", "--hidden", "2", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "3" in err and "9" in err  # actual vs expected parameter count

    def test_determinism_excluding_timings(self, toy_files, tmp_path):
        data, draws = toy_files
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        args = ["--data", str(data), "--draws", str(draws), "--model", "logistic"]
        assert main(["run", *args, "--out", str(out1)]) in (0, 3)
        assert main(["run", *args, "--out", str(out2)]) in (0, 3)
        assert _strip_timings(out1) == _strip_timings(out2)

    def test_bytes_equal_across_worker_counts(self, toy_files, tmp_path):
        """The logistic toy, and the relu1 golden instance, whose workers each
        walk relu1's draw blocks and gradient fans on their own."""
        data, draws = toy_files
        relu1 = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "relu1")
        for name, args in (
            ("logistic", ["run", "--data", str(data), "--draws", str(draws), "--model", "logistic"]),
            ("relu1", ["run", *golden_args(relu1)]),
        ):
            outputs = []
            for workers in ("1", "3"):
                out = tmp_path / f"{name}-workers{workers}.json"
                assert main([*args, "--workers", workers, "--out", str(out)]) in (0, 3)
                outputs.append(_bytes_outside_timings(out))
            assert b'"attempts": [\n' in outputs[0], name  # some observation was scanned
            assert outputs[0] == outputs[1], name

    def test_zero_workers_is_an_error_line(self, toy_files, tmp_path, capsys):
        data, draws = toy_files
        code = main(["run", "--data", str(data), "--draws", str(draws), "--model", "logistic",
                     "--workers", "0", "--out", str(tmp_path / "report.json")])
        assert code == 1
        assert capsys.readouterr().err == "error: workers must be at least 1, got 0\n"

    def test_missing_file_is_input_error(self, tmp_path):
        code = main(["run", "--data", str(tmp_path / "nope.csv"), "--draws", str(tmp_path / "nope2.csv"),
                     "--model", "logistic", "--out", str(tmp_path / "r.json")])
        assert code == 1

    def test_prior_sd_file(self, toy_files, tmp_path):
        data, draws = toy_files
        sd_file = tmp_path / "prior.txt"
        sd_file.write_text("1.0\n2.0\n0.5\n", encoding="utf-8")
        out = tmp_path / "report.json"
        code = main(["run", "--data", str(data), "--draws", str(draws), "--model", "logistic",
                     "--prior-sd-file", str(sd_file), "--out", str(out)])
        assert code in (0, 3)
        # wrong length is an input error naming the expected count
        bad = tmp_path / "bad.txt"
        bad.write_text("1.0\n", encoding="utf-8")
        code = main(["run", "--data", str(data), "--draws", str(draws), "--model", "logistic",
                     "--prior-sd-file", str(bad), "--out", str(out)])
        assert code == 1

    @pytest.mark.parametrize("config_text, key", [
        ('{"khat_threshold": "0.7"}', "khat_threshold"),
        ('{"khat_threshold": null}', "khat_threshold"),
        ('{"hbar_exponents": ["a"]}', "hbar_exponents"),
        ('{"hbar_exponents": 5}', "hbar_exponents"),
        ('{"hbar_exponents": [0.5]}', "hbar_exponents"),
        ('{"transform_order": "PMM1"}', "transform_order"),
    ])
    def test_bad_config_value_is_an_error_line(self, toy_files, tmp_path, capsys, config_text, key):
        data, draws = toy_files
        config = tmp_path / "config.json"
        config.write_text(config_text, encoding="utf-8")
        code = main(["run", "--data", str(data), "--draws", str(draws), "--model", "logistic",
                     "--config", str(config), "--out", str(tmp_path / "report.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be a ")

    @pytest.mark.parametrize("files, flags, message", [
        ({"data": ""}, [], "dataset file is empty"),
        ({"draws": ""}, [], "draws file is empty"),
        ({"config": "[]"}, [], "config JSON must be an object"),
        ({}, ["--model", "relu1"], "--hidden is required for the relu1 model"),
        ({"config": '{"hbar_exponents": [-1]}'}, [], "hbar_exponents must be non-negative"),
        ({"config": '{"transform_order": []}'}, [], "transform_order must be non-empty"),
        ({"config": '{"khat_threshold": 0.5, "khat_threshold": 0.9}'}, [], "config repeats key 'khat_threshold'"),
        ({}, ["--model", "relu1", "--hidden", "0"], "relu1 model needs d >= 1 hidden units and p >= 1 features"),
        ({}, ["--model", "relu1", "--hidden", "-2"], "relu1 model needs d >= 1 hidden units and p >= 1 features"),
        ({}, ["--prior-sd", "0"], "prior sds must be finite and positive"),
        ({}, ["--prior-sd", "-1"], "prior sds must be finite and positive"),
        ({}, ["--prior-sd", "nan"], "prior sds must be finite and positive"),
        ({"config": '{"khat_threshold": Infinity}'}, [], "khat_threshold must be positive and finite, got inf"),
        ({"config": '{"khat_threshold": 1e999}'}, [], "khat_threshold must be positive and finite, got inf"),
        ({"config": '{"khat_threshold": NaN}'}, [], "khat_threshold must be positive and finite, got nan"),
        ({"prior-sd-file": ""}, [], "prior sd file holds no values"),
        ({"prior-sd-file": "\n  \n\n"}, [], "prior sd file holds no values"),
        ({}, ["--hidden", "3"], "--hidden applies to the relu1 model only"),
    ])
    def test_bad_input_is_an_error_line(self, toy_files, tmp_path, capsys, files, flags, message):
        paths = dict(zip(("data", "draws"), toy_files))
        for name, text in files.items():
            paths[name] = tmp_path / f"{name}.input"
            paths[name].write_text(text, encoding="utf-8")
        argv = ["run", "--model", "logistic", "--out", str(tmp_path / "report.json")]
        argv += [arg for name, path in paths.items() for arg in (f"--{name}", str(path))]
        code = main(argv + flags)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert "Traceback" not in captured.out + captured.err

    def test_vanishing_step_scale_is_an_error_line(self, toy_files, tmp_path, capsys):
        data, draws = toy_files
        config = tmp_path / "config.json"
        config.write_text('{"hbar_exponents": [0, 600], "transform_order": ["KL"]}', encoding="utf-8")
        code = main(["run", "--data", str(data), "--draws", str(draws), "--model", "logistic",
                     "--config", str(config), "--out", str(tmp_path / "report.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: hbar_exponents must be at most 537")
        assert err.count("\n") == 1

    def test_non_numeric_prior_sd_line_is_an_error_line(self, toy_files, tmp_path, capsys):
        data, draws = toy_files
        sd_file = tmp_path / "prior.txt"
        sd_file.write_text("1.0\n\nabc\n0.5\n", encoding="utf-8")
        code = main(["run", "--data", str(data), "--draws", str(draws), "--model", "logistic",
                     "--prior-sd-file", str(sd_file), "--out", str(tmp_path / "report.json")])
        assert code == 1
        assert capsys.readouterr().err == "error: prior sd file line 3: not a number: 'abc'\n"

    def test_intercept_and_label_column(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("outcome,x\n1,0.5\n0,-0.5\n", encoding="utf-8")
        draws = tmp_path / "draws.csv"
        draws.write_text("b0,b1\n0.1,0.2\n-0.1,0.3\n0.0,0.1\n", encoding="utf-8")
        out = tmp_path / "report.json"
        code = main(["run", "--data", str(data), "--draws", str(draws), "--model", "logistic",
                     "--label-column", "outcome", "--add-intercept", "--out", str(out)])
        assert code in (0, 3)


class TestCmdDiagnose:
    def test_uniform_likelihood_all_unfittable(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("x,y\n0.0,1\n0.0,0\n", encoding="utf-8")
        draws = tmp_path / "draws.csv"
        rows = "\n".join(repr(float(v)) for v in np.linspace(-1, 1, 40))
        draws.write_text("b\n" + rows + "\n", encoding="utf-8")
        code = main(["diagnose", "--data", str(data), "--draws", str(draws), "--model", "logistic"])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "observation_index,raw_khat,needs_adaptation"
        assert len(out) == 3
        # x = 0 everywhere: all weights equal, tail unfittable -> flagged
        for line in out[1:]:
            assert line.endswith("True")

    def test_synthetic_flags_some_rows(self, toy_files, capsys, tmp_path):
        data, draws = toy_files
        code = main(["diagnose", "--data", str(data), "--draws", str(draws), "--model", "logistic"])
        assert code == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(rows) == 8
        parsed = [row.split(",") for row in rows]
        assert all(len(cells) == 3 for cells in parsed)

    def test_raw_khat_matches_the_run_report(self, toy_files, capsys, tmp_path):
        data, draws = toy_files
        args = ["--data", str(data), "--draws", str(draws), "--model", "logistic"]
        assert main(["diagnose", *args]) == 0
        printed = [row.split(",")[1] for row in capsys.readouterr().out.strip().splitlines()[1:]]
        out = tmp_path / "report.json"
        assert main(["run", *args, "--out", str(out)]) in (0, 3)
        with open(out, encoding="utf-8") as fh:
            observations = json.load(fh)["report"]["per_observation"]
        reported = ["inf" if r["raw_khat"] is None else f"{r['raw_khat']:.6f}" for r in observations]
        assert len(printed) == 8
        assert printed == reported

    def test_workers_is_a_usage_error(self, toy_files, capsys):
        """``--workers`` threads ``run``'s per-observation loop; diagnose has none."""
        data, draws = toy_files
        with pytest.raises(SystemExit) as exc:
            main(["diagnose", "--data", str(data), "--draws", str(draws), "--model", "logistic", "--workers", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    def test_hidden_with_logistic_is_an_error_line(self, toy_files, capsys):
        data, draws = toy_files
        code = main(["diagnose", "--data", str(data), "--draws", str(draws), "--model", "logistic", "--hidden", "3"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --hidden applies to the relu1 model only\n"
        assert captured.out == ""

    def test_empty_dataset_is_input_error(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("x,y\n", encoding="utf-8")
        draws = tmp_path / "draws.csv"
        draws.write_text("b\n0.1\n0.2\n", encoding="utf-8")
        code = main(["diagnose", "--data", str(data), "--draws", str(draws), "--model", "logistic"])
        assert code == 1


def _curves_report(**points):
    report = {"roc_points": [{"threshold": None, "x": 0.0, "y": 0.0}, {"threshold": 0.4, "x": 1.0, "y": 1.0}],
              "prc_points": [{"threshold": None, "x": 0.0, "y": 1.0}, {"threshold": 0.4, "x": 1.0, "y": 0.5}]}
    return json.dumps({"report": {**report, **points}}).encode("utf-8")


def _band_line(label, khats):
    """The k-hat band line of ``run`` and ``diagnose``, counted one by one; a
    null (unfittable) k-hat counts as over 1."""
    counts = [0, 0, 0, 0]
    for khat in khats:
        khat = math.inf if khat is None else khat
        counts[0 if khat <= 0.5 else 1 if khat <= 0.7 else 2 if khat <= 1.0 else 3] += 1
    return f"{label} k-hat: <=0.5 {counts[0]}, 0.5-0.7 {counts[1]}, 0.7-1 {counts[2]}, >1 {counts[3]}"


def _record(**fields):
    """An ObservationResult with placeholder values for the fields not given."""
    base = dict(
        index=0, raw_khat=0.9, adapted=False, winning_transform=None, final_khat=0.9,
        final_weights=WeightVector.from_log_weights(np.zeros(2)), loo_predictive_prob=0.5,
        loo_log_predictive_density=-0.7, loo_predictive_prob_se=0.1, loo_log_predictive_density_se=0.2, attempts=(),
    )
    return ObservationResult(**{**base, **fields})


class TestStderrSummary:
    """``run`` prints k-hat bands, the winners and a reason per unadapted
    observation on stderr; ``diagnose`` prints the raw bands there, so its
    stdout stays a plain CSV."""

    def test_run_bands_count_the_report(self, toy_files, tmp_path, capsys):
        data, draws = toy_files
        out = tmp_path / "report.json"
        assert main(["run", "--data", str(data), "--draws", str(draws), "--model", "logistic",
                     "--out", str(out)]) == 0
        observations = json.loads(out.read_text(encoding="utf-8"))["report"]["per_observation"]
        winners = [obs["winning_transform"]["kind"] for obs in observations if obs["winning_transform"]]
        assert winners and len(winners) < len(observations)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            _band_line("raw", [obs["raw_khat"] for obs in observations]),
            _band_line("final", [obs["final_khat"] for obs in observations]),
            f"winners: PMM1 {winners.count('PMM1')}, PMM2 {winners.count('PMM2')}, KL {winners.count('KL')}, "
            f"Var {winners.count('Var')}, LL {winners.count('LL')}, raw {len(observations) - len(winners)}",
        ]

    def test_run_names_why_each_observation_failed(self, toy_files, tmp_path, capsys):
        data, draws = toy_files
        config = tmp_path / "config.json"
        config.write_text('{"transform_order": ["KL"], "hbar_exponents": [0]}', encoding="utf-8")
        code = main(["run", "--data", str(data), "--draws", str(draws), "--model", "logistic",
                     "--config", str(config), "--out", str(tmp_path / "report.json")])
        assert code == 3
        assert capsys.readouterr().err == (
            "raw k-hat: <=0.5 3, 0.5-0.7 2, 0.7-1 2, >1 1\n"
            "final k-hat: <=0.5 3, 0.5-0.7 3, 0.7-1 1, >1 1\n"
            "winners: KL 2, raw 6\n"
            "observation 5 not adapted: best k-hat 1.166045 at KL/1.0\n"
            "observation 7 not adapted: best k-hat 0.944925 with the raw weights\n"
        )

    def test_too_few_draws_fail_every_observation(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("x,y\n0.5,1\n-0.5,0\n", encoding="utf-8")
        draws = tmp_path / "draws.csv"
        draws.write_text("b\n0.1\n0.2\n0.3\n", encoding="utf-8")
        code = main(["run", "--data", str(data), "--draws", str(draws), "--model", "logistic",
                     "--out", str(tmp_path / "report.json")])
        assert code == 3
        assert capsys.readouterr().err == (
            "raw k-hat: <=0.5 0, 0.5-0.7 0, 0.7-1 0, >1 2\n"
            "final k-hat: <=0.5 0, 0.5-0.7 0, 0.7-1 0, >1 2\n"
            "winners: PMM1 0, PMM2 0, KL 0, Var 0, LL 0, raw 2\n"
            "observation 0 not adapted: raw tail unfittable and no attempts (too few draws)\n"
            "observation 1 not adapted: raw tail unfittable and no attempts (too few draws)\n"
        )

    @pytest.mark.parametrize("kind", ["KL", "Var"])
    def test_grid_oracle_instance_keeps_the_raw_weights(self, kind, capsys):
        # the logistic grid-oracle instance (q at 0.6x the posterior
        # covariance), where KL and Var each leave one flagged observation
        model, dataset, prior, grid = make_grid_instance_2()
        values, q = gaussian_proposal(grid, 0.6, 3000, np.random.default_rng(1))
        config = RunConfig(transform_order=(kind,))
        report = run_loo(model, PosteriorDraws(values=values, param_names=("b0", "b1")), dataset, prior, config,
                         variational_log_density=q)
        _print_run_summary(report, config)
        assert capsys.readouterr().err == (
            "raw k-hat: <=0.5 0, 0.5-0.7 6, 0.7-1 2, >1 0\n"
            "final k-hat: <=0.5 0, 0.5-0.7 7, 0.7-1 1, >1 0\n"
            f"winners: {kind} 1, raw 7\n"
            "observation 3 not adapted: best k-hat 0.824936 with the raw weights\n"
        )

    def test_every_attempt_degenerate(self):
        attempt = AttemptRecord(kind="PMM1", hbar=1.0, khat=math.inf, fittable=False, degenerate=True,
                                flags=("all-weights-zero",), h_used=0.5, max_step_sd=0.5)
        assert _failure_reason(_record(attempts=(attempt, replace(attempt, hbar=0.25)))) == "every attempt degenerate"
        fitted = replace(attempt, khat=0.8, fittable=True, degenerate=False, flags=())
        reason = _failure_reason(_record(attempts=(attempt, fitted), winning_transform=fitted, final_khat=0.8))
        assert reason == "best k-hat 0.800000 at PMM1/1.0"

    def test_diagnose_bands_match_its_csv(self, toy_files, capsys):
        data, draws = toy_files
        assert main(["diagnose", "--data", str(data), "--draws", str(draws), "--model", "logistic"]) == 0
        captured = capsys.readouterr()
        khats = [float(row.split(",")[1]) for row in captured.out.splitlines()[1:]]
        assert len(khats) == 8
        assert captured.err == _band_line("raw", khats) + "\n"


class TestCmdCurves:
    def _run(self, toy_files, tmp_path):
        data, draws = toy_files
        out = tmp_path / "report.json"
        main(["run", "--data", str(data), "--draws", str(draws), "--model", "logistic", "--out", str(out)])
        return out

    def test_round_trip_auroc(self, toy_files, tmp_path):
        report_path = self._run(toy_files, tmp_path)
        out_dir = tmp_path / "curves"
        assert main(["curves", str(report_path), "--out-dir", str(out_dir)]) == 0
        with open(out_dir / "roc.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        xs = np.array([float(r["x"]) for r in rows])
        ys = np.array([float(r["y"]) for r in rows])
        reintegrated = float(np.trapezoid(ys, xs))
        with open(report_path, encoding="utf-8") as fh:
            reported = json.load(fh)["report"]["auroc"]
        assert reintegrated == pytest.approx(reported, abs=1e-12)
        assert (out_dir / "prc.csv").exists()

    def test_missing_report_is_error(self, tmp_path):
        assert main(["curves", str(tmp_path / "gone.json"), "--out-dir", str(tmp_path)]) == 1

    def test_single_class_warns_and_skips(self, tmp_path, capsys):
        report = {"report": {"roc_points": [], "prc_points": []}}
        path = tmp_path / "r.json"
        path.write_text(json.dumps(report), encoding="utf-8")
        assert main(["curves", str(path), "--out-dir", str(tmp_path / "c")]) == 0
        assert "warning" in capsys.readouterr().err
        assert not (tmp_path / "c" / "roc.csv").exists()

    @pytest.mark.parametrize("points, message", [
        ({"prc_points": [{"x": 0.0, "y": 1.0}]},
         "prc_points[0] needs numeric x and y and a numeric or null threshold, got {'x': 0.0, 'y': 1.0}"),
        ({"prc_points": [{"threshold": 0.5, "x": "a", "y": 1.0}]},
         "prc_points[0] needs numeric x and y and a numeric or null threshold, "
         "got {'threshold': 0.5, 'x': 'a', 'y': 1.0}"),
        ({"roc_points": 5}, "roc_points must be a list, got 5"),
    ], ids=["no-threshold", "text-x", "not-a-list"])
    def test_bad_points_write_nothing(self, tmp_path, capsys, points, message):
        path = tmp_path / "r.json"
        path.write_bytes(_curves_report(**points))
        out_dir = tmp_path / "curves"
        assert main(["curves", str(path), "--out-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err == f"error: cannot read report: {message}\n"
        assert list(tmp_path.rglob("*.csv")) == []


class TestInputEncoding:
    """Every input file is UTF-8, with or without a byte-order mark; a byte
    that is not UTF-8 is named like any other bad cell, line or value."""

    _FILES = {
        "data": b"x,y\n0.5,1\n-0.5,0\n",
        "draws": b"b\n0.1\n0.2\n0.3\n",
        "config": b'{"khat_threshold": 0.5}',
        "prior": b"2.0\n",
        "report": _curves_report(),
    }

    def _argv(self, command, paths, out_dir):
        if command == "curves":
            return ["curves", str(paths["report"]), "--out-dir", str(out_dir)]
        argv = [command, "--data", str(paths["data"]), "--draws", str(paths["draws"]), "--model", "logistic",
                "--config", str(paths["config"]), "--prior-sd-file", str(paths["prior"])]
        return argv + (["--out", str(out_dir / "report.json")] if command == "run" else [])

    def _paths(self, tmp_path, **contents):
        paths = {}
        for name, default in self._FILES.items():
            paths[name] = tmp_path / name
            paths[name].write_bytes(contents.get(name, default))
        return paths

    @pytest.mark.parametrize("command, name, contents, message", [
        ("run", "data", b"x,y\n0.5,1\n\xff,0\n", "row 2, column 'x': non-numeric value '\\udcff'"),
        ("diagnose", "data", b"x,y\n0.5,1\n-0.5,\xff\n", "row 2, column 'y': non-numeric value '\\udcff'"),
        ("run", "draws", b"b\n0.1\n0.2\xff\n", "draw row 2, column 'b': non-numeric value '0.2\\udcff'"),
        ("run", "config", b'{"khat_threshold": \xff}',
         "config is not valid JSON: Expecting value: line 1 column 20 (char 19)"),
        ("run", "prior", b"\xff2.0\n", "prior sd file line 1: not a number: '\\udcff2.0'"),
        ("curves", "report", b'{"report": \xff}', "cannot read report: Expecting value: line 1 column 12 (char 11)"),
    ], ids=["dataset", "dataset-diagnose", "draws", "config", "prior-sd", "report"])
    def test_undecodable_byte_is_one_error_line(self, tmp_path, capsys, command, name, contents, message):
        paths = self._paths(tmp_path, **{name: contents})
        assert b"\xff" in paths[name].read_bytes()
        assert main(self._argv(command, paths, tmp_path)) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("name", ["config", "prior", "report"])
    def test_byte_order_mark_changes_nothing(self, tmp_path, name):
        command = "curves" if name == "report" else "run"
        outputs = []
        for bom in (b"", b"\xef\xbb\xbf"):
            run_dir = tmp_path / f"bom{len(bom)}"
            run_dir.mkdir()
            paths = self._paths(run_dir, **{name: bom + self._FILES[name]})
            assert main(self._argv(command, paths, run_dir)) in (0, 3)
            if command == "curves":
                outputs.append([(run_dir / f).read_bytes() for f in ("roc.csv", "prc.csv")])
            else:
                outputs.append(_strip_timings(run_dir / "report.json"))
        assert outputs[0] == outputs[1]


class TestReportJson:
    def test_non_finite_floats_become_null(self):
        text = render_report_json({"a": math.inf, "b": [math.nan, 1.5], "c": np.float64(2.0)})
        payload = json.loads(text)
        assert payload == {"a": None, "b": [None, 1.5], "c": 2.0}

    def test_final_weights_are_the_library_weights_summarized(self, toy_files, tmp_path):
        data, draws_path = toy_files
        out = tmp_path / "report.json"
        assert main(["run", "--data", str(data), "--draws", str(draws_path), "--model", "logistic",
                     "--out", str(out)]) in (0, 3)
        payload = json.loads(out.read_text(encoding="utf-8"))
        dataset, draws = load_dataset_csv(str(data)), load_draws_csv(str(draws_path))
        model = LogisticModel(p=dataset.p)
        report = run_loo(model, draws, dataset, GaussianPrior.isotropic(model.param_dim, 1.0), RunConfig())
        num_draws = draws.num_draws
        for obs, result in zip(payload["report"]["per_observation"], report.per_observation, strict=True):
            w = result.final_weights.normalized
            summary = obs["final_weights"]
            assert summary["ess"] == pytest.approx(1.0 / sum(float(v) ** 2 for v in w), rel=1e-12)
            assert summary["max_weight"] == w.max()
            assert 1.0 <= summary["ess"] <= num_draws
            assert 0.0 < summary["max_weight"] <= 1.0

        def list_lengths(value):
            if isinstance(value, dict):
                for child in value.values():
                    yield from list_lengths(child)
            elif isinstance(value, list):
                yield len(value)
                for child in value:
                    yield from list_lengths(child)

        # no per-draw vector is written anywhere
        assert num_draws not in set(list_lengths(payload))

    @pytest.mark.parametrize("log_weights, ess, max_weight", [
        (np.zeros(60), 60.0, 1.0 / 60.0),
        (np.r_[-3.0, np.full(59, -np.inf)], 1.0, 1.0),
    ], ids=["equal", "one-nonzero"])
    def test_final_weights_summary_bounds(self, log_weights, ess, max_weight):
        summary = _observation_dict(_record(final_weights=WeightVector.from_log_weights(log_weights)))["final_weights"]
        assert summary["ess"] == pytest.approx(ess, rel=1e-12)
        assert summary["max_weight"] == pytest.approx(max_weight, rel=1e-15)

    def test_readme_names_every_key(self, toy_files, tmp_path):
        """README's "Report schema" names every key of a rendered report, at
        each level it describes."""
        data, draws = toy_files
        out = tmp_path / "report.json"
        assert main(["run", "--data", str(data), "--draws", str(draws), "--model", "logistic",
                     "--out", str(out)]) in (0, 3)
        payload = json.loads(out.read_text(encoding="utf-8"))
        report = payload["report"]
        first = report["per_observation"][0]
        attempts = [a for obs in report["per_observation"] for a in obs["attempts"]]
        winners = [obs["winning_transform"] for obs in report["per_observation"] if obs["winning_transform"]]
        levels = [payload, payload["config_echo"], report, first, first["final_weights"], attempts[0], winners[0],
                  report["roc_points"][0]]
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Report schema", 1)[1].split("\n#", 1)[0]
        named = set(re.findall(r"\w+", " ".join(re.findall(r"`([^`]+)`", section))))
        for level in levels:
            assert set(level) <= named, sorted(set(level) - named)


class TestTracedRun:
    """The benchmark's traced run rebinds these call-time names; a rename or a
    call that bypasses its module global would silently drop spans."""

    def _tracing(self, monkeypatch):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
        return module

    def test_every_rebind_records_spans(self, toy_files, tmp_path, monkeypatch):
        tracing = self._tracing(monkeypatch)
        import looadapt

        data, draws = toy_files
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for mod_name, points in tracing._POINTS.items():
                module = getattr(looadapt, mod_name)
                for attr, *_ in points:
                    assert hasattr(getattr(module, attr), "__wrapped__"), f"{mod_name}.{attr}"
            # the default order reaches the PMM lines, the gradient-only one the gradient lines
            config = tmp_path / "gradient.json"
            config.write_text('{"transform_order": ["KL", "Var", "LL"]}', encoding="utf-8")
            codes = []
            for extra in ([], ["--config", str(config)]):
                with tracer.root("cli.main"):
                    codes.append(main(["run", "--data", str(data), "--draws", str(draws), "--model", "logistic",
                                       *extra, "--out", str(tmp_path / "report.json")]))
            logistic_spans = len(tracer.spans)
            with tracer.root("cli.main"):
                relu1 = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "relu1")
                codes.append(main(["run", *golden_args(relu1), "--out", str(tmp_path / "relu1.json")]))
        finally:
            tracer.uninstall()
        assert all(code in (0, 3) for code in codes)
        installed = {name for points in tracing._POINTS.values() for _, name, *_ in points} | {"gpd.from_log_weights"}
        logistic, relu1 = tracer.spans[:logistic_spans], tracer.spans[logistic_spans:]
        for spans in (logistic, relu1):
            names = {s.name for s in spans}
            assert installed <= names, sorted(installed - names)
            # an eta_weights span takes its observation from its adapt_observation parent: the
            # tracer reads an index at position 5, which eta_weights must not have
            by_id = {s.span_id: s for s in spans}
            weights = [s for s in spans if s.name == "engine.eta_weights"]
            assert weights and all(s.obs is not None for s in weights)
            for s in weights:
                parent = by_id[s.parent_id]
                assert parent.name == "engine.adapt_observation" and s.obs == parent.obs, (s, parent)
        assert "models.mu_batch" in {s.name for s in logistic}
        # relu1 reads mu from its origin line, not mu_batch; S = 200 draws, n = 30, P = 2 * 3 + 2 + 1
        assert "models.mu_batch" not in {s.name for s in relu1}
        (evaluation,) = [s for s in relu1 if s.name == "models.evaluate_posterior"]
        assert evaluation.attrs == {"grad": True, "flops": 200 * 30 * 9}
        assert not hasattr(looadapt.engine.adapt_observation, "__wrapped__")

    #: Each golden instance's ``tracing.DETERMINISTIC`` counters in that order, without
    #: ``cli.report_bytes``: its length follows float reprs, which may differ across
    #: platforms, and the golden test already compares the report itself.
    PINNED = {
        "logistic": (950, 16, 1, 1, 24000, 0, 67, 17, 11, 11, 11, 117, 15, 30, 147, 147, 0, 2),
        "relu1": (1920, 6, 1, 0, 54000, 0, 28, 12, 11, 11, 11, 73, 25, 30, 103, 103, 0, 2),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_golden_counters_are_pinned(self, name, tmp_path, monkeypatch):
        """A change that keeps every answer can still call the layers more or less
        often; the benchmark's deterministic counters hold each count."""
        tracing = self._tracing(monkeypatch)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            with tracer.root("cli.main"):
                golden = Path(__file__).resolve().parent / "golden" / name
                code = main(["run", *golden_args(golden), "--out", str(tmp_path / "report.json")])
        finally:
            tracer.uninstall()
        assert code in (0, 3)
        names = [counter for counter in tracing.DETERMINISTIC if counter != "cli.report_bytes"]
        metrics = tracing.layer_metrics(tracer.spans, 1)
        assert {counter: metrics[counter] for counter in names} == dict(zip(names, self.PINNED[name]))


#: Run in a fresh interpreter by :class:`TestRuntimeImports`, with the golden
#: directory and a scratch directory as arguments.
NO_SCIPY_SCRIPT = """
import contextlib, io, json, os, sys
golden, out = sys.argv[1:]
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import looadapt.models
assert not scipy_modules(), scipy_modules()
from looadapt.cli import main
for name in ("logistic", "relu1"):
    d = os.path.join(golden, name)
    with open(os.path.join(d, "args.json"), encoding="utf-8") as fh:
        flags = [*json.load(fh), "--data", os.path.join(d, "data.csv"), "--draws", os.path.join(d, "draws.csv"),
                 "--config", os.path.join(d, "config.json")]
    report, curves = os.path.join(out, name + ".json"), os.path.join(out, name)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        ran = main(["run", *flags, "--out", report])
        diagnosed = main(["diagnose", *flags])
        exported = main(["curves", report, "--out-dir", curves])
    assert ran in (0, 3) and diagnosed == 0 and exported == 0, (name, ran, diagnosed, exported)
    for path in (report, os.path.join(curves, "roc.csv"), os.path.join(curves, "prc.csv")):
        assert os.path.getsize(path) > 0, path
assert not scipy_modules(), scipy_modules()
looadapt.models.sigmoid(0.0)
assert "scipy.special" in sys.modules
"""


class TestRuntimeImports:
    """A command loads no scipy: only the generator reference ``models.sigmoid``
    does. Tier-1 itself imports scipy, so the check runs in its own interpreter."""

    def test_commands_load_no_scipy(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, str(root / "tests" / "golden"), str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
