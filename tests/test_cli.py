"""End-to-end command-line behavior."""

import csv
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from looadapt.cli import main, render_report_json

from conftest import make_logistic_toy


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
        config.write_text('{"khat_threshold": 1e999}', encoding="utf-8")
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

    def test_empty_dataset_is_input_error(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("x,y\n", encoding="utf-8")
        draws = tmp_path / "draws.csv"
        draws.write_text("b\n0.1\n0.2\n", encoding="utf-8")
        code = main(["diagnose", "--data", str(data), "--draws", str(draws), "--model", "logistic"])
        assert code == 1


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


class TestReportJson:
    def test_non_finite_floats_become_null(self):
        text = render_report_json({"a": math.inf, "b": [math.nan, 1.5], "c": np.float64(2.0)})
        payload = json.loads(text)
        assert payload == {"a": None, "b": [None, 1.5], "c": 2.0}


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
            with tracer.root("cli.main"):
                code = main(["run", "--data", str(data), "--draws", str(draws),
                             "--model", "logistic", "--out", str(tmp_path / "report.json")])
        finally:
            tracer.uninstall()
        assert code in (0, 3)
        names = {s.name for s in tracer.spans}
        for name in ("engine.adapt_observation", "transforms.apply_transform",
                     "engine.eta_weights", "models.evaluate_posterior"):
            assert name in names, name
        assert all(s.obs is not None for s in tracer.spans if s.name == "engine.eta_weights")
        assert not hasattr(looadapt.engine.adapt_observation, "__wrapped__")
