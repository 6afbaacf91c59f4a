"""Golden reports: ``looadapt run`` on two stored instances gives the stored answers.

The instances, and why each was chosen, are described in ``make_golden.py``,
which wrote them once; this test never runs it. Every decision must match
exactly: ``adapted``, the winner's kind and hbar, and each attempt's kind,
hbar, flags, ``degenerate`` and ``fittable``. Every other float must agree
to 1e-10 relative, with null equal only to null; every other value exactly.
"""

import json
import os

import pytest

from looadapt.cli import main as cli_main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
REL_TOL = 1e-10
DECISIONS = {"adapted", "kind", "hbar", "flags", "degenerate", "fittable"}


def golden_args(directory):
    """The ``run`` flags of the instance in ``directory``, without ``--out``."""
    with open(os.path.join(directory, "args.json"), encoding="utf-8") as fh:
        flags = json.load(fh)
    return ["--data", os.path.join(directory, "data.csv"), "--draws", os.path.join(directory, "draws.csv"),
            "--config", os.path.join(directory, "config.json"), *flags]


def mismatches(expected, got, path="", exact=False):
    """Where ``got`` departs from ``expected``, one line per place."""
    if isinstance(expected, dict):
        if not isinstance(got, dict) or expected.keys() != got.keys():
            return [f"{path}: keys {sorted(expected)} != {sorted(got) if isinstance(got, dict) else got!r}"]
        return [m for key in expected
                for m in mismatches(expected[key], got[key], f"{path}.{key}", exact or key in DECISIONS)]
    if isinstance(expected, list):
        if not isinstance(got, list) or len(expected) != len(got):
            return [f"{path}: {len(expected)} items, got {got if not isinstance(got, list) else len(got)}"]
        return [m for j, (e, g) in enumerate(zip(expected, got)) for m in mismatches(e, g, f"{path}[{j}]", exact)]
    if isinstance(expected, float) and isinstance(got, float) and not exact:
        close = abs(expected - got) <= REL_TOL * max(abs(expected), abs(got))
    else:
        close = type(expected) is type(got) and expected == got
    return [] if close else [f"{path}: expected {expected!r}, got {got!r}"]


@pytest.mark.parametrize("name", ["logistic", "relu1"])
def test_report_matches_golden(name, tmp_path, capsys):
    directory = os.path.join(GOLDEN_DIR, name)
    out = str(tmp_path / "report.json")
    assert cli_main(["run", *golden_args(directory), "--out", out]) in (0, 3)
    capsys.readouterr()
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    with open(os.path.join(directory, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    got = {key: report[key] for key in expected}
    found = mismatches(expected, got)
    assert not found, f"{len(found)} mismatches, the first: " + "; ".join(found[:10])


def test_mismatches_rule():
    """Decisions exactly, other floats to 1e-10 relative, null only to null."""
    assert mismatches({"khat": 0.8}, {"khat": 0.8 * (1 + 5e-11)}) == []
    assert mismatches({"khat": 0.8}, {"khat": 0.8 * (1 + 5e-10)})
    assert mismatches({"hbar": 0.25}, {"hbar": 0.25 * (1 + 1e-15)})
    assert mismatches({"winning_transform": {"hbar": 1.0}}, {"winning_transform": {"hbar": 1.0 + 2**-52}})
    assert mismatches({"loo_ic": None}, {"loo_ic": 0.0})
    assert mismatches({"loo_ic": 0.0}, {"loo_ic": None})
    assert mismatches({"n_failed": 1}, {"n_failed": 1.0})
    assert mismatches({"attempts": [{"fittable": True}]}, {"attempts": [{"fittable": False}]})
    assert mismatches({"attempts": [1.0]}, {"attempts": [1.0, 2.0]})
