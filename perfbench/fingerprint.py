"""Answer fingerprints: what a benchmark command must keep the same.

A ``run`` fingerprint holds, per observation, the ``adapted`` flag and the
winning transform kind and step scale (compared exactly) and the LOO log
predictive density (compared to 1e-10 relative), plus ``loo_ic`` (1e-10
relative) and ``n_failed`` (exact).

Compare two written fingerprints, say from two commits, with
``python3 perfbench/fingerprint.py A.json B.json``.
"""

from __future__ import annotations

import json
import math
import sys

REL_TOL = 1e-10


def from_report(report: dict) -> dict:
    obs = []
    for r in report["per_observation"]:
        win = r["winning_transform"]
        obs.append([r["adapted"], win and win["kind"], win and win["hbar"], r["loo_log_predictive_density"]])
    return {"command": "run", "loo_ic": report["loo_ic"], "n_failed": report["n_failed"], "obs": obs}


def _close(a, b, tol=REL_TOL) -> bool:
    if a is None or b is None:
        return a is b
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(abs(a), abs(b))


def _obs_matches(ref, got) -> bool:
    return ref[:3] == got[:3] and _close(ref[3], got[3])


def in_base_order(fingerprint: dict, obs_order: list[int]) -> dict:
    """Reorder per-observation entries so that row j goes to ``obs_order[j]``."""
    obs = [None] * len(obs_order)
    for row, base in enumerate(obs_order):
        obs[base] = fingerprint["obs"][row]
    return {**fingerprint, "obs": obs}


def compare(ref: dict, got: dict) -> tuple[list[int], list[str]]:
    """Observations whose answer in ``got`` misses ``ref``, and a message per miss."""
    if ref["command"] != got["command"] or len(ref["obs"]) != len(got["obs"]):
        return list(range(len(got["obs"]))), ["fingerprint shape differs"]
    missed = [i for i, (a, b) in enumerate(zip(ref["obs"], got["obs"]))
              if not _obs_matches(a, b)]
    messages = [f"observation {i}: expected {ref['obs'][i]}, got {got['obs'][i]}" for i in missed[:5]]
    if not _close(ref["loo_ic"], got["loo_ic"]):
        messages.append(f"loo_ic: expected {ref['loo_ic']!r}, got {got['loo_ic']!r}")
    if ref["n_failed"] != got["n_failed"]:
        messages.append(f"n_failed: expected {ref['n_failed']}, got {got['n_failed']}")
    return missed, messages


def main(argv) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        ref = json.load(fh)
    with open(argv[1], encoding="utf-8") as fh:
        got = json.load(fh)
    missed, messages = compare(ref, got)
    for m in messages:
        print(m)
    print(f"{len(missed)} of {len(got['obs'])} observations differ")
    return 1 if messages else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
