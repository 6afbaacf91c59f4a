"""The benchmark workloads and the command line each one runs.

Each workload is one problem instance, generated by ``generate.py``; the
benchmark seed only reorders its observations and draws (see there).
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    model: str             # "logistic" or "relu1"
    hidden: int | None
    prior_sd: float
    workers: int           # capped at the number of usable cores
    config: dict | None    # run configuration JSON, None for the defaults


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("logit-scan", "logistic", None, 0.3, 1, None),
        Workload("relu-grad", "relu1", 8, 0.5, 2, {"transform_order": ["KL", "Var", "LL"]}),
    )
}


def input_dir(root: str, name: str, seed: int) -> str:
    return os.path.join(root, ".perfbench_work", "inputs", name, f"seed-{seed}")


def cli_args(name: str, directory: str, workers: int) -> list[str]:
    """Arguments to ``looadapt.cli.main`` for one repetition (without --out)."""
    w = WORKLOADS[name]
    args = ["run", "--data", os.path.join(directory, "data.csv"),
            "--draws", os.path.join(directory, "draws.csv"),
            "--model", w.model, "--prior-sd", repr(w.prior_sd), "--workers", str(workers)]
    if w.hidden is not None:
        args += ["--hidden", str(w.hidden)]
    if w.config is not None:
        args += ["--config", os.path.join(directory, "config.json")]
    return args
