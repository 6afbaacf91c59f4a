"""looadapt benchmark: one command per workload, end-to-end or traced.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
``src/``. Inputs are generated on first use under ``.perfbench_work/inputs``
(never timed) in a process of their own. The measuring process
(``worker.py``) runs with BLAS pinned to one thread. The last line printed
is one JSON object: ``correct``, ``attempted`` and ``failed`` (observations),
and ``metrics``, which holds the end-to-end metrics with ``--trace 0`` and
the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

RUN_LIMIT_S = 175.0  # a run, input generation included, must end within 180 s


def _units(section: str) -> dict[str, str]:
    """Metric names and units of one section of BENCHMARK.json."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def _call(argv: list[str], env: dict, timeout: float) -> int:
    proc = subprocess.Popen(argv, env=env)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"error: {' '.join(argv[:2])} did not finish within {timeout:.0f} s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:  # timed out or interrupted: leave no process behind
            proc.kill()
            proc.wait()


def run_one(root: str, name: str, seed: int, seconds: float, trace: int) -> dict | None:
    start = time.perf_counter()
    env = _child_env(root)
    inputs = workloads.input_dir(root, name, seed)
    if not os.path.isdir(inputs):
        os.makedirs(os.path.dirname(inputs), exist_ok=True)
        code = _call([sys.executable, os.path.join(HERE, "generate.py"), name, str(seed), inputs],
                     env, RUN_LIMIT_S)
        if code != 0:
            print(f"error: generating {name} inputs failed", file=sys.stderr)
            return None
    out = os.path.join(root, ".perfbench_work", "out")
    os.makedirs(out, exist_ok=True)
    result_path = os.path.join(out, f"{name}-seed{seed}-trace{trace}.result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    workers = min(workloads.WORKLOADS[name].workers, len(os.sched_getaffinity(0)))
    code = _call([sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
                  "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                  "--workers", str(workers), "--inputs", inputs, "--out", out,
                  "--result", result_path], env, RUN_LIMIT_S - (time.perf_counter() - start))
    if code != 0 or not os.path.exists(result_path):
        print(f"error: measuring {name} failed (exit code {code})", file=sys.stderr)
        return None
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def summary(name: str, r: dict, trace: int) -> dict:
    """Print every metric with its unit; return the JSON object for the run."""
    status = "ok" if r["correct"] else "FAIL"
    print(f"{name}: answers {status}, {r['failed']} of {r['attempted']} observations failed")
    print(f"{name}: run_s {r['run_s']:.4f} s (median of {r['run_s.samples']}, max {r['run_s.max']:.4f})")
    print(f"{name}: setup_s {r['setup_s']:.4f} s (median of {r['setup_s.samples']} blocks)")
    print(f"{name}: peak_rss_mb {r['peak_rss_mb']:.1f} MB")
    print(f"{name}: fail_frac {r['fail_frac']:.4f} ratio")
    if trace:
        metrics = {k: {"value": r["layers"][k], "unit": u} for k, u in _units("per_layer").items()}
        for k, m in metrics.items():
            print(f"{name}: {k} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {k: {"value": r[k], "unit": u} for k, u in _units("end_to_end").items()}
    return {"correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    opts = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "looadapt", "cli.py")):
        print("error: run from the root of a looadapt checkout (src/looadapt is missing)", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if opts.workload == "all" else [opts.workload]
    lines = []
    for name in names:
        start = time.perf_counter()
        result = run_one(root, name, opts.seed, opts.seconds, opts.trace)
        if result is None:
            return 1
        lines.append(summary(name, result, opts.trace))
        print(f"{name}: benchmark wall time {time.perf_counter() - start:.1f} s")
    for line in lines:
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
