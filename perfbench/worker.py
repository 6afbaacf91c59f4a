"""Measuring process for one benchmark run; started by ``perfbench/run.py``.

A closed loop from one client: each repetition is one ``looadapt.cli.main``
command, started when the previous one has returned. Commands repeat for at
least ``--seconds`` seconds, and before each one the process times a block
of set-ups (``load_dataset_csv`` + ``load_draws_csv``). With ``--trace 1``
untraced and traced repetitions alternate, and the traced ones yield the
per-layer metrics. Every repetition's output must be byte-identical
(``timings`` aside), and the last one's answers must match the pinned
fingerprint.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
        --workers K --inputs DIR --out DIR --result FILE
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import fingerprint  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_REPS = 3          # untraced repetitions of a --trace 0 run, whatever --seconds says
MIN_TRACED_REPS = 2   # pairs of untraced and traced repetitions of a --trace 1 run
SETUP_BLOCK_S = 1.5   # before every command, set-up repeats at least once and this long
MIN_COVERAGE = 0.9    # share of a traced command its top-level named spans must cover


def _source_digest(*dirs: str) -> str:
    """Digest of the Python sources under ``dirs``: the program and the benchmark."""
    digest = hashlib.sha256()
    for top in dirs:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, top).encode())
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
    return digest.hexdigest()[:16]


def _report_digest(path: str) -> str:
    """SHA-256 of a report file without its ``timings`` block."""
    with open(path, "rb") as fh:
        data = fh.read()
    start, end = tracing.timings_span(data)
    digest = hashlib.sha256()
    view = memoryview(data)
    digest.update(view[:start])
    digest.update(view[end:])
    return digest.hexdigest()


class Bench:
    def __init__(self, opts):
        from looadapt import cli, data

        self.opts = opts
        self.cli = cli
        self.load_dataset_csv = data.load_dataset_csv
        self.load_draws_csv = data.load_draws_csv
        self.report_path = os.path.join(opts.out, "report.json")
        self.args = workloads.cli_args(opts.workload, opts.inputs, opts.workers) + ["--out", self.report_path]
        with open(os.path.join(opts.inputs, "obs_order.json"), encoding="utf-8") as fh:
            self.obs_order = json.load(fh)
        self.n = len(self.obs_order)

    def setup_once(self) -> float:
        start = time.perf_counter()
        self.load_dataset_csv(os.path.join(self.opts.inputs, "data.csv"))
        self.load_draws_csv(os.path.join(self.opts.inputs, "draws.csv"))
        return time.perf_counter() - start

    def command_once(self, tracer=None) -> dict:
        """Run one command: its wall time, error (None on success) and output."""
        if os.path.exists(self.report_path):
            os.remove(self.report_path)  # a failed command must not leave an old report behind
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    code = self.cli.main(self.args)
                else:
                    with tracer.root("cli.main"):
                        code = self.cli.main(self.args)
        except Exception:  # a raising command fails every observation of its run
            error = traceback.format_exc()
        seconds = time.perf_counter() - start
        if error is None and code not in (self.cli.EXIT_OK, self.cli.EXIT_UNADAPTED):
            error = f"exit code {code}: {err.getvalue().strip()}"
        digest = _report_digest(self.report_path) if error is None else None
        return {"seconds": seconds, "error": error, "digest": digest}

    def answers(self) -> dict:
        """Fingerprint of the last command's report, in base observation order."""
        with open(self.report_path, encoding="utf-8") as fh:
            got = fingerprint.from_report(json.load(fh)["report"])
        return fingerprint.in_base_order(got, self.obs_order)


def _measure(bench: Bench, opts):
    setup = []

    def time_setup():
        # Blocks spread over the run sample the same machine conditions as
        # the commands do. A block's sample is its mean set-up time, which
        # moves with the share of slow time on a shared host; a median over
        # single set-ups (0.1 to 0.5 s each) jumps between its fast and slow
        # speed states.
        block = []
        while not block or sum(block) < SETUP_BLOCK_S:
            block.append(bench.setup_once())
        setup.append(sum(block) / len(block))

    if opts.trace:
        # The first command in a process runs slower; keep that out of the
        # traced-versus-untraced comparison.
        bench.command_once()
    reps, traces = [], []  # reps in the order they ran, each tagged traced or not
    start = time.perf_counter()
    while True:
        time_setup()
        reps.append({**bench.command_once(), "traced": False})
        if opts.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                reps.append({**bench.command_once(tracer), "traced": True})
            finally:
                tracer.uninstall()
            traces.append(tracer.spans)
        plain = sum(1 for r in reps if not r["traced"])
        if plain >= (MIN_TRACED_REPS if opts.trace else MIN_REPS) and time.perf_counter() - start >= opts.seconds:
            break
        if any(r["error"] is not None for r in reps):
            break
    # Read before any checking work, which parses the whole report.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return setup, reps, traces, peak_rss_mb


def _check(bench: Bench, reps: list[dict], opts) -> tuple[list[int], list[str]]:
    """Failed observations per repetition, and a FAIL message per problem.

    A repetition that raised, or whose output differs from the others,
    fails on all n observations. Otherwise its failed observations are the
    unadapted ones (``n_failed``) together with those whose answer misses
    the pinned fingerprint.
    """
    messages = []
    last = reps[-1]
    bad = set(range(bench.n))
    if last["error"] is None:
        got = bench.answers()
        written = os.path.join(opts.out, f"{opts.workload}-seed{opts.seed}.fingerprint.json")
        with open(written, "w", encoding="utf-8") as fh:
            json.dump(got, fh, sort_keys=True)
        with open(os.path.join(HERE, "fingerprints", f"{opts.workload}.json"), encoding="utf-8") as fh:
            pinned = json.load(fh)
        missed, fp_messages = fingerprint.compare(pinned, got)
        messages += [f"FAIL answer: {m}" for m in fp_messages]
        bad = set(missed) | {i for i, obs in enumerate(got["obs"]) if not obs[0]}
    failed = []
    for rep in reps:
        if rep["error"] is not None:
            messages.append(f"FAIL command: {rep['error'].strip()}")
            failed.append(bench.n)
        elif rep["digest"] != last["digest"]:
            messages.append("FAIL answer: output differs between repetitions")
            failed.append(bench.n)
        else:
            failed.append(len(bad))
    return failed, messages


def _drift(opts, counters: list[dict], src_digest: str) -> list[str]:
    """Deterministic counters must repeat across the traced repetitions of this
    run and across runs of the same source tree and seed."""
    messages = []
    first = {k: counters[0][k] for k in tracing.DETERMINISTIC}
    for rep in counters[1:]:
        moved = [k for k in first if rep[k] != first[k]]
        if moved:
            messages.append(f"DRIFT within run: {moved}")
    path = os.path.join(opts.out, "counters", f"{opts.workload}-seed{opts.seed}-{src_digest}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
        moved = [k for k in first if stored.get(k) != first[k]]
        if moved:
            messages.append(f"DRIFT from an earlier run: {moved}")
    else:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(first, fh, sort_keys=True)
    return messages


def _environment() -> str:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"env: nproc={len(os.sched_getaffinity(0))} python={sys.version.split()[0]} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} "
            f"blas={blas.get('name')} {blas.get('version')} "
            f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    for flag in ("--workload", "--inputs", "--out", "--result"):
        parser.add_argument(flag, required=True)
    for flag in ("--seed", "--trace", "--workers"):
        parser.add_argument(flag, type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    opts = parser.parse_args(argv)

    import looadapt

    src = os.path.abspath("src")
    if not os.path.abspath(looadapt.__file__).startswith(src + os.sep):
        print(f"error: looadapt imported from {looadapt.__file__}, not from {src}", file=sys.stderr)
        return 2
    print(_environment())
    bench = Bench(opts)
    setup, reps, traces, peak_rss_mb = _measure(bench, opts)
    failed, messages = _check(bench, reps, opts)

    plain = [(r, f) for r, f in zip(reps, failed) if not r["traced"]]
    run_s = [r["seconds"] for r, _ in plain]
    attempted = bench.n * len(plain)
    result = {
        "attempted": attempted,
        "failed": sum(f for _, f in plain),
        "run_s": statistics.median(run_s),
        "run_s.samples": len(run_s),
        "run_s.max": max(run_s),
        "setup_s": statistics.median(setup),
        "setup_s.samples": len(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    result["fail_frac"] = result["failed"] / attempted
    if opts.trace:
        per_rep = [tracing.layer_metrics(spans, opts.workers) for spans in traces]
        messages += _drift(opts, per_rep, _source_digest(src, HERE))
        layers = tracing.median_metrics(per_rep)
        traced_s = statistics.median(r["seconds"] for r in reps if r["traced"])
        layers["trace.overhead_s"] = traced_s - result["run_s"]
        layers["fail_frac"] = result["fail_frac"]
        result["layers"] = layers
        if layers["trace.coverage"] < MIN_COVERAGE:
            # About the trace, not the answers: it leaves ``correct`` alone.
            print(f"FAIL trace coverage: named spans cover {layers['trace.coverage']:.3f} "
                  f"of the traced command, below {MIN_COVERAGE}")
        with open(os.path.join(opts.out, f"{opts.workload}-seed{opts.seed}.trace.jsonl"), "w",
                  encoding="utf-8") as fh:
            for span in traces[-1]:
                fh.write(json.dumps(span.to_json()) + "\n")
    for m in messages:
        print(m)
    result["correct"] = not messages
    with open(opts.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
