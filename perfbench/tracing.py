"""Span tracing from outside the program, and the per-layer metrics it yields.

``Tracer.install`` rebinds the public names that looadapt looks up at call
time (module globals and the model classes' ``mu_batch``) to wrappers that
record one span per call: name, start, end, parent, thread and observation
index. Spans are appended to an in-memory list (``list.append`` is atomic
under the interpreter lock) and each thread keeps its own stack of open
spans, so the trace is safe under the engine's thread pool. A span opened on
a pool thread with no open span of its own is parented to the innermost open
span of the thread that installed the tracer (``run_loo``, which blocks on
the pool while its workers run).
"""

from __future__ import annotations

import contextlib
import itertools
import statistics
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent_id: int | None
    thread: int
    obs: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end, "id": self.span_id,
                "parent": self.parent_id, "thread": self.thread, "obs": self.obs, **self.attrs}


def timings_span(report):
    """(start, end) of the ``"timings": {...}`` block in a rendered report (str
    or bytes), the only part that differs between reruns of the same inputs."""
    key, close = ('"timings": {', "}") if isinstance(report, str) else (b'"timings": {', b"}")
    start = report.rfind(key)
    return start, report.index(close, start) + 1


def report_bytes(text: str) -> int:
    """Bytes of a rendered (ASCII) report without its ``timings`` block."""
    start, end = timings_span(text)
    return len(text) - (end - start)


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


# Per traced name: observation index from the call, and attributes from the
# call and its result.
def _load_dataset_attrs(args, kwargs, ds):
    intercept = bool(_arg(args, kwargs, 2, "add_intercept", False))
    return {"cells": ds.n * (ds.p - intercept + 1)}


def _evaluate_attrs(args, kwargs, ev):
    values, dataset = _arg(args, kwargs, 1, "values"), _arg(args, kwargs, 2, "dataset")
    s, p = values.shape
    return {"grad": ev.grad_log_post is not None, "flops": s * dataset.n * p}


def _adapt_attrs(args, kwargs, r):
    return {"attempts": len(r.attempts), "adapted": bool(r.adapted), "short_circuit": not r.attempts}


_POINTS = {
    # (attribute, span name, observation index getter, attributes getter)
    "cli": [
        ("load_dataset_csv", "data.load_dataset_csv", None, _load_dataset_attrs),
        ("load_draws_csv", "data.load_draws_csv", None, lambda a, k, d: {"cells": int(d.values.size)}),
        ("run_loo", "engine.run_loo", None, None),
        ("render_report_json", "cli.render_report_json", None, lambda a, k, s: {"bytes": report_bytes(s)}),
    ],
    "engine": [
        ("adapt_observation", "engine.adapt_observation", lambda a, k: a[0], _adapt_attrs),
        ("evaluate_posterior", "models.evaluate_posterior", None, _evaluate_attrs),
        ("apply_transform", "transforms.apply_transform", lambda a, k: a[0].observation_index,
         lambda a, k, t: {"kind": a[0].kind, "degenerate": bool(t.degenerate)}),
        ("eta_weights", "engine.eta_weights", lambda a, k: _arg(a, k, 5, "i"), None),
        ("marginal_stats", "data.marginal_stats", None, None),
        ("pareto_smooth", "gpd.pareto_smooth", None, lambda a, k, r: {"fittable": bool(r[1].fittable)}),
        ("roc_curve", "metrics.roc_curve", None, None),
        ("pr_curve", "metrics.pr_curve", None, None),
    ],
    "transforms": [
        ("apply_pmm", "transforms.apply_pmm", None, None),
        ("apply_gradient_transform", "transforms.apply_gradient_transform", None, None),
        ("marginal_stats", "data.marginal_stats", None, None),
    ],
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_stack: list = []
        self._saved: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, obs_of=None, attrs_of=None):
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._home_stack[-1] if self._home_stack else None)
            obs = obs_of(args, kwargs) if obs_of else None
            if obs is None and parent is not None:
                obs = parent[1]
            span_id = next(self._ids)
            stack.append((span_id, obs))
            attrs = {}
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                end = time.perf_counter()
                if attrs_of is not None:
                    attrs = attrs_of(args, kwargs, result)
                return result
            except BaseException:
                end = time.perf_counter()
                attrs = {"raised": True}
                raise
            finally:
                stack.pop()
                self.spans.append(Span(name, start, end, span_id, parent[0] if parent else None,
                                       threading.get_ident(), obs, attrs))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every traced name; ``uninstall`` restores the originals."""
        from looadapt import cli, engine, gpd, models, transforms

        self._home_stack = self._stack()
        modules = {"cli": cli, "engine": engine, "transforms": transforms}
        for mod_name, points in _POINTS.items():
            module = modules[mod_name]
            for attr, name, obs_of, attrs_of in points:
                self._rebind(module, attr, self.wrap(name, getattr(module, attr), obs_of, attrs_of))
        for cls in (models.LogisticModel, models.ReluOneModel):
            self._rebind(cls, "mu_batch", self.wrap("models.mu_batch", cls.__dict__["mu_batch"]))
        from_log_weights = gpd.WeightVector.__dict__["from_log_weights"].__func__
        self._rebind(gpd.WeightVector, "from_log_weights",
                     classmethod(self.wrap("gpd.from_log_weights", from_log_weights)))

    def _rebind(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def root(self, name: str):
        """Record the span around one whole command."""
        span_id = next(self._ids)
        stack = self._stack()
        stack.append((span_id, None))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(name, start, end, span_id, None, threading.get_ident(), None))


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the part of it that its children cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append((s.start, s.end))
    return {s.span_id: s.duration - _union_length(children.get(s.span_id, ())) for s in spans}


def _percentile(values, q):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


KINDS = ("PMM1", "PMM2", "KL", "Var", "LL")

#: Counters that depend only on the inputs and the program, never on timing.
DETERMINISTIC = (
    "data.cells", "data.marginal_stats.calls", "models.evaluate_posterior.calls",
    "models.mu_batch.calls", "models.flops_computed", "transforms.degenerate",
    *(f"transforms.calls.{k}" for k in KINDS), "engine.attempts", "engine.short_circuit",
    "engine.adapt.calls", "engine.eta_weights.calls", "gpd.pareto_smooth.calls", "gpd.unfittable",
    "metrics.curves.calls", "cli.report_bytes",
)


def layer_metrics(spans: list[Span], workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced command (its root span has no parent)."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(*names):
        return [s for n in names for s in by_name.get(n, ())]

    def total(*names):
        return sum(s.duration for s in named(*names))

    def self_total(*names):
        return sum(own[s.span_id] for s in named(*names))

    root = next(s for s in spans if s.parent_id is None)
    evals = named("models.evaluate_posterior")
    applies = named("transforms.apply_transform")
    adapts = named("engine.adapt_observation")
    fits = named("gpd.pareto_smooth")
    adapt_ms = [1e3 * s.duration for s in adapts]
    attempts = sum(s.attrs.get("attempts", 0) for s in adapts)
    adapted_flagged = sum(1 for s in adapts if s.attrs.get("adapted") and not s.attrs.get("short_circuit"))
    # Wall time of the per-observation phase, from the first start to the last end.
    pool_wall = max(s.end for s in adapts) - min(s.start for s in adapts) if adapts else 0.0
    covered = _union_length((s.start, s.end) for s in spans if s.parent_id == root.span_id)

    return {
        "data.load_s": total("data.load_dataset_csv", "data.load_draws_csv"),
        "data.cells": sum(s.attrs.get("cells", 0) for s in named("data.load_dataset_csv", "data.load_draws_csv")),
        "data.marginal_stats_s": total("data.marginal_stats"),
        "data.marginal_stats.calls": len(named("data.marginal_stats")),
        "models.evaluate_posterior_s": total("models.evaluate_posterior"),
        "models.evaluate_posterior.calls": len(evals),
        "models.grad_eval_s": sum(s.duration for s in evals if s.attrs.get("grad")),
        "models.flops_computed": sum(s.attrs.get("flops", 0) for s in evals),
        "models.mu_batch_s": total("models.mu_batch"),
        "models.mu_batch.calls": len(named("models.mu_batch")),
        "transforms.apply_s": self_total(
            "transforms.apply_transform", "transforms.apply_pmm", "transforms.apply_gradient_transform"),
        **{f"transforms.calls.{k}": sum(1 for s in applies if s.attrs.get("kind") == k) for k in KINDS},
        "transforms.degenerate": sum(1 for s in applies if s.attrs.get("degenerate")),
        "engine.adapt.calls": len(adapts),
        "engine.adapt_ms.p50": _percentile(adapt_ms, 0.5),
        # Highest percentile with at least ten observations beyond it.
        "engine.adapt_ms.p_hi": _percentile(adapt_ms, max(0.5, 1.0 - 10.0 / max(len(adapt_ms), 1))),
        "engine.weights_s": self_total("engine.eta_weights"),
        "engine.eta_weights.calls": len(named("engine.eta_weights")),
        "engine.self_s": self_total("engine.run_loo", "engine.adapt_observation"),
        "engine.attempts": attempts,
        "engine.short_circuit": sum(1 for s in adapts if s.attrs.get("short_circuit")),
        "engine.useful_ratio": adapted_flagged / attempts if attempts else 0.0,
        "engine.pool_util": sum(s.duration for s in adapts) / (workers * pool_wall) if pool_wall else 0.0,
        "gpd.pareto_smooth_s": total("gpd.pareto_smooth"),
        "gpd.pareto_smooth.calls": len(fits),
        "gpd.from_log_weights_s": total("gpd.from_log_weights"),
        "gpd.unfittable": sum(1 for s in fits if s.attrs.get("fittable") is False),
        "metrics.curves_s": total("metrics.roc_curve", "metrics.pr_curve"),
        "metrics.curves.calls": len(named("metrics.roc_curve", "metrics.pr_curve")),
        "cli.render_s": total("cli.render_report_json"),
        "cli.report_bytes": sum(s.attrs.get("bytes", 0) for s in named("cli.render_report_json")),
        "cli.self_s": own[root.span_id],
        "trace.coverage": covered / root.duration if root.duration > 0 else 0.0,
    }


def median_metrics(per_rep: list[dict]) -> dict[str, float]:
    """Median of each timing over the traced repetitions; counters are exact."""
    return {k: per_rep[0][k] if k in DETERMINISTIC else statistics.median(rep[k] for rep in per_rep)
            for k in per_rep[0]}
