"""ROC and precision-recall curves from predicted probabilities.

Tied scores are grouped into single curve vertices, which makes the
trapezoidal ROC area coincide exactly with the pair-counting statistic
(ties counted one half). The precision-recall area uses step-wise
integration (no linear interpolation of precision, which is known to
over-estimate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError


@dataclass(frozen=True)
class CurvePoint:
    """One curve vertex; ``threshold`` is the score cut producing it."""

    x: float
    y: float
    threshold: float


def _check_inputs(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise DimensionError("scores and labels must be 1-d vectors of equal length")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise DomainError("curve undefined: need at least one positive and one negative label")
    return scores, labels, n_pos, n_neg


def _grouped_counts(scores, labels):
    """Cumulative true/false positive counts at each distinct score, descending."""
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    distinct = np.flatnonzero(np.diff(sorted_scores)) if sorted_scores.size > 1 else np.array([], dtype=int)
    boundaries = np.concatenate([distinct, [sorted_scores.size - 1]])
    tps = np.cumsum(sorted_labels)[boundaries]
    fps = (boundaries + 1) - tps
    thresholds = sorted_scores[boundaries]
    return tps, fps, thresholds


def roc_curve(scores, labels) -> list[CurvePoint]:
    """(false positive rate, true positive rate) at every distinct score.

    Points are ordered by descending threshold and include the (0, 0) and
    (1, 1) endpoints.
    """
    scores, labels, n_pos, n_neg = _check_inputs(scores, labels)
    tps, fps, thresholds = _grouped_counts(scores, labels)
    points = [CurvePoint(x=0.0, y=0.0, threshold=math.inf)]
    for tp, fp, thr in zip(tps, fps, thresholds):
        points.append(CurvePoint(x=fp / n_neg, y=tp / n_pos, threshold=float(thr)))
    return points


def auroc(curve) -> float:
    """Trapezoidal area under an ROC point list."""
    xs = np.array([pt.x for pt in curve])
    ys = np.array([pt.y for pt in curve])
    return float(np.trapezoid(ys, xs))


def pr_curve(scores, labels) -> list[CurvePoint]:
    """(recall, precision) at every distinct score, descending threshold.

    A (0, 1) anchor point opens the curve so that plots start at zero
    recall.
    """
    scores, labels, n_pos, _ = _check_inputs(scores, labels)
    tps, fps, thresholds = _grouped_counts(scores, labels)
    points = [CurvePoint(x=0.0, y=1.0, threshold=math.inf)]
    for tp, fp, thr in zip(tps, fps, thresholds):
        points.append(CurvePoint(x=tp / n_pos, y=tp / (tp + fp), threshold=float(thr)))
    return points


def auprc(curve) -> float:
    """Step-integrated area: sum of (recall step) x (precision at the step)."""
    area = 0.0
    for prev, cur in zip(curve, curve[1:]):
        area += (cur.x - prev.x) * cur.y
    return float(area)
