"""Curve construction and area identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from looadapt import DimensionError, DomainError
from looadapt.metrics import auprc, auroc, pr_curve, roc_curve

from conftest import pair_count_auroc


class TestRocCurve:
    def test_perfect_separation(self):
        scores = [0.9, 0.8, 0.2, 0.1]
        labels = [1, 1, 0, 0]
        curve = roc_curve(scores, labels)
        assert any(pt.x == 0.0 and pt.y == 1.0 for pt in curve)
        assert auroc(curve) == 1.0

    def test_all_scores_equal_gives_diagonal(self):
        curve = roc_curve([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
        assert [(pt.x, pt.y) for pt in curve] == [(0.0, 0.0), (1.0, 1.0)]
        assert auroc(curve) == 0.5

    def test_known_value(self):
        scores = [0.9, 0.8, 0.3, 0.1]
        labels = [1, 0, 1, 0]
        assert auroc(roc_curve(scores, labels)) == pytest.approx(
            pair_count_auroc(scores, labels)
        )
        assert auroc(roc_curve(scores, labels)) == pytest.approx(0.75)

    def test_endpoints_present(self, rng):
        scores = rng.uniform(size=20)
        labels = rng.integers(0, 2, size=20)
        labels[0], labels[1] = 0, 1
        curve = roc_curve(scores, labels)
        assert (curve[0].x, curve[0].y) == (0.0, 0.0)
        assert (curve[-1].x, curve[-1].y) == (1.0, 1.0)

    def test_single_class_rejected(self):
        with pytest.raises(DomainError, match="^curve undefined: need at least one positive and one negative label$"):
            roc_curve([0.1, 0.2], [1, 1])

    def test_lengths_must_agree(self):
        with pytest.raises(DimensionError, match="^scores and labels must be 1-d vectors of equal length$"):
            roc_curve([0.1, 0.2, 0.3], [0, 1])

    def test_monotone_transform_invariance(self, rng):
        scores = rng.uniform(size=30)
        labels = rng.integers(0, 2, size=30)
        labels[:2] = [0, 1]
        base = auroc(roc_curve(scores, labels))
        warped = auroc(roc_curve(np.exp(3.0 * scores), labels))
        assert warped == pytest.approx(base, abs=1e-12)

    def test_label_swap_symmetry(self, rng):
        scores = rng.uniform(size=25)
        labels = rng.integers(0, 2, size=25)
        labels[:2] = [0, 1]
        base = auroc(roc_curve(scores, labels))
        flipped = auroc(roc_curve(-scores, 1 - labels))
        assert flipped == pytest.approx(base, abs=1e-12)

    @given(st.data())
    @settings(max_examples=200, deadline=None, derandomize=False)
    def test_trapezoid_equals_pair_counting(self, data):
        n = data.draw(st.integers(2, 12))
        labels = data.draw(
            st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(
                lambda ls: 0 < sum(ls) < len(ls)
            )
        )
        # quantized scores force plenty of ties
        scores = data.draw(
            st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=n, max_size=n)
        )
        area = auroc(roc_curve(scores, labels))
        assert area == pytest.approx(pair_count_auroc(scores, labels), abs=1e-12)


class TestPrCurve:
    def test_perfect_ranking(self):
        scores = [0.9, 0.8, 0.2, 0.1]
        labels = [1, 1, 0, 0]
        assert auprc(pr_curve(scores, labels)) == pytest.approx(1.0)

    def test_anchor_point(self):
        curve = pr_curve([0.9, 0.1], [1, 0])
        assert (curve[0].x, curve[0].y) == (0.0, 1.0)

    def test_reverse_ranking(self):
        # positives ranked last: AP = sum of precision at each recall step
        scores = [0.9, 0.8, 0.2, 0.1]
        labels = [0, 0, 1, 1]
        # recall steps at thresholds 0.2 (tp=1, fp=2) and 0.1 (tp=2, fp=2)
        expected = 0.5 * (1.0 / 3.0) + 0.5 * (2.0 / 4.0)
        assert auprc(pr_curve(scores, labels)) == pytest.approx(expected)

    def test_single_class_rejected(self):
        with pytest.raises(DomainError, match="^curve undefined: need at least one positive and one negative label$"):
            pr_curve([0.1, 0.2], [0, 0])

    def test_area_in_unit_interval(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 40))
            scores = rng.uniform(size=n)
            labels = rng.integers(0, 2, size=n)
            labels[:2] = [0, 1]
            area = auprc(pr_curve(scores, labels))
            assert 0.0 <= area <= 1.0
