"""Tail fitting and smoothing of importance weights."""

import math

import numpy as np
import pytest

from looadapt import DomainError
from looadapt.gpd import WeightVector, fit_gpd_tail, gpd_quantile, log_sum_exp, pareto_smooth, tail_size

from conftest import gpd_inverse_cdf_sample


class TestFitGpdTail:
    def test_recovers_heavy_shape(self):
        rng = np.random.default_rng(11)
        x = np.sort(gpd_inverse_cdf_sample(rng, 0.5, 1.0, 4000))
        fit = fit_gpd_tail(x)
        assert fit.fittable
        assert 0.4 <= fit.khat <= 0.6
        assert fit.sigma > 0

    def test_exponential_limit(self):
        rng = np.random.default_rng(12)
        x = np.sort(gpd_inverse_cdf_sample(rng, 0.0, 1.0, 4000))
        fit = fit_gpd_tail(x)
        assert -0.1 <= fit.khat <= 0.1

    def test_short_tail_not_fittable(self):
        fit = fit_gpd_tail(np.array([1.0, 2.0, 3.0]))
        assert not fit.fittable
        assert fit.khat == math.inf

    def test_constant_tail_not_fittable(self):
        fit = fit_gpd_tail(np.full(50, 2.5))
        assert not fit.fittable

    def test_tail_spread_past_the_float_range_not_fittable(self):
        # a quartile of 1e-310 overflows the quadrature nodes 1 / (3 * quartile)
        fit = fit_gpd_tail(np.array([1e-310, 2e-310, 3e-310, 0.5, 1.0]))
        assert not fit.fittable
        assert fit.khat == math.inf

    def test_preconditions(self):
        with pytest.raises(DomainError):
            fit_gpd_tail(np.array([0.0, 1.0, 2.0, 3.0, 4.0]))
        with pytest.raises(DomainError):
            fit_gpd_tail(np.array([3.0, 2.0, 1.0, 4.0, 5.0]))
        with pytest.raises(DomainError, match="^tail excesses must be a 1-d vector$"):
            fit_gpd_tail(np.ones((5, 2)))

    def test_scale_equivariance(self):
        rng = np.random.default_rng(13)
        x = np.sort(gpd_inverse_cdf_sample(rng, 0.4, 1.0, 2000))
        base = fit_gpd_tail(x)
        scaled = fit_gpd_tail(np.sort(7.5 * x))
        assert abs(base.khat - scaled.khat) < 1e-8
        assert abs(scaled.sigma / base.sigma - 7.5) < 1e-6

    def test_calibration_spot_check(self):
        khats = []
        for rep in range(20):
            rng = np.random.default_rng(500 + rep)
            x = np.sort(gpd_inverse_cdf_sample(rng, 0.5, 1.0, 4000))
            khats.append(fit_gpd_tail(x).khat)
        assert abs(np.mean(khats) - 0.5) < 0.05


class TestParetoSmooth:
    def test_uniform_weights_unchanged(self):
        weights = WeightVector.from_log_weights(np.zeros(100))
        smoothed, fit = pareto_smooth(weights)
        assert not fit.fittable
        np.testing.assert_array_equal(smoothed.normalized, weights.normalized)

    def test_tiny_sample_unchanged(self):
        weights = WeightVector.from_log_weights(np.array([0.0, 1.0]))
        smoothed, fit = pareto_smooth(weights)
        assert not fit.fittable
        np.testing.assert_array_equal(smoothed.normalized, weights.normalized)

    def test_heavy_tail_smoothed_below_raw_max(self, rng):
        # log weights with a genuinely heavy exp-tail (shape 0.7)
        lw = gpd_inverse_cdf_sample(rng, 0.7, 1.0, 4000)
        weights = WeightVector.from_log_weights(lw)
        smoothed, fit = pareto_smooth(weights)
        assert fit.fittable
        assert fit.khat > 0.2
        # smoothed (shifted) log weights never exceed the raw shifted maximum
        assert smoothed.log_weights.max() <= 0.0 + 1e-12

    def test_order_preserved(self, rng):
        lw = rng.normal(size=1000) * 3.0
        weights = WeightVector.from_log_weights(lw)
        smoothed, fit = pareto_smooth(weights)
        assert fit.fittable
        order = np.argsort(lw)
        assert np.all(np.diff(smoothed.log_weights[order]) >= -1e-12)

    def test_only_tail_positions_change(self, rng):
        lw = rng.normal(size=500)
        weights = WeightVector.from_log_weights(lw)
        smoothed, fit = pareto_smooth(weights)
        assert fit.fittable
        m = tail_size(500)
        body = np.argsort(lw)[: 500 - m]
        # body log weights shift by a common constant only
        delta = smoothed.log_weights[body] - (lw[body] - lw.max())
        assert np.ptp(delta) < 1e-12

    def test_khat_matches_direct_fit(self, rng):
        lw = rng.standard_cauchy(size=2000)
        weights = WeightVector.from_log_weights(lw)
        _, fit = pareto_smooth(weights)
        shifted = lw - lw.max()
        m = tail_size(2000)
        order = np.argsort(shifted, kind="stable")
        cutoff = shifted[order[2000 - m - 1]]
        tail = shifted[shifted > cutoff]
        direct = fit_gpd_tail(np.sort(np.exp(tail) - math.exp(cutoff)))
        assert fit.khat == pytest.approx(direct.khat, abs=1e-12)

    def test_ties_at_and_above_the_cutoff(self, rng):
        """Weights tied with the cutoff order statistic stay in the body, and two
        tied tail weights take their smoothed order statistics in index order."""
        s = 200
        cut = s - tail_size(s) - 1  # rank of the cutoff
        ranked = np.linspace(-6.0, 0.0, s)
        ranked[cut - 1 : cut + 3] = ranked[cut]
        ranked[180] = ranked[181]
        perm = rng.permutation(s)
        lw = np.empty(s)
        lw[perm] = ranked
        smoothed, fit = pareto_smooth(WeightVector.from_log_weights(lw))
        assert fit.fittable and fit.tail_size == s - (cut + 3)
        at_cutoff = perm[cut - 1 : cut + 3]
        np.testing.assert_array_equal(smoothed.log_weights[at_cutoff], lw[at_cutoff])
        first, second = sorted(perm[[180, 181]])
        assert smoothed.log_weights[first] < smoothed.log_weights[second]

    def test_underflowed_tail_is_unfittable(self):
        # every tail weight but three underflows to the cutoff: the excesses
        # hit zero, which is an unfittable tail, not an error
        lw = np.array([0.0, -1.0, -2.0] + [-800.0 - k for k in range(1997)])
        weights = WeightVector.from_log_weights(lw)
        smoothed, fit = pareto_smooth(weights)
        assert not fit.fittable and fit.khat == math.inf
        assert smoothed is weights


class TestWeightVector:
    def test_normalization_identity(self, rng):
        lw = rng.normal(size=64) * 10
        weights = WeightVector.from_log_weights(lw)
        from scipy.special import logsumexp

        np.testing.assert_allclose(
            weights.normalized, np.exp(lw - logsumexp(lw)), atol=1e-12
        )
        assert weights.normalized.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(weights.normalized >= 0) and np.all(weights.normalized <= 1)

    def test_wide_range_matches_scipy(self, rng):
        # weights spanning 1e300 (log range ~690) with zero-weight entries;
        # the all-zero vector is still an error
        from scipy.special import logsumexp

        lw = rng.uniform(-690.0, 0.0, size=200) + 300.0
        lw[[3, 77, 150]] = -np.inf
        weights = WeightVector.from_log_weights(lw)
        np.testing.assert_allclose(weights.normalized, np.exp(lw - logsumexp(lw)), rtol=1e-12, atol=0)
        assert weights.normalized[[3, 77, 150]].tolist() == [0.0, 0.0, 0.0]
        assert log_sum_exp(lw) == pytest.approx(logsumexp(lw), rel=1e-14)
        assert log_sum_exp(np.full(3, -np.inf)) == -np.inf
        with pytest.raises(DomainError, match="all weights are zero"):
            WeightVector.from_log_weights(np.full(5, -np.inf))

    def test_normalized_is_computed_on_first_read(self, rng):
        lw = rng.normal(size=50) * 5
        weights = WeightVector.from_log_weights(lw)
        assert "normalized" not in vars(weights)
        first = weights.normalized
        np.testing.assert_array_equal(first, np.exp(lw - log_sum_exp(lw)))
        assert weights.normalized is first
        with pytest.raises(ValueError):
            first[0] = 0.0

    def test_single_weight_is_one(self):
        assert WeightVector.from_log_weights([-5.0]).normalized[0] == 1.0

    def test_minus_inf_entries_allowed(self):
        weights = WeightVector.from_log_weights(np.array([0.0, -np.inf]))
        np.testing.assert_allclose(weights.normalized, [1.0, 0.0])

    def test_rejects_nan_and_all_zero(self):
        with pytest.raises(DomainError):
            WeightVector.from_log_weights(np.array([0.0, np.nan]))
        with pytest.raises(DomainError):
            WeightVector.from_log_weights(np.array([-np.inf, -np.inf]))
        with pytest.raises(DomainError, match="^log weights must be a non-empty 1-d vector$"):
            WeightVector.from_log_weights([])


class TestGpdQuantile:
    def test_matches_inverse_cdf_oracle(self, rng):
        p = rng.uniform(0.01, 0.99, size=100)
        for k in (0.3, -0.2):
            np.testing.assert_allclose(
                gpd_quantile(p, k, 2.0), 2.0 * ((1.0 - p) ** (-k) - 1.0) / k, rtol=1e-12
            )

    def test_zero_shape_limit(self):
        p = np.array([0.1, 0.9])
        np.testing.assert_allclose(gpd_quantile(p, 0.0, 1.5), -1.5 * np.log1p(-p), rtol=1e-12)
