"""Tail fitting and smoothing of importance weights."""

import math

import numpy as np
import pytest

from looadapt import DomainError
from looadapt.gpd import (
    MIN_TAIL_SIZE,
    GpdFit,
    WeightVector,
    fit_gpd_tail,
    gpd_quantile,
    log_sum_exp,
    pareto_smooth,
    tail_size,
)

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



def _eager_pareto_smooth(log_weights):
    """Pareto smoothing with a stable argsort of all S weights and the smoothed
    log weights made at once, the reference for :func:`pareto_smooth`. Returns
    (smoothed log weights, or None for weights that come back unchanged; fit)."""
    lw = log_weights - log_weights.max()
    s = lw.size
    m_rule = tail_size(s)
    if m_rule < MIN_TAIL_SIZE or m_rule >= s:
        return None, GpdFit.unfittable(m_rule)
    order = np.argsort(lw, kind="stable")
    log_cutoff = lw[order[s - m_rule - 1]]
    top_lw = lw[order[s - m_rule:]]
    m_t = m_rule - int(np.searchsorted(top_lw, log_cutoff, side="right"))
    if m_t < MIN_TAIL_SIZE:
        return None, GpdFit.unfittable(m_t)
    cutoff = math.exp(log_cutoff)
    excesses = np.sort(np.exp(top_lw[m_rule - m_t:]) - cutoff)
    if excesses[0] <= 0:
        return None, GpdFit.unfittable(m_t)
    fit = fit_gpd_tail(excesses)
    if not fit.fittable:
        return None, fit
    ranks = (np.arange(m_t) + 0.5) / m_t
    new_lw = lw.copy()
    new_lw[order[s - m_t:]] = np.minimum(np.log(gpd_quantile(ranks, fit.khat, fit.sigma) + cutoff), 0.0)
    return new_lw, fit


def _smoothing_cases():
    """(name, log weights): fittable tails, with and without ties at and above
    the cutoff, and every branch that leaves a tail unfittable."""
    rng = np.random.default_rng(20261019)
    cases = [
        ("normal", 3.0 * rng.normal(size=1000)),
        ("student-t", rng.standard_t(3, size=2000)),
        ("heavy", np.log(gpd_inverse_cdf_sample(rng, 0.7, 1.0, 4000))),
        ("with -inf", np.where(rng.uniform(size=500) < 0.3, -np.inf, rng.normal(size=500))),
    ]
    # one decimal gives many ties, the cutoff's among them
    cases += [(f"rounded {seed}", np.round(3.0 * np.random.default_rng(seed).normal(size=400), 1)) for seed in range(8)]
    cases += [
        ("too few draws", np.arange(10.0)),
        ("ties above the cutoff", np.zeros(100)),
        ("constant tail", np.array([0.0] * 10 + [-1.0] * 90)),
        ("underflowed tail", np.array([0.0, -1.0, -2.0] + [-800.0 - k for k in range(1997)])),
        # a cutoff of weight 0 under a tail whose quartile, 1e-310, overflows the quadrature nodes
        ("spread past the float range",
         np.concatenate([np.log([k * 1e-310 for k in range(1, 16)] + [0.2, 0.4, 0.6, 0.8, 1.0]), np.full(80, -np.inf)])),
    ]
    return cases


class TestLazySmoothing:
    """pareto_smooth finds the cutoff by a partial sort and makes the smoothed
    weights on first read; both give the bits of the full stable argsort."""

    @pytest.mark.parametrize("name, lw", _smoothing_cases(), ids=[name for name, _ in _smoothing_cases()])
    def test_equal_to_the_eager_algorithm(self, name, lw):
        weights = WeightVector.from_log_weights(lw)
        smoothed, fit = pareto_smooth(weights)
        want_lw, want_fit = _eager_pareto_smooth(weights.log_weights)
        assert repr(fit) == repr(want_fit)  # repr tells every float bit apart, and nan equals nan
        if want_lw is None:
            assert smoothed is weights
            return
        assert "log_weights" not in vars(smoothed)
        assert np.array_equal(smoothed.log_weights, want_lw)
        assert smoothed.log_total == log_sum_exp(want_lw)
        np.testing.assert_array_equal(smoothed.normalized, np.exp(want_lw - log_sum_exp(want_lw)))
        with pytest.raises(ValueError):
            smoothed.log_weights[0] = 0.0

    def test_every_branch_is_covered(self):
        fits = {name: _eager_pareto_smooth(lw)[1] for name, lw in _smoothing_cases()}
        names = list(fits)
        assert all(fits[name].fittable for name in names[: names.index("too few draws")])
        assert not any(fits[name].fittable for name in names[names.index("too few draws"):])
        assert fits["too few draws"].tail_size == tail_size(10) < MIN_TAIL_SIZE
        assert fits["ties above the cutoff"].tail_size == 0
        assert fits["constant tail"].tail_size == 10
        assert fits["underflowed tail"].tail_size == tail_size(2000)
        assert fits["spread past the float range"].tail_size == 20
        m = tail_size(400)
        ranked = [np.sort(lw) for name, lw in _smoothing_cases() if name.startswith("rounded")]
        assert sum(r[400 - m] == r[400 - m - 1] for r in ranked) >= 6  # the cutoff tied with one of the M largest


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

    def test_log_total_is_computed_on_first_read(self, rng):
        lw = rng.normal(size=300) * 40
        lw[::7] = -np.inf
        weights = WeightVector.from_log_weights(lw)
        assert "log_total" not in vars(weights)
        assert weights.log_total == log_sum_exp(lw)
        assert vars(weights)["log_total"] == weights.log_total

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
        with pytest.raises(DomainError, match="^log weights must be < \\+inf and not NaN$"):
            WeightVector.from_log_weights(np.array([0.0, np.inf]))
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
