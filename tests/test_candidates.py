"""Candidate rows: an attempt on a logistic line evaluates the log posterior at
phi only on the draws whose log weight can reach the Pareto tail.

The bounds of :func:`~looadapt.transforms.log_weight_bounds` must hold every
draw's exact log weight, and the candidates must give the k-hat and the
smoothed weights of the whole vector. A run must not depend on them: forcing
every attempt to evaluate all rows leaves every report bit for bit.
"""

import contextlib
import dataclasses
import os

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from looadapt import Dataset, GaussianPrior, LogisticModel, PosteriorDraws, RunConfig, run_loo
from looadapt import transforms
from looadapt.cli import _load_inputs, build_parser
from looadapt.engine import LooProblem, eta_weights
from looadapt.gpd import pareto_smooth, tail_size
from looadapt.models import log_posterior
from looadapt.transforms import apply_transform, candidate_rows, log_weight_bounds, step_lines

from conftest import raw_weights
from test_golden import GOLDEN_DIR, golden_args


def _golden_problem(name):
    args = build_parser().parse_args(["run", *golden_args(os.path.join(GOLDEN_DIR, name)), "--out", "unused"])
    dataset, draws, model, prior, config = _load_inputs(args)
    return LooProblem.build(model, draws, dataset, prior, config)


def _line_log_prior(line, hbar, problem):
    """The log prior at phi, as :func:`apply_transform` forms it."""
    return problem.evaluation.log_prior - hbar * (line.prior_slope + 0.5 * hbar * line.prior_curvature)


class TestLogWeightBounds:
    @pytest.mark.parametrize("name", ["logistic", "relu1"])
    def test_every_attempt_of_a_golden_instance(self, name):
        """Every (line, step scale) of every flagged observation, down to hbar =
        4^-10, where the bounds are tightest: each draw's exact log weight lies
        in its bounds, at least M + 1 draws are candidates, the held-out column
        and the candidate rows are those of the whole evaluation, and the
        candidate weights smooth to the whole vector's k-hat and weights. A
        relu1 line has no bounds and evaluates every row."""
        problem = _golden_problem(name)
        config, labels, proposal = problem.config, problem.dataset.labels, problem.log_proposal
        assert min(config.hbar_values) == 4.0**-10
        needed = tail_size(problem.draws.num_draws) + 1
        checked, smallest = 0, 0
        for i in range(problem.dataset.n):
            raw, raw_fit = pareto_smooth(raw_weights(problem, i))
            if raw_fit.khat <= config.khat_threshold:
                continue
            for line in step_lines(i, problem, raw):
                for hbar in config.hbar_values:
                    out = apply_transform(line, hbar, problem)
                    if out.degenerate:
                        continue
                    log_prior = _line_log_prior(line, hbar, problem)
                    mu = line.mu.at(hbar)
                    log_lik, log_post = log_posterior(mu, labels, log_prior)
                    np.testing.assert_array_equal(out.mu_i, mu[:, i])
                    np.testing.assert_array_equal(out.log_lik_i, log_lik[:, i])
                    whole = eta_weights(out.log_lik_i, log_post, proposal, out.log_jac_det)
                    bounds = log_weight_bounds(line, hbar, problem, out.log_jac_det - out.log_lik_i, log_prior)
                    if name == "relu1":
                        assert bounds is None and out.complete_log_post is None
                        np.testing.assert_array_equal(out.log_post, log_post)
                        continue
                    lower, upper = bounds
                    exact = whole.log_weights
                    outside = np.flatnonzero((exact < lower) | (exact > upper))
                    assert outside.size == 0, (line.kind, hbar, outside[:5], exact[outside[:5]])
                    rows = candidate_rows(lower, upper)
                    assert rows.size >= needed
                    others = np.ones(exact.size, dtype=bool)
                    others[rows] = False
                    np.testing.assert_array_equal(out.candidate_log_post[rows], log_post[rows])
                    assert np.all(out.candidate_log_post[others] == -np.inf)
                    weights = eta_weights(out.log_lik_i, out.candidate_log_post, proposal, out.log_jac_det,
                                          complete_log_post=out.complete_log_post)
                    (smoothed, fit), (whole_smoothed, whole_fit) = pareto_smooth(weights), pareto_smooth(whole)
                    assert repr(fit) == repr(whole_fit)
                    np.testing.assert_array_equal(weights.log_weights, exact)
                    np.testing.assert_array_equal(smoothed.log_weights, whole_smoothed.log_weights)
                    np.testing.assert_array_equal(out.log_post, log_post)
                    checked += 1
                    smallest += hbar == 4.0**-10
        assert checked > 0 if name == "logistic" else checked == 0
        assert smallest > 0 or name == "relu1"

    def test_a_move_past_the_bounds_evaluates_every_row(self):
        """A line sum that is not finite, here an overflowing slope, makes no
        bounds: the attempt evaluates every row and needs no completion."""
        problem = _golden_problem("logistic")
        raw, _ = pareto_smooth(raw_weights(problem, 0))
        line = next(step_lines(0, problem, raw))
        slope, curvature = line.likelihood_dots
        broken = dataclasses.replace(line, likelihood_dots=(np.full_like(slope, np.inf), curvature))
        out = apply_transform(line, 1.0, problem)
        exact = out.log_jac_det - out.log_lik_i
        assert log_weight_bounds(broken, 1.0, problem, exact, _line_log_prior(line, 1.0, problem)) is None
        assert apply_transform(broken, 1.0, problem).complete_log_post is None
        assert out.complete_log_post is not None


def _fingerprint(report):
    """Every decision and every float of a report, by repr, with the final log weights' bits."""
    per_obs = [
        (r.index, r.adapted, repr(r.winning_transform), repr(r.raw_khat), repr(r.final_khat),
         r.final_weights.log_weights.tobytes(), repr(r.loo_predictive_prob), repr(r.loo_log_predictive_density),
         repr(r.loo_predictive_prob_se), repr(r.loo_log_predictive_density_se), repr(r.attempts))
        for r in report.per_observation
    ]
    summary = (report.loo_ic, report.loo_ic_se, report.n_failed, report.roc_points, report.prc_points,
               report.auroc, report.auprc)
    return per_obs, repr(summary)


@st.composite
def logistic_instances(draw):
    """A small logistic run (n <= 12, S <= 200) with draws of sd 1e-3 to 1e3; some
    repeat draw rows, so that ties fall at the Pareto cutoff, and some make one
    draw's weight zero through a singular Jacobian or a draw whose log prior
    overflows."""
    n, p = draw(st.integers(4, 12)), draw(st.integers(1, 4))
    num_draws = draw(st.integers(30, 200))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    features = rng.normal(size=(n, p))
    labels = rng.integers(0, 2, size=n)
    values = scale * rng.normal(size=(num_draws, p)) + rng.normal(size=p)
    repeats = draw(st.integers(0, num_draws // 2))
    if repeats:
        values[rng.choice(num_draws, repeats, replace=False)] = values[rng.integers(0, num_draws, size=repeats)]
    zero = draw(st.sampled_from(["none", "singular-jacobian", "overflowing-draw"]))
    if zero == "overflowing-draw":
        values[rng.integers(num_draws)] = 1e200
    kinds = draw(st.permutations(["PMM1", "PMM2", "KL", "Var", "LL"]))[: draw(st.integers(1, 5))]
    exponents = sorted({10, *draw(st.lists(st.integers(0, 9), max_size=3))})
    dataset = Dataset(features=features, labels=labels, feature_names=tuple(f"x{j}" for j in range(p)))
    draws = PosteriorDraws(values=values, param_names=tuple(f"b{j}" for j in range(p)))
    threshold = draw(st.sampled_from([0.7, 0.2, 0.05]))  # a low one scans more observations
    config = RunConfig(khat_threshold=threshold, transform_order=tuple(kinds), hbar_exponents=tuple(exponents))
    return LogisticModel(p=p), draws, dataset, GaussianPrior.isotropic(p, 1.0), config, zero, rng.integers(num_draws)


class TestCandidatePath:
    @given(instance=logistic_instances())
    @settings(deadline=None)  # examples and derandomization from the profile (conftest.py)
    def test_run_matches_every_row_evaluated(self, instance):
        """run_loo gives the same decisions, floats and final weights bit for bit
        when no attempt has bounds, so that every attempt evaluates every row."""
        model, draws, dataset, prior, config, zero, draw_index = instance
        logdet = transforms.GradientStep.logdet

        def singular_at_one_draw(step, log_h):
            values, flags = logdet(step, log_h)
            values = values.copy()
            values[draw_index] = -np.inf
            return values, tuple(dict.fromkeys(flags + ("singular-jacobian",)))

        seen = {"fewer rows": 0, "tie at the cutoff": 0}

        def recording(lower, upper):
            rows = candidate_rows(lower, upper)
            cutoff = np.sort(lower)[-tail_size(lower.size) - 1]
            seen["fewer rows"] += rows.size < lower.size
            seen["tie at the cutoff"] += np.isfinite(cutoff) and np.count_nonzero(lower == cutoff) > 1
            return rows

        # a draw near 1e200 overflows its log prior, which the run meets with RuntimeWarnings
        quiet = np.errstate(over="ignore", invalid="ignore") if zero == "overflowing-draw" else contextlib.nullcontext()
        with pytest.MonkeyPatch.context() as patch, quiet:
            if zero == "singular-jacobian":
                patch.setattr(transforms.GradientStep, "logdet", singular_at_one_draw)
            patch.setattr(transforms, "candidate_rows", recording)
            with_candidates = run_loo(model, draws, dataset, prior, config)
            patch.setattr(transforms, "log_weight_bounds", lambda *args: None)
            every_row = run_loo(model, draws, dataset, prior, config)
        for name, count in seen.items():
            event(f"{name}: {'some attempts' if count else 'no attempt'}")
        assert _fingerprint(with_candidates) == _fingerprint(every_row)
