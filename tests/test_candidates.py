"""Candidate rows: an attempt evaluates the log posterior at phi only on the
draws whose log weight can reach the Pareto tail.

The bounds of :func:`~looadapt.transforms.log_weight_bounds` must hold every
draw's exact log weight, and the candidates must give the k-hat and the
smoothed weights of the whole vector. A run must not depend on them: forcing
every attempt to evaluate all rows leaves every report bit for bit.
"""

import contextlib
import dataclasses
import os
import warnings

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from looadapt import Dataset, GaussianPrior, LogisticModel, PosteriorDraws, ReluOneModel, RunConfig, run_loo
from looadapt import transforms
from looadapt.cli import _load_inputs, build_parser
from looadapt.engine import LooProblem, eta_weights
from looadapt.errors import LooAdaptError
from looadapt.gpd import pareto_smooth, tail_size
from looadapt.models import ReluLine, log_posterior
from looadapt.transforms import apply_transform, candidate_rows, log_weight_bounds, step_lines

from conftest import attempt_weights, raw_weights
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
        candidate weights smooth to the whole vector's k-hat and weights, which
        complete to the whole log posterior. The relu1 instance's lines flip
        pre-activations."""
        problem = _golden_problem(name)
        config, labels, proposal = problem.config, problem.dataset.labels, problem.log_proposal
        assert min(config.hbar_values) == 4.0**-10
        needed = tail_size(problem.draws.num_draws) + 1
        checked, smallest, flipped = 0, 0, 0
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
                    lower, upper = log_weight_bounds(line, hbar, problem, out.log_jac_det - out.log_lik_i, log_prior)
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
                    np.testing.assert_array_equal(out.complete_log_post(), log_post)
                    checked += 1
                    smallest += hbar == 4.0**-10
                    flipped += name == "relu1" and line.mu.flips.cell.size > 0
        assert checked > 0 and smallest > 0
        assert flipped > 0 or name == "logistic"

    def test_a_move_past_the_bounds_evaluates_every_row(self):
        """A line sum that is not finite at every draw, here an overflowing tangent,
        leaves every draw unbounded, for either model, with no RuntimeWarning: every
        row is a candidate, and the attempt's log posterior is its completion."""
        for name in ("logistic", "relu1"):
            problem = _golden_problem(name)
            raw, _ = pareto_smooth(raw_weights(problem, 0))
            line = next(step_lines(0, problem, raw))
            broken = _with_infinite_tangent(line, slice(None))
            out = apply_transform(line, 1.0, problem)
            exact, log_prior = out.log_jac_det - out.log_lik_i, _line_log_prior(line, 1.0, problem)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                lower, upper = log_weight_bounds(broken, 1.0, problem, exact, log_prior)
            assert np.all(lower == -np.inf) and np.all(upper == np.inf)
            every_row = apply_transform(broken, 1.0, problem)
            np.testing.assert_array_equal(every_row.candidate_log_post, out.complete_log_post())
            np.testing.assert_array_equal(every_row.complete_log_post(), out.complete_log_post())

    @pytest.mark.parametrize("name", ["logistic", "relu1"])
    @pytest.mark.parametrize("broken_at", ["tangent", "prior"])
    def test_one_unbounded_draw_is_a_candidate(self, name, broken_at):
        """One draw that is not a candidate loses its bound: its tangent overflows to
        +inf, or the log prior along the line is NaN there, as an overflowing log prior
        less an overflowing slope gives. That draw alone is unbounded, (-inf, +inf):
        every other draw keeps its finite bounds, which hold its exact log weight, and
        the draw joins the candidates. The attempt is that of every row evaluated: the
        same k-hat and completed log posterior, or, where the log posterior at phi is
        NaN, ``nan-log-posterior``."""
        problem = _golden_problem(name)
        labels, proposal = problem.dataset.labels, problem.log_proposal
        raw, _ = pareto_smooth(raw_weights(problem, 0))
        line = next(step_lines(0, problem, raw))
        out = apply_transform(line, 1.0, problem)
        exact = out.log_jac_det - out.log_lik_i
        lower, upper = log_weight_bounds(line, 1.0, problem, exact, _line_log_prior(line, 1.0, problem))
        draw = np.setdiff1d(np.arange(lower.size), candidate_rows(lower, upper))[0]
        if broken_at == "tangent":
            broken = _with_infinite_tangent(line, draw)
        else:
            slope = line.prior_slope.copy()
            slope[draw] = np.nan
            broken = dataclasses.replace(line, prior_slope=slope)
        log_prior = _line_log_prior(broken, 1.0, problem)
        broken_lower, broken_upper = log_weight_bounds(broken, 1.0, problem, exact, log_prior)
        assert (broken_lower[draw], broken_upper[draw]) == (-np.inf, np.inf)
        others = np.arange(lower.size) != draw
        log_post = log_posterior(line.mu.at(1.0), labels, log_prior)[1]
        whole = eta_weights(out.log_lik_i, log_post, proposal, out.log_jac_det)
        for bound, kept in ((broken_lower, lower), (broken_upper, upper)):
            assert np.all(np.isfinite(bound[others]))
            np.testing.assert_array_equal(bound[others], kept[others])
        held = whole.log_weights[others]
        assert np.all((broken_lower[others] <= held) & (held <= broken_upper[others]))
        assert draw in candidate_rows(broken_lower, broken_upper)
        broken_out = apply_transform(broken, 1.0, problem)
        if broken_at == "prior":
            assert np.isnan(log_post[draw])
            assert broken_out.degenerate and "nan-log-posterior" in broken_out.flags
            return
        assert broken_out.candidate_log_post[draw] == log_post[draw]
        assert repr(pareto_smooth(attempt_weights(problem, broken_out))[1]) == repr(pareto_smooth(whole)[1])
        np.testing.assert_array_equal(broken_out.complete_log_post(), log_post)


def _with_infinite_tangent(line, draws):
    """``line`` with its move's tangent +inf at ``draws``: the logistic slope, or R1 of the relu1 fan."""
    if isinstance(line.mu, ReluLine):
        r1, *sums = line.mu.fan.sums
        r1 = r1.copy()
        r1[draws] = np.inf
        fan = dataclasses.replace(line.mu.fan, sums=(r1, *sums))
        return dataclasses.replace(line, mu=dataclasses.replace(line.mu, fan=fan))
    slope = line.mu.slope.copy()
    slope[draws] = np.inf
    return dataclasses.replace(line, mu=dataclasses.replace(line.mu, slope=slope))


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


def _outcome(*inputs):
    """The fingerprint of run_loo's report, or the package error it raises."""
    try:
        return _fingerprint(run_loo(*inputs))
    except LooAdaptError as error:
        return repr(error)


@st.composite
def instances(draw):
    """A small logistic or relu1 run (n <= 12, S <= 200, relu1 with d <= 3) with draws
    of sd 1e-3 to 1e3; some repeat draw rows, so that ties fall at the Pareto cutoff,
    and some make one draw's weight zero through a singular Jacobian or a draw whose log
    prior overflows. A relu1 run may have features near 1e150, where its gradient fans'
    c2 overflows: those attempts have unbounded draws and are ``nan-log-posterior``."""
    relu1 = draw(st.booleans())
    n, p = draw(st.integers(4, 12)), draw(st.integers(1, 4))
    model = ReluOneModel(d=draw(st.integers(1, 3)), p=p) if relu1 else LogisticModel(p=p)
    num_draws = draw(st.integers(30, 200))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    features = rng.normal(size=(n, p))
    labels = rng.integers(0, 2, size=n)
    values = scale * rng.normal(size=(num_draws, model.param_dim)) + rng.normal(size=model.param_dim)
    repeats = draw(st.integers(0, num_draws // 2))
    if repeats:
        values[rng.choice(num_draws, repeats, replace=False)] = values[rng.integers(0, num_draws, size=repeats)]
    zero = draw(st.sampled_from(["none", "singular-jacobian", "overflowing-draw"]
                                + ["overflowing-c2"] * relu1))
    if zero == "overflowing-draw":
        values[rng.integers(num_draws)] = 1e200
    if zero == "overflowing-c2":
        features *= 1e150
    kinds = draw(st.permutations(["PMM1", "PMM2", "KL", "Var", "LL"]))[: draw(st.integers(1, 5))]
    exponents = sorted({10, *draw(st.lists(st.integers(0, 9), max_size=3))})
    dataset = Dataset(features=features, labels=labels, feature_names=tuple(f"x{j}" for j in range(p)))
    draws = PosteriorDraws(values=values, param_names=tuple(f"b{j}" for j in range(model.param_dim)))
    threshold = draw(st.sampled_from([0.7, 0.2, 0.05]))  # a low one scans more observations
    config = RunConfig(khat_threshold=threshold, transform_order=tuple(kinds), hbar_exponents=tuple(exponents))
    prior = GaussianPrior.isotropic(model.param_dim, 1.0)
    return model, draws, dataset, prior, config, zero, rng.integers(num_draws)


def _overflowing_c2_instance():
    """relu1 with features near 1e150, the instance of ``TestDegenerateInputs``'s
    overflowing-line test: every gradient attempt has unbounded draws and is
    ``nan-log-posterior``."""
    rng = np.random.default_rng(1)
    dataset = Dataset(features=rng.normal(size=(8, 3)) * 1e150, labels=[0, 1] * 4, feature_names=("x0", "x1", "x2"))
    draws = PosteriorDraws(values=rng.normal(size=(200, 9)), param_names=tuple(f"t{j}" for j in range(9)))
    return ReluOneModel(d=2, p=3), draws, dataset, GaussianPrior.isotropic(9, 1.0), RunConfig(), "overflowing-c2", 0


class TestCandidatePath:
    @given(instance=instances())
    @example(instance=_overflowing_c2_instance())
    @settings(deadline=None)  # examples and derandomization from the profile (conftest.py)
    def test_run_matches_every_row_evaluated(self, instance):
        """run_loo gives the same decisions, floats and final weights bit for bit
        when every draw of every attempt is unbounded, (-inf, +inf), so that every
        attempt evaluates every row, or the same package error."""
        model, draws, dataset, prior, config, zero, draw_index = instance
        logdet = transforms.GradientStep.logdet

        def singular_at_one_draw(step, log_h):
            values, flags = logdet(step, log_h)
            values = values.copy()
            values[draw_index] = -np.inf
            return values, tuple(dict.fromkeys(flags + ("singular-jacobian",)))

        seen = {"fewer rows": 0, "tie at the cutoff": 0, "relu1 flips": 0, "unbounded draw": 0}
        bounds = transforms.log_weight_bounds

        def bounding(line, hbar, problem, exact, log_prior):
            lower, upper = bounds(line, hbar, problem, exact, log_prior)
            seen["relu1 flips"] += isinstance(line.mu, ReluLine) and line.mu.flips.cell.size > 0
            seen["unbounded draw"] += np.any(upper == np.inf)
            return lower, upper

        def unbounded(line, hbar, problem, exact, log_prior):
            return np.full(exact.size, -np.inf), np.full(exact.size, np.inf)

        def recording(lower, upper):
            rows = candidate_rows(lower, upper)
            cutoff = np.sort(lower)[-tail_size(lower.size) - 1]
            seen["fewer rows"] += rows.size < lower.size
            seen["tie at the cutoff"] += np.isfinite(cutoff) and np.count_nonzero(lower == cutoff) > 1
            return rows

        # a draw near 1e200 overflows its log prior, and features near 1e150 a relu1 fan's c2, which the
        # run meets with RuntimeWarnings
        overflowing = zero in ("overflowing-draw", "overflowing-c2")
        quiet = np.errstate(over="ignore", invalid="ignore") if overflowing else contextlib.nullcontext()
        with pytest.MonkeyPatch.context() as patch, quiet:
            if zero == "singular-jacobian":
                patch.setattr(transforms.GradientStep, "logdet", singular_at_one_draw)
            patch.setattr(transforms, "candidate_rows", recording)
            patch.setattr(transforms, "log_weight_bounds", bounding)
            with_candidates = _outcome(model, draws, dataset, prior, config)
            patch.setattr(transforms, "log_weight_bounds", unbounded)
            every_row = _outcome(model, draws, dataset, prior, config)
        event(f"model: {type(model).__name__}")
        event(f"outcome: {'package error' if isinstance(every_row, str) else 'report'}")
        event(f"nan-log-posterior: {'some attempts' if 'nan-log-posterior' in str(every_row) else 'no attempt'}")
        for name, count in seen.items():
            event(f"{name}: {'some attempts' if count else 'no attempt'}")
        assert with_candidates == every_row
