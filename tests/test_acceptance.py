"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single `[acceptance] criterion NN ...: PASS/FAIL` line
(visible with `pytest -s` or in failure output) and enforces its runtime
budget. The expensive synthetic adaptation study is computed once and
shared by the two criteria that consume it.
"""

import contextlib
import csv
import json
import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize

from looadapt import (
    Dataset,
    GaussianPrior,
    LogisticModel,
    PosteriorDraws,
    ReluOneModel,
    RunConfig,
    grad_log_posterior,
    run_loo,
)
from looadapt.cli import main as cli_main
from looadapt.data import GRADIENT_KINDS
from looadapt.engine import LooProblem, adapt_observation, eta_weights
from looadapt.gpd import fit_gpd_tail
from looadapt.metrics import auroc, roc_curve
from looadapt.models import bernoulli_log_likelihood, sigmoid

from conftest import (
    attempt,
    dense_hessian,
    fd_divergence,
    gpd_inverse_cdf_sample,
    grad_log_lik,
    hessian_factors,
    log_post,
    logdet_at,
    make_grid_instance_2,
    make_logistic_toy,
    make_relu_toy,
    pair_count_auroc,
    pairwise_resolvent,
    q_at,
)
from oracle import (
    exact_loo_expectation,
    finite_difference_gradient,
    finite_difference_hessian,
    finite_difference_jacobian,
    loo_probabilities,
    sample_grid_posterior,
)


@contextlib.contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:02d} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < budget_seconds else "FAIL (over budget)"
    print(f"[acceptance] criterion {number:02d} ({name}): {status} [{elapsed:.2f}s / {budget_seconds:.0f}s]")
    assert elapsed < budget_seconds, f"runtime {elapsed:.2f}s exceeds {budget_seconds}s"


def test_criterion_01_identity_transform_equivalence():
    with criterion(1, "identity-transform equivalence", 1.0):
        for seed in range(20):
            model, dataset, prior, draws = make_logistic_toy(
                seed=1000 + seed, n=4, p=2, num_draws=30
            )
            i = seed % dataset.n
            problem = LooProblem.build(model, draws, dataset, prior, RunConfig())
            nu = eta_weights(problem.evaluation, problem.log_proposal, i)
            eta = eta_weights(problem.evaluation, problem.log_proposal, i, np.zeros(draws.num_draws))
            assert np.max(np.abs(eta.normalized - nu.normalized)) <= 1e-12


def test_criterion_02_derivative_oracles():
    with criterion(2, "derivative oracles", 5.0):
        checked = 0
        model, dataset, prior, draws = make_logistic_toy(seed=2101, n=8, p=10, num_draws=50)
        for k in range(50):
            theta = draws.values[k]
            i = k % dataset.n
            x, y = dataset.features[i], dataset.labels[i]
            np.testing.assert_allclose(
                model.grad_mu(theta, x),
                finite_difference_gradient(lambda t: model.mu(t, x), theta),
                rtol=1e-4, atol=1e-8,
            )
            np.testing.assert_allclose(
                grad_log_lik(model, theta, x, y),
                finite_difference_gradient(lambda t: bernoulli_log_likelihood(model.mu(t, x), y), theta),
                rtol=1e-4, atol=1e-8,
            )
            np.testing.assert_allclose(
                grad_log_posterior(model, theta, dataset, prior),
                finite_difference_gradient(lambda t: log_post(model, t, dataset, prior), theta),
                rtol=1e-4, atol=1e-8,
            )
            checked += 1
        rmodel, rdataset, rprior, rdraws = make_relu_toy(
            seed=2102, n=6, d=3, p=4, num_draws=50, kink_margin=2e-3
        )
        for k in range(50):
            theta = rdraws.values[k]
            i = k % rdataset.n
            x, y = rdataset.features[i], rdataset.labels[i]
            np.testing.assert_allclose(
                rmodel.grad_mu(theta, x),
                finite_difference_gradient(lambda t: rmodel.mu(t, x), theta),
                rtol=1e-4, atol=1e-8,
            )
            np.testing.assert_allclose(
                grad_log_lik(rmodel, theta, x, y),
                finite_difference_gradient(lambda t: bernoulli_log_likelihood(rmodel.mu(t, x), y), theta),
                rtol=1e-4, atol=1e-8,
            )
            np.testing.assert_allclose(
                grad_log_posterior(rmodel, theta, rdataset, rprior),
                finite_difference_gradient(lambda t: log_post(rmodel, t, rdataset, rprior), theta),
                rtol=1e-4, atol=1e-7,
            )
            checked += 1
        assert checked == 100


def test_criterion_03_relu_hessian_spectrum():
    with criterion(3, "ReLU Hessian spectrum", 5.0):
        # stated instance: one active unit with x = [3, 4] gives eigenvalues +-5
        model = ReluOneModel(d=1, p=2)
        theta = np.array([1.0, 1.0, 2.0, 0.0])
        lam, _, _ = hessian_factors(model, theta, [3.0, 4.0])
        np.testing.assert_array_equal(lam, 5.0)

        rmodel, rdataset, _, rdraws = make_relu_toy(seed=2303, n=5, d=2, p=2, num_draws=20)
        dim = rmodel.param_dim
        rng = np.random.default_rng(2303)
        for k in range(10):
            theta = rdraws.values[k]
            x = rdataset.features[k % rdataset.n]
            # the pair +-|x| on every active unit, eigenvalue 0 on the others
            lam, plus, minus = hessian_factors(rmodel, theta, x)
            active = rmodel.relu_forward(theta, x)[2]
            np.testing.assert_array_equal(lam[0], np.linalg.norm(x) * active)
            # unit eigenvectors on the active units
            diagonal = np.arange(dim) * (dim + 1)
            np.testing.assert_allclose(plus[diagonal].sum(axis=0), active, atol=1e-12)
            np.testing.assert_allclose(minus[diagonal].sum(axis=0), active, atol=1e-12)
            fd = finite_difference_hessian(lambda t: rmodel.mu(t, x), theta, step=1e-4)
            dense = dense_hessian(rmodel, theta, x)
            np.testing.assert_allclose(dense, fd, atol=1e-4)
            # an orthonormal eigenbasis inverts I + alpha H, the determinants' term
            u, v = rng.normal(size=(2, dim))
            solved = u @ np.linalg.solve(np.eye(dim) + 0.1 * dense, v)
            assert pairwise_resolvent(rmodel, theta, x, u, v, 0.1) == pytest.approx(solved, rel=1e-10)


def _determinant_cell(kind, model, dataset, prior, draws, i, hbar, fd_step_scale):
    """Check exact vs finite-difference log-determinants for one grid cell."""
    problem = LooProblem.build(model, draws, dataset, prior, RunConfig())
    stats = problem.stats
    _, out = attempt(problem, kind, i, hbar)
    assert not out.degenerate
    ref = problem.evaluation.log_ref

    def map_fn(theta):
        return theta + out.h_used * q_at(kind, model, theta, dataset, prior, i, log_ref=ref)

    checked = 0
    for k in range(draws.num_draws):
        if isinstance(model, ReluOneModel):
            margin = min(
                abs(model.relu_forward(draws.values[k], x)[1]).min() for x in dataset.features
            )
            if margin < 1e-3:
                continue
        jac = finite_difference_jacobian(map_fn, draws.values[k], fd_step_scale * stats.sd)
        fd_logdet = math.log(abs(np.linalg.det(jac)))
        if abs(fd_logdet) < 1e-3:
            continue  # below the finite-difference noise floor for rel. comparisons
        rel = abs(out.log_jac_det[k] - fd_logdet) / abs(fd_logdet)
        assert rel <= 1e-4, f"{kind} hbar={hbar} draw={k}: rel err {rel:.2e}"
        checked += 1
        if checked >= 5:
            break
    return checked


def test_criterion_04_exact_jacobian_determinants():
    with criterion(4, "exact Jacobian determinants", 30.0):
        lmodel, ldataset, lprior, ldraws = make_logistic_toy(seed=2401, n=6, p=4, num_draws=40)
        rmodel, rdataset, rprior, rdraws = make_relu_toy(seed=2402, n=5, d=2, p=3, num_draws=40)
        total = 0
        for kind in GRADIENT_KINDS:
            for hbar in (1.0, 0.25, 0.0625):
                total += _determinant_cell(kind, lmodel, ldataset, lprior, ldraws, 2, hbar, 1e-6)
                total += _determinant_cell(kind, rmodel, rdataset, rprior, rdraws, 1, hbar, 1e-7)
        assert total >= 3 * 3 * 2 * 3  # at least 3 draws per (kind, hbar, model) cell


def test_criterion_05_first_order_determinant_convergence():
    with criterion(5, "first-order determinant convergence", 5.0):
        model, dataset, prior, draws = make_logistic_toy(seed=2501, n=6, p=3, num_draws=30)
        theta = draws.values[3]
        i = 1
        ref = log_post(model, theta, dataset, prior)
        # div Q is the trace of the finite-difference Jacobian of the batched Q map.
        div = fd_divergence("KL", model, theta, dataset, prior, i, log_ref=ref)
        assert abs(div) > 0.05
        hs = np.array([1e-2, 1e-3, 1e-4])
        exact = np.array([logdet_at("KL", model, theta, dataset, prior, i, h, log_ref=ref) for h in hs])
        first = np.log(np.abs(1.0 + hs * div))
        # For a linear mean function the Jacobian of Q is rank one, so the
        # determinant-form first order IS exact: its remainder is bounded by
        # (in fact far below) C h^2.
        assert np.all(np.abs(first - exact) <= 10.0 * div**2 * hs**2)
        # The quadratic remainder of the O(h) truncation of the
        # log-determinant: |h div - log|1 + h div|| ~ (h div)^2 / 2.
        remainder = np.abs(hs * div - exact)
        assert np.all(remainder > 0)
        slope = np.polyfit(np.log(hs), np.log(remainder), 1)[0]
        assert abs(slope - 2.0) <= 0.2, f"log-log slope {slope:.3f}"


def test_criterion_06_gpd_estimator_calibration():
    with criterion(6, "GPD estimator calibration", 10.0):
        for k_true in (0.2, 0.5, 0.9):
            khats = []
            for rep in range(50):
                rng = np.random.default_rng(6000 + rep)
                sample = np.sort(gpd_inverse_cdf_sample(rng, k_true, 1.0, 4000))
                fit = fit_gpd_tail(sample)
                assert fit.fittable
                khats.append(fit.khat)
            assert abs(np.mean(khats) - k_true) <= 0.05, f"k={k_true}: mean {np.mean(khats):.4f}"


def test_criterion_07_oracle_loo_equivalence():
    with criterion(7, "oracle LOO equivalence", 60.0):
        model, dataset, prior, grid = make_grid_instance_2()
        rng = np.random.default_rng(7777)
        draws = PosteriorDraws(
            values=sample_grid_posterior(grid, 4000, rng), param_names=("b0", "b1")
        )
        report = run_loo(model, draws, dataset, prior, RunConfig())
        exact_ic = 0.0
        for result in report.per_observation:
            i = result.index

            def prob_fn(nodes, i=i):
                return sigmoid(model.mu_batch(nodes, dataset.features[i][None, :])[:, 0])

            def lik_fn(nodes, i=i):
                s = prob_fn(nodes)
                return s if dataset.labels[i] == 1 else 1.0 - s

            exact_prob = exact_loo_expectation(grid, model, dataset, i, prob_fn)
            se = max(result.loo_predictive_prob_se, 1e-12)
            assert abs(result.loo_predictive_prob - exact_prob) <= 3.0 * se, (
                f"obs {i}: |{result.loo_predictive_prob:.5f} - {exact_prob:.5f}| > 3 x {se:.2e}"
            )
            exact_ic += -2.0 * math.log(exact_loo_expectation(grid, model, dataset, i, lik_fn))
        assert abs(report.loo_ic - exact_ic) <= 3.0 * max(report.loo_ic_se, 1e-12)


@pytest.fixture(scope="module")
def adaptation_study():
    """Shared n=50, p=200 synthetic with a deliberately widened proposal.

    The proposal is a full-covariance Laplace approximation of the posterior
    inflated by 1.25: wide enough that most observations fail the raw tail
    diagnostic, close enough to the posterior that perturbative adaptation
    is meaningful (a far-field proposal defeats every perturbative method by
    construction).
    """
    rng = np.random.default_rng(20250809)
    n, p, num_draws = 50, 200, 2000
    features = rng.normal(size=(n, p))
    beta_true = np.zeros(p)
    beta_true[:5] = [2.0, -2.0, 1.5, -1.5, 1.0]
    labels = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-(features @ beta_true)))).astype(int)
    dataset = Dataset(
        features=features, labels=labels, feature_names=tuple(f"g{j}" for j in range(p))
    )
    model = LogisticModel(p=p)
    prior = GaussianPrior.isotropic(p, 0.3)

    opt = minimize(
        lambda t: -log_post(model, t, dataset, prior),
        np.zeros(p),
        jac=lambda t: -grad_log_posterior(model, t, dataset, prior),
        method="L-BFGS-B",
        options={"maxiter": 1000},
    )
    mu_map = features @ opt.x
    curvature = sigmoid(mu_map) * sigmoid(-mu_map)
    hessian = (features.T * curvature) @ features + np.eye(p) / prior.sd[0] ** 2
    chol = np.linalg.cholesky(np.linalg.inv(hessian))
    proposal_rng = np.random.default_rng(7)
    values = opt.x + 1.25 * (proposal_rng.standard_normal((num_draws, p)) @ chol.T)
    draws = PosteriorDraws(values=values, param_names=tuple(f"g{j}" for j in range(p)))

    config = RunConfig()  # hbar = 4^-r for r = 0..10, all five transforms
    problem = LooProblem.build(model, draws, dataset, prior, config)
    start = time.perf_counter()
    results = [adapt_observation(i, problem) for i in range(n)]
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_criterion_08_adaptation_effectiveness(adaptation_study):
    results, engine_elapsed = adaptation_study
    with criterion(8, "adaptation effectiveness", 600.0):
        assert engine_elapsed < 600.0
        n = len(results)
        flagged = [r for r in results if r.raw_khat > 0.7]
        assert len(flagged) >= 0.10 * n, f"only {len(flagged)}/{n} observations flagged"
        adapted = [r for r in flagged if r.adapted]
        rate = len(adapted) / len(flagged)
        print(
            f"[acceptance]   criterion 08 detail: {len(flagged)}/{n} flagged, "
            f"{len(adapted)} adapted ({100 * rate:.0f}%), engine {engine_elapsed:.1f}s"
        )
        assert rate >= 0.80, f"adaptation rate {rate:.2%} below 80%"


def test_criterion_09_step_size_bound(adaptation_study):
    results, _ = adaptation_study
    with criterion(9, "step-size bound", 5.0):
        checked = 0
        for result in results:
            for attempt in result.attempts:
                if attempt.kind not in GRADIENT_KINDS or attempt.degenerate:
                    continue
                assert attempt.max_step_sd <= attempt.hbar + 1e-9, (
                    f"obs {result.index} {attempt.kind} hbar={attempt.hbar}: "
                    f"displacement {attempt.max_step_sd}"
                )
                checked += 1
        assert checked > 0


def test_criterion_10_auroc_oracle():
    with criterion(10, "AUROC pair-count identity", 30.0):
        rng = np.random.default_rng(10_000)
        tested = 0
        while tested < 1000:
            n = int(rng.integers(2, 13))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                continue
            if rng.uniform() < 0.5:  # quantized scores force ties
                scores = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=n)
            else:
                scores = rng.uniform(size=n)
            area = auroc(roc_curve(scores, labels))
            expected = pair_count_auroc(scores, labels)
            assert abs(area - expected) <= 1e-12
            tested += 1


def test_criterion_11_bayes_update_round_trip():
    with criterion(11, "discrete Bayes-update round trip", 30.0):
        from scipy.special import logsumexp

        from looadapt.models import bernoulli_log_likelihood

        model, dataset, prior, grid = make_grid_instance_2()
        for i in range(dataset.n):
            loo_mass = loo_probabilities(grid, model, dataset, i)
            mu_i = model.mu_batch(grid.nodes, dataset.features[i][None, :])[:, 0]
            with np.errstate(divide="ignore"):
                log_back = np.log(loo_mass) + bernoulli_log_likelihood(mu_i, dataset.labels[i])
            back = np.exp(log_back - logsumexp(log_back))
            assert np.max(np.abs(back - grid.probabilities)) <= 1e-10


def test_criterion_12_report_determinism(tmp_path):
    with criterion(12, "report determinism", 60.0):
        model, dataset, prior, draws = make_logistic_toy(seed=2121, n=8, p=3, num_draws=60)
        data_path = tmp_path / "data.csv"
        with open(data_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(dataset.feature_names) + ["y"])
            for x, y in zip(dataset.features, dataset.labels):
                writer.writerow([repr(float(v)) for v in x] + [int(y)])
        draws_path = tmp_path / "draws.csv"
        with open(draws_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(draws.param_names))
            for row in draws.values:
                writer.writerow([repr(float(v)) for v in row])

        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["--data", str(data_path), "--draws", str(draws_path), "--model", "logistic"]
        code1 = cli_main(["run", *args, "--out", str(out1)])
        code2 = cli_main(["run", *args, "--out", str(out2)])
        assert code1 == code2 and code1 in (0, 3)

        def stripped_bytes(path):
            payload = json.loads(path.read_text(encoding="utf-8"))
            payload.pop("timings")
            return json.dumps(payload, sort_keys=True, indent=2).encode()

        assert stripped_bytes(out1) == stripped_bytes(out2)
