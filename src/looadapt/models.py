"""Sigmoidal classifier models and their derivative structure.

A model keeps its flattened parameter layout, which only this module knows
(relu1 reads it in one place), and builds over a draw matrix the origin
line: mu(theta, x), behind the outcome probability sigma(mu), at the draws,
with every derivative of mu a run reads. The line sums grad_mu over the
observations with weights and, at one observation, gives grad_mu and the
Hessian of mu between two vector sets, which the gradient-step Jacobians
consume. Per draw its nonzero eigenvalues are +-lam, repeated: none for a
linear (logistic regression) mean, +-|x| once per active unit of a
one-hidden-layer ReLU network. Its lines give mu along theta + hbar * D
without forming the moved draws; relu1's are piecewise quadratic in hbar,
and relu1 reads every derivative and line from the run's one W1 x pass.
Every line, of either model, gives the same three members, all that a scan
reads: mu on any rows, the held-out column, and a :class:`MoveBound` on the
move of mu, from which the log weights are bounded for every model alike.
The two families also keep a single-draw mu and grad_mu, the reference
behind :func:`grad_log_posterior`. :func:`evaluate_posterior` is a run's one
set-up of its posterior: it checks the inputs against the model, builds the
origin line and holds it. :func:`log_posterior` turns mu at any draw set, the
draws or an attempt's moved draws, into log likelihood and log posterior.
No run calls the generator references :func:`sigmoid` and
:func:`bernoulli_log_likelihood`; they stay bit-for-bit because
``perfbench/generate.py`` builds both benchmark instances with them. A run's
sigma is the numpy :func:`logistic`.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .data import Dataset
from .errors import DimensionError, DomainError


def logistic(mu):
    """Logistic function 1 / (1 + exp(-mu)): exactly 0 and 1 at the extremes, NaN through."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(mu, dtype=float)))


def sigmoid(mu):
    """scipy's expit, the generator reference beside :func:`bernoulli_log_likelihood`.
    No run calls it; it imports scipy when called."""
    from scipy.special import expit

    return expit(mu)


def sigmoid_slope(mu):
    """sigma(mu) * (1 - sigma(mu)) computed as sigma(mu) * sigma(-mu).

    The product form stays positive far beyond the point where
    1 - sigma(mu) would round to zero.
    """
    mu = np.asarray(mu, dtype=float)
    return logistic(mu) * logistic(-mu)


def bernoulli_log_likelihood(mu, y):
    """log [ sigma(mu)^y (1 - sigma(mu))^(1-y) ]  =  log sigma((2y - 1) mu), the libm
    reference for :func:`log_posterior`. No run calls it; it stays
    bit-for-bit because ``perfbench/generate.py`` builds both benchmark instances with it."""
    sign = 2.0 * np.asarray(y, dtype=float) - 1.0
    return -np.logaddexp(0.0, -(sign * np.asarray(mu, dtype=float)))


@dataclass(frozen=True)
class GaussianPrior:
    """Independent zero-mean Gaussian prior with per-parameter scales."""

    sd: np.ndarray

    def __post_init__(self):
        sd = np.array(self.sd, dtype=float)
        if sd.ndim != 1 or sd.size < 1:
            raise DimensionError("prior sd must be a 1-d vector")
        if not np.all(np.isfinite(sd)) or np.any(sd <= 0):
            raise DomainError("prior sds must be finite and positive")
        sd.flags.writeable = False
        object.__setattr__(self, "sd", sd)

    @classmethod
    def isotropic(cls, param_dim: int, sd: float) -> "GaussianPrior":
        return cls(sd=np.full(param_dim, float(sd)))

    @property
    def param_dim(self) -> int:
        return self.sd.size

    def log_density(self, theta) -> float:
        return float(self.log_density_batch(np.asarray(theta, dtype=float)[None, :])[0])

    def log_density_batch(self, values) -> np.ndarray:
        z = values / self.sd
        const = -0.5 * values.shape[1] * math.log(2.0 * math.pi) - np.log(self.sd).sum()
        return const - 0.5 * np.sum(z**2, axis=1)

    def grad_batch(self, values) -> np.ndarray:
        return -values / self.sd**2

    def line_coefficients(self, values, step):
        """(theta . D / sd^2, |D / sd|^2) per draw for the line theta + hbar * D.

        ``step`` is D, shaped (P,) or (S, P). Along the line the log density
        is quadratic in hbar: log_density_batch(theta + hbar * D) =
        log_density_batch(theta) - hbar * slope - hbar^2 / 2 * curvature.
        A shared D costs one matvec; a per-draw D two row dot products, with
        no (S, P) temporary.
        """
        if np.ndim(step) == 1:
            scaled = step / self.sd**2
            return values @ scaled, float(step @ scaled)
        precision = self.sd**-2.0
        return np.einsum("sp,sp,p->s", values, step, precision), np.einsum("sp,sp,p->s", step, step, precision)


class SigmoidalModel(abc.ABC):
    """Evaluator bundle for a classifier with outcome probability sigma(mu); a run calls these three members."""

    @property
    @abc.abstractmethod
    def param_dim(self) -> int:
        """Length P of a flattened parameter vector."""

    @property
    @abc.abstractmethod
    def num_features(self) -> int:
        """Length p of a feature vector."""

    @abc.abstractmethod
    def mu_line(self, values, features):
        """mu at the draws as the origin of lines theta + hbar * D, with every derivative of mu there.

        ``mu`` (S, n) is mu at every (draw, observation) pair, ``weighted_grad_mu(w)`` (S, P) sum_n w_sn
        grad_mu(theta_s, x_n), ``grad_mu(i)`` grad_mu at observation i for every draw, (S, P), and
        ``hessian_projection(i, v, w)`` the Hessian of mu there between ``v`` and ``w``, (S, P): per draw
        ``(lam, count, plus, minus)``, its nonzero eigenvalues +-lam, each count times (0 for a mean linear
        in theta), and v^T P+- w, P+- the projectors onto their eigenspaces. ``along(D, resid)`` fixes a
        step, and ``gradient_fan(i, bound, resid)`` the lines along D_s = coef_s * grad_mu(i)_s for every
        coef between 0 and ``bound`` per draw; the fan's ``line(coef)`` fixes one. ``resid`` is
        y - sigma(mu) at the draws. A line's ``at(hbar, rows)`` is mu at theta + hbar * D, 0 <= hbar <= 1,
        on the given rows of the draws, without forming the moved draws, ``column(hbar, i)`` its column i
        at every draw, each bit for bit as in ``at(hbar)``, and ``move_bound(hbar)`` a :class:`MoveBound`.
        """


@dataclass(frozen=True)
class LogisticModel(SigmoidalModel):
    """Linear mean function mu = x . beta; the Hessian of mu vanishes, so every projection of it is 0."""

    p: int

    def __post_init__(self):
        if self.p < 1:
            raise DomainError("logistic model needs at least one feature")

    @property
    def param_dim(self) -> int:
        return self.p

    @property
    def num_features(self) -> int:
        return self.p

    def mu(self, theta, x) -> float:
        return float(np.dot(np.asarray(x, dtype=float), np.asarray(theta, dtype=float)))

    def grad_mu(self, theta, x) -> np.ndarray:
        return np.array(x, dtype=float)

    def mu_batch(self, values, features) -> np.ndarray:
        return values @ np.asarray(features, dtype=float).T

    def mu_line(self, values, features) -> "LinearMuLine":
        return LinearMuLine(mu=self.mu_batch(values, features), features=np.asarray(features, dtype=float))


#: Draws per block in relu1's O(S d n) passes over z1: mu in :meth:`ReluOneModel.mu_line`,
#: :meth:`ReluMuLine.weighted_grad_mu` and :meth:`ReluFan.build`, the pass of a line or
#: of an observation's gradient lines. With d = 8 and n = 100 a block's (draws, d, n)
#: temporaries are 400 KB each and stay in cache.
LINE_BLOCK_DRAWS = 64


def _draw_blocks(num_draws: int) -> list[slice]:
    """Consecutive blocks of ``LINE_BLOCK_DRAWS`` draws covering all ``num_draws``."""
    return [slice(start, start + LINE_BLOCK_DRAWS) for start in range(0, num_draws, LINE_BLOCK_DRAWS)]


@dataclass(frozen=True)
class ReluOneModel(SigmoidalModel):
    """One-hidden-layer ReLU network: mu = W2 . relu(W1 x) + b2.

    Flattened parameter order is row-major W1, then W2, then b2, so that
    draws files interoperate across implementations. The first-layer bias is
    expected to be absorbed into a constant-1 feature column. The ReLU
    derivative at the kink is taken as 0, matching the activity mask z > 0.
    """

    d: int
    p: int

    def __post_init__(self):
        if self.d < 1 or self.p < 1:
            raise DomainError("relu1 model needs d >= 1 hidden units and p >= 1 features")

    @property
    def param_dim(self) -> int:
        return self.d * self.p + self.d + 1

    @property
    def num_features(self) -> int:
        return self.p

    def _split_batch(self, values):
        """Views of W1 (..., d, p), W2 (..., d) and b2 (...) in parameter
        vectors shaped (P,) or (S, P); the one reader of the flattened layout."""
        d, p = self.d, self.p
        w1 = values[..., : d * p].reshape(values.shape[:-1] + (d, p))
        return w1, values[..., d * p : d * p + d], values[..., -1]

    def relu_forward(self, theta, x) -> tuple[float, np.ndarray, np.ndarray]:
        """Forward pass returning (mu, pre-activations z1, activity mask)."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.param_dim,):
            raise DimensionError(f"expected parameter vector of length {self.param_dim}")
        w1, w2, b2 = self._split_batch(theta)
        z1 = w1 @ np.asarray(x, dtype=float)
        mask = (z1 > 0).astype(float)
        return float(w2 @ (z1 * mask) + b2), z1, mask

    def mu(self, theta, x) -> float:
        return self.relu_forward(theta, x)[0]

    def grad_mu(self, theta, x) -> np.ndarray:
        """Closed-form gradient in flattened order.

        d mu / d W1[k, j] = W2[k] * 1[z1_k > 0] * x_j
        d mu / d W2[k]    = relu(z1_k)
        d mu / d b2       = 1
        """
        theta = np.asarray(theta, dtype=float)
        _, z1, mask = self.relu_forward(theta, x)
        grad = np.ones(self.param_dim)
        g1, g2, _ = self._split_batch(grad)
        g1[:] = (self._split_batch(theta)[1] * mask)[:, None] * np.asarray(x, dtype=float)
        g2[:] = z1 * mask
        return grad

    def mu_batch(self, values, features) -> np.ndarray:
        return self.mu_line(values, features).mu

    def mu_line(self, values, features) -> "ReluMuLine":
        """The one pass of W1 x over all draws: z1, stored read-only, and mu read from it in blocks."""
        features = np.asarray(features, dtype=float)
        w1, w2, b2 = self._split_batch(values)
        mu = np.empty((values.shape[0], features.shape[0]))
        line = ReluMuLine(model=self, z1=np.einsum("sdp,np->sdn", w1, features), w2=w2, mu=mu, features=features)
        line.z1.flags.writeable = False
        for block, z1 in line._blocks():
            mu[block] = np.einsum("snd,sd->sn", np.maximum(z1, 0.0, out=z1), w2[block])
        mu += b2[:, None]
        return line


class MoveBound(NamedTuple):
    """A line's move at one step scale, per draw: what bounds its log likelihood there.

    With dmu = mu(theta + hbar * D) - mu as the line's ``at`` rounds it, ``tangent`` is
    sum_n resid dmu (resid = y - sigma(mu) at the draws) and ``curvature`` an upper bound
    on sum_n dmu^2. ``size`` bounds sum_n |dmu| and the line's rounding: that of ``at``,
    summed over the row, of ``tangent`` and of ``curvature`` / 8 is at most 2 u (n + 16)
    (sum_n |mu| + ``size``), u = eps / 2, a quarter of the allowance of
    :func:`~looadapt.transforms.log_weight_bounds`. A finite size needs every value that
    ``at`` adds finite. A bound that overflows is inf or NaN at its draw, which is then a
    candidate.
    """

    tangent: np.ndarray
    curvature: np.ndarray
    size: np.ndarray


@dataclass(frozen=True)
class LinearMuLine:
    """mu(theta + hbar * D) = mu + hbar * dmu for a mean linear in theta.

    ``dmu`` = D X^T broadcasts to (S, n); it is 0 at the origin that
    :meth:`LogisticModel.mu_line` builds, and X x, the direction of every
    gradient line at x, on a :meth:`gradient_fan`. ``slope`` and
    ``curvature`` are sum_n resid dmu and sum_n dmu^2 per draw (the second
    one number when dmu is one shared row): a step scale's :class:`MoveBound`
    is hbar and hbar^2 times them, with size hbar sqrt(n curvature) >= hbar
    sum_n |dmu|. That covers the rounding of mu + hbar dmu, u (|mu| + 2 hbar
    |dmu|) per element, and of the dots, n u times the sums of |resid dmu| and
    dmu^2.
    """

    mu: np.ndarray        # (S, n) at the draws
    features: np.ndarray  # (n, p)
    dmu: np.ndarray | float = 0.0
    slope: np.ndarray | float = 0.0
    curvature: np.ndarray | float = 0.0

    def _moving(self, dmu, resid) -> "LinearMuLine":
        """The line with move ``dmu`` and its dots with ``resid``. A dot that overflows is inf or NaN."""
        with np.errstate(over="ignore", invalid="ignore"):
            if np.ndim(dmu) == 1:
                return replace(self, dmu=dmu, slope=resid @ dmu, curvature=float(dmu @ dmu))
            return replace(self, dmu=dmu, slope=np.einsum("sn,sn->s", resid, dmu),
                           curvature=np.einsum("sn,sn->s", dmu, dmu))

    def along(self, step, resid) -> "LinearMuLine":
        """The line with step D, (P,) or (S, P), bounded with the residuals ``resid`` at the draws."""
        return self._moving(step @ self.features.T, resid)

    def weighted_grad_mu(self, weights) -> np.ndarray:
        return np.asarray(weights, dtype=float) @ self.features

    def grad_mu(self, i) -> np.ndarray:
        """x_i at every draw, as a read-only (S, P) view of x_i."""
        return np.broadcast_to(self.features[i], (self.mu.shape[0], self.features.shape[1]))

    def hessian_projection(self, i, v, w):
        return 0.0, 0, 0.0, 0.0

    def gradient_fan(self, i, bound, resid) -> "LinearMuLine":
        """The lines along D_s = coef_s * grad_mu(theta_s, x_i) = coef_s * x_i, for any coef."""
        return self._moving(self.features @ self.features[i], resid)

    def line(self, coef) -> "LinearMuLine":
        """The fan's line with per-draw coefficient coef: dmu is rank one, and its dots coef and coef^2 times the fan's."""
        with np.errstate(over="ignore", invalid="ignore"):
            slope, curvature = coef * self.slope, coef * coef * self.curvature
        return replace(self, dmu=coef[:, None] * self.dmu, slope=slope, curvature=curvature)

    def at(self, hbar, rows=slice(None)) -> np.ndarray:
        """mu at theta + hbar * D on ``rows`` of the draws, each row as it is in the whole."""
        return self.mu[rows] + hbar * (self.dmu if np.ndim(self.dmu) < 2 else self.dmu[rows])

    def column(self, hbar, i) -> np.ndarray:
        """mu at theta + hbar * D at observation i, for every draw: column i of :meth:`at`."""
        return self.mu[:, i] + hbar * self.dmu[..., i]

    def move_bound(self, hbar) -> MoveBound:
        return MoveBound(hbar * self.slope, (hbar * hbar) * self.curvature,
                         hbar * np.sqrt(self.mu.shape[1] * self.curvature))


@dataclass(frozen=True)
class ReluMuLine:
    """mu at the draws of the one-hidden-layer network, as the origin of lines.

    Holds the run's one copy of the first-layer pre-activations z1, read-only
    and stored d-major, (S, d, n), so that every elementwise pass runs over the
    long observation axis; mu and the weighted gradient read it in blocks,
    grad_mu, the Hessian and the gradient fan at observation i its z1[:, :, i].
    :meth:`along` and :meth:`gradient_fan` build the lines; a step scale of
    one costs O(S n + flips) (see :class:`ReluFan`).
    """

    model: ReluOneModel
    z1: np.ndarray        # (S, d, n) at the draws
    w2: np.ndarray        # (S, d)
    mu: np.ndarray        # (S, n) at the draws
    features: np.ndarray  # (n, p)

    def _blocks(self):
        """Each block of ``LINE_BLOCK_DRAWS`` draws, with its z1 as a fresh (draws, n, d) copy to write into."""
        for block in _draw_blocks(self.z1.shape[0]):
            yield block, self.z1[block].transpose(0, 2, 1).copy()

    def weighted_grad_mu(self, weights) -> np.ndarray:
        """One contraction over the observations per block: the first-layer block is
        sum_n weights_sn W2_k 1[z1_snk > 0] x_n, the second sum_n weights_sn relu(z1_snk)."""
        weights = np.asarray(weights, dtype=float)
        grad = np.empty((self.z1.shape[0], self.model.param_dim))
        g1, g2, gb = self.model._split_batch(grad)
        for block, z1 in self._blocks():
            active = weights[block, :, None] * (z1 > 0)
            g2[block] = np.einsum("snd,snd->sd", active, z1)
            active *= self.w2[block, None, :]
            g1[block] = np.einsum("snd,np->sdp", active, self.features)
        gb[:] = np.sum(weights, axis=1)
        return grad

    def along(self, step, resid) -> "ReluLine":
        """The line with step D, (P,) or (S, P), bounded with the residuals ``resid``; dz is one dense contraction."""
        dw1, dw2, db2 = self.model._split_batch(step)
        dz = np.einsum("...dp,np->...dn", dw1, self.features)
        unit = np.ones(self.z1.shape[0])
        return ReluFan.build(self, dz, 1.0, dw2, np.asarray(db2)[..., None], unit, resid).line(unit)

    def _at(self, i):
        """z1 at observation i, (S, d), and its activity z1 > 0, which fixes grad_mu and the Hessian there."""
        z = self.z1[:, :, i]
        return z, z > 0

    def grad_mu(self, i) -> np.ndarray:
        """grad_mu at observation i for every draw, (S, P): W2_k 1[z1_k > 0] x_i on W1 row k, relu(z1_k) on W2_k."""
        z, active = self._at(i)
        grad = np.empty((z.shape[0], self.model.param_dim))
        g1, g2, gb = self.model._split_batch(grad)
        np.multiply((self.w2 * active)[:, :, None], self.features[i], out=g1)
        np.multiply(z, active, out=g2)
        gb[:] = 1.0
        return grad

    def hessian_projection(self, i, v, w):
        """Each active unit k has the pair +-|x_i|, unit eigenvectors (x_i / |x_i| on W1 row k, +-1 on W2_k) / sqrt(2),
        so v^T P+- w = 1/2 sum_k active_k (a^v_k +- b^v_k)(a^w_k +- b^w_k), a_k = x_i . (W1 row k) / |x_i|, b_k = W2_k.
        lam is 0 on a draw with no active unit (as at x_i = 0); an overflow is inf or NaN, which logdet flags."""
        x = self.features[i]
        active = self._at(i)[1]
        count = np.count_nonzero(active, axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            norm = float(np.linalg.norm(x))
            (v1, v2, _), (w1, w2, _) = self.model._split_batch(v), self.model._split_batch(w)
            av, aw = (np.einsum("sdp,p->sd", u1, x) / norm if norm > 0 else 0.0 for u1 in (v1, w1))
            plus = 0.5 * np.einsum("sd,sd->s", (av + v2) * active, aw + w2)
            minus = 0.5 * np.einsum("sd,sd->s", (av - v2) * active, aw - w2)
        return np.where(count > 0, norm, 0.0), count, plus, minus

    def gradient_fan(self, i, bound, resid) -> "ReluFan":
        """The lines along D_s = coef_s * grad_mu(i)_s, for coef_s between 0 and bound_s: dz_skn =
        coef_s W2_sk 1[z1_ski > 0] (x_i . x_n), dw2 = coef * relu(z1_ski) and db2 = coef."""
        z, active = self._at(i)
        g = self.features @ self.features[i]
        return ReluFan.build(self, (self.w2 * active)[:, :, None], g, z * active, 1.0, bound, resid)


class _Elements(NamedTuple):
    """Elements (s, k, n) of the pre-activations, with what a line reads of them."""

    cell: np.ndarray  # s * n + j, the flat index of (s, j) in mu
    z1: np.ndarray
    a: np.ndarray     # dz = a * g
    g: np.ndarray
    w2: np.ndarray
    dw2: np.ndarray


@dataclass(frozen=True)
class ReluFan:
    """The lines theta + hbar * coef_s * D from a :class:`ReluMuLine`, for
    every per-draw coef between 0 and ``bound`` (sign included).

    D moves the pre-activations by dz = a * g, kept factored: a is (S, d, 1)
    with g the (n,) vector X x for a gradient step, or (S, d, n) or (d, n)
    with g = 1 for a dense or shared one. It moves the output weights by dw2
    and the bias by db2. With m0 = 1[z1 > 0] the activity at the draws,
    mu(theta + t D) = mu + t c1 + t^2 c2, where

        c1 = sum_k m0 (dw2 z1 + w2 dz) + db2,    c2 = sum_k m0 dw2 dz,

    holds exactly while no element changes activity; an element that does
    adds (turns on) or subtracts (turns off) its term (w2 + t dw2)(z1 + t dz).
    Each element's rounded pre-activation (t a) g + z1 is monotone in t, so
    every element that changes activity on a line of the fan, at
    0 <= hbar <= 1, has changed it by t = bound. ``candidates`` are those
    elements (s, k, n), gathered once, with a and dw2 per unit coef. ``sums``
    are the (S,) sums over the observations R1 = resid . c1, R2 = resid . c2,
    Q11 = c1 . c1, Q12 = c1 . c2 and Q22 = c2 . c2, with ``resid`` the
    residuals at the draws, that bound every line's move (see
    :class:`ReluLine`). The fan holds its ``origin``, whose mu and hidden
    units its lines read.
    c1, c2, the sums and the candidates cost one O(S d n) pass, a line
    O(candidates), and a step scale O(S + flips) for the bound and the held-out
    column and O(n) per row, where flips are the candidates that change
    activity on its line by hbar = 1.
    """

    origin: ReluMuLine
    bound: np.ndarray       # (S,)
    c1: np.ndarray          # (S, n)
    c2: np.ndarray          # (S, n)
    candidates: _Elements
    resid: np.ndarray       # (S, n)
    sums: tuple             # (R1, R2, Q11, Q12, Q22), (S,) each

    @classmethod
    def build(cls, origin: ReluMuLine, a, g, dw2, db2, bound, resid) -> "ReluFan":
        """c1, c2, their sums and the candidates in one pass over blocks of ``LINE_BLOCK_DRAWS`` draws."""
        z1, w2 = origin.z1, origin.w2
        num_draws, d, n = z1.shape
        a = np.broadcast_to(a, (num_draws,) + np.shape(a)[-2:])
        dw2 = np.broadcast_to(dw2, (num_draws, d))
        c1, c2 = np.empty((num_draws, n)), np.empty((num_draws, n))
        found = []
        # c1, c2 and their sums are per unit coef and may overflow where mu on every line of the fan is
        # finite; a line's mu at phi is then NaN or inf on that draw, which apply_transform flags, and the
        # draw's bound too, which makes it a candidate
        with np.errstate(over="ignore", invalid="ignore"):
            for block in _draw_blocks(num_draws):
                z, u, block_a = z1[block], dw2[block, None, :], a[block]
                active = z > 0
                moved = np.multiply(bound[block, None, None] * block_a, g)
                moved += z
                found.append(np.flatnonzero((moved > 0) != active) + block.start * d * n)
                dz = np.multiply(block_a, g, out=moved)
                dz *= active
                np.matmul(u, dz, out=c2[block, None, :])
                np.matmul(u, np.maximum(z, 0.0), out=c1[block, None, :])
                c1[block] += np.matmul(w2[block, None, :], dz)[:, 0]
            c1 += db2
            sums = tuple(np.einsum("sn,sn->s", x, y) for x, y in ((resid, c1), (resid, c2), (c1, c1), (c1, c2), (c2, c2)))
        s, k, j = np.unravel_index(np.concatenate(found), z1.shape)
        candidates = _Elements(
            s * n + j, z1[s, k, j], np.broadcast_to(a, z1.shape)[s, k, j], np.broadcast_to(g, (n,))[j], w2[s, k], dw2[s, k]
        )
        return cls(origin, bound, c1, c2, candidates, resid, sums)

    def line(self, coef) -> "ReluLine":
        """The line with per-draw coefficient ``coef``, (S,), and its flips. A
        coef outside the fan, past its bound or of the other sign, is a DomainError."""
        if not np.all((np.minimum(self.bound, 0.0) <= coef) & (coef <= np.maximum(self.bound, 0.0))):
            raise DomainError("a relu1 fan's line needs every coefficient between 0 and the fan's bound")
        e, n = self.candidates, self.c1.shape[1]
        c = coef[e.cell // n]
        a = c * e.a
        moved = np.flatnonzero((a * e.g + e.z1 > 0) != (e.z1 > 0))
        cell, reach = e.cell[moved], np.abs(c[moved])
        with np.errstate(over="ignore", invalid="ignore"):  # a draw whose bound is not finite is a candidate
            reach *= np.abs(self.c1.reshape(-1)[cell]) + reach * np.abs(self.c2.reshape(-1)[cell])
            reach += np.abs(self.origin.mu.reshape(-1)[cell])
        flips = _Elements(cell, e.z1[moved], a[moved], e.g[moved], e.w2[moved], c[moved] * e.dw2[moved])
        return ReluLine(self, coef[:, None], flips, np.bincount(cell // n, reach, coef.size))


@dataclass
class ReluLine:
    """mu(theta + hbar * D) for the one-hidden-layer network: one line of a :class:`ReluFan`.

    With t = hbar * ``scale``, mu + t c1 + t^2 c2 plus the terms of the
    ``flips`` (whose a and dw2 already carry the line's coefficient) that
    have changed activity at hbar; mu, c1, c2, the residuals, the sums and
    the hidden units are read through the ``fan``. Each flip's activity is
    decided by (hbar * a) * g + z1 > 0, the rounded pre-activation at the
    moved draw, once per step scale and kept until the next one: the
    held-out column, the rows and the bound of one attempt share it.

    The move is dmu = t c1 + t^2 c2 + f, with f the sum of each cell's
    flipped terms. Its :class:`MoveBound` has, per draw,

        tangent   = t R1 + t^2 R2 + sum_flips resid term,
        curvature = (sqrt(t^2 Q11 + 2 t^3 Q12 + t^4 Q22 + pad) + sum_flips |term|)^2,

    from the fan's ``sums`` (Minkowski's inequality, then l2 <= l1 on the
    flips), and size = sqrt(n) w + G + d (sum_flips |term| + curvature / 8),
    where w = |t| sqrt(Q11) + t^2 sqrt(Q22) >= sum_n |t c1| + |t^2 c2| over
    sqrt(n), G >= sum_flips |mu| + |t c1| + |t^2 c2| at each flip's cell (the
    line's ``reach``, at t = coef over all its flips), and d, the hidden units,
    bounds the flips of one cell. With u = eps / 2 the rounding is:
      - of the quadratic form, (n + 10) u w^2, which pad = 2 (n + 16) u w^2
        covers, so the curvature holds sum_n dmu^2 up to a few u of itself;
      - of mu + t c1 + t^2 c2, u (|mu| + 3 |t c1| + 4 |t^2 c2|) per element;
      - of the flips' additions, u times each partial sum, at most G + d sum |term|;
      - of the sequential flip sums, at most d n u times sum |term|, which moves
        the curvature by d n u curvature;
      - of R1 and R2, (n + 12) u |t| sum_n |c1| and t^2 sum_n |c2|, resid's
        error included.
    """

    fan: ReluFan
    scale: np.ndarray     # (S, 1), the coefficient of each draw
    flips: _Elements
    reach: np.ndarray     # G per draw, at t = coef
    _last: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def _flipped(self, hbar):
        """(cell, term) of the flips that have changed activity at hbar, in flip order; the last
        step scale's is kept."""
        if self._last is not None and self._last[0] == hbar:
            return self._last[1:]
        if not 0.0 <= hbar <= 1.0:
            raise DomainError(f"a relu1 line is evaluated at step scales in [0, 1], got {hbar}")
        e = self.flips
        z = hbar * e.a
        z *= e.g
        z += e.z1
        on = z > 0
        moved = on != (e.z1 > 0)
        term = (e.w2[moved] + hbar * e.dw2[moved]) * z[moved]
        np.negative(term, out=term, where=~on[moved])
        self._last = hbar, e.cell[moved], term
        return self._last[1:]

    def at(self, hbar, rows=slice(None)) -> np.ndarray:
        """mu at theta + hbar * D on ``rows`` of the draws, each row as it is in the whole."""
        cell, term = self._flipped(hbar)
        fan, t = self.fan, hbar * self.scale[rows]
        mu = fan.c2[rows] * t
        mu += fan.c1[rows]
        mu *= t
        mu += fan.origin.mu[rows]
        num_draws, n = fan.c1.shape
        row = np.full(num_draws, -1)
        row[rows] = np.arange(len(mu))
        row = row[cell // n]
        kept = row >= 0
        np.add.at(mu.reshape(-1), row[kept] * n + cell[kept] % n, term[kept])
        return mu

    def column(self, hbar, i) -> np.ndarray:
        """mu at theta + hbar * D at observation i, for every draw: column i of :meth:`at`."""
        cell, term = self._flipped(hbar)
        fan, t = self.fan, hbar * self.scale[:, 0]
        mu = fan.c2[:, i] * t
        mu += fan.c1[:, i]
        mu *= t
        mu += fan.origin.mu[:, i]
        n = fan.c1.shape[1]
        here = cell % n == i
        np.add.at(mu, cell[here] // n, term[here])
        return mu

    def move_bound(self, hbar) -> MoveBound:
        cell, term = self._flipped(hbar)
        fan = self.fan
        (num_draws, n), (r1, r2, q11, q12, q22) = fan.c1.shape, fan.sums
        draw, t = cell // n, hbar * self.scale[:, 0]
        with np.errstate(over="ignore", invalid="ignore"):
            square = t * t
            tangent = t * r1 + square * r2
            tangent += np.bincount(draw, fan.resid.reshape(-1)[cell] * term, num_draws)
            spread = np.bincount(draw, np.abs(term), num_draws)
            width = np.abs(t) * np.sqrt(q11) + square * np.sqrt(q22)
            curvature = square * (q11 + 2.0 * t * q12 + square * q22)
            curvature += ((n + 16.0) * np.finfo(float).eps * width) * width
            curvature = np.sqrt(curvature, out=curvature)
            curvature += spread
            curvature *= curvature
            size = np.sqrt(n) * width + self.reach
            size += fan.origin.model.d * (spread + curvature / 8.0)
            return MoveBound(tangent, curvature, size)


def grad_log_posterior(model: LogisticModel | ReluOneModel, theta, dataset: Dataset, prior: GaussianPrior) -> np.ndarray:
    """Gradient of the unnormalized log posterior at one parameter vector: the
    prior term plus, per observation, the chain rule [y - sigma(mu)] * grad_mu.
    The single-draw reference for :func:`evaluate_posterior`'s batched gradient."""
    theta = np.asarray(theta, dtype=float)
    grad = prior.grad_batch(theta)
    for x, y in zip(dataset.features, dataset.labels):
        grad += (float(y) - sigmoid(model.mu(theta, x))) * model.grad_mu(theta, x)
    return grad


def log_likelihood(mu, labels):
    """log sigma(m), m = (2y - 1) mu, elementwise from mu and the 0/1 labels: min(m, 0) -
    log1p(exp(-|m|)) on one scratch buffer. Each element's value does not depend on the shape,
    so a column or a subset of rows gets the bits of the whole."""
    log_lik = (2.0 * labels - 1.0) * mu
    scratch = np.abs(log_lik)
    np.exp(np.negative(scratch, out=scratch), out=scratch)
    np.minimum(log_lik, 0.0, out=log_lik)
    log_lik -= np.log1p(scratch, out=scratch)
    return log_lik


def log_posterior(mu, labels, log_prior):
    """(log likelihood, log posterior) at a draw set from mu there, (S, n), the 0/1 labels and the
    log prior per draw. Each row's sum is that of the row alone."""
    log_lik = log_likelihood(mu, labels)
    return log_lik, log_prior + log_lik.sum(axis=1)


@dataclass(frozen=True)
class PosteriorEvaluation:
    """Per-draw posterior quantities shared by weights and transformations.

    ``origin`` is the model's origin line at the draws, with mu, (S, n), and
    every derivative of mu there; ``log_lik`` is (S, n); ``log_prior`` and
    ``log_post``, the unnormalized log posterior, are per draw;
    ``grad_log_post`` is the gradient of the log posterior (None when not
    requested). ``resid`` = y - sigma(mu), (S, n), weighs grad_mu in that
    gradient; it is also (2y - 1) times the slope of each log likelihood at
    the draws, from which every line bounds its log likelihood, with the
    row sums ``log_lik_sum`` of ``log_lik`` and ``mu_size`` of |mu|.
    :func:`evaluate_posterior` builds it.
    """

    origin: LinearMuLine | ReluMuLine
    log_lik: np.ndarray
    log_prior: np.ndarray
    log_post: np.ndarray
    grad_log_post: np.ndarray | None
    resid: np.ndarray
    log_lik_sum: np.ndarray
    mu_size: np.ndarray

    @property
    def log_ref(self) -> float:
        """Scale anchor: the largest log posterior over the draw set."""
        return float(self.log_post.max())


def evaluate_posterior(model: SigmoidalModel, values: np.ndarray, dataset: Dataset, prior: GaussianPrior,
                       with_grad: bool = True) -> PosteriorEvaluation:
    """The run's posterior at a whole draw matrix: the model's origin line at the draws and the
    dataset's features, log likelihood, log prior, log posterior and, optionally, its gradient.
    Draws, prior or dataset that do not fit the model are a DimensionError, raised before any
    array work, not a broadcast or misread columns."""
    for what, got, want in (
        ("parameter columns in the draws", values.shape[1], model.param_dim),
        ("prior sds", prior.param_dim, model.param_dim),
        ("dataset features", dataset.p, model.num_features),
    ):
        if got != want:
            raise DimensionError(f"{got} {what}, but the model expects {want}")
    origin = model.mu_line(values, dataset.features)
    resid = dataset.labels[None, :] - logistic(origin.mu)
    grad = prior.grad_batch(values) + origin.weighted_grad_mu(resid) if with_grad else None
    log_prior = prior.log_density_batch(values)
    log_lik = log_likelihood(origin.mu, dataset.labels)
    log_lik_sum = log_lik.sum(axis=1)
    with np.errstate(over="ignore"):  # a draw with an infinite size is a candidate on every line of the run
        mu_size = np.abs(origin.mu).sum(axis=1)
    return PosteriorEvaluation(origin, log_lik, log_prior, log_prior + log_lik_sum, grad, resid, log_lik_sum, mu_size)
