"""Dataset, posterior-draw and run-configuration containers.

All containers are immutable after construction (arrays are copied in and
marked read-only), so instances can be shared across worker threads without
locking.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import numbers
from collections import Counter
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import DimensionError, DomainError, ValidationError

#: Transformation identifiers accepted in a run configuration, in the
#: default attempt order (the moment-matching pair first, then the
#: gradient-step family, then the plain likelihood-descent baseline).
TRANSFORM_KINDS = ("PMM1", "PMM2", "KL", "Var", "LL")
PMM_KINDS = ("PMM1", "PMM2")
GRADIENT_KINDS = ("KL", "Var", "LL")
#: The gradient kinds whose step reads the gradient of the log posterior.
POSTERIOR_GRADIENT_KINDS = ("KL", "Var")

DEFAULT_KHAT_THRESHOLD = 0.7
DEFAULT_HBAR_EXPONENTS = tuple(range(11))
#: 4**-537 = 2**-1074 is the smallest positive float; a larger exponent
#: would give the step scale 0.
MAX_HBAR_EXPONENT = 537


def _frozen(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Dataset:
    """n observations of (feature vector x, binary label y)."""

    features: np.ndarray            # (n, p) float
    labels: np.ndarray              # (n,) int, each exactly 0 or 1
    feature_names: tuple[str, ...]  # length p

    def __post_init__(self):
        features = _frozen(self.features)
        labels = np.asarray(self.labels)
        if features.ndim != 2:
            raise DimensionError("features must be a 2-d matrix")
        n, p = features.shape
        if n < 1 or p < 1:
            raise DomainError("dataset needs at least one row and one feature")
        if labels.shape != (n,):
            raise DimensionError(f"expected {n} labels, got {labels.shape}")
        if not np.all(np.isfinite(features)):
            raise DomainError("features contain NaN or infinite values")
        if not np.all((labels == 0) | (labels == 1)):  # as given: casting first would truncate 0.7 to 0
            raise DomainError("labels must all be 0 or 1")
        labels = _frozen(labels, dtype=int)
        names = tuple(str(s) for s in self.feature_names)
        if len(names) != p:
            raise DimensionError(f"expected {p} feature names, got {len(names)}")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "feature_names", names)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]

    def with_intercept(self) -> "Dataset":
        """Return a copy with a constant-1 feature column appended."""
        ones = np.ones((self.n, 1))
        return Dataset(
            features=np.hstack([self.features, ones]),
            labels=self.labels,
            feature_names=self.feature_names + ("(intercept)",),
        )


@dataclass(frozen=True)
class PosteriorDraws:
    """S sampled parameter vectors used as the importance-sampling proposal."""

    values: np.ndarray              # (S, P) float
    param_names: tuple[str, ...]    # length P

    def __post_init__(self):
        values = _frozen(self.values)
        if values.ndim != 2:
            raise DimensionError("draw values must be a 2-d matrix")
        s, p = values.shape
        if s < 2:
            raise DomainError("need at least two draws for self-normalization")
        if not np.all(np.isfinite(values)):
            raise DomainError("draws contain NaN or infinite values")
        names = tuple(str(s) for s in self.param_names)
        if len(names) != p:
            raise DimensionError(f"expected {p} parameter names, got {len(names)}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "param_names", names)

    @property
    def num_draws(self) -> int:
        return self.values.shape[0]

    @property
    def param_dim(self) -> int:
        return self.values.shape[1]


def _is_a(value, kind) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def _list_of(value, kind, key: str, what: str) -> tuple:
    """The items of a list (or tuple or array) of ``kind``; anything else, a
    string included, is a ValidationError naming ``key``."""
    if not isinstance(value, (list, tuple, np.ndarray)) or not all(_is_a(v, kind) for v in value):
        raise ValidationError([f"{key} must be a list of {what}, got {value!r}"])
    return tuple(value)


def _object_without_repeats(pairs: list) -> dict:
    """A config JSON object, whose keys must be distinct."""
    repeated = [key for key, count in Counter(key for key, _ in pairs).items() if count > 1]
    if repeated:
        raise ValidationError([f"config repeats key {key!r}" for key in repeated])
    return dict(pairs)


@dataclass(frozen=True)
class RunConfig:
    """Knobs of the adaptation loop; every field has a usable default.

    ``hbar_exponents`` may be given in any order and is stored sorted
    ascending, so ``hbar_values`` runs from the largest step scale down.
    """

    khat_threshold: float = DEFAULT_KHAT_THRESHOLD
    hbar_exponents: tuple[int, ...] = DEFAULT_HBAR_EXPONENTS
    transform_order: tuple[str, ...] = TRANSFORM_KINDS

    def __post_init__(self):
        if not _is_a(self.khat_threshold, numbers.Real):
            raise ValidationError([f"khat_threshold must be a number, got {self.khat_threshold!r}"])
        if not 0 < self.khat_threshold < math.inf:  # an inf threshold would call inf k-hats adapted
            raise DomainError(f"khat_threshold must be positive and finite, got {self.khat_threshold!r}")
        exps = _list_of(self.hbar_exponents, numbers.Integral, "hbar_exponents", "integers")
        exps = tuple(sorted(int(r) for r in exps))
        if len(exps) == 0:
            raise DomainError("hbar_exponents must be non-empty")
        if any(r < 0 for r in exps):
            raise DomainError("hbar_exponents must be non-negative")
        if any(r > MAX_HBAR_EXPONENT for r in exps):
            raise DomainError(f"hbar_exponents must be at most {MAX_HBAR_EXPONENT}; beyond it 4**-r underflows to 0")
        if len(set(exps)) != len(exps):
            raise DomainError("hbar_exponents contains duplicates")
        order = _list_of(self.transform_order, str, "transform_order", "transform kinds")
        if len(order) == 0:
            raise DomainError("transform_order must be non-empty")
        if len(set(order)) != len(order):
            raise DomainError("transform_order contains duplicates")
        unknown = [k for k in order if k not in TRANSFORM_KINDS]
        if unknown:
            raise DomainError(f"unknown transform kinds: {unknown}")
        object.__setattr__(self, "hbar_exponents", exps)
        object.__setattr__(self, "transform_order", order)

    @property
    def hbar_values(self) -> tuple[float, ...]:
        """Step-scale grid 4**(-r), largest first."""
        return tuple(4.0 ** (-r) for r in self.hbar_exponents)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            payload = json.loads(text, object_pairs_hook=_object_without_repeats)
        except json.JSONDecodeError as exc:
            raise ValidationError([f"config is not valid JSON: {exc}"]) from exc
        if not isinstance(payload, dict):
            raise ValidationError(["config JSON must be an object"])
        unknown = set(payload) - {f.name for f in fields(cls)}
        if unknown:
            raise ValidationError([f"unknown config key {k!r}" for k in sorted(unknown)])
        return cls(**payload)


@dataclass(frozen=True)
class MarginalStats:
    """Per-parameter draw statistics.

    ``mean`` and ``variance`` use the population convention (divisor S).
    The weighted variance is taken about the *unweighted* mean, matching the
    moment-matching update it feeds. ``centered``, the draws minus ``mean``,
    is the (S, P) array every weighted call reads; it is computed once, by
    the unweighted call, and shared (read-only) by every result derived
    from it.
    """

    mean: np.ndarray
    sd: np.ndarray
    weighted_mean: np.ndarray
    variance: np.ndarray
    weighted_variance: np.ndarray
    centered: np.ndarray

    def __post_init__(self):
        for name in ("mean", "sd", "weighted_mean", "variance", "weighted_variance"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))


def marginal_stats(
    draws: PosteriorDraws, weights: np.ndarray | None = None, plain: MarginalStats | None = None
) -> MarginalStats:
    """Column means/variances of the draws, plus their weighted counterparts.

    ``weights``, when given, must be a normalized (sum 1) non-negative vector
    of length S. Omitting it makes the weighted statistics equal the plain
    ones. ``plain``, the unweighted statistics of the same draws, makes a
    weighted call a matvec, w @ theta, and one contraction of w with the
    centred draws twice, instead of recomputing them.
    """
    values = draws.values
    s = draws.num_draws
    if plain is None:
        mean = values.mean(axis=0)
        centered = values - mean
        centered.flags.writeable = False
        variance = np.mean(centered**2, axis=0)
        plain = MarginalStats(mean, np.sqrt(variance), mean, variance, variance, centered)
    elif plain.centered.shape != values.shape:
        raise DimensionError(f"plain statistics of {plain.centered.shape} draws, got {values.shape}")
    if weights is None:
        return plain
    w = np.asarray(weights, dtype=float)
    if w.shape != (s,):
        raise DimensionError(f"expected {s} weights, got shape {w.shape}")
    if np.any(w < 0):
        raise DomainError("weights must be non-negative")
    if abs(w.sum() - 1.0) > 1e-9:
        raise DomainError(f"weights must sum to 1, got {w.sum()!r}")
    weighted_variance = np.einsum("s,sp,sp->p", w, plain.centered, plain.centered)
    return replace(plain, weighted_mean=w @ values, weighted_variance=weighted_variance)


def open_input(path, newline: str | None = None):
    """Open an input file as UTF-8 text, with or without a byte-order mark.

    A byte that is not UTF-8 decodes to a lone surrogate (``surrogateescape``),
    so the check of the cell, line or JSON value that holds it names it like
    any other bad input. ``newline`` is ``open``'s; the CSV readers pass ``""``
    so that the csv module sees line ends as they are in the file.
    """
    return open(path, newline=newline, encoding="utf-8-sig", errors="surrogateescape")


def _check_header(header: list[str], label_column: str | None) -> int | None:
    """Check a CSV header and return the label column's index (None without one).

    Column names must be distinct. A dataset header (``label_column`` given)
    must hold the label column and at least one feature column besides it.
    """
    repeated = [name for name, count in Counter(header).items() if count > 1]
    if repeated:
        raise ValidationError([f"header repeats column names {', '.join(map(repr, repeated))}"])
    if label_column is None:
        return None
    if label_column not in header:
        raise ValidationError([f"label column {label_column!r} not found in header"])
    if len(header) < 2:
        raise ValidationError(["need at least one feature column besides the label"])
    return header.index(label_column)


def _walk_cells(rows, header, row_name: str, label: int | None):
    """Parse cell by cell and name every ragged row, non-numeric cell and
    number outside its column's domain, in row-major order.

    Column ``label`` (None for no label column) must hold 0 or 1; every
    other column must be finite. Row numbers are 1-based over data rows.
    Returns the (rows, columns) values and the violations.
    """
    values = np.zeros((len(rows), len(header)))
    violations: list[str] = []
    for r, row in enumerate(rows, start=1):
        if len(row) != len(header):
            violations.append(f"{row_name} {r}: expected {len(header)} cells, got {len(row)}")
            continue
        out = values[r - 1]
        for j, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                violations.append(f"{row_name} {r}, column {header[j]!r}: non-numeric value {cell!r}")
                continue
            if j == label:
                if value not in (0.0, 1.0):
                    violations.append(f"{row_name} {r}: label {cell!r} not in {{0, 1}}")
            elif not math.isfinite(value):
                violations.append(f"{row_name} {r}, column {header[j]!r}: non-finite value {cell!r}")
            out[j] = value
    return values, violations


def _in_domain(values: np.ndarray, label: int | None) -> bool:
    """``_walk_cells``' domain rule over a whole table at once."""
    ok = np.isfinite(values)
    if label is not None:
        ok[:, label] = (values[:, label] == 0) | (values[:, label] == 1)
    return bool(ok.all())


def _loadtxt_body(fh, width: int, label: int | None) -> np.ndarray | None:
    """The data rows left in ``fh``, parsed in C by ``np.loadtxt``.

    Returns None, so that ``_walk_cells`` decides and words the faults,
    wherever the parse could differ from the walk's:

    - no data line (``np.loadtxt`` would warn);
    - a blank line, which ``np.loadtxt`` skips and the walk names as a row
      of 0 cells;
    - a parse error. Every cell that ``float()`` accepts and ``np.loadtxt``
      does not, such as ``1_000`` or a Unicode digit, makes it raise;
    - any shape but one row of ``width`` cells per line, as when a quoted
      line break joins two lines into one row;
    - a value outside its column's domain.
    """
    first = next(fh, None)
    if first is None:
        return None
    lines = 0

    def counted():
        nonlocal lines
        for line in itertools.chain((first,), fh):
            if line in ("\n", "\r", "\r\n"):
                raise ValueError("blank line")
            lines += 1
            yield line

    try:
        values = np.loadtxt(counted(), delimiter=",", comments=None, quotechar='"', ndmin=2)
    except ValueError:
        return None
    if values.shape != (lines, width) or not _in_domain(values, label):
        return None
    return values


def _read_cells(path, what: str, row_name: str, label_column: str | None = None):
    """Header, label index, (rows, columns) values and violations of a CSV file.

    The body is parsed by ``_loadtxt_body``. Where that declines, the same
    handle is rewound and read with the csv module, and walked cell by cell,
    so only ``_walk_cells`` words a violation.
    """
    with open_input(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise ValidationError([f"{what} file is empty"])
        label = _check_header(header, label_column)
        values = _loadtxt_body(fh, len(header), label)
        if values is not None:
            return header, label, values, []
        fh.seek(0)
        rows = list(csv.reader(fh))[1:]
    return header, label, *_walk_cells(rows, header, row_name, label)


def load_dataset_csv(path, label_column: str = "y", add_intercept: bool = False) -> Dataset:
    """Read a dataset CSV (header row, one designated label column)."""
    header, label, values, violations = _read_cells(path, "dataset", "row", label_column)
    if len(values) < 1:
        raise ValidationError(["dataset has no data rows"])
    if violations:
        raise ValidationError(violations)
    dataset = Dataset(
        features=np.delete(values, label, axis=1),
        labels=values[:, label].astype(int),
        feature_names=tuple(h for j, h in enumerate(header) if j != label),
    )
    return dataset.with_intercept() if add_intercept else dataset


def load_draws_csv(path) -> PosteriorDraws:
    """Read a draws CSV (header row of parameter names, one row per draw)."""
    header, _, values, violations = _read_cells(path, "draws", "draw row")
    if len(values) < 2:
        violations.append(f"need at least two draws, got {len(values)}")
    if violations:
        raise ValidationError(violations)
    return PosteriorDraws(values=values, param_names=tuple(header))
