"""Datasets on the unit cube and their exact summary statistics.

Every record is a d-vector with coordinates in [0, 1].  Exact statistics are
clamped to their attainable ranges (variance in [0, 1/4], covariance in
[-1/4, 1/4], correlation in [-1, 1]) so that downstream comparisons never
see a value that float rounding pushed out of range.

The power sums, variance and covariance are computed once, by kernels on
(..., n, d) blocks of equally sized datasets (`power_sums`, `variances`,
`covariances` and their unnormalized forms); the per-dataset functions and
the audit maps' block forms are calls of the same kernels.

The ratio kernels `ratio_variance` / `ratio_covariance` are shared verbatim
with the private mechanisms: running a mechanism with a zero noise source
reproduces the exact statistic bit for bit because both sides execute the
same float operations on the same aggregates.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from .errors import DomainError, UndefinedStatisticError


class ClipRange(NamedTuple):
    lo: float
    hi: float


VARIANCE_RANGE = ClipRange(0.0, 0.25)
COVARIANCE_RANGE = ClipRange(-0.25, 0.25)
CORRELATION_RANGE = ClipRange(-1.0, 1.0)
CENTERED_THIRD_RANGE = ClipRange(-0.25, 0.25)
CENTERED_FOURTH_RANGE = ClipRange(0.0, 0.25)


def clamp(x, rng: ClipRange):
    """`np.clip` of an array or scalar into rng, at half its call overhead."""
    return np.minimum(np.maximum(x, rng.lo), rng.hi)


class Dataset:
    """Immutable (n, d) array of records with coordinates in [0, 1]."""

    __slots__ = ("values", "n", "d")

    def __init__(self, records, d: int | None = None):
        arr = np.asarray(records, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2:
            raise DomainError(f"records must form a 1-d or 2-d array, got shape {arr.shape}")
        if arr.shape[0] == 0:
            width = int(d) if d is not None else (arr.shape[1] or 1)
            arr = arr.reshape(0, width)
        if d is not None and arr.shape[1] != int(d):
            raise DomainError(f"expected {d} coordinate(s) per record, got {arr.shape[1]}")
        if arr.size and (not np.all(np.isfinite(arr)) or arr.min() < 0.0 or arr.max() > 1.0):
            raise DomainError("record coordinates must be finite and lie in [0, 1]")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        self.values = arr
        self.n = arr.shape[0]
        self.d = arr.shape[1]

    @classmethod
    def empty(cls, d: int = 1) -> "Dataset":
        return cls(np.empty((0, int(d))), d=int(d))

    def column(self, i: int) -> np.ndarray:
        if not 0 <= i < self.d:
            raise DomainError(f"column index {i} out of range for d={self.d}")
        return self.values[:, i]

    def univariate(self, i: int = 0) -> "Dataset":
        """Single-column view of this dataset as a d=1 dataset."""
        return Dataset(self.values[:, i : i + 1], d=1)

    def __repr__(self) -> str:
        return f"Dataset(n={self.n}, d={self.d})"


def _require_dim(values: np.ndarray, d: int, what: str) -> None:
    if values.shape[-1] != d:
        raise DomainError(f"{what} needs d={d} data, got d={values.shape[-1]}")


def ratio_variance(count: float, sum_x: float, sum_sq: float) -> float:
    """sum_sq/count - (sum_x/count)^2, shared by exact and noisy paths."""
    m = sum_x / count
    return sum_sq / count - m * m


def ratio_covariance(count: float, sum_x: float, sum_y: float, sum_xy: float) -> float:
    """sum_xy/count - (sum_x/count)(sum_y/count), shared by exact and noisy paths."""
    mx = sum_x / count
    my = sum_y / count
    return sum_xy / count - mx * my


# -- kernels on (..., n, d) record blocks -------------------------------------
#
# Each kernel maps a block of equally sized datasets, shape (..., n, d), to
# one value per dataset; the per-dataset functions below are its one-row
# case.  Sums run along the records of one dataset, so a dataset's value
# does not depend on the block it is computed in.


def power_sums(values: np.ndarray, k: int, cells=None) -> np.ndarray:
    """Exact mixed power sums of (..., n, d) records, shape (..., cells).

    Entry i is the sum over records of the product of x_c ** alpha_c, for
    the i-th alpha of `itertools.product(range(k + 1), repeat=d)` (the order
    of `bernstein.multi_indices`); entry 0 is the count n.  `cells` picks
    entries (default: all).  The powers x, x*x, (x*x)*x, ... of each column
    are multiplied left to right and summed along the records, so k=1, d=2
    gives (n, sum y, sum x, sum x*y) with the operations of `covariances`.
    """
    if k < 0:
        raise DomainError(f"order must be >= 0, got {k}")
    values = np.asarray(values, dtype=np.float64)
    n, d = values.shape[-2:]
    powers = []
    for col in _columns(values):
        cur = [col]
        for _ in range(1, k):
            cur.append(cur[-1] * col)
        powers.append(cur)
    alphas = list(itertools.product(range(k + 1), repeat=d))
    picked = range(len(alphas)) if cells is None else cells
    out = np.empty(values.shape[:-2] + (len(picked),))
    for j, i in enumerate(picked):
        terms = [powers[col][a - 1] for col, a in enumerate(alphas[i]) if a]
        if not terms:
            out[..., j] = n
            continue
        prod = terms[0]
        for t in terms[1:]:
            prod = prod * t
        out[..., j] = prod.sum(axis=-1)
    return out


def _columns(values: np.ndarray) -> np.ndarray:
    """(d, ..., n): each column of (..., n, d) records.

    A block is copied so that every dataset's column is contiguous: numpy
    may reorder a sum over strided rows across datasets.  One dataset's
    strided columns sum to the same bits and are not copied.
    """
    cols = values.transpose(-1, *range(values.ndim - 1))
    return cols.copy() if values.ndim > 2 else cols


def variances(values: np.ndarray) -> np.ndarray:
    """Population variance of each dataset in a (..., n, 1) block, clamped."""
    _require_dim(values, 1, "variance")
    n = values.shape[-2]
    if n < 1:
        raise UndefinedStatisticError("variance is undefined for an empty dataset")
    x = values[..., 0]
    v = ratio_variance(float(n), x.sum(axis=-1), (x * x).sum(axis=-1))
    return clamp(v, VARIANCE_RANGE)


def covariances(values: np.ndarray) -> np.ndarray:
    """Population covariance of each dataset in a (..., n, 2) block, clamped."""
    _require_dim(values, 2, "covariance")
    n = values.shape[-2]
    if n < 1:
        raise UndefinedStatisticError("covariance is undefined for an empty dataset")
    x, y = _columns(values)
    c = ratio_covariance(float(n), x.sum(axis=-1), y.sum(axis=-1), (x * y).sum(axis=-1))
    return clamp(c, COVARIANCE_RANGE)


def _unnormalized(values: np.ndarray, kernel, d: int, what: str) -> np.ndarray:
    """n times `kernel(values)`, and 0 for empty datasets."""
    _require_dim(values, d, what)
    n = values.shape[-2]
    if n == 0:
        return np.zeros(values.shape[:-2])
    return n * kernel(values)


def unnormalized_variances(values: np.ndarray) -> np.ndarray:
    """n times `variances`; 0 for empty datasets."""
    return _unnormalized(values, variances, 1, "unnormalized variance")


def unnormalized_covariances(values: np.ndarray) -> np.ndarray:
    """n times `covariances`; 0 for empty datasets."""
    return _unnormalized(values, covariances, 2, "unnormalized covariance")


def moments_unnormalized(data: Dataset, k: int) -> np.ndarray:
    """Unnormalized power sums (count, sum x, ..., sum x^k) of a d=1 dataset."""
    _require_dim(data.values, 1, "moments_unnormalized")
    return power_sums(data.values, k)


def variance_exact(data: Dataset) -> float:
    """Population variance of a d=1 dataset, clamped to [0, 1/4]."""
    return float(variances(data.values))


def covariance_exact(data: Dataset) -> float:
    """Population covariance of a d=2 dataset, clamped to [-1/4, 1/4]."""
    return float(covariances(data.values))


def correlation_exact(data: Dataset) -> float:
    """Pearson correlation of a d=2 dataset, clamped to [-1, 1]."""
    _require_dim(data.values, 2, "correlation")
    if data.n < 1:
        raise UndefinedStatisticError("correlation is undefined for an empty dataset")
    vx, vy = (variances(data.values[:, i : i + 1]) for i in (0, 1))
    if vx <= 0.0 or vy <= 0.0:
        raise UndefinedStatisticError(
            "correlation is undefined when a marginal variance is zero"
        )
    return float(clamp(covariances(data.values) / np.sqrt(vx * vy), CORRELATION_RANGE))


def _centered(data: Dataset, order: int, what: str) -> np.ndarray:
    """The records of a d=1 dataset minus their mean, for a moment of `order`."""
    if order not in (3, 4):
        raise DomainError(f"{what} supports order 3 or 4, got {order}")
    _require_dim(data.values, 1, what)
    if data.n < 1:
        raise UndefinedStatisticError(f"{what} needs a nonempty dataset")
    x = data.column(0)
    return x - float(np.mean(x))


def standardized_moment(data: Dataset, order: int) -> float:
    """Skewness (order=3) or excess-free kurtosis (order=4) of a d=1 dataset."""
    c = _centered(data, order, "standardized moment")
    v = float(np.mean(c * c))
    if v <= 0.0:
        raise UndefinedStatisticError(
            "standardized moment is undefined when the variance is zero"
        )
    if order == 3:
        return float(np.mean(c**3)) / v**1.5
    return float(np.mean(c**4)) / v**2


def centered_moment_exact(data: Dataset, order: int) -> float:
    """Central moment E[(x - mean)^order] for order 3 or 4, clamped."""
    c = _centered(data, order, "centered moment")
    rng = CENTERED_THIRD_RANGE if order == 3 else CENTERED_FOURTH_RANGE
    return float(clamp(np.mean(c**order), rng))


def feasible_rxy_bounds(r_x: float, r_y: float) -> tuple[float, float]:
    """Attainable range of E[xy] for marginals with means r_x, r_y on [0, 1].

    Frechet bounds: max(0, r_x + r_y - 1) <= E[xy] <= min(r_x, r_y).
    """
    r_x, r_y = float(r_x), float(r_y)
    for name, r in (("r_x", r_x), ("r_y", r_y)):
        if not 0.0 <= r <= 1.0:
            raise DomainError(f"{name} must lie in [0, 1], got {r}")
    return (max(0.0, r_x + r_y - 1.0), min(r_x, r_y))
