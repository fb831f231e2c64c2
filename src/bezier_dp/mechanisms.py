"""Differentially private estimators for moments, variance, covariance, correlation.

All mechanisms target epsilon-DP in the add-remove neighboring model (one
record inserted or deleted), except the swap-model baseline which assumes a
fixed, public record count.  Budgets:

  * ``swap_*``             statistic + (1/n) Lap(1/eps), swap model only;
  * ``naive_*``            each raw aggregate gets Lap(m/eps) for m aggregates;
  * ``improved_*``         (count, unnormalized statistic), each Lap(2/eps);
  * ``bezier_*``           Bernstein-basis aggregate + Lap(1/eps) per cell --
                           the whole vector has L1 sensitivity 1, so a single
                           unit budget covers every cell simultaneously;
  * ``transformed_*``      two-cell variant releasing (n - u, u), u = n * var;
  * ``correlation_*``      pipelines post-processing the above.

Construction is split into a prepare step (aggregates of the dataset, done
once) and a release step.  A prepared mechanism is described by its number
of Laplace cells, the noise scale `scale(eps)`, and one array kernel that
maps noise at that scale, shape (..., cells), to released values, shape
(...).  A single release draws one row from its source; a Monte Carlo block
passes a (trials, cells) matrix (see `noise.NoiseRows`).  Kernels are
elementwise in the trials axis and never call BLAS, so a trial's value does
not depend on how many trials share the call.  Running any mechanism with a
zero noise source reproduces the exact statistic bit for bit, because the
noisy path adds explicit zero noise to the same float aggregates and then
executes the same ratio/clip kernels as the exact path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bernstein import (
    bernstein_aggregate,
    multi_indices,
    tensor_apply_inverse,
    _check_dims,
)
from .errors import DomainError, UndefinedStatisticError
from .noise import NoiseSource
from .stats import (
    CENTERED_FOURTH_RANGE,
    CENTERED_THIRD_RANGE,
    CORRELATION_RANGE,
    COVARIANCE_RANGE,
    VARIANCE_RANGE,
    ClipRange,
    Dataset,
    centered_moment_exact,
    correlation_exact,
    covariance_exact,
    moments_unnormalized,
    ratio_covariance,
    ratio_variance,
    standardized_moment,
    variance_exact,
)

# Noisy counts closer to zero than this are treated as degenerate: the
# mechanism returns the midpoint of its clip range instead of dividing.
_TINY_COUNT = 1e-9
# Product of noisy variances below this makes a correlation ratio meaningless.
_TINY_VARPROD = 1e-12


@dataclass(frozen=True)
class Estimate:
    """One private release: the value plus its audit trail."""

    value: float
    mechanism_id: str
    epsilon: float
    clip_applied: ClipRange | None
    noisy_aggregates: dict[str, float] = field(default_factory=dict)


class PreparedMechanism:
    """A mechanism bound to one dataset: `cells`, `scale(eps)` and a kernel.

    `kernel(noise)` maps Laplace noise already at `scale(eps)`, shape
    (..., cells), to released values, shape (...).  `run_value` and `run`
    draw `source.laplace_vector(scale(eps), cells)` and call the same kernel;
    given a `NoiseRows` block instead of a single source, `run_value` returns
    one value per row.
    """

    __slots__ = ("mechanism_id", "clip_range", "exact_value", "cells", "_scale", "_kernel")

    def __init__(self, mechanism_id, clip_range, exact_value, cells, scale, kernel):
        self.mechanism_id = mechanism_id
        self.clip_range = clip_range
        self.exact_value = exact_value
        self.cells = cells
        self._scale = scale
        self._kernel = kernel

    def scale(self, eps: float) -> float:
        """Laplace scale b of every cell at budget eps."""
        return self._scale(_check_eps(eps))

    def kernel(self, noise):
        """Released values for noise rows of shape (..., cells)."""
        z = np.asarray(noise, dtype=np.float64)
        if z.ndim == 0 or z.shape[-1] != self.cells:
            raise DomainError(
                f"{self.mechanism_id} needs noise with {self.cells} cell(s) per row, "
                f"got shape {z.shape}"
            )
        return self._kernel(z, False)[0]

    def _draw(self, eps, source):
        return source.laplace_vector(self.scale(eps), self.cells)

    def run_value(self, eps: float, source):
        """Just the released value (a float; an array for `NoiseRows`)."""
        val, _ = self._kernel(self._draw(eps, source), False)
        return float(val) if np.ndim(val) == 0 else val

    def run(self, eps: float, source: NoiseSource) -> Estimate:
        eps = _check_eps(eps)
        val, aggs = self._kernel(self._draw(eps, source), True)
        return Estimate(
            value=float(val),
            mechanism_id=self.mechanism_id,
            epsilon=eps,
            clip_applied=self.clip_range,
            noisy_aggregates={k: float(v) for k, v in aggs.items()},
        )


def _check_eps(eps) -> float:
    eps = float(eps)
    if not eps > 0.0:
        raise DomainError(f"epsilon must be > 0, got {eps}")
    return eps


def _try_exact(fn, data):
    try:
        return fn(data)
    except UndefinedStatisticError:
        return None


def _check_stat(stat: str) -> str:
    if stat not in ("variance", "covariance"):
        raise DomainError(f"stat must be 'variance' or 'covariance', got {stat!r}")
    return stat


def _clip(x, rng: ClipRange):
    # np.minimum/np.maximum: np.clip's semantics at half its call overhead
    return np.minimum(np.maximum(x, rng.lo), rng.hi)


def _mid(rng: ClipRange) -> float:
    return 0.5 * (rng.lo + rng.hi)


def _count_guard(nn, fallback: float, value_of):
    """`value_of(nn)` where |nn| >= _TINY_COUNT, else `fallback`.

    Degenerate rows see a count of 1.0 instead, so no row divides by zero.
    """
    small = np.abs(nn) < _TINY_COUNT
    if not small.any():
        return value_of(nn)
    return np.where(small, fallback, value_of(np.where(small, 1.0, nn)))


def _ratio_guard(num, den, ok):
    """num / sqrt(den) where `ok`, else 0.0; rows not `ok` never reach sqrt."""
    if ok.all():
        return num / np.sqrt(den)
    return np.where(ok, num / np.sqrt(np.where(ok, den, 1.0)), 0.0)


# ---------------------------------------------------------------------------
# swap-model baseline
# ---------------------------------------------------------------------------

def _prepare_swap(data: Dataset, stat: str, clip_output: bool) -> PreparedMechanism:
    stat = _check_stat(stat)
    if stat == "variance":
        exact = variance_exact(data)  # raises for empty data: swap needs n >= 1
        rng = VARIANCE_RANGE
    else:
        exact = covariance_exact(data)
        rng = COVARIANCE_RANGE
    n = float(data.n)

    def _run(z, want):
        noisy = exact + z[..., 0] / n
        val = _clip(noisy, rng) if clip_output else noisy
        return val, ({"stat~": noisy} if want else None)

    return PreparedMechanism(
        f"swap_{stat}", rng if clip_output else None, exact, 1, lambda eps: 1.0 / eps, _run
    )


def swap_laplace(
    data: Dataset,
    stat: str,
    eps: float,
    source: NoiseSource,
    clip_output: bool = False,
) -> Estimate:
    """Swap-model Laplace baseline: exact statistic + (1/n) Lap(1/eps)."""
    return _prepare_swap(data, stat, clip_output).run(eps, source)


# ---------------------------------------------------------------------------
# naive add-remove baselines: independent noise on every raw aggregate
# ---------------------------------------------------------------------------

def _prepare_naive_variance(data: Dataset) -> PreparedMechanism:
    s = moments_unnormalized(data, 2)
    n, s1, s2 = float(s[0]), float(s[1]), float(s[2])
    exact = _try_exact(variance_exact, data)

    def _run(z, want):
        # cells: count, sum x, sum x^2
        nn = n + z[..., 0]
        sx = s1 + z[..., 1]
        sq = s2 + z[..., 2]
        val = _count_guard(
            nn, _mid(VARIANCE_RANGE), lambda c: _clip(ratio_variance(c, sx, sq), VARIANCE_RANGE)
        )
        return val, ({"n~": nn, "s_x~": sx, "s_x2~": sq} if want else None)

    return PreparedMechanism(
        "naive_variance", VARIANCE_RANGE, exact, 3, lambda eps: 3.0 / eps, _run
    )


def _prepare_naive_covariance(data: Dataset) -> PreparedMechanism:
    if data.d != 2:
        raise DomainError(f"covariance needs d=2 data, got d={data.d}")
    x, y = data.column(0), data.column(1)
    n = float(data.n)
    sx, sy, sxy = float(np.sum(x)), float(np.sum(y)), float(np.sum(x * y))
    exact = _try_exact(covariance_exact, data)

    def _run(z, want):
        # cells: count, sum x, sum y, sum xy
        nn = n + z[..., 0]
        ax = sx + z[..., 1]
        ay = sy + z[..., 2]
        axy = sxy + z[..., 3]
        val = _count_guard(
            nn, 0.0, lambda c: _clip(ratio_covariance(c, ax, ay, axy), COVARIANCE_RANGE)
        )
        return val, ({"n~": nn, "s_x~": ax, "s_y~": ay, "s_xy~": axy} if want else None)

    return PreparedMechanism(
        "naive_covariance", COVARIANCE_RANGE, exact, 4, lambda eps: 4.0 / eps, _run
    )


def naive_add_remove(
    data: Dataset, stat: str, eps: float, source: NoiseSource
) -> Estimate:
    """Add-remove baseline: Lap(m/eps) on each of the m raw aggregates."""
    stat = _check_stat(stat)
    if stat == "variance":
        return _prepare_naive_variance(data).run(eps, source)
    return _prepare_naive_covariance(data).run(eps, source)


# ---------------------------------------------------------------------------
# improved add-remove baseline: count + unnormalized statistic
# ---------------------------------------------------------------------------

def _prepare_improved(data: Dataset, stat: str) -> PreparedMechanism:
    stat = _check_stat(stat)
    if stat == "variance":
        rng = VARIANCE_RANGE
        exact = _try_exact(variance_exact, data)
    else:
        if data.d != 2:
            raise DomainError(f"covariance needs d=2 data, got d={data.d}")
        rng = COVARIANCE_RANGE
        exact = _try_exact(covariance_exact, data)
    n = float(data.n)
    v = exact if exact is not None else 0.0
    u = n * v

    def _run(z, want):
        # cells: count, unnormalized statistic
        z0, z1 = z[..., 0], z[..., 1]
        nn = n + z0
        # (u + z_u) / (n + z_n) rewritten so zero noise returns v exactly
        val = _count_guard(nn, _mid(rng), lambda c: _clip(v + (z1 - v * z0) / c, rng))
        return val, ({"n~": nn, "u~": u + z1} if want else None)

    return PreparedMechanism(f"improved_{stat}", rng, exact, 2, lambda eps: 2.0 / eps, _run)


def improved_add_remove(
    data: Dataset, stat: str, eps: float, source: NoiseSource
) -> Estimate:
    """Add-remove baseline with only two aggregates: count and n * statistic."""
    return _prepare_improved(data, stat).run(eps, source)


# ---------------------------------------------------------------------------
# Bernstein-basis mechanisms
# ---------------------------------------------------------------------------

def _prepare_bezier_variance(data: Dataset) -> PreparedMechanism:
    s = moments_unnormalized(data, 2)
    n, s1, s2 = float(s[0]), float(s[1]), float(s[2])
    exact = _try_exact(variance_exact, data)
    # degree-2 basis aggregate, kept for the audit trail
    b0, b1, b2 = n - 2.0 * s1 + s2, 2.0 * (s1 - s2), s2

    def _run(z, want):
        # cells: basis cells 0, 1, 2
        z0, z1, z2 = z[..., 0], z[..., 1], z[..., 2]
        nn = n + (z0 + z1 + z2)
        sx = s1 + (0.5 * z1 + z2)
        sq = s2 + z2
        val = _count_guard(
            nn, _mid(VARIANCE_RANGE), lambda c: _clip(ratio_variance(c, sx, sq), VARIANCE_RANGE)
        )
        aggs = (
            {
                "b_0~": b0 + z0,
                "b_1~": b1 + z1,
                "b_2~": b2 + z2,
                "n~": nn,
                "s_x~": sx,
                "s_x2~": sq,
            }
            if want
            else None
        )
        return val, aggs

    return PreparedMechanism(
        "bezier_variance", VARIANCE_RANGE, exact, 3, lambda eps: 1.0 / eps, _run
    )


def bezier_variance(data: Dataset, eps: float, source: NoiseSource) -> Estimate:
    """Variance from a degree-2 Bernstein aggregate with unit L1 sensitivity."""
    return _prepare_bezier_variance(data).run(eps, source)


def _cov_runner(n, sx, sy, sxy, out_range, mechanism_id, exact):
    """Shared core of the basis covariance mechanism, parametrized by sums."""
    b00 = n - sx - sy + sxy
    b01 = sy - sxy
    b10 = sx - sxy
    b11 = sxy

    def _run(z, want):
        # cells (0,0), (0,1), (1,0), (1,1)
        z0, z1, z2, z3 = z[..., 0], z[..., 1], z[..., 2], z[..., 3]
        nn = n + (z0 + z1 + z2 + z3)
        ax = sx + (z2 + z3)
        ay = sy + (z1 + z3)
        axy = sxy + z3
        val = _count_guard(
            nn, 0.0, lambda c: _clip(ratio_covariance(c, ax, ay, axy), COVARIANCE_RANGE)
        )
        if out_range is not COVARIANCE_RANGE:
            val = _clip(val, out_range)
        aggs = (
            {
                "b_{0,0}~": b00 + z0,
                "b_{0,1}~": b01 + z1,
                "b_{1,0}~": b10 + z2,
                "b_{1,1}~": b11 + z3,
                "n~": nn,
                "s_x~": ax,
                "s_y~": ay,
                "s_xy~": axy,
            }
            if want
            else None
        )
        return val, aggs

    return PreparedMechanism(mechanism_id, out_range, exact, 4, lambda eps: 1.0 / eps, _run)


def _prepare_bezier_covariance(data: Dataset) -> PreparedMechanism:
    if data.d != 2:
        raise DomainError(f"covariance needs d=2 data, got d={data.d}")
    x, y = data.column(0), data.column(1)
    n = float(data.n)
    sx, sy, sxy = float(np.sum(x)), float(np.sum(y)), float(np.sum(x * y))
    exact = _try_exact(covariance_exact, data)
    return _cov_runner(n, sx, sy, sxy, COVARIANCE_RANGE, "bezier_covariance", exact)


def bezier_covariance(data: Dataset, eps: float, source: NoiseSource) -> Estimate:
    """Covariance from a 2x2 tensor Bernstein aggregate, unit L1 sensitivity."""
    return _prepare_bezier_covariance(data).run(eps, source)


def _prepare_variance_via_covariance(data: Dataset) -> PreparedMechanism:
    s = moments_unnormalized(data, 2)
    n, s1, s2 = float(s[0]), float(s[1]), float(s[2])
    exact = _try_exact(variance_exact, data)
    # duplicate the column: cov(x, x) = var(x), then clamp to the variance range
    return _cov_runner(
        n, s1, s1, s2, VARIANCE_RANGE, "variance_via_covariance", exact
    )


def variance_via_covariance(data: Dataset, eps: float, source: NoiseSource) -> Estimate:
    """Variance read off the covariance mechanism with a duplicated column."""
    return _prepare_variance_via_covariance(data).run(eps, source)


def _prepare_transformed_variance(data: Dataset) -> PreparedMechanism:
    if data.d != 1:
        raise DomainError(f"variance needs d=1 data, got d={data.d}")
    n = float(data.n)
    exact = _try_exact(variance_exact, data)
    v = exact if exact is not None else 0.0
    u = n * v

    def _run(z, want):
        # cells: n - u, u
        z0, z1 = z[..., 0], z[..., 1]
        zt = z0 + z1
        nn = n + zt
        val = _count_guard(
            nn, _mid(VARIANCE_RANGE), lambda c: _clip(v + (z1 - v * zt) / c, VARIANCE_RANGE)
        )
        aggs = (
            {"b_0~": (n - u) + z0, "b_1~": u + z1, "n~": nn, "u~": u + z1}
            if want
            else None
        )
        return val, aggs

    return PreparedMechanism(
        "transformed_variance", VARIANCE_RANGE, exact, 2, lambda eps: 1.0 / eps, _run
    )


def transformed_variance(data: Dataset, eps: float, source: NoiseSource) -> Estimate:
    """Two-cell release of (n - u, u), u = n * variance; unit L1 sensitivity."""
    return _prepare_transformed_variance(data).run(eps, source)


# ---------------------------------------------------------------------------
# full basis release and general post-processed statistics
# ---------------------------------------------------------------------------

class PreparedMomentRelease:
    """Degree-k, dimension-d Bernstein release bound to one dataset."""

    __slots__ = ("k", "d", "aggregate")

    def __init__(self, data: Dataset, k: int, d: int):
        k, d = _check_dims(k, d)
        if data.d != d:
            raise DomainError(f"release with d={d} needs d={d} data, got d={data.d}")
        self.k = k
        self.d = d
        self.aggregate = bernstein_aggregate(data.values, k)

    @property
    def cells(self) -> int:
        return self.aggregate.shape[0]

    def scale(self, eps: float) -> float:
        return 1.0 / _check_eps(eps)

    def kernel(self, noise):
        """(recovered power sums, noisy basis aggregate) for noise rows."""
        noisy = self.aggregate + noise
        return tensor_apply_inverse(self.k, self.d, noisy), noisy

    def release_full(self, eps, source):
        """(recovered power-sum vector, noisy basis aggregate)."""
        return self.kernel(source.laplace_vector(self.scale(eps), self.cells))

    def release(self, eps, source) -> np.ndarray:
        return self.release_full(eps, source)[0]


def prepare_moment_release(data: Dataset, k: int, d: int = 1) -> PreparedMomentRelease:
    return PreparedMomentRelease(data, k, d)


def bezier_release(
    data: Dataset, k: int, d: int, eps: float, source: NoiseSource
) -> np.ndarray:
    """All mixed power sums up to degree k under a single unit budget.

    Adds Lap(1/eps) to every cell of the (k+1)^d Bernstein aggregate and maps
    back to power sums.  Entry order matches `multi_indices(k, d)`.
    """
    return prepare_moment_release(data, k, d).release(eps, source)


def _agg_key(prefix: str, alpha: tuple[int, ...]) -> str:
    if len(alpha) == 1:
        return f"{prefix}_{alpha[0]}~"
    return f"{prefix}_{{{','.join(str(a) for a in alpha)}}}~"


def _basis_mechanism(name, clip_range, exact, rel, value_of) -> PreparedMechanism:
    """Mechanism releasing `value_of(mu)` from one basis release `rel`."""
    idx = multi_indices(rel.k, rel.d)

    def _run(z, want):
        mu, noisy = rel.kernel(z)
        val = value_of(mu)
        if not want:
            return val, None
        aggs = {_agg_key("b", alpha): noisy[..., i] for i, alpha in enumerate(idx)}
        aggs.update({_agg_key("mu", alpha): mu[..., i] for i, alpha in enumerate(idx)})
        return val, aggs

    return PreparedMechanism(name, clip_range, exact, rel.cells, lambda eps: 1.0 / eps, _run)


def _prepare_moment_statistic(data: Dataset, k, j) -> PreparedMechanism:
    if k is None or j is None:
        raise DomainError("moment_release needs moment_k and moment_j")
    rel = prepare_moment_release(data, int(k), 1)
    j = int(j)
    if not 0 <= j <= rel.k:
        raise DomainError(f"moment order must lie in [0, {rel.k}], got {j}")
    exact = float(moments_unnormalized(data, rel.k)[j])
    return _basis_mechanism("moment_release", None, exact, rel, lambda mu: mu[..., j])


@dataclass(frozen=True)
class GeneralStatistic:
    """A statistic computed by post-processing a full basis release.

    `post_process` receives recovered power sums with shape (..., (k+1)^d),
    last axis in `multi_indices(k, d)` order, and returns the statistic for
    every row, shape (...); index it as `mu[..., i]` so one function serves
    a single release and a block of trials.  `exact_fn`, when given,
    computes the non-private truth for benchmarking.
    """

    name: str
    k: int
    d: int
    post_process: Callable[[np.ndarray], np.ndarray]
    clip: ClipRange | None = None
    exact_fn: Callable[[Dataset], float] | None = None


def _prepare_general(data: Dataset, stat: GeneralStatistic) -> PreparedMechanism:
    rel = prepare_moment_release(data, stat.k, stat.d)
    exact = _try_exact(stat.exact_fn, data) if stat.exact_fn is not None else None

    def value_of(mu):
        val = stat.post_process(mu)
        return val if stat.clip is None else _clip(val, stat.clip)

    return _basis_mechanism(stat.name, stat.clip, exact, rel, value_of)


def general_statistic(
    data: Dataset, stat: GeneralStatistic, eps: float, source: NoiseSource
) -> Estimate:
    """Release any statistic expressible from the power sums of one basis call."""
    return _prepare_general(data, stat).run(eps, source)


# -- built-in general statistics -------------------------------------------

def _corr_post(mu: np.ndarray) -> np.ndarray:
    # layout for k=2, d=2: flat index = 3 * a_x + a_y
    def value_of(nn):
        vx = ratio_variance(nn, mu[..., 3], mu[..., 6])
        vy = ratio_variance(nn, mu[..., 1], mu[..., 2])
        c = ratio_covariance(nn, mu[..., 3], mu[..., 1], mu[..., 4])
        prod = vx * vy
        return _ratio_guard(c, prod, (vx > 0.0) & (vy > 0.0) & (prod > _TINY_VARPROD))

    return _count_guard(mu[..., 0], 0.0, value_of)


def correlation_statistic() -> GeneralStatistic:
    """Pearson correlation from one degree-2, dimension-2 basis release."""
    return GeneralStatistic(
        name="correlation_bezier",
        k=2,
        d=2,
        post_process=_corr_post,
        clip=CORRELATION_RANGE,
        exact_fn=correlation_exact,
    )


def _central_moments(nn, mu: np.ndarray, upto: int):
    m = mu[..., 1] / nn
    out = {1: m}
    if upto >= 2:
        out[2] = mu[..., 2] / nn - m * m
    if upto >= 3:
        out[3] = mu[..., 3] / nn - 3.0 * m * (mu[..., 2] / nn) + 2.0 * m**3
    if upto >= 4:
        out[4] = (
            mu[..., 4] / nn
            - 4.0 * m * (mu[..., 3] / nn)
            + 6.0 * m * m * (mu[..., 2] / nn)
            - 3.0 * m**4
        )
    return out


def _standardized_post(order: int):
    def post(mu):
        def value_of(nn):
            cm = _central_moments(nn, mu, order)
            ok = cm[2] > _TINY_VARPROD
            var = np.where(ok, cm[2], 1.0)
            return np.where(ok, cm[order] / var ** (order / 2.0), 0.0)

        return _count_guard(mu[..., 0], 0.0, value_of)

    return post


_skew_post = _standardized_post(3)
_kurt_post = _standardized_post(4)


def skewness_statistic() -> GeneralStatistic:
    return GeneralStatistic(
        name="skewness",
        k=3,
        d=1,
        post_process=_skew_post,
        clip=None,
        exact_fn=lambda data: standardized_moment(data, 3),
    )


def kurtosis_statistic() -> GeneralStatistic:
    return GeneralStatistic(
        name="kurtosis",
        k=4,
        d=1,
        post_process=_kurt_post,
        clip=None,
        exact_fn=lambda data: standardized_moment(data, 4),
    )


def centered_moment_statistic(order: int) -> GeneralStatistic:
    """Central moment E[(x - mean)^order] for order 3 or 4, range-clipped."""
    if order == 3:
        rng = CENTERED_THIRD_RANGE
    elif order == 4:
        rng = CENTERED_FOURTH_RANGE
    else:
        raise DomainError(f"centered moment supports order 3 or 4, got {order}")

    def post(mu):
        return _count_guard(
            mu[..., 0], _mid(rng), lambda nn: _central_moments(nn, mu, order)[order]
        )

    return GeneralStatistic(
        name=f"centered_moment_{order}",
        k=order,
        d=1,
        post_process=post,
        clip=rng,
        exact_fn=lambda data: centered_moment_exact(data, order),
    )


# ---------------------------------------------------------------------------
# correlation pipelines
# ---------------------------------------------------------------------------

def _prepare_correlation_bezier(data: Dataset) -> PreparedMechanism:
    return _prepare_general(data, correlation_statistic())


def _prepare_correlation_composed(data: Dataset) -> PreparedMechanism:
    if data.d != 2:
        raise DomainError(f"correlation needs d=2 data, got d={data.d}")
    pc = _prepare_bezier_covariance(data)
    px = _prepare_bezier_variance(data.univariate(0))
    py = _prepare_bezier_variance(data.univariate(1))
    exact = _try_exact(correlation_exact, data)

    def _run(z, want):
        # cells: covariance 0-3, x variance 4-6, y variance 7-9, all at one scale
        c = pc.kernel(z[..., 0:4])
        vx = px.kernel(z[..., 4:7])
        vy = py.kernel(z[..., 7:10])
        prod = vx * vy
        val = _clip(_ratio_guard(c, prod, prod > _TINY_VARPROD), CORRELATION_RANGE)
        return val, ({"c~": c, "v_x~": vx, "v_y~": vy} if want else None)

    # the budget is split evenly across the three releases
    return PreparedMechanism(
        "correlation_composed", CORRELATION_RANGE, exact, 10, lambda eps: 1.0 / (eps / 3.0), _run
    )


def correlation_composed(data: Dataset, eps: float, source: NoiseSource) -> Estimate:
    """Correlation from three separate basis releases, each on budget eps/3."""
    return _prepare_correlation_composed(data).run(eps, source)


def _prepare_correlation_naive(data: Dataset) -> PreparedMechanism:
    if data.d != 2:
        raise DomainError(f"correlation needs d=2 data, got d={data.d}")
    x, y = data.column(0), data.column(1)
    n = float(data.n)
    sx, sy = float(np.sum(x)), float(np.sum(y))
    sxx, syy = float(np.sum(x * x)), float(np.sum(y * y))
    sxy = float(np.sum(x * y))
    exact = _try_exact(correlation_exact, data)

    def _run(z, want):
        # cells: count, sum x, sum y, sum x^2, sum y^2, sum xy
        nn = n + z[..., 0]
        ax, ay = sx + z[..., 1], sy + z[..., 2]
        axx, ayy, axy = sxx + z[..., 3], syy + z[..., 4], sxy + z[..., 5]

        def value_of(c):
            vx = ratio_variance(c, ax, axx)
            vy = ratio_variance(c, ay, ayy)
            cv = ratio_covariance(c, ax, ay, axy)
            prod = vx * vy
            ok = (vx > 0.0) & (vy > 0.0) & (prod > _TINY_VARPROD)
            return _clip(_ratio_guard(cv, prod, ok), CORRELATION_RANGE)

        val = _count_guard(nn, 0.0, value_of)
        aggs = (
            {"n~": nn, "s_x~": ax, "s_y~": ay, "s_x2~": axx, "s_y2~": ayy, "s_xy~": axy}
            if want
            else None
        )
        return val, aggs

    return PreparedMechanism(
        "correlation_naive", CORRELATION_RANGE, exact, 6, lambda eps: 6.0 / eps, _run
    )


def correlation_naive(data: Dataset, eps: float, source: NoiseSource) -> Estimate:
    """Correlation from six independently noised raw sums (budget eps/6 each)."""
    return _prepare_correlation_naive(data).run(eps, source)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_FACTORIES: dict[str, Callable[[Dataset], PreparedMechanism]] = {
    "swap_variance": lambda d: _prepare_swap(d, "variance", False),
    "swap_covariance": lambda d: _prepare_swap(d, "covariance", False),
    "naive_variance": _prepare_naive_variance,
    "naive_covariance": _prepare_naive_covariance,
    "improved_variance": lambda d: _prepare_improved(d, "variance"),
    "improved_covariance": lambda d: _prepare_improved(d, "covariance"),
    "bezier_variance": _prepare_bezier_variance,
    "bezier_covariance": _prepare_bezier_covariance,
    "variance_via_covariance": _prepare_variance_via_covariance,
    "transformed_variance": _prepare_transformed_variance,
    "correlation_bezier": _prepare_correlation_bezier,
    "correlation_composed": _prepare_correlation_composed,
    "correlation_naive": _prepare_correlation_naive,
}

MECHANISM_IDS = tuple(sorted(_FACTORIES)) + ("moment_release",)


def prepare(
    mechanism_id: str,
    data: Dataset,
    moment_k: int | None = None,
    moment_j: int | None = None,
) -> PreparedMechanism:
    """Bind a mechanism to a dataset for repeated releases."""
    if mechanism_id == "moment_release":
        return _prepare_moment_statistic(data, moment_k, moment_j)
    try:
        factory = _FACTORIES[mechanism_id]
    except KeyError:
        raise DomainError(f"unknown mechanism id {mechanism_id!r}") from None
    return factory(data)
