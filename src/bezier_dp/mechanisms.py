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
  * ``correlation_*``      pipelines post-processing the above;
  * ``bezier_skewness``, ``bezier_kurtosis``, ``bezier_centered_moment_*``
                           post-processing one degree-3 or degree-4 release.

Each mechanism id is one `Spec` record in `REGISTRY`; `prepare`, the
Monte Carlo engine, the error prediction in `theory` and alias resolution in
the harness all read it there.  A record holds:

  * its statistic, data dimension d, plain aliases and a family name
    (``bezier``, ``naive``, ...) that resolves per statistic;
  * ``sums(data, exact)``: the exact sums s the mechanism perturbs, a
    sequence of cells or an array with cells last;
  * ``cells`` Laplace draws z per release, each at scale ``c / (eps / split)``;
  * a fixed noise map L from z to offsets of s: the identity, or (``basis``)
    the inverse Bernstein basis change M^-1 of degree k in dimension d --
    adding z to the basis aggregate M s adds M^-1 z to the power sums s;
  * ``post(s, x)``, the released statistic, clipped to ``clip``: x is the
    noisy sums s + L z, or L z alone for a ``shift`` record (swap, improved
    and transformed release their exact value plus a noise term);
  * the exact statistic and ``keys``, the audit-trail names of entries of
    s + L z.

A composed record (``parts``) instead releases several records side by side
on one draw vector, and ``post`` combines their values.

`prepare` binds a record to a dataset, or to a (..., n, d) block of them
(one per trial of a fresh-data Monte Carlo run), with s kept cells first;
records bound to one `Dataset` share its exact value and power sums.
Its kernel maps noise at `scale(eps)`, shape (..., cells), to released
values, shape (...): one row for a single release, a (trials, cells) block
for Monte Carlo (see `noise.NoiseRows`), and for `run_value` on several
budgets that block scaled for each.  Kernels are elementwise in the rows
and never call BLAS, so a trial's value does not depend on how many rows or
datasets share the call.  With zero noise every mechanism but the four
moments beyond the variance reproduces the exact statistic bit for bit: s
holds the float sums the exact statistic is computed from, L maps zero
noise to zeros, and ``post`` runs the same ratio kernels.  Those four have
only power sums, so their one-pass central moments part from the two-pass
exact statistic on narrow data (kurtosis of 10^4 points of sd 1e-4: by
0.29; sd 1e-5: by 3e3).  `gradient_norm2` differentiates the unclipped
value at zero noise, which is all a first-order error prediction needs.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .bernstein import _check_dims, bernstein_aggregate, multi_indices, tensor_apply_inverse
from .errors import DomainError, UndefinedStatisticError
from .noise import NoiseRows, NoiseSource, check_finite_positive
from .stats import (
    CENTERED_FOURTH_RANGE,
    CENTERED_THIRD_RANGE,
    CORRELATION_RANGE,
    COVARIANCE_RANGE,
    VARIANCE_RANGE,
    ClipRange,
    Dataset,
    _as_value,
    centered_moment_exact,
    clamp,
    correlation_exact,
    covariance_exact,
    moments_unnormalized,  # noqa: F401 (traced by perfbench)
    power_sums,
    ratio_covariance,
    ratio_variance,
    standardized_moment,
    variance_exact,
)

# Noisy counts closer to zero than this are treated as degenerate: the
# mechanism returns a fallback value instead of dividing.
_TINY_COUNT = 1e-9
# Product of noisy variances below this makes a correlation ratio meaningless.
_TINY_VARPROD = 1e-12


@dataclass(frozen=True)
class Estimate:
    """One private release: the value (a float, or the power-sum vector of
    `prepare_moment_release`) plus its audit trail."""

    value: float | np.ndarray
    mechanism_id: str
    epsilon: float
    clip_applied: ClipRange | None
    noisy_aggregates: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Spec:
    """The registry record of one mechanism (see the module docstring)."""

    id: str
    statistic: str | None  # None for releases outside the registry
    d: int
    sums: Callable | None = None  # (data, exact value or None) -> s
    post: Callable | None = None  # (s, x) -> unclipped values, x as in `_release`
    shift: bool = False  # post reads s and L z apart, not the noisy sums s + L z
    clip: ClipRange | None = None
    exact: Callable | None = None  # data -> exact statistic
    cells: int | None = None  # derived for basis and composed records
    c: float = 1.0
    split: float = 1.0
    basis: tuple[int, int] | None = None  # (k, d) of the M^-1 noise map
    basis_cells: Callable | None = None  # (data, s) -> exact basis cells M s
    # audit trail: (name, index into s + L z); index None names the
    # unclipped value, and a composed record's indices pick part values
    keys: tuple = ()
    parts: tuple = ()  # (record, data column or None for all columns)
    aliases: tuple[str, ...] = ()
    family: str | None = None
    params: Callable | None = None  # (record, moment_k, moment_j) -> record

    def __post_init__(self):
        if self.basis is not None:
            object.__setattr__(self, "cells", (self.basis[0] + 1) ** self.basis[1])
        elif self.parts:
            object.__setattr__(self, "cells", sum(p.cells for p, _ in self.parts))


class PreparedMechanism:
    """A registry record bound to a dataset or block: `cells`, `scale(eps)`, a kernel.

    `kernel(noise)` maps Laplace noise already at `scale(eps)`, shape
    (..., cells), to released values, shape (...); for a block the leading
    axes end with its dataset axes.  `run_value` and `run` draw
    `source.laplace_vector(scale(eps), cells)` and call the same kernel;
    given a `NoiseRows` block instead of a single source, `run_value` returns
    one value per row, and one row of them per budget for several budgets.
    """

    __slots__ = ("spec", "exact_value", "cells", "data", "_sums", "_parts", "_grad2")

    def __init__(self, spec: Spec, data: Dataset):
        if data.d != spec.d:
            raise DomainError(f"{spec.id} needs d={spec.d} data, got d={data.d}")
        self.spec = spec
        self.data = data
        self.exact_value = None if spec.exact is None else _shared(data, spec.exact, spec.exact)
        self.cells = spec.cells
        s = None if spec.sums is None else spec.sums(data, self.exact_value)
        self._sums = _cells_first(s) if isinstance(s, np.ndarray) else s
        self._parts = [
            PreparedMechanism(p, data if col is None else data.univariate(col))
            for p, col in spec.parts
        ]
        self._grad2 = None

    @property
    def mechanism_id(self) -> str:
        return self.spec.id

    @property
    def clip_range(self) -> ClipRange | None:
        return self.spec.clip

    def scale(self, eps: float) -> float:
        """Laplace scale b of every cell at budget eps; DomainError if b overflows."""
        share = check_epsilon(eps) / self.spec.split
        b = self.spec.c / share if share > 0.0 else math.inf
        if b == math.inf:
            raise DomainError(f"epsilon {eps} is too small: {self.mechanism_id} scale overflows")
        return b

    def kernel(self, noise):
        """Released values for noise rows of shape (..., cells)."""
        z = np.asarray(noise, dtype=np.float64)
        if z.ndim == 0 or z.shape[-1] != self.cells:
            raise DomainError(
                f"{self.mechanism_id} needs noise with {self.cells} cell(s) per row, "
                f"got shape {z.shape}"
            )
        return self._release(z)[0]

    def _release(self, z):
        """(released values, unclipped values, x) for noise rows z.

        x is indexed cells first (x[i]: cell i of every row): the noisy sums
        s + L z, or L z alone for a shift record, or a composed record's
        part values.
        """
        spec, s = self.spec, self._sums
        if self._parts:
            x, a = [], 0
            for part in self._parts:
                x.append(part._release(z[..., a : a + part.cells])[0])
                a += part.cells
        elif spec.basis is not None:
            offset = None if spec.shift else _all_sums(None, s)
            x = _cells_first(tensor_apply_inverse(*spec.basis, z, offset))
        elif spec.shift:
            x = _cells_first(z)
        else:
            zc = _cells_first(z)
            x = [s[i] + zc[i] for i in range(self.cells)]
        raw = spec.post(s, x)
        return (raw if spec.clip is None else clamp(raw, spec.clip)), raw, x

    def _trail(self, z, raw, x) -> dict:
        """Noisy basis cells M s + z, then the record's named quantities."""
        spec, s = self.spec, self._sums
        trail = {}
        if spec.basis is not None:
            b = spec.basis_cells(self.data, s) + z
            trail.update(zip((_agg_key("b", a) for a in multi_indices(*spec.basis)), b))
        for name, i in spec.keys:
            trail[name] = raw if i is None else s[i] + x[i] if spec.shift else x[i]
        return trail

    def _on_edge(self) -> bool:
        """Whether the exact value (or a part's) sits on a clip bound."""
        clip = self.spec.clip
        return any(p._on_edge() for p in self._parts) or (
            clip is not None and self.exact_value in (clip.lo, clip.hi)
        )

    def gradient_norm2(self) -> float | None:
        """|d value / d z|^2 at zero noise for one bound dataset, computed on
        first use and kept; None where the exact value (or a part's) sits on a
        clip bound, where the clipped release has no derivative.

        The unclipped value is differentiated by Richardson-extrapolated
        central differences, steps +-h and +-h/2 per cell with h = 1e-3 n,
        all 4 * cells rows in one block.
        """
        if self._on_edge():
            return None
        if self._grad2 is None:
            h = 1e-3 * max(self.data.n, 1)
            steps = np.array([h, -h, 0.5 * h, -0.5 * h])[:, None, None]
            f = self._release((steps * np.eye(self.cells)).reshape(-1, self.cells))[1]
            # (4 D(h/2) - D(h)) / 3, D(t) = (f(t) - f(-t)) / 2t, times 6h
            g = np.array([-1.0, 1.0, 8.0, -8.0]) @ f.reshape(4, self.cells)
            self._grad2 = float(g @ g) / (6.0 * h) ** 2
        return self._grad2

    def run_value(self, eps, source):
        """Just the released value: a float, or one per row for `NoiseRows`.
        A 1-d sequence of budgets (`NoiseRows` only) gives shape (len(eps),
        rows) from one kernel call, row i bit for bit that of budget eps[i]."""
        if np.ndim(eps) == 0:
            return _as_value(self._release(source.laplace_vector(self.scale(eps), self.cells))[0])
        if not isinstance(source, NoiseRows):
            raise DomainError("a sequence of budgets needs a NoiseRows block")
        z = source.laplace_vector([self.scale(e) for e in eps], self.cells)
        # budgets folded into the rows, which a block binding's dataset axes end
        flat = z.reshape((-1,) + z.shape[z.ndim + 1 - self.data.values.ndim :])
        return self._release(flat)[0].reshape(z.shape[:-1])

    def run(self, eps: float, source: NoiseSource) -> Estimate:
        eps = check_epsilon(eps)
        z = source.laplace_vector(self.scale(eps), self.cells)
        val, raw, x = self._release(z)
        return Estimate(
            value=_as_value(val),
            mechanism_id=self.mechanism_id,
            epsilon=eps,
            clip_applied=self.clip_range,
            noisy_aggregates={k: float(v) for k, v in self._trail(z, raw, x).items()},
        )


def _cells_first(a):
    """(..., cells) -> (cells, ...), a view."""
    return a.T if a.ndim <= 2 else a.transpose(-1, *range(a.ndim - 1))


def check_epsilon(eps) -> float:
    """eps as a float; DomainError unless it is finite and positive."""
    return check_finite_positive(eps, "epsilon")


def _shared(data, key, compute):
    """compute(data), None where undefined, once per dataset and key: records share it."""
    if key not in data.shared:
        try:
            data.shared[key] = compute(data)
        except UndefinedStatisticError:
            data.shared[key] = None
    return data.shared[key]


def _power_sums(data, k: int, cells=slice(None)):
    return _shared(data, k, lambda data: power_sums(data.values, k))[..., cells]


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


def _agg_key(prefix: str, alpha: tuple[int, ...]) -> str:
    if len(alpha) == 1:
        return f"{prefix}_{alpha[0]}~"
    return f"{prefix}_{{{','.join(str(a) for a in alpha)}}}~"


_UNCLIPPED = (("stat~", None),)


def _keys(names: str, order=None) -> tuple:
    """Audit-trail keys: each name with its index (default: its position)."""
    names = names.split()
    return tuple(zip(names, range(len(names)) if order is None else order))


# ---------------------------------------------------------------------------
# sums and post-processing kernels
# ---------------------------------------------------------------------------

def _ratio_post(ratio, idx, fallback: float):
    """post(s, mu) = ratio(count, *sums) of the noisy sums mu[i], i in idx
    (count first); rows with a degenerate noisy count release `fallback`."""

    def post(s, mu):
        count, *sums = [mu[i] for i in idx]
        return _count_guard(count, fallback, lambda c: ratio(c, *sums))

    return post


def _correlation_ratio(c, sx, sy, sxx, syy, sxy):
    vx = ratio_variance(c, sx, sxx)
    vy = ratio_variance(c, sy, syy)
    cv = ratio_covariance(c, sx, sy, sxy)
    prod = vx * vy
    return _ratio_guard(cv, prod, (vx > 0.0) & (vy > 0.0) & (prod > _TINY_VARPROD))


# Positions of (n, sum x, sum y, sum xy) in the k=1, d=2 basis release and of
# (n, sum x, sum y, sum x^2, sum y^2, sum xy) in the k=2, d=2 one.
_BASIS_COV = (0, 2, 1, 3)
_BASIS_CORR = (0, 3, 1, 6, 2, 4)
_VARIANCE_POST = _ratio_post(ratio_variance, (0, 1, 2), _mid(VARIANCE_RANGE))
_CORRELATION_POST = _ratio_post(_correlation_ratio, _BASIS_CORR, 0.0)


def _swap_sums(data, exact):
    if exact is None:
        raise UndefinedStatisticError("the swap model needs a nonempty dataset")
    return (exact, float(data.n))


def _swap_post(s, lz):
    exact, n = s
    return exact + lz[0] / n


def _shift_sums(data, exact):
    """(n, u, v) with v the exact statistic (0 when undefined), u = n * v."""
    n = float(data.n)
    v = exact if exact is not None else 0.0
    return (n, n * v, v)


def _shift_post(rng: ClipRange):
    """(u + z_u) / (n + z_n), rewritten so zero noise returns v exactly."""

    def post(s, lz):
        n, _, v = s
        z0, z1 = lz[0], lz[1]
        return _count_guard(n + z0, _mid(rng), lambda c: v + (z1 - v * z0) / c)

    return post


def _all_sums(s, mu):
    """Every recovered sum, (cells, ...) back to (..., cells), a view."""
    return mu.T if mu.ndim <= 2 else mu.transpose(*range(1, mu.ndim), 0)


def _composed_post(_, values):
    c, vx, vy = values
    prod = vx * vy
    return _ratio_guard(c, prod, prod > _TINY_VARPROD)


def _central_moments(nn, mu, upto: int):
    """Central moments 1..upto.  `np.power`, not `**`: on a single release's
    numpy scalars `**` is libm's pow, which can differ from a block's loop."""
    m = mu[1] / nn
    out = {1: m}
    if upto >= 2:
        out[2] = mu[2] / nn - m * m
    if upto >= 3:
        out[3] = mu[3] / nn - 3.0 * m * (mu[2] / nn) + 2.0 * np.power(m, 3)
    if upto >= 4:
        out[4] = (
            mu[4] / nn
            - 4.0 * m * (mu[3] / nn)
            + 6.0 * m * m * (mu[2] / nn)
            - 3.0 * np.power(m, 4)
        )
    return out


def _standardized_post(order: int):
    """Skewness (3) or kurtosis (4); 0.0 where the noisy variance is not positive."""

    def post(s, mu):
        def value_of(nn):
            cm = _central_moments(nn, mu, order)
            ok = cm[2] > _TINY_VARPROD
            var = np.where(ok, cm[2], 1.0)
            return np.where(ok, cm[order] / np.power(var, order / 2.0), 0.0)

        return _count_guard(mu[0], 0.0, value_of)

    return post


def _centered_post(order: int, rng: ClipRange):
    def post(s, mu):
        return _count_guard(mu[0], _mid(rng), lambda nn: _central_moments(nn, mu, order)[order])

    return post


def basis_spec(k: int, d: int, **fields) -> Spec:
    """A degree-k, dimension-d release of every mixed power sum.

    Defaults: the sums are the data's own power sums, the basis cells its
    Bernstein aggregate (summed from the records, since M s cancels
    catastrophically at high degree; the variance and covariance records
    give M s in closed form), and the audit trail names every recovered
    sum ``mu_...~``; `fields` may override all three.

    A custom statistic sets ``post(s, mu)``, mu[i] being recovered sum i of
    every row, and binds with ``PreparedMechanism(basis_spec(...), data)``.
    """
    k, d = _check_dims(k, d)
    defaults = {
        "d": d,
        "sums": lambda data, exact: _power_sums(data, k),
        "basis_cells": lambda data, s: bernstein_aggregate(data.values, k),
        "keys": tuple((_agg_key("mu", a), i) for i, a in enumerate(multi_indices(k, d))),
    }
    return Spec(basis=(k, d), **{**defaults, **fields})


def _bind_moment(spec: Spec, k, j) -> Spec:
    """The moment_release record for one degree k and power j."""
    if k is None or j is None:
        raise DomainError(f"{spec.id} needs moment_k and moment_j")
    k, j = int(k), int(j)
    _check_dims(k, 1)
    if not 0 <= j <= k:
        raise DomainError(f"moment order must lie in [0, {k}], got {j}")
    return basis_spec(
        k, 1, id=spec.id, statistic=spec.statistic, aliases=spec.aliases,
        post=lambda s, mu: mu[j],
        exact=lambda data: _as_value(_power_sums(data, k)[..., j]),
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_BEZIER_VARIANCE = basis_spec(
    2, 1, id="bezier_variance", statistic="variance", family="bezier",
    aliases=("bezier_var",), post=_VARIANCE_POST,
    basis_cells=lambda data, s: np.array([s[0] - 2.0 * s[1] + s[2], 2.0 * (s[1] - s[2]), s[2]]),
    keys=_keys("n~ s_x~ s_x2~"), clip=VARIANCE_RANGE, exact=variance_exact,
)
_BEZIER_COVARIANCE = basis_spec(
    1, 2, id="bezier_covariance", statistic="covariance", family="bezier",
    aliases=("bezier_cov",), post=_ratio_post(ratio_covariance, _BASIS_COV, 0.0),
    basis_cells=lambda data, s: np.array(
        [s[0] - s[2] - s[1] + s[3], s[1] - s[3], s[2] - s[3], s[3]]
    ),
    keys=_keys("n~ s_x~ s_y~ s_xy~", _BASIS_COV), clip=COVARIANCE_RANGE, exact=covariance_exact,
)
# the covariance release on a duplicated column, cov(x, x) = var(x), then
# clamped to the variance range
_VARIANCE_VIA_COVARIANCE = dataclasses.replace(
    _BEZIER_COVARIANCE, id="variance_via_covariance", statistic="variance", d=1,
    family=None, aliases=("via_cov",),
    sums=lambda data, exact: _power_sums(data, 2, [0, 1, 1, 2]),
    clip=VARIANCE_RANGE, exact=variance_exact,
)
# the degree-1 basis release of (n, u): basis cells (n - u, u)
_TRANSFORMED_VARIANCE = basis_spec(
    1, 1, id="transformed_variance", statistic="variance",
    aliases=("transformed", "transformed_var"), shift=True, sums=_shift_sums,
    basis_cells=lambda data, s: np.array([s[0] - s[1], s[1]]),
    post=_shift_post(VARIANCE_RANGE), keys=_keys("n~ u~"), clip=VARIANCE_RANGE,
    exact=variance_exact,
)
_CORRELATION_BEZIER = basis_spec(
    2, 2, id="correlation_bezier", statistic="correlation", family="bezier",
    post=_CORRELATION_POST, clip=CORRELATION_RANGE, exact=correlation_exact,
)
# the budget is split evenly across the three releases
_CORRELATION_COMPOSED = Spec(
    "correlation_composed", "correlation", 2, aliases=("composed",), split=3.0,
    parts=((_BEZIER_COVARIANCE, None), (_BEZIER_VARIANCE, 0), (_BEZIER_VARIANCE, 1)),
    post=_composed_post, keys=_keys("c~ v_x~ v_y~"), clip=CORRELATION_RANGE,
    exact=correlation_exact,
)
# cells: count, sum x, sum y, sum x^2, sum y^2, sum xy
_CORRELATION_NAIVE = Spec(
    "correlation_naive", "correlation", 2, family="naive", cells=6, c=6.0,
    sums=lambda data, exact: _power_sums(data, 2, _BASIS_CORR),
    post=_ratio_post(_correlation_ratio, range(6), 0.0),
    keys=_keys("n~ s_x~ s_y~ s_x2~ s_y2~ s_xy~"), clip=CORRELATION_RANGE,
    exact=correlation_exact,
)

# Grouped by statistic; a family's variance form comes before its covariance
# form, and that before its correlation form.
REGISTRY: dict[str, Spec] = {
    spec.id: spec
    for spec in (
        Spec(
            "swap_variance", "variance", 1, family="swap", aliases=("swap_var",), cells=1,
            shift=True, sums=_swap_sums, post=_swap_post, keys=_UNCLIPPED, exact=variance_exact,
        ),
        # cells: count, sum x, sum x^2
        Spec(
            "naive_variance", "variance", 1, family="naive", aliases=("naive_var",),
            cells=3, c=3.0, sums=lambda data, exact: _power_sums(data, 2),
            post=_VARIANCE_POST, keys=_keys("n~ s_x~ s_x2~"),
            clip=VARIANCE_RANGE, exact=variance_exact,
        ),
        # cells: count, unnormalized statistic
        Spec(
            "improved_variance", "variance", 1, family="improved", aliases=("improved_var",),
            cells=2, c=2.0, shift=True, sums=_shift_sums, post=_shift_post(VARIANCE_RANGE),
            keys=_keys("n~ u~"), clip=VARIANCE_RANGE, exact=variance_exact,
        ),
        _BEZIER_VARIANCE,
        _VARIANCE_VIA_COVARIANCE,
        _TRANSFORMED_VARIANCE,
        Spec(
            "swap_covariance", "covariance", 2, family="swap", aliases=("swap_cov",), cells=1,
            shift=True, sums=_swap_sums, post=_swap_post, keys=_UNCLIPPED, exact=covariance_exact,
        ),
        # cells: count, sum x, sum y, sum xy
        Spec(
            "naive_covariance", "covariance", 2, family="naive", aliases=("naive_cov",), cells=4,
            c=4.0, sums=lambda data, exact: _power_sums(data, 1, _BASIS_COV),
            post=_ratio_post(ratio_covariance, range(4), 0.0), keys=_keys("n~ s_x~ s_y~ s_xy~"),
            clip=COVARIANCE_RANGE, exact=covariance_exact,
        ),
        Spec(
            "improved_covariance", "covariance", 2, family="improved", aliases=("improved_cov",),
            cells=2, c=2.0, shift=True, sums=_shift_sums, post=_shift_post(COVARIANCE_RANGE),
            keys=_keys("n~ u~"), clip=COVARIANCE_RANGE, exact=covariance_exact,
        ),
        _BEZIER_COVARIANCE,
        _CORRELATION_BEZIER,
        _CORRELATION_COMPOSED,
        _CORRELATION_NAIVE,
        Spec("moment_release", "moment", 1, aliases=("moment",), params=_bind_moment),
        # last: `estimate` reads a family alias on one column as its first d=1 form
        basis_spec(
            3, 1, id="bezier_skewness", statistic="skewness", family="bezier",
            aliases=("skewness",), post=_standardized_post(3),
            exact=partial(standardized_moment, order=3),
        ),
        basis_spec(
            4, 1, id="bezier_kurtosis", statistic="kurtosis", family="bezier",
            aliases=("kurtosis",), post=_standardized_post(4),
            exact=partial(standardized_moment, order=4),
        ),
        basis_spec(
            3, 1, id="bezier_centered_moment_3", statistic="centered_moment_3",
            family="bezier", aliases=("centered_moment_3",),
            post=_centered_post(3, CENTERED_THIRD_RANGE), clip=CENTERED_THIRD_RANGE,
            exact=partial(centered_moment_exact, order=3),
        ),
        basis_spec(
            4, 1, id="bezier_centered_moment_4", statistic="centered_moment_4",
            family="bezier", aliases=("centered_moment_4",),
            post=_centered_post(4, CENTERED_FOURTH_RANGE), clip=CENTERED_FOURTH_RANGE,
            exact=partial(centered_moment_exact, order=4),
        ),
    )
}

MECHANISM_IDS = tuple(REGISTRY)


def mechanism_spec(
    mechanism_id: str, moment_k: int | None = None, moment_j: int | None = None
) -> Spec:
    """The registry record of an id, bound to moment_k/moment_j if it takes them."""
    try:
        spec = REGISTRY[mechanism_id]
    except KeyError:
        raise DomainError(f"unknown mechanism id {mechanism_id!r}") from None
    return spec if spec.params is None else spec.params(spec, moment_k, moment_j)


def prepare(
    mechanism_id: str,
    data: Dataset,
    moment_k: int | None = None,
    moment_j: int | None = None,
) -> PreparedMechanism:
    """Bind a mechanism to a dataset for repeated releases."""
    return PreparedMechanism(mechanism_spec(mechanism_id, moment_k, moment_j), data)


def prepare_moment_release(data: Dataset, k: int, d: int = 1) -> PreparedMechanism:
    """Degree-k, dimension-d release of every mixed power sum.

    Its values are the recovered power-sum vectors, shape (..., (k+1)^d),
    in `multi_indices(k, d)` order.
    """
    spec = basis_spec(k, d, id="bezier_release", statistic=None, post=_all_sums)
    return PreparedMechanism(spec, data)


def bezier_release(
    data: Dataset, k: int, d: int, eps: float, source: NoiseSource
) -> np.ndarray:
    """All mixed power sums up to degree k under a single unit budget.

    Adds Lap(1/eps) to every cell of the (k+1)^d Bernstein aggregate and maps
    back to power sums.  Entry order matches `multi_indices(k, d)`.
    """
    return prepare_moment_release(data, k, d).run_value(eps, source)
