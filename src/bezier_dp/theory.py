"""Closed-form error theory for the private estimators.

Conventions:
  * epsilon is the privacy budget of a single release;
  * "normalized MSE" is n^2 times the mean squared error of a normalized
    statistic (variance, covariance, ...), the scale on which the
    mechanisms' first-order behaviour is n-free;
  * instance constants multiply 2/eps^2 to give the first-order normalized
    MSE of the basis-aggregate mechanisms on a concrete dataset, described
    by its mean r and variance v (or means r_x, r_y and covariance c).

All polynomial constants are evaluated directly from their factored forms;
tests pin them against independently computed rational values.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import mechanisms  # circular: the registry in mechanisms reads this module
from .bernstein import MAX_DEGREE, binomial
from .errors import DomainError
from .stats import Dataset, feasible_rxy_bounds

_FEAS_TOL = 1e-12


def sigma_lower_bound(eps: float) -> float:
    """Variance-scale lower bound for private mean estimation, add-remove model.

    Returns

        [ 2**(-2/3) * exp(-2 eps / 3) * (1 + exp(-eps))**(2/3) + exp(-eps) ]
        / (1 - exp(-eps))**2

    evaluated via expm1 so small eps suffers no cancellation.  The value is
    strictly decreasing in eps and behaves like 2/eps^2 as eps -> 0.
    """
    eps = float(eps)
    if not eps > 0.0:
        raise DomainError(f"epsilon must be > 0, got {eps}")
    t = math.exp(-eps)
    num = 2.0 ** (-2.0 / 3.0) * math.exp(-2.0 * eps / 3.0) * (1.0 + t) ** (2.0 / 3.0) + t
    den = math.expm1(-eps) ** 2
    return num / den


def inverse_row_weight(k: int, j: int) -> Fraction:
    """Exact sum of squares of row j of the inverse basis-change matrix."""
    if not 1 <= k <= MAX_DEGREE:
        raise DomainError(f"degree must lie in [1, {MAX_DEGREE}], got {k}")
    if not 0 <= j <= k:
        raise DomainError(f"moment order must lie in [0, {k}], got {j}")
    return sum(
        (Fraction(binomial(l, j), binomial(k, j))) ** 2 for l in range(j, k + 1)
    )


def moment_release_mse(k: int, j: int, eps: float) -> float:
    """First-order MSE of the j-th recovered power sum at degree k.

    Equals (2/eps^2) * sum_{l=j..k} (C(l,j)/C(k,j))^2.  For 1 <= j <= k this
    is at most 2k/eps^2; at j = 0 it equals 2(k+1)/eps^2 exactly because the
    count row of the inverse matrix is all ones.
    """
    eps = float(eps)
    if not eps > 0.0:
        raise DomainError(f"epsilon must be > 0, got {eps}")
    return (2.0 / eps**2) * float(inverse_row_weight(k, j))


class InstanceConstants(NamedTuple):
    bezier: float
    via_covariance: float
    transformed: float


def _check_mean_var(r: float, v: float) -> tuple[float, float]:
    r, v = float(r), float(v)
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"mean must lie in [0, 1], got {r}")
    vmax = r * (1.0 - r)
    if v < -_FEAS_TOL or v > vmax + _FEAS_TOL:
        raise DomainError(
            f"variance {v} infeasible for mean {r}: needs 0 <= v <= {vmax}"
        )
    return r, v


def instance_constants(r: float, v: float) -> InstanceConstants:
    """First-order constants of the three variance mechanisms at (mean, var).

    Each value times 2/eps^2 is the predicted normalized MSE:
      * bezier        -- degree-2 basis release inverted to the variance;
      * via_covariance -- variance read off a duplicated-column covariance;
      * transformed   -- two-cell release of (n - u, u) with u = n * v.
    """
    r, v = _check_mean_var(r, v)
    w0 = r * r - v
    w1 = r * r - r - v
    w2 = (1.0 - r) * (1.0 - r) - v
    bez = w0 * w0 + w1 * w1 + w2 * w2
    return InstanceConstants(
        bezier=bez,
        via_covariance=bez + w1 * w1,
        transformed=v * v + (1.0 - v) * (1.0 - v),
    )


def covariance_instance_constant(r_x: float, r_y: float, c: float) -> float:
    """First-order constant of the basis covariance mechanism at an instance.

    The instance is described by the coordinate means r_x, r_y and the
    covariance c; feasibility of E[xy] = c + r_x r_y is checked against the
    Frechet bounds.
    """
    r_x, r_y, c = float(r_x), float(r_y), float(c)
    lo, hi = feasible_rxy_bounds(r_x, r_y)
    m_xy = c + r_x * r_y
    if m_xy < lo - _FEAS_TOL or m_xy > hi + _FEAS_TOL:
        raise DomainError(
            f"covariance {c} infeasible for means ({r_x}, {r_y}): "
            f"E[xy] = {m_xy} must lie in [{lo}, {hi}]"
        )
    gx = 1.0 - 2.0 * r_x + 2.0 * r_x * r_x
    gy = 1.0 - 2.0 * r_y + 2.0 * r_y * r_y
    return gx * gy - 2.0 * c * (1.0 - 2.0 * r_x) * (1.0 - 2.0 * r_y) + 4.0 * c * c


def worst_case_table() -> dict[str, float]:
    """Worst-instance coefficients of 1/eps^2 in the normalized MSE.

    Keys are mechanism families; values w mean: the first-order normalized
    MSE is at most w / eps^2 over all datasets on the unit interval/square.
    """
    return {
        "swap": 2.0,
        "naive_var": 108.0,
        "naive_cov": 128.0,
        "improved": 8.5,
        "bezier_var": 2.0,
        "bezier_cov": 2.0,
        "transformed_var": 2.0,
    }


def _variance_profile(data: Dataset) -> tuple[float, float, float]:
    """Mean r, second moment m2 and variance v of column 0."""
    if data.n < 1:
        raise DomainError("a variance prediction needs a nonempty dataset")
    x = data.column(0)
    r = float(np.mean(x))
    m2 = float(np.mean(x * x))
    return r, m2, max(0.0, m2 - r * r)


def _covariance_profile(data: Dataset) -> tuple[float, float, float, float]:
    """Means r_x, r_y, E[xy] and covariance c of a two-column dataset."""
    if data.n < 1:
        raise DomainError("a covariance prediction needs a nonempty dataset")
    x, y = data.column(0), data.column(1)
    rx, ry = float(np.mean(x)), float(np.mean(y))
    mxy = float(np.mean(x * y))
    return rx, ry, mxy, mxy - rx * ry


# First-order normalized MSE of each mechanism on a dataset; the registry in
# `mechanisms` names which one a mechanism uses.

def swap_mse(data: Dataset, eps: float) -> float:
    return 2.0 / eps**2


def naive_variance_mse(data: Dataset, eps: float) -> float:
    r, m2, _ = _variance_profile(data)
    return (18.0 / eps**2) * (1.0 + 4.0 * r * r + (2.0 * r * r - m2) ** 2)


def improved_variance_mse(data: Dataset, eps: float) -> float:
    v = _variance_profile(data)[2]
    return (8.0 / eps**2) * (1.0 + v * v)


def basis_variance_mse(route: str, data: Dataset, eps: float) -> float:
    """`route` names the `InstanceConstants` field of the variance mechanism."""
    r, _, v = _variance_profile(data)
    return (2.0 / eps**2) * getattr(instance_constants(r, v), route)


def naive_covariance_mse(data: Dataset, eps: float) -> float:
    rx, ry, mxy, _ = _covariance_profile(data)
    return (32.0 / eps**2) * (1.0 + rx * rx + ry * ry + (2.0 * rx * ry - mxy) ** 2)


def improved_covariance_mse(data: Dataset, eps: float) -> float:
    c = _covariance_profile(data)[3]
    return (8.0 / eps**2) * (1.0 + c * c)


def bezier_covariance_mse(data: Dataset, eps: float) -> float:
    rx, ry, _, c = _covariance_profile(data)
    return (2.0 / eps**2) * covariance_instance_constant(rx, ry, c)


def predicted_normalized_mse(
    mechanism_id: str,
    data: Dataset,
    eps: float,
    moment_k: int | None = None,
    moment_j: int | None = None,
) -> float | None:
    """First-order normalized-MSE prediction for a mechanism on a dataset.

    Instance quantities (means, variances, covariance) are measured from the
    dataset itself, which must have the mechanism's number of columns.
    Returns None for mechanisms without a closed form (the correlation
    pipelines and the moments beyond the variance).  For ``moment_release``
    the prediction is n^2 times the raw power-sum MSE so that it lives on
    the same normalized scale as every other row.
    """
    eps = float(eps)
    if not eps > 0.0:
        raise DomainError(f"epsilon must be > 0, got {eps}")
    spec = mechanisms.mechanism_spec(mechanism_id, moment_k, moment_j)
    if data.d != spec.d:
        raise DomainError(f"{spec.id} needs d={spec.d} data, got d={data.d}")
    return None if spec.predict is None else spec.predict(data, eps)
