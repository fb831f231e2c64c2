"""Error theory for the private estimators.

Conventions:
  * epsilon is the privacy budget of a single release;
  * "normalized MSE" is n^2 times the mean squared error of a normalized
    statistic (variance, covariance, ...), the scale on which the
    mechanisms' first-order behaviour is n-free;
  * instance constants multiply 2/eps^2 to give the first-order normalized
    MSE of the basis-aggregate mechanisms on a concrete dataset, described
    by its mean r and variance v (or means r_x, r_y and covariance c).

`predicted_normalized_mse` is the one per-dataset prediction, for every
registry record: the delta method applied to the record's own kernel.  The
closed forms here are the paper's results about it (instance constants,
worst cases, the per-coefficient release cost) and the privacy floor
`sigma_lower_bound`.  All polynomial constants are evaluated directly from
their factored forms; tests pin them against independently computed
rational values.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .bernstein import bezier_inverse
from .errors import DomainError, UndefinedStatisticError
from .mechanisms import PreparedMechanism, check_epsilon, prepare
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
    eps = check_epsilon(eps)
    t = math.exp(-eps)
    num = 2.0 ** (-2.0 / 3.0) * math.exp(-2.0 * eps / 3.0) * (1.0 + t) ** (2.0 / 3.0) + t
    den = math.expm1(-eps) ** 2
    return num / den


def inverse_row_weight(k: int, j: int) -> Fraction:
    """Exact sum of squares of row j of the inverse basis-change matrix."""
    rows = bezier_inverse(k)  # checks the degree
    if not 0 <= j <= k:
        raise DomainError(f"moment order must lie in [0, {k}], got {j}")
    return sum(v * v for v in rows[j])


def moment_release_mse(k: int, j: int, eps: float) -> float:
    """First-order MSE of the j-th recovered power sum at degree k.

    Equals (2/eps^2) * sum_{l=j..k} (C(l,j)/C(k,j))^2.  For 1 <= j <= k this
    is at most 2k/eps^2; at j = 0 it equals 2(k+1)/eps^2 exactly because the
    count row of the inverse matrix is all ones.
    """
    eps = check_epsilon(eps)
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


def predicted_normalized_mse(
    mechanism: str | PreparedMechanism,
    data: Dataset,
    eps: float,
    moment_k: int | None = None,
    moment_j: int | None = None,
) -> float | None:
    """First-order normalized-MSE prediction for a mechanism on a dataset.

    A release is value(z) with z i.i.d. Laplace at scale b = `scale(eps)`,
    so to first order n^2 times its MSE is n^2 * 2 b^2 * |d value / d z|^2
    at z = 0 (`PreparedMechanism.gradient_norm2`).  For ``moment_release``
    that is n^2 times `moment_release_mse`.  `mechanism` is an id, or a
    `PreparedMechanism` bound to `data`, which keeps its gradient for the
    next epsilon.  Returns None where the exact value sits on a clip bound;
    raises DomainError where the statistic is undefined on `data`.
    """
    eps = check_epsilon(eps)
    if isinstance(mechanism, PreparedMechanism):
        if mechanism.data is not data:
            raise DomainError(f"{mechanism.mechanism_id} is bound to another dataset")
        p = mechanism
    else:
        try:
            p = prepare(mechanism, data, moment_k, moment_j)
        except UndefinedStatisticError as exc:
            raise DomainError(str(exc)) from None
    if p.exact_value is None:
        raise DomainError(f"{p.mechanism_id}: the statistic is undefined on this dataset")
    g2 = p.gradient_norm2()
    return None if g2 is None else data.n**2 * 2.0 * p.scale(eps) ** 2 * g2
