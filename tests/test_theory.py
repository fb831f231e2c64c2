"""Analytic layer: frozen numeric oracles and exact rational identities."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bezier_dp import (
    Dataset,
    DomainError,
    covariance_instance_constant,
    instance_constants,
    inverse_row_weight,
    moment_release_mse,
    predicted_normalized_mse,
    sigma_lower_bound,
    worst_case_table,
)

# Frozen with mpmath at 50 digits; the implementation must agree to the last ulp
# of a straightforward double evaluation (1e-15 relative is ample headroom).
_SIGMA_ORACLE = {
    0.01: 19999.916666805556,
    0.1: 199.91668056105931,
    0.3: 22.139014329732829,
    1.0: 1.9181035312355251,
    3.0: 0.15267364520928793,
    5.0: 0.029711024136372864,
}


def test_sigma_frozen_values():
    for eps, want in _SIGMA_ORACLE.items():
        assert sigma_lower_bound(eps) == pytest.approx(want, rel=1e-15)


def test_sigma_limits_and_monotonicity():
    # ~ 2/eps^2 as eps -> 0, no cancellation blow-up
    for eps in (1e-4, 1e-6):
        assert sigma_lower_bound(eps) == pytest.approx(2.0 / eps**2, rel=1e-2)
    grid = np.linspace(0.01, 8.0, 400)
    vals = [sigma_lower_bound(e) for e in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        sigma_lower_bound(0.0)
    with pytest.raises(DomainError):
        sigma_lower_bound(-1.0)


def test_inverse_row_weight_exact():
    assert inverse_row_weight(2, 0) == 3
    assert inverse_row_weight(2, 1) == Fraction(5, 4)
    assert inverse_row_weight(2, 2) == 1
    assert inverse_row_weight(3, 1) == Fraction(14, 9)
    assert inverse_row_weight(3, 2) == Fraction(10, 9)
    # count row of the inverse is all ones, so its weight is k + 1
    for k in range(1, 13):
        assert inverse_row_weight(k, 0) == k + 1
        assert inverse_row_weight(k, k) == 1
    with pytest.raises(DomainError):
        inverse_row_weight(2, 3)
    with pytest.raises(DomainError):
        inverse_row_weight(0, 0)


def test_moment_release_mse_tables():
    assert moment_release_mse(2, 0, 1.0) == pytest.approx(6.0, rel=1e-15)
    assert moment_release_mse(2, 1, 1.0) == pytest.approx(2.5, rel=1e-15)
    assert moment_release_mse(2, 2, 1.0) == pytest.approx(2.0, rel=1e-15)
    assert moment_release_mse(3, 0, 1.0) == pytest.approx(8.0, rel=1e-15)
    assert moment_release_mse(3, 1, 1.0) == pytest.approx(28.0 / 9.0, rel=1e-15)
    assert moment_release_mse(3, 2, 1.0) == pytest.approx(20.0 / 9.0, rel=1e-15)
    assert moment_release_mse(3, 3, 1.0) == pytest.approx(2.0, rel=1e-15)
    # epsilon scaling
    assert moment_release_mse(3, 1, 0.5) == pytest.approx(4 * 28.0 / 9.0, rel=1e-15)


def test_moment_release_mse_bounds():
    for k in range(1, 13):
        assert moment_release_mse(k, 0, 1.0) == pytest.approx(2.0 * (k + 1), rel=1e-13)
        for j in range(1, k + 1):
            assert moment_release_mse(k, j, 1.0) <= 2.0 * k + 1e-12


def test_instance_constants_uniform():
    c = instance_constants(0.5, 1.0 / 12.0)
    assert c.bezier == pytest.approx(1.0 / 6.0, rel=1e-14)
    assert c.via_covariance == pytest.approx(5.0 / 18.0, rel=1e-14)
    assert c.transformed == pytest.approx(61.0 / 72.0, rel=1e-14)


def test_instance_constants_edges():
    # point mass at 0: only w2 = 1 survives for bezier
    z = instance_constants(0.0, 0.0)
    assert z.bezier == pytest.approx(1.0)
    assert z.transformed == pytest.approx(1.0)
    # two-point {0,1}: r=1/2, v=1/4 -> w0=0, w1=-1/2, w2=0
    h = instance_constants(0.5, 0.25)
    assert h.bezier == pytest.approx(0.25, rel=1e-14)
    assert h.via_covariance == pytest.approx(0.5, rel=1e-14)
    with pytest.raises(DomainError):
        instance_constants(0.5, 0.26)
    with pytest.raises(DomainError):
        instance_constants(1.2, 0.0)
    with pytest.raises(DomainError):
        instance_constants(0.5, -0.01)


@given(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
@settings(max_examples=300, deadline=None)
def test_covariance_constant_collapses_to_via_covariance(r, frac):
    # identical-marginal instances: the covariance constant at (r, r, v)
    # equals the via-covariance variance constant at (r, v)
    v = frac * r * (1.0 - r)
    want = instance_constants(r, v).via_covariance
    got = covariance_instance_constant(r, r, v)
    assert got == pytest.approx(want, abs=1e-12)


def test_covariance_constant_values():
    # independent uniform marginals: gx = gy = 1/2, c = 0 -> 1/4
    assert covariance_instance_constant(0.5, 0.5, 0.0) == pytest.approx(0.25)
    # corners {(0,0),(1,1)}: c = 1/4 -> 1 - 2*(1/4)*0 + 4/16 = ... check directly
    want = 0.5 * 0.5 - 0.0 + 4.0 * 0.25**2
    assert covariance_instance_constant(0.5, 0.5, 0.25) == pytest.approx(want)
    with pytest.raises(DomainError):
        covariance_instance_constant(0.5, 0.5, 0.3)  # E[xy] = 0.55 > 0.5
    with pytest.raises(DomainError):
        covariance_instance_constant(0.1, 0.1, -0.05)  # E[xy] < 0


def test_worst_case_table():
    table = worst_case_table()
    assert table == {
        "swap": 2.0,
        "naive_var": 108.0,
        "naive_cov": 128.0,
        "improved": 8.5,
        "bezier_var": 2.0,
        "bezier_cov": 2.0,
        "transformed_var": 2.0,
    }


def test_worst_case_dominates_instances():
    table = worst_case_table()
    rng = np.random.default_rng(7)
    for _ in range(500):
        r = float(rng.uniform(0, 1))
        v = float(rng.uniform(0, 1)) * r * (1.0 - r)
        c = instance_constants(r, v)
        assert 2.0 * c.bezier <= table["bezier_var"] + 1e-9
        assert 2.0 * c.transformed <= table["transformed_var"] + 1e-9
        assert 8.0 * (1.0 + v * v) <= table["improved"] + 1e-9
        m2 = v + r * r
        naive = 18.0 * (1.0 + 4.0 * r * r + (2.0 * r * r - m2) ** 2)
        assert naive <= table["naive_var"] + 1e-9
    for _ in range(500):
        rx, ry = rng.uniform(0, 1, 2)
        lo = max(0.0, rx + ry - 1.0)
        hi = min(rx, ry)
        mxy = float(rng.uniform(lo, hi)) if hi > lo else lo
        cc = mxy - rx * ry
        assert 2.0 * covariance_instance_constant(rx, ry, cc) <= table["bezier_cov"] + 1e-9
        naive = 32.0 * (1.0 + rx * rx + ry * ry + (2.0 * rx * ry - mxy) ** 2)
        assert naive <= table["naive_cov"] + 1e-9


def test_predicted_normalized_mse_uniform_limits():
    # exact-uniform measured statistics: r = 1/2, E[x^2] = 1/3
    xs = (np.arange(100000) + 0.5) / 100000.0
    data = Dataset(xs)
    assert predicted_normalized_mse("swap_variance", data, 1.0) == 2.0
    assert predicted_normalized_mse("naive_variance", data, 1.0) == pytest.approx(
        36.5, rel=1e-3
    )
    v = float(np.var(xs))
    assert predicted_normalized_mse("improved_variance", data, 1.0) == pytest.approx(
        8.0 * (1.0 + v * v), rel=1e-12
    )
    assert predicted_normalized_mse("bezier_variance", data, 1.0) == pytest.approx(
        1.0 / 3.0, rel=1e-3
    )
    assert predicted_normalized_mse("transformed_variance", data, 0.5) == pytest.approx(
        4.0 * 2.0 * 61.0 / 72.0, rel=1e-3
    )


def test_predicted_normalized_mse_covariance_and_special():
    rng = np.random.default_rng(5)
    pairs = Dataset(rng.uniform(0, 1, (50000, 2)))
    assert predicted_normalized_mse("naive_covariance", pairs, 1.0) == pytest.approx(
        50.0, rel=2e-2
    )
    assert predicted_normalized_mse("improved_covariance", pairs, 1.0) == pytest.approx(
        8.0, rel=2e-2
    )
    assert predicted_normalized_mse("bezier_covariance", pairs, 1.0) == pytest.approx(
        0.5, rel=2e-2
    )
    assert predicted_normalized_mse("correlation_bezier", pairs, 1.0) is None
    assert predicted_normalized_mse("correlation_composed", pairs, 1.0) is None
    assert predicted_normalized_mse("correlation_naive", pairs, 1.0) is None
    one = Dataset([0.5])
    assert predicted_normalized_mse(
        "moment_release", one, 1.0, moment_k=2, moment_j=1
    ) == pytest.approx(2.5)
    with pytest.raises(DomainError):
        predicted_normalized_mse("moment_release", one, 1.0)
    with pytest.raises(DomainError):
        predicted_normalized_mse("no_such_mechanism", one, 1.0)
    with pytest.raises(DomainError):
        predicted_normalized_mse("bezier_variance", Dataset.empty(1), 1.0)
    # the data must have the mechanism's column count
    with pytest.raises(DomainError):
        predicted_normalized_mse("bezier_variance", pairs, 1.0)
    with pytest.raises(DomainError):
        predicted_normalized_mse("swap_covariance", one, 1.0)
    with pytest.raises(DomainError):
        predicted_normalized_mse("swap_variance", one, 0.0)
