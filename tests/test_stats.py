"""Datasets and exact statistics: hand values, ranges, scipy cross-checks."""

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bezier_dp import (
    CORRELATION_RANGE,
    COVARIANCE_RANGE,
    VARIANCE_RANGE,
    Dataset,
    DomainError,
    UndefinedStatisticError,
    correlation_exact,
    covariance_exact,
    feasible_rxy_bounds,
    moments_unnormalized,
    standardized_moment,
    variance_exact,
)
from bezier_dp.stats import (
    CENTERED_FOURTH_RANGE,
    CENTERED_THIRD_RANGE,
    centered_moment_exact,
    covariances,
    power_sums,
    ratio_covariance,
    ratio_variance,
    unnormalized_covariances,
    unnormalized_variances,
    variances,
)


def test_dataset_shapes():
    d1 = Dataset([0.1, 0.5, 0.9])
    assert (d1.n, d1.d) == (3, 1)
    d2 = Dataset([[0.1, 0.2], [0.3, 0.4]])
    assert (d2.n, d2.d) == (2, 2)
    assert np.array_equal(d2.column(1), [0.2, 0.4])
    assert d2.univariate(1).d == 1
    empty = Dataset.empty(2)
    assert (empty.n, empty.d) == (0, 2)
    assert Dataset([], d=3).d == 3
    # leading axes hold a block of equally sized datasets
    block = Dataset(np.full((4, 3, 2), 0.5))
    assert (block.n, block.d, block.values.shape) == (3, 2, (4, 3, 2))
    assert block.column(1).shape == (4, 3)
    assert block.univariate(1).values.shape == (4, 3, 1)


def test_dataset_validation():
    with pytest.raises(DomainError):
        Dataset([0.5, 1.5])
    with pytest.raises(DomainError):
        Dataset([-0.1])
    with pytest.raises(DomainError):
        Dataset([np.nan])
    with pytest.raises(DomainError):
        Dataset([[0.1, 0.2]], d=3)
    with pytest.raises(DomainError):
        Dataset(np.float64(0.5))
    with pytest.raises(DomainError):
        Dataset(np.zeros((2, 2, 2)), d=3)
    bad = np.zeros((3, 2, 1))
    bad[2, 1, 0] = 1.5
    with pytest.raises(DomainError):
        Dataset(bad)


def test_dataset_immutable():
    data = Dataset([0.1, 0.2])
    with pytest.raises(ValueError):
        data.values[0] = 0.9


def test_power_sums():
    x = np.array([[0.5], [1.0], [0.0]])
    s = power_sums(x, 3)
    assert np.allclose(s, [3.0, 1.5, 1.25, 1.125])
    assert power_sums(np.empty((0, 1)), 2).tolist() == [0.0, 0.0, 0.0]
    data = Dataset([0.5, 1.0, 0.0])
    assert np.array_equal(moments_unnormalized(data, 3), s)
    with pytest.raises(DomainError):
        power_sums(x, -1)


def test_power_sums_mixed_order_cells_and_blocks():
    rng = np.random.default_rng(5)
    block = rng.uniform(size=(3, 50, 2))
    s = power_sums(block, 2)
    assert s.shape == (3, 9)
    for i in range(3):
        x, y = block[i, :, 0], block[i, :, 1]
        # itertools.product(range(3), repeat=2) order: alpha = (a_x, a_y)
        want = [x**ax * y**ay for ax in range(3) for ay in range(3)]
        assert np.allclose(s[i], [np.sum(w * np.ones(50)) for w in want])
        assert np.array_equal(s[i], power_sums(block[i], 2))
    assert np.array_equal(power_sums(block, 2, [4, 0, 8]), s[:, [4, 0, 8]])
    # k=1, d=2 is (n, sum y, sum x, sum x*y) with the covariance's sums
    x, y = block[0, :, 0], block[0, :, 1]
    want = [50.0, np.sum(y), np.sum(x), np.sum(x * y)]
    assert np.array_equal(power_sums(block[0], 1), want)


def test_variance_hand_values():
    assert variance_exact(Dataset([0.0, 1.0])) == 0.25
    assert variance_exact(Dataset([0.0, 0.0, 1.0])) == pytest.approx(2.0 / 9.0)
    assert variance_exact(Dataset([0.7])) == 0.0
    with pytest.raises(UndefinedStatisticError):
        variance_exact(Dataset.empty(1))
    with pytest.raises(DomainError):
        variance_exact(Dataset([[0.1, 0.2]]))


def test_covariance_hand_values():
    # perfectly correlated corners: cov = 1/4
    assert covariance_exact(Dataset([[0, 0], [1, 1]])) == 0.25
    assert covariance_exact(Dataset([[0, 1], [1, 0]])) == -0.25
    assert covariance_exact(Dataset([[0.3, 0.3]])) == 0.0
    with pytest.raises(UndefinedStatisticError):
        covariance_exact(Dataset.empty(2))


def test_unnormalized_stats():
    data = Dataset([0.0, 1.0])
    assert unnormalized_variances(data.values) == 0.5
    assert unnormalized_variances(Dataset.empty(1).values) == 0.0
    assert unnormalized_covariances(Dataset.empty(2).values) == 0.0
    assert unnormalized_covariances(Dataset([[0, 0], [1, 1]]).values) == 0.5


def test_correlation():
    x = np.linspace(0.05, 0.95, 40)
    data = Dataset(np.column_stack([x, x]))
    assert correlation_exact(data) == pytest.approx(1.0, abs=1e-12)
    anti = Dataset(np.column_stack([x, 1.0 - x]))
    assert correlation_exact(anti) == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(UndefinedStatisticError):
        correlation_exact(Dataset([[0.5, 0.2], [0.5, 0.8]]))  # zero x-variance
    rng = np.random.default_rng(3)
    xy = rng.uniform(0, 1, (500, 2))
    expect = float(np.corrcoef(xy[:, 0], xy[:, 1])[0, 1])
    assert correlation_exact(Dataset(xy)) == pytest.approx(expect, abs=1e-9)


def test_standardized_moments_vs_scipy():
    rng = np.random.default_rng(11)
    x = rng.uniform(0, 1, 400)
    data = Dataset(x)
    assert standardized_moment(data, 3) == pytest.approx(
        float(scipy.stats.skew(x)), abs=1e-9
    )
    assert standardized_moment(data, 4) == pytest.approx(
        float(scipy.stats.kurtosis(x, fisher=False)), abs=1e-9
    )
    with pytest.raises(DomainError):
        standardized_moment(data, 5)
    with pytest.raises(UndefinedStatisticError):
        standardized_moment(Dataset([0.5, 0.5]), 3)


def test_centered_moments():
    rng = np.random.default_rng(12)
    x = rng.uniform(0, 1, 300)
    c = x - x.mean()
    assert centered_moment_exact(Dataset(x), 3) == pytest.approx(
        float(np.mean(c**3)), abs=1e-12
    )
    assert centered_moment_exact(Dataset(x), 4) == pytest.approx(
        float(np.mean(c**4)), abs=1e-12
    )


def test_ratio_kernels_shared_with_exact_path():
    x = np.array([0.2, 0.4, 0.9])
    n, s1, s2 = 3.0, float(np.sum(x)), float(np.sum(x * x))
    assert variance_exact(Dataset(x)) == ratio_variance(n, s1, s2)
    # duplicated-column covariance kernel is bit-identical to the variance kernel
    assert ratio_covariance(n, s1, s1, s2) == ratio_variance(n, s1, s2)


def test_feasible_rxy_bounds():
    assert feasible_rxy_bounds(0.5, 0.5) == (0.0, 0.5)
    assert feasible_rxy_bounds(0.8, 0.7) == (0.5, 0.7)
    assert feasible_rxy_bounds(0.0, 1.0) == (0.0, 0.0)
    with pytest.raises(DomainError):
        feasible_rxy_bounds(1.2, 0.5)


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=40)
)
@settings(max_examples=200, deadline=None)
def test_variance_always_in_range(xs):
    v = variance_exact(Dataset(xs))
    assert VARIANCE_RANGE.lo <= v <= VARIANCE_RANGE.hi


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=200, deadline=None)
def test_covariance_always_in_range(pairs):
    c = covariance_exact(Dataset(pairs))
    assert COVARIANCE_RANGE.lo <= c <= COVARIANCE_RANGE.hi
    # E[xy] always respects the Frechet bounds of the measured means
    arr = np.asarray(pairs)
    lo, hi = feasible_rxy_bounds(float(arr[:, 0].mean()), float(arr[:, 1].mean()))
    mxy = float(np.mean(arr[:, 0] * arr[:, 1]))
    assert lo - 1e-9 <= mxy <= hi + 1e-9


# -- per-dataset oracles for the block kernels ------------------------------------
#
# The per-dataset variance and covariance of earlier releases: 1-d sums over
# one column at a time (a strided view for the covariance) and the scalar
# clamp.  The block kernels must reproduce them bit for bit.


def _clip(x: float, rng) -> float:
    """The scalar clamp of earlier releases."""
    x = float(x)
    return rng.lo if x < rng.lo else rng.hi if x > rng.hi else x


def _variance_oracle(x: np.ndarray) -> float:
    p = np.ones_like(x) * x
    s = [float(x.shape[0]), np.sum(p), np.sum(p * x)]
    return _clip(ratio_variance(s[0], s[1], s[2]), VARIANCE_RANGE)


def _covariance_oracle(x: np.ndarray, y: np.ndarray) -> float:
    n = float(x.shape[0])
    return _clip(ratio_covariance(n, np.sum(x), np.sum(y), np.sum(x * y)), COVARIANCE_RANGE)


def _correlation_oracle(x: np.ndarray, y: np.ndarray) -> float | None:
    vx, vy = _variance_oracle(x), _variance_oracle(y)
    if vx <= 0.0 or vy <= 0.0:
        return None
    return _clip(_covariance_oracle(x, y) / np.sqrt(vx * vy), CORRELATION_RANGE)


def _moment_oracles(x: np.ndarray) -> dict:
    """Skewness, kurtosis (None where undefined) and centered moments of one column."""
    c = x - float(np.mean(x))
    v = float(np.mean(c * c))
    return {  # undefined also where a tiny variance's power underflows to 0
        "skew": float(np.mean(c**3)) / v**1.5 if v**1.5 > 0.0 else None,
        "kurt": float(np.mean(c**4)) / v**2 if v**2 > 0.0 else None,
        "cm3": _clip(np.mean(c**3), CENTERED_THIRD_RANGE),
        "cm4": _clip(np.mean(c**4), CENTERED_FOURTH_RANGE),
    }


def _same_bits(a, b) -> bool:
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


_unit = st.one_of(st.floats(min_value=0.0, max_value=1.0), st.sampled_from([0.0, 1.0]))


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_block_kernels_match_per_dataset_oracles(draw):
    pairs = draw.draw(st.integers(1, 3), label="pairs")
    n = draw.draw(st.integers(1, 300), label="n")
    block = draw.draw(arrays(np.float64, (pairs, n, 2), elements=_unit), label="block")
    singles = np.ascontiguousarray(block[..., :1])
    got = {
        "var": variances(singles),
        "var_view": variances(block[..., :1]),
        "cov": covariances(block),
        "uvar": unnormalized_variances(singles),
        "ucov": unnormalized_covariances(block),
    }
    assert all(v.shape == (pairs,) for v in got.values())
    for i in range(pairs):
        x, y = block[i, :, 0], block[i, :, 1]
        var, cov = _variance_oracle(np.ascontiguousarray(x)), _covariance_oracle(x, y)
        assert _same_bits(got["var"][i], var) and _same_bits(got["var_view"][i], var)
        assert _same_bits(got["cov"][i], cov)
        assert _same_bits(got["uvar"][i], n * var) and _same_bits(got["ucov"][i], n * cov)
        assert _same_bits(variance_exact(Dataset(block[i, :, :1])), var)
        assert _same_bits(covariance_exact(Dataset(block[i])), cov)
    # the exact statistics of a block Dataset: one value per dataset, each its
    # own dataset's float; any undefined dataset makes the block raise
    data = Dataset(block)
    rows = range(pairs)
    want = {
        "corr": [_correlation_oracle(block[i, :, 0].copy(), block[i, :, 1].copy()) for i in rows],
        **{
            key: [_moment_oracles(block[i, :, 0].copy())[key] for i in rows]
            for key in ("skew", "kurt", "cm3", "cm4")
        },
    }
    exact = {
        "corr": lambda: correlation_exact(data),
        "skew": lambda: standardized_moment(data.univariate(0), 3),
        "kurt": lambda: standardized_moment(data.univariate(0), 4),
        "cm3": lambda: centered_moment_exact(data.univariate(0), 3),
        "cm4": lambda: centered_moment_exact(data.univariate(0), 4),
    }
    for key, fn in exact.items():
        if None in want[key]:
            with pytest.raises(UndefinedStatisticError):
                fn()
            continue
        got = fn()
        assert got.shape == (pairs,), key
        assert all(_same_bits(g, w) for g, w in zip(got, want[key])), key


def test_block_statistic_undefined_on_one_dataset_raises():
    rng = np.random.default_rng(3)
    block = rng.uniform(size=(4, 20, 2))
    block[2, :, 1] = 0.25  # one constant column in one dataset
    with pytest.raises(UndefinedStatisticError):
        correlation_exact(Dataset(block))
    with pytest.raises(UndefinedStatisticError):
        standardized_moment(Dataset(block[..., 1:]), 3)
    # the other datasets are defined, and every centered moment is
    assert correlation_exact(Dataset(block[[0, 1, 3]])).shape == (3,)
    assert centered_moment_exact(Dataset(block[..., 1:]), 4)[2] == 0.0
    # a positive variance whose square underflows has no kurtosis (it used
    # to raise ZeroDivisionError), but its skewness is defined
    tiny = Dataset([5.6e-102, 0.0])
    with pytest.raises(UndefinedStatisticError):
        standardized_moment(tiny, 4)
    assert standardized_moment(tiny, 3) == 0.0
    # one dataset still gives a float
    one = Dataset(block[0])
    assert type(correlation_exact(one)) is float
    assert type(standardized_moment(one.univariate(1), 4)) is float


def test_block_kernel_errors():
    with pytest.raises(DomainError, match="variance needs d=1 data, got d=2"):
        variances(np.zeros((3, 4, 2)))
    with pytest.raises(DomainError, match="covariance needs d=2 data, got d=1"):
        unnormalized_covariances(np.zeros((4, 1)))
    with pytest.raises(UndefinedStatisticError):
        covariances(np.zeros((3, 0, 2)))
    assert unnormalized_variances(np.zeros((3, 0, 1))).tolist() == [0.0, 0.0, 0.0]
