"""Basis evaluation, exact matrices, flat ordering, tensor inversion."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bezier_dp import (
    CapacityError,
    DomainError,
    basis_matrix,
    bernstein_aggregate,
    bezier_inverse,
    bezier_matrix,
    multi_indices,
    tensor_apply_inverse,
)
from bezier_dp.bernstein import MAX_DEGREE, binomial
from exact_matrices import matrix_multiply

# Oracles: the definitions written out one point and one cell at a time.


def bernstein_eval(k: int, j: int, x: float) -> float:
    """B_j(x) of degree k by `pow`."""
    return binomial(k, j) * x**j * (1.0 - x) ** (k - j)


def multivariate_bernstein_eval(k: int, alpha: tuple[int, ...], z) -> float:
    """Product over coordinates of B_{alpha_i}(z_i)."""
    out = 1.0
    for a, zi in zip(alpha, z, strict=True):
        out *= bernstein_eval(k, a, float(zi))
    return out


def flat_index(alpha: tuple[int, ...], k: int) -> int:
    """Position of alpha among d-tuples over {0..k}, last coordinate fastest."""
    pos = 0
    for a in alpha:
        pos = pos * (k + 1) + a
    return pos


def matrix_to_float(mat) -> np.ndarray:
    return np.array([[float(v) for v in row] for row in mat], dtype=np.float64)


def test_binomial_values():
    assert binomial(0, 0) == 1
    assert binomial(5, 2) == 10
    assert binomial(10, 5) == 252
    assert binomial(60, 30) == 118264581564861424
    with pytest.raises(DomainError):
        binomial(3, 4)
    with pytest.raises(DomainError):
        binomial(-1, 0)


def test_bernstein_eval_known_values():
    # degree 2: (1-x)^2, 2x(1-x), x^2
    got = basis_matrix(2, [0.0, 0.5, 1.0, 0.25])
    assert got.tolist() == [
        [1.0, 0.0, 0.0],
        [0.25, 0.5, 0.25],
        [0.0, 0.0, 1.0],
        [0.5625, 2 * 0.25 * 0.75, 0.0625],
    ]
    assert basis_matrix(3, [0.0])[0, 0] == 1.0  # 0^0 convention at the endpoint
    assert basis_matrix(3, [0.25])[0, 3] == 0.25**3
    assert basis_matrix(2, np.zeros((4, 0, 5))).shape == (4, 0, 5, 3)


def test_bernstein_eval_domain():
    with pytest.raises(DomainError):
        basis_matrix(0, [0.5])
    with pytest.raises(DomainError):
        basis_matrix(1.5, [0.5])
    with pytest.raises(CapacityError):
        basis_matrix(MAX_DEGREE + 1, [0.5])


def test_kernel_matches_exact_oracle():
    # Without underflow an entry carries at most 2k+1 roundings, so it lies
    # within (2k+3) u of C(k,j) x^j (1-x)^(k-j) taken exactly at the float
    # x (u = 2^-53).  Underflow adds at most 2^-1075 in each of at most k
    # multiplications, later scaled by at most C(k, j): the allowance
    # k C(k, j) 2^-1074.  At x = 2^-1074 the exact x^j, j >= 2, is itself
    # below every subnormal.  With x = p/q the check runs in integers:
    # exact = C p^j (q-p)^(k-j) / q^k.
    rng = np.random.default_rng(11)
    points = [0.0, 1.0, 2.0**-1074, 0.5, 1.0 - 2.0**-53, *rng.random(3)]
    for x in points:
        p, q = x.as_integer_ratio()
        for k in range(1, MAX_DEGREE + 1):
            got = basis_matrix(k, [x])[0]
            den = q**k
            for j, g in enumerate(got.tolist()):
                c = binomial(k, j)
                exact = c * p**j * (q - p) ** (k - j)
                gn, gd = g.as_integer_ratio()
                err = abs(gn * den - exact * gd) << 1127
                tol = gd * (((2 * k + 3) * exact << 1074) + ((k * c * den) << 53))
                assert err <= tol, (k, j, x)


@given(
    k=st.integers(min_value=1, max_value=25),
    x=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_partition_of_unity(k, x):
    assert abs(basis_matrix(k, [x]).sum() - 1.0) <= 1e-12


@given(
    k=st.integers(min_value=1, max_value=15),
    x=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_basis_nonnegative(k, x):
    assert np.all(basis_matrix(k, [x]) >= 0.0)


def test_matrix_inverse_exact_small_degrees():
    for k in range(1, 13):
        mat = bezier_matrix(k)
        inv = bezier_inverse(k)
        prod = matrix_multiply(mat, inv)
        for i in range(k + 1):
            for j in range(k + 1):
                assert prod[i][j] == (Fraction(1) if i == j else Fraction(0))


def test_matrix_known_entries_degree2():
    mat = bezier_matrix(2)
    assert [[int(v) for v in row] for row in mat] == [[1, -2, 1], [0, 2, -2], [0, 0, 1]]
    inv = bezier_inverse(2)
    assert inv[0] == (Fraction(1), Fraction(1), Fraction(1))
    assert inv[1] == (Fraction(0), Fraction(1, 2), Fraction(1))
    assert inv[2] == (Fraction(0), Fraction(0), Fraction(1))


def test_inverse_count_row_all_ones():
    # row 0 recovers the record count: sum of the basis cells
    for k in (1, 2, 5, 9):
        inv = bezier_inverse(k)
        assert all(v == 1 for v in inv[0])


def test_matrix_maps_basis_to_monomials():
    # B_j(x) == sum_l M[j][l] x^l on a grid
    k = 4
    mat = matrix_to_float(bezier_matrix(k))
    xs = np.linspace(0.0, 1.0, 17)
    for j in range(k + 1):
        direct = np.array([bernstein_eval(k, j, x) for x in xs])
        poly = sum(mat[j][l] * xs**l for l in range(k + 1))
        assert np.max(np.abs(direct - poly)) < 1e-12


def test_multi_index_order_and_flat_index():
    idx = multi_indices(2, 2)
    assert idx[0] == (0, 0)
    assert idx[1] == (0, 1)  # last coordinate fastest
    assert idx[3] == (1, 0)
    assert len(idx) == 9
    for pos, alpha in enumerate(idx):
        assert flat_index(alpha, 2) == pos
    assert multi_indices(3, 3)[flat_index((2, 0, 3), 3)] == (2, 0, 3)


def test_multivariate_eval_is_product():
    # one record's aggregate is its tensor-product basis vector, cell by cell
    k, z = 3, (0.3, 0.8, 0.55)
    agg = bernstein_aggregate(np.array([z]), k)
    for alpha in multi_indices(k, 3):
        assert agg[flat_index(alpha, k)] == pytest.approx(
            multivariate_bernstein_eval(k, alpha, z), rel=1e-14, abs=1e-300
        )


def test_aggregate_partition_of_unity():
    # cells of one record's basis vector sum to 1 => aggregate sums to n
    rng = np.random.default_rng(5)
    for d in (1, 2):
        vals = rng.uniform(0, 1, (37, d))
        agg = bernstein_aggregate(vals, 3)
        assert agg.shape == (4**d,)
        assert abs(agg.sum() - 37.0) < 1e-9
        assert np.all(agg >= 0.0)


def test_aggregate_empty_and_chunking():
    assert np.array_equal(bernstein_aggregate(np.empty((0, 1)), 2), np.zeros(3))
    # chunked and unchunked summation agree closely
    rng = np.random.default_rng(6)
    vals = rng.uniform(0, 1, (70000, 1))
    agg = bernstein_aggregate(vals, 2)
    ref = bernstein_aggregate(vals[:65536], 2) + bernstein_aggregate(vals[65536:], 2)
    assert np.max(np.abs(agg - ref)) < 1e-7


@pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
def test_aggregate_of_a_dataset_does_not_depend_on_its_block(lead):
    rng = np.random.default_rng(12)
    for k, d in ((1, 1), (3, 2), (2, 3)):
        block = rng.random((*lead, 41, d))
        got = bernstein_aggregate(block, k)
        assert got.shape == (*lead, (k + 1) ** d)
        for i in np.ndindex(*lead):
            alone = bernstein_aggregate(block[i], k)
            assert alone.tobytes() == got[i].tobytes(), (k, d, i)


def test_aggregate_working_set_is_bounded():
    # 3721 cells: summing all 20000 basis vectors at once would need
    # 20000 * 3721 * 8 B = 595 MB; chunks of 2^22 // 3721 records need ~35 MB.
    vals = np.random.default_rng(13).random((20000, 2))
    tracemalloc.start()
    try:
        got = bernstein_aggregate(vals, 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    ref = sum(bernstein_aggregate(vals[i : i + 1000], 60) for i in range(0, 20000, 1000))
    assert np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-300)) < 1e-9


def test_tensor_apply_inverse_matches_kron():
    rng = np.random.default_rng(7)
    k, d = 3, 2
    vec = rng.normal(size=(k + 1) ** d)
    inv = matrix_to_float(bezier_inverse(k))
    expect = np.kron(inv, inv) @ vec
    got = tensor_apply_inverse(k, d, vec)
    assert np.max(np.abs(got - expect)) < 1e-10


def test_tensor_apply_inverse_recovers_power_sums():
    rng = np.random.default_rng(8)
    vals = rng.uniform(0, 1, (200, 2))
    k = 2
    agg = bernstein_aggregate(vals, k)
    mu = tensor_apply_inverse(k, 2, agg)
    x, y = vals[:, 0], vals[:, 1]
    for alpha in multi_indices(k, 2):
        expect = float(np.sum(x ** alpha[0] * y ** alpha[1]))
        assert mu[flat_index(alpha, k)] == pytest.approx(expect, abs=1e-8)


def test_capacity_limits():
    with pytest.raises(CapacityError):
        multi_indices(9, 7)  # 10^7 cells
    with pytest.raises(CapacityError):
        bezier_matrix(61)
    with pytest.raises(DomainError):
        tensor_apply_inverse(2, 1, np.zeros(4))
