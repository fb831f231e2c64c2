"""Bernstein basis evaluation and exact basis-change matrices.

The degree-k Bernstein polynomials on [0, 1],

    B_j(x) = C(k, j) * x**j * (1 - x)**(k - j),        j = 0..k,

form a partition of unity.  Summing the basis vector over the records of a
dataset gives aggregates whose L1 sensitivity under record addition/removal
is exactly 1, which is what makes them attractive carriers for calibrated
noise.  Power sums are recovered from Bernstein aggregates through an
upper-triangular basis change whose inverse has the closed form

    (M^-1)[j][l] = C(l, j) / C(k, j)       for j <= l, else 0.

All matrices here are exact `fractions.Fraction` values; float copies for
the numeric pipeline are derived (and cached) from the exact ones.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import CapacityError, DomainError

MAX_DEGREE = 60
MAX_VECTOR_LEN = 1_000_000

# Chunk size (records per block) when summing basis vectors over a dataset.
_AGG_CHUNK = 1 << 16

_pascal_rows: list[list[int]] = [[1]]


def _check_degree(k) -> int:
    if not isinstance(k, (int, np.integer)):
        raise DomainError(f"degree must be an integer, got {k!r}")
    k = int(k)
    if k < 1:
        raise DomainError(f"degree must be >= 1, got {k}")
    if k > MAX_DEGREE:
        raise CapacityError(f"degree {k} exceeds the supported maximum {MAX_DEGREE}")
    return k


def _check_index(j, k: int, what: str = "index") -> int:
    if not isinstance(j, (int, np.integer)):
        raise DomainError(f"{what} must be an integer, got {j!r}")
    j = int(j)
    if not 0 <= j <= k:
        raise DomainError(f"{what} must lie in [0, {k}], got {j}")
    return j


def binomial(n: int, j: int) -> int:
    """C(n, j) from a grown-on-demand Pascal triangle (exact int)."""
    if n < 0 or j < 0 or j > n:
        raise DomainError(f"binomial needs 0 <= j <= n, got n={n}, j={j}")
    while len(_pascal_rows) <= n:
        prev = _pascal_rows[-1]
        row = [1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1]
        _pascal_rows.append(row)
    return _pascal_rows[n][j]


def bernstein_eval(k: int, j: int, x: float) -> float:
    """Evaluate the degree-k Bernstein polynomial B_j at x in [0, 1]."""
    k = _check_degree(k)
    j = _check_index(j, k)
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"evaluation point must lie in [0, 1], got {x}")
    return binomial(k, j) * x**j * (1.0 - x) ** (k - j)


def basis_matrix(k: int, xs: np.ndarray) -> np.ndarray:
    """Rows = records, columns = B_0..B_k evaluated at each record.

    `xs` may carry leading axes: shape (..., n) gives (..., n, k+1).
    """
    k = _check_degree(k)
    xs = np.asarray(xs, dtype=np.float64)
    js = np.arange(k + 1)
    coef = np.array([float(binomial(k, j)) for j in js])
    return coef * xs[..., None] ** js * (1.0 - xs[..., None]) ** (k - js)


def bezier_matrix(k: int) -> tuple[tuple[Fraction, ...], ...]:
    """Exact matrix M with B_j(x) = sum_l M[j][l] * x**l (upper triangular)."""
    k = _check_degree(k)
    rows = []
    for j in range(k + 1):
        row = [Fraction(0)] * (k + 1)
        for l in range(j, k + 1):
            sign = -1 if (l - j) % 2 else 1
            row[l] = Fraction(sign * binomial(k, l) * binomial(l, j))
        rows.append(tuple(row))
    return tuple(rows)


def bezier_inverse(k: int) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse of `bezier_matrix(k)`: entries C(l, j) / C(k, j), j <= l."""
    k = _check_degree(k)
    rows = []
    for j in range(k + 1):
        row = [Fraction(0)] * (k + 1)
        for l in range(j, k + 1):
            row[l] = Fraction(binomial(l, j), binomial(k, j))
        rows.append(tuple(row))
    return tuple(rows)


def matrix_multiply(
    a: tuple[tuple[Fraction, ...], ...], b: tuple[tuple[Fraction, ...], ...]
) -> tuple[tuple[Fraction, ...], ...]:
    """Exact product of two square Fraction matrices (test/verification aid)."""
    m = len(a)
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(m)) for j in range(m))
        for i in range(m)
    )


def matrix_to_float(mat: tuple[tuple[Fraction, ...], ...]) -> np.ndarray:
    return np.array([[float(v) for v in row] for row in mat], dtype=np.float64)


def _check_dims(k: int, d) -> tuple[int, int]:
    k = _check_degree(k)
    if not isinstance(d, (int, np.integer)) or int(d) < 1:
        raise DomainError(f"dimension must be an integer >= 1, got {d!r}")
    d = int(d)
    if (k + 1) ** d > MAX_VECTOR_LEN:
        raise CapacityError(
            f"basis vector length (k+1)^d = {(k + 1) ** d} exceeds {MAX_VECTOR_LEN}"
        )
    return k, d


def multi_indices(k: int, d: int) -> list[tuple[int, ...]]:
    """All d-tuples over {0..k} in flat order (last coordinate fastest)."""
    k, d = _check_dims(k, d)
    return list(itertools.product(range(k + 1), repeat=d))


def flat_index(alpha: tuple[int, ...], k: int) -> int:
    """Position of multi-index alpha in the `multi_indices(k, len(alpha))` order."""
    k = _check_degree(k)
    if len(alpha) < 1:
        raise DomainError("multi-index must have at least one coordinate")
    pos = 0
    for a in alpha:
        a = _check_index(a, k, "multi-index coordinate")
        pos = pos * (k + 1) + a
    return pos


def multivariate_bernstein_eval(k: int, alpha: tuple[int, ...], z) -> float:
    """Product over coordinates of B_{alpha_i}(z_i)."""
    z = np.asarray(z, dtype=np.float64).reshape(-1)
    if len(alpha) != z.shape[0]:
        raise DomainError(
            f"multi-index has {len(alpha)} coordinates but point has {z.shape[0]}"
        )
    out = 1.0
    for a, zi in zip(alpha, z):
        out *= bernstein_eval(k, a, float(zi))
    return out


def bernstein_aggregate(values: np.ndarray, k: int) -> np.ndarray:
    """Sum of tensor-product basis vectors over all records.

    `values` has shape (..., n, d) with entries in [0, 1]: one (n, d)
    dataset, or a block of equally sized datasets along leading axes.
    Returns the flat aggregate of length (k+1)**d in `multi_indices` order,
    one per dataset.  Each dataset's records are added one after another,
    so a dataset's aggregate does not depend on the block it comes in.
    Summation is chunked so memory stays bounded for large n.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim < 2:
        raise DomainError(
            f"expected an (..., n, d) record array, got shape {values.shape}"
        )
    *lead, n, d = values.shape
    k, d = _check_dims(k, d)
    total = np.zeros((*lead, (k + 1) ** d), dtype=np.float64)
    chunk_sums = []
    for start in range(0, n, _AGG_CHUNK):
        block = values[..., start : start + _AGG_CHUNK, :]
        acc = basis_matrix(k, block[..., 0])
        for col in range(1, d):
            nxt = basis_matrix(k, block[..., col])
            acc = (acc[..., :, None] * nxt[..., None, :]).reshape(
                (*block.shape[:-1], (k + 1) ** (col + 1))
            )
        chunk_sums.append(acc.sum(axis=-2))
    if chunk_sums:
        total = np.sum(np.stack(chunk_sums), axis=0)
    return total


@lru_cache(maxsize=None, typed=True)
def _program(k, d):
    """Validated cell count of (k, d), and the sums that apply M^-1.

    One pass per tensor mode.  A pass lists, per matrix row j, the index of
    the output slice j along that mode, its first term and the rest, each
    an (input slice index, coefficient) pair over the row's nonzero entries;
    a first term with coefficient None holds two unit terms that one call
    adds.  `typed` gives a float or bool degree its own entry, so it is
    validated like any other.
    """
    k, d = _check_dims(k, d)
    passes = []
    for axis in range(d):
        pick = (slice(None),) * axis
        rows = []
        for j, row in enumerate(bezier_inverse(k)):
            terms = [(pick + (l,), float(v)) for l, v in enumerate(row) if v]
            first = terms.pop(0)
            if first[1] == 1.0 and terms and terms[0][1] == 1.0:
                first = ((first[0], terms.pop(0)[0]), None)
            rows.append((pick + (j, ...), first, terms))
        passes.append(rows)
    return (k + 1) ** d, passes


def tensor_apply_inverse(k: int, d: int, vec: np.ndarray, offset=None) -> np.ndarray:
    """Apply the inverse basis change along every tensor mode of flat vectors.

    Maps (possibly noisy) Bernstein aggregates, shape (..., (k+1)^d), to the
    corresponding unnormalized mixed power sums, without ever materializing
    the (k+1)^d x (k+1)^d Kronecker matrix.  Each output is a sum of
    elementwise products accumulated in a fixed order (no BLAS; products
    with an entry of exactly 1 are skipped, which changes no bit), so a
    row's result does not depend on how many rows are passed with it.

    `offset`, a vector of length (k+1)^d, is added to every row's result
    as its last step: ``offset + M^-1 vec``, the noisy power sums of a
    release whose exact sums are `offset` and whose basis noise is `vec`.
    """
    cells, passes = _program(k, d)
    vec = np.asarray(vec, dtype=np.float64)
    if vec.ndim == 0 or vec.shape[-1] != cells:
        raise DomainError(
            f"vector length {vec.shape[-1] if vec.ndim else 1} does not match "
            f"(k+1)^d = {cells}"
        )
    lead = vec.shape[:-1]
    shape = (k + 1,) * d + lead
    # cells first, rows last (a view, no copy): each output slice below is
    # then contiguous in the rows
    t = vec.T if len(lead) <= 1 else np.moveaxis(vec, -1, 0)
    if d > 1:
        t = t.reshape(shape)
    if offset is not None:
        # one offset per output slice of the last pass: a 0-d array for d=1
        # (the cheapest operand), else broadcast along the rows
        keep = (1,) * len(lead) if d > 1 else ()
        offset = np.asarray(offset, dtype=np.float64).reshape((k + 1,) * d + keep)
    for p, rows in enumerate(passes, start=1 - len(passes)):
        off = offset if p == 0 else None
        out = np.empty(shape)
        for dst, (src, c), rest in rows:
            acc = out[dst]
            if c is None:
                np.add(t[src[0]], t[src[1]], acc)
            elif c != 1.0:
                np.multiply(t[src], c, acc)
            elif rest or off is None:
                np.copyto(acc, t[src])
            else:  # a lone unit term: one call adds it to the offset
                np.add(t[src], off[dst], acc)
                continue
            for src, c in rest:
                np.add(acc, t[src] if c == 1.0 else c * t[src], acc)
            if off is not None:
                np.add(acc, off[dst], acc)
        t = out
    if d > 1:
        t = t.reshape((cells,) + lead)
    return t.T if len(lead) <= 1 else np.moveaxis(t, 0, -1)
