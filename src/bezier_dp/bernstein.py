"""Bernstein basis evaluation and exact basis-change matrices.

The degree-k Bernstein polynomials on [0, 1],

    B_j(x) = C(k, j) * x**j * (1 - x)**(k - j),        j = 0..k,

form a partition of unity.  Summing the basis vector over the records of a
dataset gives aggregates whose L1 sensitivity under record addition/removal
is exactly 1, which is what makes them attractive carriers for calibrated
noise.  Power sums are recovered from Bernstein aggregates through an
upper-triangular basis change whose inverse has the closed form

    (M^-1)[j][l] = C(l, j) / C(k, j)       for j <= l, else 0.

All matrices here are exact `fractions.Fraction` values.  The numeric basis
is evaluated cells first: one kernel writes B_j for every point into its
own contiguous row, with powers built by repeated multiplication, and the
aggregate sums each tensor-product cell along its contiguous records.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import CapacityError, DomainError

MAX_DEGREE = 60
MAX_VECTOR_LEN = 1_000_000

# Most records, and most basis values, in one block of `bernstein_aggregate`.
_AGG_CHUNK = 1 << 16
_AGG_VALUES = 1 << 22


def _check_degree(k) -> int:
    if not isinstance(k, (int, np.integer)):
        raise DomainError(f"degree must be an integer, got {k!r}")
    k = int(k)
    if k < 1:
        raise DomainError(f"degree must be >= 1, got {k}")
    if k > MAX_DEGREE:
        raise CapacityError(f"degree {k} exceeds the supported maximum {MAX_DEGREE}")
    return k


def binomial(n: int, j: int) -> int:
    """C(n, j) as an exact int."""
    if n < 0 or j < 0 or j > n:
        raise DomainError(f"binomial needs 0 <= j <= n, got n={n}, j={j}")
    return math.comb(n, j)


def _basis_cells_first(k: int, xs: np.ndarray) -> np.ndarray:
    """B_0..B_k at every entry of `xs`: shape (k+1, *xs.shape), B_j in row j.

    Row j first holds x**j, built by repeated multiplication (no `pow`),
    and is then multiplied by (1-x)**(k-j) and, only when 0 < j < k, by
    C(k, j).  Every row is contiguous.
    """
    out = np.empty((k + 1,) + xs.shape)
    out[1] = xs
    for j in range(2, k + 1):
        np.multiply(out[j - 1], out[1], out=out[j])
    y = 1.0 - out[1]
    out[0] = y  # (1-x)**(k-j) as j falls; (1-x)**k when done
    for j in range(k - 1, 0, -1):
        out[j] *= out[0]
        out[0] *= y
    if k > 1:
        out[1:k] *= _binomials(k).reshape((k - 1,) + (1,) * xs.ndim)
    return out


@lru_cache(maxsize=None)
def _binomials(k: int) -> np.ndarray:
    """C(k, 1)..C(k, k-1) as floats (read-only: every call shares it)."""
    coef = np.array([float(binomial(k, j)) for j in range(1, k)])
    coef.flags.writeable = False
    return coef


def basis_matrix(k: int, xs: np.ndarray) -> np.ndarray:
    """Rows = records, columns = B_0..B_k evaluated at each record.

    `xs` may carry leading axes: shape (..., n) gives (..., n, k+1).  The
    result is a view of the cells-first kernel's (k+1, ..., n) array, so
    each column is contiguous in memory.
    """
    k = _check_degree(k)
    return np.moveaxis(_basis_cells_first(k, np.asarray(xs, dtype=np.float64)), 0, -1)


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


def bernstein_aggregate(values: np.ndarray, k: int) -> np.ndarray:
    """Sum of tensor-product basis vectors over all records.

    `values` has shape (..., n, d) with entries in [0, 1]: one (n, d)
    dataset, or a block of equally sized datasets along leading axes.
    Returns the flat aggregate of length (k+1)**d in `multi_indices` order,
    one per dataset.

    The basis is built cells first, shape (cells, datasets, records), and
    each cell is summed along its contiguous records (numpy's pairwise
    sum).  Records go in chunks of clamp(2**22 // cells, 1, 65536), whose
    sums are added in record order; datasets go in groups of at most about
    2**22 basis values.  Working memory is thus bounded whatever n, k and
    d are, and a dataset's aggregate does not depend on the block it
    comes in.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim < 2:
        raise DomainError(
            f"expected an (..., n, d) record array, got shape {values.shape}"
        )
    *lead, n, d = values.shape
    k, d = _check_dims(k, d)
    cells = (k + 1) ** d
    step = min(max(_AGG_VALUES // cells, 1), _AGG_CHUNK)
    flat = values.reshape((math.prod(lead), n, d))
    group = max(_AGG_VALUES // (cells * max(min(n, step), 1)), 1)
    total = np.zeros((flat.shape[0], cells))
    for first in range(0, flat.shape[0], group):
        for start in range(0, n, step):
            part = flat[first : first + group, start : start + step]
            acc = _basis_cells_first(k, part[..., 0])
            for col in range(1, d):
                nxt = _basis_cells_first(k, part[..., col])
                acc = (acc[:, None] * nxt).reshape((-1,) + part.shape[:-1])
            total[first : first + group] += acc.sum(axis=-1).T
    return total.reshape((*lead, cells))


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
