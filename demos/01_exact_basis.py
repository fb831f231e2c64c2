#!/usr/bin/env python3
"""Exact Bernstein-basis algebra: the foundation every mechanism builds on.

The library releases statistics by perturbing a dataset's *Bernstein
aggregate* -- the sum over records of the degree-k Bernstein basis vector --
and then changing basis back to ordinary power sums.  Two algebraic facts
make that safe:

  1. the basis is a partition of unity, so each record contributes exactly
     one unit of L1 mass to the aggregate (this is what caps the privacy
     sensitivity at 1), and
  2. the basis-to-monomial matrix has a closed-form rational inverse, so the
     back-transform is exact, never fitted.

This demo verifies both facts numerically and in exact rational arithmetic,
then round-trips a real aggregate through the inverse.
"""

import numpy as np

import bezier_dp as bd


def matrix_multiply(a, b):
    """Exact product of two square Fraction matrices."""
    m = len(a)
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(m)) for j in range(m))
        for i in range(m)
    )


def banner(title):
    print()
    print(f"== {title} " + "=" * max(0, 66 - len(title)))


def main():
    banner("Partition of unity")
    xs = np.linspace(0.0, 1.0, 201)
    for k in (1, 2, 5, 20):
        resid = np.max(np.abs(bd.basis_matrix(k, xs).sum(axis=1) - 1.0))
        print(f"  degree k={k:>2}: max |sum_j B_j(x) - 1| over grid = {resid:.2e}")
    print("  -> every record adds exactly one unit of mass to the aggregate")

    banner("Closed-form rational inverse (degree 3)")
    m, minv = bd.bezier_matrix(3), bd.bezier_inverse(3)
    print("  inverse rows (entries C(l,j)/C(k,j), upper triangular):")
    for j, row in enumerate(minv):
        print(f"    j={j}: [{', '.join(str(f) for f in row)}]")
    ident = tuple(
        tuple(1 if i == j else 0 for j in range(4)) for i in range(4)
    )
    product = tuple(
        tuple(int(v) if v == int(v) else v for v in row)
        for row in matrix_multiply(m, minv)
    )
    print(f"  M @ M^-1 == identity exactly: {product == ident}")

    banner("Aggregate -> power sums, one column")
    src = bd.NoiseSource.seeded(42)
    data = bd.Dataset(src.uniforms01(1000))
    k = 4
    agg = bd.bernstein_aggregate(data.values, k)
    recovered = bd.tensor_apply_inverse(k, 1, agg)
    exact = bd.moments_unnormalized(data, k)
    print(f"  n = {data.n}, degree k = {k}")
    print(f"  aggregate cells sum to n: {agg.sum():.12f}")
    for j in range(k + 1):
        print(
            f"    sum x^{j}: recovered {recovered[j]:.10f}   "
            f"exact {exact[j]:.10f}   diff {abs(recovered[j] - exact[j]):.2e}"
        )

    banner("Aggregate -> mixed power sums, two columns")
    pairs = bd.Dataset(src.uniforms01(800).reshape(400, 2))
    agg2 = bd.bernstein_aggregate(pairs.values, 1)
    back = bd.tensor_apply_inverse(1, 2, agg2)
    x, y = pairs.column(0), pairs.column(1)
    labels = ["n", "sum y", "sum x", "sum xy"]
    exact2 = [pairs.n, y.sum(), x.sum(), (x * y).sum()]
    print(f"  degree k = 1 on {pairs.n} pairs; flat cell order is row-major")
    for lab, got, want in zip(labels, back, exact2):
        print(f"    {lab:>6}: {got:.10f}  (exact {want:.10f})")

    banner("Capacity guard")
    try:
        bd.bernstein_aggregate(pairs.values, bd.MAX_DEGREE + 1)
    except bd.CapacityError as exc:
        print(f"  degree {bd.MAX_DEGREE + 1} rejected: {exc}")


if __name__ == "__main__":
    main()
