"""Exact matrix helpers shared by the tests (not collected: no test_ prefix)."""

from fractions import Fraction


def matrix_multiply(
    a: tuple[tuple[Fraction, ...], ...], b: tuple[tuple[Fraction, ...], ...]
) -> tuple[tuple[Fraction, ...], ...]:
    """Exact product of two square Fraction matrices."""
    m = len(a)
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(m)) for j in range(m))
        for i in range(m)
    )
