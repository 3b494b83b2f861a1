"""Exact integer linear algebra over Z^d.

Everything here works with plain Python ints (arbitrary precision); there is
no floating point anywhere in the package. Matrices are stored as tuples of
rows. A ``Fan`` has 1 to 3 coordinates, so ``vdot`` of 2- and 3-entry
vectors and ``matvec`` of 2 x 2 and 3 x 3 matrices are written out in
closed form (tuple unpacking and one arithmetic expression per entry,
no generator or per-row loop). Nothing here takes a determinant, inverts
or solves a square system: a cone's determinant and adjugate, whose rows on
a unimodular cone are its inverse, are written out from its rays for each
size by ``fan.cone_det_and_normals``. Other shapes, and ``vsum``, run on
``map`` with ``operator.mul``, ``sum`` and ``zip(*...)``. Every kernel
raises ``ValueError`` on vectors of mismatched lengths instead of
truncating; in the closed forms the unpacking does that. The one
elimination is the simplex of ``has_nonneg_combination``, kept integral by
the pivot step ``_pivot`` (Edmonds 1967; Bareiss 1968).
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import Sequence

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]


def vdot(a: Sequence, b: Sequence):
    n = len(a)
    if n == 3:
        a0, a1, a2 = a
        x, y, z = b
        return a0 * x + a1 * y + a2 * z
    if n == 2:
        a0, a1 = a
        x, y = b
        return a0 * x + a1 * y
    if n != len(b):
        raise ValueError(f"vectors of lengths {n} and {len(b)} do not match")
    return sum(map(mul, a, b))


def vsum(vectors: Sequence[Vector], dim: int) -> Vector:
    """Sum of vectors of length ``dim``; the zero vector if there are none."""
    if not vectors:
        return (0,) * dim
    out = tuple(map(sum, zip(*vectors, strict=True)))
    if len(out) != dim:
        raise ValueError(f"vectors of length {len(out)} do not have {dim} entries")
    return out


def matmul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def matvec(a: Matrix, v: Sequence[int]) -> Vector:
    n = len(v)
    if n == 3 and len(a) == 3:
        x, y, z = v
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = a
        return (a0 * x + a1 * y + a2 * z, b0 * x + b1 * y + b2 * z, c0 * x + c1 * y + c2 * z)
    if n == 2 and len(a) == 2:
        x, y = v
        (a0, a1), (b0, b1) = a
        return (a0 * x + a1 * y, b0 * x + b1 * y)
    for row in a:
        if len(row) != n:
            raise ValueError(f"matrix row of length {len(row)} against a vector of length {n}")
    return tuple([sum(map(mul, row, v)) for row in a])


def _pivot(rows: list[list[int]], r: int, e: int, prev: int) -> int:
    """Integer-preserving pivot on ``rows[r][e]``; returns the new divisor.

    The rows hold a tableau scaled by ``prev``. With p = rows[r][e], every
    other row i becomes (p * rows[i] - rows[i][e] * rows[r]) // prev, and the
    tableau is then scaled by p. The division is exact: each entry is a minor
    of the starting matrix (Sylvester's identity).
    """
    top = rows[r]
    p = top[e]
    for i, row in enumerate(rows):
        if i != r:
            f = row[e]
            rows[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
    return p


def is_primitive(v: Sequence[int]) -> bool:
    """True iff the gcd of the coordinates is 1. Rejects the zero vector."""
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no primitive direction")
    return g == 1


def has_nonneg_combination(columns: Sequence[Sequence[int]], target: Sequence[int]) -> bool:
    """Exact feasibility of  sum_j c_j * columns[j] = target  with  c_j >= 0.

    Phase-one simplex with Bland's rule; c need not be integral. The tableau
    [A | I | b] over the reduced-cost row is kept integral by ``_pivot``:
    the true tableau is it divided by the last pivot, which is positive
    because the ratio test pivots only on positive entries, so every sign
    test reads the integers directly and ratios compare by cross-multiplying.
    With no columns every reduced cost but b's is 0, so it answers b == 0.
    """
    m = len(target)
    k = len(columns)
    ncols = k + m
    # rows with a negative target entry are negated, so that b >= 0
    tab = []
    for i, b in enumerate(target):
        sign = -1 if b < 0 else 1
        tab.append([sign * col[i] for col in columns] + [int(j == i) for j in range(m)] + [sign * b])
    # reduced costs of the artificial sum: 1 on artificial columns, minus the column sums
    red = [(k <= j < ncols) - total for j, total in enumerate(map(sum, zip(*tab)))]
    tab.append(red)
    basis = [k + i for i in range(m)]
    divisor = 1
    while True:
        red = tab[m]
        enter = next((j for j in range(ncols) if red[j] < 0), None)
        if enter is None:
            return red[ncols] == 0
        leave = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                # b_i / a  against  b_leave / a_leave, both denominators positive
                lhs = tab[i][ncols] * tab[leave][enter]
                rhs = tab[leave][ncols] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            # the artificial objective is bounded below by 0, so this cannot happen
            raise AssertionError("unbounded phase-one objective")
        divisor = _pivot(tab, leave, enter, divisor)
        basis[leave] = enter
