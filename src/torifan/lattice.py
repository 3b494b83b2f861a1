"""Exact integer and rational linear algebra over Z^d.

Everything here works with plain Python ints (arbitrary precision); there is
no floating point anywhere in the package. Matrices are stored as tuples of
rows. Elimination is integer-preserving (Edmonds 1967; Bareiss 1968): one
pivot step, ``_pivot``, serves the n > 3 determinant, ``solve_rational`` and
the simplex of ``has_nonneg_combination``. Only the result of
``solve_rational`` is a ``fractions.Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]


def vec(coords: Sequence[int]) -> Vector:
    return tuple(int(c) for c in coords)


def vadd(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vsub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vdot(a: Sequence, b: Sequence):
    return sum(x * y for x, y in zip(a, b, strict=True))


def vsum(vectors: Sequence[Vector], dim: int) -> Vector:
    out = [0] * dim
    for v in vectors:
        for i, x in enumerate(v):
            out[i] += x
    return tuple(out)


def cross3(a: Sequence, b: Sequence) -> tuple:
    """Cross product in 3 coordinates (works for ints and Fractions)."""
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def matrix_from_columns(columns: Sequence[Sequence[int]]) -> Matrix:
    """Pack column vectors into a row-major matrix."""
    if not columns:
        return ()
    dim = len(columns[0])
    for c in columns:
        if len(c) != dim:
            raise ValueError("columns must share one dimension")
    return tuple(tuple(int(c[i]) for c in columns) for i in range(dim))


def matmul(a: Matrix, b: Matrix) -> Matrix:
    cols = len(b[0]) if b else 0
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols))
        for i in range(len(a))
    )


def matvec(a: Matrix, v: Sequence[int]) -> Vector:
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in a)


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def determinant(m: Matrix) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if n == 3:
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = m
        return (
            a0 * (b1 * c2 - b2 * c1)
            - a1 * (b0 * c2 - b2 * c0)
            + a2 * (b0 * c1 - b1 * c0)
        )
    rows = [list(row) for row in m]
    pivots, divisor, sign = _eliminate(rows, n)
    return sign * divisor if len(pivots) == n else 0


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


def _eliminate(rows: list[list[int]], ncols: int) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination on the first ``ncols`` columns.

    Works in place, pivoting on the first nonzero entry of each column in
    turn. Returns the pivot columns (pivot i sits in row i), the divisor of
    the final tableau and the sign of the row permutation. Every pivot row
    then holds the divisor in its pivot column, and zeros in the others.
    """
    pivots: list[int] = []
    divisor = 1
    sign = 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            sign = -sign
        divisor = _pivot(rows, r, c, divisor)
        pivots.append(c)
    return pivots, divisor, sign


def is_primitive(v: Sequence[int]) -> bool:
    """True iff the gcd of the coordinates is 1. Rejects the zero vector."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g == 0:
        raise ValueError("zero vector has no primitive direction")
    return g == 1


def make_primitive(v: Sequence[int]) -> Vector:
    """Divide a nonzero integer vector by the gcd of its coordinates."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g == 0:
        raise ValueError("zero vector has no primitive direction")
    return tuple(x // g for x in v)


def smith_normal_form(m: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Return (U, D, V) with U*m*V = D diagonal, d1 | d2 | ..., U, V unimodular."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [list(r) for r in m]
    u = [list(r) for r in identity(rows)]
    v = [list(r) for r in identity(cols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row_dst += c * row_src
        for j in range(cols):
            a[dst][j] += c * a[src][j]
        for j in range(rows):
            u[dst][j] += c * u[src][j]

    def add_col(src, dst, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        for j in range(cols):
            a[i][j] = -a[i][j]
        for j in range(rows):
            u[i][j] = -u[i][j]

    t = 0
    while t < min(rows, cols):
        # locate smallest nonzero entry in the remaining block
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        # clear row and column t, restarting whenever a remainder shrinks the pivot
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                # enforce divisibility of the trailing block by the pivot
                for i in range(t + 1, rows):
                    for j in range(t + 1, cols):
                        if a[i][j] % a[t][t] != 0:
                            add_row(i, t, 1)
                            dirty = True
                            break
                    if dirty:
                        break
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    d = tuple(tuple(a[i][j] for j in range(cols)) for i in range(rows))
    return (tuple(map(tuple, u)), d, tuple(map(tuple, v)))


def invariant_factors(m: Matrix) -> tuple[int, ...]:
    _, d, _ = smith_normal_form(m)
    return tuple(d[i][i] for i in range(min(len(d), len(d[0]) if d else 0)))


def solve_rational(a: Matrix, b: Sequence[int]) -> Optional[list[Fraction]]:
    """One exact solution of a*x = b, or None if the system is inconsistent.

    ``a`` is row-major (m rows, n cols) with ``b`` integral; free variables
    are set to zero.
    """
    n = len(a[0]) if a else 0
    rows = [[*row, y] for row, y in zip(a, b, strict=True)]
    pivots, divisor, _ = _eliminate(rows, n)
    if any(row[n] != 0 for row in rows[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for row, c in zip(rows, pivots):
        x[c] = Fraction(row[n], divisor)
    return x


def adjugate(m: Matrix) -> Matrix:
    """Classical adjugate; adj(m) * m = det(m) * I, all integer."""
    n = len(m)
    if n == 1:
        return ((1,),)
    if n == 2:
        return ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))
    if n == 3:
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = m
        return (
            (b1 * c2 - b2 * c1, a2 * c1 - a1 * c2, a1 * b2 - a2 * b1),
            (b2 * c0 - b0 * c2, a0 * c2 - a2 * c0, a2 * b0 - a0 * b2),
            (b0 * c1 - b1 * c0, a1 * c0 - a0 * c1, a0 * b1 - a1 * b0),
        )
    adj = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = tuple(
                tuple(m[r][c] for c in range(n) if c != i) for r in range(n) if r != j
            )
            row.append((-1) ** (i + j) * determinant(minor))
        adj.append(tuple(row))
    return tuple(adj)


def invert_unimodular(m: Matrix) -> Matrix:
    """Exact integer inverse of a matrix with determinant +-1."""
    det = determinant(m)
    if det == 1:
        return adjugate(m)
    if det == -1:
        return tuple(tuple(-x for x in row) for row in adjugate(m))
    raise ValueError("matrix is not unimodular")


def kernel_directions(rows: Sequence[Sequence[int]], dim: int) -> list[Vector]:
    """Primitive +-direction pair spanning the kernel of (dim-1) stacked rows, d <= 3."""
    if dim == 1:
        return [(1,), (-1,)]
    if dim == 2:
        (a,) = rows
        if a[0] == 0 and a[1] == 0:
            return []
        v = make_primitive((a[1], -a[0]))
        return [v, tuple(-x for x in v)]
    if dim == 3:
        a, b = rows
        v = cross3(a, b)
        if all(x == 0 for x in v):
            return []
        v = make_primitive(v)
        return [v, tuple(-x for x in v)]
    raise NotImplementedError("kernel directions implemented for d <= 3")


def has_nonneg_combination(columns: Sequence[Sequence[int]], target: Sequence[int]) -> bool:
    """Exact feasibility of  sum_j c_j * columns[j] = target  with  c_j >= 0.

    Phase-one simplex with Bland's rule; c need not be integral. The tableau
    [A | I | b] over the reduced-cost row is kept integral by ``_pivot``:
    the true tableau is it divided by the last pivot, which is positive
    because the ratio test pivots only on positive entries, so every sign
    test reads the integers directly and ratios compare by cross-multiplying.
    """
    m = len(target)
    k = len(columns)
    if k == 0:
        return all(b == 0 for b in target)
    ncols = k + m
    # rows with a negative target entry are negated, so that b >= 0
    tab = []
    for i, b in enumerate(target):
        sign = -1 if b < 0 else 1
        tab.append([sign * col[i] for col in columns] + [int(j == i) for j in range(m)] + [sign * b])
    # reduced costs of the artificial sum: 1 on artificial columns, minus the column sums
    red = [(k <= j < ncols) - sum(row[j] for row in tab) for j in range(ncols + 1)]
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
