"""Exact integer and rational linear algebra over Z^d.

Everything here works with plain Python ints (arbitrary precision) and
``fractions.Fraction``; there is no floating point anywhere in the package.
Matrices are stored as tuples of rows.
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
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


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


def solve_rational(a: Matrix, b: Sequence) -> Optional[list[Fraction]]:
    """One exact solution of a*x = b, or None if the system is inconsistent.

    ``a`` is row-major (m rows, n cols); free variables are set to zero.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    rows = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a, b, strict=True)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if rows[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for pr, pc in pivots:
        x[pc] = rows[pr][n]
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


def has_nonneg_combination(columns: Sequence[Sequence[int]], target: Sequence) -> bool:
    """Exact feasibility of  sum_j c_j * columns[j] = target  with  c_j >= 0.

    Phase-one simplex over Fraction with Bland's rule; c need not be integral.
    """
    m = len(target)
    k = len(columns)
    rows = []
    rhs = []
    for i in range(m):
        coeffs = [Fraction(col[i]) for col in columns]
        b = Fraction(target[i])
        if b < 0:
            coeffs = [-x for x in coeffs]
            b = -b
        rows.append(coeffs)
        rhs.append(b)
    if k == 0:
        return all(b == 0 for b in rhs)
    # tableau [A | I | b], artificial basis, minimize the artificial sum
    tab = [rows[i] + [Fraction(1 if j == i else 0) for j in range(m)] + [rhs[i]] for i in range(m)]
    basis = [k + i for i in range(m)]
    ncols = k + m
    red = [Fraction(0)] * (ncols + 1)
    for j in range(ncols):
        cost = Fraction(1) if j >= k else Fraction(0)
        red[j] = cost - sum(tab[i][j] for i in range(m))
    red[ncols] = -sum(tab[i][ncols] for i in range(m))
    while True:
        enter = next((j for j in range(ncols) if red[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][ncols] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            # the artificial objective is bounded below by 0, so this cannot happen
            raise AssertionError("unbounded phase-one objective")
        pv = tab[leave][enter]
        tab[leave] = [x / pv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        f = red[enter]
        red = [x - f * y for x, y in zip(red, tab[leave])]
        basis[leave] = enter
    return red[ncols] == 0
