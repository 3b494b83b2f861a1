"""Independent reference implementations used as test oracles.

These deliberately avoid the package's own code paths: determinants by
cofactor expansion, adjugates by signed minors, invariant factors by minor
gcds, linear solves by a separate division-free Gauss-Jordan elimination
(and with it unimodular inverses and cone membership), nonnegative
feasibility by the Fraction simplex that the integer-preserving one
replaced, areas by the shoelace formula, and fan completeness by the
pairwise proper-intersection search that ``validate`` used before its
linear-time checks.

Some helpers are former library code that only tests use, kept here as it
was so that the assertions built on them keep their meaning: the
anticanonical polytope {m : <m, ray> >= -1} by exact vertex enumeration
with its volume by a star triangulation at the origin (``degree = d! *
volume`` checks ``polytope.anticanonical_degree`` on weak Fano fans),
Brion's sum for the degree, which that function computed before it read
the wall degrees, the kernel directions of the pairwise search, the
two-element relation trichotomy, the Hirzebruch fans, the zero-two
witness that inverted each candidate basis, the contraction shapes that
solved for cone coordinates on every degree-0 relation,
the subset scan for primitive collections, the section
relation that the 3-fold sweep located at each point of its box and the
bundle relations it lifted from it, the counterclockwise comparator that
``fan.ccw_sorted`` sorted by, the surface search that built, judged and
keyed every blow-up, and the
isomorphism invariants (ray and cone counts, relation degrees, the
anticanonical degree) that pruned the witness search.

Projectivity is decided by one Fraction LP over the wall classes, and a
corpus of fans beyond the bundle family is grown by random blow-ups and
flops (``blow_up_flop_corpus``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from itertools import combinations, product
from math import gcd, prod
from typing import Optional


def cofactor_det(m) -> int:
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


def reference_adjugate(m) -> tuple:
    """adj(m)[i][j] = (-1)^(i + j) times the minor of m without row j and
    column i, so that adj(m) * m = det(m) * I; any square size >= 1,
    ``ValueError`` otherwise."""
    n = len(m)
    if n == 0 or any(len(row) != n for row in m):
        raise ValueError("not a square matrix")
    if n == 1:
        return ((1,),)

    def minor(r, c):
        return cofactor_det([row[:c] + row[c + 1:] for k, row in enumerate(m) if k != r])

    return tuple(tuple((-1) ** (i + j) * minor(j, i) for j in range(n)) for i in range(n))


def cone_columns(fan, cone) -> tuple:
    """The ray matrix of a cone: one column per ray, as a tuple of rows."""
    return tuple(zip(*(fan.rays[i] for i in cone), strict=True))


def minor_gcd_invariant_factors(m) -> list[int]:
    """d_k = gcd(k-minors) / gcd((k-1)-minors), the classical characterization."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    factors = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                sub = [[m[r][c] for c in ci] for r in ri]
                g = gcd(g, abs(cofactor_det(sub)))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def gauss_solve(a, b):
    """Solve a*x = b exactly, or None; a is a list of rows, x a list of Fractions.

    Gauss-Jordan elimination without division: clearing column c of row i
    replaces it by p * row_i - f * pivot_row, for the pivot p and f =
    row_i[c], so integer input stays integral until x is read off as
    Fractions. The systems here have at most a few rows, so the entries
    stay small.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    aug = [[*row, y] for row, y in zip(a, b)]
    where = [-1] * n
    row = 0
    for col in range(n):
        sel = next((i for i in range(row, m) if aug[i][col] != 0), None)
        if sel is None:
            continue
        aug[row], aug[sel] = aug[sel], aug[row]
        top = aug[row]
        p = top[col]
        for i in range(m):
            f = aug[i][col]
            if i != row and f != 0:
                aug[i] = [p * x - f * y for x, y in zip(aug[i], top)]
        where[col] = row
        row += 1
    # rows past the pivots are zero on the left, so they hold exactly when
    # their right-hand side is 0; the pivot rows hold with free variables 0
    if any(aug[i][n] != 0 for i in range(row, m)):
        return None
    x = [Fraction(0)] * n
    for col in range(n):
        if where[col] != -1:
            x[col] = Fraction(aug[where[col]][n]) / aug[where[col]][col]
    return x


@lru_cache(maxsize=None)
def reference_unimodular_inverse(m):
    """Integer inverse of a square matrix of determinant +-1, one column per
    ``gauss_solve`` of m*x = e_j; ``ValueError`` for any other matrix.

    m is singular exactly when some e_j is outside its column span, and an
    invertible integer matrix has an integer inverse exactly when its
    determinant is +-1. m is a tuple of rows; the inverses are cached, as
    the witness and isomorphism references invert the same bases over and
    over across the bundles of one fiber.
    """
    n = len(m)
    if n == 0 or any(len(row) != n for row in m):
        raise ValueError("not a square matrix")
    rows = [list(row) for row in m]
    columns = [gauss_solve(rows, [int(i == j) for i in range(n)]) for j in range(n)]
    if any(col is None or any(x.denominator != 1 for x in col) for col in columns):
        raise ValueError("matrix is not unimodular")
    return tuple(tuple(int(col[i]) for col in columns) for i in range(n))


def reference_cone_contains(fan, cone, v) -> bool:
    """``fan.cone_contains`` as the library had it: v is in the cone when
    ``gauss_solve`` finds coordinates along its rays and all are >= 0.
    Points outside the linear span are never contained."""
    if not cone:
        return all(x == 0 for x in v)
    columns = [[fan.rays[i][r] for i in cone] for r in range(fan.dim)]
    coords = gauss_solve(columns, v)
    return coords is not None and all(c >= 0 for c in coords)


def _ccw_around_centroid(points) -> list:
    """The vertices of a convex polygon in counterclockwise order."""
    cx = Fraction(sum(Fraction(p[0]) for p in points), len(points))
    cy = Fraction(sum(Fraction(p[1]) for p in points), len(points))

    def compare(p, q):
        ax, ay = p[0] - cx, p[1] - cy
        bx, by = q[0] - cx, q[1] - cy
        ha = 0 if (ay > 0 or (ay == 0 and ax > 0)) else 1
        hb = 0 if (by > 0 or (by == 0 and bx > 0)) else 1
        if ha != hb:
            return -1 if ha < hb else 1
        cross = ax * by - ay * bx
        return -1 if cross > 0 else (1 if cross < 0 else 0)

    return sorted(points, key=cmp_to_key(compare))


def _half_plane(v) -> int:
    # 0 for the closed upper half starting at the positive x-axis, 1 below
    if v[1] > 0 or (v[1] == 0 and v[0] > 0):
        return 0
    return 1


def reference_ccw_sorted(points) -> list:
    """``fan.ccw_sorted`` as it was before it sorted on a key: a comparator by
    half-plane, then by the sign of the cross product."""

    def compare(a, b):
        ha, hb = _half_plane(a), _half_plane(b)
        if ha != hb:
            return -1 if ha < hb else 1
        cross = a[0] * b[1] - a[1] * b[0]
        if cross > 0:
            return -1
        if cross < 0:
            return 1
        return 0

    return sorted(points, key=cmp_to_key(compare))


def shoelace_area(points) -> Fraction:
    """Area of a convex polygon given its vertices in any order."""
    ordered = _ccw_around_centroid(points)
    twice = Fraction(0)
    for i in range(len(ordered)):
        x1, y1 = ordered[i]
        x2, y2 = ordered[(i + 1) % len(ordered)]
        twice += Fraction(x1) * Fraction(y2) - Fraction(x2) * Fraction(y1)
    return abs(twice) / 2


@dataclass(frozen=True)
class AnticanPolytope:
    dim: int
    halfspaces: tuple  # inward normals; each constraint is <m, v> >= -1
    vertices: tuple


def _is_bounded(rays, dim: int) -> bool:
    from torifan.lattice import vdot

    # bounded iff the recession cone {m : <m, v> >= 0 for all rays} is trivial
    for subset in combinations(rays, dim - 1):
        for w in kernel_directions(list(subset), dim):
            if all(vdot(w, v) >= 0 for v in rays):
                return False
    return True


def anticanonical_polytope(fan) -> AnticanPolytope:
    """Exact V-representation of the section polytope of the anticanonical divisor."""
    from torifan.lattice import vdot

    rays = fan.rays
    d = fan.dim
    if not _is_bounded(rays, d):
        raise ValueError("anticanonical polytope is unbounded; the fan cannot be complete")
    target = [-1] * d
    vertices = set()
    for subset in combinations(range(len(rays)), d):
        m = tuple(rays[i] for i in subset)
        if cofactor_det(m) == 0:
            continue
        point = gauss_solve(m, target)
        assert point is not None
        pt = tuple(point)
        if all(vdot(pt, v) >= -1 for v in rays):
            vertices.add(pt)
    return AnticanPolytope(d, tuple(rays), tuple(sorted(vertices)))


def _det3_fraction(a, b, c) -> Fraction:
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def polytope_volume(poly: AnticanPolytope) -> Fraction:
    """Exact Euclidean volume via star triangulation from the origin."""
    from torifan.lattice import vdot

    d = poly.dim
    verts = poly.vertices
    if d == 1:
        xs = [v[0] for v in verts]
        return max(xs) - min(xs)
    if d == 2:
        return shoelace_area(verts)
    if d == 3:
        total = Fraction(0)
        for normal in poly.halfspaces:
            on_facet = [v for v in verts if vdot(v, normal) == -1]
            if len(on_facet) < 3:
                continue  # the constraint touches in a vertex or edge only
            # order the facet polygon by projecting out the largest normal coordinate
            drop = max(range(3), key=lambda i: abs(normal[i]))
            keep = [i for i in range(3) if i != drop]
            flat = {(v[keep[0]], v[keep[1]]): v for v in on_facet}
            if len(flat) < 3:
                continue
            ordered = [flat[p] for p in _ccw_around_centroid(list(flat))]
            base = ordered[0]
            for i in range(1, len(ordered) - 1):
                total += abs(_det3_fraction(base, ordered[i], ordered[i + 1]))
        return total / 6
    raise NotImplementedError("volume implemented for d <= 3")


def anticanonical_volume(fan) -> Fraction:
    return polytope_volume(anticanonical_polytope(fan))


def brion_degree(fan) -> int:
    """(-K)^d of a smooth complete fan by Brion's formula, over the inverses
    of ``reference_unimodular_inverse``.

    Each maximal cone sigma contributes <m, xi>^d / prod_j (-<w_j, xi>), where
    the w_j are its inward facet normals (the dual basis of its rays) and
    m = -sum_j w_j is the point with <m, ray> = -1 on every ray of sigma.
    With xi = (1, B, ..., B^(d-1)) and B above every |normal entry|, no
    <w_j, xi> is zero. No convexity is assumed, so the sum is (-K)^d also
    where -K is not nef. A sum that is not an integer raises
    ``ArithmeticError``.
    """
    normals = [reference_unimodular_inverse(cone_columns(fan, cone)) for cone in fan.max_cones]
    base = 1 + max(abs(x) for rows in normals for row in rows for x in row)
    xi = tuple(base**i for i in range(fan.dim))
    total = Fraction(0)
    for rows in normals:
        weights = [sum(a * b for a, b in zip(row, xi)) for row in rows]
        total += Fraction((-sum(weights)) ** fan.dim, prod(-w for w in weights))
    if total.denominator != 1:
        raise ArithmeticError(f"Brion's sum over a smooth complete fan must be an integer, not {total}")
    return int(total)


def lattice_points(fan, k: int) -> int:
    """The number of lattice points m with <m, v> >= -k on every ray v,
    h^0(-kK) of the toric variety (Cox, Little & Schenck 2011, ch. 9).

    Counted in the box of the points k*m_sigma, where m_sigma, with
    <m_sigma, v> = -1 on each ray of sigma, is minus the sum of the rows
    of ``reference_unimodular_inverse`` of sigma's ``cone_columns``. The
    box holds every such point when -K is nef, since the polytope is then
    the convex hull of the m_sigma; on other fans the count may be short.
    Over each point of the box's first d - 1 coordinates, each ray bounds
    the last coordinate on one side, or, when its last entry is 0, admits
    the whole line or none of it.
    """
    vertices = [
        [-k * sum(column) for column in zip(*inverse)]
        for _, inverse in _reference_cone_inverses(fan)
    ]
    box = [range(min(coords), max(coords) + 1) for coords in zip(*vertices)]
    count = 0
    for head in product(*box[:-1]):
        lo, hi = box[-1].start, box[-1].stop - 1
        for ray in fan.rays:
            # <m, ray> >= -k reads slack + m_last * last >= 0
            slack = k + sum(x * y for x, y in zip(head, ray))
            last = ray[-1]
            if last > 0:
                lo = max(lo, -(slack // last))
            elif last < 0:
                hi = min(hi, slack // -last)
            elif slack < 0:
                hi = lo - 1
        count += max(0, hi - lo + 1)
    return count


def brute_force_sigma(rays, max_cones, total):
    """All faces whose relative interior contains ``total`` (should be exactly one).

    Faces are enumerated as subsets of maximal cones; membership is decided
    with the oracle solver, independent of the package's integer path.
    """
    dim = len(rays[0])
    faces = set()
    for cone in max_cones:
        for k in range(len(cone) + 1):
            for sub in combinations(sorted(cone), k):
                faces.add(sub)
    hits = []
    for face in sorted(faces):
        if not face:
            if all(x == 0 for x in total):
                hits.append((face, ()))
            continue
        cols = [[rays[i][r] for i in face] for r in range(dim)]
        sol = gauss_solve(cols, total)
        if sol is not None and all(c > 0 for c in sol):
            hits.append((face, tuple(sol)))
    return hits


def random_unimodular(rng: random.Random, dim: int, shears: int = 10):
    """Random GL(d, Z) matrix with modest entries (products of elementary ops)."""
    m = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    for _ in range(shears):
        i, j = rng.sample(range(dim), 2)
        c = rng.choice([-2, -1, 1, 2])
        candidate = [row[:] for row in m]
        for k in range(dim):
            candidate[i][k] += c * candidate[j][k]
        if all(abs(x) <= 20 for row in candidate for x in row):
            m = candidate
        if rng.random() < 0.3:
            i, j = rng.sample(range(dim), 2)
            m[i], m[j] = m[j], m[i]
        if rng.random() < 0.3:
            i = rng.randrange(dim)
            m[i] = [-x for x in m[i]]
    return tuple(tuple(row) for row in m)


def rebase_fan(fan, matrix):
    """Apply a unimodular matrix to every ray (same cone combinatorics)."""
    from torifan.fan import Fan
    from torifan.lattice import matvec

    return Fan(fan.dim, tuple(matvec(matrix, r) for r in fan.rays), fan.max_cones)


def hirzebruch_fan(a: int):
    """Standard fan of the Hirzebruch surface of degree a >= 0 (a = 0 gives P1 x P1)."""
    from torifan.fan import fan_from_rays_2d

    if a < 0:
        raise ValueError("Hirzebruch degree must be nonnegative")
    return fan_from_rays_2d([(1, 0), (-1, 0), (0, 1), (a, -1)])


def in_relative_interior(fan, cone, v) -> bool:
    """Whether v is a combination of the rays of ``cone`` with every
    coefficient strictly positive, solved by ``gauss_solve``."""
    columns = [[fan.rays[i][r] for i in cone] for r in range(fan.dim)]
    coords = gauss_solve(columns, v)
    return coords is not None and all(c > 0 for c in coords)


def cross3(a, b) -> tuple:
    """Cross product in 3 coordinates (works for ints and Fractions)."""
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def make_primitive(v) -> tuple:
    """Divide a nonzero integer vector by the gcd of its coordinates."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g == 0:
        raise ValueError("zero vector has no primitive direction")
    return tuple(x // g for x in v)


def kernel_directions(rows, dim: int) -> list:
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


def _in_span_cone(gens, v) -> bool:
    """Exact membership of v in the cone on <= 2 independent integer generators.

    Integer arithmetic only; used by the proper-intersection test where the
    common face of two maximal cones has codimension >= 1.
    """
    from torifan.lattice import vdot

    if not gens:
        return all(x == 0 for x in v)
    d = len(v)
    if len(gens) == 1:
        s = gens[0]
        if d == 1:
            return v[0] * s[0] > 0 or v[0] == 0
        if d == 2:
            parallel = v[0] * s[1] - v[1] * s[0] == 0
        else:
            parallel = all(x == 0 for x in cross3(v, s))
        return parallel and vdot(v, s) > 0
    if len(gens) == 2 and d == 2:
        s1, s2 = gens
        det = s1[0] * s2[1] - s1[1] * s2[0]
        if det != 0:
            a = v[0] * s2[1] - v[1] * s2[0]
            b = s1[0] * v[1] - s1[1] * v[0]
            return a * det >= 0 and b * det >= 0
    if len(gens) == 2 and d == 3:
        s1, s2 = gens
        n = cross3(s1, s2)
        if any(x != 0 for x in n):
            if vdot(n, v) != 0:
                return False
            return vdot(cross3(v, s2), n) >= 0 and vdot(cross3(s1, v), n) >= 0
    coords = gauss_solve(list(zip(*gens, strict=True)), v)
    return coords is not None and all(c >= 0 for c in coords)


def _pair_intersects_properly(fan, ca, cb, normals_a, normals_b) -> bool:
    from torifan.lattice import vdot

    d = fan.dim
    common = [fan.rays[i] for i in sorted(set(ca) & set(cb))]
    rows = list(normals_a) + list(normals_b)
    seen = set()
    for subset in combinations(range(len(rows)), d - 1):
        for v in kernel_directions([rows[i] for i in subset], d):
            if v in seen:
                continue
            seen.add(v)
            if all(vdot(row, v) >= 0 for row in rows):
                # v is an extreme-ray candidate of the intersection
                if not _in_span_cone(common, v):
                    return False
    return True


def reference_inward_normals(fan, cone):
    """Integer rows n_k with  x in cone  <=>  n_k . x >= 0  (full-dim simplicial cone).

    n_k is positive on the k-th ray of the cone and zero on the others, so it
    is the inward normal of the facet opposite that ray. The determinant is
    taken apart from the adjugate, as the library did before it read one
    from the other, and both by minors (``reference_adjugate``).
    """
    m = cone_columns(fan, cone)
    det = cofactor_det(m)
    if det == 0:
        raise ValueError("cone generators are linearly dependent")
    adj = reference_adjugate(m)
    if det < 0:
        adj = tuple(tuple(-x for x in row) for row in adj)
    return adj


def reference_validate(fan):
    """``fan.validate`` as it was before it computed one adjugate per cone.

    It takes each cone's determinant and its inward normals separately and
    finds equal rays and cones by scanning all pairs; the report, the order
    of ``offending_cones`` included, must be the same.
    """
    from torifan.fan import ValidationReport
    from torifan.lattice import is_primitive, vdot, vsum

    offending: list[tuple[str, tuple[int, ...]]] = []
    n = len(fan.rays)
    used = set()
    for i, r in enumerate(fan.rays):
        if all(x == 0 for x in r):
            offending.append(("zero_ray", (i,)))
        elif not is_primitive(r):
            offending.append(("non_primitive_ray", (i,)))
    for i, j in combinations(range(n), 2):
        if fan.rays[i] == fan.rays[j]:
            offending.append(("duplicate_ray", (i, j)))
    for ci, cone in enumerate(fan.max_cones):
        if any(i < 0 or i >= n for i in cone):
            offending.append(("bad_ray_index", (ci,)))
        used.update(cone)
    for ci, cj in combinations(range(len(fan.max_cones)), 2):
        if fan.max_cones[ci] == fan.max_cones[cj]:
            offending.append(("duplicate_cone", (ci, cj)))
    for i in range(n):
        if i not in used:
            offending.append(("unused_ray", (i,)))
    if offending:
        return ValidationReport(False, False, False, tuple(offending))

    is_simplicial = True
    dets = {}
    for ci, cone in enumerate(fan.max_cones):
        if len(cone) != fan.dim:
            is_simplicial = False
            offending.append(("cone_wrong_size", (ci,)))
            continue
        det = cofactor_det(cone_columns(fan, cone))
        dets[ci] = det
        if det == 0:
            is_simplicial = False
            offending.append(("cone_degenerate", (ci,)))
        elif det not in (1, -1):
            offending.append(("cone_not_unimodular", (ci,)))
    is_smooth = is_simplicial and all(d in (1, -1) for d in dets.values())

    is_complete = False
    if not fan.max_cones:
        offending.append(("no_cones", ()))
    elif is_simplicial:
        is_complete = True
        walls = {}
        for ci, cone in enumerate(fan.max_cones):
            for k in range(fan.dim):
                walls.setdefault(cone[:k] + cone[k + 1:], []).append((ci, k))
        for ci, cone in enumerate(fan.max_cones):
            for facet in combinations(cone, fan.dim - 1):
                if len(walls[facet]) != 2:
                    is_complete = False
                    offending.append(("facet_unmatched", (ci,)))
        if is_complete:
            normals = tuple(reference_inward_normals(fan, cone) for cone in fan.max_cones)
            for (ci, k), (cj, l) in walls.values():
                if vdot(normals[ci][k], fan.rays[fan.max_cones[cj][l]]) >= 0:
                    is_complete = False
                    offending.append(("improper_intersection", (ci, cj)))
            p = vsum([fan.rays[i] for i in fan.max_cones[0]], fan.dim)
            for cj in range(1, len(fan.max_cones)):
                if all(vdot(row, p) >= 0 for row in normals[cj]):
                    is_complete = False
                    offending.append(("improper_intersection", (0, cj)))
    return ValidationReport(is_simplicial, is_smooth, is_complete, tuple(offending))


def pair_is_proper(fan, ci: int, cj: int) -> bool:
    """Whether maximal cones ci and cj of a simplicial fan meet in a common face."""
    ca, cb = fan.max_cones[ci], fan.max_cones[cj]
    return _pair_intersects_properly(
        fan, ca, cb, reference_inward_normals(fan, ca), reference_inward_normals(fan, cb)
    )


def pairwise_validate(fan) -> tuple[bool, bool, bool]:
    """(is_simplicial, is_smooth, is_complete) by facet pairing plus pairwise
    proper intersection of all maximal cones, an O(C^2) search."""
    n = len(fan.rays)
    structural_fault = (
        any(len(r) != fan.dim or not any(r) or gcd(*r) != 1 for r in fan.rays)
        or len(set(fan.rays)) != n
        or any(i < 0 or i >= n for c in fan.max_cones for i in c)
        or len(set(fan.max_cones)) != len(fan.max_cones)
        or {i for c in fan.max_cones for i in c} != set(range(n))
    )
    if structural_fault:
        return False, False, False
    dets = [
        cofactor_det([[fan.rays[i][r] for i in c] for r in range(fan.dim)])
        if len(c) == fan.dim
        else 0
        for c in fan.max_cones
    ]
    is_simplicial = all(dets)
    is_smooth = is_simplicial and all(d in (1, -1) for d in dets)
    if not is_simplicial:
        return False, False, False
    facet_count = {}
    for cone in fan.max_cones:
        for facet in combinations(cone, fan.dim - 1):
            facet_count[facet] = facet_count.get(facet, 0) + 1
    # no cones cover nothing, so a fan without cones is not complete
    is_complete = (
        bool(fan.max_cones)
        and all(count == 2 for count in facet_count.values())
        and all(
            pair_is_proper(fan, ci, cj) for ci, cj in combinations(range(len(fan.max_cones)), 2)
        )
    )
    return is_simplicial, is_smooth, is_complete


def reference_wall_relations(fan) -> dict:
    """The relation of every wall of a smooth complete fan, facet -> alphas.

    The facet's rays a_t and the rays c, d of its two cones off it satisfy
    c + d = sum alpha_t a_t. The alpha_t solve the normal equations
    G alpha = (a_t . (c + d)) of the Gram matrix G of the a_t, by Cramer's
    rule with ``cofactor_det``; they are listed in facet order, and each is
    an integer on a smooth fan.
    """
    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    out = {}
    for wall, (c, d) in far_rays(fan).items():
        total = [x + y for x, y in zip(fan.rays[c], fan.rays[d])]
        a = [fan.rays[i] for i in wall]
        gram = [[dot(u, v) for v in a] for u in a]
        rhs = [dot(u, total) for u in a]
        # alpha_t = numerators[t] / det; c + d must lie in the span of the a_t
        det = cofactor_det(gram) if a else 1
        numerators = [
            cofactor_det([row[:t] + [b] + row[t + 1:] for row, b in zip(gram, rhs)]) for t in range(len(a))
        ]
        combination = [dot(numerators, column) for column in zip(*a)] if a else [0] * fan.dim
        assert combination == [det * x for x in total], (fan.to_dict(), wall)
        alphas = [Fraction(numerator, det) for numerator in numerators]
        assert all(alpha.denominator == 1 for alpha in alphas), (fan.to_dict(), wall)
        out[wall] = tuple(int(alpha) for alpha in alphas)
    return out


def reference_wall_degrees(fan) -> dict:
    """-K.C of the curve of every wall of a smooth complete fan, facet -> degree:
    the degree 2 - sum alpha_t of the wall relation c + d - sum alpha_t a_t = 0."""
    return {wall: 2 - sum(alphas) for wall, alphas in reference_wall_relations(fan).items()}


DANTZIG_PIVOTS = 50


def fraction_lp_feasible(columns, target) -> bool:
    """Exact feasibility of  sum_j c_j * columns[j] = target  with  c_j >= 0.

    Phase-one simplex over Fraction; c need not be integral. The entering
    column is the most negative reduced cost (Dantzig's rule) for the first
    ``DANTZIG_PIVOTS`` pivots and the first negative one (Bland's rule) after
    that, so the method cannot cycle and terminates; ties in the ratio test
    go to the least basic index. The artificial sum is >= 0, so the system is
    feasible as soon as it reaches 0, and the search stops there. The
    reference for ``lattice.has_nonneg_combination``, whose integer simplex
    uses Bland's rule throughout, so the two take different pivot paths.
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
    pivots = 0
    while red[ncols] != 0:
        negative = [j for j in range(ncols) if red[j] < 0]
        if not negative:
            break
        enter = min(negative, key=red.__getitem__) if pivots < DANTZIG_PIVOTS else negative[0]
        pivots += 1
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


def reference_class(rel, rays):
    """The class of a relation of a fan with ``rays`` rays: 1 on the
    collection, minus each coefficient on its ray, 0 elsewhere."""
    coeffs = dict(rel.coeffs)
    return tuple((1 if i in rel.collection else 0) - coeffs.get(i, 0) for i in range(rays))


def full_lp(relations, rel, rays):
    """(columns, target) of the LP deciding extremality of a relation class
    against every other class of ``relations``, all the relations of a fan
    with ``rays`` rays, that is not a positive multiple of it."""

    def positive_multiple(u, v):
        pivot = next((i for i, x in enumerate(v) if x != 0), None)
        if pivot is None:
            return not any(u)
        q = Fraction(u[pivot], v[pivot])
        return q > 0 and all(Fraction(x) == q * y for x, y in zip(u, v))

    target = reference_class(rel, rays)
    others = []
    for r in relations:
        cls = reference_class(r, rays)
        if r.collection != rel.collection and not positive_multiple(cls, target):
            others.append(cls)
    return others, target


def full_lp_is_extremal(fan, rel) -> bool:
    """Extremality of a relation class against every other class, in one LP.

    The reference for ``primitive.is_extremal``, which on weak Fano fans
    tests a degree-0 class against the degree-0 classes only; the LP is
    solved by ``fraction_lp_feasible``, not by the package's solver.
    """
    from torifan.primitive import primitive_collections

    others, target = full_lp(primitive_collections(fan), rel, len(fan.rays))
    return not others or not fraction_lp_feasible(others, target)


def one_ray_certificate(classes, target):
    """(x, s) with s * target[x] < 0 and s * c[x] >= 0 for every c in
    ``classes``, or None when no ray gives one.

    z = s * e_x then has z . c >= 0 on every class and z . target < 0, so
    by Farkas' lemma ``target`` is no nonnegative combination of
    ``classes``. The reference for the one-ray test of
    ``primitive.is_extremal``, which reads per-ray counts of the classes'
    signs off the collections and sigmas; this reads each class entry by
    entry.
    """
    for x, entry in enumerate(target):
        if entry != 0:
            s = -1 if entry > 0 else 1
            if all(s * c[x] >= 0 for c in classes):
                return x, s
    return None


def lifted_certificate(classes, target, face):
    """A z with z . c >= 0 for every c in ``classes`` and z . target < 0,
    from ``one_ray_certificate`` on the classes tested against, or None
    when that finds none: on the degree-0 face when ``face``, else all.

    On the face, with every class of degree >= 0 (a weak Fano fan), s * e_x
    is lifted to s * e_x + t * (1, ..., 1). The all-ones vector reads the
    degree, the sum of the entries: 0 on the target and on the other
    degree-0 classes, positive on the rest, so the least t that makes z >= 0
    on all of them keeps z . target < 0. So a certificate on the face is a
    Farkas certificate of the full LP, which ``full_lp`` poses.
    """
    tested = [c for c in classes if sum(c) == 0] if face else classes
    found = one_ray_certificate(tested, target)
    if found is None:
        return None
    x, s = found
    # -(a // d) is the ceiling of -a / d for d > 0
    t = max((-(s * c[x] // sum(c)) for c in classes if s * c[x] < 0), default=0)
    return tuple(t + (s if i == x else 0) for i in range(len(target)))


def reference_crepant_relations(relations, rays):
    """The extremal degree-0 relations among ``relations``, all the relations
    of a fan with ``rays`` rays in order, each tested by one LP against
    every other class on all its entries (``full_lp``).

    The reference for ``primitive.crepant_relations``, which on a weak Fano
    fan tests against the degree-0 classes only, on the entries off one
    cone, after a lookup of sums of two classes. The LPs are solved by
    ``lattice.has_nonneg_combination``, which ``tests/test_lattice.py``
    checks against ``fraction_lp_feasible`` on these same LPs over the
    catalog and the 304 bundles of the sweep; the Fraction LP would take
    several seconds more here.
    """
    from torifan.lattice import has_nonneg_combination

    crepant = []
    for rel in relations:
        if rel.degree == 0:
            others, target = full_lp(relations, rel, rays)
            if not others or not has_nonneg_combination(others, target):
                crepant.append(rel)
    return tuple(crepant)


@dataclass(frozen=True)
class TwoElementShape:
    """Shape of a two-element primitive relation on a weak Fano fan."""

    kind: str  # "zero" | "single_ray" | "two_rays"
    a: Optional[int] = None  # coefficient for single_ray
    center: Optional[int] = None  # target ray index for single_ray


def two_element_relation_kind(rel) -> TwoElementShape:
    """Classify x1 + x2 = 0 / a*y (a in {1,2}) / y1 + y2; anything else errors.

    A two-element relation outside these three shapes cannot occur on a weak
    Fano fan, so hitting the error means the parent fan is not weak Fano.
    """
    if len(rel.collection) != 2:
        raise ValueError("relation does not come from a two-element collection")
    if not rel.coeffs:
        return TwoElementShape("zero")
    if len(rel.coeffs) == 1:
        (ray, a), = rel.coeffs
        if a in (1, 2):
            return TwoElementShape("single_ray", a=a, center=ray)
    if len(rel.coeffs) == 2 and all(a == 1 for _, a in rel.coeffs):
        return TwoElementShape("two_rays")
    raise ValueError(
        f"two-element relation with coefficients {rel.coeffs} violates the weak Fano trichotomy"
    )


def eager_weakened_verdict(fan):
    """(is_weakened, table) as the verdict was first computed: classify the
    shape of every extremal degree-0 relation of a weak Fano fan, then
    require weak Fano, not Fano, and every shape ``zero_two``.

    The reference for ``contraction.crepant_contractions``, which is the
    table, and for ``contraction.is_weakened_fano``, which walks the same
    relations and stops at the first shape that is not ``zero_two``. No
    part of it calls the package function it stands for: the relations
    come from the subset scan of ``reference_primitive_collections``, weak
    Fano and Fano from ``reference_wall_degrees``, extremality from
    ``reference_crepant_relations`` and each shape from
    ``reference_contraction_shape``.
    """
    degrees = reference_wall_degrees(fan).values()
    weak = all(d >= 0 for d in degrees)
    fano = all(d > 0 for d in degrees)
    table = ()
    if weak:
        table = tuple(
            (rel, reference_contraction_shape(fan, rel))
            for rel in reference_crepant_relations(reference_primitive_collections(fan), len(fan.rays))
        )
    weakened = weak and not fano and all(kind.kind == "zero_two" for _, kind in table)
    return weakened, table


def isomorphism_invariants(fan) -> tuple:
    """Cheap GL(d, Z) invariants used to prune non-isomorphic pairs.

    The fan must be valid, as ``anticanonical_degree`` requires.
    """
    from torifan.polytope import anticanonical_degree
    from torifan.primitive import primitive_collections

    degrees = tuple(sorted(r.degree for r in primitive_collections(fan)))
    return (len(fan.rays), len(fan.max_cones), degrees, anticanonical_degree(fan))


def reference_find_isomorphism(f, g):
    """``isomorphism.find_isomorphism`` as it was before it read coordinates
    from the cone inverses: invert the anchor basis, then map every
    ray of f through each candidate matrix.

    The reference for the witness search, which must return the same
    ``FanIso`` (matrix and ray permutation) in the same search order.
    """
    from itertools import permutations

    from torifan.isomorphism import FanIso
    from torifan.lattice import matmul, matvec

    if f.dim != g.dim:
        return None
    if len(f.rays) != len(g.rays) or len(f.max_cones) != len(g.max_cones):
        return None
    if isomorphism_invariants(f) != isomorphism_invariants(g):
        return None
    anchor = min(f.max_cones, key=lambda c: tuple(sorted(f.rays[i] for i in c)))
    anchor_sorted = sorted(anchor, key=lambda i: f.rays[i])
    basis = tuple(
        tuple(f.rays[i][r] for i in anchor_sorted) for r in range(f.dim)
    )
    basis_inv = reference_unimodular_inverse(basis)
    g_ray_index = {r: i for i, r in enumerate(g.rays)}
    g_cone_set = set(g.max_cones)
    for target in sorted(g.max_cones):
        for perm in permutations(target):
            image = tuple(tuple(g.rays[i][r] for i in perm) for r in range(g.dim))
            candidate = matmul(image, basis_inv)
            mapped = tuple(matvec(candidate, r) for r in f.rays)
            if any(r not in g_ray_index for r in mapped):
                continue
            ray_perm = tuple(g_ray_index[r] for r in mapped)
            if len(set(ray_perm)) != len(ray_perm):
                continue
            cones = {tuple(sorted(ray_perm[i] for i in c)) for c in f.max_cones}
            if cones == g_cone_set:
                return FanIso(candidate, ray_perm)
    return None


def reference_canonical_key(fan) -> bytes:
    """``isomorphism.canonical_key`` as it was before it read coordinates from
    the cone inverses: for every maximal cone in every ray order,
    invert the basis, map every ray, serialize the whole form with
    ``json.dumps`` and keep the smallest bytes.

    The reference for the key, whose bytes must be identical.
    """
    import json
    from itertools import permutations

    from torifan.lattice import matvec

    best = None
    for cone in fan.max_cones:
        for perm in permutations(cone):
            basis = tuple(tuple(fan.rays[i][r] for i in perm) for r in range(fan.dim))
            transform = reference_unimodular_inverse(basis)
            transformed = tuple(matvec(transform, r) for r in fan.rays)
            rays = sorted(transformed)
            remap = {r: new_index for new_index, r in enumerate(rays)}
            cones = sorted(
                tuple(sorted(remap[transformed[i]] for i in c)) for c in fan.max_cones
            )
            data = json.dumps(
                {"dim": fan.dim, "rays": [list(r) for r in rays], "max_cones": [list(c) for c in cones]},
                separators=(",", ":"),
            ).encode()
            if best is None or data < best:
                best = data
    if best is None:
        raise ValueError("fan has no maximal cones")
    return best


def reference_four_cone_star(fan, rel):
    """(x0, (x+, x-), (y+, y-)) when rel is x+ + x- = 2*x0 on a 3-fan and the
    star of x0 has four maximal cones, each holding exactly one of x+ and
    x-, and two side rays y+ < y-; None otherwise."""
    if fan.dim != 3:
        return None
    if len(rel.collection) != 2 or len(rel.coeffs) != 1 or rel.coeffs[0][1] != 2:
        return None
    x0 = rel.coeffs[0][0]
    pair = rel.collection
    star_cones = [c for c in fan.max_cones if x0 in c]
    # every maximal cone at x0 must use exactly one of the two collapsing rays
    for cone in star_cones:
        if len(set(cone) & set(pair)) != 1:
            return None
    side_rays = tuple(sorted({i for cone in star_cones for i in cone} - {x0} - set(pair)))
    if len(side_rays) != 2 or len(star_cones) != 4:
        return None
    return x0, pair, side_rays


def reference_zero_two_witness(fan, rel):
    """``contraction.zero_two_normal_form_witness`` as it was before it read
    what ``validate`` keeps (now the relation of the wall {x0, x+}): for
    each candidate (x+, y+) invert the basis (x0, x+, y+), build U and test
    U*x- and U*y- against the normal form; (U, names, a) for the first
    candidate that passes.

    The reference for the witness, which must return its a, or None, and
    for ``contraction._shape``, whose exceptional ray is its x0. It keeps
    every check that the witness leaves to the fan's validity or to its
    argument: the star search, the search over the four orientations, the
    x- test, gamma = -1, a missing candidate cone and the comparison with
    the expected star. So it also answers on a relation that is not
    crepant, where the witness's wall {x0, x+} need not be a cone.
    """
    from torifan.lattice import matmul, matvec

    star = reference_four_cone_star(fan, rel)
    if star is None:
        return None
    x0, pair, side_rays = star
    star_cones = [c for c in fan.max_cones if x0 in c]
    cone_set = set(fan.max_cones)
    # the columns x0 = (1, 0, 0), x+ = (1, 1, 0) and y+ = (0, 0, 1) of the normal form
    normal_form = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    for xp, xm in (pair, pair[::-1]):
        for yp, ym in (side_rays, side_rays[::-1]):
            if tuple(sorted((x0, xp, yp))) not in cone_set:
                continue
            basis = tuple(
                tuple(fan.rays[i][r] for i in (x0, xp, yp)) for r in range(3)
            )
            try:
                u = matmul(normal_form, reference_unimodular_inverse(basis))
            except ValueError:
                continue
            if matvec(u, fan.rays[xm]) != (1, -1, 0):
                continue
            image_ym = matvec(u, fan.rays[ym])
            if image_ym[0] != 0 or image_ym[2] != -1 or image_ym[1] < 0:
                continue
            a = image_ym[1]
            expected_cones = {
                tuple(sorted((x0, xp, yp))),
                tuple(sorted((x0, xp, ym))),
                tuple(sorted((x0, xm, yp))),
                tuple(sorted((x0, xm, ym))),
            }
            if set(star_cones) != expected_cones:
                continue
            return u, (x0, xp, xm, yp, ym), a
    return None


def reference_contraction_shape(fan, rel):
    """The shape of a degree-0 relation on a 3-fold as ``contraction`` read
    it before it read the cone inverses, and before Reid's theorem cut it
    down to the crepant relations: the zero-two shape from
    ``reference_zero_two_witness``, ``other`` when its a is above 2, for
    x1 + x2 = y1 + y2 the coordinates of each y in the cone on x1 and x2
    from ``reference_cone_contains``, and ``other`` for any shape left.

    The reference for ``contraction._shape`` on the crepant relations, and
    on any degree-0 relation the count of every branch that ``_shape`` no
    longer has."""
    from torifan.contraction import ContractionKind

    if len(rel.collection) == 2 and len(rel.coeffs) == 1:
        witness = reference_zero_two_witness(fan, rel)
        if witness is None or witness[2] > 2:
            return ContractionKind("other")
        return ContractionKind("zero_two", a=witness[2], exceptional_ray=witness[1][0])
    if len(rel.collection) == 3 and len(rel.coeffs) == 1:
        return ContractionKind("divisor_to_point")
    if len(rel.collection) == 2 and len(rel.coeffs) == 2:
        if all(reference_cone_contains(fan, rel.collection, fan.rays[t]) for t, _ in rel.coeffs):
            return ContractionKind("other")
        return ContractionKind("small")
    return ContractionKind("other")


def reference_faces(fan) -> set:
    """Every face of every maximal cone, the empty face included, as frozensets."""
    return {
        frozenset(face)
        for cone in fan.max_cones
        for k in range(len(cone) + 1)
        for face in combinations(cone, k)
    }


@lru_cache(maxsize=1024)
def _reference_cone_inverses(fan) -> tuple:
    # (cone, inverse) for each maximal cone; the few fibers, located in over
    # and over, stay in the cache
    return tuple((cone, reference_unimodular_inverse(cone_columns(fan, cone))) for cone in fan.max_cones)


def reference_locate(fan, total):
    """``primitive.locate_sigma`` without the inverses that ``validate``
    keeps: (sigma, coeffs) from the first maximal cone whose
    ``reference_unimodular_inverse`` of its ``cone_columns`` gives ``total``
    no negative coordinate, sigma being the rays of positive coordinate.
    Takes a valid fan."""
    for cone, inverse in _reference_cone_inverses(fan):
        coords = [sum(x * y for x, y in zip(row, total, strict=True)) for row in inverse]
        if all(c >= 0 for c in coords):
            coeffs = tuple((i, c) for i, c in zip(cone, coords) if c > 0)
            return tuple(i for i, _ in coeffs), coeffs
    raise ValueError(f"no cone contains {total}")


def _checked_relation(collection, sigma, coeffs, degree, cls):
    """``PrimitiveRelation(collection, coeffs)``, once the sigma, degree and
    class that it derives, read through ``to_dict``, are the given ones."""
    from torifan.primitive import PrimitiveRelation

    rel = PrimitiveRelation(collection, coeffs)
    expected = {
        "collection": list(collection),
        "sigma": list(sigma),
        "coeffs": {str(i): a for i, a in coeffs},
        "degree": degree,
        "class": list(cls),
    }
    assert rel.to_dict(len(cls)) == expected, (rel, expected)
    return rel


def _reference_relation_fields(fan):
    # (collection, sigma, coeffs, degree, class) of every minimal non-face,
    # in lexicographic order of the collections
    if not fan.report.ok:
        raise ValueError(f"fan does not validate: {fan.report.offending_cones}")
    n = len(fan.rays)
    d = fan.dim
    faces = reference_faces(fan)
    fields = []
    for size in range(2, d + 2):
        for combo in combinations(range(n), size):
            s = frozenset(combo)
            if s in faces:
                continue
            if any(s - {i} not in faces for i in combo):
                continue
            total = [sum(fan.rays[i][r] for i in combo) for r in range(d)]
            sigma, coeffs = reference_locate(fan, total)
            degree = len(combo) - sum(a for _, a in coeffs)
            coeff_map = dict(coeffs)
            cls = tuple(
                (1 if i in s else 0) - coeff_map.get(i, 0) for i in range(n)
            )
            fields.append((tuple(combo), sigma, coeffs, degree, cls))
    fields.sort()
    return fields


def reference_primitive_collections(fan):
    """``primitive.primitive_collections`` as it was before it grew candidates
    from faces: scan every subset of 2 to d + 1 rays, keep the minimal
    non-faces (``reference_faces``), and locate each sum in the fan
    (``reference_locate``).

    The reference for the relations, which must be equal and in the same
    order. Each relation's sigma, degree and class are computed here too,
    and ``_checked_relation`` compares them with those the relation derives.
    """
    return tuple(_checked_relation(*fields) for fields in _reference_relation_fields(fan))


def reference_section_relation(fiber, twist_plus, twist_minus):
    """``primitive.section_relation`` as it was before the sweep listed its
    candidates: the relation of the two sections of
    ``build_bundle(fiber, twist_plus, twist_minus)``, found by locating
    w = w+ + w- in the fiber. Its degree is 2 - phi(w).

    After the n fiber rays (v, 0) come x+ = (w+, 1) at index n and
    x- = (w-, -1) at index n + 1. They share no cone, and their sum (w, 0),
    w = w+ + w-, lies in the fiber cone that holds w, a face of the bundle.
    So the relation is x+ + x- = sum of a_i * (v_i, 0) with the fiber
    coordinates a_i of w, found once in the fiber, and its degree is
    2 - phi(w), phi being the fiber's piecewise-linear function that is 1 on
    every ray. Its sigma, degree and class are checked as in
    ``reference_primitive_collections``.
    """
    if fiber.dim != 2 or not fiber.report.ok:
        raise ValueError("bundle fiber must be a valid 2-dimensional fan")
    n = len(fiber.rays)
    w = tuple(p + m for p, m in zip(twist_plus, twist_minus, strict=True))
    sigma, coeffs = reference_locate(fiber, w)
    coeff_map = dict(coeffs)
    cls = tuple(-coeff_map.get(i, 0) for i in range(n)) + (1, 1)
    return _checked_relation((n, n + 1), sigma, coeffs, 2 - sum(a for _, a in coeffs), cls)


def sweep_bundles_b3():
    """The 304 bundles that the twist-bound-3 sweep builds, built afresh on
    every call: w- = 0, and w in [-6, 6]^2 over each catalog surface with a
    ``reference_section_relation`` of degree >= 0."""
    from torifan.catalog import surfaces
    from torifan.fan import build_bundle

    return [
        build_bundle(nf.fan, (sx, sy), (0, 0))
        for nf in surfaces()
        for sx in range(-6, 7)
        for sy in range(-6, 7)
        if reference_section_relation(nf.fan, (sx, sy), (0, 0)).degree >= 0
    ]


def reference_bundle_relations(fiber, section):
    """``primitive.bundle_relations`` as it was before the sweep listed its
    candidates: the relations of a bundle over ``fiber``, lifted from the
    fiber's ``reference_primitive_collections``, for any twists.

    ``section`` is the bundle's ``reference_section_relation``. The faces of
    the bundle are the fiber faces, alone or joined to one section, so its
    minimal non-faces are those of the fiber plus the section pair. A fiber
    collection sums to a point of a fiber cone, which is a face of the
    bundle, so its relation keeps the cone, coefficients and degree, and its
    class gains a zero at each section; each lifted relation is checked so
    on the bundle's n + 2 rays. The section pair holds the two largest
    indices and comes last in collection order.
    """
    return _reference_lifted(fiber) + (section,)


@lru_cache(maxsize=None)
def _reference_lifted(fiber) -> tuple:
    # the few fibers are each lifted for many twists
    return tuple(
        _checked_relation(combo, sigma, coeffs, degree, cls + (0, 0))
        for combo, sigma, coeffs, degree, cls in _reference_relation_fields(fiber)
    )


def surface_blowups(fan):
    """All one-point toric blow-ups: insert the ray sum of an adjacent pair."""
    from torifan.fan import fan_from_rays_2d

    for i, j in fan.max_cones:
        new_ray = tuple(a + b for a, b in zip(fan.rays[i], fan.rays[j], strict=True))
        yield fan_from_rays_2d(list(fan.rays) + [new_ray])


def reference_weak_del_pezzo():
    """``classify.enumerate_weak_del_pezzo`` as it was before it ran on
    self-intersection sequences: build every blow-up, judge it with
    ``is_weak_fano`` and deduplicate the kept ones by ``canonical_key``.

    The reference for the search, whose ``to_dict()`` and ``stats`` must be
    equal.
    """
    from torifan import catalog
    from torifan.classify import (
        SURFACE_STAGES,
        ClassEntry,
        ClassificationReport,
        _surface_invariants,
    )
    from torifan.isomorphism import canonical_key
    from torifan.primitive import is_weak_fano

    named = {nf.name: nf.fan for nf in catalog.surfaces()}
    seeds = [named["P2"], named["P1xP1"], named["F2"]]
    stats = dict.fromkeys(SURFACE_STAGES, 0)
    stats["seeds"] = len(seeds)
    seen = {}
    queue = []
    for fan in seeds:
        key = canonical_key(fan)
        if key not in seen:
            seen[key] = fan
            queue.append(fan)
    while queue:
        fan = queue.pop()
        for blown in surface_blowups(fan):
            stats["blowups"] += 1
            if not is_weak_fano(blown):
                continue
            stats["weak_fano"] += 1
            key = canonical_key(blown)
            if key in seen:
                stats["duplicates"] += 1
            else:
                seen[key] = blown
                queue.append(blown)
    stats["classes"] = len(seen)
    names = {canonical_key(nf.fan): nf.name for nf in catalog.surfaces()}
    entries = [
        ClassEntry(key, seen[key], _surface_invariants(seen[key]), names.get(key))
        for key in sorted(seen)
    ]
    return ClassificationReport(
        count=len(entries),
        classes=tuple(entries),
        scope="smooth toric weak del Pezzo surfaces (blow-up closure over minimal models)",
        stats=stats,
    )


def non_projective_fan():
    """A smooth complete 3-fan with 8 rays, from P1 x P1 x P1 by two point
    blow-ups and four flops, built afresh on every call. Every wall degree
    is >= 0, but the classes of four walls sum to 0, so no divisor is
    positive on every wall curve: it is not projective, hence not weak Fano
    either, although its walls say so."""
    from torifan.fan import Fan

    return Fan(
        3,
        ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1), (-1, 1, -1), (1, -1, 1)),
        ((0, 2, 5), (1, 3, 4), (1, 3, 5), (0, 3, 5), (1, 5, 6), (2, 5, 6), (0, 3, 7), (3, 4, 7),
         (0, 2, 7), (2, 4, 7), (1, 4, 6), (2, 4, 6)),
    )


def far_rays(fan) -> dict:
    """Each wall of a complete fan, facet -> [c, d]: the rays of its two
    maximal cones off it, read by scanning the cones, in cone order."""
    off: dict = {}
    for cone in fan.max_cones:
        for ray in cone:
            off.setdefault(tuple(i for i in cone if i != ray), []).append(ray)
    return off


def reference_is_projective(fan) -> bool:
    """Whether some divisor is positive on every wall curve, which on a
    complete fan is projectivity (the toric Kleiman criterion; Cox, Little
    & Schenck 2011, ch. 6).

    By Gordan's theorem it holds exactly when no nonnegative combination of
    the wall classes, with weights summing to 1, is 0: one LP over the
    columns (class, 1) with the target (0, ..., 0, 1), solved by
    ``fraction_lp_feasible``. A wall class is 1 at the two rays off the
    wall, found by ``far_rays``, and -alpha_t at its facet rays, with the
    alpha_t of ``reference_wall_relations``. The sum of a class's entries is
    its degree, a linear function, so when no wall has a negative degree
    only classes of degree 0 can have a positive weight in such a
    combination, and the LP takes only those.
    """
    n = len(fan.rays)
    alphas = reference_wall_relations(fan)
    columns = set()
    for facet, (c, d) in far_rays(fan).items():
        cls = [0] * n + [1]
        cls[c] = cls[d] = 1
        for t, alpha in zip(facet, alphas[facet]):
            cls[t] = -alpha
        columns.add(tuple(cls))
    if all(sum(cls) >= 1 for cls in columns):
        columns = {cls for cls in columns if sum(cls) == 1}
    return not fraction_lp_feasible(sorted(columns), (0,) * n + (1,))


def blow_up_flop_moves(fan, max_rays) -> tuple[list, list]:
    """(blow-ups, flops): the moves from a smooth complete 3-fan, each as
    (new ray or None, cones taken, cones added), in sorted order.

    The blow-up of a point adds the ray a + b + c in the cone (a, b, c),
    and that of a curve adds a + b on the wall {a, b}, each while the fan
    has fewer than ``max_rays`` rays. The flop across a wall {a, b} whose
    far rays satisfy c + d = a + b replaces (a, b, c) and (a, b, d) by
    (a, c, d) and (b, c, d). Each keeps the fan smooth, since
    det(a, b, a + b + c), det(a, a + b, c) and det(a, c, a + b - c) are
    det(a, b, c) up to sign, and complete, since the cones added cover what
    the cones taken covered (Oda 1988; Reid 1983).
    """
    n = len(fan.rays)
    grow = n < max_rays
    blowups, flops = [], []
    for a, b, c in sorted(fan.max_cones) if grow else ():
        ray = tuple(map(sum, zip(fan.rays[a], fan.rays[b], fan.rays[c])))
        blowups.append((ray, [(a, b, c)], [(a, b, n), (a, c, n), (b, c, n)]))
    for (a, b), (c, d) in sorted(far_rays(fan).items()):
        taken = [tuple(sorted((a, b, c))), tuple(sorted((a, b, d)))]
        if grow:
            ray = tuple(x + y for x, y in zip(fan.rays[a], fan.rays[b]))
            blowups.append((ray, taken, [(a, c, n), (b, c, n), (a, d, n), (b, d, n)]))
        if all(w + x == y + z for w, x, y, z in zip(fan.rays[c], fan.rays[d], fan.rays[a], fan.rays[b])):
            flops.append((None, taken, [(a, c, d), (b, c, d)]))
    return blowups, flops


def blow_up_flop_corpus(seed, walks, steps, max_rays) -> list:
    """One fan per isomorphism class met by ``walks`` random walks of up to
    ``steps`` moves of ``blow_up_flop_moves``, in the order met.

    Each walk starts from a catalog 3-fold or ``non_projective_fan``, and
    takes a flop, when there is one, with probability 1/2, and otherwise a
    blow-up. The walks go over all smooth complete fans, weak Fano or not,
    projective or not, so they leave the bundle family. The moves and the
    starts are listed in sorted order, so a seed gives the same corpus in
    every process. Classes are told apart by ``canonical_key``.
    """
    from torifan.catalog import all_named
    from torifan.fan import Fan
    from torifan.isomorphism import canonical_key

    rng = random.Random(seed)
    starts = [nf.fan for _, nf in sorted(all_named().items()) if nf.fan.dim == 3]
    starts.append(non_projective_fan())
    classes = {}
    for fan in starts:
        classes.setdefault(canonical_key(fan), fan)
    for _ in range(walks):
        fan = rng.choice(starts)
        for _ in range(steps):
            blowups, flops = blow_up_flop_moves(fan, max_rays)
            moves = flops if flops and (not blowups or rng.random() < 0.5) else blowups
            if not moves:
                break
            ray, taken, added = rng.choice(moves)
            cones = set(fan.max_cones).difference(taken).union(tuple(sorted(c)) for c in added)
            fan = Fan(3, fan.rays + (ray,) if ray else fan.rays, tuple(sorted(cones)))
            assert fan.report.ok, fan.to_dict()
            classes.setdefault(canonical_key(fan), fan)
    return list(classes.values())
