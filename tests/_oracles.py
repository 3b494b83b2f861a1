"""Independent reference implementations used as test oracles.

These deliberately avoid the package's own code paths: determinants by
cofactor expansion, invariant factors by minor gcds, linear solves by a
separate Gaussian elimination over Fraction, nonnegative feasibility by the
Fraction simplex that the integer-preserving one replaced, areas by the
shoelace formula, and fan completeness by the pairwise proper-intersection
search that ``validate`` used before its linear-time checks.

Some helpers are former library code that only tests use, kept here as it
was so that the assertions built on them keep their meaning: the
anticanonical polytope {m : <m, ray> >= -1} by exact vertex enumeration
with its volume by a star triangulation at the origin (``degree = d! *
volume`` checks Brion's formula in ``polytope.anticanonical_degree``), the
kernel directions of the pairwise search, the two-element relation
trichotomy, the Hirzebruch fans, the zero-two witness that inverted each
candidate basis, the subset scan for primitive collections, the section
relation that the 3-fold sweep located at each point of its box and the
bundle relations it lifted from it, the counterclockwise comparator that
``fan.ccw_sorted`` sorted by, the surface search that built, judged and
keyed every blow-up, and the
isomorphism invariants (ray and cone counts, relation degrees, the
anticanonical degree) that pruned the witness search.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from math import gcd
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
    """Solve a*x = b over Fraction, or None; a is a list of rows."""
    m = len(a)
    n = len(a[0]) if m else 0
    aug = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a, b)]
    where = [-1] * n
    row = 0
    for col in range(n):
        sel = next((i for i in range(row, m) if aug[i][col] != 0), None)
        if sel is None:
            continue
        aug[row], aug[sel] = aug[sel], aug[row]
        for i in range(m):
            if i != row:
                factor = aug[i][col] / aug[row][col]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[row])]
        where[col] = row
        row += 1
    x = [Fraction(0)] * n
    for col in range(n):
        if where[col] != -1:
            x[col] = aug[where[col]][n] / aug[where[col]][col]
    for i in range(m):
        if sum(aug_x * xx for aug_x, xx in zip(aug[i][:n], x)) != aug[i][n]:
            return None
    return x


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
    from torifan.lattice import matrix_from_columns, vdot

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
    coords = gauss_solve(matrix_from_columns(gens), v)
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
    from the other.
    """
    from torifan.lattice import adjugate

    m = fan.cone_columns(cone)
    det = cofactor_det(m)
    if det == 0:
        raise ValueError("cone generators are linearly dependent")
    adj = adjugate(m)
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
        det = cofactor_det(fan.cone_columns(cone))
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


def fraction_lp_feasible(columns, target) -> bool:
    """Exact feasibility of  sum_j c_j * columns[j] = target  with  c_j >= 0.

    Phase-one simplex over Fraction with Bland's rule; c need not be integral.
    The reference for ``lattice.has_nonneg_combination``.
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


def full_lp(fan, rel):
    """(columns, target) of the LP deciding extremality of a relation class
    against every other class that is not a positive multiple of it."""
    from torifan.primitive import primitive_collections

    def positive_multiple(u, v):
        pivot = next((i for i, x in enumerate(v) if x != 0), None)
        if pivot is None:
            return not any(u)
        q = Fraction(u[pivot], v[pivot])
        return q > 0 and all(Fraction(x) == q * y for x, y in zip(u, v))

    others = [
        r.cls
        for r in primitive_collections(fan)
        if r.collection != rel.collection and not positive_multiple(r.cls, rel.cls)
    ]
    return others, rel.cls


def full_lp_is_extremal(fan, rel) -> bool:
    """Extremality of a relation class against every other class, in one LP.

    The reference for ``primitive.is_extremal``, which on weak Fano fans
    tests a degree-0 class against the degree-0 classes only; the LP is
    solved by ``fraction_lp_feasible``, not by the package's solver.
    """
    others, target = full_lp(fan, rel)
    return not others or not fraction_lp_feasible(others, target)


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

    The reference for ``contraction.is_weakened_fano``, which asks
    extremality only of the relations whose shape is not ``zero_two``, and
    for ``contraction.crepant_contractions``, which is the table.
    """
    from torifan.contraction import contraction_shape
    from torifan.primitive import is_extremal, is_fano, is_weak_fano, primitive_collections

    weak = is_weak_fano(fan)
    table = []
    if weak:
        for rel in primitive_collections(fan):
            if rel.degree == 0 and is_extremal(fan, rel):
                table.append((rel, contraction_shape(fan, rel)))
    weakened = weak and not is_fano(fan) and all(kind.kind == "zero_two" for _, kind in table)
    return weakened, tuple(table)


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
    from torifan.lattice import invert_unimodular, matmul, matvec

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
    basis_inv = invert_unimodular(basis)
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

    from torifan.lattice import invert_unimodular, matvec

    best = None
    for cone in fan.max_cones:
        for perm in permutations(cone):
            basis = tuple(tuple(fan.rays[i][r] for i in perm) for r in range(fan.dim))
            transform = invert_unimodular(basis)
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


def reference_zero_two_witness(fan, rel):
    """``contraction.zero_two_normal_form_witness`` as it was before it read the
    cone inverses: for each candidate (x+, y+) invert the basis
    (x0, x+, y+), build U and test U*x- and U*y- against the normal form.

    The reference for the witness, which must return the same (U, names, a)
    or None, in the same candidate order. It keeps every check that the
    witness leaves to the fan's validity: the x- test, gamma = -1, a
    missing candidate cone and the comparison with the expected star.
    """
    from torifan.contraction import _NORMAL_FORM_BASIS
    from torifan.fan import star
    from torifan.lattice import invert_unimodular, matmul, matvec

    if fan.dim != 3:
        return None
    if len(rel.collection) != 2 or len(rel.coeffs) != 1 or rel.coeffs[0][1] != 2:
        return None
    x0 = rel.coeffs[0][0]
    pair = rel.collection
    star_cones = star(fan, x0)
    # every maximal cone at x0 must use exactly one of the two collapsing rays
    for cone in star_cones:
        if len(set(cone) & set(pair)) != 1:
            return None
    side_rays = sorted({i for cone in star_cones for i in cone} - {x0} - set(pair))
    if len(side_rays) != 2 or len(star_cones) != 4:
        return None
    cone_set = set(fan.max_cones)
    for xp, xm in (pair, pair[::-1]):
        for yp, ym in (tuple(side_rays), tuple(side_rays[::-1])):
            if tuple(sorted((x0, xp, yp))) not in cone_set:
                continue
            basis = tuple(
                tuple(fan.rays[i][r] for i in (x0, xp, yp)) for r in range(3)
            )
            try:
                u = matmul(_NORMAL_FORM_BASIS, invert_unimodular(basis))
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


def reference_primitive_collections(fan):
    """``primitive.primitive_collections`` as it was before it grew candidates
    from faces: scan every subset of 2 to d + 1 rays, keep the minimal
    non-faces, and locate each sum in the fan.

    The reference for the relations, which must be equal and in the same
    order.
    """
    from torifan.lattice import vsum
    from torifan.primitive import PrimitiveRelation, _face_set, locate_sigma

    if not fan.report.ok:
        raise ValueError(f"fan does not validate: {fan.report.offending_cones}")
    n = len(fan.rays)
    d = fan.dim
    faces = _face_set(fan)
    relations = []
    for size in range(2, d + 2):
        for combo in combinations(range(n), size):
            s = frozenset(combo)
            if s in faces:
                continue
            if any(s - {i} not in faces for i in combo):
                continue
            total = vsum([fan.rays[i] for i in combo], d)
            sigma, coeffs = locate_sigma(fan, total)
            degree = len(combo) - sum(a for _, a in coeffs)
            coeff_map = dict(coeffs)
            cls = tuple(
                (1 if i in s else 0) - coeff_map.get(i, 0) for i in range(n)
            )
            relations.append(
                PrimitiveRelation(tuple(combo), sigma, coeffs, degree, cls)
            )
    relations.sort(key=lambda r: r.collection)
    return tuple(relations)


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
    every ray.
    """
    from torifan.lattice import vadd
    from torifan.primitive import PrimitiveRelation, locate_sigma

    if fiber.dim != 2 or not fiber.report.ok:
        raise ValueError("bundle fiber must be a valid 2-dimensional fan")
    n = len(fiber.rays)
    sigma, coeffs = locate_sigma(fiber, vadd(twist_plus, twist_minus))
    coeff_map = dict(coeffs)
    cls = tuple(-coeff_map.get(i, 0) for i in range(n)) + (1, 1)
    return PrimitiveRelation((n, n + 1), sigma, coeffs, 2 - sum(a for _, a in coeffs), cls)


def reference_bundle_relations(fiber, section):
    """``primitive.bundle_relations`` as it was before the sweep listed its
    candidates: the relations of a bundle over ``fiber``, lifted from the
    fiber, for any twists.

    ``section`` is the bundle's ``reference_section_relation``. The faces of
    the bundle are the fiber faces, alone or joined to one section, so its
    minimal non-faces are those of the fiber plus the section pair. A fiber
    collection sums to a point of a fiber cone, which is a face of the
    bundle, so its relation keeps the cone, coefficients and degree, and its
    class gains a zero at each section. The section pair holds the two
    largest indices and comes last in collection order.
    """
    from torifan.primitive import PrimitiveRelation, primitive_collections

    lifted = tuple(
        PrimitiveRelation(r.collection, r.sigma, r.coeffs, r.degree, r.cls + (0, 0))
        for r in primitive_collections(fiber)
    )
    return lifted + (section,)


def surface_blowups(fan):
    """All one-point toric blow-ups: insert the ray sum of an adjacent pair."""
    from torifan.fan import fan_from_rays_2d
    from torifan.lattice import vadd

    for i, j in fan.max_cones:
        new_ray = vadd(fan.rays[i], fan.rays[j])
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
