"""Anticanonical polytope {m : <m, ray> >= -1} and exact degree (-K)^d.

Vertices come from exact d-subset intersection of the bounding halfspaces;
volume comes from a star triangulation at the origin (which is always
strictly interior). The degree is a sum over maximal cones (Brion's
formula), which needs no convexity. No tolerances: everything is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import prod
from typing import Sequence

from .fan import Fan, ccw_sorted, maximal_cone_normals
from .lattice import Vector, determinant, kernel_directions, solve_rational, vdot

RationalPoint = tuple[Fraction, ...]


@dataclass(frozen=True)
class AnticanPolytope:
    dim: int
    halfspaces: tuple[Vector, ...]  # inward normals; each constraint is <m, v> >= -1
    vertices: tuple[RationalPoint, ...]


def _is_bounded(rays: Sequence[Vector], dim: int) -> bool:
    # bounded iff the recession cone {m : <m, v> >= 0 for all rays} is trivial
    for subset in combinations(rays, dim - 1):
        for w in kernel_directions(list(subset), dim):
            if all(vdot(w, v) >= 0 for v in rays):
                return False
    return True


def anticanonical_polytope(fan: Fan) -> AnticanPolytope:
    """Exact V-representation of the section polytope of the anticanonical divisor."""
    rays = fan.rays
    d = fan.dim
    if not _is_bounded(rays, d):
        raise ValueError("anticanonical polytope is unbounded; the fan cannot be complete")
    target = [-1] * d
    vertices: set[RationalPoint] = set()
    for subset in combinations(range(len(rays)), d):
        m = tuple(rays[i] for i in subset)
        if determinant(m) == 0:
            continue
        point = solve_rational(m, target)
        assert point is not None
        pt = tuple(point)
        if all(vdot(pt, v) >= -1 for v in rays):
            vertices.add(pt)
    return AnticanPolytope(d, tuple(rays), tuple(sorted(vertices)))


def _polygon_area(points: Sequence[RationalPoint]) -> Fraction:
    ordered = ccw_sorted(points, center=_centroid(points))
    area = Fraction(0)
    for i in range(len(ordered)):
        x1, y1 = ordered[i]
        x2, y2 = ordered[(i + 1) % len(ordered)]
        area += x1 * y2 - x2 * y1
    return abs(area) / 2


def _centroid(points: Sequence[RationalPoint]) -> RationalPoint:
    n = len(points)
    return tuple(sum(p[i] for p in points) / n for i in range(len(points[0])))


def _det3_fraction(a, b, c) -> Fraction:
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def polytope_volume(poly: AnticanPolytope) -> Fraction:
    """Exact Euclidean volume via star triangulation from the origin."""
    d = poly.dim
    verts = poly.vertices
    if d == 1:
        xs = [v[0] for v in verts]
        return max(xs) - min(xs)
    if d == 2:
        return _polygon_area(verts)
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
            ordered2d = ccw_sorted(list(flat), center=_centroid(list(flat)))
            ordered = [flat[p] for p in ordered2d]
            base = ordered[0]
            for i in range(1, len(ordered) - 1):
                total += abs(_det3_fraction(base, ordered[i], ordered[i + 1]))
        return total / 6
    raise NotImplementedError("volume implemented for d <= 3")


def anticanonical_volume(fan: Fan) -> Fraction:
    return polytope_volume(anticanonical_polytope(fan))


def anticanonical_degree(fan: Fan) -> int:
    """(-K)^d of a smooth complete fan by Brion's formula.

    Each maximal cone sigma contributes <m, xi>^d / prod_j (-<w_j, xi>), where
    the w_j are its inward facet normals (the dual basis of its rays) and
    m = -sum_j w_j is the point with <m, ray> = -1 on every ray of sigma.
    With xi = (1, B, ..., B^(d-1)) and B above every |normal entry|, no
    <w_j, xi> is zero. No convexity is assumed, so the sum is (-K)^d also
    where -K is not nef; on weak Fano fans it is d! times the polytope volume.
    """
    if not fan.report.ok:
        raise ValueError("the anticanonical degree needs a smooth complete fan")
    normals = maximal_cone_normals(fan)
    base = 1 + max(abs(x) for rows in normals for row in rows for x in row)
    xi = tuple(base**i for i in range(fan.dim))
    total = Fraction(0)
    for rows in normals:
        weights = [vdot(row, xi) for row in rows]
        total += Fraction((-sum(weights)) ** fan.dim, prod(-w for w in weights))
    assert total.denominator == 1, "Brion's sum over a smooth complete fan is an integer"
    return int(total)
