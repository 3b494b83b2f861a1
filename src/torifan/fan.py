"""Fans of rational polyhedral cones in Z^d and exact validation.

A fan is stored as its primitive ray generators plus the maximal cones as
index sets; every geometric question (smoothness, completeness, membership)
is decided in exact integer/rational arithmetic. Completeness is certified
in linear time: facets pair up, the two cones at each wall lie on opposite
sides of it, and one interior point is covered once, which together make
the cones cover space exactly once (the argument is in ``validate``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, wraps
from itertools import chain, combinations
from typing import Callable, Iterable, Sequence, TypeVar

from .lattice import (
    Matrix,
    Vector,
    adjugate,
    is_primitive,
    matrix_from_columns,
    solve_rational,
    vdot,
    vsum,
)

Cone = tuple[int, ...]
T = TypeVar("T")


def _ints(values, what: str) -> tuple[int, ...]:
    # bool is a subclass of int, and float or string entries must not be
    # truncated or parsed into a different fan
    out = tuple(values)
    if not all(type(x) is int for x in out):
        raise ValueError(f"{what} {list(out)!r} holds an entry that is not an integer")
    return out


def _all_ints(vectors: tuple) -> bool:
    # one set of types over all entries; an iterator is left to the per-vector check
    return {tuple, list}.issuperset(map(type, vectors)) and set(map(type, chain(*vectors))) <= {int}


def _normalize_cone(indices: Iterable[int]) -> Cone:
    out = tuple(sorted(indices))
    if len(set(out)) != len(out):
        raise ValueError(f"cone has repeated ray indices: {out}")
    return out


@dataclass(frozen=True)
class Fan:
    """G(fan) plus maximal cones; the sole model of a toric variety here.

    The constructor is the one check of shape. It raises ``ValueError`` on a
    ``dim`` that is not an int in {1, 2, 3}, an entry that is not an int, a
    repeated index in a cone and a ray without ``dim`` entries.

    Facts derived from a fan (validation report, primitive relations,
    extremality, keys) are computed once and kept on the instance; see
    ``report`` and ``memoised``.
    """

    dim: int
    rays: tuple[Vector, ...]
    max_cones: tuple[Cone, ...]

    def __post_init__(self):
        if type(self.dim) is not int or self.dim not in (1, 2, 3):
            raise ValueError(f"dim {self.dim!r} is not 1, 2 or 3")
        # the per-vector checks, which name the first offender, run only when
        # an entry is not an int; lazily, so cones are reported in order
        rays = tuple(self.rays)
        if not _all_ints(rays):
            rays = [_ints(r, "ray") for r in rays]
        object.__setattr__(self, "rays", tuple(map(tuple, rays)))
        cones = tuple(self.max_cones)
        if not _all_ints(cones):
            cones = (_ints(c, "cone") for c in cones)
        object.__setattr__(self, "max_cones", tuple(map(_normalize_cone, cones)))
        # lengths last, so that an entry that is not an int is reported first
        for r in self.rays:
            if len(r) != self.dim:
                raise ValueError(f"ray {r} does not have {self.dim} coordinates")

    @cached_property
    def report(self) -> ValidationReport:
        """``validate(self)``, computed on first use and kept with this fan."""
        return validate(self)

    @cached_property
    def _memo(self) -> dict:
        # values stored by ``memoised``, keyed by function name and arguments
        return {}

    def cone_columns(self, cone: Sequence[int]) -> Matrix:
        return matrix_from_columns([self.rays[i] for i in cone])

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "rays": [list(r) for r in self.rays],
            "max_cones": [list(c) for c in self.max_cones],
        }


def memoised(compute: Callable[..., T]) -> Callable[..., T]:
    """Run ``compute(fan, *args)`` once per fan instance and argument tuple.

    The value is kept in the instance ``__dict__``, which the frozen
    dataclass leaves writable (as ``cached_property`` does), so it takes no
    part in equality or hashing and is freed with the fan. There is no cache
    keyed by fan value: an equal fan built elsewhere computes its facts anew.
    The stored values must not refer back to the fan.

    ``cached.seed(fan, value, *args)`` stores a value known by other means,
    so that ``compute`` never runs for those arguments on that fan.
    """
    name = f"{compute.__module__}.{compute.__qualname__}"

    @wraps(compute)
    def cached(fan: Fan, *args):
        memo = fan._memo
        key = (name, *args)
        if key not in memo:
            memo[key] = compute(fan, *args)
        return memo[key]

    def seed(fan: Fan, value: T, *args) -> None:
        fan._memo[(name, *args)] = value

    cached.seed = seed
    return cached


def fan_from_dict(data: dict) -> Fan:
    """Fan from JSON data; a missing key or a value of the wrong type is a ``ValueError`` too."""
    try:
        return Fan(data["dim"], data["rays"], data["max_cones"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed fan data: {exc}") from exc


def fan_from_json(text: str) -> Fan:
    try:
        return fan_from_dict(json.loads(text))
    except RecursionError as exc:
        raise ValueError("fan JSON is nested too deeply") from exc


@dataclass(frozen=True)
class ValidationReport:
    is_simplicial: bool
    is_smooth: bool
    is_complete: bool
    offending_cones: tuple[tuple[str, tuple[int, ...]], ...] = field(default_factory=tuple)
    # read through ``maximal_cone_normals``; empty unless the report is ok
    cone_normals: tuple[Matrix, ...] = field(default=(), compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return self.is_simplicial and self.is_smooth and self.is_complete

    def to_dict(self) -> dict:
        return {
            "is_simplicial": self.is_simplicial,
            "is_smooth": self.is_smooth,
            "is_complete": self.is_complete,
            "offending_cones": [
                {"reason": reason, "indices": list(idx)} for reason, idx in self.offending_cones
            ],
        }


def cone_det_and_normals(fan: Fan, cone: Sequence[int]) -> tuple[int, Matrix]:
    """Determinant of a full-size cone's ray matrix, and its inward normals.

    Both come from the adjugate: adj * M = det * I, so det is row 0 of the
    adjugate against the first ray, and the rows are negated when det < 0.
    Row k is then positive on the k-th ray of the cone and zero on the
    others, so for det != 0 it is the inward normal of the facet opposite
    that ray, and  x in cone  <=>  every row . x >= 0. For rays a, b, c in
    dimension 3 the adjugate rows are the cross products b x c, c x a and
    a x b, read straight from the rays; dimensions 1 and 2 use ``adjugate``.
    """
    if len(cone) == 3:
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = map(fan.rays.__getitem__, cone)
        x0, x1, x2 = b1 * c2 - b2 * c1, b2 * c0 - b0 * c2, b0 * c1 - b1 * c0
        y0, y1, y2 = c1 * a2 - c2 * a1, c2 * a0 - c0 * a2, c0 * a1 - c1 * a0
        z0, z1, z2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
        det = a0 * x0 + a1 * x1 + a2 * x2
        if det < 0:
            return det, ((-x0, -x1, -x2), (-y0, -y1, -y2), (-z0, -z1, -z2))
        return det, ((x0, x1, x2), (y0, y1, y2), (z0, z1, z2))
    adj = adjugate(fan.cone_columns(cone))
    det = vdot(adj[0], fan.rays[cone[0]])
    if det < 0:
        adj = tuple([tuple([-x for x in row]) for row in adj])
    return det, adj


def maximal_cone_normals(fan: Fan) -> tuple[Matrix, ...]:
    """Inward normals of every maximal cone, in ``max_cones`` order, as ``validate`` keeps them.

    On a unimodular cone the rows are exactly the inverse of its ray matrix:
    row k gives the coordinate of a point along the k-th ray. They are an
    inverse only then, so this raises ``ValueError`` on a fan that does not
    validate, and every reader of the table comes through here.
    """
    report = fan.report
    if not report.ok:
        raise ValueError(f"fan does not validate: {report.offending_cones}")
    return report.cone_normals


def _equal_pairs(items: Sequence) -> list[tuple[int, int]]:
    """Index pairs i < j with ``items[i] == items[j]``, in lexicographic order."""
    groups: dict = {}
    for i, item in enumerate(items):
        groups.setdefault(item, []).append(i)
    return sorted(pair for group in groups.values() for pair in combinations(group, 2))


def validate(fan: Fan) -> ValidationReport:
    """Exact structural, smoothness and completeness checks.

    A simplicial fan is complete when three linear-time checks pass:

    1. every facet lies in exactly two maximal cones;
    2. at every such wall the two cones lie on opposite sides of it: the
       ray of the second cone off the wall is strictly negative on the first
       cone's inward normal of that facet;
    3. the point p = sum of the rays of ``max_cones[0]``, interior to that
       cone, lies in no other closed maximal cone.

    Why this suffices: count the cones containing a point x off the union of
    all facets. Along a path that avoids the codimension-2 faces this count
    changes only where the path crosses a facet, and by 1 and 2 one cone of
    that wall is left as the other is entered, so the count is one constant
    on all such points. Check 3 makes it 1 at p. Hence the cones cover space
    once: their union is everything and their interiors are disjoint, so
    every pair meets in a common face. A wall failing check 2, and cone 0
    together with a cone containing p, are reported as
    ``improper_intersection``; each such pair overlaps in an open set.

    Each maximal cone's adjugate is computed once (``cone_det_and_normals``);
    it gives the determinant and the inward normals, which a report that is
    ok keeps for ``maximal_cone_normals``.
    """
    offending: list[tuple[str, tuple[int, ...]]] = []
    n = len(fan.rays)
    used = set()
    for i, r in enumerate(fan.rays):
        if not any(r):
            offending.append(("zero_ray", (i,)))
        elif not is_primitive(r):
            offending.append(("non_primitive_ray", (i,)))
    if len(set(fan.rays)) != n:
        offending.extend(("duplicate_ray", pair) for pair in _equal_pairs(fan.rays))
    for ci, cone in enumerate(fan.max_cones):
        # the constructor sorts each cone, so its ends decide; an empty cone
        # is left to the size check below
        if cone and (cone[0] < 0 or cone[-1] >= n):
            offending.append(("bad_ray_index", (ci,)))
        used.update(cone)
    if len(set(fan.max_cones)) != len(fan.max_cones):
        offending.extend(("duplicate_cone", pair) for pair in _equal_pairs(fan.max_cones))
    # a bad index can make up the size of used, so its indices are compared
    if not used.issuperset(range(n)):
        offending.extend(("unused_ray", (i,)) for i in range(n) if i not in used)
    if offending:
        return ValidationReport(False, False, False, tuple(offending))

    is_simplicial = True
    is_smooth = True
    normals: list[Matrix] = []
    for ci, cone in enumerate(fan.max_cones):
        if len(cone) != fan.dim:
            is_simplicial = False
            offending.append(("cone_wrong_size", (ci,)))
            continue
        det, rows = cone_det_and_normals(fan, cone)
        normals.append(rows)
        if det == 0:
            is_simplicial = False
            offending.append(("cone_degenerate", (ci,)))
        elif det not in (1, -1):
            is_smooth = False
            offending.append(("cone_not_unimodular", (ci,)))
    is_smooth = is_smooth and is_simplicial

    is_complete = False
    if not fan.max_cones:
        # no rays and no cones: nothing covers space
        offending.append(("no_cones", ()))
    elif is_simplicial:
        is_complete = True
        # facet -> [(cone index, position of the ray opposite the facet)]
        walls: dict[Cone, list[tuple[int, int]]] = {}
        for ci, cone in enumerate(fan.max_cones):
            for k in range(fan.dim):
                walls.setdefault(cone[:k] + cone[k + 1:], []).append((ci, k))
        if any(len(pair) != 2 for pair in walls.values()):
            is_complete = False
            for ci, cone in enumerate(fan.max_cones):
                for facet in combinations(cone, fan.dim - 1):
                    if len(walls[facet]) != 2:
                        offending.append(("facet_unmatched", (ci,)))
        else:
            # the second cone at a wall must lie across it from the first
            for (ci, k), (cj, l) in walls.values():
                if vdot(normals[ci][k], fan.rays[fan.max_cones[cj][l]]) >= 0:
                    is_complete = False
                    offending.append(("improper_intersection", (ci, cj)))
            # p is interior to cone 0; no other cone may contain it
            p = vsum([fan.rays[i] for i in fan.max_cones[0]], fan.dim)
            for cj in range(1, len(fan.max_cones)):
                if all(vdot(row, p) >= 0 for row in normals[cj]):
                    is_complete = False
                    offending.append(("improper_intersection", (0, cj)))
    kept = tuple(normals) if is_smooth and is_complete else ()
    return ValidationReport(is_simplicial, is_smooth, is_complete, tuple(offending), kept)


def cone_contains(fan: Fan, cone: Sequence[int], v: Sequence[int]) -> bool:
    """Membership of a point in a (sub)cone via exact generator coordinates.

    Points outside the linear span are never contained.
    """
    gens = list(cone)
    if not gens:
        return all(x == 0 for x in v)
    coords = solve_rational(fan.cone_columns(gens), v)
    return coords is not None and all(c >= 0 for c in coords)


def star(fan: Fan, ray_index: int) -> tuple[Cone, ...]:
    """Maximal cones containing the given ray."""
    if not 0 <= ray_index < len(fan.rays):
        raise ValueError(f"ray index {ray_index} out of range")
    return tuple(c for c in fan.max_cones if ray_index in c)


def _ccw_key(v: Sequence) -> tuple:
    # (lower half-plane, off the x-axis, -x/y): the upper half starts at the
    # positive x-axis and the lower one at the negative x-axis, and within
    # either half the angle grows as x/y falls
    x, y = v
    if y == 0:
        return (x < 0, False, 0)
    return (y < 0, True, Fraction(-x, y))


def ccw_sorted(points: Sequence[tuple]) -> list[tuple]:
    """Sort nonzero 2D points counterclockwise around the origin (exact arithmetic).

    Used for the rays of a 2-fan, which are primitive and pairwise distinct.
    """
    return sorted(points, key=_ccw_key)


def fan_from_rays_2d(rays: Sequence[Sequence[int]]) -> Fan:
    """Complete 2-fan on the given rays: maximal cones join angular neighbours."""
    rays = [tuple(r) for r in rays]
    ordered = ccw_sorted(rays)
    index = {r: i for i, r in enumerate(rays)}
    cones = []
    for k in range(len(ordered)):
        a = index[ordered[k]]
        b = index[ordered[(k + 1) % len(ordered)]]
        cones.append(tuple(sorted((a, b))))
    return Fan(2, tuple(rays), tuple(cones))


def build_bundle(fiber: Fan, twist_plus: Sequence[int], twist_minus: Sequence[int]) -> Fan:
    """The 3-fan of the toric surface bundle over P1 with fiber ``fiber``.

    Rays are the fiber rays at base coordinate 0 plus the two sections
    (twist_plus, 1) and (twist_minus, -1); each fiber cone joins both. Zero
    twists give the product P1 x S.

    Over a smooth complete 2-fan every bundle is smooth and complete,
    whatever the twists (the bundle lemma): a cone (r1, r2, (w, +-1)) has
    determinant +-det(r1, r2), and a point (q, t) with t >= 0 is
    t * (w+, 1) plus the point q - t * w+ of the fiber plane, which some
    fiber cone holds (likewise for t < 0). The bundle is still validated;
    one that does not validate has an invalid fiber, and raises
    ``ValueError`` naming the offending cones.
    """
    if fiber.dim != 2:
        raise ValueError("bundle fiber must be 2-dimensional")
    n = len(fiber.rays)
    rays = [r + (0,) for r in fiber.rays]
    rays.append(tuple(twist_plus) + (1,))
    rays.append(tuple(twist_minus) + (-1,))
    cones = []
    for cone in fiber.max_cones:
        cones.append(tuple(sorted(cone + (n,))))
        cones.append(tuple(sorted(cone + (n + 1,))))
    fan = Fan(3, tuple(rays), tuple(cones))
    if not fan.report.ok:
        raise ValueError(f"bundle does not validate, so its fiber is invalid: {fan.report.offending_cones}")
    return fan
