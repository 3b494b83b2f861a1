"""Primitive collections, primitive relations, degrees and Mori-cone data.

A primitive collection is a minimal set of rays not spanning a cone of the
fan. Its element sum lies in the relative interior of a unique cone, which
yields the primitive relation, its degree (the anticanonical intersection
number of the corresponding 1-cycle class) and its class vector, an
integer relation among the rays and a primitive vector (see
``is_extremal``). Extremality of a class is decided exactly, against one
table of distinct classes per fan, by the integer-preserving simplex of
``lattice.has_nonneg_combination``; on a weak Fano fan a degree-0 class
needs only the other degree-0 classes. Two exact steps shrink that work.
A class that is the sum of two of the columns is not extremal, since 1 on
those two columns is a feasible point of the LP, and it is found by a set
lookup. The LPs that remain keep only the n - d entries off the first
maximal cone: the rays of a cone are linearly independent, so a
relation's entries on them follow from the others, and dropping them
loses nothing on the relations, where every class and every combination
of classes lies. The collections are grown from the faces of the fan
(``primitive_collections``); those of the surface bundles over P1 that the
3-fold sweep builds are lifted from the fiber, each beside the relation of
its two sections, read off the fiber's cones (``bundle_candidates``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import sub

from .fan import Fan, maximal_cone_normals, memoised
from .lattice import (
    Vector,
    has_nonneg_combination,
    matvec,
    vsum,
)


@dataclass(frozen=True)
class PrimitiveRelation:
    """collection sum = sum of coeffs over the generators of sigma, exactly."""

    collection: tuple[int, ...]
    sigma: tuple[int, ...]
    coeffs: tuple[tuple[int, int], ...]  # (ray index, positive coefficient), sorted
    degree: int
    cls: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "collection": list(self.collection),
            "sigma": list(self.sigma),
            "coeffs": {str(i): a for i, a in self.coeffs},
            "degree": self.degree,
            "class": list(self.cls),
        }


def _face_set(fan: Fan) -> set[frozenset[int]]:
    faces: set[frozenset[int]] = set()
    for cone in fan.max_cones:
        for k in range(len(cone) + 1):
            for face in combinations(cone, k):
                faces.add(frozenset(face))
    return faces


def locate_sigma(fan: Fan, total: Vector) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """The cone with the sum in its relative interior, with coefficients.

    The first maximal cone containing the sum holds it in the relative
    interior of the face spanned by its positive coordinates. On a valid fan
    the cones meet in common faces, so no other cone gives another face.
    """
    for cone, inv in zip(fan.max_cones, maximal_cone_normals(fan)):
        coords = matvec(inv, total)
        if all(c >= 0 for c in coords):
            coeffs = tuple((i, c) for i, c in zip(cone, coords) if c > 0)
            return tuple(i for i, _ in coeffs), coeffs
    raise ValueError(f"no cone contains {total}; fan is not complete")


@memoised
def primitive_collections(fan: Fan) -> tuple[PrimitiveRelation, ...]:
    """All primitive relations, in lexicographic order of the collections.

    Every proper subset of a minimal non-face is a face, so dropping its
    largest index leaves a face: the candidates of size k are the faces of
    size k - 1 extended by a larger index, each met once. Faces have at most
    d elements, so minimal non-faces have at most d + 1.
    """
    maximal_cone_normals(fan)  # refuses a fan that does not validate
    n = len(fan.rays)
    d = fan.dim
    faces = _face_set(fan)
    relations = []
    for face in faces:
        # the empty face gets an empty range: its extensions, single rays, are faces
        for j in range(max(face, default=n) + 1, n):
            s = face | {j}
            if s in faces or any(s - {i} not in faces for i in face):
                continue
            combo = tuple(sorted(s))
            total = vsum([fan.rays[i] for i in combo], d)
            sigma, coeffs = locate_sigma(fan, total)
            degree = len(combo) - sum(a for _, a in coeffs)
            coeff_map = dict(coeffs)
            cls = tuple(
                (1 if i in s else 0) - coeff_map.get(i, 0) for i in range(n)
            )
            relations.append(
                PrimitiveRelation(combo, sigma, coeffs, degree, cls)
            )
    relations.sort(key=lambda r: r.collection)
    return tuple(relations)


# taken at import, so it still reaches the memo when a wrapper (a tracer, a
# call counter) is later put in place of ``primitive_collections``
seed_primitive_collections = primitive_collections.seed


def bundle_candidates(fiber: Fan) -> tuple[tuple[Vector, tuple[PrimitiveRelation, ...]], ...]:
    """Each section sum w with phi(w) <= 2 over ``fiber``, in increasing
    order, with the primitive relations of its bundle.

    The bundle of w has the n fiber rays (v, 0), x+ = (w, 1) at index n and
    x- = (0, -1) at index n + 1. Its faces are the fiber faces, alone or
    joined to one section, so its minimal non-faces are those of the fiber
    plus the section pair. A fiber collection sums to a point of a fiber
    cone, a face of the bundle, so its relation keeps the cone,
    coefficients and degree, and its class gains a zero at each section;
    these are lifted once per fiber. The pair {x+, x-} sums to (w, 0), so
    with w = p*v_i + q*v_j (p, q >= 0) in the fiber cone (v_i, v_j) its
    relation is x+ + x- = p*(v_i, 0) + q*(v_j, 0), of degree 2 - (p + q) =
    2 - phi(w), phi being the fiber's piecewise-linear function that is 1
    on every ray. It holds the two largest indices and comes last in
    collection order.

    So the sums with phi(w) <= 2 are the p*v_i + q*v_j with p + q <= 2 over
    the fiber's cones: 0, each v_i, each 2*v_i and the sum of each cone's
    two rays. On a smooth complete 2-fan every point has one such form, so
    n rays give 3n + 1 sums.
    """
    if fiber.dim != 2:
        raise ValueError("bundle fiber must be 2-dimensional")
    n = len(fiber.rays)
    lifted = tuple(
        PrimitiveRelation(r.collection, r.sigma, r.coeffs, r.degree, r.cls + (0, 0))
        for r in primitive_collections(fiber)
    )
    sections: dict[Vector, PrimitiveRelation] = {}
    for i, j in fiber.max_cones:
        (xi, yi), (xj, yj) = fiber.rays[i], fiber.rays[j]
        for p in range(3):
            for q in range(3 - p):
                coeffs = tuple((k, a) for k, a in ((i, p), (j, q)) if a > 0)
                cls = [0] * n + [1, 1]
                cls[i], cls[j] = -p, -q
                sections[(p * xi + q * xj, p * yi + q * yj)] = PrimitiveRelation(
                    (n, n + 1), tuple(k for k, _ in coeffs), coeffs, 2 - p - q, tuple(cls)
                )
    return tuple((w, lifted + (sections[w],)) for w in sorted(sections))


def picard_rank(fan: Fan) -> int:
    return len(fan.rays) - fan.dim


def is_fano(fan: Fan) -> bool:
    """True iff every primitive relation has strictly positive degree."""
    return all(r.degree > 0 for r in primitive_collections(fan))


def is_weak_fano(fan: Fan) -> bool:
    """True iff every primitive relation has nonnegative degree."""
    return all(r.degree >= 0 for r in primitive_collections(fan))


@memoised
def _columns(fan: Fan, face: bool) -> dict[Vector, Vector]:
    """The distinct classes of the fan, each mapped to its entries on the n - d
    rays outside ``fan.max_cones[0]``; with ``face``, the degree-0 classes only."""
    cone = set(fan.max_cones[0])
    rows = [i for i in range(len(fan.rays)) if i not in cone]
    return {
        r.cls: tuple(r.cls[i] for i in rows)
        for r in primitive_collections(fan)
        if r.degree == 0 or not face
    }


@memoised
def is_extremal(fan: Fan, rel: PrimitiveRelation) -> bool:
    """Whether the class spans an extremal ray of the cone of all relation classes.

    Decided exactly: the class must not be a nonnegative rational combination
    of the other classes. Every class is a primitive vector: the collection
    is not a face, so some ray of it lies outside sigma, where the class is
    1. So the only positive multiple of a class is the class itself, and the
    others are the other keys of the per-fan table ``_columns``.

    The degree of a class is the sum of its entries, -K . class, a linear
    function. On a weak Fano fan it is >= 0 on every class, hence on the
    whole cone, so {degree = 0} cuts out a face: when a degree-0 class is a
    nonnegative combination of others, every class with a positive
    coefficient has degree 0. On such a fan a degree-0 relation is
    therefore tested against the other degree-0 classes alone, and is
    extremal without an LP when there are none. Other relations are tested
    against all classes.

    A class that is not extremal is most often the sum of two of the
    classes it is tested against. That is a feasible point of the LP (1 on
    both columns), so such a class is answered by a set lookup. The LP
    that remains is solved on the n - d entries off the first maximal cone
    only. Every class and every combination of classes is a relation,
    sum x_i v_i = 0, and the rays of a maximal cone are linearly
    independent, so a relation's entries on them follow from its other
    entries: dropping them is injective on the relations, and the smaller
    LP is feasible exactly when the full one is.
    """
    table = _columns(fan, rel.degree == 0 and is_weak_fano(fan))
    others = [c for c in table if c != rel.cls]
    if not others:
        return True
    if any(tuple(map(sub, rel.cls, c)) in table for c in others):
        return False
    return not has_nonneg_combination([table[c] for c in others], table[rel.cls])
