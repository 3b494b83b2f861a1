"""Primitive collections, primitive relations, degrees and Mori-cone data.

A primitive collection is a minimal set of rays not spanning a cone of the
fan. Its element sum lies in the relative interior of a unique cone, and
its coefficients there are all that a ``PrimitiveRelation`` stores: the
cone, the degree (the anticanonical intersection number of the
corresponding 1-cycle class) and the class vector, an integer relation
among the rays and a primitive vector, are read off them. The collections
are grown from the faces of the fan, held as bit masks over the ray
indices, and from each ray's neighbours (``primitive_collections``): a
pair is a minimal non-face exactly when it is not an edge, a larger one
extends a face by a common neighbour of its members, and only a set of
four or more rays needs its other proper subsets looked up.
Extremality of a class is decided exactly, against one table of distinct
classes and their degrees, by the integer-preserving simplex of
``lattice.has_nonneg_combination``, after two exact shortcuts that
``_extremal`` argues. ``is_extremal``, which ``analyze`` prints, asks it of
each relation against the fan's table of relation classes. The crepant
relations, the extremal degree-0 ones (``crepant_relations``), are all
that the weakened verdict reads, and they are read off the degree-0 wall
classes that ``validate`` keeps, through the same test, without growing
the primitive relations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import attrgetter, sub
from typing import Iterable

from .fan import Fan, maximal_cone_normals, memoised, wall_far_rays, wall_relations
from .lattice import (
    Vector,
    has_nonneg_combination,
    matvec,
    vsum,
)


@dataclass(frozen=True)
class PrimitiveRelation:
    """collection sum = sum of coeffs over the generators of sigma, exactly.

    ``coeffs`` are the sum's coordinates in the cone sigma that holds it in
    its relative interior, so sigma is their rays, and the degree, -K of
    the class, is the size of the collection less their sum.
    """

    collection: tuple[int, ...]
    coeffs: tuple[tuple[int, int], ...]  # (ray index, positive coefficient), sorted

    @property
    def sigma(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.coeffs)

    @property
    def degree(self) -> int:
        return len(self.collection) - sum(a for _, a in self.coeffs)

    def entries(self, rays: int) -> Vector:
        """The class on a fan of ``rays`` rays: 1 on the collection, minus the
        coefficient on sigma, 0 elsewhere. The two are disjoint (Batyrev
        1991), so neither assignment overwrites the other."""
        cls = [0] * rays
        for i in self.collection:
            cls[i] = 1
        for i, a in self.coeffs:
            cls[i] = -a
        return tuple(cls)

    def to_dict(self, rays: int) -> dict:
        """The relation of a fan with ``rays`` rays, its class on all of them."""
        return {
            "collection": list(self.collection),
            "sigma": list(self.sigma),
            "coeffs": {str(i): a for i, a in self.coeffs},
            "degree": self.degree,
            "class": list(self.entries(rays)),
        }


def _face_set(fan: Fan) -> tuple[set[int], list[int]]:
    """The faces of two or more rays, as bit masks over the ray indices, and
    each ray's neighbour mask: the union of the cones that hold it."""
    faces: set[int] = set()
    near = [0] * len(fan.rays)
    for cone in fan.max_cones:
        bits = [1 << i for i in cone]
        for i in cone:
            near[i] |= sum(bits)
        for k in range(2, len(cone) + 1):
            faces.update(map(sum, combinations(bits, k)))
    return faces, near


def _members(mask: int) -> tuple[int, ...]:
    """The indices of the set bits of ``mask``, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def locate_sigma(fan: Fan, total: Vector) -> tuple[tuple[int, int], ...]:
    """The positive coordinates of the sum in the cone that holds it in its
    relative interior, as (ray index, coefficient) pairs.

    The first maximal cone containing the sum holds it in the relative
    interior of the face spanned by its positive coordinates. On a valid fan
    the cones meet in common faces, so no other cone gives another face.
    """
    for cone, inv in zip(fan.max_cones, maximal_cone_normals(fan)):
        coords = matvec(inv, total)
        if min(coords) >= 0:
            return tuple((i, c) for i, c in zip(cone, coords) if c > 0)
    raise ValueError(f"no cone contains {total}; fan is not complete")


@memoised
def primitive_collections(fan: Fan) -> tuple[PrimitiveRelation, ...]:
    """All primitive relations, in lexicographic order of the collections.

    Every proper subset of a minimal non-face is a face. Every ray lies in a
    cone, so a pair is a minimal non-face exactly when it is not an edge:
    the pairs are read off the bits above each ray that are not its
    neighbours. A larger one, less its largest index, is a face, and each
    of its pairs is an edge, so it is that face extended by a common
    neighbour of its members above the face's largest index, each met once;
    it must not be a face itself. A set of three is then minimal, its pairs
    being edges. Faces have at most d elements, so minimal non-faces have at
    most d + 1, and only a set of four or more, one of d + 1 on a 3-fan,
    needs its other proper subsets looked up among the faces.
    """
    maximal_cone_normals(fan)  # refuses a fan that does not validate
    n = len(fan.rays)
    faces, near = _face_set(fan)
    collections = [(i, j) for i in range(n) for j in _members(~near[i] & (1 << n) - (2 << i))]
    for face in faces:
        members = _members(face)
        common = (1 << n) - (2 << members[-1])
        for i in members:
            common &= near[i]
        for j in _members(common):
            s = face | 1 << j
            if s in faces or len(members) > 2 and any(s ^ 1 << i not in faces for i in members):
                continue
            collections.append(members + (j,))
    collections.sort()
    sums = (vsum([fan.rays[i] for i in c], fan.dim) for c in collections)
    return tuple(PrimitiveRelation(c, locate_sigma(fan, total)) for c, total in zip(collections, sums))


def picard_rank(fan: Fan) -> int:
    return len(fan.rays) - fan.dim


def is_fano(fan: Fan) -> bool:
    """True iff every wall curve C has -K.C = 2 - sum alpha_t > 0, over the
    kept wall relations (``wall_relations``): -K is ample."""
    return max(map(sum, wall_relations(fan).values())) < 2


def is_weak_fano(fan: Fan) -> bool:
    """True iff every wall curve C has -K.C = 2 - sum alpha_t >= 0, over the
    kept wall relations (``wall_relations``): -K is nef."""
    return max(map(sum, wall_relations(fan).values())) <= 2


def _class_table(classes: Iterable[tuple[Vector, PrimitiveRelation]], rays: int) -> tuple[dict, tuple]:
    """Distinct classes, in order, each with its degree; and, over all of
    them and over the degree-0 ones, how many are positive and how many
    negative at each of the ``rays`` rays. Each class comes with a relation
    that is positive on its collection and negative on sigma, as the class
    is."""
    table: dict[Vector, int] = {}
    # signs[face] = (positive, negative) counts per ray: face False over all
    # classes, face True over the degree-0 ones
    signs = (([0] * rays, [0] * rays), ([0] * rays, [0] * rays))
    for cls, rel in classes:
        degree = table[cls] = sum(cls)
        for positive, negative in signs if degree == 0 else signs[:1]:
            for i in rel.collection:
                positive[i] += 1
            for i, _ in rel.coeffs:
                negative[i] += 1
    return table, signs


@memoised
def _columns(fan: Fan) -> tuple[dict[Vector, int], tuple]:
    """The table of the fan's relation classes (``_class_table``), in relation order."""
    n = len(fan.rays)
    return _class_table(((r.entries(n), r) for r in primitive_collections(fan)), n)


def _extremal(table: dict[Vector, int], signs: tuple, face: bool, target: Vector, rel: PrimitiveRelation) -> bool:
    """Whether ``target``, a class of the ``_class_table`` (``table``,
    ``signs``) that is positive on the collection of ``rel`` and negative on
    its sigma, is no nonnegative rational combination of the other classes
    tested against: those of degree 0 when ``face``, else all.

    Every class of a table is a primitive vector, so the only positive
    multiple of a class is the class itself, and the others are the other
    classes. Decided exactly, after two exact shortcuts that spare the LP.

    The first proves most classes extremal by Farkas' lemma (Schrijver
    1986, ch. 7): a z with z . c >= 0 on every class c tested against and
    z . target < 0 shows that no nonnegative combination of those classes is
    the target. When the target is the only tested class positive at a ray
    x, z = -D_x, which reads minus the entry at x, is such a z; and when it
    is the only one negative at x, z = D_x is. ``signs`` counts the classes
    positive and negative at each ray, over all classes and over the
    degree-0 ones, and a count includes the target itself, so a count of 1
    is the certificate. A class with no other class to be tested against is
    the only one at every ray, so it is extremal by this test.

    The second: a class that is not extremal is most often the sum of two
    of the classes it is tested against, a feasible point of the LP (1 on
    both columns), so such a class is answered by a lookup of the
    difference in the table. The difference is never the target itself, a
    class being nonzero, and on the face it has degree 0 when it is a
    class, since the degree is linear: so a hit is always one of the
    classes tested against. The LP, the integer-preserving simplex of
    ``lattice.has_nonneg_combination``, decides the rest.
    """
    positive, negative = signs[face]
    if any(positive[i] == 1 for i in rel.collection) or any(negative[i] == 1 for i, _ in rel.coeffs):
        return True
    others = [c for c, degree in table.items() if c != target and (degree == 0 or not face)]
    if any(tuple(map(sub, target, c)) in table for c in others):
        return False
    return not has_nonneg_combination(others, target)


def is_extremal(fan: Fan, rel: PrimitiveRelation) -> bool:
    """Whether the class spans an extremal ray of the cone of all relation classes.

    ``rel`` is one of the fan's relations, and it is tested against the
    fan's other relation classes by ``_extremal``. Every class is a
    primitive vector: the collection is not a face, so some ray of it lies
    outside sigma, where the class is 1. sigma and the collection are
    disjoint (Batyrev 1991), so a class is positive exactly on its
    collection and negative exactly on sigma.

    The degree of a class is the sum of its entries, -K . class, a linear
    function. On a weak Fano fan it is >= 0 on every class, hence on the
    whole cone, so {degree = 0} cuts out a face: when a degree-0 class is a
    nonnegative combination of others, every class with a positive
    coefficient has degree 0. On such a fan a degree-0 relation is
    therefore tested against the other degree-0 classes alone. Other
    relations are tested against all classes.
    """
    table, signs = _columns(fan)
    face = rel.degree == 0 and is_weak_fano(fan)
    return _extremal(table, signs, face, rel.entries(len(fan.rays)), rel)


@memoised
def crepant_relations(fan: Fan) -> tuple[PrimitiveRelation, ...]:
    """The extremal degree-0 relations of a weak Fano fan, in relation order:
    on a weak Fano 3-fold, its crepant primitive contractions (Reid 1983).

    They are read off the wall relations and far rays that ``validate``
    keeps (``wall_relations``, ``wall_far_rays``), and no primitive
    relation is grown. The class of
    the wall with facet rays a_t and far rays c, d is 1 at c and at d and
    -alpha_t at a_t, a primitive vector, since its entry at c is 1; its
    degree is the sum of its entries, 2 - sum alpha_t. On a complete fan the
    wall classes span the cone of curves NE(X) (Reid 1983; Cox, Little &
    Schenck 2011, Thm 6.3.20), so each extremal ray of it is spanned by a
    wall class; on a projective X that class is the ray's primitive
    relation (Reid 1983; Casagrande 2003). On a weak Fano fan every wall has
    degree >= 0, so the degree-0 classes span a face of NE(X), and a class
    of the face is extremal in the face exactly when it is extremal in the
    cone. So the crepant relations are the distinct degree-0 wall classes
    that no nonnegative combination of the others gives, decided by
    ``_extremal`` on the table of those classes. Each is read back as a
    relation: the collection is where it is positive, 1 on a relation's
    class, and sigma where it is negative, with minus its entries as the
    coefficients. They are listed in lexicographic order of their
    collections, as ``primitive_collections`` lists the relations.

    The identity with the relation route, the degree-0 relations that
    ``is_extremal`` keeps, is thus proven only for projective X, as every
    complete 2-fan is. On a fan that is not projective the cone of curves
    holds a line and "extremal" means nothing; there the identity is only
    checked, on the fans of the tests and of ``scripts/same_outputs.py``.
    On a fan that is not weak Fano the degree-0 classes need not span a
    face, and the verdict and the table of contractions do not ask there.
    """
    n = len(fan.rays)
    far = wall_far_rays(fan)
    classes = {}
    for facet, alphas in wall_relations(fan).items():
        if sum(alphas) == 2:
            c, d = far[facet]
            cls = [0] * n
            cls[c] = cls[d] = 1
            for t, alpha in zip(facet, alphas):
                cls[t] = -alpha
            classes[tuple(cls)] = None
    read = [
        (cls, PrimitiveRelation(tuple(i for i, x in enumerate(cls) if x > 0),
                                tuple((i, -x) for i, x in enumerate(cls) if x < 0)))
        for cls in classes
    ]
    table, signs = _class_table(read, n)
    crepant = [rel for cls, rel in read if _extremal(table, signs, True, cls, rel)]
    return tuple(sorted(crepant, key=attrgetter("collection")))


# taken at import, so it still reaches the memo when a wrapper (a tracer, a
# call counter) is later put in place of ``crepant_relations``
seed_crepant_relations = crepant_relations.seed


def bundle_candidates(fiber: Fan) -> tuple[tuple[Vector, tuple[PrimitiveRelation, ...]], ...]:
    """Each section sum w with phi(w) <= 2 over ``fiber``, in increasing
    order, with the crepant relations of its bundle (``crepant_relations``).

    The bundle of w has the n fiber rays (v, 0), x+ = (w, 1) at index n and
    x- = (0, -1) at index n + 1. Its faces are the fiber faces, alone or
    joined to one section, so its minimal non-faces are those of the fiber
    plus the section pair. A fiber collection sums to a point of a fiber
    cone, a face of the bundle, with the same coefficients. A fiber
    relation names only fiber rays, which keep their indices in the bundle,
    so it is a bundle relation as it stands, with the same cone and degree,
    and its class is 0 at both sections. The pair {x+, x-} sums to (w, 0),
    so with w = p*v_i + q*v_j (p, q >= 0) in the fiber cone (v_i, v_j) its
    relation is x+ + x- = p*(v_i, 0) + q*(v_j, 0), of degree
    2 - (p + q) = 2 - phi(w), phi being the fiber's piecewise-linear
    function that is 1 on every ray. It holds the two largest indices and
    comes last in relation order.

    So the sums with phi(w) <= 2 are the p*v_i + q*v_j with p + q <= 2 over
    the fiber's cones: 0, each v_i, each 2*v_i and the sum of each cone's
    two rays. On a smooth complete 2-fan every point has one such form, so
    n rays give 3n + 1 sums.

    Extremality carries over too. Every fiber class is 0 at x+ and x-, and
    the section class is 1 there, so the section class is never a
    nonnegative combination of the others: it is extremal. In a
    combination that gives a fiber class the section class has coefficient
    0, so a fiber class is extremal on the bundle exactly when it is on the
    fiber. This holds against all the classes and against the degree-0
    ones alone, and the bundle is weak Fano exactly when its fiber is, the
    section relation having degree 2 - (p + q) >= 0.

    Read through the walls, as ``crepant_relations`` reads them, the same
    holds. The bundle's walls are the fiber's walls lifted to both
    sections: the wall {v_i, x+-} has the far rays v_(i-1), v_(i+1) and the
    relation of the fiber wall (v_i), so its class is the fiber's, 0 at
    both sections. Each fiber cone (v_i, v_j) adds one section wall
    {v_i, v_j}, with far rays x+ and x-, whose class is 1 at both sections
    and minus the coordinates of w in that cone at v_i and v_j. The cone
    that holds w gives the section relation's class. Any other differs
    from it by a fiber class on which every nef divisor of the fiber is
    >= 0, its support function being at most the linear function of
    (v_i, v_j) at w (Cox, Little & Schenck 2011, ch. 6); the fiber is
    projective, so that class lies in its cone of curves, and the other
    section class is not extremal. A lifted fiber class is extremal on the
    bundle exactly when it is on the fiber, as above. So the bundle's
    crepant relations are the fiber's own, plus the section relation when
    p + q = 2, and the sweep reads the wall table of each fiber once and
    runs no LP on a bundle.
    """
    if fiber.dim != 2:
        raise ValueError("bundle fiber must be 2-dimensional")
    n = len(fiber.rays)
    crepant = crepant_relations(fiber)
    candidates: dict[Vector, tuple[PrimitiveRelation, ...]] = {}
    for i, j in fiber.max_cones:
        (xi, yi), (xj, yj) = fiber.rays[i], fiber.rays[j]
        for p in range(3):
            for q in range(3 - p):
                w = (p * xi + q * xj, p * yi + q * yj)
                if p + q < 2:
                    candidates[w] = crepant
                    continue
                section = PrimitiveRelation((n, n + 1), tuple((k, a) for k, a in ((i, p), (j, q)) if a > 0))
                candidates[w] = crepant + (section,)
    return tuple(sorted(candidates.items()))
