"""Fan isomorphism over GL(d, Z) and canonical forms for deduplication.

The search is anchored on maximal cones: the rays of one maximal cone form a
lattice basis, so a candidate matrix is determined by where that basis goes.
The canonical key transforms the fan by the inverse basis of every maximal
cone in every ray order and keeps the lexicographically smallest serialized
form; isomorphic fans produce identical candidate sets, hence equal keys.

Both searches read ray coordinates instead of inverting matrices. On a
smooth fan the memoised ``maximal_cone_normals`` of a cone are the inverse
of its ray matrix, row k giving the coordinate along the cone's k-th ray.
The inverse of the basis that lists the same rays in another order has the
same rows in that order, so it sends each ray to the ray's coordinate
vector in the cone's own order, permuted. Each ray's coordinates are
therefore computed once per cone, and the d! orders of the cone only
relabel them: the candidate set is exactly the one that inverting every
ordered basis gives. On a cone that is not unimodular the rows are the
adjugate, not the inverse, so both searches refuse a fan that does not
validate. A valid fan with n rays has 2, n or 2n - 4 maximal cones in
dimension 1, 2 or 3 (Euler), so the witness search checks ray counts only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from operator import itemgetter
from typing import Optional, Sequence

from .fan import Fan, maximal_cone_normals, memoised
from .lattice import Matrix, Vector, matmul, matvec


@dataclass(frozen=True)
class FanIso:
    """Unimodular matrix plus the induced bijection of ray indices."""

    matrix: Matrix
    ray_permutation: tuple[int, ...]  # image index in the target fan, per source ray


def _relabelled(coords: Sequence[Vector], order: tuple[int, ...]) -> Sequence[Vector]:
    """Each vector with its entries taken in ``order``."""
    if order == tuple(range(len(order))):
        # also the only order in dimension 1, where itemgetter gives no tuple
        return coords
    return list(map(itemgetter(*order), coords))


def _anchor_cone(fan: Fan) -> tuple[int, ...]:
    return min(fan.max_cones, key=lambda c: tuple(sorted(fan.rays[i] for i in c)))


def find_isomorphism(f: Fan, g: Fan) -> Optional[FanIso]:
    """A unimodular map sending f onto g (rays to rays, cones to cones), if any.

    A candidate sends the anchor rays of f, in increasing order, to the rays
    of a target cone of g in one order. A ray of f with anchor coordinates a
    then lands on the point whose target coordinates are a relabelled, and
    that point is a ray of g exactly when those coordinates are a ray's.
    """
    for fan in (f, g):
        if not fan.report.ok:
            raise ValueError(f"fan does not validate: {fan.report.offending_cones}")
    if f.dim != g.dim or len(f.rays) != len(g.rays):
        return None
    anchor = _anchor_cone(f)
    anchor_inv = maximal_cone_normals(f)[f.max_cones.index(anchor)]
    anchor_sorted = sorted(anchor, key=lambda i: f.rays[i])
    basis_inv = tuple(anchor_inv[anchor.index(i)] for i in anchor_sorted)
    f_coords = [matvec(basis_inv, r) for r in f.rays]
    identity = tuple(range(g.dim))
    g_cone_set = set(g.max_cones)
    for target, target_inv in sorted(zip(g.max_cones, maximal_cone_normals(g)), key=itemgetter(0)):
        g_ray_index = {matvec(target_inv, r): j for j, r in enumerate(g.rays)}
        for order in permutations(identity):
            # anchor ray k goes to target ray order[k]: target coordinate
            # order[k] of an image is anchor coordinate k
            mapped = _relabelled(f_coords, tuple(sorted(identity, key=order.__getitem__)))
            ray_perm = tuple(map(g_ray_index.get, mapped))
            if None in ray_perm:
                continue
            cones = {tuple(sorted(ray_perm[i] for i in c)) for c in f.max_cones}
            if cones == g_cone_set:
                image = tuple(tuple(g.rays[target[k]][r] for k in order) for r in range(g.dim))
                return FanIso(matmul(image, basis_inv), ray_perm)
    return None


@memoised
def canonical_key(fan: Fan) -> bytes:
    """Serialized minimal form over the anchor enumeration; equal iff isomorphic.

    The form is the compact JSON of ``{"dim", "rays", "max_cones"}`` with the
    rays sorted. Candidates compare by the text of their ray list first, and
    the cone list is written only for one that ties or beats the best so far;
    the bytes order the same way, because neither list's text is a proper
    prefix of another of the same length.

    A ray list's text joins its ray texts, least ray first, and no ray text
    is a proper prefix of another (each ends at its one ``]``), so such texts
    compare as the tuples of their ray texts: a candidate whose least ray has
    a text above the best's first one loses before it is sorted or written.
    """
    if not fan.report.ok:
        raise ValueError(f"fan does not validate: {fan.report.offending_cones}")
    d = fan.dim
    entry = "[" + ",".join(["%d"] * d) + "]"
    best: Optional[tuple[str, str]] = None
    best_first = ""
    for inv in maximal_cone_normals(fan):
        coords = [matvec(inv, r) for r in fan.rays]
        for order in permutations(range(d)):
            transformed = _relabelled(coords, order)
            if best is not None and entry % min(transformed) > best_first:
                continue
            rays = sorted(transformed)
            ray_text = ",".join(map(entry.__mod__, rays))
            if best is not None and ray_text > best[0]:
                continue
            remap = {r: k for k, r in enumerate(rays)}
            cones = sorted(tuple(sorted(remap[transformed[i]] for i in c)) for c in fan.max_cones)
            candidate = (ray_text, ",".join(map(entry.__mod__, cones)))
            if best is None or candidate < best:
                best = candidate
                best_first = entry % rays[0]
    return ('{"dim":%d,"rays":[%s],"max_cones":[%s]}' % (d, *best)).encode()
