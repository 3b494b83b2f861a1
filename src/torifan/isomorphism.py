"""Fan isomorphism over GL(d, Z) and canonical forms for deduplication.

The search is anchored on maximal cones: the rays of one maximal cone form a
lattice basis, so a candidate matrix is determined by where that basis goes.
The canonical key transforms the fan by the inverse basis of every maximal
cone in every ray order and keeps the lexicographically smallest serialized
form; isomorphic fans produce identical candidate sets, hence equal keys.

Both searches read ray coordinates from the cone inverses
(``maximal_cone_normals``) instead of inverting matrices, row k giving the
coordinate along the cone's k-th ray. The inverse of the basis that lists
the same rays in another order has the same rows in that order, so it
sends each ray to the ray's coordinate vector in the cone's own order,
permuted. Each ray's coordinates are therefore computed once per cone, and
the d! orders of the cone only relabel them: the candidate set is exactly
the one that inverting every ordered basis gives. A valid fan with n rays
has 2, n or 2n - 4 maximal cones in dimension 1, 2 or 3 (Euler), so the
witness search checks ray counts only.

The witness search also reads the wall relations that ``validate`` keeps
(``wall_relations``). An isomorphism sends each wall of f to a wall of g, and
the relation c + d = sum alpha_t a_t across the wall to the same relation
across its image, so the sum of the wall's alpha_t is kept, and with it the
wall curve's degree -K.C = 2 - sum alpha_t. A target cone whose wall sums
differ from the anchor cone's, as a multiset or in the order a candidate
matches the rays in, can therefore hold no image of the anchor. Such
candidates are skipped unread and the others keep the search order, so the
witness is the one the full search finds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from operator import itemgetter
from typing import Optional, Sequence

from .fan import Fan, maximal_cone_normals, memoised, wall_relations
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
    """The maximal cone whose sorted rays are least; it holds the least ray."""
    least = fan.rays.index(min(fan.rays))
    cones = [c for c in fan.max_cones if least in c]
    return min(cones, key=lambda c: tuple(sorted(fan.rays[i] for i in c)))


def _wall_signature(walls: dict, cone: tuple[int, ...], rays: Sequence[int]) -> tuple[int, ...]:
    """The sum of the kept alphas of the wall of ``cone`` opposite each of ``rays``, in that order."""
    return tuple(sum(walls[tuple(j for j in cone if j != i)]) for i in rays)


def find_isomorphism(f: Fan, g: Fan) -> Optional[FanIso]:
    """A unimodular map sending f onto g (rays to rays, cones to cones), if any.

    A candidate sends the anchor rays of f, in increasing order, to the rays
    of a target cone of g in one order. A ray of f with anchor coordinates a
    then lands on the point whose target coordinates are a relabelled, and
    that point is a ray of g exactly when those coordinates are a ray's.

    An isomorphism sends each wall relation to the relation across the
    image wall, so one that sends anchor ray k to target ray order[k] sends
    the wall opposite the one to the wall opposite the other, and the sums
    of their kept alphas agree (as do their -K degrees, 2 minus the sums). A
    target cone whose sorted wall sums differ from the anchor's is skipped
    before its ray coordinates are computed, and within a kept cone so is
    every order under which some pair differs. Only candidates that
    must fail are skipped, and the rest keep their order, so the witness
    (matrix and ray permutation) is the one the full search finds.
    """
    f_inv, g_inv = maximal_cone_normals(f), maximal_cone_normals(g)
    if f.dim != g.dim or len(f.rays) != len(g.rays):
        return None
    anchor = _anchor_cone(f)
    anchor_inv = f_inv[f.max_cones.index(anchor)]
    anchor_sorted = sorted(anchor, key=lambda i: f.rays[i])
    basis_inv = tuple(anchor_inv[anchor.index(i)] for i in anchor_sorted)
    want = _wall_signature(wall_relations(f), anchor, anchor_sorted)
    want_sorted = sorted(want)
    g_walls = wall_relations(g)
    f_coords = [matvec(basis_inv, r) for r in f.rays]
    identity = tuple(range(g.dim))
    g_cone_set = set(g.max_cones)
    for target, target_inv in sorted(zip(g.max_cones, g_inv), key=itemgetter(0)):
        have = _wall_signature(g_walls, target, target)
        if sorted(have) != want_sorted:
            continue
        g_ray_index = {matvec(target_inv, r): j for j, r in enumerate(g.rays)}
        for order in permutations(identity):
            if any(want[k] != have[order[k]] for k in identity):
                continue
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
    inverses = maximal_cone_normals(fan)
    d = fan.dim
    entry = "[" + ",".join(["%d"] * d) + "]"
    best: Optional[tuple[str, str]] = None
    best_first = ""
    for inv in inverses:
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
