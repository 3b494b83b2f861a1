"""Fan isomorphism over GL(d, Z) and canonical forms for deduplication.

The search is anchored on maximal cones: the rays of one maximal cone form a
lattice basis, so a candidate matrix is determined by where that basis goes.
The canonical key transforms the fan by the inverse basis of every maximal
cone in every ray order and keeps the lexicographically smallest serialized
form; isomorphic fans produce identical candidate sets, hence equal keys.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import permutations
from typing import Optional

from .fan import Fan, memoised
from .lattice import Matrix, invert_unimodular, matmul, matvec
from .polytope import anticanonical_degree
from .primitive import primitive_collections


@dataclass(frozen=True)
class FanIso:
    """Unimodular matrix plus the induced bijection of ray indices."""

    matrix: Matrix
    ray_permutation: tuple[int, ...]  # image index in the target fan, per source ray


@memoised
def isomorphism_invariants(fan: Fan) -> tuple:
    """Cheap GL(d, Z) invariants used to prune non-isomorphic pairs.

    The fan must be valid, as ``anticanonical_degree`` requires.
    """
    degrees = tuple(sorted(r.degree for r in primitive_collections(fan)))
    return (len(fan.rays), len(fan.max_cones), degrees, anticanonical_degree(fan))


def _anchor_cone(fan: Fan) -> tuple[int, ...]:
    return min(fan.max_cones, key=lambda c: tuple(sorted(fan.rays[i] for i in c)))


def _apply(matrix: Matrix, fan: Fan) -> tuple[tuple[int, ...], ...]:
    return tuple(matvec(matrix, r) for r in fan.rays)


def find_isomorphism(f: Fan, g: Fan) -> Optional[FanIso]:
    """A unimodular map sending f onto g (rays to rays, cones to cones), if any."""
    if f.dim != g.dim:
        return None
    if len(f.rays) != len(g.rays) or len(f.max_cones) != len(g.max_cones):
        return None
    if isomorphism_invariants(f) != isomorphism_invariants(g):
        return None
    anchor = _anchor_cone(f)
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
            mapped = _apply(candidate, f)
            if any(r not in g_ray_index for r in mapped):
                continue
            ray_perm = tuple(g_ray_index[r] for r in mapped)
            if len(set(ray_perm)) != len(ray_perm):
                continue
            cones = {tuple(sorted(ray_perm[i] for i in c)) for c in f.max_cones}
            if cones == g_cone_set:
                return FanIso(candidate, ray_perm)
    return None


@memoised
def canonical_key(fan: Fan) -> bytes:
    """Serialized minimal form over the anchor enumeration; equal iff isomorphic."""
    best: Optional[bytes] = None
    for cone in fan.max_cones:
        for perm in permutations(cone):
            basis = tuple(tuple(fan.rays[i][r] for i in perm) for r in range(fan.dim))
            transform = invert_unimodular(basis)
            transformed = _apply(transform, fan)
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

