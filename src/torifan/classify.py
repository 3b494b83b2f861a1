"""Enumeration drivers: weak del Pezzo surfaces and weakened Fano 3-folds.

Surfaces come from a blow-up closure over the three minimal weak Fano
surfaces, walked on self-intersection sequences. 3-folds come from the
surface-bundle family over P1: fiber rays in the base hyperplane plus two
section rays at base coordinate +-1. Both searches report isomorphism
classes, keyed and named by canonical key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import catalog
from .contraction import crepant_contractions, is_weakened_fano
from .fan import Fan, build_bundle, ccw_sorted, fan_from_rays_2d, maximal_cone_normals, wall_relations
from .isomorphism import canonical_key
from .lattice import vsum
from .polytope import anticanonical_degree
from .primitive import (
    bundle_candidates,
    is_fano,
    is_weak_fano,
    picard_rank,
    seed_crepant_relations,
)


@dataclass(frozen=True)
class ClassEntry:
    key: bytes
    fan: Fan
    invariants: dict
    name: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "key": self.key.decode(),
            "fan": self.fan.to_dict(),
            "invariants": self.invariants,
            "name": self.name,
        }


# stages of the surface search and of the 3-fold sweep, counted in
# ``ClassificationReport.stats``
SURFACE_STAGES = ("seeds", "blowups", "weak_fano", "duplicates", "classes")
SWEEP_STAGES = (
    "box_points",
    "pruned_by_phi",
    "built",
    "fano",
    "weak_not_weakened",
    "weakened",
    "duplicates",
    "classes",
)


@dataclass(frozen=True)
class ClassificationReport:
    """Classes found by a search; ``stats`` counts what the search did at
    each stage (``SURFACE_STAGES`` or ``SWEEP_STAGES``) and stays out of
    ``to_dict``."""

    count: int
    classes: tuple[ClassEntry, ...]
    scope: str = ""
    stats: dict = field(default_factory=dict, compare=False)

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "scope": self.scope,
            "classes": [e.to_dict() for e in self.classes],
        }


def projects_to_p1(fan: Fan) -> bool:
    """Whether the last coordinate maps every maximal cone into a half-line.

    This is the fan map onto the complete 1-fan that exhibits the bundle
    structure of the fans built by ``build_bundle``; the rays at t = 0 then
    form a complete 2-fan, as the cones meet that plane in faces that cover
    it. Raises ``ValueError`` on a fan that does not validate.
    """
    maximal_cone_normals(fan)  # refuses a fan that does not validate
    for cone in fan.max_cones:
        coords = [fan.rays[i][-1] for i in cone]
        if any(c > 0 for c in coords) and any(c < 0 for c in coords):
            return False
    return True


def blow_up(fan: Fan, cone: Sequence[int]) -> Fan:
    """The toric blow-up of a 2-fan at the fixed point of ``cone``: the sum of
    its two rays is added as a new last ray."""
    i, j = cone
    return fan_from_rays_2d(list(fan.rays) + [vsum([fan.rays[i], fan.rays[j]], 2)])


def self_intersection_sequence(fan: Fan) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Ray indices of a smooth complete 2-fan in counterclockwise order, and
    the b_i with v_{i-1} + v_{i+1} = b_i v_i, one for each ray in that order.

    That is the relation of the wall (v_i), which ``validate`` keeps
    (``wall_relations``); D_i^2 = -b_i and -K.D_i = 2 - b_i (Oda 1988;
    Fulton 1993, 2.5). Raises ``ValueError`` on a fan that does not
    validate.
    """
    walls = wall_relations(fan)
    index = {ray: i for i, ray in enumerate(fan.rays)}
    order = tuple(index[ray] for ray in ccw_sorted(fan.rays))
    return order, tuple(walls[(i,)][0] for i in order)


def _sequence_key(seq: Sequence[int]) -> tuple[int, ...]:
    # the least of the rotations of the sequence and of its reverse
    n = len(seq)
    doubled = tuple(seq) * 2
    return min(s[k:k + n] for s in (doubled, doubled[::-1]) for k in range(n))


def _weak_fano_blow_up(seq: Sequence[int], k: int) -> Optional[tuple[int, ...]]:
    """The sequence of the blow-up of a weak Fano surface at the cone of
    positions k and k + 1 (mod n) of ``seq``, or None when the blow-up is
    not weak Fano: a 1 goes in between and both neighbours rise by 1, so
    every b stays <= 2 exactly when both neighbours were <= 1."""
    after = (k + 1) % len(seq)
    if seq[k] > 1 or seq[after] > 1:
        return None
    out = list(seq)
    out[k] += 1
    out[after] += 1
    out.insert(k + 1, 1)
    return tuple(out)


def _surface_invariants(fan: Fan) -> dict:
    return {
        "rays": len(fan.rays),
        "picard": picard_rank(fan),
        "degree": anticanonical_degree(fan),
        "fano": is_fano(fan),
        "weak_fano": is_weak_fano(fan),
    }


def _report(
    found: dict[bytes, tuple[Fan, dict]], named: Sequence[catalog.NamedFan], scope: str, stats: dict
) -> ClassificationReport:
    """The classes ``found`` (key -> representative and invariants) in key
    order, each named by the catalog entry of ``named`` with the same key."""
    names = {canonical_key(nf.fan): nf.name for nf in named}
    entries = tuple(
        ClassEntry(key, fan, invariants, names.get(key))
        for key, (fan, invariants) in sorted(found.items())
    )
    return ClassificationReport(len(entries), entries, scope, stats)


def enumerate_weak_del_pezzo() -> ClassificationReport:
    """Blow-up closure from {P2, P1 x P1, F2}, kept weak Fano, up to isomorphism.

    The closure runs on self-intersection sequences
    (``self_intersection_sequence``), and builds a fan only for a blow-up
    whose class is new. With rays v_0 ... v_{n-1} in counterclockwise order
    and v_{i-1} + v_{i+1} = b_i v_i, two facts decide what the search asks:

    - Weak Fano: -K.D_i = 2 - b_i, and the D_i generate the Mori cone, so
      -K is nef exactly when every b_i <= 2, and then big exactly when
      K^2 = 12 - n > 0. So n <= 11, and a kept sequence with more entries
      raises ``RuntimeError`` instead of growing forever. Blowing up the cone
      (v_i, v_j) inserts a 1 between them and raises b_i and b_j by 1, so
      the blow-up of a weak Fano surface is weak Fano exactly when b_i <= 1
      and b_j <= 1.
    - Isomorphism: v_0 and v_1 are a basis and v_{k+1} = b_k v_k - v_{k-1}
      gives every other ray, so two such fans are GL(2, Z)-isomorphic
      exactly when their sequences agree up to rotation and reversal. The
      key of a class is the least of those 2n sequences.

    The queue is last in, first out, and each class is blown up at its
    ``max_cones`` in order, so the first fan found in a class is its
    representative. Each representative is a ``Fan``; its canonical key,
    name and invariants come from the fan.

    ``stats`` counts each of ``SURFACE_STAGES``: the seeds, the blow-ups
    tried, those kept as weak Fano, the kept ones whose class was already
    found, and the classes.
    """
    named = {nf.name: nf.fan for nf in catalog.surfaces()}
    seeds = [named["P2"], named["P1xP1"], named["F2"]]
    stats = dict.fromkeys(SURFACE_STAGES, 0)
    stats["seeds"] = len(seeds)
    # P2, P1 x P1 and F2 are three different classes, so no seed is a duplicate
    seen = {_sequence_key(self_intersection_sequence(fan)[1]): fan for fan in seeds}
    queue = list(seeds)
    while queue:
        fan = queue.pop()
        order, seq = self_intersection_sequence(fan)
        position = {ray: k for k, ray in enumerate(order)}
        for cone in fan.max_cones:
            stats["blowups"] += 1
            p, q = (position[i] for i in cone)
            blown = _weak_fano_blow_up(seq, p if (p + 1) % len(seq) == q else q)
            if blown is None:
                continue
            if len(blown) > 11:
                raise RuntimeError(f"a kept blow-up has more than 11 rays: {blown}")
            stats["weak_fano"] += 1
            key = _sequence_key(blown)
            if key in seen:
                stats["duplicates"] += 1
            else:
                seen[key] = blow_up(fan, cone)
                queue.append(seen[key])
    stats["classes"] = len(seen)
    return _report(
        {canonical_key(fan): (fan, _surface_invariants(fan)) for fan in seen.values()},
        catalog.surfaces(),
        "smooth toric weak del Pezzo surfaces (blow-up closure over minimal models)",
        stats,
    )


def enumerate_weakened_threefolds(twist_bound: int = 3) -> ClassificationReport:
    """Weakened Fano classes in the surface-bundle family over P1.

    Candidates are bundles over the 16 weak del Pezzo fibers with section
    twists in [-twist_bound, twist_bound]^2. Shearing the base coordinate
    into the fiber lattice is a fan isomorphism moving (w+, w-) to
    (w+ + u, w- - u), so only the sum w+ + w- matters; the sweep therefore
    runs over sums w in [-2b, 2b]^2 with the minus-twist pinned to zero.
    Products P1 x S appear as the zero-twist bundles.

    Only sums that can give a weak Fano bundle are built. The sections
    share no cone, so {x+, x-} is a primitive collection, and its relation
    has degree 2 - phi(w), phi being the fiber's piecewise-linear function
    that is 1 on every ray. A weak Fano bundle therefore has phi(w) <= 2,
    that is w = p*v_i + q*v_j over a fiber cone with p, q >= 0 and
    p + q <= 2: 3n + 1 sums over a fiber with n rays, 304 over the 16
    fibers. ``primitive.bundle_candidates`` lists them in increasing order.
    A bundle's relations are the fiber's and the section relation
    (``bundle_candidates``), so a weak Fano bundle has a weak del Pezzo
    fiber, one of the 16, and the fiber set is complete within the family.
    Conversely every relation of a built bundle has degree >= 0, so every
    bundle the sweep builds is weak Fano.

    The box holds every candidate once b >= M, the largest |entry| of a
    fiber ray: each coordinate of w is at most (p + q) * M <= 2M in absolute
    value. M = 2 over the 16 fibers, so the box of bound 2, [-4, 4]^2,
    already holds all 304; a bound below M is refused, since its box misses
    some, and a larger bound cannot add one. The sweep builds the
    candidates alone, so every allowed bound costs the same, and counts the
    rest of the box as pruned by phi. A bound that is not an int (a bool
    included) is refused.

    Each built bundle is validated, and its crepant relations, the only
    relations the verdict reads, are seeded from ``bundle_candidates``.
    ``stats`` counts each of ``SWEEP_STAGES``.
    """
    if type(twist_bound) is not int:
        raise ValueError(f"twist bound {twist_bound!r} is not an int")
    fibers = catalog.surfaces()
    reach = max(abs(x) for nf in fibers for ray in nf.fan.rays for x in ray)
    if twist_bound < reach:
        raise ValueError(
            f"twist bound {twist_bound} is below {reach}, the largest fiber ray entry, "
            "so its box misses candidate twists"
        )
    box = (4 * twist_bound + 1) ** 2
    stats = dict.fromkeys(SWEEP_STAGES, 0)
    found: dict[bytes, tuple[Fan, dict]] = {}
    for nf in fibers:
        stats["box_points"] += box
        for w, crepant in bundle_candidates(nf.fan):
            fan = build_bundle(nf.fan, w, (0, 0))
            stats["built"] += 1
            seed_crepant_relations(fan, crepant)
            verdict = is_weakened_fano(fan)
            if verdict.is_fano:
                stats["fano"] += 1
            elif not verdict.is_weakened:
                stats["weak_not_weakened"] += 1
            if not verdict.is_weakened:
                continue
            stats["weakened"] += 1
            key = canonical_key(fan)
            if key in found:
                stats["duplicates"] += 1
            else:
                found[key] = (fan, {
                    "rays": len(fan.rays),
                    "picard": picard_rank(fan),
                    "degree": anticanonical_degree(fan),
                    "fiber": nf.name,
                })
    stats["pruned_by_phi"] = stats["box_points"] - stats["built"]
    stats["classes"] = len(found)
    return _report(
        found,
        catalog.threefolds(),
        "toric weakened Fano 3-folds in the surface-bundle family over P1 "
        f"(twist bound {twist_bound}); by the structure theory every toric "
        "weakened Fano 3-fold lies in this family",
        stats,
    )


def verify_classification() -> dict:
    """Cross-check both enumerations against the hard-coded catalog."""
    assertions: list[dict] = []

    def check(name: str, passed: bool, detail: str = "") -> None:
        assertions.append({"name": name, "passed": bool(passed), "detail": detail})

    surfaces_report = enumerate_weak_del_pezzo()
    check(
        "surface_count_16",
        surfaces_report.count == 16,
        f"found {surfaces_report.count} classes",
    )
    fano_count = sum(1 for e in surfaces_report.classes if e.invariants["fano"])
    check("surface_fano_count_5", fano_count == 5, f"{fano_count} Fano classes")
    noether = all(
        e.invariants["degree"] == 12 - e.invariants["rays"] for e in surfaces_report.classes
    )
    check("surface_degree_12_minus_rays", noether)
    # sum of the D_i^2 is 12 - 3n, read from each class's rays
    sequence_sums = all(
        sum(self_intersection_sequence(e.fan)[1]) == 3 * len(e.fan.rays) - 12
        for e in surfaces_report.classes
    )
    check("surface_self_intersections_sum_3n_minus_12", sequence_sums)
    surface_names = [e.name for e in surfaces_report.classes]
    check(
        "surface_bijection_with_catalog",
        None not in surface_names and len(set(surface_names)) == 16,
        f"matched {sorted(n for n in surface_names if n)}",
    )

    threefold_report = enumerate_weakened_threefolds()
    check(
        "threefold_count_15",
        threefold_report.count == 15,
        f"found {threefold_report.count} classes",
    )
    threefold_names = [e.name for e in threefold_report.classes]
    check(
        "threefold_bijection_with_catalog",
        None not in threefold_names and len(set(threefold_names)) == 15,
        f"matched {sorted(n for n in threefold_names if n)}",
    )

    catalog_threefolds = catalog.threefolds()
    catalog_len = len(catalog_threefolds)
    check("catalog_threefold_count_15", catalog_len == 15, f"{catalog_len} entries")
    all_weakened = all(is_weakened_fano(nf.fan).is_weakened for nf in catalog_threefolds)
    degrees = {nf.name: anticanonical_degree(nf.fan) for nf in catalog_threefolds}
    # exceptional divisor types F_a of each fan, over the catalog and the search
    a_values = [
        {kind.a for _, kind in crepant_contractions(fan) if kind.kind == "zero_two"}
        for fan in [nf.fan for nf in catalog_threefolds] + [e.fan for e in threefold_report.classes]
    ]
    no_f2 = all(2 not in a for a in a_values)
    homogeneous = all(len(a) <= 1 for a in a_values)
    check("catalog_threefolds_all_weakened", all_weakened)
    expected_degrees = {"X3_0": 52, "X4_0": 38, "X4_1": 46, "X5_1": 36}
    check(
        "special_degrees_52_38_46_36",
        all(degrees.get(k) == v for k, v in expected_degrees.items()),
        f"{ {k: degrees.get(k) for k in expected_degrees} }",
    )
    product_ok = all(
        degrees[nf.name] == 6 * (12 - nf.expected["fiber_rays"])
        for nf in catalog_threefolds
        if nf.name.startswith("P1x")
    )
    check("product_degree_identity", product_ok)
    check("no_f2_exceptional_divisor", no_f2)
    check("zero_two_divisors_homogeneous_per_fan", homogeneous)
    bundle_ok = all(projects_to_p1(e.fan) for e in threefold_report.classes)
    check("every_class_is_a_bundle_over_p1", bundle_ok)

    return {
        "passed": all(a["passed"] for a in assertions),
        "assertions": assertions,
        "surface_count": surfaces_report.count,
        "threefold_count": threefold_report.count,
    }
