import json
import random

import pytest

from torifan.fan import (
    Fan,
    build_bundle,
    ccw_sorted,
    cone_det_and_normals,
    fan_from_json,
    fan_from_rays_2d,
    maximal_cone_normals,
    validate,
    wall_far_rays,
    wall_relations,
)
from torifan.catalog import all_named, named_fan, surfaces
from torifan.classify import self_intersection_sequence
from torifan.contraction import zero_two_normal_form_witness
from torifan.isomorphism import canonical_key, find_isomorphism
from torifan.lattice import is_primitive, vsum
from torifan.polytope import anticanonical_degree
from torifan.primitive import bundle_candidates, crepant_relations, is_fano, is_weak_fano, primitive_collections
from _oracles import (
    cofactor_det,
    cone_columns,
    far_rays,
    non_projective_fan,
    pair_is_proper,
    pairwise_validate,
    random_unimodular,
    rebase_fan,
    reference_ccw_sorted,
    reference_inward_normals,
    reference_validate,
    reference_wall_relations,
    sweep_bundles_b3,
)

# the complete smooth fan of P4
DIM4_FAN = json.dumps({
    "dim": 4,
    "rays": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, -1, -1, -1]],
    "max_cones": [[j for j in range(5) if j != i] for i in range(5)],
})

# built from its rays, so that collecting this module builds no catalog 3-fold
P2 = fan_from_rays_2d([(1, 0), (0, 1), (-1, -1)])

OVERLAPPING = Fan(
    2,
    ((1, 0), (0, 1), (-1, -1), (1, 1)),
    ((0, 1), (1, 2), (0, 2), (0, 3), (1, 3)),
)


def test_p2_is_smooth_and_complete():
    report = validate(P2)
    assert report.is_simplicial and report.is_smooth and report.is_complete
    assert report.offending_cones == ()


def test_missing_cone_is_not_complete():
    fan = Fan(2, P2.rays, P2.max_cones[:2])
    report = validate(fan)
    assert report.is_smooth
    assert not report.is_complete
    assert any(reason == "facet_unmatched" for reason, _ in report.offending_cones)


def test_non_primitive_ray_is_structural_failure():
    fan = Fan(2, ((1, 0), (0, 1), (-2, -2)), ((0, 1), (1, 2), (0, 2)))
    report = validate(fan)
    assert not report.ok
    assert ("non_primitive_ray", (2,)) in report.offending_cones


def test_duplicate_ray_reported():
    fan = Fan(2, ((1, 0), (0, 1), (1, 0)), ((0, 1), (1, 2), (0, 2)))
    report = validate(fan)
    assert any(reason == "duplicate_ray" for reason, _ in report.offending_cones)


def test_non_unimodular_cone_not_smooth():
    fan = fan_from_rays_2d([(1, 0), (-1, 0), (1, 2), (1, -2)])
    report = validate(fan)
    assert report.is_simplicial
    assert not report.is_smooth


def test_overlapping_cones_detected():
    # two full planes' worth of cones overlapping improperly
    report = validate(OVERLAPPING)
    assert not report.is_complete


# five cones joining every second of five rays: each ray lies in exactly two
# cones and every wall separates its cones, but the fan winds twice around 0
PENTAGRAM = Fan(
    2,
    ((1, 0), (1, 3), (-3, 2), (-3, -2), (1, -3)),
    ((0, 2), (2, 4), (1, 4), (1, 3), (0, 3)),
)


def test_fan_winding_twice_is_not_complete():
    report = validate(PENTAGRAM)
    assert report.is_simplicial and not report.is_complete
    assert not any(reason == "facet_unmatched" for reason, _ in report.offending_cones)
    improper = [idx for reason, idx in report.offending_cones if reason == "improper_intersection"]
    assert improper and all(ci == 0 for ci, _ in improper)


def _corruptions(fan: Fan, rng: random.Random) -> list[Fan]:
    """One fan for each kind of damage, chosen by rng."""
    rays = [list(r) for r in fan.rays]
    cones = [list(c) for c in fan.max_cones]
    n = len(rays)

    def bump(rays):
        out = [r[:] for r in rays]
        out[rng.randrange(n)][rng.randrange(fan.dim)] += rng.choice([-2, -1, 1, 2])
        return out

    out = [Fan(fan.dim, bump(rays), cones)]
    ci = rng.randrange(len(cones))
    spare = [i for i in range(n) if i not in cones[ci]]
    if spare:
        changed = [c[:] for c in cones]
        changed[ci][rng.randrange(fan.dim)] = rng.choice(spare)
        out.append(Fan(fan.dim, rays, changed))
    i, j = rng.sample(range(n), 2)
    swapped = [r[:] for r in rays]
    swapped[i], swapped[j] = swapped[j], swapped[i]
    out.append(Fan(fan.dim, swapped, cones))
    negated = [r[:] for r in rays]
    k = rng.randrange(n)
    negated[k] = [-x for x in negated[k]]
    out.append(Fan(fan.dim, negated, cones))
    rebased = rebase_fan(fan, random_unimodular(rng, fan.dim))
    out.append(Fan(fan.dim, bump([list(r) for r in rebased.rays]), cones))
    return out


def _corrupted_fans() -> list[Fan]:
    """The catalog fans and two random bundles over each surface, each
    damaged in every way of ``_corruptions`` twice, besides the fans
    themselves, the two overlapping 2-fans and the fan without cones: 729
    fans, many of which reach the wall checks and fail them."""
    rng = random.Random(3)
    bases = [nf.fan for nf in all_named().values()]
    for nf in surfaces():
        for _ in range(2):
            plus = (rng.randint(-3, 3), rng.randint(-3, 3))
            minus = (rng.randint(-3, 3), rng.randint(-3, 3))
            bases.append(build_bundle(nf.fan, plus, minus))
    # the fan without cones covers nothing: both sides call it not complete
    fans = [OVERLAPPING, PENTAGRAM, Fan(2, (), ())] + bases
    for fan in bases * 2:
        fans.extend(_corruptions(fan, rng))
    return fans


def test_linear_completeness_agrees_with_pairwise_oracle():
    fans = _corrupted_fans()
    verdicts = set()
    improper_pairs = 0
    for fan in fans:
        report = validate(fan)
        verdict = (report.is_simplicial, report.is_smooth, report.is_complete)
        assert verdict == pairwise_validate(fan), fan.to_dict()
        verdicts.add(verdict)
        for reason, pair in report.offending_cones:
            if reason == "improper_intersection":
                improper_pairs += 1
                assert not pair_is_proper(fan, *pair), (fan.to_dict(), pair)
    assert {(True, True, True), (True, True, False), (False, False, False)} <= verdicts
    assert improper_pairs > 0


def _with_p1(fan: Fan) -> Fan:
    """The product of a 2-fan with P1, built without validating it."""
    rays = tuple(r + (0,) for r in fan.rays) + ((0, 0, 1), (0, 0, -1))
    n = len(fan.rays)
    cones = tuple(c + (pole,) for c in fan.max_cones for pole in (n, n + 1))
    return Fan(3, rays, cones)


def _kinds_of_damage(fan: Fan, rng: random.Random) -> list[Fan]:
    """A rebasing of the fan damaged in each way the benchmark's reject mix uses:
    a zero, multiplied or repeated ray, a ray moved off unimodularity, and a
    missing cone."""
    base = rebase_fan(fan, random_unimodular(rng, fan.dim))
    out = []
    for how in ("zero", "multiple", "duplicate", "det"):
        rays = list(base.rays)
        i = rng.randrange(len(rays))
        if how == "zero":
            rays[i] = (0,) * fan.dim
        elif how == "multiple":
            rays[i] = tuple(2 * x for x in rays[i])
        elif how == "duplicate":
            rays[i] = rays[(i + 1) % len(rays)]
        else:
            i, j = rng.sample(rng.choice(base.max_cones), 2)
            rays[i] = tuple(2 * x + y for x, y in zip(rays[i], rays[j]))
        out.append(Fan(fan.dim, tuple(rays), base.max_cones))
    cones = list(base.max_cones)
    del cones[rng.randrange(len(cones))]
    out.append(Fan(fan.dim, base.rays, tuple(cones)))
    return out


# three equal copies of one ray, two of another, and cones repeated three and
# two times, interleaved so that the equal pairs of different values alternate
REPEATED = [
    Fan(2, ((1, 0), (0, 1), (1, 0), (0, 1), (1, 0), (-1, -1)),
        ((0, 1), (1, 5), (0, 5), (0, 1), (1, 5), (0, 1))),
    Fan(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 0), (1, 0, 0), (0, 0, 1), (-1, -1, -1)),
        ((0, 1, 2), (0, 1, 6), (0, 1, 2), (0, 2, 6), (1, 2, 6), (0, 1, 6), (0, 1, 2))),
    Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 1), (0, 2), (1, 2), (0, 1))),
]

# a ray index -1 at the front of a sorted cone, an index n at its back, both
# in one cone, and an empty cone, which must reach the size check
_TRIANGLE = ((1, 0), (0, 1), (-1, -1))
BAD_INDICES = [
    Fan(2, _TRIANGLE, ((-1, 0), (0, 1), (1, 2), (0, 2))),
    Fan(2, _TRIANGLE, ((0, 1), (1, 2), (2, 3))),
    Fan(2, _TRIANGLE, ((-1, 3), (0, 1), (1, 2), (0, 2))),
    Fan(2, _TRIANGLE, ((0, 1), (1, 2), (0, 2), ())),
    Fan(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)),
        ((0, 1, 2), (0, 1, 3), (-1, 0, 2), (1, 2, 4), ())),
]


def test_validate_agrees_with_the_reference_report():
    """The whole report, ``offending_cones`` order included, against
    ``reference_validate``, which scans all pairs for equal rays and cones
    and takes determinants apart from the normals."""
    rng = random.Random(1301)
    named = [nf.fan for nf in all_named().values()]
    assert len(named) == 34
    fans = list(named)
    fans += [rebase_fan(fan, random_unimodular(rng, fan.dim)) for fan in named for _ in range(3)]
    bundles = sweep_bundles_b3()
    # n fiber rays give n fiber cones, and the bundle has n + 2 rays and 2n cones
    assert len(bundles) == 304
    assert all(fan.report.ok and len(fan.max_cones) == 2 * (len(fan.rays) - 2) for fan in bundles)
    fans += bundles
    for fan in named:
        fans += _kinds_of_damage(fan, rng)
    overlaps = [OVERLAPPING, PENTAGRAM, _with_p1(OVERLAPPING), _with_p1(PENTAGRAM)]
    fans += overlaps + [rebase_fan(fan, random_unimodular(rng, fan.dim)) for fan in overlaps]
    fans += REPEATED + BAD_INDICES + [Fan(2, (), ())]
    corrupted = _corrupted_fans()
    assert len(corrupted) == 729
    fans += corrupted
    reasons = set()
    # an improper pair (ci, cj) with ci != 0 can only come from check 2,
    # the wall test, since check 3 pairs cone 0 with each cone holding p
    walls_not_separated = {2: 0, 3: 0}
    valid = 0
    for fan in fans:
        report = validate(fan)
        assert report == reference_validate(fan), fan.to_dict()
        reasons.update(reason for reason, _ in report.offending_cones)
        walls_not_separated[fan.dim] += sum(
            reason == "improper_intersection" and pair[0] != 0 for reason, pair in report.offending_cones
        )
        # the tables that equality leaves out, on every report that keeps them
        if report.ok:
            valid += 1
            assert len(report.cone_normals) == len(fan.max_cones)
            for rows, cone in zip(report.cone_normals, fan.max_cones):
                assert rows == reference_inward_normals(fan, cone), (fan.to_dict(), cone)
            assert report.walls == reference_wall_relations(fan), fan.to_dict()
    assert walls_not_separated[3] >= 557 and walls_not_separated[2] >= 52
    # the catalog fans and their rebasings, the bundles, and 113 of the corrupted set
    assert valid == 4 * 34 + 304 + 113
    assert {
        "zero_ray", "non_primitive_ray", "duplicate_ray", "duplicate_cone", "unused_ray",
        "cone_degenerate", "cone_not_unimodular", "facet_unmatched", "improper_intersection",
        "no_cones", "bad_ray_index", "cone_wrong_size",
    } <= reasons
    assert sum(not validate(fan).ok for fan in fans) > 150


# duplicate rays, duplicate cones and unused rays in one fan, and a bad index
# that makes the set of used indices as large as the ray count while ray 2
# is unused
MIXED_DAMAGE = [
    Fan(2, ((1, 0), (0, 1), (1, 0), (-1, -1), (2, 3), (-1, -1)),
        ((0, 1), (1, 3), (0, 1), (0, 3), (1, 3))),
    Fan(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 0), (-1, -1, -1), (5, 5, 1)),
        ((0, 1, 2), (0, 1, 4), (0, 2, 4), (0, 1, 2), (1, 2, 4), (0, 1, 4))),
    Fan(2, _TRIANGLE, ((0, 1), (1, 3), (0, 3))),
]


def test_validate_agrees_with_the_reference_on_mixed_damage():
    # each check before the determinants runs only when its set size shows
    # a defect; all of them fire together here
    for fan in MIXED_DAMAGE:
        assert validate(fan) == reference_validate(fan), fan.to_dict()
    reasons = {reason for fan in MIXED_DAMAGE for reason, _ in validate(fan).offending_cones}
    assert {"duplicate_ray", "duplicate_cone", "unused_ray", "bad_ray_index"} <= reasons
    assert ("unused_ray", (2,)) in validate(MIXED_DAMAGE[2]).offending_cones


def test_cone_kernel_agrees_with_the_cofactor_references():
    """``cone_det_and_normals`` against ``cofactor_det`` and
    ``reference_inward_normals`` on every cone of the 2704 bundles of the
    bound-3 box, of the catalog fans and three rebasings of each, and of
    their damaged rebasings, whose cones include degenerate and
    non-unimodular ones; on a degenerate cone only the determinants are
    compared. Every class of |det| in dimensions 2 and 3 other than 0, and
    det = 1 in dimension 1, comes with both signs, so that the negation of
    each closed form is reached.

    The box bundles are built with the ``Fan`` constructor, not validated,
    and checked before anything builds the catalog 3-folds, so a fault in
    the kernel fails here on a named cone."""

    def unvalidated_bundle(fiber, w):
        # the rays and cones of build_bundle(fiber, w, (0, 0))
        n = len(fiber.rays)
        rays = tuple(r + (0,) for r in fiber.rays) + (tuple(w) + (1,), (0, 0, -1))
        cones = tuple(tuple(sorted(c + (k,))) for c in fiber.max_cones for k in (n, n + 1))
        return Fan(3, rays, cones)

    def check(fans):
        for fan in fans:
            for cone in fan.max_cones:
                det, rows = cone_det_and_normals(fan, cone)
                assert det == cofactor_det(cone_columns(fan, cone)), (fan.to_dict(), cone)
                if det != 0:
                    assert rows == reference_inward_normals(fan, cone), (fan.to_dict(), cone)
                dets.add((fan.dim, min(abs(det), 2), (det > 0) - (det < 0)))

    dets = set()
    box = [
        (nf.fan, (sx, sy))
        for nf in surfaces()
        for sx in range(-6, 7)
        for sy in range(-6, 7)
    ]
    assert len(box) == 2704
    check([unvalidated_bundle(*spec) for spec in box] + [Fan(1, ((1,), (-1,)), ((0,), (1,)))])
    assert all(unvalidated_bundle(*spec) == build_bundle(*spec, (0, 0)) for spec in box[:169])
    rng = random.Random(1307)
    named = [nf.fan for nf in all_named().values()]
    check(named + [rebase_fan(fan, random_unimodular(rng, fan.dim)) for fan in named for _ in range(3)])
    check([damaged for fan in named for damaged in _kinds_of_damage(fan, rng)])
    signed = {(d, k, s) for d in (2, 3) for k in (1, 2) for s in (1, -1)}
    assert dets == signed | {(2, 0, 0), (3, 0, 0), (1, 1, 1), (1, 1, -1)}


# one fan per way of failing validation; each is 2-dimensional, so that
# ``bundle_candidates`` passes its dimension check and reaches the table
INVALID_FANS = {
    "not_smooth": Fan(2, ((1, 0), (1, 2), (-1, -1)), ((0, 1), (1, 2), (0, 2))),
    "not_complete": Fan(2, P2.rays, P2.max_cones[1:]),
    "no_cones": Fan(2, (), ()),
    "cone_wrong_size": Fan(2, P2.rays, ((0,),) + P2.max_cones[1:]),
}

# every reader of the cone-inverse and wall tables; the witness is given a
# relation of X3_0, which it never reaches on an invalid fan
TABLE_READERS = {
    "maximal_cone_normals": maximal_cone_normals,
    "wall_relations": wall_relations,
    "wall_far_rays": wall_far_rays,
    "self_intersection_sequence": self_intersection_sequence,
    "primitive_collections": primitive_collections,
    "is_fano": is_fano,
    "is_weak_fano": is_weak_fano,
    "zero_two_normal_form_witness": lambda fan: zero_two_normal_form_witness(
        fan, primitive_collections(named_fan("X3_0").fan)[0]
    ),
    "find_isomorphism(invalid, P2)": lambda fan: find_isomorphism(fan, P2),
    "find_isomorphism(P2, invalid)": lambda fan: find_isomorphism(P2, fan),
    "canonical_key": canonical_key,
    "anticanonical_degree": anticanonical_degree,
    "bundle_candidates": bundle_candidates,
    "crepant_relations": crepant_relations,
}


@pytest.mark.parametrize("fan", INVALID_FANS.values(), ids=INVALID_FANS.keys())
@pytest.mark.parametrize("reader", TABLE_READERS.values(), ids=TABLE_READERS.keys())
def test_every_reader_of_the_cone_inverses_refuses_an_invalid_fan(reader, fan):
    """The cone rows are an inverse only on a fan that validates, and an
    invalid fan's report keeps no table, not even a misaligned one: the
    complete fan that is not smooth has walls, but no wall relations."""
    assert not fan.report.ok and fan.report.cone_normals == () and fan.report.walls == {}
    with pytest.raises(ValueError, match="does not validate"):
        reader(fan)


def test_each_wall_keeps_its_far_rays(flop_corpus):
    """Each kept wall relation c + d = sum alpha_t a_t holds c and d, the rays
    of its two cones off the wall, c in the first of them in ``max_cones``
    order, as ``_oracles.far_rays`` finds them by scanning the cones: on the
    catalog fans, fresh copies of the 304 bundles of the sweep, a corpus of
    blow-ups and flops off the bundle family and the 8-ray fan that is not
    projective. A report that is not ok keeps no wall at all (see
    ``test_every_reader_of_the_cone_inverses_refuses_an_invalid_fan``)."""
    bundles = [Fan(3, fan.rays, fan.max_cones) for fan in sweep_bundles_b3()]
    fans = [nf.fan for nf in all_named().values()] + bundles + list(flop_corpus) + [non_projective_fan()]
    assert len(fans) == 34 + 304 + 687 + 1
    for fan in fans:
        kept = wall_far_rays(fan)
        assert kept == {facet: tuple(rays) for facet, rays in far_rays(fan).items()}, fan.to_dict()
        # the class of each wall is a relation among the rays
        for facet, alphas in wall_relations(fan).items():
            c, d = kept[facet]
            total = vsum([fan.rays[c], fan.rays[d]], fan.dim)
            assert total == vsum([tuple(alpha * x for x in fan.rays[t]) for t, alpha in zip(facet, alphas)], fan.dim)


def test_a_valid_report_keeps_one_inverse_per_maximal_cone():
    for nf in all_named().values():
        table = nf.fan.report.cone_normals
        assert maximal_cone_normals(nf.fan) is table and len(table) == len(nf.fan.max_cones)
        for cone, rows in zip(nf.fan.max_cones, table):
            assert rows == cone_det_and_normals(nf.fan, cone)[1]
        # and one relation per wall: each maximal cone has d facets, each
        # shared by two cones; a relation has one coefficient per facet ray
        walls = wall_relations(nf.fan)
        assert walls is nf.fan.report.walls
        assert len(walls) == len(nf.fan.max_cones) * nf.fan.dim // 2
        assert all(len(alphas) == len(facet) == nf.fan.dim - 1 for facet, alphas in walls.items())


def test_ccw_sorted_agrees_with_the_reference_comparator():
    """The sort key orders points as the comparator it replaced did: every
    primitive vector with entries in [-5, 5], shuffled under a few seeds, and
    the rays of the 96 one-point blow-ups of the 16 catalog surfaces."""
    vectors = [
        (x, y) for x in range(-5, 6) for y in range(-5, 6) if (x, y) != (0, 0) and is_primitive((x, y))
    ]
    for seed in range(4):
        points = list(vectors)
        random.Random(seed).shuffle(points)
        assert ccw_sorted(points) == reference_ccw_sorted(points)
    blowups = [
        list(nf.fan.rays) + [tuple(x + y for x, y in zip(nf.fan.rays[i], nf.fan.rays[j]))]
        for nf in surfaces()
        for i, j in nf.fan.max_cones
    ]
    assert len(blowups) == 96
    for rays in blowups:
        assert ccw_sorted(rays) == reference_ccw_sorted(rays)


def test_validate_invariant_under_unimodular_rebasing():
    rng = random.Random(29)
    for name in ("F2", "W5_1", "X4_1", "PP2_O_O3"):
        fan = named_fan(name).fan
        for _ in range(5):
            u = random_unimodular(rng, fan.dim)
            report = validate(rebase_fan(fan, u))
            assert report.is_smooth and report.is_complete


class TestJsonFormat:
    def test_documented_shape(self):
        fan = fan_from_json('{"dim": 2, "rays": [[1,0],[0,1],[-1,-1]], "max_cones": [[0,1],[1,2],[0,2]]}')
        assert fan == P2

    def test_round_trip_is_identity(self):
        for name in ("P2", "F2", "X3_0", "P1xW7", "PP2_O_O3"):
            fan = named_fan(name).fan
            text = json.dumps(fan.to_dict())
            again = fan_from_json(text)
            assert again == fan
            assert json.dumps(again.to_dict()) == text

    def test_canonical_serialization_is_stable(self):
        fan = named_fan("X5_1").fan
        text = json.dumps(fan.to_dict())
        assert json.loads(text)["dim"] == 3
        assert json.dumps(fan_from_json(text).to_dict()) == text

    @pytest.mark.parametrize(
        "text",
        [
            '{"dim": 2, "rays": [[1.7,0],[0,1],[-1,-1]], "max_cones": [[0,1],[1,2],[0,2]]}',
            '{"dim": 2, "rays": [[true,0],[0,1],[-1,-1]], "max_cones": [[0,1],[1,2],[0,2]]}',
            '{"dim": 2, "rays": [["1",0],[0,1],[-1,-1]], "max_cones": [[0,1],[1,2],[0,2]]}',
            DIM4_FAN,
        ],
        ids=["float", "bool", "string", "dim4"],
    )
    def test_non_integer_entries_and_dim_4_rejected(self, text):
        # each of these once parsed into a fan: coerced to P2, or a 4-fan no
        # other function supports
        with pytest.raises(ValueError):
            fan_from_json(text)

    def test_constructor_rejects_non_integer_entries(self):
        # the constructor once truncated 1.7 to 1 and built P2
        with pytest.raises(ValueError):
            Fan(2, ((1.7, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2)))

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            fan_from_json('{"dim": 2, "rays": [[1,0,0]], "max_cones": []}')
        with pytest.raises(ValueError):
            fan_from_json('{"rays": [[1,0]]}')


class TestConstructorGate:
    """``Fan`` itself refuses a dim outside 1 to 3 and rays of the wrong
    length, so no fan with more than 3 coordinates reaches the package."""

    @pytest.mark.parametrize(
        "dim, rays, cones",
        [
            (4, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -1)), ((0, 1, 2, 3),)),
            (0, (), ()),
            (True, ((1,), (-1,)), ((0,), (1,))),
            ("3", P2.rays, P2.max_cones),
            (2, ((1, 0, 0), (0, 1), (-1, -1)), P2.max_cones),
        ],
        ids=["dim4", "dim0", "dim_true", "dim_string", "ray_too_long"],
    )
    def test_constructor_refuses_shape(self, dim, rays, cones):
        with pytest.raises(ValueError):
            Fan(dim, rays, cones)

    @pytest.mark.parametrize(
        "rays, cones, message",
        [
            ([[1, 0], [True, 1], [-1, -1]], P2.max_cones, "ray [True, 1] holds an entry that is not an integer"),
            ([[1, 0], [0, 1.0], [-1, -1]], P2.max_cones, "ray [0, 1.0] holds an entry that is not an integer"),
            ([[1, 0], [0, 1], ["-1", -1]], P2.max_cones, "ray ['-1', -1] holds an entry that is not an integer"),
            (P2.rays, [[0, 1], [1, 2], [0, True]], "cone [0, True] holds an entry that is not an integer"),
            (P2.rays, [[0, 1.0], [1, 2], [0, 2]], "cone [0, 1.0] holds an entry that is not an integer"),
            (P2.rays, [[0, 1], ["1", 2], [0, 2]], "cone ['1', 2] holds an entry that is not an integer"),
            ([[1, 0], [0, 1], [-1, -1.5]], [[0, 1], [1, 2.0], [0, 2]],
             "ray [-1, -1.5] holds an entry that is not an integer"),
            ([[1.5, 0], 5], P2.max_cones, "ray [1.5, 0] holds an entry that is not an integer"),
            ([[1.5, 0]], 5, "ray [1.5, 0] holds an entry that is not an integer"),
            ([[1, 0], [0, 1, 0.5], [-1, -1]], P2.max_cones,
             "ray [0, 1, 0.5] holds an entry that is not an integer"),
            (P2.rays, [[0, 1], [2, 1, 2], [0, 2]], "cone has repeated ray indices: (1, 2, 2)"),
            (P2.rays, [[1, 1], [0, 2.5]], "cone has repeated ray indices: (1, 1)"),
            (P2.rays, [[0, 2.5], [1, 1]], "cone [0, 2.5] holds an entry that is not an integer"),
        ],
        ids=["bool_ray", "float_ray", "string_ray", "bool_cone", "float_cone", "string_cone",
             "ray_before_cone", "entry_before_iteration", "ray_before_cone_list", "entry_before_length",
             "repeat", "repeat_in_earlier_cone", "entry_in_earlier_cone"],
    )
    def test_constructor_messages(self, rays, cones, message):
        # the first offender is named, rays before cones and cones in order
        with pytest.raises(ValueError) as caught:
            Fan(2, rays, cones)
        assert str(caught.value) == message

    def test_constructor_normalises_lists_and_iterators(self):
        fan = Fan(2, [[0, 1], [1, 0], [-1, -1]], [[1, 0], [2, 1], [2, 0]])
        assert fan.rays == ((0, 1), (1, 0), (-1, -1)) and fan.max_cones == ((0, 1), (1, 2), (0, 2))
        again = Fan(2, (iter(r) for r in fan.rays), (iter(c[::-1]) for c in fan.max_cones))
        assert again == fan and type(again.rays[0]) is tuple
        with pytest.raises(TypeError):
            Fan(2, [[1, 0], 5], P2.max_cones)

    def test_json_messages(self):
        with pytest.raises(ValueError, match=r"^dim 4 is not 1, 2 or 3$"):
            fan_from_json(DIM4_FAN)
        with pytest.raises(ValueError, match=r"^ray \(1, 0, 0\) does not have 2 coordinates$"):
            fan_from_json('{"dim": 2, "rays": [[1,0,0]], "max_cones": []}')
        # an entry that is not an int is reported before a wrong length
        with pytest.raises(ValueError, match=r"^ray \[1\.5, 0, 0\] holds an entry that is not an integer$"):
            fan_from_json('{"dim": 2, "rays": [[1.5,0,0]], "max_cones": []}')
        with pytest.raises(ValueError, match=r"^malformed fan data: 'rays'$"):
            fan_from_json('{"dim": 2, "max_cones": []}')

    @pytest.mark.parametrize(
        "text, message",
        [
            ('[[1, 0], [0, 1]]', r"^malformed fan data: list indices must be integers"),
            ('"P2"', r"^malformed fan data: string indices must be integers"),
            ('{"dim": 2, "rays": 5, "max_cones": []}', r"^malformed fan data: 'int' object is not iterable$"),
            ('{"dim": 2, "rays": [], "max_cones": [7]}', r"^malformed fan data: 'int' object is not iterable$"),
            ("[" * 100000, r"^fan JSON is nested too deeply$"),
        ],
        ids=["list", "string", "rays_not_a_list", "cone_not_a_list", "deep"],
    )
    def test_json_that_holds_no_fan_is_a_value_error(self, text, message):
        # a KeyError, TypeError or RecursionError never reaches the caller
        with pytest.raises(ValueError, match=message):
            fan_from_json(text)
