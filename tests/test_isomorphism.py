import random
from collections import defaultdict

import pytest

from torifan.catalog import all_named, named_fan, surfaces, threefolds
from torifan.fan import Fan, build_bundle, fan_from_json, wall_far_rays, wall_relations
from torifan.isomorphism import canonical_key, find_isomorphism
from torifan.lattice import matmul, matvec
from torifan.polytope import anticanonical_degree
from torifan.primitive import primitive_collections

from _oracles import (
    hirzebruch_fan,
    isomorphism_invariants,
    random_unimodular,
    rebase_fan,
    reference_canonical_key,
    reference_find_isomorphism,
    sweep_bundles_b3,
)


def test_reordered_rays_are_isomorphic():
    f0 = hirzebruch_fan(0)
    p1p1 = named_fan("P1xP1").fan
    iso = find_isomorphism(f0, p1p1)
    assert iso is not None
    # the witness really maps rays onto rays
    for i, r in enumerate(f0.rays):
        assert matvec(iso.matrix, r) == p1p1.rays[iso.ray_permutation[i]]


def test_f1_f2_not_isomorphic():
    assert find_isomorphism(named_fan("F1").fan, named_fan("F2").fan) is None
    assert isomorphism_invariants(named_fan("F1").fan) != isomorphism_invariants(
        named_fan("F2").fan
    )


def test_coordinate_flip_symmetry():
    fan = named_fan("X4_1").fan
    flipped = Fan(
        3, tuple((r[0], -r[1], r[2]) for r in fan.rays), fan.max_cones
    )
    iso = find_isomorphism(fan, flipped)
    assert iso is not None


def test_16_surfaces_pairwise_distinct():
    keys = [canonical_key(nf.fan) for nf in surfaces()]
    assert len(set(keys)) == 16


def test_15_threefolds_pairwise_distinct():
    keys = [canonical_key(nf.fan) for nf in threefolds()]
    assert len(set(keys)) == 15


def test_key_invariant_under_rebasing():
    rng = random.Random(37)
    for name in ("P1xP1", "W6_3", "X3_0", "P1xW4_2"):
        fan = named_fan(name).fan
        key = canonical_key(fan)
        for _ in range(5):
            u = random_unimodular(rng, fan.dim)
            assert canonical_key(rebase_fan(fan, u)) == key


def test_key_equality_iff_isomorphism_on_catalog_pairs():
    fans = [nf.fan for nf in threefolds()]
    keys = [canonical_key(f) for f in fans]
    for i in range(len(fans)):
        for j in range(i + 1, len(fans)):
            iso = find_isomorphism(fans[i], fans[j])
            assert (keys[i] == keys[j]) == (iso is not None)
            assert iso is None  # the catalog is already reduced


def test_invariants_agree_when_isomorphic():
    rng = random.Random(41)
    for name in ("S6", "X5_1"):
        fan = named_fan(name).fan
        other = rebase_fan(fan, random_unimodular(rng, fan.dim))
        assert len(fan.rays) == len(other.rays)
        assert sorted(r.degree for r in primitive_collections(fan)) == sorted(
            r.degree for r in primitive_collections(other)
        )
        assert anticanonical_degree(fan) == anticanonical_degree(other)


def test_key_decodes_to_an_isomorphic_fan():
    fan = named_fan("W4_3").fan
    form = fan_from_json(canonical_key(fan).decode())
    assert find_isomorphism(fan, form) is not None
    assert canonical_key(form) == canonical_key(fan)


def test_key_refuses_a_fan_that_is_not_smooth():
    # complete and simplicial, but det((1,0), (1,2)) = 2: the cone
    # rows are an adjugate there, not an inverse
    fan = Fan(2, ((1, 0), (1, 2), (-1, -1)), ((0, 1), (1, 2), (0, 2)))
    assert fan.report.is_simplicial and not fan.report.is_smooth
    with pytest.raises(ValueError):
        canonical_key(fan)
    with pytest.raises(ValueError):
        canonical_key(Fan(2, (), ()))


# smooth and complete fans are the only ones either search accepts
NOT_SMOOTH = Fan(2, ((1, 0), (1, 2), (-1, -1)), ((0, 1), (1, 2), (0, 2)))
NOT_COMPLETE = Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2)))
NO_CONES = Fan(2, (), ())


def test_key_refuses_a_fan_that_is_not_complete():
    assert NOT_COMPLETE.report.is_smooth and not NOT_COMPLETE.report.is_complete
    with pytest.raises(ValueError, match="does not validate"):
        canonical_key(NOT_COMPLETE)


def test_search_refuses_a_fan_that_does_not_validate():
    # in either position, whatever the size and dimension of the other fan
    others = [named_fan(name).fan for name in ("P2", "P1xP1", "X3_0")]
    for bad in (NOT_SMOOTH, NOT_COMPLETE, NO_CONES):
        assert not bad.report.ok
        for other in others + [NOT_SMOOTH, NOT_COMPLETE, NO_CONES]:
            with pytest.raises(ValueError, match="does not validate"):
                find_isomorphism(bad, other)
            with pytest.raises(ValueError, match="does not validate"):
                find_isomorphism(other, bad)


def test_valid_fans_of_another_size_are_not_isomorphic():
    p1 = Fan(1, ((1,), (-1,)), ((0,), (1,)))
    p3 = Fan(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)),
             ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
    p2, p1xp1, x3_0 = (named_fan(name).fan for name in ("P2", "P1xP1", "X3_0"))
    # another ray count in one dimension; another dimension at one ray count
    pairs = [(p2, p1xp1), (p1xp1, x3_0), (p1, p2), (p1xp1, p3)]
    for f, g in pairs:
        assert find_isomorphism(f, g) is None and find_isomorphism(g, f) is None


def _fresh(fan):
    """A copy with an empty memo."""
    return Fan(fan.dim, fan.rays, fan.max_cones)


def _rebased_to_digits(fan, digits: int, rng: random.Random):
    """A seeded rebasing of the fan whose largest |ray entry| has ``digits``
    digits, or the fan itself if its largest entry has that many or more."""
    low, high = 10 ** (digits - 1), 10 ** digits
    if max(abs(x) for r in fan.rays for x in r) >= low:
        return fan
    for _ in range(1000):
        u = random_unimodular(rng, fan.dim)
        if digits == 3:
            u = matmul(u, random_unimodular(rng, fan.dim))
        other = rebase_fan(fan, u)
        if low <= max(abs(x) for r in other.rays for x in r) < high:
            return other
    raise AssertionError(f"no rebasing with {digits}-digit entries found")


class TestAgainstReference:
    """Both searches read coordinates from the cone inverses; the
    references in ``_oracles`` invert every candidate basis. Keys must agree
    byte for byte and witnesses exactly, matrix and ray permutation."""

    @staticmethod
    def check_key(fan) -> None:
        assert canonical_key(_fresh(fan)) == reference_canonical_key(_fresh(fan)), fan.to_dict()

    @staticmethod
    def check_witness(f, g):
        iso = find_isomorphism(_fresh(f), _fresh(g))
        assert iso == reference_find_isomorphism(_fresh(f), _fresh(g)), (f.to_dict(), g.to_dict())
        return iso

    def test_keys_on_the_catalog_and_its_rebasings(self):
        rng = random.Random(43)
        fans = [nf.fan for nf in all_named().values()]
        assert len(fans) == 34
        for fan in fans:
            self.check_key(fan)
            for _ in range(3):
                self.check_key(rebase_fan(fan, random_unimodular(rng, fan.dim)))
        self.check_key(Fan(1, ((1,), (-1,)), ((0,), (1,))))

    def test_keys_where_text_and_numeric_order_differ(self):
        """Keys on fans whose ray coordinates have two and three digits.

        Texts order "[-1" < "[10" < "[2", so here the text order of rays is
        not their numeric order, which the first-ray cut of the key must
        respect. A key's candidates are ray coordinates in the bases of the
        cones, which a rebasing does not change, so the large entries come
        from the fans themselves: F_a and bundles over it with large twists.
        Each fan, and each catalog fan, is also checked under seeded
        rebasings whose largest entry has two and three digits.
        """
        rng = random.Random(59)
        fans = [nf.fan for nf in all_named().values()]
        for a in (10, 99, 100, 999):
            fiber = hirzebruch_fan(a)
            fans.append(fiber)
            for plus, minus in (((a // 2, -3), (0, 0)), ((-1, a), (1, 1)), ((a, a - 1), (-a, 2))):
                fans.append(build_bundle(fiber, plus, minus))
        for fan in fans:
            self.check_key(fan)
            for digits in (2, 3):
                self.check_key(_rebased_to_digits(fan, digits, rng))

    def test_keys_on_the_304_b3_bundles(self):
        bundles = sweep_bundles_b3()
        assert len(bundles) == 304
        for fan in bundles:
            self.check_key(fan)

    def test_witnesses_on_rebased_pairs(self):
        rng = random.Random(47)
        for nf in all_named().values():
            for _ in range(3):
                other = rebase_fan(nf.fan, random_unimodular(rng, nf.fan.dim))
                assert self.check_witness(nf.fan, other) is not None
                assert self.check_witness(other, nf.fan) is not None
        # P1 and its negation: in dimension 1 the only order is the identity
        p1 = Fan(1, ((1,), (-1,)), ((0,), (1,)))
        assert self.check_witness(p1, rebase_fan(p1, ((-1,),))) is not None

    def test_witnesses_on_isomorphic_bundle_pairs(self):
        """Every ordered pair of distinct b3 bundles with one key.

        Besides matching the reference, each witness must send every wall of
        f to a wall of g of the same kept degree: the wall-degree cuts of the
        search skip exactly the candidates that would not. It sends the kept
        far rays of the wall to those of its image too.
        """
        by_key = defaultdict(list)
        for fan in sweep_bundles_b3():
            by_key[canonical_key(fan)].append(fan)
        pairs = [(f, g) for group in by_key.values() for f in group for g in group if f is not g]
        assert (len(by_key), len(pairs)) == (179, 478)
        for f, g in pairs:
            iso = self.check_witness(f, g)
            assert iso is not None
            g_walls, f_far, g_far = wall_relations(g), wall_far_rays(f), wall_far_rays(g)
            for wall, alphas in wall_relations(f).items():
                image = tuple(sorted(iso.ray_permutation[i] for i in wall))
                relation = {iso.ray_permutation[i]: alpha for i, alpha in zip(wall, alphas)}
                assert dict(zip(image, g_walls[image])) == relation
                assert sorted(g_far[image]) == sorted(iso.ray_permutation[i] for i in f_far[wall])

    def test_no_witness_on_equal_size_pairs(self):
        fans = [nf.fan for nf in all_named().values()]
        pairs = [
            (f, g) for f in fans for g in fans
            if f is not g and f.dim == g.dim and len(f.rays) == len(g.rays)
        ]
        assert len(pairs) == 68
        # bundles that no invariant tells apart reach the search itself
        by_invariants = defaultdict(list)
        for fan in sweep_bundles_b3():
            by_invariants[isomorphism_invariants(fan)].append(fan)
        same_invariants = [
            (f, g) for group in by_invariants.values() for f in group for g in group
            if canonical_key(f) != canonical_key(g)
        ]
        pairs += random.Random(53).sample(same_invariants, 120)
        for f, g in pairs:
            assert self.check_witness(f, g) is None
