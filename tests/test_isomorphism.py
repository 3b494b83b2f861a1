import random

from torifan.catalog import named_fan, surfaces, threefolds
from torifan.fan import Fan, fan_from_json, hirzebruch_fan
from torifan.isomorphism import (
    canonical_key,
    find_isomorphism,
    isomorphism_invariants,
)
from torifan.lattice import matvec
from torifan.polytope import anticanonical_degree
from torifan.primitive import primitive_collections

from _oracles import random_unimodular, rebase_fan


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
