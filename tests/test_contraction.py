import random

import pytest

from torifan.catalog import all_named, named_fan, surfaces, threefolds
from torifan.classify import build_bundle
from torifan.contraction import (
    contraction_shape,
    crepant_contractions,
    is_weakened_fano,
    zero_two_normal_form_witness,
)
from torifan.fan import Fan, cone_contains, fan_from_rays_2d
from torifan.lattice import matvec, vsum
from torifan.primitive import is_extremal, is_fano, is_weak_fano, primitive_collections

from _oracles import (
    eager_weakened_verdict,
    in_relative_interior,
    random_unimodular,
    rebase_fan,
    reference_bundle_relations,
    reference_section_relation,
    reference_zero_two_witness,
)


def crepant_double_relation(fan):
    """The relation x+ + x- = 2*x0, which every weakened catalog 3-fold has."""
    return next(
        r
        for r in primitive_collections(fan)
        if r.degree == 0 and len(r.coeffs) == 1 and r.coeffs[0][1] == 2
    )


class TestClassifyContraction:
    def test_x3_0_collapses_p1xp1(self):
        fan = named_fan("X3_0").fan
        kind = contraction_shape(fan, crepant_double_relation(fan))
        assert kind.kind == "zero_two" and kind.a == 0

    def test_x5_1_collapses_f1(self):
        fan = named_fan("X5_1").fan
        kind = contraction_shape(fan, crepant_double_relation(fan))
        assert kind.kind == "zero_two" and kind.a == 1

    def test_exceptional_ray_is_the_relation_center(self):
        fan = named_fan("P1xF2").fan
        rel = crepant_double_relation(fan)
        kind = contraction_shape(fan, rel)
        assert kind.exceptional_ray == rel.coeffs[0][0]

    def test_divisor_to_point_on_p1_bundle_over_p2(self):
        fan = named_fan("PP2_O_O3").fan
        rels = primitive_collections(fan)
        rel = next(r for r in rels if len(r.collection) == 3 and r.degree == 0)
        # oracle check of the stated relation: v1 + v2 + v3 = 3 * (0,0,1)
        total = vsum([fan.rays[i] for i in rel.collection], 3)
        assert total == (0, 0, 3)
        assert rel.coeffs == ((3, 3),) and fan.rays[3] == (0, 0, 1)
        assert contraction_shape(fan, rel).kind == "divisor_to_point"

    def test_small_contraction_shape(self):
        fan = build_bundle(named_fan("P1xP1").fan, (1, 1), (0, 0))
        rels = primitive_collections(fan)
        rel = next(r for r in rels if r.degree == 0)
        assert len(rel.coeffs) == 2
        # the section cone does not contain the target cone here
        targets = [i for i, _ in rel.coeffs]
        assert not all(cone_contains(fan, rel.collection, fan.rays[t]) for t in targets)
        assert contraction_shape(fan, rel).kind == "small"

    def test_crepancy_offset_must_vanish(self):
        # same F1 fiber rays in a different presentation: the double relation
        # survives but the image curve degree is off, so the kind is "other"
        fiber = fan_from_rays_2d([(1, 0), (0, 1), (-1, 0), (1, -1)])
        fan = build_bundle(fiber, (1, 0), (1, 0))
        verdict = is_weakened_fano(fan)
        assert verdict.is_weak_fano and not verdict.is_fano
        kinds = [k.kind for _, k in crepant_contractions(fan)]
        assert kinds == ["other"]
        assert not verdict.is_weakened

    def test_nonzero_degree_rejected(self):
        fan = named_fan("X3_0").fan
        rel = next(r for r in primitive_collections(fan) if r.degree > 0)
        with pytest.raises(ValueError):
            contraction_shape(fan, rel)

    def test_non_extremal_rejected(self):
        # this W4_3 bundle is weak Fano with a crepant class that decomposes
        # into two extremal crepant classes, hence is not extremal itself
        fan = build_bundle(named_fan("W4_3").fan, (-2, 0), (0, 0))
        rels = primitive_collections(fan)
        rel = next(r for r in rels if r.collection == (3, 5))
        assert rel.degree == 0
        assert not is_extremal(fan, rel)
        # it has a shape but defines no contraction: the table leaves it out
        assert rel not in [r for r, _ in crepant_contractions(fan)]

    def test_dimension_two_rejected(self):
        fan = named_fan("F2").fan
        rel = next(r for r in primitive_collections(fan) if r.degree == 0)
        with pytest.raises(ValueError):
            contraction_shape(fan, rel)


class TestNormalFormWitness:
    def test_witness_reproduces_normal_form(self):
        for name in ("X3_0", "X4_0", "X4_1", "X5_1", "P1xF2", "P1xW7"):
            fan = named_fan(name).fan
            rel = crepant_double_relation(fan)
            witness = zero_two_normal_form_witness(fan, rel)
            assert witness is not None
            u, (x0, xp, xm, yp, ym), a = witness
            assert matvec(u, fan.rays[x0]) == (1, 0, 0)
            assert matvec(u, fan.rays[xp]) == (1, 1, 0)
            assert matvec(u, fan.rays[xm]) == (1, -1, 0)
            assert matvec(u, fan.rays[yp]) == (0, 0, 1)
            assert matvec(u, fan.rays[ym]) == (0, a, -1)
            # the four cones of the configuration appear in the transformed fan
            transformed = {
                tuple(sorted(matvec(u, fan.rays[i]) for i in cone)): cone
                for cone in fan.max_cones
            }
            for pair in ((1, 1, 0), (1, -1, 0)):
                for section in ((0, 0, 1), (0, a, -1)):
                    key = tuple(sorted([(1, 0, 0), pair, section]))
                    assert key in transformed

    def test_witness_agrees_with_the_reference_on_every_degree_zero_relation(self):
        """The witness reads the cone inverses and builds U once; the
        version that inverted every candidate basis must return the same
        (U, names, a) or None. The fans: the catalog 3-folds, every bundle
        over the 16 fibers with w+ in [-6, 6]^2 and w- in {(0, 0), (1, -1)},
        and 400 seeded rebasings of those with an x+ + x- = 2*x0 relation of
        degree 0, the only shape the witness searches."""
        fans = [
            (nf.fan, primitive_collections(nf.fan)) for nf in all_named().values() if nf.fan.dim == 3
        ]
        for nf in surfaces():
            for plus in ((sx, sy) for sx in range(-6, 7) for sy in range(-6, 7)):
                for minus in ((0, 0), (1, -1)):
                    fan = build_bundle(nf.fan, plus, minus)
                    assert fan.report.ok and len(fan.max_cones) == 2 * len(nf.fan.max_cones)
                    section = reference_section_relation(nf.fan, plus, minus)
                    fans.append((fan, reference_bundle_relations(nf.fan, section)))
        doubled = [
            fan for fan, rels in fans
            if any(r.degree == 0 and len(r.coeffs) == 1 and r.coeffs[0][1] == 2 for r in rels)
        ]
        rng = random.Random(41)
        for _ in range(400):
            fan = rebase_fan(rng.choice(doubled), random_unimodular(rng, 3))
            fans.append((fan, primitive_collections(fan)))
        found = absent = 0
        for fan, rels in fans:
            for rel in rels:
                if rel.degree == 0:
                    witness = zero_two_normal_form_witness(fan, rel)
                    assert witness == reference_zero_two_witness(fan, rel), (fan.to_dict(), rel)
                    found += witness is not None
                    absent += witness is None
        assert len(fans) == 5826 and found == 999 and absent == 14765

    def test_witness_refuses_a_fan_that_does_not_validate(self):
        fan = named_fan("X3_0").fan
        rel = crepant_double_relation(fan)
        broken = Fan(3, fan.rays, fan.max_cones[1:])
        with pytest.raises(ValueError, match="does not validate"):
            zero_two_normal_form_witness(broken, rel)

    def test_witness_absent_for_offset_configuration(self):
        fiber = fan_from_rays_2d([(1, 0), (0, 1), (-1, 0), (1, -1)])
        fan = build_bundle(fiber, (1, 0), (1, 0))
        rel = crepant_double_relation(fan)
        assert zero_two_normal_form_witness(fan, rel) is None


class TestWeakenedPredicate:
    def test_all_fifteen_catalog_threefolds(self):
        for nf in threefolds():
            verdict = is_weakened_fano(nf.fan)
            assert verdict.is_weakened, nf.name
            assert verdict.is_weak_fano and not verdict.is_fano

    def test_fano_products_are_not_weakened(self):
        for name in ("P1xP1xP1", "P1xS6"):
            verdict = is_weakened_fano(named_fan(name).fan)
            assert verdict.is_fano
            assert not verdict.is_weakened

    def test_divisor_to_point_blocks_weakened(self):
        fan = named_fan("PP2_O_O3").fan
        verdict = is_weakened_fano(fan)
        assert verdict.is_weak_fano and not verdict.is_fano
        assert not verdict.is_weakened
        assert [k.kind for _, k in crepant_contractions(fan)] == ["divisor_to_point"]

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            is_weakened_fano(named_fan("W3").fan)
        with pytest.raises(ValueError):
            crepant_contractions(named_fan("W3").fan)

    def test_verdict_consistency(self):
        for nf in threefolds():
            verdict = is_weakened_fano(nf.fan)
            if verdict.is_weakened:
                assert verdict.is_weak_fano and not verdict.is_fano
                assert all(k.kind == "zero_two" for _, k in crepant_contractions(nf.fan))


def test_shape_first_verdict_agrees_with_eager_verdict():
    catalog_fans = [nf.fan for nf in all_named().values() if nf.fan.dim == 3]
    sums = [
        (nf.fan, (sx, sy), reference_section_relation(nf.fan, (sx, sy), (0, 0)).degree >= 0)
        for nf in surfaces()
        for sx in range(-6, 7)
        for sy in range(-6, 7)
    ]
    weak_bundles = [build_bundle(f, w, (0, 0)) for f, w, kept in sums if kept]
    rejected = [(f, w) for f, w, kept in sums if not kept]
    other_bundles = [
        build_bundle(f, w, (0, 0)) for f, w in random.Random(8).sample(rejected, 40)
    ]
    assert len(weak_bundles) == 304 and all(is_weak_fano(f) for f in weak_bundles)
    assert not any(is_weak_fano(f) for f in other_bundles)
    blocked = 0
    for fan in catalog_fans + weak_bundles + other_bundles:
        weakened, table = eager_weakened_verdict(fan)
        assert is_weakened_fano(fan).is_weakened == weakened, fan.to_dict()
        assert crepant_contractions(fan) == table, fan.to_dict()
        if is_weak_fano(fan) and not is_fano(fan) and not weakened:
            blocked += 1
    # enough fans where an extremal relation of another shape decides the verdict
    assert blocked >= 100


class TestStructuralCorollaries:
    def test_no_f2_divisor_on_catalog(self):
        for nf in threefolds():
            assert all(k.a != 2 for _, k in crepant_contractions(nf.fan))

    def test_divisor_type_homogeneous_per_fan(self):
        for nf in threefolds():
            a_values = {k.a for _, k in crepant_contractions(nf.fan)}
            assert len(a_values) == 1

    def test_f1_type_only_on_the_two_special_fans(self):
        for nf in threefolds():
            if any(k.a == 1 for _, k in crepant_contractions(nf.fan)):
                assert nf.name in ("X4_1", "X5_1")

    def test_interior_witness_ray_on_nonopposite_pairs(self):
        # every 2-element collection {x1, x2} with x1 + x2 != 0 on a weakened
        # 3-fold has a fan ray in the relative interior of its cone
        for nf in threefolds():
            fan = nf.fan
            for rel in primitive_collections(fan):
                if len(rel.collection) != 2 or not rel.coeffs:
                    continue
                assert any(
                    in_relative_interior(fan, rel.collection, ray)
                    for ray in fan.rays
                ), (nf.name, rel.collection)
