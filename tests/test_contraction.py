import random

import pytest

from torifan.catalog import all_named, named_fan, surfaces, threefolds
from torifan.classify import build_bundle
from torifan.contraction import (
    ContractionKind,
    _shape,
    crepant_contractions,
    is_weakened_fano,
    zero_two_normal_form_witness,
)
from torifan.fan import Fan, fan_from_rays_2d, wall_relations
from torifan.lattice import matmul, matvec, vsum
from torifan.primitive import (
    crepant_relations,
    is_extremal,
    is_fano,
    is_weak_fano,
    primitive_collections,
)

from _oracles import (
    eager_weakened_verdict,
    gauss_solve,
    in_relative_interior,
    random_unimodular,
    rebase_fan,
    reference_bundle_relations,
    reference_cone_contains,
    reference_contraction_shape,
    reference_four_cone_star,
    reference_is_projective,
    reference_section_relation,
    reference_unimodular_inverse,
    reference_zero_two_witness,
)

# the columns x0 = (1, 0, 0), x+ = (1, 1, 0) and y+ = (0, 0, 1) of the normal form
NORMAL_FORM_COLUMNS = ((1, 1, 0), (0, 1, 0), (0, 0, 1))


def crepant_double_relation(fan):
    """The first crepant relation x+ + x- = 2*x0, which every weakened
    catalog 3-fold has."""
    return next(r for r in crepant_relations(fan) if len(r.collection) == 2 and len(r.coeffs) == 1)


class TestClassifyContraction:
    def test_x3_0_collapses_p1xp1(self):
        fan = named_fan("X3_0").fan
        kind = _shape(fan, crepant_double_relation(fan))
        assert kind.kind == "zero_two" and kind.a == 0

    def test_x5_1_collapses_f1(self):
        fan = named_fan("X5_1").fan
        kind = _shape(fan, crepant_double_relation(fan))
        assert kind.kind == "zero_two" and kind.a == 1

    def test_exceptional_ray_is_the_relation_center(self):
        fan = named_fan("P1xF2").fan
        rel = crepant_double_relation(fan)
        kind = _shape(fan, rel)
        assert kind.exceptional_ray == rel.coeffs[0][0]

    def test_divisor_to_point_on_p1_bundle_over_p2(self):
        fan = named_fan("PP2_O_O3").fan
        rels = primitive_collections(fan)
        rel = next(r for r in rels if len(r.collection) == 3 and r.degree == 0)
        # oracle check of the stated relation: v1 + v2 + v3 = 3 * (0,0,1)
        total = vsum([fan.rays[i] for i in rel.collection], 3)
        assert total == (0, 0, 3)
        assert rel.coeffs == ((3, 3),) and fan.rays[3] == (0, 0, 1)
        assert rel in crepant_relations(fan)
        assert _shape(fan, rel).kind == "divisor_to_point"

    def test_small_contraction_shape(self):
        fan = build_bundle(named_fan("P1xP1").fan, (1, 1), (0, 0))
        rels = primitive_collections(fan)
        rel = next(r for r in rels if r.degree == 0)
        assert len(rel.coeffs) == 2
        # the section cone does not contain the target cone here
        targets = [i for i, _ in rel.coeffs]
        assert not all(reference_cone_contains(fan, rel.collection, fan.rays[t]) for t in targets)
        assert rel in crepant_relations(fan)
        assert _shape(fan, rel).kind == "small"

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
        # ``_shape`` has no degree check: a relation of positive degree never
        # reaches it, because ``crepant_relations`` passes only degree 0
        fan = named_fan("X3_0").fan
        rel = next(r for r in primitive_collections(fan) if r.degree > 0)
        assert rel not in crepant_relations(fan)
        table = crepant_contractions(fan)
        assert table and rel not in [r for r, _ in table]
        assert all(r.degree == 0 for r, _ in table)

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
        # ``_shape`` has no dimension check: a surface with a degree-0
        # relation is refused by both of its callers
        fan = named_fan("F2").fan
        assert any(r.degree == 0 for r in primitive_collections(fan))
        with pytest.raises(ValueError, match="specific to 3-folds"):
            crepant_contractions(fan)
        with pytest.raises(ValueError, match="specific to 3-folds"):
            is_weakened_fano(fan)


class TestNormalFormWitness:
    def test_witness_reproduces_normal_form(self):
        for name in ("X3_0", "X4_0", "X4_1", "X5_1", "P1xF2", "P1xW7"):
            fan = named_fan(name).fan
            rel = crepant_double_relation(fan)
            # the witness returns only a; the oracle names x0, x+- and y+-
            _, (x0, xp, xm, yp, ym), a = reference_zero_two_witness(fan, rel)
            assert zero_two_normal_form_witness(fan, rel) == a
            assert _shape(fan, rel) == ContractionKind("zero_two", a=a, exceptional_ray=x0)
            # U takes the columns x0, x+, y+ to their normal form
            basis = tuple(tuple(fan.rays[i][r] for i in (x0, xp, yp)) for r in range(3))
            u = matmul(NORMAL_FORM_COLUMNS, reference_unimodular_inverse(basis))
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

    def test_shapes_and_witnesses_agree_with_the_references(self):
        """``_shape`` reads the shape of a crepant relation off its own shape,
        and the witness decides the normal form from the kept relation of
        the wall {x0, x+}. On the crepant relations of the weak Fano fans,
        their domain, the routes that solved for cone coordinates and
        inverted every candidate basis must give the same shape, and the
        same a or None; a zero-two shape has the oracle's a and its x0 as
        the exceptional ray. Every degree-0 relation is counted through
        those references, which keep every branch, so the counts outside
        the domain stay pinned: the small shapes, the witnesses, and those
        with a > 2, of which none is crepant. On each
        x+ + x- = 2*x0 whose star has the four-cone shape, the witness's
        argument is checked with the oracle's inverse: in every cone of the
        star the far side ray has gamma = -1 among its coordinates
        (alpha, beta, gamma), a y+- swap keeps (alpha, beta), an x+- swap
        gives (alpha + 2*beta, -beta), the kept relation of the wall
        {x0, x+} is y+ + y- = alpha*x0 + beta*x+, and both walls {x0, x+-}
        have the degree 2 - alpha - beta. The fans: the 18 catalog 3-folds,
        every bundle over the 16 fibers with w+ in [-6, 6]^2 and w- in
        {(0, 0), (1, -1)}, which holds the 1296 bundles of the [-4, 4]^2 box
        with w- = (0, 0), and 400 seeded rebasings of those with an
        x+ + x- = 2*x0 relation of degree 0, the only shape the witness
        searches."""
        fans = [
            ("catalog", nf.fan, primitive_collections(nf.fan))
            for nf in all_named().values() if nf.fan.dim == 3
        ]
        for nf in surfaces():
            for plus in ((sx, sy) for sx in range(-6, 7) for sy in range(-6, 7)):
                for minus in ((0, 0), (1, -1)):
                    fan = build_bundle(nf.fan, plus, minus)
                    assert fan.report.ok and len(fan.max_cones) == 2 * len(nf.fan.max_cones)
                    section = reference_section_relation(nf.fan, plus, minus)
                    group = "box" if max(map(abs, plus)) <= 4 and minus == (0, 0) else "bundle"
                    fans.append((group, fan, reference_bundle_relations(nf.fan, section)))
        doubled = [
            fan for _, fan, rels in fans
            if any(r.degree == 0 and len(r.coeffs) == 1 and r.coeffs[0][1] == 2 for r in rels)
        ]
        rng = random.Random(41)
        for _ in range(400):
            fan = rebase_fan(rng.choice(doubled), random_unimodular(rng, 3))
            fans.append(("rebased", fan, primitive_collections(fan)))
        # group -> [fans, degree-0 relations, x1 + x2 = y1 + y2, small,
        # witnesses, witnesses with a > 2, whose shape is ``other``]
        counts = {group: [0] * 6 for group in ("catalog", "box", "bundle", "rebased")}
        stars = compared = 0
        for group, fan, rels in fans:
            tally = counts[group]
            tally[0] += 1
            crepant = set(crepant_relations(fan)) if is_weak_fano(fan) else set()
            for rel in rels:
                if rel.degree != 0:
                    continue
                shape = reference_contraction_shape(fan, rel)
                reference = reference_zero_two_witness(fan, rel)
                witness = reference and reference[2]
                if rel in crepant:
                    assert _shape(fan, rel) == shape, (fan.to_dict(), rel)
                    if len(rel.collection) == 2 and len(rel.coeffs) == 1:
                        assert zero_two_normal_form_witness(fan, rel) == witness, (fan.to_dict(), rel)
                    if shape.kind == "zero_two":
                        assert (shape.a, shape.exceptional_ray) == (reference[2], reference[1][0])
                    compared += 1
                star = reference_four_cone_star(fan, rel)
                if star is not None:
                    x0, (xp, xm), (yp, ym) = star
                    coords = {}
                    for x in (xp, xm):
                        for y, far in ((yp, ym), (ym, yp)):
                            basis = tuple(tuple(fan.rays[i][r] for i in (x0, x, y)) for r in range(3))
                            coords[x, y] = matvec(reference_unimodular_inverse(basis), fan.rays[far])
                    alpha, beta, gamma = coords[xp, yp]
                    assert gamma == -1 and coords[xp, ym] == (alpha, beta, -1)
                    assert coords[xm, yp] == coords[xm, ym] == (alpha + 2 * beta, -beta, -1)
                    # so both walls at x0 have degree 2 - alpha - beta
                    walls = wall_relations(fan)
                    wall = tuple(sorted((x0, xp)))
                    assert dict(zip(wall, walls[wall])) == {x0: alpha, xp: beta}
                    wall = tuple(sorted((x0, xm)))
                    assert dict(zip(wall, walls[wall])) == {x0: alpha + 2 * beta, xm: -beta}
                    stars += 1
                tally[1] += 1
                tally[2] += len(rel.collection) == 2 and len(rel.coeffs) == 2
                tally[3] += shape.kind == "small"
                tally[4] += witness is not None
                if witness is not None and witness > 2:
                    assert shape.kind == "other" and rel not in crepant, (fan.to_dict(), rel)
                    tally[5] += 1
        assert counts["catalog"][0] == 18 and counts["catalog"][4] == 36
        assert counts["box"] == [1296, 3513, 744, 96, 305, 128]
        assert counts["bundle"][4:] == [557, 380]
        assert len(fans) == 5826
        assert sum(tally[1] for tally in counts.values()) == 999 + 14765
        assert sum(tally[4] for tally in counts.values()) == 999
        # the x+ + x- = 2*x0 relations whose star has the four-cone shape
        assert stars == 12202
        assert compared == 2112

    def test_witness_refuses_a_fan_that_does_not_validate(self):
        fan = named_fan("X3_0").fan
        rel = crepant_double_relation(fan)
        broken = Fan(3, fan.rays, fan.max_cones[1:])
        with pytest.raises(ValueError, match="does not validate"):
            zero_two_normal_form_witness(broken, rel)

    def test_witness_star_is_exactly_the_four_named_cones(self):
        for name in ("X3_0", "X4_0", "X4_1", "X5_1", "P1xF2", "P1xW7"):
            fan = named_fan(name).fan
            rel = crepant_double_relation(fan)
            _, (x0, xp, xm, yp, ym), a = reference_zero_two_witness(fan, rel)
            assert zero_two_normal_form_witness(fan, rel) == a
            star = {c for c in fan.max_cones if x0 in c}
            assert star == {tuple(sorted((x0, x, y))) for x in (xp, xm) for y in (yp, ym)}, name

    def test_witness_absent_when_the_star_misses_the_pair(self):
        # over W6_3 with twist (-2, 0), the fiber relation x6 + x7 = 2*x0 has
        # a four-cone star at x0 whose cones hold neither x6 nor x7, and the
        # relations with two coefficients are not of the doubled form. None
        # of these is crepant, so only the reference, which searches the
        # star, is asked: the witness reads the wall {x0, x+}, which here is
        # not a cone
        fan = build_bundle(named_fan("W6_3").fan, (-2, 0), (0, 0))
        rels = [r for r in primitive_collections(fan) if r.degree == 0]
        (double,) = [r for r in rels if r.collection == (6, 7)]
        assert double.coeffs == ((0, 2),)
        star = [c for c in fan.max_cones if 0 in c]
        assert len(star) == 4 and not any({6, 7} & set(c) for c in star)
        assert reference_zero_two_witness(fan, double) is None
        pairs = [r for r in rels if len(r.coeffs) == 2]
        assert len(pairs) == 2
        assert all(reference_zero_two_witness(fan, r) is None for r in pairs)
        assert is_weak_fano(fan) and not set(crepant_relations(fan)) & {double, *pairs}

    def test_witness_absent_for_offset_configuration(self):
        fiber = fan_from_rays_2d([(1, 0), (0, 1), (-1, 0), (1, -1)])
        fan = build_bundle(fiber, (1, 0), (1, 0))
        rel = crepant_double_relation(fan)
        assert zero_two_normal_form_witness(fan, rel) is None


class TestReferenceConeContains:
    """``reference_cone_contains``, the route by which
    ``reference_contraction_shape`` tells ``small`` from ``other``."""

    def test_interior_point(self):
        fan = fan_from_rays_2d([(1, 0), (0, 1), (-1, -1)])
        assert reference_cone_contains(fan, (0, 1), (1, 1))

    def test_face_point_not_interior(self):
        # membership is closed: a point on a proper face, not interior, is contained
        fan = fan_from_rays_2d([(1, 0), (0, 1), (-1, -1)])
        assert reference_cone_contains(fan, (0, 1), (1, 0))
        assert not reference_cone_contains(fan, (0, 1), (-1, 0))

    def test_exact_coordinates_in_3d(self):
        # (2,1,1) = 1*(1,0,0) + 1*(1,1,0) + 1*(0,0,1)
        cols = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
        assert gauss_solve(cols, [2, 1, 1]) == [1, 1, 1]
        fan = Fan(3, ((1, 0, 0), (1, 1, 0), (0, 0, 1)), ((0, 1, 2),))
        assert reference_cone_contains(fan, (0, 1, 2), (2, 1, 1))

    def test_outside_span(self):
        fan = Fan(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 1, 2),))
        assert not reference_cone_contains(fan, (0, 1), (0, 0, 1))
        assert reference_cone_contains(fan, (0, 1), (1, 1, 0))


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


def test_short_circuit_verdict_agrees_with_eager_verdict():
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


def test_shapes_on_a_blow_up_and_flop_corpus(flop_corpus):
    """Off the bundle family, on the classes that blow-ups and flops reach
    from the catalog 3-folds and the 8-ray fan that is not projective,
    every crepant relation of a weak Fano class has the shape that the
    reference gives, which keeps every branch that Reid's theorem rules out
    of ``_shape``; and what the theorem and the a <= 2 argument say holds
    there too: each x+ + x- = 2*x0 has the four-cone star at x0, its
    witness has a <= 2, and each x1 + x2 = y1 + y2 has a y outside
    cone(x1, x2). The non-projective weak Fano classes, where extremality
    means nothing, are counted, and the shapes agree on them as well."""
    corpus = flop_corpus
    weak = [fan for fan in corpus if is_weak_fano(fan)]
    non_projective = [fan for fan in weak if not reference_is_projective(fan)]
    shapes = dict.fromkeys(("zero_two", "divisor_to_point", "small", "other"), 0)
    for fan in weak:
        for rel in crepant_relations(fan):
            shape = _shape(fan, rel)
            assert shape == reference_contraction_shape(fan, rel), (fan.to_dict(), rel)
            if len(rel.collection) == 2 and len(rel.coeffs) == 1:
                assert reference_four_cone_star(fan, rel) is not None, (fan.to_dict(), rel)
                assert zero_two_normal_form_witness(fan, rel) in (None, 0, 1, 2), (fan.to_dict(), rel)
            if len(rel.coeffs) == 2:
                inside = [reference_cone_contains(fan, rel.collection, fan.rays[t]) for t, _ in rel.coeffs]
                assert not all(inside), (fan.to_dict(), rel)
            shapes[shape.kind] += 1
    assert (len(corpus), len(weak), len(non_projective)) == (687, 120, 3)
    assert shapes == {"zero_two": 90, "divisor_to_point": 9, "small": 219, "other": 37}


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
