import random

import pytest

from torifan.catalog import named_fan
from torifan.fan import Fan, fan_from_rays_2d, wall_far_rays, wall_relations
from torifan.lattice import has_nonneg_combination, vdot, vsum
from torifan.primitive import (
    bundle_candidates,
    crepant_relations,
    is_extremal,
    is_fano,
    is_weak_fano,
    primitive_collections,
)

from _oracles import (
    cross3,
    full_lp_is_extremal,
    hirzebruch_fan,
    lifted_certificate,
    non_projective_fan,
    one_ray_certificate,
    random_unimodular,
    rebase_fan,
    reference_bundle_relations,
    reference_class,
    reference_crepant_relations,
    reference_is_projective,
    reference_primitive_collections,
    reference_section_relation,
    reference_wall_degrees,
    reference_wall_relations,
    sweep_bundles_b3,
    two_element_relation_kind,
)


class TestCollections:
    def test_p2_single_collection(self):
        rels = primitive_collections(named_fan("P2").fan)
        assert len(rels) == 1
        rel = rels[0]
        assert rel.collection == (0, 1, 2)
        assert rel.sigma == () and rel.coeffs == ()
        assert rel.degree == 3

    def test_f2_two_collections(self):
        fan = named_fan("F2").fan  # rays (1,0), (-1,0), (1,1), (1,-1)
        rels = primitive_collections(fan)
        by_collection = {r.collection: r for r in rels}
        assert set(by_collection) == {(0, 1), (2, 3)}
        assert by_collection[(0, 1)].degree == 2
        crepant = by_collection[(2, 3)]
        assert crepant.degree == 0
        assert crepant.coeffs == ((0, 2),)  # (1,1) + (1,-1) = 2*(1,0)

    def test_a_relation_stores_its_collection_and_coefficients(self):
        from dataclasses import fields

        from torifan.primitive import PrimitiveRelation

        assert [f.name for f in fields(PrimitiveRelation)] == ["collection", "coeffs"]
        fan = named_fan("F2").fan  # rays (1,0), (-1,0), (1,1), (1,-1)
        crepant = primitive_collections(fan)[1]
        assert crepant == PrimitiveRelation((2, 3), ((0, 2),))
        assert crepant.to_dict(len(fan.rays)) == {
            "collection": [2, 3], "sigma": [0], "coeffs": {"0": 2}, "degree": 0, "class": [-2, 0, 1, 1],
        }
        cls = crepant.entries(len(fan.rays))
        assert (cls[3], cls[0]) == (1, -2)

    def test_x3_0_has_opposite_section_pair(self):
        fan = named_fan("X3_0").fan
        rels = primitive_collections(fan)
        assert any(len(r.collection) == 2 and r.coeffs == () for r in rels)

    def test_collections_are_minimal_non_faces(self):
        for name in ("S6", "W6_2", "X4_1", "PP2_O_O3"):
            fan = named_fan(name).fan
            faces = set()
            for cone in fan.max_cones:
                from itertools import combinations

                for k in range(len(cone) + 1):
                    faces.update(frozenset(c) for c in combinations(cone, k))
            for rel in primitive_collections(fan):
                s = frozenset(rel.collection)
                assert s not in faces
                assert all(s - {i} in faces for i in s)

    def test_deterministic_lexicographic_order(self):
        fan = named_fan("W7").fan
        rels = primitive_collections(fan)
        assert [r.collection for r in rels] == sorted(r.collection for r in rels)

    def test_incomplete_fan_raises(self):
        from torifan.fan import Fan

        p2 = named_fan("P2").fan
        broken = Fan(2, p2.rays, p2.max_cones[:2])
        with pytest.raises(ValueError):
            primitive_collections(broken)


class TestRelationInvariants:
    def test_lattice_identity_holds_exactly(self):
        for name in ("P2", "F2", "W6_3", "X3_0", "X5_1", "P1xW7", "PP2_O_O3"):
            fan = named_fan(name).fan
            for rel in primitive_collections(fan):
                left = vsum([fan.rays[i] for i in rel.collection], fan.dim)
                right = vsum(
                    [tuple(a * x for x in fan.rays[i]) for i, a in rel.coeffs], fan.dim
                )
                assert left == right

    def test_class_vector_is_a_relation_among_rays(self):
        for name in ("S7", "X4_0", "P1xW5_2"):
            fan = named_fan(name).fan
            for rel in primitive_collections(fan):
                cls = rel.to_dict(len(fan.rays))["class"]
                assert vsum(
                    [tuple(c * x for x in ray) for c, ray in zip(cls, fan.rays, strict=True)],
                    fan.dim,
                ) == (0,) * fan.dim

    def test_degree_equals_class_component_sum(self):
        for name in ("W4_2", "X4_1", "P1xF2"):
            fan = named_fan(name).fan
            for rel in primitive_collections(fan):
                assert rel.degree == sum(rel.to_dict(len(fan.rays))["class"])

    def test_sigma_is_unique_by_brute_force(self):
        from _oracles import brute_force_sigma

        for name in ("F1", "W3", "X3_0"):
            fan = named_fan(name).fan
            for rel in primitive_collections(fan):
                total = vsum([fan.rays[i] for i in rel.collection], fan.dim)
                hits = brute_force_sigma(fan.rays, fan.max_cones, total)
                assert len(hits) == 1
                face, coeffs = hits[0]
                assert face == rel.sigma
                assert tuple(coeffs) == tuple(a for _, a in rel.coeffs)


class TestFanoPredicates:
    def test_p2_fano(self):
        assert is_fano(named_fan("P2").fan)

    def test_f2_weak_not_fano(self):
        fan = named_fan("F2").fan
        assert is_weak_fano(fan)
        assert not is_fano(fan)

    def test_f3_not_weak_fano(self):
        # (0,1) + (3,-1) = 3*(1,0): degree 2 - 3 = -1
        fan = hirzebruch_fan(3)
        rels = primitive_collections(fan)
        assert min(r.degree for r in rels) == -1
        assert not is_weak_fano(fan)

    def test_all_catalog_surfaces_weak_fano(self):
        from torifan.catalog import surfaces

        for nf in surfaces():
            assert is_weak_fano(nf.fan)
            assert is_fano(nf.fan) == nf.expected["fano"]


class TestTrichotomy:
    def test_zero_shape(self):
        fan = named_fan("X3_0").fan
        rel = next(
            r for r in primitive_collections(fan) if len(r.collection) == 2 and not r.coeffs
        )
        assert two_element_relation_kind(rel).kind == "zero"

    def test_single_ray_shape_on_f2(self):
        fan = named_fan("F2").fan
        rel = next(r for r in primitive_collections(fan) if r.degree == 0)
        shape = two_element_relation_kind(rel)
        assert shape.kind == "single_ray" and shape.a == 2

    def test_single_ray_center_on_x4_1(self):
        fan = named_fan("X4_1").fan
        rel = next(
            r
            for r in primitive_collections(fan)
            if len(r.collection) == 2 and len(r.coeffs) == 1 and r.coeffs[0][1] == 2
        )
        shape = two_element_relation_kind(rel)
        assert shape.kind == "single_ray" and shape.a == 2
        assert shape.center == rel.coeffs[0][0]

    def test_two_rays_shape(self):
        from torifan.classify import build_bundle

        fan = build_bundle(named_fan("P1xP1").fan, (1, 1), (0, 0))
        rel = next(r for r in primitive_collections(fan) if len(r.coeffs) == 2)
        assert two_element_relation_kind(rel).kind == "two_rays"

    def test_outside_trichotomy_errors(self):
        fan = hirzebruch_fan(3)
        rel = next(r for r in primitive_collections(fan) if r.degree == -1)
        with pytest.raises(ValueError):
            two_element_relation_kind(rel)

    def test_wrong_size_rejected(self):
        rel = primitive_collections(named_fan("P2").fan)[0]
        with pytest.raises(ValueError):
            two_element_relation_kind(rel)


class TestExtremality:
    def test_p2_unique_class_extremal(self):
        fan = named_fan("P2").fan
        rels = primitive_collections(fan)
        assert is_extremal(fan, rels[0])

    def test_f2_both_classes_extremal(self):
        fan = named_fan("F2").fan
        assert [is_extremal(fan, r) for r in primitive_collections(fan)] == [True, True]

    def test_x4_0_crepant_relation_extremal(self):
        fan = named_fan("X4_0").fan
        rels = primitive_collections(fan)
        rel = next(r for r in rels if r.degree == 0 and len(r.coeffs) == 1)
        assert rel.coeffs[0][1] == 2
        assert is_extremal(fan, rel)

    def test_basis_pair_double_relations_extremal_on_catalog(self):
        # any relation x1 + x2 = 2y with {x1, y} a lattice basis is extremal
        from torifan.catalog import threefolds

        for nf in threefolds():
            fan = nf.fan
            rels = primitive_collections(fan)
            for rel in rels:
                if len(rel.collection) != 2 or len(rel.coeffs) != 1 or rel.coeffs[0][1] != 2:
                    continue
                x1 = fan.rays[rel.collection[0]]
                y = fan.rays[rel.coeffs[0][0]]
                # extend {x1, y} by a cross direction to test unimodularity
                n = cross3(x1, y)
                from math import gcd

                g = 0
                for c in n:
                    g = gcd(g, c)
                if g == 1:
                    assert is_extremal(fan, rel)

    def test_mori_cone_generated_by_extremal_classes(self):
        # every relation class is a nonnegative combination of the extremal ones
        for name in ("W6_1", "X5_1", "P1xW6_3", "PP2_O_O3"):
            fan = named_fan(name).fan
            rels = primitive_collections(fan)
            flags = [is_extremal(fan, r) for r in rels]
            classes = [r.entries(len(fan.rays)) for r in rels]
            extremal = [cls for cls, flag in zip(classes, flags) if flag]
            for cls, flag in zip(classes, flags):
                assert flag or has_nonneg_combination(extremal, cls)


def _weak_fano_bundles(count: int, seed: int) -> list:
    """Seeded sample of weak Fano surface bundles over P1."""
    from torifan.catalog import surfaces
    from torifan.fan import build_bundle

    rng = random.Random(seed)
    fibers = [nf.fan for nf in surfaces()]
    out = []
    while len(out) < count:
        plus = (rng.randint(-3, 3), rng.randint(-3, 3))
        minus = (rng.randint(-3, 3), rng.randint(-3, 3))
        fiber = rng.choice(fibers)
        fan = build_bundle(fiber, plus, minus)
        assert fan.report.ok and len(fan.max_cones) == 2 * len(fiber.max_cones)
        if is_weak_fano(fan):
            out.append(fan)
    return out


def _blown_up_hirzebruch(count: int, seed: int) -> list:
    """Seeded sample of surfaces that are not weak Fano: blow-ups of F_0 to F_4."""
    from torifan.fan import ccw_sorted

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        rays = [(1, 0), (-1, 0), (0, 1), (rng.randint(0, 4), -1)]
        for _ in range(rng.randint(0, 3)):
            ordered = ccw_sorted(rays)
            k = rng.randrange(len(ordered))
            u, v = ordered[k], ordered[(k + 1) % len(ordered)]
            rays.append((u[0] + v[0], u[1] + v[1]))
        fan = fan_from_rays_2d(rays)
        if not is_weak_fano(fan) and any(r.degree == 0 for r in primitive_collections(fan)):
            out.append(fan)
    return out


def test_extremality_on_degree_face_agrees_with_full_lp():
    from torifan.catalog import all_named

    fans = (
        [nf.fan for nf in all_named().values()]
        + _weak_fano_bundles(12, seed=4)
        + _blown_up_hirzebruch(12, seed=7)
    )
    crepant = without_columns = not_extremal = 0
    for fan in fans:
        rels = primitive_collections(fan)
        for rel in rels:
            assert is_extremal(fan, rel) == full_lp_is_extremal(fan, rel), (fan.to_dict(), rel)
            if rel.degree == 0 and is_weak_fano(fan):
                crepant += 1
                face = [r for r in rels if r.degree == 0 and r.collection != rel.collection]
                without_columns += not face
                not_extremal += not is_extremal(fan, rel)
    # the sample reaches the face LP, the no-LP answer and a non-extremal class;
    # the surfaces that are not weak Fano keep the full LP for degree-0 relations
    assert crepant > without_columns > 0 and not_extremal > 0


def _non_weak_blowups(sizes, per_size: int, seed: int) -> list:
    """Seeded surfaces that are not weak Fano with each number of rays in
    ``sizes``: repeated one-point blow-ups of the first 12 catalog surfaces,
    as in the query mix of ``perfbench``."""
    from torifan.catalog import surfaces
    from torifan.classify import blow_up

    rng = random.Random(seed)
    starts = [nf.fan for nf in surfaces()[:12]]
    out = []
    for size in sizes:
        for _ in range(per_size):
            fan = None
            while fan is None or len(fan.rays) != size or is_weak_fano(fan):
                fan = rng.choice(starts)
                while len(fan.rays) < size:
                    fan = blow_up(fan, rng.choice(fan.max_cones))
            out.append(fan)
    return out


def test_extremality_shortcuts_agree_with_full_lp_off_the_degree_face(monkeypatch):
    """On fans that are not weak Fano every class is tested against all the
    others: the sum-of-two lookup and the LP on all the rays must agree
    with the Fraction simplex."""
    from torifan import primitive
    from torifan.fan import build_bundle

    solved = []

    def recorded(columns, target):
        feasible = has_nonneg_combination(columns, target)
        solved.append((len(target), feasible))
        return feasible

    monkeypatch.setattr(primitive, "has_nonneg_combination", recorded)
    surfaces = _non_weak_blowups((7, 8, 9), 3, seed=13)
    fans = surfaces + [build_bundle(s, (0, 0), (0, 0)) for s in surfaces]
    by_sum_of_two = by_infeasible_lp = 0
    for fan in fans:
        assert not is_weak_fano(fan)
        for rel in primitive_collections(fan):
            before = len(solved)
            flag = is_extremal(fan, rel)
            assert flag == full_lp_is_extremal(fan, rel), (fan.to_dict(), rel)
            if len(solved) == before:
                by_sum_of_two += not flag
            else:
                rows, feasible = solved[-1]
                assert rows == len(fan.rays) and feasible != flag
                by_infeasible_lp += not feasible
    assert by_sum_of_two > 0 and by_infeasible_lp > 0


def test_one_ray_certificates_agree_with_the_oracle_and_the_full_lp(monkeypatch, non_weak_fibers):
    """``is_extremal`` answers True without an LP exactly where
    ``one_ray_certificate`` finds a certificate among the classes it is
    tested against, each built by ``reference_class`` on all the rays: on a
    weak Fano fan a degree-0 class against the other degree-0 classes, any
    other class against all. A fan is weak Fano exactly when every class
    has degree >= 0, as
    ``test_wall_degrees_decide_fano_and_weak_fano_as_the_relations_do``
    checks, so the degrees of the classes decide it here.

    Each class so certified is extremal in the full LP of ``full_lp``: its
    ``lifted_certificate`` is checked as a Farkas certificate of that LP.
    Where the certificate holds only on the degree-0 face, the answer rests
    on the face argument, and on the fans outside the box
    ``full_lp_is_extremal`` also solves the LP by the Fraction simplex.

    The library counts a class as positive on its collection and negative
    on sigma, which needs the two to be disjoint (Batyrev 1991); that is
    pinned on every relation here. The corpus: the catalog, the 2704
    bundles of the bound-3 box, the 304 of the sweep among them, the fibers
    that are not weak Fano and the 96 one-point blow-ups of the catalog
    surfaces."""
    from torifan import primitive
    from torifan.catalog import all_named, surfaces
    from torifan.classify import blow_up
    from torifan.fan import build_bundle

    solved = []

    def recorded(columns, target):
        solved.append(target)
        return has_nonneg_combination(columns, target)

    monkeypatch.setattr(primitive, "has_nonneg_combination", recorded)
    catalog = [nf.fan for nf in all_named().values()]
    box = [
        build_bundle(nf.fan, (sx, sy), (0, 0))
        for nf in surfaces()
        for sx in range(-6, 7)
        for sy in range(-6, 7)
    ]
    blowups = [blow_up(nf.fan, cone) for nf in surfaces() for cone in nf.fan.max_cones]
    assert len(catalog) == 34 and len(box) == 2704 and len(blowups) == 96
    # per group: weak Fano fans, relations, certified classes, and those
    # whose certificate holds only on the degree-0 face
    counts = {"box": [0, 0, 0, 0], "other": [0, 0, 0, 0]}
    for group, fans in (("box", box), ("other", catalog + non_weak_fibers + blowups)):
        tally = counts[group]
        for fan in fans:
            rels = primitive_collections(fan)
            classes = [reference_class(rel, len(fan.rays)) for rel in rels]
            weak = min(map(sum, classes)) >= 0
            tally[0] += weak
            for rel, cls in zip(rels, classes):
                assert not set(rel.collection) & set(rel.sigma), (fan.to_dict(), rel)
                others = [c for c in classes if c != cls]
                z = lifted_certificate(others, cls, weak and sum(cls) == 0)
                before = len(solved)
                flag = is_extremal(fan, rel)
                assert (flag and len(solved) == before) == (z is not None), (fan.to_dict(), rel)
                tally[1] += 1
                if z is None:
                    continue
                assert vdot(z, cls) < 0 and all(vdot(z, c) >= 0 for c in others), (fan.to_dict(), rel)
                tally[2] += 1
                if one_ray_certificate(others, cls) is None:
                    tally[3] += 1
                    if group == "other":
                        assert full_lp_is_extremal(fan, rel), (fan.to_dict(), rel)
    assert counts == {"box": [304, 31096, 9588, 640], "other": [74, 2187, 577, 128]}


def _relation_route(fan):
    """The degree-0 primitive relations that ``is_extremal`` keeps, on a
    fresh copy: the crepant relations as they were found before
    ``crepant_relations`` read them off the walls."""
    fresh = Fan(fan.dim, fan.rays, fan.max_cones)
    return tuple(r for r in primitive_collections(fresh) if r.degree == 0 and is_extremal(fresh, r))


def _degree_zero_wall_classes(fan) -> set:
    """The distinct classes of the walls of degree 0: 1 at the far rays c and
    d, -alpha_t at the facet rays a_t."""
    classes = set()
    for facet, alphas in wall_relations(fan).items():
        if sum(alphas) == 2:
            c, d = wall_far_rays(fan)[facet]
            cls = [0] * len(fan.rays)
            cls[c] = cls[d] = 1
            for t, alpha in zip(facet, alphas):
                cls[t] = -alpha
            classes.add(tuple(cls))
    return classes


def test_crepant_relations_off_the_walls_agree_with_the_relation_route(flop_corpus):
    """``crepant_relations`` reads the extremal degree-0 wall classes; the
    relation route grows every primitive relation and keeps the extremal
    degree-0 ones (``_relation_route``). On each weak Fano fan, on a fresh
    copy, the two must give the same relations in the same order.

    The identity is proven only for projective X, where the wall classes
    span the cone of curves and each extremal ray is spanned by the class
    of its primitive relation. Every complete 2-fan and every bundle of the
    box is projective. On a fan that is not projective the cone of curves
    holds a line and "extremal" means nothing; there the identity is only
    checked, here on the 3 such weak Fano classes of the corpus, the 8-ray
    fan among them, until projectivity is decided (ROADMAP item 11). The counts
    pinned per group: weak Fano fans, those not projective, crepant
    relations and distinct degree-0 wall classes, so the wall classes that
    are not extremal (164 in the box, 30 in the corpus, 2 on the 8-ray
    fan) are met."""
    from torifan.catalog import all_named, surfaces
    from torifan.fan import build_bundle

    groups = {
        "catalog": [nf.fan for nf in all_named().values()],
        "box": [
            build_bundle(nf.fan, (sx, sy), (0, 0)) for nf in surfaces() for sx in range(-4, 5) for sy in range(-4, 5)
        ],
        "corpus": list(flop_corpus),
        "8-ray": [NON_PROJECTIVE],
    }
    counts = {}
    for group, fans in groups.items():
        weak = [fan for fan in fans if is_weak_fano(fan)]
        crepant = classes = 0
        for fan in weak:
            walls = crepant_relations(Fan(fan.dim, fan.rays, fan.max_cones))
            assert walls == _relation_route(fan), fan.to_dict()
            crepant += len(walls)
            classes += len(_degree_zero_wall_classes(fan))
        projective = sum(map(reference_is_projective, weak)) if group in ("corpus", "8-ray") else len(weak)
        counts[group] = [len(fans), len(weak), len(weak) - projective, crepant, classes]
    assert counts == {
        "catalog": [34, 34, 0, 69, 69],
        "box": [1296, 304, 0, 938, 1102],
        "corpus": [687, 120, 3, 355, 385],
        "8-ray": [1, 1, 1, 4, 6],
    }


def test_sweep_seeds_the_crepant_relations_of_every_bundle(monkeypatch):
    """The sweep seeds each built bundle's crepant relations, read off its
    fiber. Every seeded tuple must equal ``crepant_relations`` of a fresh
    copy of the bundle, which grows its relations from its faces and
    decides their extremality by the LP; the section relation, of degree 0
    exactly when p + q = 2, is crepant on every such bundle."""
    from torifan import classify, primitive
    from torifan.fan import build_bundle

    built = []

    def recorded(*args):
        built.append(build_bundle(*args))
        return built[-1]

    monkeypatch.setattr(classify, "build_bundle", recorded)
    assert classify.enumerate_weakened_threefolds(3).count == 15
    assert len(built) == 304

    def not_seeded(*args):
        raise AssertionError("a bundle's crepant relations were not seeded")

    with monkeypatch.context() as m:
        m.setattr(primitive, "primitive_collections", not_seeded)
        seeded = [crepant_relations(fan) for fan in built]
    relations = sections = 0
    for fan, crepant in zip(built, seeded):
        fresh = Fan(3, fan.rays, fan.max_cones)
        assert crepant == crepant_relations(fresh), fan.to_dict()
        relations += len(crepant)
        section = primitive_collections(fresh)[-1]
        n = len(fan.rays) - 2
        assert section.collection == (n, n + 1)
        assert (section in crepant) == (section.degree == 0), fan.to_dict()
        sections += section in crepant
    # 2n sums with p + q = 2 over each fiber with n rays, 96 rays in all
    # of the 1163 degree-0 relations of the bundles, 225 are not extremal
    assert relations == 938 and sections == 192


def test_bundles_reuse_their_fiber_relations(monkeypatch):
    """A fiber relation is a bundle relation as it stands, so the sweep seeds
    each bundle with its fiber's own relation objects: every seeded crepant
    relation other than the section relation is one of the fiber's
    ``crepant_relations``, and the section relation is the last relation of
    a fresh copy of the bundle."""
    from torifan import classify, primitive
    from torifan.fan import build_bundle

    built = []

    def recorded(fiber, *twists):
        built.append((fiber, build_bundle(fiber, *twists)))
        return built[-1][1]

    monkeypatch.setattr(classify, "build_bundle", recorded)
    classify.enumerate_weakened_threefolds(3)
    assert len(built) == 304
    reused = sections = 0
    for fiber, fan in built:
        own = crepant_relations(fiber)
        n = len(fiber.rays)
        with monkeypatch.context() as m:
            m.setattr(primitive, "primitive_collections", None)
            seeded = crepant_relations(fan)
        for rel in seeded:
            if rel.collection == (n, n + 1):
                assert rel == primitive_collections(Fan(3, fan.rays, fan.max_cones))[-1], fan.to_dict()
                sections += 1
            else:
                assert any(rel is r for r in own), (fan.to_dict(), rel)
                reused += 1
    assert reused == 938 - 192 and sections == 192


def test_every_class_is_primitive_with_a_one_off_sigma():
    """The argument that lets ``is_extremal`` compare classes by equality: a
    primitive collection is not a face, so some ray of it lies outside sigma,
    where the class is 1; hence the class has gcd 1 and its only positive
    multiple is itself."""
    from math import gcd

    from torifan.catalog import all_named
    from torifan.fan import build_bundle

    catalog = [nf.fan for nf in all_named().values()]
    bundles = sweep_bundles_b3()
    non_weak = _blown_up_hirzebruch(12, seed=7) + _non_weak_blowups((7, 8, 9), 3, seed=13)
    non_weak += [build_bundle(s, (0, 0), (0, 0)) for s in non_weak]
    assert len(catalog) == 34 and len(bundles) == 304 and len(non_weak) == 42
    checked = 0
    for fan in catalog + bundles + non_weak:
        for rel in primitive_collections(fan):
            cls = rel.to_dict(len(fan.rays))["class"]
            outside = [i for i in rel.collection if i not in rel.sigma]
            assert outside and all(cls[i] == 1 for i in outside), rel
            assert gcd(*cls) == 1, rel
            checked += 1
    assert checked > 5000


def test_wall_degrees_decide_fano_and_weak_fano_as_the_relations_do():
    """``is_fano`` and ``is_weak_fano`` read the wall table. Each kept wall
    relation and each wall degree is the reference's, and both predicates
    agree with the degrees of the primitive relations: on P1, the 34
    catalog fans, all 1296 bundles of the [-4, 4]^2 box (304 of them weak
    Fano) and 42 fans that are not weak Fano. The relations of the 96
    one-point blow-ups of the catalog surfaces, and of P3, its blow-up and
    the non-projective 8-ray fan, which are not bundles, are checked
    against the reference too."""
    from torifan.catalog import all_named, surfaces
    from torifan.classify import blow_up
    from torifan.fan import build_bundle

    catalog = [nf.fan for nf in all_named().values()]
    box = [
        build_bundle(nf.fan, (sx, sy), (0, 0))
        for nf in surfaces()
        for sx in range(-4, 5)
        for sy in range(-4, 5)
    ]
    non_weak = _blown_up_hirzebruch(12, seed=7) + _non_weak_blowups((7, 8, 9), 3, seed=13)
    non_weak += [build_bundle(s, (0, 0), (0, 0)) for s in non_weak]
    assert len(catalog) == 34 and len(box) == 1296 and len(non_weak) == 42
    flags = []
    for fan in [Fan(1, ((1,), (-1,)), ((0,), (1,)))] + catalog + box + non_weak:
        assert wall_relations(fan) == reference_wall_relations(fan), fan.to_dict()
        wall_degree = {facet: 2 - sum(alphas) for facet, alphas in wall_relations(fan).items()}
        assert wall_degree == reference_wall_degrees(fan), fan.to_dict()
        degrees = [r.degree for r in primitive_collections(fan)]
        assert is_weak_fano(fan) == all(d >= 0 for d in degrees), fan.to_dict()
        assert is_fano(fan) == all(d > 0 for d in degrees), fan.to_dict()
        flags.append((is_weak_fano(fan), is_fano(fan)))
    box_flags = flags[35:35 + 1296]
    assert sum(weak for weak, _ in box_flags) == 304 and sum(fano for _, fano in box_flags) == 27
    assert not any(weak for weak, _ in flags[35 + 1296:])
    blowups = [blow_up(nf.fan, cone) for nf in surfaces() for cone in nf.fan.max_cones]
    assert len(blowups) == 96
    for fan in blowups + [P3, P3_BLOWN_UP, NON_PROJECTIVE]:
        assert wall_relations(fan) == reference_wall_relations(fan), fan.to_dict()


P3 = Fan(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)), ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
# P3 blown up in the cone of rays 1, 2 and 3, by ray 4 = -e1, their sum:
# every pair of rays 0-3 is an edge and 0, 1, 2 span a cone, so 0-3 is a
# candidate of four rays, refused by the lookups as 1, 2, 3 span no cone
P3_BLOWN_UP = Fan(
    3,
    ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (-1, 0, 0)),
    ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)),
)
# every wall degree is >= 0, but four wall classes sum to 0: the fan is not
# projective (from P1 x P1 x P1 by two point blow-ups and four flops)
NON_PROJECTIVE = non_projective_fan()


def test_relations_grown_from_faces_agree_with_the_subset_scan(non_weak_fibers):
    """``primitive_collections`` reads the pairs off the neighbour masks and
    extends each face by a common neighbour above its largest index; the
    scan of every subset of 2 to d + 1 rays that it replaced must give the
    same relations in the same order. Each fan is a fresh copy, so nothing
    is seeded or memoised. Besides the catalog, its rebasings, the surface
    blow-ups and the sweep's bundles, the corpus holds P3, whose one
    collection has four rays, a blow-up of P3 whose candidate of four rays
    the face lookups refuse, the 1-D fan P1, the surfaces that are not weak
    Fano, their bundles of zero twist, and the non-projective 8-ray fan."""
    from torifan.catalog import all_named, surfaces
    from torifan.classify import blow_up
    from torifan.fan import build_bundle

    rng = random.Random(37)
    catalog = [nf.fan for nf in all_named().values()]
    rebased = [rebase_fan(f, random_unimodular(rng, f.dim)) for f in catalog for _ in range(3)]
    blowups = [blow_up(nf.fan, cone) for nf in surfaces() for cone in nf.fan.max_cones]
    bundles = sweep_bundles_b3()
    assert len(catalog) == 34 and len(bundles) == 304 and len(blowups) == 96
    p1 = Fan(1, ((1,), (-1,)), ((0,), (1,)))
    flat = [build_bundle(fiber, (0, 0), (0, 0)) for fiber in non_weak_fibers]
    assert len(non_weak_fibers) == len(flat) == 8
    assert all(f.report.ok for f in (P3, P3_BLOWN_UP, NON_PROJECTIVE))
    kinds = [P3, P3_BLOWN_UP, p1, NON_PROJECTIVE] + non_weak_fibers + flat
    for fan in kinds + catalog + rebased + blowups + bundles:
        fresh = Fan(fan.dim, fan.rays, fan.max_cones)
        assert primitive_collections(fresh) == reference_primitive_collections(fan), fan.to_dict()
    assert [r.collection for r in primitive_collections(P3)] == [(0, 1, 2, 3)]
    assert [r.collection for r in primitive_collections(P3_BLOWN_UP)] == [(0, 4), (1, 2, 3)]


def _fresh_bundle_relations(fiber, twist_plus, twist_minus):
    """``primitive_collections`` of a fresh copy of the bundle, grown from its faces."""
    from torifan.fan import Fan, build_bundle

    fan = build_bundle(fiber, twist_plus, twist_minus)
    return primitive_collections(Fan(3, fan.rays, fan.max_cones))


class TestBundleRelations:
    """``bundle_candidates`` lists the sweep's sums with their bundles'
    crepant relations, and the reference reads a bundle's relations off
    its fiber for any twists. The crepant relations are compared with the
    reference's relations of the bundle, filtered to degree 0 and extremal
    by ``reference_crepant_relations``; the lifted relations with
    ``primitive_collections`` of a fresh copy of the bundle, which grows
    them from its faces."""

    @staticmethod
    def check(fiber, twist_plus, twist_minus) -> None:
        lifted = reference_bundle_relations(fiber, reference_section_relation(fiber, twist_plus, twist_minus))
        assert lifted == _fresh_bundle_relations(fiber, twist_plus, twist_minus), (
            fiber.to_dict(), twist_plus, twist_minus,
        )

    @staticmethod
    def twisted(rng, fiber, count, keep):
        """``count`` seeded (fiber, w+, w-) over ``fiber`` with w- nonzero whose
        section relation degree passes ``keep``."""
        out = []
        while len(out) < count:
            plus = (rng.randint(-4, 4), rng.randint(-4, 4))
            minus = (rng.randint(-4, 4), rng.randint(-4, 4))
            if minus != (0, 0) and keep(reference_section_relation(fiber, plus, minus).degree):
                out.append((fiber, plus, minus))
        return out

    def test_the_304_bundles_of_the_sweep(self):
        from torifan.catalog import surfaces

        from torifan.fan import build_bundle

        checked = 0
        for nf in surfaces():
            for w, crepant in bundle_candidates(nf.fan):
                relations = reference_primitive_collections(build_bundle(nf.fan, w, (0, 0)))
                assert crepant == reference_crepant_relations(relations, len(nf.fan.rays) + 2), (nf.name, w)
                checked += 1
        assert checked == 304

    def test_candidates_agree_with_the_reference(self, non_weak_fibers):
        """The sums of the table are the points w of [-2M, 2M]^2 whose section
        relation, located in the fiber, has degree >= 0, in increasing order
        (M the largest |entry| of a fiber ray, 2 on the 16 catalog fibers);
        each with the crepant ones of the reference's relations of that
        bundle."""
        from torifan.catalog import surfaces

        fibers = [nf.fan for nf in surfaces()] + non_weak_fibers
        assert len(fibers) == 24
        for fiber in fibers:
            reach = 2 * max(abs(x) for ray in fiber.rays for x in ray)
            expected = []
            for sx in range(-reach, reach + 1):
                for sy in range(-reach, reach + 1):
                    section = reference_section_relation(fiber, (sx, sy), (0, 0))
                    if section.degree >= 0:
                        relations = reference_bundle_relations(fiber, section)
                        expected.append(((sx, sy), reference_crepant_relations(relations, len(fiber.rays) + 2)))
            table = bundle_candidates(fiber)
            assert list(table) == expected, fiber.to_dict()
            assert len(table) == 3 * len(fiber.rays) + 1

    def test_candidates_of_p2(self):
        table = bundle_candidates(named_fan("P2").fan)
        # 0, the three rays, their doubles and the three cone sums
        assert [w for w, _ in table] == [
            (-2, -2), (-1, -1), (-1, 0), (0, -1), (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0),
        ]
        section = dict(table)[(-1, 0)][-1]
        # (-1, 0) = (0, 1) + (-1, -1), rays 1 and 2 of P2
        assert section.collection == (3, 4) and section.sigma == (1, 2)
        assert section.coeffs == ((1, 1), (2, 1))
        assert section.degree == 0 and section.to_dict(5)["class"] == [0, -1, -1, 1, 1]
        # P2 has no crepant relation, and the section relation of a sum with
        # p + q < 2 has positive degree
        assert dict(table)[(0, 0)] == dict(table)[(0, 1)] == ()
        with pytest.raises(ValueError):
            bundle_candidates(named_fan("X3_0").fan)

    def test_seeded_twists_with_phi_above_2(self):
        from torifan.catalog import surfaces

        rng = random.Random(23)
        specs = [s for nf in surfaces() for s in self.twisted(rng, nf.fan, 10, lambda d: d < 0)]
        assert len(specs) == 160
        for spec in specs:
            self.check(*spec)

    def test_fibers_that_are_not_weak_fano(self, non_weak_fibers):
        rng = random.Random(29)
        for fiber in non_weak_fibers:
            assert not is_weak_fano(fiber)
            for spec in self.twisted(rng, fiber, 20, lambda d: True):
                self.check(*spec)

    def test_catalog_bundles(self):
        from torifan.fan import build_bundle

        for name in ("X3_0", "X4_0", "X4_1", "X5_1"):
            fan = named_fan(name).fan
            fiber = fan_from_rays_2d([r[:2] for r in fan.rays[:-2]])
            spec = (fiber, fan.rays[-2][:2], fan.rays[-1][:2])
            assert build_bundle(*spec) == fan
            self.check(*spec)

    def test_section_relation(self):
        # on F1 = {(1,0), (-1,0), (0,1), (1,-1)}, w = (2, 1) + (1, 0) = 3*(1,0) + (0,1)
        rel = reference_section_relation(hirzebruch_fan(1), (2, 1), (1, 0))
        assert rel.collection == (4, 5) and rel.sigma == (0, 2)
        assert rel.coeffs == ((0, 3), (2, 1))
        assert rel.degree == 2 - 4 and rel.to_dict(6)["class"] == [-3, 0, -1, 0, 1, 1]
        with pytest.raises(ValueError):
            reference_section_relation(named_fan("X3_0").fan, (0, 0), (0, 0))
