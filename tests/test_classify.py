import random

import pytest

from torifan.catalog import named_fan, surfaces, threefolds
from torifan.classify import (
    _sequence_key,
    _weak_fano_blow_up,
    blow_up,
    build_bundle,
    enumerate_weak_del_pezzo,
    enumerate_weakened_threefolds,
    projects_to_p1,
    self_intersection_sequence,
)
from torifan.contraction import is_weakened_fano
from torifan.fan import Fan, fan_from_rays_2d, validate
from torifan.isomorphism import canonical_key, find_isomorphism
from torifan.primitive import is_weak_fano

from _oracles import (
    brute_force_sigma,
    reference_section_relation,
    reference_weak_del_pezzo,
    surface_blowups,
)


def fiber_phi(fiber, w):
    """phi(w), read from the degree 2 - phi(w) of the section relation."""
    return 2 - reference_section_relation(fiber, w, (0, 0)).degree


class TestBuildBundle:
    def test_trivial_bundle_is_the_product(self):
        fiber = named_fan("P1xP1").fan
        fan = build_bundle(fiber, (0, 0), (0, 0))
        assert fan.report.ok and len(fan.max_cones) == 2 * len(fiber.max_cones)
        assert find_isomorphism(fan, named_fan("P1xP1xP1").fan) is not None

    @pytest.mark.parametrize("dim", [1, 3])
    def test_fiber_that_is_not_a_surface_rejected(self, dim):
        # the constructor would refuse the rays too, with another message
        fiber = {1: Fan(1, ((1,), (-1,)), ((0,), (1,))), 3: named_fan("P1xP1xP1").fan}[dim]
        with pytest.raises(ValueError, match="^bundle fiber must be 2-dimensional$"):
            build_bundle(fiber, (0, 0), (0, 0))

    def test_x3_0_spec(self):
        fiber = fan_from_rays_2d([(1, 0), (0, 1), (0, -1), (-1, 1)])
        fan = build_bundle(fiber, (1, 0), (1, 0))
        assert fan.report.ok and len(fan.max_cones) == 2 * len(fiber.max_cones)
        assert find_isomorphism(fan, named_fan("X3_0").fan) is not None

    def test_p2_fiber_with_large_twist_valid_but_not_weakened(self):
        fiber = named_fan("P2").fan
        fan = build_bundle(fiber, (0, 0), (3, 0))
        assert validate(fan).ok and len(fan.max_cones) == 2 * len(fiber.max_cones)
        verdict = is_weakened_fano(fan)
        assert not verdict.is_weakened
        assert not verdict.is_weak_fano  # the double section relation has degree -1

    def test_bundles_are_always_smooth_complete(self):
        for name in ("P2", "F2", "W4_3"):
            fiber = named_fan(name).fan
            for twist in ((0, 0), (2, -1), (-3, 3)):
                fan = build_bundle(fiber, twist, (1, 1))
                assert fan.report.ok and len(fan.max_cones) == 2 * len(fiber.max_cones)

    def test_non_surface_fiber_rejected(self):
        with pytest.raises(ValueError):
            build_bundle(named_fan("X3_0").fan, (0, 0), (0, 0))

    def test_invalid_fiber_raises_naming_the_offending_cones(self):
        p2 = named_fan("P2").fan
        missing_cone = Fan(2, p2.rays, p2.max_cones[1:])
        not_unimodular = fan_from_rays_2d([(1, 0), (-1, 0), (1, 2), (1, -2)])
        for fiber, reason in ((missing_cone, "facet_unmatched"), (not_unimodular, "cone_not_unimodular")):
            assert not fiber.report.ok
            with pytest.raises(ValueError, match=reason):
                build_bundle(fiber, (1, 0), (0, 0))


class TestSurfaceEnumeration:
    def test_sixteen_classes(self, surface_report):
        report, _ = surface_report
        assert report.count == 16

    def test_bijection_with_catalog(self, surface_report):
        report, _ = surface_report
        names = [e.name for e in report.classes]
        assert None not in names
        assert sorted(names) == sorted(nf.name for nf in surfaces())

    def test_exactly_five_fano(self, surface_report):
        report, _ = surface_report
        assert sum(1 for e in report.classes if e.invariants["fano"]) == 5

    def test_blow_up_of_p2_is_f1(self):
        p2 = named_fan("P2").fan
        for cone in p2.max_cones:
            assert find_isomorphism(blow_up(p2, cone), named_fan("F1").fan) is not None

    def test_blowups_preserve_validity(self):
        fan = named_fan("W5_1").fan
        for cone in fan.max_cones:
            assert validate(blow_up(fan, cone)).ok

    def test_stage_counters(self, surface_report):
        report, _ = surface_report
        assert report.stats == {
            "seeds": 3,
            "blowups": 96,
            "weak_fano": 40,
            "duplicates": 27,
            "classes": 16,
        }
        # each class is a seed or a kept blow-up seen for the first time, and
        # each class is blown up once, at each of its cones (as many as rays)
        assert report.stats["seeds"] + report.stats["weak_fano"] - report.stats["duplicates"] == 16
        assert report.stats["blowups"] == sum(e.invariants["rays"] for e in report.classes)
        assert "stats" not in report.to_dict()

    def test_closure_is_order_independent(self, surface_report):
        # rerunning yields the same class keys (set-closure semantics)
        from torifan.classify import enumerate_weak_del_pezzo

        report, _ = surface_report
        again = enumerate_weak_del_pezzo()
        assert [e.key for e in again.classes] == [e.key for e in report.classes]


def _blow_up_chains(chains: int, seed: int, most_rays: int = 11) -> list:
    """Every fan along seeded chains of one-point blow-ups, each from a
    catalog surface up to ``most_rays`` rays; many are not weak Fano."""
    rng = random.Random(seed)
    out = []
    for _ in range(chains):
        fan = rng.choice(surfaces()).fan
        while len(fan.rays) < most_rays:
            fan = blow_up(fan, rng.choice(fan.max_cones))
            out.append(fan)
    return out


class TestSelfIntersectionSequences:
    """The surface search judges and keys blow-ups on their sequences
    (argument in the docstring of ``enumerate_weak_del_pezzo``); each fact
    is checked against the fans themselves."""

    def test_search_agrees_with_the_reference(self, surface_report):
        report, _ = surface_report
        reference = reference_weak_del_pezzo()
        assert report.to_dict() == reference.to_dict()
        assert report.stats == reference.stats

    def test_a_wrong_verdict_stops_at_eleven_rays(self, monkeypatch):
        from torifan import classify

        def loose(seq, k):
            # _weak_fano_blow_up with > 2 in place of > 1: it keeps blow-ups
            # that are not weak Fano, and the closure would never end
            after = (k + 1) % len(seq)
            if seq[k] > 2 or seq[after] > 2:
                return None
            out = list(seq)
            out[k] += 1
            out[after] += 1
            out.insert(k + 1, 1)
            return tuple(out)

        monkeypatch.setattr(classify, "_weak_fano_blow_up", loose)
        with pytest.raises(RuntimeError, match="more than 11 rays"):
            classify.enumerate_weak_del_pezzo()

    def test_blow_up_is_the_reference_blowup(self):
        for nf in surfaces():
            ours = [blow_up(nf.fan, cone) for cone in nf.fan.max_cones]
            assert ours == list(surface_blowups(nf.fan))

    def test_sequence_is_read_from_the_rays(self):
        """Each b_i, read from the wall table as 2 - the degree of the wall
        (v_i), satisfies v_{i-1} + v_{i+1} = b_i v_i and equals
        det(v_{i-1}, v_{i+1}), since det(v_{i-1}, v_i) = 1: on the 16
        surfaces, the 96 blow-ups the closure tries at its representatives,
        and blow-up chains."""
        representatives = [e.fan for e in enumerate_weak_del_pezzo().classes]
        blowups = [blow_up(fan, cone) for fan in representatives for cone in fan.max_cones]
        assert len(blowups) == 96
        fans = [nf.fan for nf in surfaces()] + blowups + _blow_up_chains(30, 17)
        assert {len(fan.rays) for fan in fans} == set(range(3, 12))
        for fan in fans:
            order, seq = self_intersection_sequence(fan)
            n = len(order)
            assert sorted(order) == list(range(n))
            for k in range(n):
                before, ray, after = (fan.rays[order[(k + s) % n]] for s in (-1, 0, 1))
                assert tuple(x + y for x, y in zip(before, after)) == tuple(seq[k] * x for x in ray)
                assert seq[k] == before[0] * after[1] - before[1] * after[0], (fan.to_dict(), k)
            # sum of the D_i^2 is 12 - 3n
            assert sum(seq) == 3 * n - 12

    def test_verdict_and_key_agree_with_the_fans(self):
        blowups = [blow_up(nf.fan, cone) for nf in surfaces() for cone in nf.fan.max_cones]
        chains = _blow_up_chains(30, 23)
        fans = blowups + chains
        assert len(blowups) == 96
        weak = [is_weak_fano(fan) for fan in fans]
        # 40 of the 96 blow-ups and 32 of the 147 chain fans are weak Fano
        assert len(fans) == 243 and sum(weak[:96]) == 40 and sum(weak) == 72
        keys = set()
        for fan, is_weak in zip(fans, weak):
            seq = self_intersection_sequence(fan)[1]
            assert (max(seq) <= 2) == is_weak, fan.to_dict()
            keys.add((_sequence_key(seq), canonical_key(fan)))
        # each sequence key goes with one canonical key, and each canonical key with one sequence key
        assert len({sk for sk, _ in keys}) == len({ck for _, ck in keys}) == len(keys)
        # the step of the search, from every weak Fano parent at every cone
        parents = [nf.fan for nf in surfaces()] + [fan for fan, w in zip(chains, weak[96:]) if w]
        kept = 0
        for parent in parents:
            order, seq = self_intersection_sequence(parent)
            for cone in parent.max_cones:
                p, q = (order.index(i) for i in cone)
                step = _weak_fano_blow_up(seq, p if (p + 1) % len(seq) == q else q)
                blown = blow_up(parent, cone)
                assert (step is not None) == is_weak_fano(blown), (parent.to_dict(), cone)
                if step is not None:
                    kept += 1
                    assert _sequence_key(step) == _sequence_key(self_intersection_sequence(blown)[1])
        # 40 from the catalog surfaces, as in the search, and 87 from the chains
        assert kept == 127


class TestThreefoldEnumeration:
    def test_fifteen_classes(self, threefold_report_b3):
        report, _ = threefold_report_b3
        assert report.count == 15

    def test_bijection_with_catalog(self, threefold_report_b3):
        report, _ = threefold_report_b3
        names = [e.name for e in report.classes]
        assert None not in names
        assert sorted(names) == sorted(nf.name for nf in threefolds())

    def test_stability_at_bound_four(self, threefold_report_b3, threefold_report_b4):
        report3, _ = threefold_report_b3
        report4, _ = threefold_report_b4
        assert {e.key for e in report3.classes} == {e.key for e in report4.classes}

    def test_every_class_is_a_bundle(self, threefold_report_b3):
        report, _ = threefold_report_b3
        for entry in report.classes:
            assert projects_to_p1(entry.fan)

    def test_fans_that_do_not_project_to_p1(self):
        """P3, and a valid 3-fan whose rays at t = 0 form a valid 2-fan
        although one of its cones straddles t = 0. The second is a rebased
        blow-up of a catalog 3-fold with 11 rays, found by a seeded search
        over point and edge blow-ups and random unimodular rebasings."""
        p3 = Fan(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)),
                 ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
        straddling = Fan(
            3,
            ((-1, 0, 1), (1, 0, -1), (4, -1, 1), (-6, 1, 1), (5, -1, 0), (6, -1, -1),
             (1, 0, 0), (-1, 0, 0), (-4, 1, 0), (-7, 1, 1), (10, -2, 1)),
            ((0, 2, 6), (0, 2, 7), (2, 4, 7), (4, 5, 6), (4, 5, 7), (1, 5, 6),
             (1, 5, 7), (1, 3, 9), (1, 7, 9), (0, 3, 6), (0, 3, 9), (0, 7, 9),
             (1, 3, 8), (1, 6, 8), (3, 6, 8), (2, 4, 10), (2, 6, 10), (4, 6, 10)),
        )
        assert p3.report.ok and straddling.report.ok
        assert fan_from_rays_2d([r[:-1] for r in straddling.rays if r[-1] == 0]).report.ok
        heights = [[straddling.rays[i][-1] for i in cone] for cone in straddling.max_cones]
        assert any(min(h) < 0 < max(h) for h in heights)
        assert not projects_to_p1(p3)
        assert not projects_to_p1(straddling)

    def test_projection_onto_p1_refuses_a_fan_that_does_not_validate(self):
        # one cone, no cone straddling t = 0, and a single ray at t = 0
        one_cone = Fan(3, ((1, 0, 0), (0, 1, 1), (0, 0, 1)), ((0, 1, 2),))
        with pytest.raises(ValueError, match="fan does not validate"):
            projects_to_p1(one_cone)

    def test_small_bound_rejected(self):
        # the largest fiber ray entry is 2, so the box of bound 1, [-2, 2]^2,
        # misses candidates such as 2 * (-1, -1) over P2
        with pytest.raises(ValueError, match="twist bound 1 is below 2, .* so its box misses candidate twists"):
            enumerate_weakened_threefolds(1)

    @pytest.mark.parametrize("bound", [2.5, 3.0, True])
    def test_bound_that_is_not_an_int_rejected(self, bound):
        # as Fan refuses such a dim; 2.5 would otherwise sweep a box of
        # 1936.0 points and 3.0 or True pass for 3 or 1
        with pytest.raises(ValueError, match=f"twist bound {bound!r} is not an int"):
            enumerate_weakened_threefolds(bound)

    def test_bound_two_holds_every_candidate(self, threefold_report_b3):
        # every candidate lies in [-4, 4]^2, the box of bound 2
        report, _ = threefold_report_b3
        small = enumerate_weakened_threefolds(2)
        assert [e.to_dict() for e in small.classes] == [e.to_dict() for e in report.classes]
        # 16 fibers times the 9 x 9 points of the box, less the 304 built
        assert small.stats == {**report.stats, "box_points": 1296, "pruned_by_phi": 992}

    def test_products_arise_from_zero_twists(self):
        fan = build_bundle(named_fan("F2").fan, (0, 0), (0, 0))
        assert find_isomorphism(fan, named_fan("P1xF2").fan) is not None

    def test_stage_counters(self, threefold_report_b3, threefold_report_b4):
        report, _ = threefold_report_b3
        assert report.stats == {
            "box_points": 16 * 13 * 13,
            "pruned_by_phi": 2400,
            "built": 304,
            "fano": 27,
            "weak_not_weakened": 255,
            "weakened": 22,
            "duplicates": 7,
            "classes": 15,
        }
        # every built bundle is weak Fano, and the counters stay out of the JSON
        assert report.stats["built"] == 27 + 255 + 22
        assert "stats" not in report.to_dict()
        # the larger box adds only pruned sums
        report4, _ = threefold_report_b4
        assert report4.stats == {
            **report.stats, "box_points": 16 * 17 * 17, "pruned_by_phi": 16 * 17 * 17 - 304,
        }

    def test_a_large_bound_sweeps_only_the_candidate_box(self, threefold_report_b3, monkeypatch):
        # every candidate lies in [-4, 4]^2, so bound 10**6 builds the same
        # 304 bundles as bound 3 and counts the rest of its box as pruned
        from torifan import classify

        report, _ = threefold_report_b3
        calls = []
        real = classify.build_bundle
        monkeypatch.setattr(
            classify, "build_bundle", lambda fiber, plus, minus: calls.append(plus) or real(fiber, plus, minus)
        )
        big = enumerate_weakened_threefolds(10**6)
        assert [e.to_dict() for e in big.classes] == [e.to_dict() for e in report.classes]
        box = 16 * (4 * 10**6 + 1) ** 2
        assert big.stats == {**report.stats, "box_points": box, "pruned_by_phi": box - 304}
        assert len(calls) == 304
        assert all(max(map(abs, plus)) <= 4 for plus in calls)

    def test_fano_filter_would_exclude_the_fifteen(self, threefold_report_b3):
        # every enumerated class is weak Fano and none is Fano
        report, _ = threefold_report_b3
        for entry in report.classes:
            verdict = is_weakened_fano(entry.fan)
            assert verdict.is_weak_fano and not verdict.is_fano
        # and the Fano product P1 x P1 x P1 is (correctly) not among them
        keys = {e.key for e in report.classes}
        assert canonical_key(named_fan("P1xP1xP1").fan) not in keys


class TestSectionPrefilter:
    """The sweep builds a bundle only when phi(w) <= 2 (argument in the
    docstring of ``enumerate_weakened_threefolds``)."""

    def test_candidates_lie_in_the_box_of_bound_3(self):
        fibers = [nf.fan for nf in surfaces()]
        assert len(fibers) == 16
        assert max(abs(x) for fan in fibers for ray in fan.rays for x in ray) == 2
        for fan in fibers:
            for ray in fan.rays:
                assert fiber_phi(fan, ray) == 1
            for sx in range(-8, 9):
                for sy in range(-8, 9):
                    phi = fiber_phi(fan, (sx, sy))
                    if max(abs(sx), abs(sy)) <= 4:
                        # phi by the oracle: coefficients of the one face holding w
                        (_, coeffs), = brute_force_sigma(fan.rays, fan.max_cones, (sx, sy))
                        assert phi == sum(coeffs)
                    elif phi <= 2:
                        pytest.fail(f"phi{(sx, sy)} = {phi} outside [-4, 4]^2")

    def test_rejected_sums_give_bundles_that_are_not_weak_fano(self):
        rejected = [
            (nf.fan, (sx, sy))
            for nf in surfaces()
            for sx in range(-6, 7)
            for sy in range(-6, 7)
            if fiber_phi(nf.fan, (sx, sy)) > 2
        ]
        assert len(rejected) == 16 * 13 * 13 - 304
        for fiber, w in random.Random(5).sample(rejected, 320):
            fan = build_bundle(fiber, w, (0, 0))
            assert fan.report.ok and len(fan.max_cones) == 2 * len(fiber.max_cones)
            assert not is_weak_fano(fan), (fiber.to_dict(), w)


def test_no_weak_fano_bundle_over_a_fiber_that_is_not_weak(non_weak_fibers):
    """A bundle keeps its fiber's relation degrees, so a weak Fano bundle
    has a weak del Pezzo fiber: over these fibers no point of the bound-3
    box gives one (relations found by the subset scan)."""
    for fiber in non_weak_fibers:
        for sx in range(-6, 7):
            for sy in range(-6, 7):
                fan = build_bundle(fiber, (sx, sy), (0, 0))
                assert fan.report.ok and len(fan.max_cones) == 2 * len(fiber.max_cones)
                assert not is_weak_fano(fan), (fiber.to_dict(), (sx, sy))


class TestVerifyClassification:
    def test_all_assertions_pass(self):
        from torifan import classify

        summary = classify.verify_classification()
        failed = [a["name"] for a in summary["assertions"] if not a["passed"]]
        assert summary["passed"] and failed == []
        names = [a["name"] for a in summary["assertions"]]
        assert len(names) == 14 and "surface_self_intersections_sum_3n_minus_12" in names

    def test_fault_injection_is_reported(self, monkeypatch):
        # removing a catalog entry must surface as a failed bijection assertion
        from torifan import catalog, classify

        full = catalog.threefolds()
        monkeypatch.setattr(catalog, "threefolds", lambda: full[:-1])
        summary = classify.verify_classification()
        assert not summary["passed"]
        failed = {a["name"] for a in summary["assertions"] if not a["passed"]}
        assert "threefold_bijection_with_catalog" in failed or "catalog_threefold_count_15" in failed
