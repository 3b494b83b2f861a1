"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the summary lines.
All checks are exact (integer/rational); the only tolerances are the stated
wall-clock budgets, asserted against measured runtimes.
"""

import json
import random
import time

from torifan.catalog import all_named, extras, named_fan, surfaces, threefolds
from torifan.contraction import crepant_contractions, is_weakened_fano
from torifan.fan import fan_from_json
from torifan.isomorphism import canonical_key, find_isomorphism
from torifan.lattice import vsum
from torifan.polytope import anticanonical_degree
from torifan.primitive import primitive_collections

from _oracles import (
    anticanonical_volume,
    in_relative_interior,
    random_unimodular,
    rebase_fan,
    two_element_relation_kind,
)


def _report(number, name, body):
    try:
        body()
    except Exception:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def test_criterion_1_catalog_verification():
    def body():
        t0 = time.monotonic()
        for nf in threefolds():
            verdict = is_weakened_fano(nf.fan)
            assert verdict.is_weakened, nf.name
        for name in ("P1xP1xP1", "P1xS6"):
            verdict = is_weakened_fano(named_fan(name).fan)
            assert verdict.is_fano and not verdict.is_weakened
        fan = named_fan("PP2_O_O3").fan
        verdict = is_weakened_fano(fan)
        assert verdict.is_weak_fano and not verdict.is_fano and not verdict.is_weakened
        kinds = [k.kind for _, k in crepant_contractions(fan)]
        assert "divisor_to_point" in kinds
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0, f"catalog verification took {elapsed:.2f}s"

    _report(1, "catalog verification", body)


def test_criterion_2_paper_degrees():
    def body():
        expected = {"X3_0": 52, "X4_0": 38, "X4_1": 46, "X5_1": 36}
        for name, degree in expected.items():
            assert anticanonical_degree(named_fan(name).fan) == degree
        for nf in threefolds():
            if nf.name.startswith("P1x"):
                assert anticanonical_degree(nf.fan) == 6 * (12 - nf.expected["fiber_rays"])
                # cross-check against the fiber polytope volume: the product
                # polytope is a prism of height 2 over the fiber polytope
                fiber_volume = anticanonical_volume(named_fan(nf.expected["fiber"]).fan)
                assert anticanonical_volume(nf.fan) == 2 * fiber_volume

    _report(2, "anticanonical degrees 52/38/46/36 and products", body)


def test_criterion_3_surface_classification(surface_report):
    def body():
        report, elapsed = surface_report
        assert report.count == 16
        names = [e.name for e in report.classes]
        assert None not in names and len(set(names)) == 16
        assert sum(1 for e in report.classes if e.invariants["fano"]) == 5
        for e in report.classes:
            assert e.invariants["degree"] == 12 - e.invariants["rays"]
        assert elapsed < 10.0, f"surface enumeration took {elapsed:.2f}s"

    _report(3, "16 weak del Pezzo surfaces", body)


def test_criterion_4_threefold_classification(threefold_report_b3, threefold_report_b4):
    def body():
        report3, elapsed3 = threefold_report_b3
        report4, elapsed4 = threefold_report_b4
        assert report3.count == 15
        names = [e.name for e in report3.classes]
        assert None not in names and len(set(names)) == 15
        assert {e.key for e in report3.classes} == {e.key for e in report4.classes}
        assert elapsed3 + elapsed4 < 5.0, (
            f"enumeration took {elapsed3:.1f}s + {elapsed4:.1f}s"
        )

    _report(4, "15 weakened Fano 3-folds, stable at bound 4", body)


def test_criterion_5_no_f2_divisor_and_homogeneity(threefold_report_b3):
    def body():
        report, _ = threefold_report_b3
        fans = [nf.fan for nf in threefolds()] + [e.fan for e in report.classes]
        for fan in fans:
            a_values = [k.a for _, k in crepant_contractions(fan) if k.kind == "zero_two"]
            assert 2 not in a_values
            if is_weakened_fano(fan).is_weakened:
                assert len(set(a_values)) == 1

    _report(5, "no F2 exceptional divisor; divisor type homogeneous", body)


def test_criterion_6a_trichotomy(threefold_report_b3):
    def body():
        report, _ = threefold_report_b3
        weak_fano_fans = (
            [nf.fan for nf in surfaces()]
            + [nf.fan for nf in threefolds()]
            + [nf.fan for nf in extras()]
            + [e.fan for e in report.classes]
        )
        for fan in weak_fano_fans:
            for rel in primitive_collections(fan):
                if len(rel.collection) == 2:
                    shape = two_element_relation_kind(rel)
                    assert shape.kind in ("zero", "single_ray", "two_rays")

    _report(6, "(a) two-element relation trichotomy", body)


def test_criterion_6b_interior_witness():
    def body():
        for nf in threefolds():
            fan = nf.fan
            for rel in primitive_collections(fan):
                if len(rel.collection) != 2 or not rel.coeffs:
                    continue
                assert any(
                    in_relative_interior(fan, rel.collection, ray)
                    for ray in fan.rays
                ), (nf.name, rel.collection)

    _report(6, "(b) interior witness ray on the 15 threefolds", body)


def test_criterion_6c_lattice_identities(threefold_report_b3):
    def body():
        report, _ = threefold_report_b3
        fans = [nf.fan for nf in all_named().values()] + [e.fan for e in report.classes]
        for fan in fans:
            for rel in primitive_collections(fan):
                left = vsum([fan.rays[i] for i in rel.collection], fan.dim)
                right = vsum(
                    [tuple(a * x for x in fan.rays[i]) for i, a in rel.coeffs], fan.dim
                )
                assert left == right

    _report(6, "(c) exact primitive relation identities", body)


def test_criterion_6d_degree_is_class_sum(threefold_report_b3):
    def body():
        report, _ = threefold_report_b3
        fans = [nf.fan for nf in all_named().values()] + [e.fan for e in report.classes]
        for fan in fans:
            for rel in primitive_collections(fan):
                assert rel.degree == sum(rel.to_dict(len(fan.rays))["class"])

    _report(6, "(d) degree equals class-vector sum", body)


def test_criterion_6e_canonical_key_vs_isomorphism():
    def body():
        rng = random.Random(20260810)
        catalog_fans = [(nf.name, nf.fan) for nf in all_named().values()]
        keys = {name: canonical_key(fan) for name, fan in catalog_fans}
        for trial in range(100):
            name, fan = catalog_fans[trial % len(catalog_fans)]
            rebased = rebase_fan(fan, random_unimodular(rng, fan.dim))
            assert canonical_key(rebased) == keys[name]
            assert find_isomorphism(fan, rebased) is not None
        # converse direction on non-isomorphic pairs
        threefold_items = [(nf.name, nf.fan) for nf in threefolds()]
        for i in range(len(threefold_items)):
            for j in range(i + 1, len(threefold_items)):
                (na, fa), (nb, fb) = threefold_items[i], threefold_items[j]
                assert keys[na] != keys[nb]
                assert find_isomorphism(fa, fb) is None

    _report(6, "(e) canonical key agreement iff isomorphism (100 rebasings)", body)


def test_criterion_7_round_trip():
    def body():
        for nf in all_named().values():
            text = json.dumps(nf.fan.to_dict())
            parsed = fan_from_json(text)
            assert parsed == nf.fan
            assert json.dumps(parsed.to_dict()) == text

    _report(7, "byte-identical JSON round-trip", body)
