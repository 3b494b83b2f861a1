"""Each fact about a fan is computed once per fan instance.

The counters replace a function by identity in every loaded torifan module,
so a call through a name imported with ``from .x import f`` is counted too.
"""

import json
import sys

import pytest

from torifan import catalog, contraction, lattice, polytope, primitive
from torifan import fan as fan_module
from torifan.catalog import named_fan
from torifan.classify import enumerate_weak_del_pezzo, enumerate_weakened_threefolds
from torifan.cli import run
from torifan.contraction import crepant_contractions, is_weakened_fano
from torifan.fan import Fan, build_bundle
from torifan.isomorphism import canonical_key
from torifan.primitive import primitive_collections

from _oracles import reference_zero_two_witness


@pytest.fixture
def calls(monkeypatch):
    """calls(fn) -> list that receives the first argument of every call to fn,
    or with ``whole=True`` the tuple of all its positional arguments."""

    def install(original, whole=False):
        seen = []

        def counted(*args, **kwargs):
            seen.append(args if whole else args[0])
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "torifan" or name.startswith("torifan."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
        return seen

    return install


def fresh(fan: Fan) -> Fan:
    """An equal fan with nothing computed yet."""
    return Fan(fan.dim, fan.rays, fan.max_cones)


def test_isomorphic_validates_each_fan_at_most_once(tmp_path, calls):
    path = tmp_path / "x3_0.json"
    path.write_text(json.dumps(named_fan("X3_0").fan.to_dict()))
    validated = calls(fan_module.validate)
    result = run(["isomorphic", str(path), "catalog:X3_0", "--json"])
    assert result.status == "ok" and result.payload["isomorphic"]
    assert 1 <= len(validated) <= 2
    assert len({id(f) for f in validated}) == len(validated)


def test_isomorphic_computes_no_relations_and_no_degree(tmp_path, calls):
    path = tmp_path / "x3_0.json"
    path.write_text(json.dumps(named_fan("X3_0").fan.to_dict()))
    relations = calls(primitive.primitive_collections)
    degrees = calls(polytope.anticanonical_degree)
    for other, isomorphic in (("catalog:X3_0", True), ("catalog:X4_0", False), ("catalog:P1xW3", False)):
        result = run(["isomorphic", str(path), other, "--json"])
        assert result.status == "ok" and result.payload["isomorphic"] is isomorphic
    assert relations == [] and degrees == []


def test_bundle_is_validated_once_through_the_verdict(calls):
    fiber = named_fan("F1").fan
    validated = calls(fan_module.validate)
    fan = build_bundle(fiber, (1, 0), (1, 0))
    assert fan.report.ok and len(fan.max_cones) == 2 * len(fiber.max_cones)
    is_weakened_fano(fan)
    assert sum(1 for f in validated if f is fan) == 1


def test_surface_search_builds_a_fan_only_for_a_new_class(calls, monkeypatch):
    # the catalog is built once per process; its surfaces are the 3 seeds and
    # the names of the classes
    catalog_fans = {id(nf.fan) for nf in catalog.surfaces()}
    validated = calls(fan_module.validate)
    made = []
    post_init = Fan.__post_init__
    monkeypatch.setattr(Fan, "__post_init__", lambda fan: made.append(fan) or post_init(fan))
    report = enumerate_weak_del_pezzo()
    assert report.stats == {"seeds": 3, "blowups": 96, "weak_fano": 40, "duplicates": 27, "classes": 16}
    # the 56 rejected and 27 duplicate blow-ups never become a Fan: the only
    # fans made are the 13 class representatives that are not seeds
    new = [e.fan for e in report.classes if id(e.fan) not in catalog_fans]
    assert len(new) == len(made) == 13
    assert {id(fan) for fan in made} == {id(fan) for fan in new}
    # and no fan is validated but those and the catalog surfaces
    assert {id(fan) for fan in validated} <= catalog_fans | {id(fan) for fan in new}
    assert {id(fan) for fan in new} <= {id(fan) for fan in validated}


def test_extremality_lps_only_for_degree_zero_relations(calls):
    lps = calls(lattice.has_nonneg_combination, whole=True)
    # X4_0 has one degree-0 relation and no other degree-0 class to test it against
    fan = fresh(named_fan("X4_0").fan)
    assert is_weakened_fano(fan).is_weakened
    assert len(crepant_contractions(fan)) == 1
    assert [r.degree for r in primitive_collections(fan)].count(0) == 1
    assert lps == []
    # P1 x W7 has 9 degree-0 relations among 28, 6 of them of the zero-two
    # shape. The verdict tests only the other 3, and each is the sum of two
    # other degree-0 classes, so it runs no LP. The table runs one LP for
    # each of the remaining 6, with at most the other 8 degree-0 classes as
    # columns, on the rho = 11 - 3 = 8 entries off the first maximal cone
    fan = fresh(named_fan("P1xW7").fan)
    assert is_weakened_fano(fan).is_weakened
    assert len(primitive_collections(fan)) == 28
    assert lps == []
    assert len(crepant_contractions(fan)) == 6
    assert len(lps) == 6 and all(len(columns) <= 8 for columns, _ in lps)
    assert all(len(target) == 8 and {len(c) for c in columns} == {8} for columns, target in lps)
    # asking again reuses every stored fact
    is_weakened_fano(fan)
    crepant_contractions(fan)
    assert len(lps) == 6


def test_sweep_builds_only_bundles_that_can_be_weak_fano(calls):
    # the catalog is built once per process; keep its bundles out of the count
    catalog.surfaces(), catalog.threefolds()
    built = calls(fan_module.build_bundle)
    verdicts = calls(contraction.is_weakened_fano)
    lps = calls(lattice.has_nonneg_combination)
    report = enumerate_weakened_threefolds(3)
    # 304 of the 16 * 13^2 = 2704 sums in the box have phi <= 2
    assert len(built) == 304 and len(verdicts) == 304
    # 9 of the 216 extremality questions that reach an LP column set are the
    # sum of two of the columns, and are answered without an LP
    assert len(lps) == 207
    assert sum(is_weakened_fano(fan).is_weakened for fan in verdicts) == 22
    assert report.count == 15


def test_sweep_lifts_bundle_relations_without_a_subset_scan(calls):
    catalog.surfaces(), catalog.threefolds()
    scanned = calls(primitive._face_set)
    validated = calls(fan_module.validate)
    report = enumerate_weakened_threefolds(3)
    assert report.count == 15
    assert not any(fan.dim == 3 for fan in scanned)
    # the relations are seeded, but every built bundle is still validated once
    bundles = [fan for fan in validated if fan.dim == 3]
    assert len(bundles) == 304 and len({id(fan) for fan in bundles}) == 304


def test_relations_reuse_the_cone_inverses_of_validation(calls):
    inverted = calls(lattice.invert_unimodular)
    fan = fresh(named_fan("P1xW7").fan)
    assert fan.report.ok
    primitive_collections(fan)
    assert inverted == []


def test_sweep_inverts_one_basis_per_zero_two_witness(calls):
    # the witness reads each candidate's coordinates from the cone
    # inverses, and inverts a basis only to build the U that it returns
    catalog.surfaces(), catalog.threefolds()
    inverted = calls(lattice.invert_unimodular)
    searched = calls(contraction.zero_two_normal_form_witness, whole=True)
    report = enumerate_weakened_threefolds(3)
    assert report.count == 15
    sweep_inversions = len(inverted)
    witnesses = sum(reference_zero_two_witness(fan, rel) is not None for fan, rel in searched)
    assert len(searched) == 314 and sweep_inversions == witnesses == 83


def test_sweep_computes_each_cone_once_in_validate(calls):
    catalog.surfaces(), catalog.threefolds()
    validated = calls(fan_module.validate)
    cones = calls(fan_module.cone_det_and_normals, whole=True)
    report = enumerate_weakened_threefolds(3)
    assert report.count == 15
    computed = [(id(fan), cone) for fan, cone in cones]
    assert len(computed) == len(set(computed))
    # every computed cone belongs to a fan that validation saw, and no call
    # came from anywhere else
    assert len(computed) == sum(len(fan.max_cones) for fan in validated)
    assert {id(fan) for fan, _ in cones} <= {id(fan) for fan in validated}


def test_one_cone_kernel_call_per_maximal_cone(calls):
    # validation reads each cone's determinant and normals once; relations,
    # key and degree reuse them, and a 3-fold's cones take no adjugate
    kernels = calls(fan_module.cone_det_and_normals, whole=True)
    adjugates = calls(lattice.adjugate)
    fan = fresh(named_fan("P1xW7").fan)
    assert fan.report.ok
    primitive_collections(fan)
    canonical_key(fan)
    polytope.anticanonical_degree(fan)
    assert sorted(cone for _, cone in kernels) == sorted(fan.max_cones)
    assert all(f is fan for f, _ in kernels)
    assert adjugates == []


def test_memo_is_not_part_of_equality_or_hashing():
    fan = named_fan("W4_3").fan
    other = fresh(fan)
    primitive_collections(fan)
    assert fan == other and hash(fan) == hash(other)
    assert fan.to_dict() == other.to_dict()
