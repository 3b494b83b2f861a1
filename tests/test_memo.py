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
from torifan.contraction import WeakenedVerdict, crepant_contractions, is_weakened_fano
from torifan.fan import Fan, build_bundle
from torifan.isomorphism import canonical_key, find_isomorphism
from torifan.polytope import anticanonical_degree
from torifan.primitive import is_fano, is_weak_fano, primitive_collections

from _oracles import reference_zero_two_witness, sweep_bundles_b3


@pytest.fixture
def calls(monkeypatch):
    """calls(fn) -> list that receives the first argument of every call to fn,
    or with ``whole=True`` the tuple of all its positional arguments; with
    ``into``, that list instead of a new one, so one log can keep the order
    of calls to several functions."""

    def install(original, whole=False, into=None):
        seen = [] if into is None else into

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


def test_predicates_compute_no_relations_on_a_fan_that_is_not_weak_fano(tmp_path, calls):
    # the bundle over P2 of twist (2, 1) = 2 * (1, 0) + (0, 1) has a wall of
    # degree 2 - 3 = -1: the predicates read it from the wall table, and the
    # verdict and the contraction table stop there
    relations = calls(primitive.primitive_collections)
    fan = build_bundle(named_fan("P2").fan, (2, 1), (0, 0))
    assert min(2 - sum(alphas) for alphas in fan_module.wall_relations(fan).values()) == -1
    assert not is_weak_fano(fan) and not is_fano(fan)
    assert is_weakened_fano(fan) == WeakenedVerdict(False, False, False)
    assert crepant_contractions(fan) == ()
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(fan.to_dict()))
    for command in ("is-fano", "is-weak-fano", "is-weakened-fano"):
        assert run([command, str(path), "--json"]).status == "ok"
    assert relations == []


WALL_READERS = {
    "is_fano": is_fano,
    "is_weak_fano": is_weak_fano,
    "anticanonical_degree": anticanonical_degree,
    "find_isomorphism(f, f)": lambda fan: find_isomorphism(fan, fan),
}


@pytest.mark.parametrize("reader", WALL_READERS.values(), ids=WALL_READERS.keys())
def test_wall_readers_keep_nothing_on_a_fan(reader):
    # they read the wall relations and cone inverses that the report keeps,
    # and build no table of their own from them
    fans = [fresh(nf.fan) for nf in catalog.all_named().values()] + sweep_bundles_b3()[::50]
    assert len(fans) == 34 + 7
    for fan in fans:
        reader(fan)
        assert fan._memo == {}, fan.to_dict()


def test_extremality_lps_only_for_degree_zero_relations(calls):
    lps = calls(lattice.has_nonneg_combination, whole=True)
    relations = calls(primitive.primitive_collections)
    # the verdict and the table read the crepant relations off the degree-0
    # wall classes: X4_0 has 2 degree-0 walls of one class, so that class
    # has no other to be tested against
    fan = fresh(named_fan("X4_0").fan)
    assert is_weakened_fano(fan).is_weakened
    assert len(crepant_contractions(fan)) == 1
    assert [sum(alphas) for alphas in fan_module.wall_relations(fan).values()].count(2) == 2
    assert lps == [] and relations == []
    # P1 x W6_3 has 10 degree-0 walls among 24, of 5 classes, each a fiber
    # class lifted to both sections: each of the 5 has a one-ray
    # certificate among them, so the verdict runs no LP, and the table, the
    # same walk, reuses its answers
    fan = fresh(named_fan("P1xW6_3").fan)
    assert is_weakened_fano(fan).is_weakened
    walls = fan_module.wall_relations(fan)
    assert len(walls) == 24 and [sum(alphas) for alphas in walls.values()].count(2) == 10
    assert len(crepant_contractions(fan)) == 5
    is_weakened_fano(fan)
    crepant_contractions(fan)
    assert lps == [] and relations == []
    # the relation route, which analyze prints, tests 8 degree-0 relations
    # among 21 on the degree-0 face, and runs one LP for each of 3 that have
    # neither a one-ray certificate nor a split into two other degree-0
    # classes, with the other 7 degree-0 classes as columns, on all 10
    # entries of a class
    all_relations = primitive_collections(fan)
    assert len(all_relations) == 21 and [r.degree for r in all_relations].count(0) == 8
    assert sum(primitive.is_extremal(fan, r) for r in all_relations if r.degree == 0) == 5
    assert len(lps) == 3 and all(len(columns) <= 7 for columns, _ in lps)
    assert all(len(target) == 10 and {len(c) for c in columns} == {10} for columns, target in lps)
    # P1 x W7 has 12 degree-0 walls among 27, of 6 classes, all crepant,
    # each with a one-ray certificate
    fan = fresh(named_fan("P1xW7").fan)
    assert is_weakened_fano(fan).is_weakened
    assert len(crepant_contractions(fan)) == 6
    assert len(lps) == 3 and len(relations) == 1


def test_extremality_lps_over_every_relation_of_the_catalog_and_the_bundles(calls):
    """The LPs that ``is_extremal`` runs when asked about every relation of
    each catalog fan and each of the 304 bundles of the bound-3 sweep, on
    fresh copies: most classes have a one-ray certificate or split into two
    other classes, and only the rest reach the LP."""
    lps = calls(lattice.has_nonneg_combination, whole=True)
    named = catalog.all_named()
    assert len(named) == 34
    per_fan = {}
    for name, nf in named.items():
        fan = fresh(nf.fan)
        before = len(lps)
        for rel in primitive_collections(fan):
            primitive.is_extremal(fan, rel)
        if len(lps) > before:
            per_fan[name] = len(lps) - before
    # the other 30 catalog fans run none
    assert per_fan == {"W6_3": 3, "P1xW6_3": 3, "X4_1": 1, "X5_1": 1}
    bundles = sweep_bundles_b3()
    assert len(bundles) == 304
    before = len(lps)
    for fan in bundles:
        for rel in primitive_collections(fan):
            primitive.is_extremal(fan, rel)
    assert len(lps) - before == 249


def test_extremality_keeps_one_class_table_per_fan():
    # the degree-0 face is a filter of the one table, not a second table
    fan = fresh(named_fan("P1xW7").fan)
    relations = primitive_collections(fan)
    assert len(relations) == 28 and [r.degree for r in relations].count(0) == 9
    for rel in relations:
        primitive.is_extremal(fan, rel)
    tables = [key for key in fan._memo if key[0] == "torifan.primitive._columns"]
    assert tables == [("torifan.primitive._columns",)]


def test_sweep_builds_only_bundles_that_can_be_weak_fano(calls, monkeypatch):
    # the catalog is built once per process; keep its bundles out of the
    # count. The catalog fibers keep their extremality answers for the rest
    # of the process, so the sweep runs over fresh copies, which have none
    catalog.surfaces(), catalog.threefolds()
    fibers = tuple(catalog.NamedFan(nf.name, fresh(nf.fan), nf.expected) for nf in catalog.surfaces())
    monkeypatch.setattr(catalog, "surfaces", lambda: fibers)
    built = calls(fan_module.build_bundle)
    verdicts = calls(contraction.is_weakened_fano)
    tables = calls(primitive._class_table, whole=True)
    lps = calls(lattice.has_nonneg_combination, whole=True)
    report = enumerate_weakened_threefolds(3)
    # 304 of the 16 * 13^2 = 2704 sums in the box have phi <= 2
    assert len(built) == 304 and len(verdicts) == 304
    assert sum(is_weakened_fano(fan).is_weakened for fan in verdicts) == 22
    assert report.count == 15
    # a bundle's extremality is read off its fiber, so no bundle builds a
    # table of classes: the sweep builds one per fiber, of the fiber's
    # degree-0 wall classes on its n rays. Those are its (-2)-curves, each
    # the only class negative at its own ray, 32 in all, so the sweep runs
    # no LP
    assert sorted(rays for _, rays in tables) == sorted(len(nf.fan.rays) for nf in fibers)
    assert sum(len(classes) for classes, _ in tables) == 32
    assert lps == []


def test_sweep_lifts_bundle_relations_without_a_subset_scan(calls):
    catalog.surfaces(), catalog.threefolds()
    scanned = calls(primitive._face_set)
    relations = calls(primitive.primitive_collections)
    extremal = calls(primitive.is_extremal)
    validated = calls(fan_module.validate)
    report = enumerate_weakened_threefolds(3)
    assert report.count == 15
    # a bundle's crepant relations are seeded from its fiber, so the sweep
    # neither grows a bundle's relations nor decides their extremality
    assert not any(fan.dim == 3 for fan in scanned + relations + extremal)
    # every built bundle is still validated once
    bundles = [fan for fan in validated if fan.dim == 3]
    assert len(bundles) == 304 and len({id(fan) for fan in bundles}) == 304


def test_sweep_multiplies_no_matrices_for_its_zero_two_witnesses(calls):
    # the witness reads the kept wall degree and one coordinate from a cone
    # inverse, and builds no basis change; nothing else in the sweep
    # multiplies matrices
    catalog.surfaces(), catalog.threefolds()
    products = calls(lattice.matmul)
    searched = calls(contraction.zero_two_normal_form_witness, whole=True)
    report = enumerate_weakened_threefolds(3)
    assert report.count == 15
    sweep_products = len(products)
    witnesses = sum(reference_zero_two_witness(fan, rel) is not None for fan, rel in searched)
    # the verdict asks the shape only of an extremal degree-0 relation and
    # stops at the first one that is not zero-two; reading every shape of
    # the table on each weak Fano bundle would take 842 searches
    assert len(searched) == 313 and witnesses == 83 and sweep_products == 0


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


@pytest.mark.parametrize("name", ["W7", "P1xW7"])
def test_one_cone_kernel_call_per_maximal_cone(calls, name):
    # validation reads each cone's determinant and normals once, through the
    # closed form of a 2-cone or of a 3-cone; relations, key and degree
    # reuse them
    kernels = calls(fan_module.cone_det_and_normals, whole=True)
    fan = fresh(named_fan(name).fan)
    assert fan.report.ok
    primitive_collections(fan)
    canonical_key(fan)
    polytope.anticanonical_degree(fan)
    assert sorted(cone for _, cone in kernels) == sorted(fan.max_cones)
    assert all(f is fan for f, _ in kernels)


def test_memo_is_not_part_of_equality_or_hashing():
    fan = named_fan("W4_3").fan
    other = fresh(fan)
    primitive_collections(fan)
    assert fan == other and hash(fan) == hash(other)
    assert fan.to_dict() == other.to_dict()
