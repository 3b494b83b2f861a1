import json

import pytest

from torifan.catalog import all_named, extras, named_fan, surfaces, threefolds
from torifan.fan import validate
from torifan.polytope import anticanonical_degree
from torifan.primitive import is_fano, is_weak_fano, picard_rank


def test_counts():
    assert len(surfaces()) == 16
    assert len(threefolds()) == 15
    assert len(extras()) == 3


def test_every_named_fan_validates():
    for nf in all_named().values():
        report = validate(nf.fan)
        assert report.ok, (nf.name, report.offending_cones)


def test_surface_expected_invariants():
    for nf in surfaces():
        assert len(nf.fan.rays) == nf.expected["rays"]
        assert picard_rank(nf.fan) == nf.expected["picard"]
        assert anticanonical_degree(nf.fan) == nf.expected["degree"]
        assert is_weak_fano(nf.fan)
        assert is_fano(nf.fan) == nf.expected["fano"]


def test_exactly_five_fano_surfaces():
    fano = {nf.name for nf in surfaces() if nf.expected["fano"]}
    assert fano == {"P2", "P1xP1", "F1", "S7", "S6"}


def test_threefold_expected_invariants():
    for nf in threefolds():
        assert len(nf.fan.rays) == nf.expected["rays"]
        assert picard_rank(nf.fan) == nf.expected["picard"]
        assert anticanonical_degree(nf.fan) == nf.expected["degree"]


def test_threefold_names():
    names = [nf.name for nf in threefolds()]
    assert names == [
        "P1xF2", "P1xW3", "P1xW4_1", "P1xW4_2", "P1xW4_3", "P1xW5_1", "P1xW5_2",
        "P1xW6_1", "P1xW6_2", "P1xW6_3", "P1xW7", "X3_0", "X4_0", "X4_1", "X5_1",
    ]


def test_bundle_fibers_match_names():
    from torifan.isomorphism import find_isomorphism
    from torifan.fan import fan_from_rays_2d

    # fibers of the four non-product bundles: stated surface types
    expected = {"X3_0": "F1", "X4_0": "S7", "X4_1": "W3", "X5_1": "W4_1"}
    for name, fiber_name in expected.items():
        nf = named_fan(name)
        assert nf.expected["fiber"] == fiber_name
        rays = [r[:2] for r in nf.fan.rays if r[2] == 0]
        fiber = fan_from_rays_2d(rays)
        assert find_isomorphism(fiber, named_fan(fiber_name).fan) is not None


def test_unknown_name():
    with pytest.raises(KeyError):
        named_fan("X9_9")


def test_surface_rays_match_published_generator_lists():
    # spot-check a few rows of the classification table
    assert set(named_fan("W3").fan.rays) == {(1, 0), (-1, 0), (1, 1), (1, -1), (0, 1)}
    assert set(named_fan("S7").fan.rays) == {(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1)}
    assert set(named_fan("W7").fan.rays) == {
        (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (1, -2), (-1, 1), (-2, 1)
    }


def test_x_fan_generator_sets():
    # generator sets of the special bundles match the published lists after the
    # coordinate correspondence of the constructor (the bundle uses fiber-then-
    # base coordinates; for X3_0/X4_0 the base is the published 2nd coordinate)
    published = {
        "X3_0": [(1, 0, 0), (1, 1, 0), (1, -1, 0), (0, 0, 1), (0, 0, -1), (-1, 0, 1)],
        "X4_0": [(1, 0, 0), (1, 1, 0), (1, -1, 0), (0, 0, 1), (0, 0, -1), (-1, 0, 1), (-1, 0, 0)],
        "X4_1": [(1, 0, 0), (1, 1, 0), (1, -1, 0), (0, 0, 1), (0, 1, -1), (0, 1, 0), (-1, 0, 0)],
        "X5_1": [
            (1, 0, 0), (1, 1, 0), (1, -1, 0), (0, 0, 1), (0, 1, -1),
            (0, 1, 0), (-1, 0, 0), (0, -1, 0),
        ],
    }
    for name, rays in published.items():
        ours = named_fan(name).fan
        if name in ("X3_0", "X4_0"):
            transported = sorted((r[0], r[2], r[1]) for r in ours.rays)
        else:
            transported = sorted(ours.rays)
        assert transported == sorted(rays), name


def test_json_round_trip_all_catalog():
    from torifan.fan import fan_from_json

    for nf in all_named().values():
        text = json.dumps(nf.fan.to_dict())
        assert fan_from_json(text) == nf.fan
        assert json.dumps(fan_from_json(text).to_dict()) == text
