"""Each fact about a fan is computed once per fan instance.

The counters replace a function by identity in every loaded torifan module,
so a call through a name imported with ``from .x import f`` is counted too.
"""

import sys

import pytest

from torifan import fan as fan_module
from torifan import lattice
from torifan.catalog import named_fan
from torifan.cli import run
from torifan.contraction import is_weakened_fano
from torifan.fan import BundleSpec, Fan, build_bundle
from torifan.primitive import primitive_collections


@pytest.fixture
def calls(monkeypatch):
    """calls(fn) -> list that receives the first argument of every call to fn."""

    def install(original):
        seen = []

        def counted(*args, **kwargs):
            seen.append(args[0])
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
    path.write_text(named_fan("X3_0").fan.to_json())
    validated = calls(fan_module.validate)
    result = run(["isomorphic", str(path), "catalog:X3_0", "--json"])
    assert result.status == "ok" and result.payload["isomorphic"]
    assert 1 <= len(validated) <= 2
    assert len({id(f) for f in validated}) == len(validated)


def test_bundle_is_validated_once_through_the_verdict(calls):
    fiber = named_fan("F1").fan
    validated = calls(fan_module.validate)
    fan = build_bundle(BundleSpec(fiber, (1, 0), (1, 0)))
    assert fan is not None
    is_weakened_fano(fan)
    assert sum(1 for f in validated if f is fan) == 1


def test_extremality_lps_only_for_degree_zero_relations(calls):
    lps = calls(lattice.has_nonneg_combination)
    fan = fresh(named_fan("X4_0").fan)
    verdict = is_weakened_fano(fan)
    assert verdict.is_weakened
    crepant = [r for r in primitive_collections(fan) if r.degree == 0]
    assert 0 < len(lps) == len(crepant) < len(primitive_collections(fan))
    # asking again reuses every stored fact
    is_weakened_fano(fan)
    assert len(lps) == len(crepant)


def test_validate_makes_no_kernel_direction_search(calls):
    searched = calls(lattice.kernel_directions)
    report = fan_module.validate(fresh(named_fan("X5_1").fan))
    assert report.ok
    assert searched == []


def test_memo_is_not_part_of_equality_or_hashing():
    fan = named_fan("W4_3").fan
    other = fresh(fan)
    primitive_collections(fan)
    assert fan == other and hash(fan) == hash(other)
    assert fan.to_json() == other.to_json()
