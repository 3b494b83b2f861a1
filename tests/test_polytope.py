import random
from fractions import Fraction
from math import factorial

import pytest

from torifan.catalog import all_named, named_fan, surfaces, threefolds
from torifan.classify import blow_up
from torifan.fan import Fan, build_bundle, fan_from_rays_2d
from torifan.polytope import anticanonical_degree
from torifan.primitive import is_weak_fano

from _oracles import (
    anticanonical_polytope,
    anticanonical_volume,
    brion_degree,
    hirzebruch_fan,
    random_unimodular,
    rebase_fan,
    shoelace_area,
)


def F(x):
    return Fraction(x)


class TestVertices:
    def test_p2_triangle(self):
        poly = anticanonical_polytope(named_fan("P2").fan)
        assert set(poly.vertices) == {(F(2), F(-1)), (F(-1), F(2)), (F(-1), F(-1))}

    def test_p1xp1_square(self):
        poly = anticanonical_polytope(named_fan("P1xP1").fan)
        assert set(poly.vertices) == {
            (F(1), F(1)), (F(1), F(-1)), (F(-1), F(1)), (F(-1), F(-1))
        }

    def test_f2_degenerate_triangle(self):
        # the halfspace of the degree-0 ray touches the polytope in one vertex,
        # so three constraints meet there; exact dedup must collapse them
        poly = anticanonical_polytope(named_fan("F2").fan)
        assert set(poly.vertices) == {(F(-1), F(0)), (F(1), F(2)), (F(1), F(-2))}
        assert shoelace_area(poly.vertices) == 4

    def test_vertices_satisfy_all_constraints(self):
        for name in ("S6", "W6_2", "X4_1"):
            poly = anticanonical_polytope(named_fan(name).fan)
            for v in poly.vertices:
                for normal in poly.halfspaces:
                    assert sum(c * n for c, n in zip(v, normal)) >= -1

    def test_unbounded_input_rejected(self):
        half = Fan(2, ((1, 0), (0, 1)), ((0, 1),))
        with pytest.raises(ValueError):
            anticanonical_polytope(half)


class TestDegree:
    def test_p2_degree_9(self):
        assert anticanonical_degree(named_fan("P2").fan) == 9

    def test_x3_0_degree_52(self):
        assert anticanonical_degree(named_fan("X3_0").fan) == 52

    def test_x5_1_degree_36(self):
        assert anticanonical_degree(named_fan("X5_1").fan) == 36

    def test_surface_degree_identity(self, non_weak_fibers):
        # (-K)^2 = 12 - #rays on every smooth complete surface (Noether), also
        # on the 96 one-point blow-ups of the catalog surfaces, 56 of them
        # not weak Fano
        fans = [nf.fan for nf in surfaces()]
        blowups = [blow_up(fan, cone) for fan in fans for cone in fan.max_cones]
        assert len(blowups) == 96 and sum(not is_weak_fano(fan) for fan in blowups) == 56
        for fan in fans + blowups + non_weak_fibers:
            assert anticanonical_degree(fan) == 12 - len(fan.rays)

    def test_product_degree_factorizes(self):
        # (-K)^3 of P1 x S equals 6 * (-K_S)^2
        for nf in threefolds():
            if not nf.name.startswith("P1x"):
                continue
            fiber = named_fan(nf.expected["fiber"]).fan
            assert anticanonical_degree(nf.fan) == 6 * anticanonical_degree(fiber)

    @pytest.mark.parametrize("a", range(8))
    def test_hirzebruch_degree_is_8(self, a):
        # -K is not nef on F_a for a >= 3; the polytope volume is not (-K)^2 there
        assert anticanonical_degree(hirzebruch_fan(a)) == 8
        assert anticanonical_degree(build_bundle(hirzebruch_fan(a), (0, 0), (0, 0))) == 48

    def test_invalid_fan_rejected(self):
        half = Fan(2, ((1, 0), (0, 1)), ((0, 1),))
        with pytest.raises(ValueError):
            anticanonical_degree(half)

    def test_degree_agrees_with_brions_sum(self, non_weak_fibers):
        # fans that the volume and Riemann-Roch checks cannot reach: -K is
        # not nef on 2400 of the 2704 bundles of the box, nor on the
        # non-weak fibers and their products, nor on F_a for a >= 3
        box = [
            build_bundle(nf.fan, (x, y), (0, 0))
            for nf in surfaces()
            for x in range(-6, 7)
            for y in range(-6, 7)
        ]
        assert len(box) == 2704 and sum(not is_weak_fano(fan) for fan in box) == 2400
        fans = (
            box
            + non_weak_fibers
            + [build_bundle(fiber, (0, 0), (0, 0)) for fiber in non_weak_fibers]
            + [hirzebruch_fan(a) for a in range(9)]
            + [nf.fan for nf in all_named().values()]
        )
        for fan in fans:
            assert anticanonical_degree(fan) == brion_degree(fan), fan.to_dict()

    def test_degree_is_scaled_volume_on_weak_fano_fans(self, threefold_report_b3):
        report, _ = threefold_report_b3
        fans = [nf.fan for nf in all_named().values()] + [e.fan for e in report.classes]
        for fan in fans:
            assert anticanonical_degree(fan) == factorial(fan.dim) * anticanonical_volume(fan)


class TestInvariance:
    def test_degree_invariant_under_rebasing(self):
        rng = random.Random(31)
        for name in ("F2", "W5_2", "X4_0", "P1xW6_1"):
            fan = named_fan(name).fan
            expected = anticanonical_degree(fan)
            for _ in range(4):
                u = random_unimodular(rng, fan.dim)
                assert anticanonical_degree(rebase_fan(fan, u)) == expected

    def test_volume_is_exact_rational(self):
        f3 = fan_from_rays_2d([(1, 0), (-1, 0), (0, 1), (3, -1)])
        assert anticanonical_volume(f3) == Fraction(25, 6)


def test_the_package_has_no_assert_statement():
    """``python -O`` strips ``assert``, so no check in the package may be one."""
    import ast
    from pathlib import Path

    import torifan

    sources = sorted(Path(torifan.__file__).parent.glob("*.py"))
    assert len(sources) >= 10
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path.name
