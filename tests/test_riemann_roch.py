"""Riemann-Roch identities: checks of the wall degrees and of the printed
anticanonical degree by methods that share nothing with them but the fan.

- On a smooth complete 3-fold the wall degrees sum to c1 . c2 = 24 chi(O) = 24,
  and the fan has 2n - 4 maximal cones; on a smooth complete surface they
  sum to K^2 = 12 - n (Noether's formula).
- On a weak Fano 3-fold, Kawamata-Viehweg vanishing makes h^0(-kK) equal
  k(k + 1)(2k + 1)/12 (-K)^3 + 2k + 1, and on a weak del Pezzo surface
  k(k + 1)/2 K^2 + 1; on a toric variety h^0(-kK) counts lattice points
  (``lattice_points``).
"""

from fractions import Fraction

from torifan.catalog import all_named, surfaces, threefolds
from torifan.fan import build_bundle, wall_relations
from torifan.polytope import anticanonical_degree
from torifan.primitive import is_weak_fano

from _oracles import lattice_points, sweep_bundles_b3


def _wall_degrees(fan):
    """-K.C = 2 - sum alpha_t for the curve C of each kept wall relation."""
    return [2 - sum(alphas) for alphas in wall_relations(fan).values()]


def test_wall_degrees_sum_to_c1c2_and_to_k_squared(surface_report):
    """On the 18 catalog 3-folds, the 304 bundles of the sweep and the 784
    bundles over the 16 fibers with w+ in [-3, 3]^2, most of them not weak
    Fano; and on the 16 catalog surfaces and the 16 classes of the closure."""
    report, _ = surface_report
    catalog = [nf.fan for nf in all_named().values() if nf.fan.dim == 3]
    box = [
        build_bundle(nf.fan, (sx, sy), (0, 0))
        for nf in surfaces()
        for sx in range(-3, 4)
        for sy in range(-3, 4)
    ]
    threefans = catalog + sweep_bundles_b3() + box
    assert len(catalog) == 18 and len(threefans) == 1106
    assert sum(not is_weak_fano(fan) for fan in box) > len(box) // 2
    for fan in threefans:
        assert sum(_wall_degrees(fan)) == 24, fan.to_dict()
        assert len(fan.max_cones) == 2 * len(fan.rays) - 4, fan.to_dict()
    twofans = [nf.fan for nf in surfaces()] + [e.fan for e in report.classes]
    assert len(twofans) == 32
    for fan in twofans:
        assert sum(_wall_degrees(fan)) == 12 - len(fan.rays), fan.to_dict()


def test_lattice_points_match_riemann_roch():
    """h^0(-kK) for k = 1, 2, 3 on the 16 catalog surfaces, and for k = 1, 2
    on the 15 catalog 3-folds and the 304 bundles of the sweep, all weak
    Fano, from the printed degree (-K)^d."""
    checked = 0
    for nf in surfaces():
        degree = anticanonical_degree(nf.fan)
        for k in (1, 2, 3):
            assert lattice_points(nf.fan, k) == k * (k + 1) // 2 * degree + 1, (nf.name, k)
            checked += 1
    for fan in [nf.fan for nf in threefolds()] + sweep_bundles_b3():
        assert is_weak_fano(fan)
        degree = anticanonical_degree(fan)
        for k in (1, 2):
            expected = Fraction(k * (k + 1) * (2 * k + 1) * degree, 12) + 2 * k + 1
            assert lattice_points(fan, k) == expected, (fan.to_dict(), k)
            checked += 1
    assert checked == 686
