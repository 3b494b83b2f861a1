"""Hard-coded constructors for every named fan: the 16 smooth toric weak del
Pezzo surfaces, the 15 toric weakened Fano 3-folds, and a few auxiliary
3-folds used as counterexamples in tests and CLI examples.

Names are ASCII: W4_1 stands for the first Picard-rank-4 weak surface
(superscript index, subscript rank in the usual notation), X3_0 for the
rank-3 weakened 3-fold whose exceptional divisors are P1 x P1 (a = 0), and
X4_1/X5_1 for the two F1-type (a = 1) bundles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .fan import Fan, build_bundle, fan_from_rays_2d

# Generator lists of the 16 smooth toric weak del Pezzo surfaces.
# S_n is the del Pezzo surface of degree n; W fans are weak but not Fano.
_SURFACE_RAYS: dict[str, list[tuple[int, int]]] = {
    "P2": [(1, 0), (0, 1), (-1, -1)],
    "P1xP1": [(1, 0), (-1, 0), (0, 1), (0, -1)],
    "F1": [(1, 0), (-1, 0), (0, 1), (1, -1)],
    "F2": [(1, 0), (-1, 0), (1, 1), (1, -1)],
    "S7": [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1)],
    "W3": [(1, 0), (-1, 0), (1, 1), (1, -1), (0, 1)],
    "S6": [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)],
    "W4_1": [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1)],
    "W4_2": [(1, 0), (-1, 0), (1, 1), (1, -1), (0, 1), (-1, 1)],
    "W4_3": [(1, 0), (-1, 0), (1, 1), (1, -1), (0, 1), (1, 2)],
    "W5_1": [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1)],
    "W5_2": [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (1, -2)],
    "W6_1": [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)],
    "W6_2": [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (1, -2), (-1, 1)],
    "W6_3": [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (1, 2), (1, -2)],
    "W7": [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (1, -2), (-1, 1), (-2, 1)],
}

_FANO_SURFACES = {"P2", "P1xP1", "F1", "S7", "S6"}

# Fiber presentations, section twists, fiber names and degrees of the four
# non-product weakened 3-folds, in fiber (+) base coordinates. Rebased from
# the generator lists in which they are usually written: the fiber plane is
# spanned by the exceptional ray and the two rays completing its star.
_BUNDLE_DATA: dict[str, tuple[list[tuple[int, int]], tuple[int, int], tuple[int, int], str, int]] = {
    "X3_0": ([(1, 0), (0, 1), (0, -1), (-1, 1)], (1, 0), (1, 0), "F1", 52),
    "X4_0": ([(1, 0), (0, 1), (0, -1), (-1, 1), (-1, 0)], (1, 0), (1, 0), "S7", 38),
    "X4_1": ([(1, 0), (1, 1), (1, -1), (0, 1), (-1, 0)], (0, 0), (0, 1), "W3", 46),
    "X5_1": ([(1, 0), (1, 1), (1, -1), (0, 1), (-1, 0), (0, -1)], (0, 0), (0, 1), "W4_1", 36),
}

_PRODUCT_FIBERS = [
    "F2", "W3", "W4_1", "W4_2", "W4_3", "W5_1", "W5_2", "W6_1", "W6_2", "W6_3", "W7",
]


@dataclass(frozen=True)
class NamedFan:
    name: str
    fan: Fan
    expected: dict


@lru_cache(maxsize=None)
def surfaces() -> tuple[NamedFan, ...]:
    """The 16 smooth toric weak del Pezzo surfaces."""
    out = []
    for name, rays in _SURFACE_RAYS.items():
        fan = fan_from_rays_2d(rays)
        out.append(
            NamedFan(
                name,
                fan,
                {
                    "rays": len(rays),
                    "picard": len(rays) - 2,
                    "degree": 12 - len(rays),
                    "fano": name in _FANO_SURFACES,
                    "weak_fano": True,
                },
            )
        )
    return tuple(out)


@lru_cache(maxsize=None)
def threefolds() -> tuple[NamedFan, ...]:
    """The 15 toric weakened Fano 3-folds, all bundles over P1: 11 products P1 x W,
    the zero-twist bundles over the catalog surfaces W, then the four twisted ones."""
    fibers = {nf.name: nf.fan for nf in surfaces()}
    table = [
        (f"P1x{name}", fibers[name], (0, 0), (0, 0), name, 6 * (12 - len(fibers[name].rays)))
        for name in _PRODUCT_FIBERS
    ] + [
        (name, fan_from_rays_2d(rays), plus, minus, fiber_name, degree)
        for name, (rays, plus, minus, fiber_name, degree) in _BUNDLE_DATA.items()
    ]
    out = []
    for name, fiber, plus, minus, fiber_name, degree in table:
        n = len(fiber.rays)
        expected = {
            "rays": n + 2, "picard": n - 1, "degree": degree,
            "fiber": fiber_name, "fiber_rays": n, "weakened": True,
        }
        out.append(NamedFan(name, build_bundle(fiber, plus, minus), expected))
    return tuple(out)


@lru_cache(maxsize=None)
def extras() -> tuple[NamedFan, ...]:
    """Auxiliary 3-folds: two Fano products and the weak-Fano-but-not-weakened
    P1-bundle over P2 whose crepant contraction collapses a divisor to a point."""
    fibers = {nf.name: nf.fan for nf in surfaces()}
    p1p1p1 = build_bundle(fibers["P1xP1"], (0, 0), (0, 0))
    p1s6 = build_bundle(fibers["S6"], (0, 0), (0, 0))
    pp2 = Fan(
        3,
        ((1, 0, 0), (0, 1, 0), (-1, -1, 3), (0, 0, 1), (0, 0, -1)),
        ((0, 1, 3), (1, 2, 3), (0, 2, 3), (0, 1, 4), (1, 2, 4), (0, 2, 4)),
    )
    return (
        NamedFan("P1xP1xP1", p1p1p1, {"rays": 6, "picard": 3, "degree": 48, "fano": True, "weakened": False}),
        NamedFan("P1xS6", p1s6, {"rays": 8, "picard": 5, "degree": 36, "fano": True, "weakened": False}),
        NamedFan(
            "PP2_O_O3",
            pp2,
            {"rays": 5, "picard": 2, "fano": False, "weak_fano": True, "weakened": False},
        ),
    )


@lru_cache(maxsize=None)
def all_named() -> dict[str, NamedFan]:
    out: dict[str, NamedFan] = {}
    for group in (surfaces(), threefolds(), extras()):
        for nf in group:
            out[nf.name] = nf
    return out


def named_fan(name: str) -> NamedFan:
    try:
        return all_named()[name]
    except KeyError:
        raise KeyError(f"unknown catalog name {name!r}") from None
