"""Exact anticanonical degree (-K)^d of a smooth complete fan.

The degree is a sum over the maximal cones (Brion's formula), which needs no
convexity, so it is right also where -K is not nef. No tolerances:
everything is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .fan import Fan, maximal_cone_normals
from .lattice import vdot


def anticanonical_degree(fan: Fan) -> int:
    """(-K)^d of a smooth complete fan by Brion's formula.

    Each maximal cone sigma contributes <m, xi>^d / prod_j (-<w_j, xi>), where
    the w_j are its inward facet normals (the dual basis of its rays) and
    m = -sum_j w_j is the point with <m, ray> = -1 on every ray of sigma.
    With xi = (1, B, ..., B^(d-1)) and B above every |normal entry|, no
    <w_j, xi> is zero. No convexity is assumed, so the sum is (-K)^d also
    where -K is not nef; on weak Fano fans it is d! times the volume of the
    polytope {m : <m, ray> >= -1}. A sum that is not an integer is a fault
    of the package, and raises ``ArithmeticError`` even under ``python -O``.
    """
    normals = maximal_cone_normals(fan)
    base = 1 + max(abs(x) for rows in normals for row in rows for x in row)
    xi = tuple(base**i for i in range(fan.dim))
    total = Fraction(0)
    for rows in normals:
        weights = [vdot(row, xi) for row in rows]
        total += Fraction((-sum(weights)) ** fan.dim, prod(-w for w in weights))
    if total.denominator != 1:
        raise ArithmeticError(f"Brion's sum over a smooth complete fan must be an integer, not {total}")
    return int(total)
