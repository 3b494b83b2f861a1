"""Exact anticanonical degree (-K)^d of a smooth complete fan.

The degree is read off the wall relations that ``validate`` keeps, by
adjunction (``anticanonical_degree``): the curve of a wall with relation
c + d = sum alpha_t a_t has degree -K.C = 2 - sum alpha_t. That needs no
convexity, so it is right also where -K is not nef. Everything is exact
integer arithmetic.
"""

from __future__ import annotations

from .fan import Fan, maximal_cone_normals, wall_relations
from .lattice import Vector, vdot


def anticanonical_degree(fan: Fan) -> int:
    """(-K)^d of a smooth complete fan, from its wall relations.

    The curve C of a wall has degree -K.C = 2 - sum alpha_t, the alpha_t of the
    wall's relation (``wall_relations``); this is the one place that computes
    it. On a curve or a surface (-K)^d = sum_r -K.D_r is the sum of the wall
    degrees. On a 3-fold (-K)^3 = sum_r (-K|D_r)^2. Let m_r be row r of the
    kept inverse of the first maximal cone at r, so <m_r, v_r> = 1. The
    character m_r gives D_r ~ -sum_{j != r} <m_r, v_j> D_j, and D_j meets D_r
    only in the curve C_j of the wall {r, j}, so
    -K|D_r = sum_j (1 - <m_r, v_j>) C_j over those walls. Each C_j meets -K in
    its wall degree, so the wall {a, b} adds its degree times
    2 - <m_a, v_b> - <m_b, v_a>. No convexity is used, so the sum is (-K)^3
    also where -K is not nef; on weak Fano fans it is 3! times the volume of
    the polytope {m : <m, ray> >= -1}.
    """
    walls = wall_relations(fan)
    degrees = (2 - sum(alphas) for alphas in walls.values())
    if fan.dim < 3:
        return sum(degrees)
    m: dict[int, Vector] = {}
    for cone, rows in zip(fan.max_cones, maximal_cone_normals(fan)):
        for i, row in zip(cone, rows):
            m.setdefault(i, row)
    rays = fan.rays
    return sum(c * (2 - vdot(m[a], rays[b]) - vdot(m[b], rays[a])) for (a, b), c in zip(walls, degrees))
