"""Reference answers for the benchmark, computed without any torifan code.

Fans are plain data here: ``rays`` is a list of integer tuples and ``cones``
a list of index tuples. Every function is exact (ints and Fractions) and uses
a method different from the library's:

- Fano / weak Fano from the anticanonical degree of each torus-invariant
  curve (one per wall). On a surface the curve of ray i is the divisor D_i,
  with D_i^2 = deg - 2, so weak Fano means all D_i^2 >= -2 and Fano means
  all D_i^2 >= -1.
- (-K)^d by Brion's vertex formula, which holds whether or not -K is nef.
  It gives 12 - n on a surface with n rays and 6(12 - n) on P1 x S.
- Primitive collections as minimal non-faces of the cone complex.
- Validity by primitive rays, unimodular cones, facet pairing, opposite
  sides at each wall and the number of cones covering a generic point.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Optional

# The 16 smooth toric weak del Pezzo surfaces and the 15 toric weakened Fano
# 3-folds of the paper, by catalog name, and the degrees of the four 3-folds
# that are not products.
SURFACE_NAMES = (
    "P2", "P1xP1", "F1", "F2", "S7", "W3", "S6", "W4_1", "W4_2", "W4_3",
    "W5_1", "W5_2", "W6_1", "W6_2", "W6_3", "W7",
)
WEAKENED_NAMES = (
    "P1xF2", "P1xW3", "P1xW4_1", "P1xW4_2", "P1xW4_3", "P1xW5_1", "P1xW5_2",
    "P1xW6_1", "P1xW6_2", "P1xW6_3", "P1xW7", "X3_0", "X4_0", "X4_1", "X5_1",
)
SPECIAL_DEGREES = {"X3_0": 52, "X4_0": 38, "X4_1": 46, "X5_1": 36}

# Generic enough that no hyperplane with small integer normal contains it.
_BASE = 1000003


def generic_point(dim: int) -> tuple[int, ...]:
    return tuple(_BASE ** k for k in range(dim))


def det(m) -> int:
    """Cofactor expansion along the first row."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det(minor)
    return total


def columns(vectors) -> list[list[int]]:
    return [[v[r] for v in vectors] for r in range(len(vectors[0]))]


def dual_rows(vectors) -> Optional[list[list[Fraction]]]:
    """Rows w_j with <w_j, vectors[i]> = [i == j], by Cramer's rule; None if singular."""
    m = columns(vectors)
    n = len(m)
    dm = det(m)
    if dm == 0:
        return None
    rows = []
    for j in range(n):
        row = []
        for c in range(n):
            # entry (j, c) of m^-1 is the cofactor C_{c j} over det
            minor = [r[:j] + r[j + 1:] for k, r in enumerate(m) if k != c]
            row.append(Fraction((-1) ** (c + j) * det(minor), dm))
        rows.append(row)
    return rows


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def faces(cones) -> set[frozenset]:
    out = set()
    for cone in cones:
        for k in range(len(cone) + 1):
            out.update(frozenset(s) for s in combinations(cone, k))
    return out


def walls(cones) -> dict[tuple, list[int]]:
    """Each (d-1)-face of a maximal cone, with the rays completing it to a cone."""
    out: dict[tuple, list[int]] = {}
    for cone in cones:
        for k in cone:
            out.setdefault(tuple(sorted(set(cone) - {k})), []).append(k)
    return out


def curve_degrees(rays, cones) -> list[int]:
    """-K.C for the invariant curve of every wall of a smooth complete fan.

    With v_l = sum a_t v_t - v_k over the wall's rays t, the wall relation is
    v_k + v_l - sum a_t v_t = 0, so -K.C = 2 - sum a_t.
    """
    out = []
    for wall, (k, l) in walls(cones).items():
        basis = [rays[t] for t in wall] + [rays[k]]
        coords = [dot(w, rays[l]) for w in dual_rows(basis)]
        if coords[-1] != -1:
            raise ValueError(f"wall {wall} does not separate rays {k} and {l}")
        out.append(2 - int(sum(coords[:-1])))
    return out


def is_weak_fano(rays, cones) -> bool:
    return all(c >= 0 for c in curve_degrees(rays, cones))


def self_intersections(rays, cones) -> dict[int, int]:
    """D_i^2 of each ray divisor of a smooth complete surface fan (D_i^2 = -K.D_i - 2)."""
    return {wall[0]: deg - 2 for wall, deg in zip(walls(cones), curve_degrees(rays, cones))}


def anticanonical_degree(rays, cones) -> int:
    """(-K)^d by Brion's formula over the vertices m_sigma of the (virtual) polytope.

    Sum over maximal cones of <m, xi>^d / prod_j (-<w_j, xi>), where w_j is
    the dual basis of the cone and m = -sum_j w_j solves <m, v_i> = -1.
    """
    d = len(rays[0])
    xi = generic_point(d)
    total = Fraction(0)
    for cone in cones:
        w = dual_rows([rays[i] for i in cone])
        m = [-sum(col) for col in zip(*w)]
        den = Fraction(1)
        for row in w:
            den *= -dot(row, xi)
        total += Fraction(dot(m, xi)) ** d / den
    if total.denominator != 1:
        raise ValueError(f"(-K)^d came out as {total}")
    return int(total)


def minimal_non_faces(rays, cones) -> list[tuple[int, ...]]:
    fs = faces(cones)
    n = len(rays)
    d = len(rays[0])
    out = []
    for size in range(2, d + 2):
        for combo in combinations(range(n), size):
            s = frozenset(combo)
            if s not in fs and all(s - {i} in fs for i in combo):
                out.append(combo)
    return sorted(out)


def check_analyze(rays, cones, payload) -> Optional[str]:
    """None if the payload states exactly the primitive relations of the fan."""
    n, d = len(rays), len(rays[0])
    if payload.get("picard_rank") != n - d:
        return f"picard rank {payload.get('picard_rank')} != {n - d}"
    rels = payload.get("relations", [])
    got = [tuple(r["collection"]) for r in rels]
    if got != minimal_non_faces(rays, cones):
        return f"collections {got} are not the minimal non-faces"
    fs = faces(cones)
    for rel in rels:
        coll, sigma = rel["collection"], rel["sigma"]
        coeffs = {int(k): v for k, v in rel["coeffs"].items()}
        if sorted(coeffs) != sorted(sigma) or frozenset(sigma) not in fs:
            return f"sigma {sigma} with coeffs {coeffs} is not a face"
        if set(sigma) & set(coll):
            return f"sigma {sigma} meets the collection {coll}"
        if any(type(a) is not int or a <= 0 for a in coeffs.values()):
            return f"coefficients {coeffs} are not positive integers"
        lhs = [sum(rays[i][r] for i in coll) for r in range(d)]
        rhs = [sum(a * rays[i][r] for i, a in coeffs.items()) for r in range(d)]
        if lhs != rhs:
            return f"sum of {coll} is {lhs}, relation gives {rhs}"
        if rel["degree"] != len(coll) - sum(coeffs.values()):
            return f"degree {rel['degree']} of {coll} is wrong"
        cls = [(1 if i in coll else 0) - coeffs.get(i, 0) for i in range(n)]
        if rel["class"] != cls:
            return f"class {rel['class']} of {coll} is not {cls}"
        if not isinstance(rel["extremal"], bool):
            return "extremal flag is not a boolean"
    return None


def check_witness(f_rays, f_cones, g_rays, g_cones, matrix, perm) -> Optional[str]:
    """None if the unimodular matrix maps f's rays and cones onto g's."""
    if matrix is None or perm is None:
        return "no witness"
    if det(matrix) not in (1, -1):
        return f"witness determinant {det(matrix)} is not +-1"
    if sorted(perm) != list(range(len(g_rays))) or len(perm) != len(f_rays):
        return f"ray map {perm} is not a bijection"
    for i, v in enumerate(f_rays):
        image = tuple(dot(row, v) for row in matrix)
        if image != tuple(g_rays[perm[i]]):
            return f"ray {i} maps to {image}, not to ray {perm[i]}"
    mapped = {tuple(sorted(perm[i] for i in c)) for c in f_cones}
    if mapped != {tuple(sorted(c)) for c in g_cones}:
        return "cones do not map onto cones"
    return None


def invalidity(rays, cones) -> Optional[str]:
    """A certificate that the data is not a smooth complete fan, or None if it is."""
    if not rays:
        return "no rays"
    d = len(rays[0])
    n = len(rays)
    for i, v in enumerate(rays):
        if len(v) != d:
            return f"ray {i} has the wrong length"
        g = 0
        for x in v:
            g = gcd(g, x)
        if g != 1:
            return f"ray {i} is {'zero' if g == 0 else 'not primitive'}"
    if len(set(map(tuple, rays))) != n:
        return "duplicate rays"
    if len(set(tuple(sorted(c)) for c in cones)) != len(cones):
        return "duplicate cones"
    for c in cones:
        if len(set(c)) != d or any(not 0 <= i < n for i in c):
            return f"cone {c} does not have {d} distinct valid indices"
    if {i for c in cones for i in c} != set(range(n)):
        return "a ray is in no cone"
    for c in cones:
        if abs(det(columns([rays[i] for i in c]))) != 1:
            return f"cone {c} has |det| != 1"
    for wall, opposite in walls(cones).items():
        if len(opposite) != 2:
            return f"facet {wall} lies in {len(opposite)} cones"
        k, l = opposite
        normal = _hyperplane_normal([rays[t] for t in wall])
        if dot(normal, rays[k]) * dot(normal, rays[l]) >= 0:
            return f"rays {k} and {l} lie on one side of facet {wall}"
    p = generic_point(d)
    covering = 0
    for c in cones:
        coords = [dot(w, p) for w in dual_rows([rays[i] for i in c])]
        if all(x > 0 for x in coords):
            covering += 1
    if covering != 1:
        return f"a generic point lies in {covering} cones"
    return None


def _hyperplane_normal(vectors) -> list[int]:
    """Normal of the span of d-1 vectors in Z^d (generalized cross product)."""
    d = len(vectors[0]) if vectors else 1
    if d == 1:
        return [1]
    return [(-1) ** j * det([[v[c] for c in range(d) if c != j] for v in vectors]) for j in range(d)]


def strict_fan(text: str) -> Optional[str]:
    """Why the text is not a well-typed fan of dimension 1 to 3, or None."""
    try:
        data = json.loads(text)
    except ValueError as exc:
        return f"not JSON: {exc}"
    if not isinstance(data, dict) or set(data) != {"dim", "rays", "max_cones"}:
        return "not a fan object"

    def is_int(x):
        return type(x) is int

    if not is_int(data["dim"]) or data["dim"] not in (1, 2, 3):
        return f"dim {data['dim']!r} is not 1, 2 or 3"
    for key in ("rays", "max_cones"):
        if not isinstance(data[key], list) or not all(
            isinstance(r, list) and all(is_int(x) for x in r) for r in data[key]
        ):
            return f"{key} holds an entry that is not an integer"
    return None


def random_unimodular(rng: random.Random, dim: int, steps: int = 8, bound: int = 6):
    """A GL(d, Z) matrix from seeded elementary moves, entries at most ``bound``."""
    m = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(steps):
        if dim > 1:
            i, j = rng.sample(range(dim), 2)
            c = rng.choice((-2, -1, 1, 2))
            trial = [row[:] for row in m]
            trial[i] = [x + c * y for x, y in zip(trial[i], trial[j])]
            if all(abs(x) <= bound for row in trial for x in row):
                m = trial
        if rng.random() < 0.3:
            i = rng.randrange(dim)
            m[i] = [-x for x in m[i]]
    return m


def signed_permutation(rng: random.Random, dim: int):
    order = list(range(dim))
    rng.shuffle(order)
    return [[rng.choice((-1, 1)) if c == order[r] else 0 for c in range(dim)] for r in range(dim)]


def rebase(rng: random.Random, rays, cones, matrix=None):
    """Apply a seeded unimodular matrix to every ray; indices and cone order stay."""
    if matrix is None:
        matrix = random_unimodular(rng, len(rays[0]))
    return [apply_matrix(matrix, v) for v in rays], [tuple(c) for c in cones]


def product_with_p1(rays, cones):
    n = len(rays)
    new_rays = [tuple(v) + (0,) for v in rays]
    new_rays += [(0,) * len(rays[0]) + (1,), (0,) * len(rays[0]) + (-1,)]
    new_cones = [tuple(c) + (n,) for c in cones] + [tuple(c) + (n + 1,) for c in cones]
    return new_rays, new_cones


def hirzebruch(a: int):
    return [(1, 0), (0, 1), (-1, a), (0, -1)], [(0, 1), (1, 2), (2, 3), (0, 3)]


def blow_up(rays, cones, cone_index: int):
    """Star subdivision of a 2-dimensional cone at the sum of its rays."""
    i, j = cones[cone_index]
    new = len(rays)
    new_rays = list(rays) + [tuple(x + y for x, y in zip(rays[i], rays[j]))]
    new_cones = [c for k, c in enumerate(cones) if k != cone_index] + [(i, new), (j, new)]
    return new_rays, new_cones


# Cyclic ray sequences with consecutive determinant 1 that wind twice around
# the origin: every facet is shared by two cones, yet each generic point lies
# in two cones.
DOUBLE_COVERS = (
    ((1, 0), (0, 1), (-1, 1), (-1, 0), (-1, -1), (2, 1), (3, 2), (-2, -1)),
    ((1, 0), (0, 1), (-1, 0), (-1, -1), (2, 1), (3, 2), (1, 1), (-2, -1)),
    ((1, 0), (0, 1), (-1, -1), (0, -1), (1, 1), (-1, 0), (-3, -1), (-2, -1)),
    ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (2, 3), (1, 2), (-1, -1)),
)


def double_cover(k: int):
    rays = list(DOUBLE_COVERS[k])
    n = len(rays)
    return rays, [tuple(sorted((i, (i + 1) % n))) for i in range(n)]


def fan_json(dim: int, rays, cones) -> str:
    return json.dumps(
        {"dim": dim, "rays": [list(r) for r in rays], "max_cones": [list(c) for c in cones]},
        separators=(",", ":"),
    )


def apply_matrix(matrix, v):
    return tuple(dot(row, v) for row in matrix)
