"""Classification of crepant extremal contractions on smooth toric 3-folds.

A degree-0 extremal primitive relation determines a crepant contraction.
The interesting shape is x+ + x- = 2*x0: when the star of x0 consists of
exactly four maximal cones pairing {x+, x-} against two further rays
{y+, y-}, and the whole configuration is unimodularly equivalent to

    x0 = (1,0,0), x+ = (1,1,0), x- = (1,-1,0), y+ = (0,0,1), y- = (0,a,-1)

with 0 <= a <= 2, the contraction collapses the divisor at x0 (a Hirzebruch
surface of degree a) onto a rational curve of anticanonical degree 2. The
detector reconstructs the witness basis change directly: it pins the star
of x0 to the four normal-form cones by counting its cones and rays (their
quotient by x0 is the fan of F_a), and it pins the anticanonical degree
of the image curve to exactly 2. Each candidate is tested on the
coordinates of y- in the cone (x0, x+, y+), read from the cone inverse
(``maximal_cone_normals``); x- needs no test, because the relation fixes its
coordinates. The basis change U is built once, for the witness returned.

The weakened verdict reads the shape of each degree-0 relation before its
extremality, and the table of contractions is computed only when asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .fan import Fan, cone_contains, maximal_cone_normals, memoised, star
from .lattice import Matrix, invert_unimodular, matmul, matvec
from .primitive import (
    PrimitiveRelation,
    is_extremal,
    is_fano,
    is_weak_fano,
    primitive_collections,
)

_NORMAL_FORM_BASIS: Matrix = ((1, 1, 0), (0, 1, 0), (0, 0, 1))  # columns x0, x+, y+


@dataclass(frozen=True)
class ContractionKind:
    """Tagged classification of a crepant extremal contraction."""

    kind: str  # "zero_two" | "divisor_to_point" | "small" | "other"
    a: Optional[int] = None
    exceptional_ray: Optional[int] = None

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "zero_two":
            out["a"] = self.a
            out["exceptional_ray"] = self.exceptional_ray
        return out


@dataclass(frozen=True)
class WeakenedVerdict:
    is_weak_fano: bool
    is_fano: bool
    is_weakened: bool

    def to_dict(self) -> dict:
        return {
            "is_weak_fano": self.is_weak_fano,
            "is_fano": self.is_fano,
            "is_weakened": self.is_weakened,
        }


def zero_two_normal_form_witness(
    fan: Fan, rel: PrimitiveRelation
) -> Optional[tuple[Matrix, tuple[int, int, int, int, int], int]]:
    """Witness (U, (x0, x+, x-, y+, y-), a) mapping the configuration onto its normal form.

    Returns None unless the relation is x+ + x- = 2*x0 and the fan around x0
    matches the four-cone shape exactly, including the crepancy constraint
    U*y- = (0, a, -1). Raises ``ValueError`` on a fan that does not validate.

    The star of x0 is the normal-form star once it has four cones, each
    holding exactly one of {x+, x-}, and two side rays: each cone is then x0
    plus one of the pair plus one side ray, and the four distinct cones take
    all 2 x 2 choices.

    U = N * B^-1, with B the columns x0, x+, y+ and N the same columns in
    normal form, so U*y- = (alpha + beta, beta, gamma) for the coordinates
    (alpha, beta, gamma) of y- along x0, x+, y+: the rows of the cone inverse
    (``maximal_cone_normals``) applied to y-. On a valid fan gamma = -1:
    |gamma| = 1 because the cone (x0, x+, y-) is unimodular, and gamma < 0
    because y- lies across the wall (x0, x+) from y+. The relation fixes the
    coordinates of x- at (2, -1, 0), which U maps to (1, -1, 0), so x- needs
    no test either. U itself is built once, for the witness returned.
    """
    inverses = maximal_cone_normals(fan)
    if fan.dim != 3:
        return None
    if len(rel.collection) != 2 or len(rel.coeffs) != 1 or rel.coeffs[0][1] != 2:
        return None
    x0 = rel.coeffs[0][0]
    pair = rel.collection
    star_cones = star(fan, x0)
    # every maximal cone at x0 must use exactly one of the two collapsing rays
    for cone in star_cones:
        if len(set(cone) & set(pair)) != 1:
            return None
    side_rays = sorted({i for cone in star_cones for i in cone} - {x0} - set(pair))
    if len(side_rays) != 2 or len(star_cones) != 4:
        return None
    for xp, xm in (pair, pair[::-1]):
        for yp, ym in (tuple(side_rays), tuple(side_rays[::-1])):
            cone = tuple(sorted((x0, xp, yp)))
            coords = dict(zip(cone, matvec(inverses[fan.max_cones.index(cone)], fan.rays[ym])))
            beta = coords[xp]
            if coords[x0] + beta != 0 or beta < 0:
                continue
            u = matmul(_NORMAL_FORM_BASIS, invert_unimodular(fan.cone_columns((x0, xp, yp))))
            return u, (x0, xp, xm, yp, ym), beta
    return None


@memoised
def contraction_shape(fan: Fan, rel: PrimitiveRelation) -> ContractionKind:
    """Shape of the contraction a degree-0 relation on a 3-fold would define.

    The shape depends only on the relation and the cones around it, not on
    extremality, so the verdict can look at it before running any LP. Only
    an extremal relation actually defines a contraction; see
    ``crepant_contractions``.
    """
    if fan.dim != 3:
        raise ValueError("contraction classification is specific to 3-folds")
    if rel.degree != 0:
        raise ValueError(f"relation has degree {rel.degree}; only crepant (degree 0) input is accepted")

    # degree = |collection| - sum of coefficients, so at degree 0 a single
    # coefficient of a pair is 2 and two coefficients of a pair are both 1
    if len(rel.collection) == 2 and len(rel.coeffs) == 1:
        witness = zero_two_normal_form_witness(fan, rel)
        if witness is None:
            return ContractionKind("other")
        _, names, a = witness
        if a > 2:
            return ContractionKind("other")
        return ContractionKind("zero_two", a=a, exceptional_ray=names[0])

    if len(rel.collection) == 3 and len(rel.coeffs) == 1:
        return ContractionKind("divisor_to_point")

    if len(rel.collection) == 2 and len(rel.coeffs) == 2:
        targets = [i for i, _ in rel.coeffs]
        contained = all(
            cone_contains(fan, rel.collection, fan.rays[t]) for t in targets
        )
        return ContractionKind("other") if contained else ContractionKind("small")

    return ContractionKind("other")


def _require_threefold(fan: Fan) -> None:
    if fan.dim != 3:
        raise ValueError("the weakened Fano characterization is specific to 3-folds")


@memoised
def crepant_contractions(fan: Fan) -> tuple[tuple[PrimitiveRelation, ContractionKind], ...]:
    """The crepant primitive contractions of a weak Fano 3-fold with their shapes.

    These are the extremal degree-0 relations, in relation order; a fan that
    is not weak Fano has none listed. The verdict does not need this table.
    """
    _require_threefold(fan)
    if not is_weak_fano(fan):
        return ()
    return tuple(
        (rel, contraction_shape(fan, rel))
        for rel in primitive_collections(fan)
        if rel.degree == 0 and is_extremal(fan, rel)
    )


@memoised
def is_weakened_fano(fan: Fan) -> WeakenedVerdict:
    """Weak Fano, not Fano, and every crepant primitive contraction collapses
    a Hirzebruch divisor onto a curve of image anticanonical degree 2.

    Decided shape first: a degree-0 relation of shape ``zero_two`` cannot
    falsify the verdict whether or not it is extremal, so extremality is
    asked only of the other degree-0 relations, and the first extremal one
    ends the search.
    """
    _require_threefold(fan)
    weak = is_weak_fano(fan)
    fano = is_fano(fan)
    weakened = (
        weak
        and not fano
        and not any(
            rel.degree == 0
            and contraction_shape(fan, rel).kind != "zero_two"
            and is_extremal(fan, rel)
            for rel in primitive_collections(fan)
        )
    )
    return WeakenedVerdict(weak, fano, weakened)
