"""Classification of crepant extremal contractions on smooth toric 3-folds.

A degree-0 extremal primitive relation determines a crepant contraction.
The interesting shape is x+ + x- = 2*x0: when the star of x0 consists of
exactly four maximal cones pairing {x+, x-} against two further rays
{y+, y-}, and the whole configuration is unimodularly equivalent to

    x0 = (1,0,0), x+ = (1,1,0), x- = (1,-1,0), y+ = (0,0,1), y- = (0,a,-1)

with 0 <= a <= 2, the contraction collapses the divisor at x0 (a Hirzebruch
surface of degree a) onto a rational curve of anticanonical degree 2. The
detector decides that normal form in one step, from the star of x0 and
the relation of the wall {x0, x+} that ``validate`` keeps, whose two
coefficients are a and -a; the argument is in
``zero_two_normal_form_witness``. The ``small`` shape is told from
``other`` by cross products of the rays, so nothing here solves or inverts.

The weakened verdict and the table of contractions read the crepant
relations (``primitive.crepant_relations``); the verdict stops at the
first contraction that is not ``zero_two``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .fan import Fan, memoised, wall_relations
from .lattice import cross, vdot
from .primitive import PrimitiveRelation, crepant_relations, is_fano, is_weak_fano


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


def zero_two_normal_form_witness(fan: Fan, rel: PrimitiveRelation) -> Optional[int]:
    """The a of the normal form, or None.

    Returns None unless the relation is x+ + x- = 2*x0 and the configuration
    around x0 is unimodularly equivalent to the normal form. Raises
    ``ValueError`` on a fan that does not validate.

    The star of x0 is the normal-form star once it has four cones and two
    side rays. On a valid 3-fan the cones at x0 form a cycle, so x+ and x-
    lie on that 4-cycle, and not next to each other, since {x+, x-} is a
    primitive collection: each cone is x0, one of the pair and one side
    ray, and the four cones take all 2 x 2 choices. A valid 1- or 2-fan has
    at most two cones at x0.

    Name the pair x+-, and the side rays y+-, either way, and in the cone
    (x0, x+, y+) write y- = alpha*x0 + beta*x+ + gamma*y+. On a valid fan
    gamma = -1: |gamma| = 1 because the cone (x0, x+, y-) is unimodular,
    and gamma < 0 because y- lies across the wall {x0, x+} from y+. So
    y+ + y- = alpha*x0 + beta*x+ is the relation of that wall, which
    ``validate`` kept (``wall_relations``), and its degree is
    2 - alpha - beta. The basis change U taking x0, x+, y+ to their normal
    form (1,0,0), (1,1,0), (0,0,1) takes y- to (alpha + beta, beta, -1),
    which must be (0, a, -1); it takes x- = 2*x0 - x+ to (1, -1, 0)
    whatever the fan. Swapping y+ and y- leaves (alpha, beta) unchanged,
    and swapping x+ and x- gives (alpha + 2*beta, -beta), so both walls
    {x0, x+-} have the same degree, and beta >= 0 holds in one order of
    x+-. So the normal form exists exactly when the star has the four-cone
    shape and alpha + beta = 0, that is when the wall has degree 2, and
    then a = |beta| = |alpha|: the witness need not know which of the two
    coefficients the wall lists first belongs to x+.
    """
    walls = wall_relations(fan)
    if len(rel.collection) != 2 or len(rel.coeffs) != 1 or rel.coeffs[0][1] != 2:
        return None
    x0 = rel.coeffs[0][0]
    xp, xm = rel.collection
    star = [cone for cone in fan.max_cones if x0 in cone]
    side_rays = {i for cone in star for i in cone} - {x0, xp, xm}
    if len(star) != 4 or len(side_rays) != 2:
        return None
    alpha, beta = walls[tuple(sorted((x0, xp)))]
    return abs(alpha) if alpha + beta == 0 else None


@memoised
def contraction_shape(fan: Fan, rel: PrimitiveRelation) -> ContractionKind:
    """Shape of the contraction a degree-0 relation on a 3-fold would define.

    The shape depends only on the relation and the cones around it, not on
    extremality. Only an extremal relation actually defines a contraction;
    see ``crepant_contractions``.

    A relation x1 + x2 = y1 + y2 is ``other`` when both y lie in the cone
    on x1 and x2, and ``small`` otherwise. With a = x1, b = x2, n = a x b
    and t = lambda*a + mu*b, a x t = mu*n and t x b = lambda*n, so both y
    lie in cone(a, b) exactly when each has n.t = 0 and mu >= 0: the y sum
    to a + b, so one with lambda < 0 leaves the other at lambda > 1, their
    segment meets the line of b at mu > 0, and the ray b would lie inside
    the fan's cone on y1 and y2. n != 0: the rays are distinct and
    primitive, and b = -a would make the pair sum to 0, a relation with no
    coefficients.
    """
    if fan.dim != 3:
        raise ValueError("contraction classification is specific to 3-folds")
    if rel.degree != 0:
        raise ValueError(f"relation has degree {rel.degree}; only crepant (degree 0) input is accepted")

    # degree = |collection| - sum of coefficients, so at degree 0 a single
    # coefficient of a pair is 2, and any other pair has two coefficients, both 1
    if len(rel.collection) == 2 and len(rel.coeffs) == 1:
        a = zero_two_normal_form_witness(fan, rel)
        if a is None or a > 2:
            return ContractionKind("other")
        return ContractionKind("zero_two", a=a, exceptional_ray=rel.coeffs[0][0])

    if len(rel.collection) == 3 and len(rel.coeffs) == 1:
        return ContractionKind("divisor_to_point")

    if len(rel.collection) == 2:
        a, b = (fan.rays[i] for i in rel.collection)
        n = cross(a, b)
        contained = all(
            vdot(n, t) == 0 and vdot(cross(a, t), n) >= 0
            for t in (fan.rays[i] for i, _ in rel.coeffs)
        )
        return ContractionKind("other") if contained else ContractionKind("small")

    return ContractionKind("other")


def _require_threefold(fan: Fan) -> None:
    if fan.dim != 3:
        raise ValueError("the weakened Fano characterization is specific to 3-folds")


def crepant_contractions(fan: Fan) -> tuple[tuple[PrimitiveRelation, ContractionKind], ...]:
    """The crepant primitive contractions of a weak Fano 3-fold with their shapes.

    These are the crepant relations, in relation order; a fan that is not
    weak Fano has none listed.
    """
    _require_threefold(fan)
    if not is_weak_fano(fan):
        return ()
    return tuple((rel, contraction_shape(fan, rel)) for rel in crepant_relations(fan))


def is_weakened_fano(fan: Fan) -> WeakenedVerdict:
    """Weak Fano, not Fano, and every crepant primitive contraction collapses
    a Hirzebruch divisor onto a curve of image anticanonical degree 2.

    The crepant relations are walked in order, and the walk stops at the
    first contraction of another shape.
    """
    _require_threefold(fan)
    weak = is_weak_fano(fan)
    fano = is_fano(fan)
    weakened = weak and not fano and all(
        contraction_shape(fan, rel).kind == "zero_two" for rel in crepant_relations(fan)
    )
    return WeakenedVerdict(weak, fano, weakened)
