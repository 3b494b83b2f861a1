"""Classification of crepant extremal contractions on smooth toric 3-folds.

A crepant relation, an extremal degree-0 relation of a weak Fano 3-fold,
determines a crepant contraction. ``primitive.crepant_relations`` reads
them off the degree-0 wall classes that ``validate`` keeps, and grows no
primitive relation, so the verdict and the table here read the wall
table only. Reid (1983) reads the contraction off the relation: its
exceptional locus is the intersection of the divisors of the relation's
cone, fibred in projective spaces of one dimension less than the
collection has rays. So
the shape is a read of the relation's shape (``_shape``). The interesting
one is x+ + x- = 2*x0: when the configuration around x0 is unimodularly
equivalent to

    x0 = (1,0,0), x+ = (1,1,0), x- = (1,-1,0), y+ = (0,0,1), y- = (0,a,-1)

the contraction collapses the divisor at x0 (a Hirzebruch surface of
degree a, and a <= 2 on a weak Fano fan) onto a rational curve of
anticanonical degree 2. The detector decides that normal form from the
relation of the wall {x0, x+} that ``validate`` keeps, whose two
coefficients are a and -a; the argument is in
``zero_two_normal_form_witness``. Nothing here scans a star, solves or
inverts.

The weakened verdict and the table of contractions read the crepant
relations; the verdict stops at the first contraction that is not
``zero_two``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .fan import Fan, wall_relations
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
    """The a of the normal form of a crepant x+ + x- = 2*x0, or None.

    Returns None unless the configuration around x0 is unimodularly
    equivalent to the normal form. Raises ``ValueError`` on a fan that does
    not validate. Its one caller, ``_shape``, passes only crepant relations
    of this shape.

    The exceptional locus of the contraction is D_x0, which maps onto a
    curve with every fibre a P1 (Reid 1983), so D_x0 is a Hirzebruch
    surface F_a and the star of x0 has four cones. The two invariant
    fibres are wall curves whose class spans the extremal ray. A wall class
    and the relation's class are both primitive, so they are equal, and
    the rays off each of those walls {x0, y} are x+ and x-. So the star is
    the four cones (x0, x+-, y+-), and {x0, x+-} are walls.

    Name the side rays y+- either way, and in the cone (x0, x+, y+) write
    y- = alpha*x0 + beta*x+ + gamma*y+. On a valid fan gamma = -1:
    |gamma| = 1 because the cone (x0, x+, y-) is unimodular, and gamma < 0
    because y- lies across the wall {x0, x+} from y+. So
    y+ + y- = alpha*x0 + beta*x+ is the relation of that wall, which
    ``validate`` kept (``wall_relations``), and its degree is
    2 - alpha - beta. The basis change U taking x0, x+, y+ to their normal
    form (1,0,0), (1,1,0), (0,0,1) takes y- to (alpha + beta, beta, -1),
    which must be (0, a, -1); it takes x- = 2*x0 - x+ to (1, -1, 0)
    whatever the fan. Swapping y+ and y- leaves (alpha, beta) unchanged,
    and swapping x+ and x- gives (alpha + 2*beta, -beta), so both walls
    {x0, x+-} have the same degree, and beta >= 0 holds in one order of
    x+-. So the normal form exists exactly when alpha + beta = 0, that is
    when the wall has degree 2, and then a = |beta| = |alpha|: the witness
    need not know which of the two coefficients the wall lists first
    belongs to x+.
    """
    x0 = rel.coeffs[0][0]
    alpha, beta = wall_relations(fan)[tuple(sorted((x0, rel.collection[0])))]
    return abs(alpha) if alpha + beta == 0 else None


def _shape(fan: Fan, rel: PrimitiveRelation) -> ContractionKind:
    """Shape of the contraction of a crepant relation (``crepant_relations``)
    on a weak Fano 3-fold.

    Reid (1983): the contraction of an extremal relation
    x1 + ... + xk = sum a_j y_j over h rays y has the exceptional locus
    V(y1, ..., yh), of dimension 3 - h, and it fibres that locus in copies
    of P^(k-1), so 3 - h >= k - 1. At degree 0 the a_j sum to k, so h >= 1.
    Hence k = 4 never occurs, and a collection of 3 rays has h = 1 and
    a_1 = 3: the divisor D_y1 goes to a point. A collection of 2 rays with
    two coefficients, x1 + x2 = y1 + y2, has the curve V(y1, y2) as its
    locus, and the curve goes to a point: the contraction is small. What is
    left is x+ + x- = 2*x0, whose normal form the witness decides.

    The witness's a is at most 2, because both callers ask a shape only of
    a weak Fano fan. Let phi be linear on each maximal cone and 1 on its
    rays, so that phi(u) is the sum of u's coordinates in a cone that holds
    it: an integer >= 1 at every lattice point u != 0. Across a wall with
    c + d = sum alpha_t a_t, the linear function of c's cone takes the value
    sum alpha_t - 1 at d, which is at most phi(d) = 1 as the wall's degree
    is >= 0. So phi is convex
    across every wall, hence along every line that crosses the cones
    through walls, hence everywhere by continuity; being homogeneous, it is
    subadditive. When alpha + beta = 0 the wall {x0, x+} has
    y+ + y- = beta*(x+ - x0), and a = |beta|. So a*phi(u) = phi(y+ + y-)
    <= phi(y+) + phi(y-) = 2 for u = +-(x+ - x0), a lattice point other
    than 0, and a <= 2.
    """
    if len(rel.collection) == 3:
        return ContractionKind("divisor_to_point")
    if len(rel.coeffs) == 2:
        return ContractionKind("small")
    a = zero_two_normal_form_witness(fan, rel)
    if a is None:
        return ContractionKind("other")
    return ContractionKind("zero_two", a=a, exceptional_ray=rel.coeffs[0][0])


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
    return tuple((rel, _shape(fan, rel)) for rel in crepant_relations(fan))


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
        _shape(fan, rel).kind == "zero_two" for rel in crepant_relations(fan)
    )
    return WeakenedVerdict(weak, fano, weakened)
