"""Exact-arithmetic toolkit for smooth complete toric varieties given as fans:
primitive collections and relations, Fano-type predicates, crepant contraction
classification, anticanonical degrees, fan isomorphism, and the enumeration of
the 16 smooth toric weak del Pezzo surfaces and 15 toric weakened Fano 3-folds.
"""

from .fan import (
    Fan,
    ValidationReport,
    build_bundle,
    fan_from_json,
    fan_from_rays_2d,
    validate,
)
from .lattice import is_primitive
from .primitive import (
    PrimitiveRelation,
    is_extremal,
    is_fano,
    is_weak_fano,
    picard_rank,
    primitive_collections,
)
from .contraction import (
    ContractionKind,
    WeakenedVerdict,
    crepant_contractions,
    is_weakened_fano,
)
from .polytope import anticanonical_degree
from .isomorphism import FanIso, canonical_key, find_isomorphism
from .catalog import NamedFan, all_named, named_fan, surfaces, threefolds
from .classify import (
    ClassificationReport,
    enumerate_weak_del_pezzo,
    enumerate_weakened_threefolds,
    verify_classification,
)

__version__ = "0.1.0"

__all__ = [
    "ClassificationReport",
    "ContractionKind",
    "Fan",
    "FanIso",
    "NamedFan",
    "PrimitiveRelation",
    "ValidationReport",
    "WeakenedVerdict",
    "all_named",
    "anticanonical_degree",
    "build_bundle",
    "canonical_key",
    "crepant_contractions",
    "enumerate_weak_del_pezzo",
    "enumerate_weakened_threefolds",
    "fan_from_json",
    "fan_from_rays_2d",
    "find_isomorphism",
    "is_extremal",
    "is_fano",
    "is_primitive",
    "is_weak_fano",
    "is_weakened_fano",
    "named_fan",
    "picard_rank",
    "primitive_collections",
    "surfaces",
    "threefolds",
    "validate",
    "verify_classification",
]
