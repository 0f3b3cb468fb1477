"""Vertex-transitive tournaments of prime order: exact counting, explicit
enumeration with canonical representatives, and cross-validating oracles."""

from .counting import PhiTable, class_count, count_table
from .enumeration import (
    ClassReport,
    SetMask,
    act,
    all_sets,
    burnside_count,
    equivalence_classes,
    invariant_sets,
    unit_multiplier,
)
from .errors import InconsistencyError, SizeLimitError
from .graphs import (
    Digraph,
    cayley_digraph,
    cycle,
    is_tournament,
    k_cube,
    kneser,
    petersen,
    triangle_profile,
    validate_tournament_set,
    wreath_product,
)
from .groups import AbelianGroup, cyclic, divisors, mult_order, units
from .perm import (
    PermGroup,
    automorphisms,
    burnside_orbit_count,
    isomorphic,
    orbits,
)

__version__ = "0.1.0"
