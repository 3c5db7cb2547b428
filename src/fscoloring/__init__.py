"""Recursive colorings of positive integers that defeat finite-sums sets.

The library builds colorings of the positive integers from "request"
functions on dyadic blocks, realizes two limit-approximation priority
constructions on fixture families given as checked data, and ships the
witness harness that re-verifies every claimed kill from scratch.
"""

from types import ModuleType as _ModuleType

from .dyadic import (
    apart,
    block,
    finite_sums,
    has_apartness,
    has_weak_apartness,
    low_bit,
    measures,
    top_bit,
)
from .errors import (
    FixtureError,
    GuardError,
    VerificationError,
    WitnessSearchError,
)
from .families import (
    Delta3Family,
    MonotoneFamily,
    SetSpec,
    delta3_catalog,
    monotone_catalog,
)
from .treecolor import (
    BlockTree,
    RequestFunction,
    TriRequestFunction,
    color_mod,
    color_mod_bfs,
    color_parity,
    default_request,
    extend_request,
    lift_tri,
    popcount_coloring,
    random_request,
    signed_count,
    tree_edges,
)
from .apartness import (
    ExtractionCertificate,
    extract_apart,
    extract_progression,
    low_bit_parity,
    product,
    top_bit_parity,
    weak_apartness_killer,
)

__version__ = "0.1.0"

__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
