"""Recursive colorings of positive integers that defeat finite-sums sets.

The library builds colorings of the positive integers from "request"
functions on dyadic blocks, realizes two limit-approximation priority
constructions on pluggable fixture families, and ships the witness
harness that re-verifies every claimed kill from scratch.
"""

from types import ModuleType as _ModuleType

from .dyadic import (
    apart,
    block,
    block_upto,
    finite_sums,
    from_bits,
    has_apartness,
    has_weak_apartness,
    iter_block,
    low_bit,
    measures,
    top_bit,
)
from .errors import (
    FixtureError,
    GuardError,
    MissingOracleError,
    VerificationError,
    WitnessSearchError,
)
from .families import (
    Delta3Family,
    MonotoneFamily,
    MonotoneSchedule,
    SetSpec,
    delayed_delta3,
    delta3_catalog,
    instant_delta3,
    monotone_catalog,
    monotone_from_sets,
    validate_family,
)
from .treecolor import (
    BlockTree,
    RequestFunction,
    TriRequestFunction,
    bridge,
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
