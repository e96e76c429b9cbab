"""Exact combinatorics for set families over a small ground set.

Families are collections of subsets of {1..n} held as bitmasks. The
package checks union-closure, filterhood, the half-element property, and
the average-size bound; verifies and searches interval certificates (a
filter image per member with pairwise disjoint cube intervals); and
enumerates the structured counterexample families where the certificate
condition holds while no element reaches half the members.
"""

from .certificates import (
    DECISION_CAP,
    Certificate,
    CertificateVerdict,
    find_certificate,
    intervals_disjoint,
    verify_certificate,
)
from .family import (
    MAX_GROUND,
    Family,
    FamilyFormatError,
    FilterVerdict,
    FranklVerdict,
    ReimerVerdict,
    ResourceLimitError,
    UnionClosureVerdict,
    elements_of,
    format_set,
    frankl_check,
    frequency_vector,
    full_mask,
    is_filter,
    is_union_closed,
    iter_supersets,
    mask_from_elements,
    reimer_bound_holds,
)

# The search module loads on first use of one of its names (PEP 562), so
# the commands that never search (check, certify) do not compile it. The
# names above are bound eagerly, so only the search names in __all__ get
# here.
def __getattr__(name: str) -> object:
    if name in __all__:
        from . import search

        return getattr(search, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "MAX_GROUND",
    "DECISION_CAP",
    "SEARCH_CAP",
    "CANONICAL_CAP",
    "ENUMERATION_CAP",
    "Family",
    "FamilyFormatError",
    "ResourceLimitError",
    "UnionClosureVerdict",
    "FilterVerdict",
    "FranklVerdict",
    "ReimerVerdict",
    "Certificate",
    "CertificateVerdict",
    "SearchShape",
    "SweepSummary",
    "CounterexampleReport",
    "full_mask",
    "mask_from_elements",
    "elements_of",
    "format_set",
    "iter_supersets",
    "is_union_closed",
    "is_filter",
    "frequency_vector",
    "frankl_check",
    "reimer_bound_holds",
    "intervals_disjoint",
    "verify_certificate",
    "find_certificate",
    "degree_budget_feasible",
    "min_even_ground_size",
    "search_counterexamples",
    "minimal_counterexample",
    "conjecture_sweep",
]
