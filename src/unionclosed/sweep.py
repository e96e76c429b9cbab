"""The exhaustive small-ground sweep: every family over {1..n} that admits
an interval certificate, with the half-element verdict on each.

The sweep runs in one process and goes filter by filter instead of
deciding each of the 2**(2**n) families: it builds every nonempty filter
over [n] as its code from the up-sets over one element fewer and holds
one list of partial placements, one member below each image so far with
pairwise disjoint intervals. The list grows image by image, smallest
image first, and each placement the last image completes marks the
family it builds. A member whose interval holds another image of the
filter is never a candidate, and that cut alone decides the full set's
member, so the last level marks families in a flat loop with no clash
test. The marked families are exactly those that admit a certificate.
Each family is handled as its code, the 2**n-bit int with bit a set for
each member a, and the half-element verdict is taken on that code; only
violations become Family objects.
"""

from __future__ import annotations

from itertools import compress
from typing import NamedTuple

from .certificates import _cubes
from .family import Family, ResourceLimitError, _check_ground

# The sweep marks families in a 2**(2**n)-byte array: 64 KB at 4, 4 GB at 5.
ENUMERATION_CAP = 4


class SweepSummary(NamedTuple):
    ground_size: int
    scanned: int
    certified: int
    violations: tuple[Family, ...]


def _filters(n: int) -> list[int]:
    """Every nonempty filter over {1..n} as its code, bit f set for each
    image f.

    An up-set over {1..k+1} splits into the sets without k+1 and those
    with it, k+1 removed: up-sets a within b over {1..k}, and its code is
    a | b << 2**k. Over the empty ground the up-sets are 0 and {{}}.
    """
    codes = [0, 1]
    for k in range(n):
        codes = [a | b << (1 << k) for b in codes for a in codes if a & b == a]
    return codes[1:]  # the empty up-set is first


def _certified_codes(n: int) -> bytearray:
    """Mark every family over {1..n} that some filter certifies, filter by
    filter.

    Each filter comes as its code, held, whose set bits are its images.
    The partial placements of a filter are one list of pairs (code,
    covered): bit a of code is set for each member a placed so far, and
    covered is the union of their intervals. The list starts as the empty
    placement and is extended one image f at a time: each placement by
    each candidate a below f whose interval [a, f] misses covered.
    Intervals are the lattice bitmasks over the 2**n subsets from
    certificates._cubes, the format find_certificate decides on, so held
    is also the image set that an interval is tested against. The images
    are placed in ascending mask order: small images have few members
    below them, so placing them first keeps the early lists short.

    Each filter first drops every candidate a whose interval [a, f] holds
    another image g: [a, f] would meet [b, g] at g whatever b is, so no
    completed placement uses a (the dual of find_certificate's cut on
    images whose cube holds another member). For the last image, the full
    set, the cut is exact: [a, [n]] meets [b, g] iff a lies within g,
    whatever b is. So every surviving full-set candidate fits every
    placement of the other images, and the last level is a flat loop
    with no clash test that marks each family directly: marks[code | bit]
    is 1 for each placement of the other images and each full-set
    candidate's bit.
    """
    size = 1 << n
    up, down = _cubes(n)
    # below[f] pairs the bit of every a within f with the interval [a, f]
    below = [
        [(1 << a, up[a] & down[f]) for a in range(size) if a | f == f] for f in range(size)
    ]
    marks = bytearray(1 << size)
    for held in _filters(n):
        *lists, top = [
            [c for c in below[f] if c[1] & held == 1 << f]
            for f in range(size)
            if held >> f & 1
        ]
        placed = [(0, 0)]
        for cands in lists:
            placed = [(code | bit, covered | iv) for code, covered in placed
                      for bit, iv in cands if not iv & covered]
        for code, _ in placed:
            for bit, _ in top:
                marks[code | bit] = 1
    return marks


def _violations(n: int, marks: bytearray) -> tuple[Family, ...]:
    """The marked families over {1..n} in which no element reaches half
    the members, sorted by member masks.

    The verdict is frankl_check's predicate taken on the family code:
    holds[e], the up-set of {e} from certificates._cubes, has bit a set
    for each subset a holding element e, so
    (code & holds[e]).bit_count() is e's frequency and code.bit_count()
    the family size. Only violations become Family objects. marks must
    not mark code 0 or 1 (the empty family and the bare {{}}), which
    carry no element to count.
    """
    space = 1 << n
    up, _ = _cubes(n)
    holds = [up[1 << e] for e in range(n)]
    bad = []
    for code in compress(range(len(marks)), marks):
        size = code.bit_count()
        for h in holds:
            if 2 * (code & h).bit_count() >= size:
                break
        else:
            bad.append(tuple(a for a in range(space) if code >> a & 1))
    return tuple(Family(n, members) for members in sorted(bad))


def conjecture_sweep(n: int) -> SweepSummary:
    """Find every family over {1..n} that admits a certificate, and check
    the half-element property on each.

    Families are built from the filters rather than decided one by one:
    each nonempty filter contributes every family that pairs onto it with
    pairwise disjoint intervals. The verdict is taken on each family's
    code (see _violations), so only violations become Family objects.
    The empty family and the bare {{}} are not counted (neither carries
    an element to count), so scanned is all 2**(2**n) families less
    those two. An empty violation list is an exhaustive verification for
    this ground size.
    """
    if _check_ground(n, 1) > ENUMERATION_CAP:
        raise ResourceLimitError(
            f"exhaustive sweep is supported only up to ground size {ENUMERATION_CAP}"
        )
    marks = _certified_codes(n)
    marks[1] = 0  # the bare {{}}
    return SweepSummary(n, (1 << (1 << n)) - 2, sum(marks), _violations(n, marks))
