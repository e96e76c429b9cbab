"""Structured search for families that carry an interval certificate while
no element reaches half the members, plus the degree budget behind the
ground-size lower bound. The exhaustive small-ground sweep lives in
sweep.py, which the search does not load.

The searched families have a fixed skeleton: the full set, the co-atoms
and chosen pair complements as images, in the order _skeleton_images
states. The backtrack over it lives in skeleton.py, which only search
loads. It yields each solution found at an orbit representative, a
member tuple aligned with the images, with one relabeling table per
unit of its orbit. Here each solution's (member, image) pairs are
pushed through every table and held only as flat sort keys, one bytes
object per relabeled solution; each report is built from its key, which
re-runs the full verification, only when the caller reaches it. A shape
whose keys would outgrow a fixed budget, or the memory left, is refused
before any report is built. The demo family goes through the same builder.
Canonical dedup filters that same stream: it keys each representative's
solution once, keeps the least flat key of each orbit and lists those
reports.
"""

from __future__ import annotations

from itertools import chain, compress, permutations, product
from typing import Iterator

from .certificates import Certificate, verify_certificate
from .family import (
    Family,
    FamilyFormatError,
    ResourceLimitError,
    _check_ground,
    _Record,
    frequency_vector,
    mask_from_elements,
)
# The held sort keys, not the backtrack, bound the search: at 10 the orbit
# backtrack yields all 38,486,400 families of 1,2:3,4 in about 22 s, but
# their packed keys would hold about 3.7 GB and their reports take 15-28
# minutes. SEARCH_CAP bounds the 2**n tables; _KEY_CAP refuses a shape once
# its solutions pass what the keys can hold.
SEARCH_CAP = 10
# One packed key of 13 members takes about 96 B with its list slot (a tuple
# of ints took about 260 B), so the budget stops near 0.4 GB of keys, down
# from 1.1 GB.
_KEY_CAP = 1 << 22
# Canonical dedup tries every relabeling that keeps each element inside its
# invariant cell; when all elements share one cell that is all n! of them.
CANONICAL_CAP = 8


def degree_budget_feasible(n: int) -> bool:
    """Can the per-element degree caps cover the forced edge total?

    With two pair members on an even ground of size n, the containment
    digraph needs out-degree sum at least (n*n - n)/2 + 2 while the two
    elements carrying the pair members are capped at n/2 - 1 and the rest
    at n/2. Odd ground sizes and those below 2 are refused.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 2 or n % 2:
        raise ValueError("only even ground sizes n >= 2 are supported")
    half = n // 2
    return 2 * (half - 1) + (n - 2) * half >= (n * n - n) // 2 + 2


def min_even_ground_size() -> int:
    """Smallest even ground size whose two-pair degree budget is feasible."""
    n = 2
    while not degree_budget_feasible(n):
        n += 2
    return n


class SearchShape(_Record):
    """Which pair complements [n] - {i, j} join the co-atoms in the filter."""

    __slots__ = ("ground_size", "missing_pairs")
    ground_size: int
    missing_pairs: tuple[tuple[int, int], ...]

    def __init__(
        self, ground_size: int, missing_pairs: tuple[tuple[int, int], ...] = ()
    ) -> None:
        object.__setattr__(self, "ground_size", ground_size)
        object.__setattr__(self, "missing_pairs", missing_pairs)
        self.__post_init__()

    def __post_init__(self) -> None:
        n = _check_ground(self.ground_size, 1)
        norm = []
        for pair in self.missing_pairs:
            try:
                i, j = pair
                mask_from_elements((i, j), n)
            except (TypeError, ValueError):
                raise FamilyFormatError(
                    f"pair {pair!r} is not two distinct elements of 1..{n}"
                ) from None
            norm.append((min(i, j), max(i, j)))
        pairs = tuple(sorted(norm))
        for a, b in zip(pairs, pairs[1:]):
            if a == b:
                raise FamilyFormatError(f"pair {a!r} repeated")
        object.__setattr__(self, "missing_pairs", pairs)

    def to_dict(self) -> dict:
        return {
            "ground": self.ground_size,
            "pairs": [list(p) for p in self.missing_pairs],
        }


class CounterexampleReport(_Record):
    """A fully verified find: valid certificate, every element under half.

    Construction derives the frequencies and re-runs the whole
    verification, so a report object is itself the proof that the search
    result is real.
    """

    __slots__ = ("family", "certificate", "frequency", "max_frequency")
    family: Family
    certificate: Certificate
    frequency: tuple[int, ...]  # derived
    max_frequency: int  # derived

    def __init__(self, family: Family, certificate: Certificate) -> None:
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "certificate", certificate)
        self.__post_init__()

    def __post_init__(self) -> None:
        freq = frequency_vector(self.family)
        object.__setattr__(self, "frequency", freq)
        object.__setattr__(self, "max_frequency", max(freq, default=0))
        if 2 * self.max_frequency >= len(self.family):
            raise ValueError("not a counterexample: an element reaches half the members")
        verdict = verify_certificate(self.family, self.certificate)
        if not verdict:
            raise ValueError(f"certificate does not verify: {verdict.clause}")

    def __reduce__(self) -> tuple:
        # A copy is verified again, like any other report.
        return CounterexampleReport, (self.family, self.certificate)

    def to_dict(self) -> dict:
        return {
            "family": self.family.to_dict(),
            "certificate": self.certificate.to_dict(),
            "frequency": list(self.frequency),
            "max_frequency": self.max_frequency,
        }


# The eleven members, one per line, with the image each one is paired to.
_MINIMAL_MEMBERS = (
    (1, 2, 3, 4, 5, 6, 7, 8),  # image: the full set
    (2, 4, 6, 7, 8),  # image misses 1
    (1, 3, 5, 8),  # image misses 2
    (1, 4, 7, 8),  # image misses 3
    (2, 3, 5, 6),  # image misses 4
    (1, 3, 7),  # image misses 5
    (2, 3, 5),  # image misses 6
    (2, 4, 6),  # image misses 7
    (4, 5, 6, 7),  # image misses 8
    (8,),  # image misses 1 and 2
    (1,),  # image misses 3 and 4
)


def minimal_counterexample() -> CounterexampleReport:
    """The known eleven-member family over {1..8}.

    Every element sits in exactly 5 of the 11 members, one short of half,
    while the canonical pairing onto the filter of the full set, the
    eight co-atoms, and the complements of {1,2} and {3,4} has pairwise
    disjoint intervals. Construction re-verifies all of that.
    """
    members = tuple(mask_from_elements(s, 8) for s in _MINIMAL_MEMBERS)
    return _skeleton_report(8, members, _skeleton_images(8, ((1, 2), (3, 4))))


def _skeleton_images(n: int, missing: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """The skeleton's images over {1..n} as masks: the full set, then the
    co-atoms [n] - {v} for v = 1..n, then [n] - p for each missing pair p."""
    full = (1 << n) - 1
    return (
        full,
        *[full ^ (1 << v) for v in range(n)],
        *[full ^ mask_from_elements(p, n) for p in missing],
    )


def _skeleton_report(
    n: int, members: tuple[int, ...], images: tuple[int, ...]
) -> CounterexampleReport:
    """Pair each member with the skeleton image at its position. A report of
    the program's own that fails re-verification is a fault: RuntimeError."""
    try:
        return CounterexampleReport(Family(n, members), Certificate(n, tuple(zip(members, images))))
    except ValueError as exc:
        raise RuntimeError(f"a skeleton report failed re-verification: {exc}") from exc


def _canonical_key(members: tuple[int, ...], n: int) -> tuple[int, ...]:
    """A complete relabeling invariant: equal keys iff the families are
    relabelings of each other.

    Elements are split into cells by a signature that relabeling cannot
    change (the sorted sizes of the members holding the element, then its
    sorted co-occurrence counts with every other element), and the cells
    take consecutive blocks of positions in signature order. The key is
    the least sorted member tuple over the relabelings that send each cell
    onto its own block. Every such relabeling of a relabeled family is a
    cell-respecting relabeling of the original, so both reach the same
    least tuple.
    """
    cells: dict[tuple, list[int]] = {}
    for e in range(n):
        holding = [m for m in members if m >> e & 1]
        signature = (
            tuple(sorted(m.bit_count() for m in holding)),
            tuple(sorted(sum(m >> f & 1 for m in holding) for f in range(n) if f != e)),
        )
        cells.setdefault(signature, []).append(e)
    blocks = [permutations(cells[sig]) for sig in sorted(cells)]
    # order[pos] is the element that moves to position pos
    orders = (tuple(chain.from_iterable(a)) for a in product(*blocks))
    return min(
        tuple(
            sorted(
                sum(1 << pos for pos, e in enumerate(order) if m >> e & 1)
                for m in members
            )
        )
        for order in orders
    )


def search_counterexamples(
    shape: SearchShape, *, canonical: bool = False
) -> list[CounterexampleReport]:
    """Exhaustively enumerate counterexample families of the given shape.

    Every returned report passed the full certificate verification and
    has every element in fewer than half the members. The list is sorted
    by member masks (then images); the enumeration always completes and
    an empty result is a proof that the shape admits nothing. canonical
    keeps one representative per relabeling orbit, the first in order.
    """
    return list(_search_reports(shape, canonical=canonical)[2])


def _search_reports(
    shape: SearchShape, *, canonical: bool
) -> tuple[int, int, Iterator[CounterexampleReport]]:
    """How many reports search_counterexamples lists, how many the iterator
    builds, and the iterator, which builds, and so verifies, every
    solution's report when it is reached and yields the listed ones.

    The backtrack is read once and only one flat key per solution is
    held: its members sorted, then the images in member order, packed by
    skeleton._key_struct into one bytes object. A table that relabels a
    representative's (member, image) pairs gives another solution's
    pairs, which sort to its key whatever order the images took. Every
    key of a shape has the same length and fixed-width big-endian fields,
    so the keys sort as their reports' (family.members,
    certificate.pairs); each is unpacked again when its report is built.
    canonical keys each representative's solution once, in the same pass,
    keeps the least flat key of each orbit and lists only those reports;
    the others are built all the same. Past _KEY_CAP solutions, or when
    the keys or their sort run out of memory, the search is refused with
    ResourceLimitError, before any report is built.
    """
    n = shape.ground_size
    if n > SEARCH_CAP:
        raise ResourceLimitError(
            f"structured search is exhaustive only up to ground size {SEARCH_CAP}"
        )
    if canonical and n > CANONICAL_CAP:
        raise ResourceLimitError(
            f"canonical dedup is supported only up to ground size {CANONICAL_CAP}"
        )
    from .skeleton import _key_struct, _search_solutions

    images = _skeleton_images(n, shape.missing_pairs)
    m = len(images)
    packer = _key_struct(n, m)
    pack = packer.pack
    keys, least = [], {}
    try:
        for sol, tables in _search_solutions(n, shape.missing_pairs):
            pairs = list(zip(sol, images))
            for t in tables:
                members, targets = zip(*sorted([(t[a], t[f]) for a, f in pairs]))
                keys.append(pack(*members, *targets))
            if canonical:
                orbit, first = _canonical_key(sol, n), min(keys[-len(tables):])
                least[orbit] = min(least.get(orbit, first), first)
            if len(keys) > _KEY_CAP:
                raise ResourceLimitError(
                    f"structured search holds at most {_KEY_CAP} solutions; this shape has more"
                )
        keys.sort()
    except MemoryError:
        keys.clear()
        raise ResourceLimitError("structured search ran out of memory for its solutions") from None
    built = (_skeleton_report(n, key[:m], key[m:]) for key in map(packer.unpack, keys))
    if not canonical:
        return len(keys), len(keys), built
    # compress drops an unlisted report at once, so at most the one the
    # caller holds and the one being built are alive
    listed = set(least.values())
    return len(listed), len(keys), compress(built, (key in listed for key in keys))
