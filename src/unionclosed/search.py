"""Structured search for families that carry an interval certificate while
no element reaches half the members, plus the degree budget behind the
ground-size lower bound and the exhaustive small-ground sweeps.

The searched families have a fixed skeleton over the ground {1..n}: one
member mapped to the full set, one member A_i mapped to each co-atom
[n] - {i}, and one member B_p mapped to [n] - p for each chosen element
pair p. Under the canonical images the pairwise interval checks reduce
to statements about the containment digraph (edge (i, j) iff i in A_j)
and the pair-member contents, which is what the backtracking enumerates:

  - every two co-atom members must see each other (tournament edges),
  - A_v must meet p unless v is in B_p,
  - B_p must meet q or B_q meet p for any two pairs p and q,
  - element frequencies 1 + outdeg(v) + #{p : v in B_p} stay below half
    the family size, which caps each vertex's combined degree.

The degree caps leave the pair members little slack (each B_p is one
element at n = 8 with two pairs), so the search fixes them first and then
orients the digraph, checking each A_v against the fixed B_p.

Everything is enumerated in fixed orders and the final report list is
sorted, so search results are identical for any worker count.

The small-ground sweep runs in one process and goes filter by filter
instead of deciding each of the 2**(2**n) families: it walks every
nonempty filter over [n], places one member below each image with
pairwise disjoint intervals, and marks the family each completed
placement builds. The marked families are exactly those that admit a
certificate.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import chain, combinations, permutations, product
from typing import NamedTuple

from .certificates import Certificate, _cubes, verify_certificate
from .family import (
    MAX_GROUND,
    Family,
    FamilyFormatError,
    ResourceLimitError,
    frankl_check,
    frequency_vector,
    full_mask,
    mask_from_elements,
)

# The orientation space grows like 3**(n choose 2); 10 is where exhausting
# it stops being a coffee-break job even with the budget pruning.
SEARCH_CAP = 10
# Canonical dedup tries every relabeling that keeps each element inside its
# invariant cell; when all elements share one cell that is all n! of them.
CANONICAL_CAP = 8
# The sweep marks families in a 2**(2**n)-byte array: 64 KB at 4, 4 GB at 5.
ENUMERATION_CAP = 4


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


@dataclass(frozen=True)
class SearchShape:
    """Which pair complements [n] - {i, j} join the co-atoms in the filter."""

    ground_size: int
    missing_pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        n = self.ground_size
        if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= MAX_GROUND:
            raise FamilyFormatError(f"ground size must be an integer in 1..{MAX_GROUND}")
        norm = []
        for pair in self.missing_pairs:
            try:
                i, j = pair
            except (TypeError, ValueError):
                raise FamilyFormatError(f"pair {pair!r} must have exactly two elements")
            if not all(isinstance(e, int) and not isinstance(e, bool) for e in (i, j)):
                raise FamilyFormatError(f"pair {pair!r} must contain integers")
            if not (1 <= i <= n and 1 <= j <= n) or i == j:
                raise FamilyFormatError(f"pair {pair!r} is not two distinct elements of 1..{n}")
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


@dataclass(frozen=True)
class CounterexampleReport:
    """A fully verified find: valid certificate, every element under half.

    Construction derives the frequencies and re-runs the whole
    verification, so a report object is itself the proof that the search
    result is real.
    """

    family: Family
    certificate: Certificate
    frequency: tuple[int, ...] = field(init=False)
    max_frequency: int = field(init=False)

    def __post_init__(self) -> None:
        freq = frequency_vector(self.family)
        object.__setattr__(self, "frequency", freq)
        object.__setattr__(self, "max_frequency", max(freq, default=0))
        if 2 * self.max_frequency >= len(self.family):
            raise ValueError("not a counterexample: an element reaches half the members")
        verdict = verify_certificate(self.family, self.certificate)
        if not verdict:
            raise ValueError(f"certificate does not verify: {verdict.clause}")

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
    n = 8
    full = full_mask(n)
    images = (
        [full]
        + [full ^ (1 << i) for i in range(n)]
        + [full ^ 0b11, full ^ 0b1100]
    )
    pairs = tuple(
        (mask_from_elements(s, n), img) for s, img in zip(_MINIMAL_MEMBERS, images)
    )
    family = Family(n, tuple(a for a, _ in pairs))
    return CounterexampleReport(family, Certificate(n, pairs))


def _search_solutions(
    args: tuple[int, tuple[tuple[int, int], ...], int, int]
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Choose the pair members, then orient the co-atom digraph under them.

    args is (n, missing, part, parts). Returns (a_members, b_members) mask
    tuples; a_members[v] is A_{v+1}, b_members[k] belongs to the k-th
    missing pair. Each complete choice of pair members is one unit of
    work. Units are numbered in the order the walk reaches them, and only
    those numbered part mod parts are searched, which is how workers split
    the space; parts = 1 searches everything. Within a unit each free pair
    takes one of three choices: low beats high, high beats low, or both.
    """
    n, missing, part, parts = args
    sink: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    m = n + 1 + len(missing)
    # Frequency of every element must stay below m/2; the full-set member
    # contributes 1, so outdeg(v) + #B's containing v is capped here.
    cap = (m + 1) // 2 - 2
    miss0 = [(i - 1, j - 1) for i, j in missing]
    pmasks = [(1 << i) | (1 << j) for i, j in miss0]

    # Both directions are forced inside each missing pair: the interval
    # checks between A_i, A_j and B_p demand i in A_j and j in A_i.
    a_in = [0] * n  # a_in[v] = current members of A_{v+1}
    for i, j in miss0:
        a_in[i] |= 1 << j
        a_in[j] |= 1 << i
    base_load = [sum(a >> v & 1 for a in a_in) for v in range(n)]

    # Free pairs inside the missing pairs first, then those with one other
    # endpoint grouped by it, then the rest, so the checks on A_v fire
    # early; plain label order ran 30-50 times slower on relabeled shapes.
    inside = {e for pair in miss0 for e in pair}
    ordered = sorted(
        (p for p in combinations(range(n), 2) if (1 << p[0]) | (1 << p[1]) not in pmasks),
        key=lambda p: (sum(e not in inside for e in p), [e for e in p if e not in inside]),
    )
    index_of = {p: t for t, p in enumerate(ordered)}

    # A_v must meet p_k unless v is in B_k; check it once both pairs of v
    # with an element of p_k are oriented. A missing pair that already puts
    # an element of p_k into A_v (v in p_k among them) needs no check.
    check_after: list[list[tuple[int, int]]] = [[] for _ in ordered]
    for k, (i, j) in enumerate(miss0):
        for v in range(n):
            if not a_in[v] & pmasks[k]:
                t = max(index_of[min(v, i), max(v, i)], index_of[min(v, j), max(v, j)])
                check_after[t].append((v, k))

    # Each orientation step costs at least one degree unit, so the pair
    # members share what is left. Every B_k is nonempty: were it empty, the
    # two elements of p_k would land in more than half the members.
    slack = n * cap - sum(base_load) - len(ordered)
    if slack < 0 or max(base_load) > cap:
        return sink
    units: list[tuple[tuple[int, ...], list[int], int]] = []
    by_size = sorted(range(1, 1 << n), key=lambda b: (b.bit_count(), b))

    def choose(chosen: tuple[int, ...], left: int, load: list[int]) -> None:
        """Extend the pair members chosen so far by every B_k that fits in
        the slack left; load[v] is outdeg(v) plus the members holding v."""
        k = len(chosen)
        if k == len(pmasks):
            units.append((chosen, load, left))
            return
        pm = pmasks[k]
        for b in by_size:
            if b.bit_count() > left:
                break
            more = [d + (b >> v & 1) for v, d in enumerate(load)]
            if not b & pm and max(more) <= cap and all(
                b & pmasks[q] or chosen[q] & pm for q in range(k)
            ):
                choose(chosen + (b,), left - b.bit_count(), more)

    def orient(t: int, spare: int) -> None:
        """Orient the free pairs from step t on under the unit's load and
        checks; spare is how many more of them may go both ways."""
        if t == len(ordered):
            sink.append((tuple(a_in), bs))
            return
        i, j = ordered[t]
        for win_i, win_j in ((1, 0), (0, 1), (1, 1)):
            if load[i] + win_i > cap or load[j] + win_j > cap or win_i + win_j > spare + 1:
                continue
            load[i] += win_i
            load[j] += win_j
            a_in[j] ^= win_i << i
            a_in[i] ^= win_j << j
            if all(a_in[v] & pm for v, pm in checks[t]):
                orient(t + 1, spare + 1 - win_i - win_j)
            load[i] -= win_i
            load[j] -= win_j
            a_in[j] ^= win_i << i
            a_in[i] ^= win_j << j

    choose((), slack, base_load)
    for bs, load, spare in units[part::parts]:
        checks = [[(v, pmasks[k]) for v, k in c if not bs[k] >> v & 1] for c in check_after]
        orient(0, spare)
    return sink


def _solution_report(
    shape: SearchShape, solution: tuple[tuple[int, ...], tuple[int, ...]]
) -> CounterexampleReport:
    n = shape.ground_size
    full = full_mask(n)
    a_members, b_members = solution
    pairs = [(full, full)]
    pairs += [(a, full ^ (1 << v)) for v, a in enumerate(a_members)]
    for (i, j), b in zip(shape.missing_pairs, b_members):
        pairs.append((b, full ^ (1 << (i - 1)) ^ (1 << (j - 1))))
    family = Family(n, tuple(a for a, _ in pairs))
    return CounterexampleReport(family, Certificate(n, tuple(pairs)))


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


def _dedupe_canonical(reports: list[CounterexampleReport]) -> list[CounterexampleReport]:
    seen: set[tuple[int, ...]] = set()
    out = []
    for r in reports:
        key = _canonical_key(r.family.members, r.family.ground_size)
        if key not in seen:
            seen.add(key)
            out.append(r)
    return out


def search_counterexamples(
    shape: SearchShape,
    workers: int = 1,
    canonical: bool = False,
) -> list[CounterexampleReport]:
    """Exhaustively enumerate counterexample families of the given shape.

    Every returned report passed the full certificate verification and
    has every element in fewer than half the members. The list is sorted
    by member masks (then images), so any worker count yields the same
    list; the enumeration always completes and an empty result is a
    proof that the shape admits nothing. canonical keeps one
    representative per relabeling orbit.
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
    if workers < 1:
        raise ValueError("workers must be at least 1")
    # One job per worker, clamped to the CPU count; a single job runs in
    # this process.
    w = min(workers, os.cpu_count() or 1)
    jobs = [(n, shape.missing_pairs, k, w) for k in range(w)]
    if w == 1:
        parts = [_search_solutions(jobs[0])]
    else:
        # Imported here: the pool machinery costs every single-job command
        # tens of milliseconds of startup otherwise.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=w) as pool:
            parts = list(pool.map(_search_solutions, jobs))
    solutions = [sol for part in parts for sol in part]
    reports = [_solution_report(shape, sol) for sol in solutions]
    reports.sort(key=lambda r: (r.family.members, r.certificate.pairs))
    if canonical:
        reports = _dedupe_canonical(reports)
    return reports


class SweepSummary(NamedTuple):
    ground_size: int
    scanned: int
    certified: int
    violations: tuple[Family, ...]


def _filters(n: int) -> list[tuple[int, ...]]:
    """Every nonempty filter over {1..n}, each as its members smallest first.

    Sets are visited in decreasing mask order, so a set comes after all
    its proper supersets. A set may join only when all its one-element
    supersets are in, which by induction puts every superset in.
    """
    full = full_mask(n)
    found: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def walk(s: int, inside: int) -> None:
        if s < 0:
            if chosen:
                found.append(tuple(reversed(chosen)))
            return
        if all(inside >> (s | 1 << e) & 1 for e in range(n) if not s >> e & 1):
            chosen.append(s)
            walk(s - 1, inside | 1 << s)
            chosen.pop()
        walk(s - 1, inside)

    walk(full, 0)
    return found


def _certified_codes(n: int) -> bytearray:
    """Mark every family over {1..n} that some filter certifies, filter by
    filter.

    For each filter one member a below each image f is placed, keeping
    [a, f] only if it misses every interval placed so far. Intervals are
    the lattice bitmasks over the 2**n subsets from certificates._cubes,
    the format find_certificate decides on. Small images have few members
    below them, so placing them first keeps the tree narrow near its root.
    marks[code] is 1 for each completed placement, where bit a of code is
    set for each placed member a.
    """
    size = 1 << n
    up, down = _cubes(n)
    # below[f] pairs every a within f with the interval [a, f]
    below = [
        [(a, up[a] & down[f]) for a in range(size) if a | f == f] for f in range(size)
    ]
    marks = bytearray(1 << size)

    def place(images: tuple[int, ...], k: int, code: int, covered: int) -> None:
        if k == len(images):
            marks[code] = 1
            return
        for a, iv in below[images[k]]:
            if not iv & covered:
                place(images, k + 1, code | 1 << a, covered | iv)

    for images in _filters(n):
        place(images, 0, 0, 0)
    return marks


def conjecture_sweep(n: int) -> SweepSummary:
    """Find every family over {1..n} that admits a certificate, and check
    the half-element property on each.

    Families are built from the filters rather than decided one by one:
    each nonempty filter contributes every family that pairs onto it with
    pairwise disjoint intervals. The empty family and the bare {{}} are
    not counted (neither carries an element to count), so scanned is all
    2**(2**n) families less those two. An empty violation list is an
    exhaustive verification for this ground size.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError("ground size must be a positive integer")
    if n > ENUMERATION_CAP:
        raise ResourceLimitError(
            f"exhaustive sweep is supported only up to ground size {ENUMERATION_CAP}"
        )
    marks = _certified_codes(n)
    marks[1] = 0  # the bare {{}}
    bad: list[tuple[int, ...]] = []
    for code, hit in enumerate(marks):
        if hit:
            fam = Family(n, tuple(a for a in range(1 << n) if code >> a & 1))
            if not frankl_check(fam).holds:
                bad.append(fam.members)
    violations = tuple(Family(n, members) for members in sorted(bad))
    return SweepSummary(n, (1 << (1 << n)) - 2, sum(marks), violations)
