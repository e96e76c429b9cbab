"""Brute-force oracles shared across the test suite.

Everything here works on frozensets of 1-based elements with naive
enumeration and deliberately shares no code with the bitmask modules
under test, so agreement between the two is evidence rather than a
restatement of the implementation.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from unionclosed import Family, elements_of


def as_sets(fam: Family) -> list[frozenset[int]]:
    """Family members through the public element API, as frozensets."""
    return [frozenset(elements_of(m)) for m in fam.members]


def naive_union_closed(sets) -> bool:
    pool = set(sets)
    return all(a | b in pool for a in pool for b in pool)


def naive_filter(sets, n: int) -> bool:
    pool = set(sets)
    universe = frozenset(range(1, n + 1))
    return all(s | {x} in pool for s in pool for x in universe - s)


def interval(lo: frozenset[int], hi: frozenset[int]) -> set[frozenset[int]]:
    """Materialize {C : lo <= C <= hi} by enumerating the free elements."""
    assert lo <= hi
    extra = sorted(hi - lo)
    out = set()
    for r in range(len(extra) + 1):
        for combo in itertools.combinations(extra, r):
            out.add(lo | frozenset(combo))
    return out


@lru_cache(maxsize=None)
def all_subsets(n: int) -> tuple[frozenset[int], ...]:
    universe = list(range(1, n + 1))
    subs: list[frozenset[int]] = []
    for r in range(n + 1):
        subs.extend(frozenset(c) for c in itertools.combinations(universe, r))
    return tuple(subs)


def all_families(n: int):
    """Yield every nonempty subfamily of the power set of [n]."""
    subs = all_subsets(n)
    for code in range(1, 1 << len(subs)):
        yield tuple(s for i, s in enumerate(subs) if code >> i & 1)


@lru_cache(maxsize=None)
def brute_filters(n: int, size: int) -> tuple[tuple[frozenset[int], ...], ...]:
    """Every filter on [n] with exactly `size` members, by subfamily scan."""
    subs = all_subsets(n)
    found = []
    for combo in itertools.combinations(subs, size):
        if naive_filter(combo, n):
            found.append(combo)
    return tuple(found)


def brute_certificate_exists(sets, n: int) -> bool:
    """Decide certificate existence the slow way: enumerate every filter
    of matching size and every injective assignment into it, testing
    disjointness on fully materialized intervals. Desk scale only."""
    members = list(sets)
    if not members:
        return True
    for filt in brute_filters(n, len(members)):
        if _assign(members, filt, []):
            return True
    return False


def _assign(members, images, chosen) -> bool:
    k = len(chosen)
    if k == len(members):
        return True
    a = members[k]
    taken = {f for _, f in chosen}
    for f in images:
        if f in taken or not a <= f:
            continue
        iv = interval(a, f)
        if any(iv & interval(b, g) for b, g in chosen):
            continue
        if _assign(members, images, chosen + [(a, f)]):
            return True
    return False


@lru_cache(maxsize=None)
def brute_certified_families(n: int) -> frozenset[frozenset[frozenset[int]]]:
    """Every nonempty family over [n] that carries a certificate, listed
    filter by filter: each filter of every size, then every choice of a
    member below each image whose materialized interval misses the
    intervals chosen before it. Desk scale only; cached, because [4]
    takes seconds."""
    found: set[frozenset[frozenset[int]]] = set()

    def place(images, k, members, covered) -> None:
        if k == len(images):
            found.add(frozenset(members))
            return
        f = images[k]
        if f in covered:  # every interval below f would hold f
            return
        for a in all_subsets(n):
            if a <= f and a not in covered:
                iv = interval(a, f)
                if not iv & covered:
                    place(images, k + 1, members + [a], covered | iv)

    for size in range(1, (1 << n) + 1):
        for filt in brute_filters(n, size):
            place(filt, 0, [], set())
    return frozenset(found)


def canonical_form(sets, n: int) -> tuple[tuple[int, ...], ...]:
    """Least relabeled form over all n! permutations of [n]: each member
    as a sorted element tuple, the members sorted. Two families are
    relabelings of each other exactly when their forms are equal."""
    return min(
        tuple(sorted(tuple(sorted(perm[x - 1] for x in s)) for s in sets))
        for perm in itertools.permutations(range(1, n + 1))
    )


def relabel(members, n: int, perm) -> tuple[int, ...]:
    """Member masks with element i + 1 renamed perm[i], sorted."""
    out = []
    for m in members:
        x = 0
        for i in range(n):
            if m >> i & 1:
                x |= 1 << (perm[i] - 1)
        out.append(x)
    return tuple(sorted(out))


def all_tournaments(k: int):
    """Every orientation of the complete graph on k vertices, emitted as
    1-based adjacency rows (bit j-1 of rows[i-1] set iff edge i -> j)."""
    pairs = list(itertools.combinations(range(k), 2))
    for bits in range(1 << len(pairs)):
        rows = [0] * k
        for idx, (i, j) in enumerate(pairs):
            if bits >> idx & 1:
                rows[i] |= 1 << j
            else:
                rows[j] |= 1 << i
        yield tuple(rows)
