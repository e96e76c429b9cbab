"""Brute-force oracles shared across the test suite.

Everything here works on frozensets of 1-based elements with naive
enumeration and deliberately shares no code with the bitmask modules
under test, so agreement between the two is evidence rather than a
restatement of the implementation. Four frozen copies are the
exceptions, each kept as the oracle for a later shortcut:
unit_by_unit_solutions, the two-pair search without its symmetry
reduction; reference_verify_certificate, the clause-by-clause
verification without the lattice accept path; reference_find_certificate,
the certificate decision on a stack of per-member candidate generators
instead of a flat index stack; and dedupe_canonical, the canonical dedup
with one key per report instead of one per group.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator

from unionclosed import (
    Certificate,
    CertificateVerdict,
    Family,
    elements_of,
    format_set,
    is_filter,
    iter_supersets,
)
from unionclosed.certificates import _cubes
from unionclosed.search import _canonical_key


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


def unit_by_unit_solutions(
    n: int, missing: tuple[tuple[int, int], ...]
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The two-pair search's solutions as (a_members, b_members) mask
    tuples, found by backtracking every pair-member unit on its own.

    A copy of the search as it stood before it oriented one unit per
    orbit of the pair-set relabelings, kept as the oracle for that
    reduction: it uses no relabeling at all.
    """
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
        (p for p in itertools.combinations(range(n), 2) if (1 << p[0]) | (1 << p[1]) not in pmasks),
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
    for bs, load, spare in units:
        checks = [[(v, pmasks[k]) for v, k in c if not bs[k] >> v & 1] for c in check_after]
        orient(0, spare)
    return sink


def reference_verify_certificate(fam: Family, cert: Certificate) -> CertificateVerdict:
    """verify_certificate as it stood before its lattice accept path:
    every clause in order, the images built as a Family, and every pair
    of intervals tested."""
    if fam.ground_size != cert.ground_size:
        raise ValueError(
            f"ground size mismatch: family {fam.ground_size}, certificate {cert.ground_size}"
        )
    if tuple(a for a, _ in cert.pairs) != fam.members:
        return CertificateVerdict(
            False, "coverage", "pair members do not match the family exactly"
        )
    seen: set[int] = set()
    for _, f in cert.pairs:
        if f in seen:
            return CertificateVerdict(
                False, "bijectivity", f"image {format_set(f)} repeated"
            )
        seen.add(f)
    for a, f in cert.pairs:
        if a & ~f:
            return CertificateVerdict(
                False, "containment", f"{format_set(a)} not inside {format_set(f)}"
            )
    images = Family(cert.ground_size, tuple(f for _, f in cert.pairs))
    filt = is_filter(images)
    if not filt:
        member, missing = filt.witness
        return CertificateVerdict(
            False, "filter", f"images lack {format_set(missing)} above {format_set(member)}"
        )
    ps = cert.pairs
    for i in range(len(ps)):
        a, fa = ps[i]
        for j in range(i + 1, len(ps)):
            b, fb = ps[j]
            if (a & ~fb) == 0 and (b & ~fa) == 0:
                return CertificateVerdict(
                    False,
                    "disjointness",
                    f"intervals of {format_set(a)} and {format_set(b)} meet",
                )
    assert sum(1 << (f.bit_count() - a.bit_count()) for a, f in ps) <= 1 << cert.ground_size
    return CertificateVerdict(True, None, None)


def reference_find_certificate(fam: Family) -> Certificate | None:
    """find_certificate as it stood before its flat index stack: the same
    candidates in the same order, searched depth first on a stack of
    suspended generators, one per member, each yielding an image with
    the covered sets and the up-closure it leaves."""
    n = fam.ground_size
    up, down = _cubes(n)
    members = sorted(fam.members, key=lambda a: (a.bit_count(), a))
    m = len(members)
    member_bits = sum(1 << a for a in members)
    min_size = max(0, n - (m.bit_length() - 1))
    cand = []
    for a in members:
        above = (up[a] & member_bits) ^ 1 << a
        keep = [
            f
            for f in iter_supersets(a, n)
            if f.bit_count() >= min_size and not down[f] & above
        ]
        cand.append(sorted(keep, key=lambda f: (f.bit_count(), f)))

    def live(k: int, covered: int, closure: int) -> Iterator[tuple[int, int, int]]:
        above_a = up[members[k]]
        for f in cand[k]:
            iv = above_a & down[f]
            if iv & covered:
                continue
            grown = closure | up[f]
            if grown.bit_count() <= m:
                yield f, covered | iv, grown

    chosen: list[tuple[int, int, int]] = []
    levels: list[Iterator[tuple[int, int, int]]] = []
    while len(chosen) < m:
        if len(levels) == len(chosen):
            _, covered, closure = chosen[-1] if chosen else (0, 0, 0)
            levels.append(live(len(chosen), covered, closure))
        step = next(levels[-1], None)
        if step is None:
            levels.pop()
            if not chosen:
                return None
            chosen.pop()
            continue
        chosen.append(step)
    return Certificate(n, tuple((a, f) for a, (f, _, _) in zip(members, chosen)))


def naive_verdict(members, pairs, n: int) -> tuple[bool, str | None]:
    """(valid, clause) of a certificate given as (member, image) frozenset
    pairs for a family given as frozensets: the clauses in the package's
    order, the filter by naive_filter and disjointness on materialized
    intervals."""
    if sorted(sorted(a) for a, _ in pairs) != sorted(sorted(m) for m in members):
        return False, "coverage"
    images = [f for _, f in pairs]
    if len(set(images)) != len(images):
        return False, "bijectivity"
    if not all(a <= f for a, f in pairs):
        return False, "containment"
    if not naive_filter(images, n):
        return False, "filter"
    cubes = [interval(a, f) for a, f in pairs]
    if any(x & y for x, y in itertools.combinations(cubes, 2)):
        return False, "disjointness"
    return True, None


def dedupe_canonical(reports):
    """Keep the first report of each relabeling class, in list order,
    computing the canonical key of every report."""
    seen: set[tuple[int, ...]] = set()
    out = []
    for r in reports:
        key = _canonical_key(r.family.members, r.family.ground_size)
        if key not in seen:
            seen.add(key)
            out.append(r)
    return out
