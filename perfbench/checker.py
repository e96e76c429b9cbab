"""Independent checks of unionclosed answers, built on frozensets.

Nothing here imports unionclosed or shares its code. A family is a
frozenset of frozensets of the elements 1..n; a certificate is a list of
(member, image) pairs. Every verdict is recomputed from the definitions:

  - certificate clauses: coverage, distinct images, containment, the
    images forming a filter, pairwise disjoint intervals [A, F_A];
  - element frequencies against half the family size;
  - the average-size bound log2(m) / 2, compared in integers;
  - union-closure, and relabeling of families and certificates;
  - a brute-force certificate oracle that lists every certificate over a
    tiny ground set, filter by filter.
"""

from __future__ import annotations

from itertools import combinations, permutations


def family_from_dict(data: dict) -> tuple[int, frozenset]:
    """Parse {"ground": n, "sets": [[...], ...]}; duplicate sets are an error."""
    n = data["ground"]
    sets = [frozenset(s) for s in data["sets"]]
    fam = frozenset(sets)
    if len(fam) != len(sets):
        raise ValueError("family lists a set twice")
    if any(not s <= ground(n) for s in fam):
        raise ValueError("family has an element outside the ground set")
    return n, fam


def family_to_dict(n: int, fam: frozenset) -> dict:
    return {"ground": n, "sets": sorted((sorted(s) for s in fam), key=lambda s: (len(s), s))}


def certificate_from_dict(data: dict) -> tuple[int, list[tuple[frozenset, frozenset]]]:
    return data["ground"], [
        (frozenset(p["set"]), frozenset(p["image"])) for p in data["pairs"]
    ]


def certificate_to_dict(n: int, pairs) -> dict:
    ordered = sorted(pairs, key=lambda p: (len(p[0]), sorted(p[0])))
    return {
        "ground": n,
        "pairs": [{"set": sorted(a), "image": sorted(f)} for a, f in ordered],
    }


def ground(n: int) -> frozenset:
    return frozenset(range(1, n + 1))


def certificate_problem(n: int, fam: frozenset, pairs) -> str | None:
    """The first certificate clause that fails, or None when all hold."""
    members = [a for a, _ in pairs]
    if len(members) != len(fam) or set(members) != fam:
        return "coverage"
    images = [f for _, f in pairs]
    if len(set(images)) != len(images):
        return "distinct images"
    if any(not a <= f or not f <= ground(n) for a, f in pairs):
        return "containment"
    image_set = set(images)
    for f in image_set:
        if any(f | {x} not in image_set for x in ground(n) - f):
            return "filter"
    for (a, fa), (b, fb) in combinations(pairs, 2):
        if a <= fb and b <= fa:  # both intervals contain a | b
            return "disjointness"
    return None


def frequencies(n: int, fam: frozenset) -> list[int]:
    return [sum(1 for s in fam if e in s) for e in range(1, n + 1)]


def meets_average_bound(fam: frozenset) -> bool:
    """Average member size >= log2(m) / 2, as m**m <= 2**(2 * total size)."""
    m = len(fam)
    return m**m <= 2 ** (2 * sum(len(s) for s in fam))


def union_closed(fam: frozenset) -> bool:
    return all(a | b in fam for a, b in combinations(fam, 2))


def relabel(fam, perm: dict) -> frozenset:
    return frozenset(frozenset(perm[e] for e in s) for s in fam)


def relabel_pairs(pairs, perm: dict) -> frozenset:
    return frozenset(
        (frozenset(perm[e] for e in a), frozenset(perm[e] for e in f)) for a, f in pairs
    )


def element_signature(fam: frozenset, e: int) -> tuple:
    """A relabeling-invariant description of one element's place in a family."""
    return (
        sorted(len(s) for s in fam if e in s),
        sorted(sum(1 for s in fam if e in s and x in s) for x in _elements(fam) if x != e),
    )


def _elements(fam: frozenset) -> frozenset:
    return frozenset().union(*fam) if fam else frozenset()


def isomorphic(n: int, left: frozenset, right: frozenset) -> bool:
    """Is right a relabeling of left under some permutation of 1..n?

    Elements may only map to elements with the same signature, so the
    permutations tried are those inside the signature classes.
    """
    if len(left) != len(right) or sorted(map(len, left)) != sorted(map(len, right)):
        return False
    sig_l = {e: element_signature(left, e) for e in range(1, n + 1)}
    sig_r = {e: element_signature(right, e) for e in range(1, n + 1)}
    if sorted(map(repr, sig_l.values())) != sorted(map(repr, sig_r.values())):
        return False
    order = sorted(range(1, n + 1), key=lambda e: repr(sig_l[e]))
    choices = [[x for x in range(1, n + 1) if sig_r[x] == sig_l[e]] for e in order]

    def extend(k: int, perm: dict, used: set) -> bool:
        if k == len(order):
            return relabel(left, perm) == right
        for x in choices[k]:
            if x not in used:
                perm[order[k]] = x
                used.add(x)
                if extend(k + 1, perm, used):
                    return True
                used.discard(x)
                del perm[order[k]]
        return False

    return extend(0, {}, set())


def pair_stabilizer(n: int, pairs: list[tuple[int, int]]) -> list[dict]:
    """Every permutation of 1..n that maps the set of given pairs onto itself."""
    target = {frozenset(p) for p in pairs}
    out = []
    for image in permutations(range(1, n + 1)):
        perm = dict(zip(range(1, n + 1), image))
        if {frozenset(perm[e] for e in p) for p in target} == target:
            out.append(perm)
    return out


def subsets(elements) -> list[frozenset]:
    elements = sorted(elements)
    return [frozenset(c) for k in range(len(elements) + 1) for c in combinations(elements, k)]


def nonempty_families(n: int):
    """Every nonempty family of subsets of 1..n (n <= 4)."""
    lattice = subsets(range(1, n + 1))
    for code in range(1, 1 << len(lattice)):
        yield frozenset(s for i, s in enumerate(lattice) if code >> i & 1)


def filters(n: int) -> list[frozenset]:
    """Every nonempty up-set of the subsets of 1..n."""
    full = ground(n)
    return [
        fam
        for fam in nonempty_families(n)
        if all(f | {x} in fam for f in fam for x in full - f)
    ]


def certified_families(n: int) -> set[frozenset]:
    """Every family over 1..n that admits a certificate, by listing them all.

    For each filter, assign to each image F a member A inside F so that
    the intervals [A, F] stay pairwise disjoint; each complete
    assignment is a certificate of the family of its members.
    """
    found: set[frozenset] = set()
    for filt in filters(n):
        images = sorted(filt, key=len, reverse=True)
        below = {f: subsets(f) for f in images}
        chosen: list[tuple[frozenset, frozenset]] = []

        def assign(k: int) -> None:
            if k == len(images):
                found.add(frozenset(a for a, _ in chosen))
                return
            f = images[k]
            for a in below[f]:
                if all(not (a <= g and b <= f) for b, g in chosen):
                    chosen.append((a, f))
                    assign(k + 1)
                    chosen.pop()

        assign(0)
    return found


def sweep_reference(n: int) -> dict:
    """What `enumerate --n n` must report, recomputed by the oracle.

    Also counts the union-closed families and the families that meet the
    average-size bound: every union-closed family has a certificate, and
    every family with one meets the bound, so the certified count lies
    between the two.
    """
    bare = frozenset([frozenset()])
    certified = certified_families(n) - {bare}
    violations = [f for f in certified if not half_element(n, f)]
    uc = bound = scanned = 0
    for fam in nonempty_families(n):
        if fam == bare:  # like the empty family, it carries no element to count
            continue
        scanned += 1
        uc += union_closed(fam)
        bound += meets_average_bound(fam)
    return {
        "ground": n,
        "scanned": scanned,
        "certified": len(certified),
        "violations": sorted(family_to_dict(n, f)["sets"] for f in violations),
        "union_closed": uc,
        "average_bound": bound,
    }


def half_element(n: int, fam: frozenset) -> bool:
    """Does some element lie in at least half the members?"""
    return any(2 * c >= len(fam) for c in frequencies(n, fam))
