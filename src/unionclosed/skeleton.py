"""The backtrack behind the structured search for families that carry
an interval certificate while no element reaches half the members.

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
orients the digraph, checking each A_v against the fixed B_p. Each
choice of pair members is a unit. Every check above is stated in terms
of the pair set, so a relabeling that maps the missing pairs onto
themselves maps a unit's solutions one to one onto those of its image:
only one unit per orbit of such relabelings is oriented (20 units in 2
orbits for pairs {1,2} and {3,4} at n = 8). A relabeling is held only as
a lookup table over the 2**n subset masks, table[a] being the image of
a; orbits are closed one at a time, so only one orbit's tables exist at
once.

Everything is enumerated in fixed orders. The skeleton's images are
stated once, in search._skeleton_images, and every solution is the member
tuple aligned with them. Each solution found at an orbit representative
is yielded with its orbit's tables; the search pushes its (member,
image) pairs through each table to reach the rest of the orbit, so this
module never needs the order the images take after a relabeling.

It is a module of its own, loaded only by the search command, because
Python compiles each module's source as a whole: demo, which loads
search.py, never compiles it, and two halves compiled one after the
other peak lower than one file holding both. For the same
reason it holds the struct packing of the search's sort keys, which
only the search command needs.
"""

from __future__ import annotations

from itertools import combinations
from struct import Struct
from typing import Iterator

from .family import mask_from_elements


def _key_struct(n: int, m: int) -> Struct:
    """The packing of one search key of m members and m images over
    {1..n}: 2*m big-endian unsigned fields, of 1 byte for n <= 8 and of
    2 bytes above, so the packed keys of one shape have one length and
    sort as the tuples of their fields do."""
    return Struct(f">{2 * m}{'B' if n <= 8 else 'H'}")


def _pair_symmetries(
    n: int, pairs: list[tuple[int, int]]
) -> list[tuple[list[int], tuple[int, ...]]]:
    """Relabelings of {0..n-1} that map the set of pairs onto itself.

    Returns (table, pi) with table[a] the relabeled subset mask a and pair
    k sent onto pair pi[k]. The candidates are every transposition and,
    for any two disjoint pairs {a, b} and {c, d}, the swaps (a c)(b d)
    and (a d)(b c); only those that map each pair onto a pair are kept.
    Each is its own inverse, and so is its pi. For disjoint pairs they
    generate the whole stabilizer, (S_2 wr S_k) x S_(n-2k), and for every
    set of at most three pairs the whole stabilizer too: the second swap
    gives the reflection (1 4)(2 3) of the path 1,2:2,3:3,4. For larger
    pair sets they may generate less of it.
    """
    index = {(1 << i) | (1 << j): k for k, (i, j) in enumerate(pairs)}
    swaps = [((a, b),) for a, b in combinations(range(n), 2)]
    swaps += [swap for (a, b), (c, d) in combinations(pairs, 2) if len({a, b, c, d}) == 4
              for swap in (((a, c), (b, d)), ((a, d), (b, c)))]
    found = []
    for cycles in swaps:
        label = list(range(n))
        for x, y in cycles:
            label[x], label[y] = y, x
        table = [0]  # after element i, the images of the subsets of {0..i}
        for e in label:
            table += [a | 1 << e for a in table]
        pi = tuple(index.get(table[p]) for p in index)
        if None not in pi:
            found.append((table, pi))
    return found


def _unit_orbits(
    units: list[tuple[int, ...]],
    n: int,
    symmetries: list[tuple[list[int], tuple[int, ...]]],
) -> Iterator[tuple[tuple[int, ...], list[list[int]]]]:
    """Group the pair-member units into orbits under the relabelings.

    units[u][k] is the member of pair k in unit u. Each orbit is walked
    breadth first from its first unit in list order and yielded as soon
    as it is closed, as that unit and one table per unit of the orbit,
    the identity first, mapping the first unit onto that unit.
    """
    placed = set()
    for first in units:
        if first in placed:
            continue
        placed.add(first)
        orbit = [(first, list(range(1 << n)))]
        for bs, table in orbit:  # the loop reaches the units appended below
            for g, pi in symmetries:
                # g sends the member of pair k to pair pi[k], and pi is an involution
                moved = tuple(g[bs[k]] for k in pi)
                if moved not in placed:
                    placed.add(moved)
                    orbit.append((moved, [g[a] for a in table]))
        yield first, [table for _, table in orbit]


def _search_solutions(
    n: int, missing: tuple[tuple[int, int], ...]
) -> Iterator[tuple[tuple[int, ...], list[list[int]]]]:
    """Choose the pair members, then orient the co-atom digraph under them.

    Yields each solution found at an orbit representative with its
    orbit's tables, the identity first (see _unit_orbits). A solution is
    the member tuple (full, A_1, ..., A_n, B_1, ..., B_k) aligned with
    search._skeleton_images(n, missing): B_k belongs to the k-th missing
    pair and the full-set member is the full set itself. Each complete
    choice of pair members is one unit of work. A relabeling that maps the
    set of missing pairs onto itself maps every constraint of a unit onto
    those of its image, and so the unit's solutions one to one onto the
    image's; it also maps the skeleton's images onto themselves, so each
    table carries a solution's (member, image) pairs onto a certificate
    of the relabeled family onto the same skeleton. Only the first unit of
    each orbit is oriented, as soon as the orbit is closed, and orbits come
    in the order of their first units. Within a unit each free pair takes
    one of three choices: low beats high, high beats low, or both.
    """
    full = (1 << n) - 1
    m = n + 1 + len(missing)
    # Frequency of every element must stay below m/2; the full-set member
    # contributes 1, so outdeg(v) + #B's containing v is capped here.
    cap = (m + 1) // 2 - 2
    miss0 = [(i - 1, j - 1) for i, j in missing]
    pmasks = [mask_from_elements(p, n) for p in missing]

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
        return
    units: list[tuple[int, ...]] = []
    by_size = sorted(range(1, 1 << n), key=lambda b: (b.bit_count(), b))

    def choose(chosen: tuple[int, ...], left: int, load: list[int]) -> None:
        """Extend the pair members chosen so far by every B_k that fits in
        the slack left; load[v] is outdeg(v) plus the members holding v."""
        k = len(chosen)
        if k == len(pmasks):
            units.append(chosen)
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
            found.append(tuple(a_in))
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
    for bs, tables in _unit_orbits(units, n, _pair_symmetries(n, miss0)):
        load = [d + sum(b >> v & 1 for b in bs) for v, d in enumerate(base_load)]
        checks = [[(v, pmasks[k]) for v, k in c if not bs[k] >> v & 1] for c in check_after]
        found: list[tuple[int, ...]] = []
        orient(0, slack - sum(b.bit_count() for b in bs))
        for a in found:
            yield (full, *a, *bs), tables
