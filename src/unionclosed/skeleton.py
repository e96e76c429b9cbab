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
only one unit per orbit of such relabelings is oriented, and its
solutions are relabeled onto the rest (20 units in 2 orbits for pairs
{1,2} and {3,4} at n = 8).

Everything is enumerated in fixed orders. The skeleton's images are
stated once, in search._skeleton_images, and every solution is the member
tuple aligned with them. Solutions are yielded in groups: one found at
an orbit representative, then its relabelings onto the rest of the orbit.

It is a module of its own, loaded only by the search command, because
Python compiles each module's source as a whole: demo and enumerate,
which load search.py, never compile it, and two halves compiled one
after the other peak lower than one file holding both.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

from .family import mask_from_elements


def _pair_symmetries(
    n: int, pairs: list[tuple[int, int]]
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Relabelings of {0..n-1} that map the set of pairs onto itself.

    Returns (sigma, pi) with sigma[e] the new label of element e and pair
    k sent onto pair pi[k]. The candidates are every transposition and,
    for any two disjoint pairs {a, b} and {c, d}, the swap (a c)(b d);
    only those that map each pair onto a pair are kept. For disjoint
    pairs they generate the whole stabilizer, (S_2 wr S_k) x S_(n-2k);
    for other pair sets they may generate less of it.
    """
    index = {(1 << i) | (1 << j): k for k, (i, j) in enumerate(pairs)}
    swaps = [((a, b),) for a, b in combinations(range(n), 2)]
    swaps += [((a, c), (b, d)) for (a, b), (c, d) in combinations(pairs, 2)
              if len({a, b, c, d}) == 4]
    found = []
    for cycles in swaps:
        sigma = list(range(n))
        for x, y in cycles:
            sigma[x], sigma[y] = y, x
        pi = [index.get((1 << sigma[i]) | (1 << sigma[j])) for i, j in pairs]
        if None not in pi:
            found.append((tuple(sigma), tuple(pi)))
    return found


def _unit_orbits(
    units: list[tuple[int, ...]],
    n: int,
    symmetries: list[tuple[tuple[int, ...], tuple[int, ...]]],
) -> list[list[tuple[int, tuple[int, ...]]]]:
    """Group the pair-member units into orbits under the relabelings.

    units[u][k] is the member of pair k in unit u. Each orbit is walked
    breadth first from its first unit in list order, and lists (u, sigma)
    with sigma mapping that first unit onto unit u: the member of pair
    pi[k] in unit u is sigma applied to the member of pair k.
    """
    where = {bs: u for u, bs in enumerate(units)}
    placed = set()
    orbits = []
    for first in range(len(units)):
        if first in placed:
            continue
        placed.add(first)
        orbit = [(first, tuple(range(n)))]
        for u, sigma in orbit:  # the loop reaches the units appended below
            for g, pi in symmetries:
                moved = [0] * len(pi)
                for k, b in enumerate(units[u]):
                    moved[pi[k]] = sum(1 << g[e] for e in range(n) if b >> e & 1)
                w = where[tuple(moved)]
                if w not in placed:
                    placed.add(w)
                    orbit.append((w, tuple(g[e] for e in sigma)))
        orbits.append(orbit)
    return orbits


def _search_solutions(
    n: int, missing: tuple[tuple[int, int], ...]
) -> Iterator[list[tuple[int, ...]]]:
    """Choose the pair members, then orient the co-atom digraph under them.

    Yields the solutions in groups, each as soon as it is relabeled: an
    orbit representative's solution and its relabelings onto the rest of the
    orbit, so a group's families are relabelings of one another. A solution
    is the member tuple (full, A_1, ..., A_n, B_1, ..., B_k) aligned with
    search._skeleton_images(n, missing): B_k belongs to the k-th missing
    pair and the full-set member is the full set itself. Each complete
    choice of pair members is one unit of work. A relabeling that maps the
    set of missing pairs onto itself maps every constraint of a unit onto
    those of its image, and so the unit's solutions one to one onto the
    image's. The units are grouped into orbits under such relabelings (see
    _unit_orbits); only the first unit of each orbit is oriented, and its
    solutions are relabeled onto the rest of the orbit. Orbits come in the
    order the walk reaches their first units. Within a unit each free pair
    takes one of three choices: low beats high, high beats low, or both.
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
    orbits = _unit_orbits([bs for bs, _, _ in units], n, _pair_symmetries(n, miss0))
    for orbit in orbits:
        bs, load, spare = units[orbit[0][0]]
        checks = [[(v, pmasks[k]) for v, k in c if not bs[k] >> v & 1] for c in check_after]
        found: list[tuple[int, ...]] = []
        orient(0, spare)
        # A'[sigma(v)] = sigma(A_v), with table[a] = sigma(a) for every a
        moves = []
        for u, sigma in orbit:
            table = [0]
            for e in sigma:
                table += [x | 1 << e for x in table]
            moves.append((table, sorted(range(n), key=sigma.__getitem__), units[u][0]))
        for a in found:
            yield [(full, *[table[a[v]] for v in inverse], *b) for table, inverse, b in moves]
