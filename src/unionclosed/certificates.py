"""Interval certificates: a filter image for each member, disjoint cubes.

A certificate pairs every member A of a family with an image F_A so that

  - the pairing covers the family exactly and the images are distinct,
  - A is contained in F_A,
  - the images form a filter,
  - the cube intervals [A, F_A] are pairwise disjoint.

Verification names the first violated clause instead of returning a bare
bool, so broken certificates can be loaded and diagnosed. Up to
DECISION_CAP it accepts on the lattice bitmasks described below; a
failing certificate, and any above the cap, is checked clause by clause
with pairwise interval tests. The searcher decides existence
exhaustively for ground sizes up to DECISION_CAP, by a depth-first
search over a flat stack of candidate indices, members smallest first,
that takes a retried interval back out of the covered sets by XOR. Each
cube [A, F_A] is a bitmask over the 2**n subsets (the lattice tables of
_cubes), so one clash test against the sets covered so far catches both
interval overlaps and repeated images. Before the search it drops every
image too small for the family size and every image whose cube holds
another member; during it, it prunes an up-closure past the family
size. It is deterministic: same family in, same certificate out.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import NamedTuple

from .family import (
    Family,
    FamilyFormatError,
    ResourceLimitError,
    _check_ground,
    _check_masks,
    _Record,
    elements_of,
    format_set,
    is_filter,
    iter_supersets,
    mask_from_elements,
)

# Exhaustive decision is exponential in the worst case. At 12 the lattice
# has 4096 sets; _cubes(12) holds 3.6 MB: up[] 2.3 MB (4096-bit ints),
# down[] 1.2 MB.
DECISION_CAP = 12


class Certificate(_Record):
    """An ordered list of (member, image) mask pairs over one ground set.

    Construction checks only shape (masks inside the ground set) and
    fixes a canonical pair order; the mathematical clauses live in
    verify_certificate so that invalid certificates remain loadable.
    """

    __slots__ = ("ground_size", "pairs")
    ground_size: int
    pairs: tuple[tuple[int, int], ...]

    def __init__(self, ground_size: int, pairs: tuple[tuple[int, int], ...] = ()) -> None:
        object.__setattr__(self, "ground_size", ground_size)
        object.__setattr__(self, "pairs", pairs)
        self.__post_init__()

    def __post_init__(self) -> None:
        n = _check_ground(self.ground_size)
        pairs = []
        for pair in self.pairs:
            try:
                a, f = pair
            except (TypeError, ValueError):
                raise FamilyFormatError(
                    f"pair {pair!r} is not a (member, image) mask pair"
                ) from None
            pairs.append((a, f))
        _check_masks(chain.from_iterable(pairs), n, "pair entry")
        object.__setattr__(self, "pairs", tuple(sorted(pairs)))

    @classmethod
    def from_dict(cls, data: object) -> "Certificate":
        """Parse {"ground": n, "pairs": [{"set": [...], "image": [...]}, ...]}."""
        if not isinstance(data, dict) or set(data) != {"ground", "pairs"}:
            raise FamilyFormatError(
                'certificate data must have exactly the keys "ground" and "pairs"'
            )
        ground = _check_ground(data["ground"])
        raw = data["pairs"]
        if not isinstance(raw, list):
            raise FamilyFormatError('"pairs" must be a list')
        pairs = []
        for entry in raw:
            if not isinstance(entry, dict) or set(entry) != {"set", "image"}:
                raise FamilyFormatError(
                    'each pair must be an object with exactly the keys "set" and "image"'
                )
            if not isinstance(entry["set"], list) or not isinstance(entry["image"], list):
                raise FamilyFormatError('"set" and "image" must be lists of elements')
            pairs.append(
                (
                    mask_from_elements(entry["set"], ground),
                    mask_from_elements(entry["image"], ground),
                )
            )
        return cls(ground, tuple(pairs))

    def to_dict(self) -> dict:
        return {
            "ground": self.ground_size,
            "pairs": [
                {"set": list(elements_of(a)), "image": list(elements_of(f))}
                for a, f in self.pairs
            ],
        }

    def __len__(self) -> int:
        return len(self.pairs)


class CertificateVerdict(NamedTuple):
    valid: bool
    clause: str | None  # coverage | bijectivity | containment | filter | disjointness
    detail: str | None

    def __bool__(self) -> bool:
        return self.valid


def intervals_disjoint(a: int, fa: int, b: int, fb: int) -> bool:
    """Do the cube intervals [a, fa] and [b, fb] share no set?

    The intervals meet exactly when a <= fb and b <= fa: their common
    region is then the nonempty interval [a | b, fa & fb].
    """
    if a & ~fa or b & ~fb:
        raise ValueError("malformed pair: member must be contained in its image")
    return not (a & ~fb == 0 and b & ~fa == 0)


def verify_certificate(fam: Family, cert: Certificate) -> CertificateVerdict:
    """Check a certificate against a family, clause by clause.

    Clause order: coverage, bijectivity, containment, filter,
    disjointness. The first failure is reported with the offending sets;
    later clauses are not evaluated. Ground sizes must match.

    Up to DECISION_CAP a valid certificate is accepted on the _cubes
    bitmasks, which test every clause at once: an empty interval fails
    containment, a repeated image lies in two intervals, the images are
    a filter iff their up-sets add nothing, and the intervals are
    disjoint iff each misses the union of those before it. A failure
    there, and any ground above the cap, goes clause by clause.
    """
    if fam.ground_size != cert.ground_size:
        raise ValueError(
            f"ground size mismatch: family {fam.ground_size}, certificate {cert.ground_size}"
        )
    if tuple([a for a, _ in cert.pairs]) != fam.members:
        return CertificateVerdict(
            False, "coverage", "pair members do not match the family exactly"
        )
    n = cert.ground_size
    if n <= DECISION_CAP:
        up, down = _cubes(n)
        covered = held = closure = 0
        for a, f in cert.pairs:
            iv = up[a] & down[f]
            if not iv or iv & covered:
                break
            covered |= iv
            held |= 1 << f
            closure |= up[f]
        else:
            if closure == held:
                return CertificateVerdict(True, None, None)
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
            if not intervals_disjoint(a, fa, b, fb):
                return CertificateVerdict(
                    False,
                    "disjointness",
                    f"intervals of {format_set(a)} and {format_set(b)} meet",
                )
    # Disjoint subcubes cannot overfill the ambient cube.
    assert sum(1 << (f.bit_count() - a.bit_count()) for a, f in ps) <= 1 << cert.ground_size
    return CertificateVerdict(True, None, None)


@lru_cache(maxsize=None)
def _cubes(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """up[s] and down[s]: the subsets of {1..n} above and below s, as
    bitmasks over the 2**n subsets (bit t stands for the set t), so the
    interval [a, f] is up[a] & down[f]."""
    size = 1 << n
    up, down = [0] * size, [0] * size
    up[-1], down[0] = 1 << (size - 1), 1
    # Split on one element e outside (inside) s: the sets with e, and the
    # same sets without e, which sit 2**e bit positions lower.
    for s in range(size - 2, -1, -1):
        e = ~s & (s + 1)
        up[s] = up[s | e] | up[s | e] >> e
    for s in range(1, size):
        e = s & -s
        down[s] = down[s ^ e] | down[s ^ e] << e
    return tuple(up), tuple(down)


def find_certificate(fam: Family) -> Certificate | None:
    """Exhaustively decide certificate existence, returning one witness.

    Members are processed smallest first (by size, then mask value);
    candidate images for a member run from the member itself upward.
    Two kinds of image are dropped before the search: those too small to
    head an m-set filter, and those whose cube [A, F] holds another
    member B, which would meet [B, F_B] at B whatever F_B is. A branch
    dies as soon as its interval meets the sets covered so far (a
    repeated image always does, since f lies in both intervals) or the
    up-closure of the images grows past the family size. The search is
    depth-first on a flat stack, so the member count sets no recursion
    limit: per member, the next candidate index and the up-closure of
    the images before it, which cannot be undone. The one covered mask
    is undone by XOR on backtrack, exact as the chosen intervals are
    disjoint. All orders are fixed, so the outcome and the witness are
    deterministic. None means a proof of nonexistence, not a giving-up;
    running out of memory is refused (ResourceLimitError).
    """
    n = fam.ground_size
    if n > DECISION_CAP:
        raise ResourceLimitError(
            f"certificate decision is exhaustive only up to ground size {DECISION_CAP}"
        )
    try:
        up, down = _cubes(n)
        members = sorted(fam.members, key=lambda a: (a.bit_count(), a))
        m = len(members)
        member_bits = sum(1 << a for a in members)
        # An image with more than m supersets can never sit inside an m-set
        # filter, so candidates below that size are dead from the start. So
        # is an image whose cube holds another member b: that cube always
        # meets [b, F_b] at b. The rest run smallest first.
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
        # members[k] takes cand[k][pos[k] - 1]; closure[k] closes the
        # images of members[:k].
        pos, closure = [0] * m, [0] * (m + 1)
        covered = k = 0
        while k < m:
            above_a, fs, base = up[members[k]], cand[k], closure[k]
            for i in range(pos[k], len(fs)):
                iv = above_a & down[fs[i]]
                if not iv & covered:
                    grown = base | up[fs[i]]
                    if grown.bit_count() <= m:
                        break
            else:
                # This member has no image left: retry its predecessor.
                if not k:
                    return None
                pos[k] = 0
                k -= 1
                covered ^= up[members[k]] & down[cand[k][pos[k] - 1]]
                continue
            pos[k] = i + 1
            covered |= iv
            closure[k + 1] = grown
            k += 1
        # The closure prune bounds |closure| by m and distinct images force
        # |closure| >= m, so the images are exactly their own up-closure.
        assert closure[m].bit_count() == m
        return Certificate(n, tuple((a, c[p - 1]) for a, c, p in zip(members, cand, pos)))
    except MemoryError:
        raise ResourceLimitError("certificate decision ran out of memory") from None
