"""Interval certificates: a filter image for each member, disjoint cubes.

A certificate pairs every member A of a family with an image F_A so that

  - the pairing covers the family exactly and the images are distinct,
  - A is contained in F_A,
  - the images form a filter,
  - the cube intervals [A, F_A] are pairwise disjoint.

Verification names the first violated clause instead of returning a bare
bool, so broken certificates can be loaded and diagnosed. The searcher
decides existence exhaustively for ground sizes up to DECISION_CAP, by a
depth-first search on an explicit stack that takes the members smallest
first. Each cube [A, F_A] is a bitmask over the 2**n subsets (the lattice
tables of _cubes), so one clash test against the sets covered so far
catches both interval overlaps and repeated images. Before the search it
drops every image too small for the family size and every image whose
cube holds another member; during it, it prunes an up-closure past the
family size. It is deterministic: same family in, same certificate out.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple

from .family import (
    MAX_GROUND,
    Family,
    FamilyFormatError,
    ResourceLimitError,
    elements_of,
    format_set,
    full_mask,
    is_filter,
    iter_supersets,
    mask_from_elements,
)

# Exhaustive decision is exponential in the worst case. At 12 the lattice
# has 4096 sets, and _cubes holds two 4096-entry tables of 4096-bit ints,
# about 4 MB.
DECISION_CAP = 12


@dataclass(frozen=True)
class Certificate:
    """An ordered list of (member, image) mask pairs over one ground set.

    Construction checks only shape (masks inside the ground set) and
    fixes a canonical pair order; the mathematical clauses live in
    verify_certificate so that invalid certificates remain loadable.
    """

    ground_size: int
    pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        n = self.ground_size
        if isinstance(n, bool) or not isinstance(n, int) or not 0 <= n <= MAX_GROUND:
            raise FamilyFormatError(
                f"ground size must be an integer in 0..{MAX_GROUND}, got {n!r}"
            )
        limit = full_mask(n)
        pairs = tuple(sorted((int(a), int(f)) for a, f in self.pairs))
        for a, f in pairs:
            if a < 0 or a & ~limit or f < 0 or f & ~limit:
                raise FamilyFormatError(
                    f"pair ({a:#x}, {f:#x}) does not fit ground size {n}"
                )
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def from_dict(cls, data: object) -> "Certificate":
        """Parse {"ground": n, "pairs": [{"set": [...], "image": [...]}, ...]}."""
        if not isinstance(data, dict) or set(data) != {"ground", "pairs"}:
            raise FamilyFormatError(
                'certificate data must have exactly the keys "ground" and "pairs"'
            )
        ground = data["ground"]
        raw = data["pairs"]
        if isinstance(ground, bool) or not isinstance(ground, int):
            raise FamilyFormatError('"ground" must be an integer')
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
    """
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
    member B, which would meet [B, F_B] at B whatever F_B is. The state
    of a branch is two lattice bitmasks: the sets covered by the
    intervals assigned so far and the up-closure of their images. A
    branch dies as soon as a chosen interval meets a covered set (a
    repeated image always does, since f lies in both intervals) or the
    up-closure grows past the family size. The depth-first search runs
    on an explicit stack, so the member count sets no recursion limit,
    and backtracking only drops a level. All orders are fixed, so the
    outcome and the returned witness are deterministic.
    None means a proof of nonexistence, not a giving-up.
    """
    n = fam.ground_size
    if n > DECISION_CAP:
        raise ResourceLimitError(
            f"certificate decision is exhaustive only up to ground size {DECISION_CAP}"
        )
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

    def live(k: int, covered: int, closure: int) -> Iterator[tuple[int, int, int]]:
        """Each image members[k] can take, with the state it leaves."""
        above_a = up[members[k]]
        for f in cand[k]:
            iv = above_a & down[f]
            if iv & covered:
                continue
            grown = closure | up[f]
            if grown.bit_count() <= m:
                yield f, covered | iv, grown

    # chosen[k] is the image of members[k] with the state it leaves.
    chosen: list[tuple[int, int, int]] = []
    levels: list[Iterator[tuple[int, int, int]]] = []
    while len(chosen) < m:
        if len(levels) == len(chosen):
            _, covered, closure = chosen[-1] if chosen else (0, 0, 0)
            levels.append(live(len(chosen), covered, closure))
        step = next(levels[-1], None)
        if step is None:
            # This member has no image left: retry its predecessor.
            levels.pop()
            if not chosen:
                return None
            chosen.pop()
            continue
        chosen.append(step)
    # The closure prune bounds |closure| by m and distinct images force
    # |closure| >= m, so the images are exactly their own up-closure.
    assert (chosen[-1][2] if chosen else 0).bit_count() == m
    return Certificate(n, tuple((a, f) for a, (f, _, _) in zip(members, chosen)))

