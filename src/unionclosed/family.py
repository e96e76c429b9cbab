"""Set families over a small ground set, encoded as bitmasks.

A subset of the ground set {1, ..., n} is a plain int: element i is bit
i - 1. Keeping sets as machine words makes the pairwise checks and the
searches elsewhere in the package cheap. Everything 1-based lives at the
I/O boundary; bit positions are 0-based internally.
"""

from __future__ import annotations

from math import log2
from typing import Iterable, Iterator, NamedTuple

# Masks must stay well under native word width; 30 also keeps 2**n loops sane.
MAX_GROUND = 30


class FamilyFormatError(ValueError):
    """Malformed family or certificate data: schema violations, duplicates."""


class ResourceLimitError(RuntimeError):
    """An operation was asked to run beyond its certified exhaustive range."""


def full_mask(ground_size: int) -> int:
    return (1 << ground_size) - 1


def _check_ground(n: object, low: int = 0) -> int:
    """n itself, once it is known to be an int (not a bool) in low..MAX_GROUND."""
    if isinstance(n, bool) or not isinstance(n, int) or not low <= n <= MAX_GROUND:
        raise FamilyFormatError(
            f"ground size must be an integer in {low}..{MAX_GROUND}, got {n!r}"
        )
    return n


def _check_masks(masks: Iterable[object], n: int, what: str) -> list[int]:
    """The masks as a list, once each is known to be an int (not a bool)
    naming a subset of {1..n}; what names a mask in the error."""
    masks = list(masks)
    for m in masks:
        if type(m) is not int and (isinstance(m, bool) or not isinstance(m, int)) or m >> n:
            raise FamilyFormatError(
                f"{what} {m!r} is not an integer mask within ground size {n}"
            )
    return masks


def mask_from_elements(elements: Iterable[int], ground_size: int) -> int:
    """Pack 1-based elements into a mask.

    A bad ground size, out-of-range and repeated elements are rejected:
    this is the parse path for external data, so it must not silently
    normalize.
    """
    _check_ground(ground_size)
    mask = 0
    for e in elements:
        if isinstance(e, bool) or not isinstance(e, int) or not 1 <= e <= ground_size:
            raise FamilyFormatError(
                f"element {e!r} is not an integer in 1..{ground_size}"
            )
        bit = 1 << (e - 1)
        if mask & bit:
            raise FamilyFormatError(f"element {e} repeated within a set")
        mask |= bit
    return mask


def elements_of(mask: int) -> tuple[int, ...]:
    """Unpack a mask into its 1-based elements, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def format_set(mask: int) -> str:
    """Render a mask as {1,3,7}; the empty set renders as {}."""
    return "{" + ",".join(str(e) for e in elements_of(mask)) + "}"


def iter_supersets(mask: int, ground_size: int) -> Iterator[int]:
    """Every superset of mask inside the ground set, mask itself included."""
    free = full_mask(ground_size) & ~mask
    sub = free
    while True:
        yield mask | sub
        if sub == 0:
            return
        sub = (sub - 1) & free


class _Record:
    """Base of the package's frozen value records.

    A subclass names its fields in __slots__, and its __init__ sets them
    with object.__setattr__ and then runs its checks in __post_init__
    (perfbench/traced_cli.py times that method as the record's cost).
    Records compare and hash by their field values and never equal a
    record of another class, print as Cls(field=value, ...), and refuse
    assignment and deletion. Pickling and copying call the class again,
    so the checks also run on every copy.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        """Rebuild from the __init__ arguments, which are all the fields
        unless a subclass derives some."""
        return type(self), self._values()


class Family(_Record):
    """A duplicate-free family of subsets of {1, ..., ground_size}.

    Members are stored sorted by numeric mask value, so equal families
    compare and serialize identically no matter how they were built.
    """

    __slots__ = ("ground_size", "members")
    ground_size: int
    members: tuple[int, ...]

    def __init__(self, ground_size: int, members: tuple[int, ...] = ()) -> None:
        object.__setattr__(self, "ground_size", ground_size)
        object.__setattr__(self, "members", members)
        self.__post_init__()

    def __post_init__(self) -> None:
        n = _check_ground(self.ground_size)
        members = sorted(_check_masks(self.members, n, "member"))
        for a, b in zip(members, members[1:]):
            if a == b:
                raise FamilyFormatError(f"duplicate member {format_set(a)}")
        object.__setattr__(self, "members", tuple(members))

    @classmethod
    def from_sets(cls, ground_size: int, sets: Iterable[Iterable[int]]) -> "Family":
        return cls(ground_size, tuple(mask_from_elements(s, ground_size) for s in sets))

    @classmethod
    def from_dict(cls, data: object) -> "Family":
        """Parse the {"ground": n, "sets": [[1, 4, 7], ...]} form.

        Duplicate sets, duplicate elements within a set, stray keys, and
        out-of-range values all raise FamilyFormatError; a bad "ground"
        does so before any set is read.
        """
        if not isinstance(data, dict) or set(data) != {"ground", "sets"}:
            raise FamilyFormatError(
                'family data must be an object with exactly the keys "ground" and "sets"'
            )
        ground = _check_ground(data["ground"])
        sets = data["sets"]
        if not isinstance(sets, list) or not all(isinstance(s, list) for s in sets):
            raise FamilyFormatError('"sets" must be a list of lists')
        return cls.from_sets(ground, sets)

    def to_dict(self) -> dict:
        return {
            "ground": self.ground_size,
            "sets": [list(elements_of(m)) for m in self.members],
        }

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, mask: object) -> bool:
        return mask in self.members


class UnionClosureVerdict(NamedTuple):
    holds: bool
    witness: tuple[int, int] | None  # a member pair whose union is absent

    def __bool__(self) -> bool:
        return self.holds


class FilterVerdict(NamedTuple):
    holds: bool
    witness: tuple[int, int] | None  # (member, missing one-element-up superset)

    def __bool__(self) -> bool:
        return self.holds


class FranklVerdict(NamedTuple):
    holds: bool
    element: int
    count: int

    def __bool__(self) -> bool:
        return self.holds


class ReimerVerdict(NamedTuple):
    holds: bool
    total: int  # the member sizes summed
    member_count: int
    threshold: float

    def __bool__(self) -> bool:
        return self.holds


def is_union_closed(fam: Family) -> UnionClosureVerdict:
    """Is every pairwise union again a member? Vacuously true when empty.

    The witness on failure is the first offending pair in member order.
    """
    present = set(fam.members)
    ms = fam.members
    for i, a in enumerate(ms):
        for b in ms[i + 1 :]:
            if a | b not in present:
                return UnionClosureVerdict(False, (a, b))
    return UnionClosureVerdict(True, None)


def is_filter(fam: Family) -> FilterVerdict:
    """Is the family an up-set of the subset lattice?

    Checking one element up suffices: if every member plus one missing
    element is a member, induction gives all supersets.
    """
    present = set(fam.members)
    limit = full_mask(fam.ground_size)
    for f in fam.members:
        free = limit & ~f
        while free:
            bit = free & -free
            if f | bit not in present:
                return FilterVerdict(False, (f, f | bit))
            free ^= bit
    return FilterVerdict(True, None)


def frequency_vector(fam: Family) -> tuple[int, ...]:
    """counts[i - 1] = how many members contain element i."""
    counts = [0] * fam.ground_size
    for m in fam.members:
        while m:
            low = m & -m
            counts[low.bit_length() - 1] += 1
            m ^= low
    return tuple(counts)


def frankl_check(fam: Family) -> FranklVerdict:
    """Does some element lie in at least half the members?

    Reports the most frequent element (smallest on ties). The empty
    family and the one-member family {{}} carry no element at all and
    are outside the property's hypothesis, so they are rejected.
    """
    if not fam.members or fam.members == (0,):
        raise ValueError("family must be nonempty and not the bare {{}}")
    counts = frequency_vector(fam)
    best = max(range(fam.ground_size), key=lambda i: (counts[i], -i))
    count = counts[best]
    return FranklVerdict(2 * count >= len(fam.members), best + 1, count)


def reimer_bound_holds(fam: Family) -> ReimerVerdict:
    """Exact check that the average member size is >= log2(m) / 2.

    With m members of total size T, the bound is equivalent to
    m**m <= 2**(2*T), which is decided in big integers. Floats appear
    only in the reported threshold, never in the verdict. The verdict
    carries T and m, whose ratio is the exact average.
    """
    m = len(fam.members)
    if m == 0:
        raise ValueError("family must be nonempty")
    total = sum(x.bit_count() for x in fam.members)
    return ReimerVerdict(m**m <= 1 << (2 * total), total, m, log2(m) / 2)
