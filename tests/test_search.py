"""Degree budgets, the structured shape search, and the exhaustive
small-ground sweeps.

The n = 8 two-pair search result is validated two independent ways: the
known 11-set family must appear verbatim, and the full labeled list
must be exactly the disjoint union of the relabeling orbits of the
canonical representatives under the 192 ground-set permutations that
preserve the missing-pair structure.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from unionclosed import (
    CANONICAL_CAP,
    Certificate,
    CounterexampleReport,
    ENUMERATION_CAP,
    Family,
    FamilyFormatError,
    ResourceLimitError,
    SEARCH_CAP,
    SearchShape,
    conjecture_sweep,
    degree_budget_feasible,
    find_certificate,
    full_mask,
    is_filter,
    min_even_ground_size,
    minimal_counterexample,
    search_counterexamples,
    verify_certificate,
)
from unionclosed.search import _canonical_key, _certified_codes, _filters
from helpers import (
    as_sets,
    brute_certificate_exists,
    brute_certified_families,
    brute_filters,
    canonical_form,
    relabel,
)

TWO_PAIRS = SearchShape(8, ((1, 2), (3, 4)))


# ---------------------------------------------------------------- budgets


def test_degree_budget_feasibility_threshold():
    assert [degree_budget_feasible(n) for n in (2, 4, 6, 8, 10)] == [
        False,
        False,
        False,
        True,
        True,
    ]


def test_degree_budget_rejects_underived_cases():
    for bad in (0, 1, 7, -2, True):
        with pytest.raises(ValueError):
            degree_budget_feasible(bad)


def test_min_even_ground_size():
    assert min_even_ground_size() == 8


# ------------------------------------------------------------------ shape


def test_shape_normalizes_pairs():
    shape = SearchShape(8, ((4, 3), (2, 1)))
    assert shape.missing_pairs == ((1, 2), (3, 4))


@pytest.mark.parametrize(
    "pairs",
    [
        ((1, 1),),
        ((0, 2),),
        ((1, 9),),
        ((1, 2), (2, 1)),
        ((1,),),
        ((1, "2"),),
        ((True, 2),),
    ],
)
def test_shape_rejects_bad_pairs(pairs):
    with pytest.raises(FamilyFormatError):
        SearchShape(8, pairs)


# ----------------------------------------------------------------- report


def test_report_construction_reverifies():
    report = minimal_counterexample()
    assert CounterexampleReport(report.family, report.certificate) == report
    raw = report.to_dict()
    rebuilt = CounterexampleReport(
        Family.from_dict(raw["family"]), Certificate.from_dict(raw["certificate"])
    )
    assert rebuilt == report and rebuilt.to_dict() == raw


def test_report_rejects_tampering():
    report = minimal_counterexample()
    with pytest.raises(TypeError):
        # the frequencies are derived from the family, never supplied
        CounterexampleReport(report.family, report.certificate, (9,) * 8, 9)
    with pytest.raises(ValueError):
        # a certificate of another family fails the coverage clause
        CounterexampleReport(report.family, Certificate(8, report.certificate.pairs[1:]))
    power = Family(2, (0, 1, 2, 3))
    cert = Certificate(2, ((0, 0), (1, 1), (2, 2), (3, 3)))
    with pytest.raises(ValueError):
        # certified but element 1 reaches half, so not a counterexample
        CounterexampleReport(power, cert)


def test_minimal_counterexample_matches_the_known_listing():
    # the eleven sets, retyped here as a transcription cross-check
    listing = [
        {1, 2, 3, 4, 5, 6, 7, 8},
        {2, 4, 6, 7, 8},
        {1, 3, 5, 8},
        {1, 4, 7, 8},
        {2, 3, 5, 6},
        {1, 3, 7},
        {2, 3, 5},
        {2, 4, 6},
        {4, 5, 6, 7},
        {8},
        {1},
    ]
    report = minimal_counterexample()
    assert len(listing) == len(report.family) == 11
    assert set(map(frozenset, listing)) == set(as_sets(report.family))
    assert report.frequency == (5,) * 8
    assert report.max_frequency == 5
    assert verify_certificate(report.family, report.certificate)
    # each member pairs with the image that omits the listed elements
    full = full_mask(8)
    image_of = dict(report.certificate.pairs)
    assert image_of[full] == full
    for miss, member in [(1, {2, 4, 6, 7, 8}), (5, {1, 3, 7}), (8, {4, 5, 6, 7})]:
        mask = sum(1 << (e - 1) for e in member)
        assert image_of[mask] == full ^ (1 << (miss - 1))
    assert image_of[1 << 7] == full ^ 0b11
    assert image_of[1] == full ^ 0b1100


# ----------------------------------------------------------------- search


def stabilizer_perms():
    """All 192 permutations of [8] preserving {{1,2},{3,4}} as a pair set."""
    out = []
    for first, second in (((1, 2), (3, 4)), ((3, 4), (1, 2))):
        for a in itertools.permutations(first):
            for b in itertools.permutations(second):
                for rest in itertools.permutations((5, 6, 7, 8)):
                    out.append(a + b + rest)
    return out


def test_two_pair_search_finds_every_labeled_family():
    reports = search_counterexamples(TWO_PAIRS)
    assert len(reports) == 1344
    families = {r.family.members for r in reports}
    assert len(families) == 1344
    assert minimal_counterexample().family.members in families
    for r in reports:
        assert r.family.ground_size == 8 and len(r.family) == 11
        assert r.frequency == (5,) * 8

    # orbit consistency: the canonical representatives, pushed through
    # every structure-preserving relabeling, must tile the labeled list
    reps = search_counterexamples(TWO_PAIRS, canonical=True)
    assert len(reps) == 7
    perms = stabilizer_perms()
    assert len(perms) == 192
    seen: set = set()
    for rep in reps:
        orbit = {relabel(rep.family.members, 8, p) for p in perms}
        assert len(orbit) == 192
        assert not (orbit & seen)
        seen |= orbit
    assert seen == families


@pytest.mark.parametrize(
    "pairs, perm",
    [
        # 1->1 2->5 3->2 4->7, the rest onto the free labels in order
        (((1, 5), (2, 7)), (1, 5, 2, 7, 3, 4, 6, 8)),
        (((2, 4), (7, 8)), (7, 8, 2, 4, 1, 3, 5, 6)),
    ],
)
def test_relabeled_shape_finds_the_relabeled_families(pairs, perm):
    # The free pairs are oriented in an order that depends on the labels,
    # so a relabeled shape walks a different tree to the same families.
    shape = SearchShape(8, pairs)
    assert shape.missing_pairs == tuple(
        sorted(tuple(sorted(perm[e - 1] for e in p)) for p in TWO_PAIRS.missing_pairs)
    )
    base = {r.family.members for r in search_counterexamples(TWO_PAIRS)}
    moved = {r.family.members for r in search_counterexamples(shape)}
    assert moved == {relabel(members, 8, perm) for members in base}


def test_canonical_key_separates_every_orbit_on_ground_three():
    by_key: dict = {}
    by_form: dict = {}
    for code in range(1 << 8):
        members = tuple(m for m in range(8) if code >> m & 1)
        by_key.setdefault(_canonical_key(members, 3), set()).add(code)
        by_form.setdefault(canonical_form(as_sets(Family(3, members)), 3), set()).add(code)
    assert len(by_form) == 80  # relabeling classes of families on [3]
    assert sorted(map(sorted, by_key.values())) == sorted(map(sorted, by_form.values()))


@st.composite
def families_with_relabeling(draw):
    n = draw(st.integers(1, 6))
    masks = st.integers(0, (1 << n) - 1)
    first = tuple(sorted(draw(st.sets(masks, max_size=8))))
    second = tuple(sorted(draw(st.sets(masks, max_size=8))))
    perm = draw(st.permutations(range(1, n + 1)))
    return n, first, second, perm


@settings(deadline=None)
@given(families_with_relabeling())
def test_canonical_key_is_a_complete_relabeling_invariant(case):
    n, first, second, perm = case
    key = _canonical_key(first, n)
    assert _canonical_key(relabel(first, n, perm), n) == key
    same_orbit = canonical_form(as_sets(Family(n, first)), n) == canonical_form(
        as_sets(Family(n, second)), n
    )
    assert (_canonical_key(second, n) == key) == same_orbit


def test_canonical_key_searches_a_single_cell():
    # Each family below puts all eight elements in one invariant cell, so
    # the key has to try every relabeling of that cell.
    symmetric = tuple(sorted([0, 0xFF] + [1 << i for i in range(8)]))
    cycle = tuple(sorted((1 << i) | (1 << (i + 1) % 8) for i in range(8)))
    two_squares = tuple(
        sorted((1 << (b + i)) | (1 << (b + (i + 1) % 4)) for b in (0, 4) for i in range(4))
    )
    perm = (3, 8, 1, 6, 2, 7, 5, 4)
    # every relabeling fixes the symmetric family, so it is its own key
    assert _canonical_key(relabel(symmetric, 8, perm), 8) == symmetric
    assert relabel(cycle, 8, perm) != cycle
    assert _canonical_key(relabel(cycle, 8, perm), 8) == _canonical_key(cycle, 8)
    assert _canonical_key(two_squares, 8) != _canonical_key(cycle, 8)


def test_search_worker_count_does_not_change_results():
    assert search_counterexamples(TWO_PAIRS, workers=3) == search_counterexamples(
        TWO_PAIRS
    )


@pytest.fixture()
def serial_pool(monkeypatch):
    """Replace the process pool by one that maps in this process and
    records the max_workers it was asked for."""
    sizes: list[int] = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, jobs):
            return map(func, jobs)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    return sizes


@pytest.mark.parametrize("cpus, pool_sizes", [(3, [3]), (None, [])])
def test_worker_count_is_clamped_to_the_cpu_count(
    serial_pool, monkeypatch, cpus, pool_sizes
):
    expected = search_counterexamples(TWO_PAIRS)
    monkeypatch.setattr("unionclosed.search.os.cpu_count", lambda: cpus)
    assert search_counterexamples(TWO_PAIRS, workers=10**6) == expected
    assert serial_pool == pool_sizes


def test_infeasible_shapes_come_back_empty():
    assert search_counterexamples(SearchShape(6, ((1, 2), (3, 4)))) == []
    assert search_counterexamples(SearchShape(8, ((1, 2),))) == []
    # overlapping pairs pass the up-front budget cut and need the backtrack
    assert search_counterexamples(SearchShape(8, ((1, 2), (2, 3)))) == []


def test_search_guards():
    with pytest.raises(ResourceLimitError):
        search_counterexamples(SearchShape(SEARCH_CAP + 2, ((1, 2), (3, 4))))
    with pytest.raises(ValueError):
        search_counterexamples(TWO_PAIRS, workers=0)
    # refused before searching, even for a shape with no solutions
    with pytest.raises(ResourceLimitError):
        search_counterexamples(
            SearchShape(CANONICAL_CAP + 1, ((1, 2), (3, 4))), canonical=True
        )
    assert CANONICAL_CAP <= SEARCH_CAP


# ------------------------------------------------------------------ sweep


def test_sweep_ground_one():
    summary = conjecture_sweep(1)
    assert summary == (1, 2, 2, ())


def test_sweep_ground_two_matches_brute_force():
    summary = conjecture_sweep(2)
    assert summary.scanned == 14
    assert summary.violations == ()
    expected = 0
    for code in range(2, 16):
        fam = Family(2, tuple(i for i in range(4) if code >> i & 1))
        expected += brute_certificate_exists(as_sets(fam), 2)
    assert summary.certified == expected == 13


def test_sweep_ground_three_matches_brute_force():
    summary = conjecture_sweep(3)
    assert summary.scanned == 254
    assert summary.violations == ()
    expected = 0
    for code in range(2, 256):
        fam = Family(3, tuple(i for i in range(8) if code >> i & 1))
        expected += brute_certificate_exists(as_sets(fam), 3)
    assert summary.certified == expected == 192


def test_filter_walk_finds_every_nonempty_filter():
    # Dedekind numbers less one (OEIS A000372): the empty up-set is left out
    for n, count in ((1, 2), (2, 5), (3, 19), (4, 167)):
        found = _filters(n)
        assert len(found) == len(set(found)) == count
        assert all(is_filter(Family(n, f)) for f in found)
    for n in (1, 2, 3):
        expected = {
            frozenset(f) for size in range(1, (1 << n) + 1) for f in brute_filters(n, size)
        }
        assert {frozenset(as_sets(Family(n, f))) for f in _filters(n)} == expected


def certified_families(n: int) -> list[Family]:
    marks = _certified_codes(n)
    assert len(marks) == 1 << (1 << n)
    return [
        Family(n, tuple(a for a in range(1 << n) if code >> a & 1))
        for code, hit in enumerate(marks)
        if hit
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_certified_codes_are_the_brute_force_families(n):
    got = {frozenset(as_sets(fam)) for fam in certified_families(n)}
    assert got == brute_certified_families(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_certified_codes_are_the_decided_families(n):
    space = 1 << n
    decided = []
    for code in range(1, 1 << space):
        fam = Family(n, tuple(i for i in range(space) if code >> i & 1))
        if find_certificate(fam) is not None:
            decided.append(fam)
    assert certified_families(n) == decided


def test_sweep_guards():
    for bad in (0, True):
        with pytest.raises(ValueError):
            conjecture_sweep(bad)
    with pytest.raises(ResourceLimitError):
        conjecture_sweep(ENUMERATION_CAP + 1)


def test_sweep_finds_no_violation_at_small_grounds():
    assert conjecture_sweep(2).violations == ()
    assert conjecture_sweep(3).violations == ()
