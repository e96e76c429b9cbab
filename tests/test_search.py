"""Degree budgets, the structured shape search, and the exhaustive
small-ground sweeps.

The n = 8 two-pair search result is validated two independent ways: the
known 11-set family must appear verbatim, and the full labeled list
must be exactly the disjoint union of the relabeling orbits of the
canonical representatives under the 192 ground-set permutations that
preserve the missing-pair structure.
"""

import copy
import itertools
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

import unionclosed.search
import unionclosed.skeleton

from unionclosed import (
    CANONICAL_CAP,
    Certificate,
    CounterexampleReport,
    ENUMERATION_CAP,
    Family,
    FamilyFormatError,
    MAX_GROUND,
    ResourceLimitError,
    SEARCH_CAP,
    SearchShape,
    conjecture_sweep,
    degree_budget_feasible,
    find_certificate,
    frankl_check,
    full_mask,
    is_filter,
    min_even_ground_size,
    minimal_counterexample,
    search_counterexamples,
    verify_certificate,
)
from unionclosed.search import (
    _canonical_key,
    _certified_codes,
    _filters,
    _search_reports,
    _skeleton_images,
    _violations,
)
from unionclosed.skeleton import (
    _key_struct,
    _pair_symmetries,
    _search_solutions,
    _unit_orbits,
)
from helpers import (
    all_subsets,
    as_sets,
    brute_certificate_exists,
    brute_certified_families,
    brute_filters,
    canonical_form,
    dedupe_canonical,
    interval,
    relabel,
    unit_by_unit_solutions,
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


@pytest.mark.parametrize("n", [0, MAX_GROUND + 1, True, "8"])
def test_shape_rejects_bad_ground_sizes(n):
    with pytest.raises(FamilyFormatError):
        SearchShape(n)


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


# ---------------------------------------------------------------- records


def _record_triples():
    """Per record class: two equal values built apart, and a third value."""
    report = minimal_counterexample()
    return {
        "Family": (Family(3, (5, 1, 0)), Family(3, (0, 1, 5)), Family(3, (0, 1))),
        "Certificate": (
            Certificate(2, ((3, 3), (0, 1))),
            Certificate(2, ((0, 1), (3, 3))),
            Certificate(2, ((0, 3),)),
        ),
        "SearchShape": (
            SearchShape(8, ((2, 1),)),
            SearchShape(8, ((1, 2),)),
            SearchShape(8, ((3, 4),)),
        ),
        "CounterexampleReport": (
            report,
            CounterexampleReport(report.family, report.certificate),
            search_counterexamples(TWO_PAIRS)[0],
        ),
    }


@pytest.mark.parametrize(
    "cls", ["Family", "Certificate", "SearchShape", "CounterexampleReport"]
)
def test_records_are_frozen_values(cls):
    triples = _record_triples()
    a, b, c = triples[cls]
    assert type(a).__name__ == cls
    assert a == b and hash(a) == hash(b) and not a != b
    assert a != c
    for name, (other, _, _) in triples.items():
        if name != cls:
            assert a != other and other != a
    name = a.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(a, name, getattr(b, name))
    with pytest.raises(AttributeError):
        delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b
    fields = ", ".join(f"{f}={getattr(a, f)!r}" for f in a.__slots__)
    assert repr(a) == f"{cls}({fields})"
    for copied in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
        assert type(copied) is type(a) and copied == a and hash(copied) == hash(a)


def test_records_of_different_classes_never_compare_equal():
    # same field values, different classes
    records = [Family(8), Certificate(8), SearchShape(8)]
    for a, b in itertools.permutations(records, 2):
        assert a != b and not a == b
    assert Family(8) != (8, ())


def test_record_repr_keeps_the_field_spelling():
    assert repr(SearchShape(8, ((2, 1),))) == "SearchShape(ground_size=8, missing_pairs=((1, 2),))"
    assert repr(Family(2, (3, 0))) == "Family(ground_size=2, members=(0, 3))"


def test_record_copies_run_the_checks_again(monkeypatch):
    report = minimal_counterexample()
    assert report.__reduce__() == (
        CounterexampleReport, (report.family, report.certificate)
    )
    data = pickle.dumps(report)
    verified = []

    def counting(fam, cert):
        verified.append(fam)
        return verify_certificate(fam, cert)

    monkeypatch.setattr(unionclosed.search, "verify_certificate", counting)
    assert pickle.loads(data) == report and copy.deepcopy(report) == report
    assert verified == [report.family, report.family]


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


@pytest.mark.parametrize(
    "n, pairs",
    [
        (8, ((1, 2), (3, 4))),
        (8, ((1, 3), (4, 6))),
        (8, ((2, 7), (4, 5))),
        (8, ((1, 2), (2, 3))),  # no solutions
        (6, ((1, 2), (3, 4))),
        (7, ((1, 2), (3, 4))),
        # three pairs at n = 7 do have solutions; the path 1-2-3-4 also has
        # a symmetry, (1 4)(2 3), that the relabelings tried do not reach
        (7, ((1, 2), (3, 4), (5, 6))),
        (7, ((1, 2), (3, 4), (4, 5))),
        (7, ((1, 2), (2, 3), (3, 4))),
    ],
)
def test_orbit_search_matches_the_unit_by_unit_oracle(n, pairs):
    pairs = SearchShape(n, pairs).missing_pairs
    got = [s for group in relabeled_groups(n, pairs) for s in group]
    full = full_mask(n)
    want = [(full, *a, *b) for a, b in unit_by_unit_solutions(n, pairs)]
    assert sorted(got) == sorted(want)


def relabeled_groups(n, pairs):
    """Each representative's solution and its relabelings, as member
    tuples aligned with the skeleton images: every (member, image) pair
    goes through the table, and the members are put back in the order of
    the images they now pair with."""
    images = _skeleton_images(n, pairs)
    position = {f: i for i, f in enumerate(images)}
    for sol, tables in _search_solutions(n, pairs):
        yield [
            tuple(a for _, a in sorted((position[t[f]], t[a]) for a, f in zip(sol, images)))
            for t in tables
        ]


GROUPED_SHAPES = [
    (8, ((1, 2), (3, 4))),
    (8, ((1, 3), (4, 6))),
    (8, ((1, 2), (2, 3))),  # no solutions
    (7, ((1, 2), (3, 4), (5, 6))),
    (7, ((1, 2), (3, 4), (4, 5))),
    (7, ((1, 2), (2, 3), (3, 4))),
]


@pytest.mark.parametrize("n, pairs", GROUPED_SHAPES)
def test_solution_groups_share_one_canonical_key(n, pairs):
    shape = SearchShape(n, pairs)
    groups = list(relabeled_groups(n, shape.missing_pairs))
    for group in groups:
        keys = {_canonical_key(tuple(sorted(sol)), n) for sol in group}
        assert len(keys) == 1
    if shape == TWO_PAIRS:
        # one group per solution at the representative of the 16-unit
        # orbit; the 4-unit orbit has none
        assert [len(group) for group in groups] == [16] * 84


@pytest.mark.parametrize("n, pairs", GROUPED_SHAPES)
def test_search_sorts_as_the_report_list(n, pairs):
    # the search sorts flat keys and builds each report from its key; that
    # must be the order of the reports themselves, also where one family
    # carries two certificates (744 families from 1,248 solutions at n = 7)
    shape = SearchShape(n, pairs)
    images = _skeleton_images(n, shape.missing_pairs)
    reports = [
        CounterexampleReport(Family(n, sol), Certificate(n, tuple(zip(sol, images))))
        for group in relabeled_groups(n, shape.missing_pairs)
        for sol in group
    ]
    reports.sort(key=lambda r: (r.family.members, r.certificate.pairs))
    assert search_counterexamples(shape) == reports


@settings(deadline=None, max_examples=200)
@given(st.data(), st.sampled_from([1, 7, 8, 9, 10]), st.integers(1, 13))
def test_packed_keys_sort_as_their_tuples(data, n, m):
    # one byte a mask up to n = 8 and two above; every key of a shape has
    # one length, so the bytes sort as the tuples of their fields
    field = st.integers(0, (1 << n) - 1)
    keys = data.draw(st.lists(st.tuples(*[field] * (2 * m)), max_size=30))
    packer = _key_struct(n, m)
    assert packer.size == 2 * m * (1 if n <= 8 else 2)
    packed = [packer.pack(*key) for key in keys]
    assert [packer.unpack(key) for key in packed] == keys
    assert sorted(packed) == [packer.pack(*key) for key in sorted(keys)]


def test_two_byte_keys_give_the_tuple_key_order():
    # 1,2:1,3:1,4 at n = 9 packs two bytes a mask; its 49,680 reports come
    # in the order of tuple keys built straight from the backtrack
    shape = SearchShape(9, ((1, 2), (1, 3), (1, 4)))
    images = _skeleton_images(9, shape.missing_pairs)
    want = sorted(
        tuple(a for a, _ in pairs) + tuple(f for _, f in pairs)
        for group in relabeled_groups(9, shape.missing_pairs)
        for sol in group
        for pairs in [sorted(zip(sol, images))]
    )
    found, built, reports = _search_reports(shape, canonical=False)
    assert found == built == len(want) == 49680
    got = (r.family.members + tuple(f for _, f in r.certificate.pairs) for r in reports)
    for key, expected in itertools.zip_longest(got, want):
        assert key == expected


@pytest.mark.parametrize("n, pairs", GROUPED_SHAPES)
def test_orbit_tables_relabel_the_skeleton_onto_itself(n, pairs):
    # a relabeling that maps the pair set onto itself maps the skeleton's
    # images onto themselves, so it carries a certificate onto the
    # skeleton to another one, whatever order the images take
    pairs = SearchShape(n, pairs).missing_pairs
    images = _skeleton_images(n, pairs)
    size = 1 << n
    singletons = sorted(1 << e for e in range(n))
    last = None
    for sol, tables in _search_solutions(n, pairs):
        if tables is not last:  # the solutions of one orbit share its tables
            last = tables
            assert tables[0] == list(range(size))
            for t in tables:
                assert all(t[a | b] == t[a] | t[b] for a in range(size) for b in range(size))
                assert sorted(t[s] for s in singletons) == singletons
                assert sorted(t[f] for f in images) == sorted(images)
        for t in tables:
            moved = tuple((t[a], t[f]) for a, f in zip(sol, images))
            family = Family(n, [a for a, _ in moved])
            assert verify_certificate(family, Certificate(n, moved))


@pytest.mark.parametrize("n, pairs", GROUPED_SHAPES)
def test_canonical_search_matches_per_report_dedup(n, pairs):
    shape = SearchShape(n, pairs)
    expected = dedupe_canonical(search_counterexamples(shape))
    assert search_counterexamples(shape, canonical=True) == expected


def test_canonical_search_keys_each_group_once(monkeypatch):
    keyed, verified = [], []

    def key_spy(members, n):
        keyed.append(members)
        return _canonical_key(members, n)

    def verify_spy(fam, cert):
        verified.append(fam)
        return verify_certificate(fam, cert)

    monkeypatch.setattr(unionclosed.search, "_canonical_key", key_spy)
    monkeypatch.setattr(unionclosed.search, "verify_certificate", verify_spy)
    assert len(search_counterexamples(TWO_PAIRS, canonical=True)) == 7
    assert len(keyed) == 84
    # every report is still built and verified
    assert len(verified) == 1344


@pytest.mark.parametrize("canonical", [False, True], ids=["plain", "canonical"])
def test_search_reads_the_backtrack_once(monkeypatch, canonical):
    expected = search_counterexamples(TWO_PAIRS, canonical=canonical)
    assert len(expected) == (7 if canonical else 1344)
    real = _search_solutions

    def one_shot(n, missing):
        return iter(list(real(n, missing)))

    monkeypatch.setattr(unionclosed.skeleton, "_search_solutions", one_shot)
    assert search_counterexamples(TWO_PAIRS, canonical=canonical) == expected


def _group_order(gens, n):
    """Size of the permutation group of range(n) generated by gens."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = tuple(g[e] for e in p)
            if q not in group:
                group.add(q)
                frontier.append(q)
    return len(group)


def _labels(table, n):
    """The relabeling of each element that a subset table applies."""
    return tuple(table[1 << e].bit_length() - 1 for e in range(n))


def _pair_sets(n):
    edges = list(itertools.combinations(range(n), 2))
    for k in range(4):
        yield from itertools.combinations(edges, k)


@pytest.mark.parametrize("n", range(2, 7))
def test_pair_symmetries_against_brute_force(n):
    for pairs in _pair_sets(n):
        as_set = {frozenset(p) for p in pairs}
        stabilizer = [
            s for s in itertools.permutations(range(n))
            if {frozenset(s[e] for e in p) for p in pairs} == as_set
        ]
        found = [(_labels(t, n), pi) for t, pi in _pair_symmetries(n, list(pairs))]
        for sigma, pi in found:
            assert sigma in stabilizer
            for k, (i, j) in enumerate(pairs):
                assert {sigma[i], sigma[j]} == set(pairs[pi[k]])
        order = _group_order([sigma for sigma, _ in found], n)
        if len({e for p in pairs for e in p}) == 2 * len(pairs):
            k = len(pairs)
            assert order == 2**k * math.factorial(k) * math.factorial(n - 2 * k)
        assert order == len(stabilizer)
    assert _group_order([_labels(t, 6) for t, _ in _pair_symmetries(6, [(0, 1), (2, 3)])], 6) == 16


def test_two_pair_units_form_two_orbits(monkeypatch):
    seen = []

    def spy(units, n, symmetries):
        seen.append((units, list(_unit_orbits(units, n, symmetries))))
        return iter(seen[-1][1])

    monkeypatch.setattr(unionclosed.skeleton, "_unit_orbits", spy)
    list(_search_solutions(8, TWO_PAIRS.missing_pairs))  # a generator runs when read
    (units, orbits), = seen
    assert len(units) == 20
    assert sorted(len(tables) for _, tables in orbits) == [4, 16]
    # each recorded relabeling maps the orbit's first unit onto a unit of
    # its own, and the orbits reach every unit once
    pair_index = {frozenset(p): k for k, p in enumerate(((0, 1), (2, 3)))}
    reached = []
    for first, tables in orbits:
        for table in tables:
            sigma = _labels(table, 8)
            moved = [0, 0]
            for k, p in enumerate(((0, 1), (2, 3))):
                image = pair_index[frozenset(sigma[e] for e in p)]
                moved[image] = sum(1 << sigma[e] for e in range(8) if first[k] >> e & 1)
            reached.append(units.index(tuple(moved)))
    assert sorted(reached) == list(range(20))


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


def test_infeasible_shapes_come_back_empty():
    assert search_counterexamples(SearchShape(6, ((1, 2), (3, 4)))) == []
    assert search_counterexamples(SearchShape(8, ((1, 2),))) == []
    # overlapping pairs pass the up-front budget cut and need the backtrack
    assert search_counterexamples(SearchShape(8, ((1, 2), (2, 3)))) == []


def test_search_guards():
    with pytest.raises(ResourceLimitError):
        search_counterexamples(SearchShape(SEARCH_CAP + 2, ((1, 2), (3, 4))))
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


def decode_filters(n: int) -> list[tuple[int, ...]]:
    # a filter code has bit f set for each image f
    return [tuple(f for f in range(1 << n) if code >> f & 1) for code in _filters(n)]


def test_filter_walk_finds_every_nonempty_filter():
    # Dedekind numbers less one (OEIS A000372): the empty up-set is left out
    for n, count in ((1, 2), (2, 5), (3, 19), (4, 167)):
        found = decode_filters(n)
        assert len(found) == len(set(found)) == count
        assert all(is_filter(Family(n, f)) for f in found)
    for n in (1, 2, 3):
        expected = {
            frozenset(f) for size in range(1, (1 << n) + 1) for f in brute_filters(n, size)
        }
        assert {frozenset(as_sets(Family(n, f))) for f in decode_filters(n)} == expected


def certified_families(n: int) -> list[Family]:
    marks = _certified_codes(n)
    assert len(marks) == 1 << (1 << n)
    return [
        Family(n, tuple(a for a in range(1 << n) if code >> a & 1))
        for code, hit in enumerate(marks)
        if hit
    ]


def test_full_set_interval_meets_exactly_the_intervals_above_its_member():
    # why the sweep places the full set's member without a clash test
    subsets = all_subsets(4)
    full = subsets[-1]
    for a in subsets:
        for g in subsets:
            for b in (b for b in subsets if b <= g):
                assert bool(interval(a, full) & interval(b, g)) == (a <= g)


def test_an_interval_holding_another_image_meets_that_image_interval():
    # why the sweep drops a below f when [a, f] holds another image g
    subsets = all_subsets(4)
    for f in subsets:
        for a in (a for a in subsets if a <= f):
            for g in interval(a, f) - {f}:
                for b in (b for b in subsets if b <= g):
                    assert interval(a, f) & interval(b, g)


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


@pytest.mark.parametrize("n, count", [(1, 0), (2, 1), (3, 16), (4, 2303)])
def test_violation_scan_agrees_with_frankl_check(n, count):
    # no certified family violates the property at n <= 4, so mark them all
    space = 1 << n
    marks = bytearray([1]) * (1 << space)
    marks[0] = marks[1] = 0
    expected = []
    for code in range(2, 1 << space):
        fam = Family(n, tuple(a for a in range(space) if code >> a & 1))
        if not frankl_check(fam).holds:
            expected.append(fam)
    expected.sort(key=lambda fam: fam.members)
    assert _violations(n, marks) == tuple(expected)
    assert len(expected) == count


def test_sweep_finds_no_violation_at_small_grounds():
    assert conjecture_sweep(2).violations == ()
    assert conjecture_sweep(3).violations == ()
