"""Certificate model, the interval disjointness predicate, clause-by-clause
verification, and the exhaustive decision search.

The predicate is checked against a materializing oracle over [3] here
(the [4] exhaustive pass lives in the acceptance suite), and the
decision search is cross-checked against the filter-and-bijection brute
force over [2] and on random families over [4], against Reimer's
theorems on seeded families over [8]..[10], and against the
generator-stack decision it replaced (helpers.reference_find_certificate).
"""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from unionclosed import (
    MAX_GROUND,
    Certificate,
    Family,
    FamilyFormatError,
    ResourceLimitError,
    SearchShape,
    elements_of,
    find_certificate,
    full_mask,
    intervals_disjoint,
    is_union_closed,
    minimal_counterexample,
    reimer_bound_holds,
    verify_certificate,
)
from unionclosed import certificates
from unionclosed.certificates import _cubes
from helpers import (
    as_sets,
    brute_certificate_exists,
    interval,
    naive_verdict,
    reference_find_certificate,
    reference_verify_certificate,
    relabel,
)


def submasks(mask):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


# ------------------------------------------------------------ predicates


def test_disjoint_singletons():
    assert intervals_disjoint(0b01, 0b01, 0b10, 0b10)


def test_identical_full_intervals_clash():
    full = full_mask(4)
    assert not intervals_disjoint(0, full, 0, full)


def test_pair_complement_members_are_disjoint():
    # {8} under [8]-{1,2} against {1} under [8]-{3,4}
    a, fa = 1 << 7, full_mask(8) ^ 0b11
    b, fb = 1, full_mask(8) ^ 0b1100
    assert intervals_disjoint(a, fa, b, fb)


def test_interval_pair_examples_on_2():
    assert intervals_disjoint(0b00, 0b01, 0b10, 0b11)
    assert not intervals_disjoint(0b00, 0b01, 0b01, 0b11)  # {1} in both


@pytest.mark.parametrize("fn", [intervals_disjoint])
def test_predicates_reject_member_outside_image(fn):
    with pytest.raises(ValueError):
        fn(0b11, 0b01, 0, 0)
    with pytest.raises(ValueError):
        fn(0, 0, 0b10, 0b01)


def test_predicates_match_materialized_intervals_over_3():
    full = full_mask(3)
    pairs = [(a, fa) for fa in range(full + 1) for a in submasks(fa)]
    for a, fa in pairs:
        ia = interval(frozenset(elements_of(a)), frozenset(elements_of(fa)))
        for b, fb in pairs:
            ib = interval(frozenset(elements_of(b)), frozenset(elements_of(fb)))
            assert intervals_disjoint(a, fa, b, fb) == (not (ia & ib))


def test_cube_masks_match_materialized_intervals_up_to_3():
    for n in range(4):
        up, down = _cubes(n)
        for f in range(1 << n):
            hi = frozenset(elements_of(f))
            for a in range(1 << n):
                lo = frozenset(elements_of(a))
                cube = up[a] & down[f]
                got = {frozenset(elements_of(t)) for t in range(1 << n) if cube >> t & 1}
                assert got == (interval(lo, hi) if lo <= hi else set())


# ----------------------------------------------------------- Certificate


def test_certificate_orders_pairs_canonically():
    cert = Certificate(2, ((0b10, 0b11), (0b01, 0b01)))
    assert cert.pairs == ((0b01, 0b01), (0b10, 0b11))
    assert len(cert) == 2


def test_certificate_rejects_out_of_range_masks():
    with pytest.raises(FamilyFormatError):
        Certificate(2, ((0b100, 0b100),))
    with pytest.raises(FamilyFormatError):
        Certificate(-1, ())
    for pairs in (((1.9, 3),), ((1, True),), ((False, 3),)):
        with pytest.raises(FamilyFormatError):
            Certificate(3, pairs)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Family(3, (1, None)),
        lambda: Family(3, ("x", 2, 1)),
        lambda: Certificate(3, ((1, 3), ("x", 3))),
        lambda: Certificate(3, ((2, None), (1, 3))),
    ],
)
def test_records_name_a_non_integer_mixed_with_integers(build):
    with pytest.raises(FamilyFormatError, match="integer"):
        build()


@pytest.mark.parametrize("pairs", [((1, 3, 7),), ((1,),), (5,)])
def test_certificate_names_a_malformed_pair(pairs):
    with pytest.raises(FamilyFormatError, match=r"pair .* is not a \(member, image\)"):
        Certificate(3, pairs)


# JSON-shaped junk: ints small enough that no check can build a huge mask.
JUNK = st.recursive(
    st.integers(-(2**20), 2**20) | st.booleans() | st.text(max_size=3) | st.none(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["ground", "sets", "pairs", "set", "image"]), inner),
    max_leaves=12,
)
JUNK_TUPLES = st.lists(JUNK, max_size=4).map(tuple)


@settings(max_examples=300, deadline=None)
@given(
    junk=JUNK,
    ground=st.integers(-1, MAX_GROUND + 1) | JUNK,
    entries=JUNK_TUPLES,
    build=st.sampled_from(
        [
            lambda junk, ground, entries: Family.from_dict(junk),
            lambda junk, ground, entries: Certificate.from_dict(junk),
            lambda junk, ground, entries: Family.from_dict({"ground": ground, "sets": junk}),
            lambda junk, ground, entries: Certificate.from_dict({"ground": ground, "pairs": junk}),
            lambda junk, ground, entries: Family(ground, entries),
            lambda junk, ground, entries: Certificate(ground, entries),
            lambda junk, ground, entries: SearchShape(ground, entries),
        ]
    ),
)
def test_records_and_parsers_refuse_junk_only_as_format_errors(junk, ground, entries, build):
    try:
        record = build(junk, ground, entries)
    except FamilyFormatError:
        return
    assert isinstance(record, (Family, Certificate, SearchShape))


@pytest.mark.parametrize(
    "parse, data",
    [
        (Family.from_dict, {"ground": 31, "sets": [[1]]}),
        (Certificate.from_dict, {"ground": 31, "pairs": [{"set": [1], "image": [1]}]}),
    ],
)
def test_parsers_refuse_the_ground_before_building_a_mask(parse, data, monkeypatch):
    def no_masks(elements, ground_size):
        raise AssertionError("a mask was built")

    monkeypatch.setattr("unionclosed.family.mask_from_elements", no_masks)
    monkeypatch.setattr("unionclosed.certificates.mask_from_elements", no_masks)
    with pytest.raises(FamilyFormatError, match="ground size"):
        parse(data)


def test_certificate_dict_round_trip():
    cert = minimal_counterexample().certificate
    assert Certificate.from_dict(cert.to_dict()) == cert


@pytest.mark.parametrize(
    "data",
    [
        {"ground": 2},
        {"ground": 2, "pairs": [], "x": 1},
        {"ground": 2, "pairs": [{"set": [1]}]},
        {"ground": 2, "pairs": [{"set": [1], "image": [1], "y": 2}]},
        {"ground": 2, "pairs": [{"set": [1, 1], "image": [1]}]},
        {"ground": 2, "pairs": [{"set": [1], "image": 3}]},
        {"ground": True, "pairs": []},
        {"ground": 2, "pairs": {"set": [1], "image": [1]}},
    ],
)
def test_certificate_from_dict_rejects_bad_payloads(data):
    with pytest.raises(FamilyFormatError):
        Certificate.from_dict(data)


def test_invalid_certificates_stay_loadable():
    # shape checks only at construction; the math lives in verify
    cert = Certificate(1, ((0, 0b1), (0b1, 0b1)))
    verdict = verify_certificate(Family(1, (0, 0b1)), cert)
    assert not verdict
    assert verdict.clause == "bijectivity"


# ---------------------------------------------------------------- verify


def test_verify_canonical_minimal_certificate():
    report = minimal_counterexample()
    verdict = verify_certificate(report.family, report.certificate)
    assert verdict.valid and verdict.clause is None


def test_verify_single_empty_member():
    fam = Family(3, (0,))
    assert verify_certificate(fam, Certificate(3, ((0, 0b111),)))


def test_verify_clause_coverage():
    fam = Family.from_sets(2, [[1]])
    verdict = verify_certificate(fam, Certificate(2, ((0b10, 0b11),)))
    assert not verdict and verdict.clause == "coverage"


def test_verify_clause_containment():
    fam = Family.from_sets(2, [[1], [2]])
    cert = Certificate(2, ((0b01, 0b10), (0b10, 0b11)))
    verdict = verify_certificate(fam, cert)
    assert not verdict and verdict.clause == "containment"


def test_verify_clause_filter():
    fam = Family.from_sets(2, [[1]])
    verdict = verify_certificate(fam, Certificate(2, ((0b01, 0b01),)))
    assert not verdict and verdict.clause == "filter"


def test_verify_clause_disjointness():
    fam = Family(2, (0, 0b01))
    cert = Certificate(2, ((0, 0b11), (0b01, 0b01)))
    verdict = verify_certificate(fam, cert)
    assert not verdict and verdict.clause == "disjointness"


def test_verify_rejects_ground_mismatch():
    with pytest.raises(ValueError):
        verify_certificate(Family(2, (0,)), Certificate(3, ((0, 0),)))


def assert_verdict_matches_the_oracles(fam, cert, naive=True):
    got = verify_certificate(fam, cert)
    assert got == reference_verify_certificate(fam, cert)
    if naive:
        n = cert.ground_size
        pairs = [(frozenset(elements_of(a)), frozenset(elements_of(f))) for a, f in cert.pairs]
        assert (got.valid, got.clause) == naive_verdict(as_sets(fam), pairs, n)


def test_verify_matches_the_oracles_on_every_assignment_up_to_2():
    # Every member set over [0], [1] and [2], each member sent to every
    # subset: 2 + 9 + 625 certificates, through the lattice path.
    count = 0
    for n in range(3):
        space = range(1 << n)
        for code in range(1 << (1 << n)):
            members = tuple(m for m in space if code >> m & 1)
            for images in itertools.product(space, repeat=len(members)):
                cert = Certificate(n, tuple(zip(members, images)))
                assert_verdict_matches_the_oracles(Family(n, members), cert)
                count += 1
    assert count == 636


@st.composite
def certificate_cases(draw):
    """A family over [3]..[5] and a certificate for it: a found one, random
    supersets or random images, sometimes with one image changed, one
    member shrunk in both, or one member changed in the certificate only."""
    n = draw(st.integers(3, 5))
    masks = st.integers(0, (1 << n) - 1)
    members = sorted(draw(st.sets(masks, min_size=1, max_size=8)))
    fam = Family(n, tuple(members))
    kind = draw(st.sampled_from(["found", "supersets", "random"]))
    found = find_certificate(fam) if kind == "found" else None
    if found is not None:
        pairs = list(found.pairs)
    else:
        lift = kind != "random"
        pairs = [(a, draw(masks) | (a if lift else 0)) for a in members]
    k = draw(st.integers(0, len(pairs) - 1))
    a, f = pairs[k]
    change = draw(st.sampled_from(["none", "image", "shrink", "member"]))
    if change == "image":
        pairs[k] = (a, draw(masks))
    elif change == "shrink":
        pairs[k] = (a & draw(masks), f)
        shrunk = {b for b, _ in pairs}
        if len(shrunk) == len(pairs):
            fam = Family(n, tuple(shrunk))
    elif change == "member":
        pairs[k] = (draw(masks), f)
    return fam, Certificate(n, tuple(pairs))


@settings(deadline=None, max_examples=300)
@given(certificate_cases())
def test_verify_matches_the_oracles_over_3_to_5(case):
    fam, cert = case
    assert_verdict_matches_the_oracles(fam, cert)


def lifted(cert, n):
    """The certificate over [n] with the elements past its ground added to
    every image: a filter stays a filter, intervals meet as before."""
    extra = full_mask(n) ^ full_mask(cert.ground_size)
    return Certificate(n, tuple((a, f | extra) for a, f in cert.pairs))


def test_verify_matches_the_oracles_over_13(monkeypatch):
    # Above DECISION_CAP there are no lattice tables: the clause-by-clause
    # path decides alone.
    n = 13
    base = lifted(minimal_counterexample().certificate, n)
    monkeypatch.setattr(certificates, "_cubes", None)
    pairs = list(base.pairs)
    cases = [base]
    cases.append(Certificate(n, tuple(pairs[:-1] + [(pairs[-1][0], pairs[0][1])])))
    cases.append(Certificate(n, tuple(pairs[:-1] + [(pairs[-1][0], full_mask(n) ^ 1 << 12)])))
    cases.append(Certificate(n, tuple(pairs[:-1] + [(pairs[-1][0], pairs[-1][0])])))
    swapped = [(a, pairs[1][1] if k == 0 else pairs[0][1] if k == 1 else f)
               for k, (a, f) in enumerate(pairs)]
    cases.append(Certificate(n, tuple(swapped)))
    cases.append(lifted(Certificate(2, ((0, 0b11), (0b01, 0b01))), n))
    rng = random.Random(13)
    for _ in range(20):
        members = sorted(rng.sample(range(1 << n), rng.randint(1, 6)))
        cases.append(Certificate(n, tuple((a, a | rng.getrandbits(n)) for a in members)))
    clauses = set()
    for cert in cases:
        fam = Family(n, tuple(a for a, _ in cert.pairs))
        assert_verdict_matches_the_oracles(fam, cert)
        clauses.add(verify_certificate(fam, cert).clause)
    assert clauses >= {None, "bijectivity", "containment", "filter", "disjointness"}


def test_verify_accepts_without_building_the_images(monkeypatch):
    built = []
    monkeypatch.setattr(certificates, "Family", lambda *args: built.append(args))
    report = minimal_counterexample()
    assert verify_certificate(report.family, report.certificate)
    assert built == []


# ------------------------------------------------------------------ find


def test_find_power_set_of_2():
    fam = Family(2, (0, 1, 2, 3))
    cert = find_certificate(fam)
    assert cert is not None
    assert verify_certificate(fam, cert)


def test_find_three_member_gap_family_has_no_certificate():
    assert find_certificate(Family.from_sets(2, [[], [1], [2]])) is None


def test_find_lone_empty_set_maps_to_top():
    assert find_certificate(Family(2, (0,))) == Certificate(2, ((0, 0b11),))


def assert_certifies(fam):
    cert = find_certificate(fam)
    assert cert is not None
    assert verify_certificate(fam, cert)


def assert_power_set_certifies(n):
    assert_certifies(Family(n, tuple(range(1 << n))))


def test_find_certifies_the_power_set_of_10():
    # 1024 members, deeper than Python's default recursion limit
    assert_power_set_certifies(10)


def test_find_certifies_the_power_set_of_12():
    # 4096 members at DECISION_CAP, the largest family the decision takes
    assert_power_set_certifies(12)


def test_find_certifies_the_minimal_family():
    assert_certifies(minimal_counterexample().family)


def test_find_agrees_with_brute_force_and_repeats_itself_over_2():
    for code in range(1 << 4):
        fam = Family(2, tuple(i for i in range(4) if code >> i & 1))
        first = find_certificate(fam)
        assert first == find_certificate(fam)
        assert (first is not None) == brute_certificate_exists(as_sets(fam), 2)
        if first is not None:
            assert verify_certificate(fam, first)


@settings(deadline=None)
@given(st.sets(st.integers(0, 15), max_size=9))
def test_find_agrees_with_brute_force_over_4(masks):
    fam = Family(4, tuple(sorted(masks)))
    cert = find_certificate(fam)
    assert (cert is not None) == brute_certificate_exists(as_sets(fam), 4)
    if cert is not None:
        assert verify_certificate(fam, cert)


# Reimer (CPC 2003) proves that every union-closed family has a
# certificate and that every family with one meets the average-size bound
# (reimer_bound_holds). That answers families too large for the brute force.


def test_find_certifies_the_minimal_family_under_relabeling():
    rng = random.Random(7)
    fam = minimal_counterexample().family
    n = fam.ground_size
    for _ in range(5):
        perm = rng.sample(range(1, n + 1), n)
        assert_certifies(Family(n, relabel(fam.members, n, perm)))


def seeded_union_closed():
    """Ten seeded union-closed families of 15 to 25 members over [8]..[10]."""
    rng = random.Random(0)
    done = 0
    while done < 10:
        n = rng.randint(8, 10)
        members: set[int] = set()
        while len(members) < 15:
            g = rng.randrange(1, 1 << n)
            members |= {g} | {g | a for a in members}
        if len(members) > 25:
            continue
        yield Family(n, tuple(sorted(members)))
        done += 1


def seeded_below_bound():
    """25 seeded families of 10 to 14 small sets over [8]..[10] that fail
    the average-size bound."""
    rng = random.Random(0)
    done = 0
    while done < 25:
        n = rng.randint(8, 10)
        small = [s for s in range(1 << n) if s.bit_count() <= 2]
        fam = Family(n, tuple(sorted(rng.sample(small, rng.randint(10, 14)))))
        if reimer_bound_holds(fam):
            continue
        yield fam
        done += 1


def test_find_certifies_seeded_union_closed_families():
    for fam in seeded_union_closed():
        assert is_union_closed(fam)
        assert_certifies(fam)


def test_find_refuses_seeded_families_below_the_size_bound():
    for fam in seeded_below_bound():
        assert find_certificate(fam) is None


def test_found_certificates_respect_the_volume_bound_over_3():
    budget = 1 << 3
    hits = 0
    for code in range(1, 1 << 8):
        fam = Family(3, tuple(i for i in range(8) if code >> i & 1))
        cert = find_certificate(fam)
        if cert is None:
            continue
        hits += 1
        assert sum(1 << (f.bit_count() - a.bit_count()) for a, f in cert.pairs) <= budget
    assert hits > 0


def test_find_refuses_oversized_ground():
    with pytest.raises(ResourceLimitError):
        find_certificate(Family(13, ()))


# The flat index stack must decide exactly as the generator stack it
# replaced: the same certificate, or None, on every family.


def assert_same_decision(fam):
    assert find_certificate(fam) == reference_find_certificate(fam)


def test_find_matches_the_generator_stack_on_every_family_up_to_3():
    for n in range(4):
        size = 1 << n
        for code in range(1 << size):
            assert_same_decision(Family(n, tuple(i for i in range(size) if code >> i & 1)))


@st.composite
def small_families(draw):
    n = draw(st.integers(4, 6))
    masks = draw(st.sets(st.integers(0, (1 << n) - 1), max_size=12))
    return Family(n, tuple(sorted(masks)))


@settings(deadline=None, max_examples=200)
@given(small_families())
def test_find_matches_the_generator_stack_over_4_to_6(fam):
    assert_same_decision(fam)


def test_find_matches_the_generator_stack_on_seeded_families():
    for fam in itertools.chain(seeded_union_closed(), seeded_below_bound()):
        assert_same_decision(fam)


def test_find_matches_the_generator_stack_on_power_sets_up_to_10():
    for n in range(11):
        assert_same_decision(Family(n, tuple(range(1 << n))))


def test_find_traces_little_memory_on_the_power_set_of_10():
    # one candidate index and one up-closure per member; the generator
    # stack held a suspended frame and a state tuple per member, 1.1 MB
    fam = Family(10, tuple(range(1 << 10)))
    _cubes(10)
    tracemalloc.start()
    try:
        find_certificate(fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 600 * 1024
