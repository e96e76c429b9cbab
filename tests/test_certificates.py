"""Certificate model, the interval disjointness predicate, clause-by-clause
verification, and the exhaustive decision search.

The predicate is checked against a materializing oracle over [3] here
(the [4] exhaustive pass lives in the acceptance suite), and the
decision search is cross-checked against the filter-and-bijection brute
force over [2] and on random families over [4], and against Reimer's
theorems on seeded families over [8]..[10].
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from unionclosed import (
    Certificate,
    Family,
    FamilyFormatError,
    ResourceLimitError,
    elements_of,
    find_certificate,
    full_mask,
    intervals_disjoint,
    is_union_closed,
    minimal_counterexample,
    reimer_bound_holds,
    verify_certificate,
)
from unionclosed.certificates import _cubes
from helpers import as_sets, brute_certificate_exists, interval, relabel


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


def test_find_certifies_seeded_union_closed_families():
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
        fam = Family(n, tuple(sorted(members)))
        assert is_union_closed(fam)
        assert_certifies(fam)
        done += 1


def test_find_refuses_seeded_families_below_the_size_bound():
    rng = random.Random(0)
    done = 0
    while done < 25:
        n = rng.randint(8, 10)
        small = [s for s in range(1 << n) if s.bit_count() <= 2]
        fam = Family(n, tuple(sorted(rng.sample(small, rng.randint(10, 14)))))
        if reimer_bound_holds(fam):
            continue
        assert find_certificate(fam) is None
        done += 1


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
