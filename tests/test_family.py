"""Family model, mask helpers, and the four family verdicts.

The union-closed and filter checks are compared against the
set-based oracles in helpers.py exhaustively over [3]; the named
examples (the 11-set family, power sets, near-trivial families) pin the
documented behavior.
"""

import pytest

from unionclosed import (
    MAX_GROUND,
    Family,
    FamilyFormatError,
    elements_of,
    format_set,
    frankl_check,
    frequency_vector,
    full_mask,
    is_filter,
    is_union_closed,
    iter_supersets,
    mask_from_elements,
    minimal_counterexample,
    reimer_bound_holds,
)
from helpers import as_sets, naive_filter, naive_union_closed


def exhaustive_families(n):
    for code in range(1, 1 << (1 << n)):
        members = tuple(i for i in range(1 << n) if code >> i & 1)
        yield Family(n, members)


# ---------------------------------------------------------------- masks


def test_mask_round_trip_exhaustive():
    for mask in range(16):
        assert mask_from_elements(elements_of(mask), 4) == mask


def test_elements_are_one_based_and_sorted():
    assert elements_of(0b101) == (1, 3)
    assert mask_from_elements([3, 1], 4) == 0b101
    assert full_mask(3) == 0b111
    assert format_set(0) == "{}"
    assert format_set(0b1000101) == "{1,3,7}"


@pytest.mark.parametrize("bad", [[0], [5], [-1], [1, 1], [True]])
def test_mask_rejects_bad_elements(bad):
    with pytest.raises((FamilyFormatError, ValueError)):
        mask_from_elements(bad, 4)


def test_iter_supersets_counts():
    # a set with k free elements has 2^k supersets, itself included
    for mask in range(16):
        sup = list(iter_supersets(mask, 4))
        assert len(sup) == 1 << (4 - bin(mask).count("1"))
        assert mask in sup
        assert all(s & mask == mask for s in sup)


# --------------------------------------------------------------- Family


def test_family_orders_members_canonically():
    assert Family.from_sets(2, [[1, 2], [], [2]]).members == (0, 0b10, 0b11)


def test_family_rejects_duplicates_and_range():
    with pytest.raises(FamilyFormatError):
        Family(2, (1, 1))
    with pytest.raises(FamilyFormatError):
        Family(2, (4,))
    with pytest.raises(FamilyFormatError):
        Family(-1, ())
    with pytest.raises(FamilyFormatError):
        Family(MAX_GROUND + 1, ())
    for members in ((True, 2), (1.5,), ("1",), (-1,), (0, -4)):
        with pytest.raises(FamilyFormatError):
            Family(3, members)


@pytest.mark.parametrize(
    "data",
    [
        [],
        {"ground": 2},
        {"sets": []},
        {"ground": 2, "sets": [[1]], "extra": 1},
        {"ground": "2", "sets": []},
        {"ground": 2, "sets": [[0]]},
        {"ground": 2, "sets": "ab"},
    ],
)
def test_family_from_dict_rejects_bad_payloads(data):
    with pytest.raises(FamilyFormatError):
        Family.from_dict(data)


def test_family_dict_round_trip_exhaustive_over_2():
    for fam in exhaustive_families(2):
        assert Family.from_dict(fam.to_dict()) == fam


def test_family_container_protocol():
    fam = Family.from_sets(3, [[1], [1, 2]])
    assert len(fam) == 2
    assert list(fam) == [0b01, 0b11]
    assert 0b01 in fam and 0b10 not in fam


# ------------------------------------------------------------- verdicts


def test_union_closed_matches_oracle_over_3():
    for fam in exhaustive_families(3):
        verdict = is_union_closed(fam)
        assert verdict.holds == naive_union_closed(as_sets(fam))
        if not verdict:
            a, b = verdict.witness
            assert a in fam and b in fam and (a | b) not in fam


def test_union_closed_examples():
    assert is_union_closed(Family(3, ()))
    assert is_union_closed(Family(3, (0,)))
    assert not is_union_closed(Family.from_sets(2, [[1], [2]]))
    # the 11-set family is certified yet not union-closed; that gap is
    # exactly what makes it interesting
    assert not is_union_closed(minimal_counterexample().family)


def test_filter_matches_oracle_over_3():
    for fam in exhaustive_families(3):
        verdict = is_filter(fam)
        assert verdict.holds == naive_filter(as_sets(fam), 3)
        if not verdict:
            member, above = verdict.witness
            assert member in fam and above not in fam
            assert (above & ~member).bit_count() == 1


def test_filter_examples():
    assert is_filter(Family(4, (0b1111,)))
    assert not is_filter(Family.from_sets(2, [[1]]))
    co_atoms = [[i for i in range(1, 9) if i != j] for j in range(1, 9)]
    fam = Family.from_sets(8, co_atoms + [list(range(1, 9)), [3, 4, 5, 6, 7, 8], [1, 2, 5, 6, 7, 8]])
    assert is_filter(fam)


def test_frequency_vector_examples():
    assert frequency_vector(minimal_counterexample().family) == (5,) * 8
    assert frequency_vector(Family(3, (0,))) == (0, 0, 0)
    assert frequency_vector(Family.from_sets(2, [[1], [1, 2]])) == (2, 1)


def test_frequency_double_counting_over_3():
    for fam in exhaustive_families(3):
        assert sum(frequency_vector(fam)) == sum(m.bit_count() for m in fam)


def test_frankl_examples():
    assert frankl_check(Family.from_sets(1, [[1]])) == (True, 1, 1)
    verdict = frankl_check(minimal_counterexample().family)
    assert not verdict
    assert verdict.element == 1 and verdict.count == 5
    power2 = Family(2, (0, 1, 2, 3))
    assert frankl_check(power2) == (True, 1, 2)  # half exactly


def test_frankl_breaks_ties_toward_smallest_element():
    fam = Family.from_sets(3, [[2], [3], [2, 3]])
    verdict = frankl_check(fam)
    assert verdict.element == 2 and verdict.count == 2


def test_frankl_rejects_out_of_scope_families():
    with pytest.raises(ValueError):
        frankl_check(Family(3, ()))
    with pytest.raises(ValueError):
        frankl_check(Family(3, (0,)))


def test_reimer_examples():
    verdict = reimer_bound_holds(minimal_counterexample().family)
    assert verdict.holds
    assert (verdict.total, verdict.member_count) == (40, 11)
    assert reimer_bound_holds(Family(4, (0,))).holds  # 0 >= 0


def test_reimer_equality_cases_are_exact():
    # power sets meet the bound with equality; the big-int comparison
    # must call them true without any tolerance fudge
    for n in (1, 2, 3):
        fam = Family(n, tuple(range(1 << n)))
        verdict = reimer_bound_holds(fam)
        assert verdict.holds
        assert verdict.total / verdict.member_count == pytest.approx(verdict.threshold)


def test_reimer_can_fail_off_the_union_closed_world():
    fam = Family.from_sets(4, [[], [1], [2], [3]])
    verdict = reimer_bound_holds(fam)
    assert not verdict
    assert (verdict.total, verdict.member_count) == (3, 4)


def test_reimer_rejects_empty_family():
    with pytest.raises(ValueError):
        reimer_bound_holds(Family(2, ()))


def test_verdict_truthiness_tracks_holds():
    assert bool(is_union_closed(Family(2, (0,))))
    assert not bool(is_union_closed(Family.from_sets(2, [[1], [2]])))
    assert bool(is_filter(Family(2, (0b11,))))
    assert not bool(is_filter(Family(2, (0,))))
