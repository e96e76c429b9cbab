"""Acceptance gate: the nine headline guarantees, one test each.

Each test prints a single "criterion N (...): PASS|FAIL" line on the
real stdout (bypassing capture) so a plain pytest run shows the
scoreboard. Bodies stick to public API plus the brute-force oracles in
helpers.py; expected values are either structural (exact reproduction,
emptiness, agreement) or independently recomputed here.
"""

import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from unionclosed import (
    Certificate,
    CounterexampleReport,
    Digraph,
    Family,
    FamilyFormatError,
    SearchShape,
    conjecture_sweep,
    degree_budget_feasible,
    difference_disjoint,
    elements_of,
    find_certificate,
    frequency_vector,
    full_mask,
    intervals_disjoint,
    is_union_closed,
    max_outdegree,
    min_even_ground_size,
    minimal_counterexample,
    reimer_bound_holds,
    search_counterexamples,
    verify_certificate,
)
from helpers import (
    all_tournaments,
    as_sets,
    brute_certificate_exists,
    brute_certified_families,
    interval,
)


@pytest.fixture()
def criterion(capsys):
    """Context manager printing one scoreboard line past pytest's capture."""

    @contextmanager
    def scored(num, label):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"criterion {num} ({label}): FAIL", flush=True)
            raise
        with capsys.disabled():
            print(f"criterion {num} ({label}): PASS", flush=True)

    return scored


def submasks(mask):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


_search_runs: dict = {}


def search_json_bytes(workers: int) -> bytes:
    """One full-shape CLI search per worker count, cached across tests."""
    if workers not in _search_runs:
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "unionclosed",
                "search",
                "--n",
                "8",
                "--pairs",
                "1,2:3,4",
                "--json",
                "--workers",
                str(workers),
            ],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        _search_runs[workers] = proc.stdout
    return _search_runs[workers]


def test_criterion_1_reproduction(criterion):
    with criterion(1, "11-set family reproduced and verified in under a second"):
        started = time.perf_counter()
        report = minimal_counterexample()
        fam, cert = report.family, report.certificate
        assert fam.ground_size == 8 and len(fam) == 11
        assert verify_certificate(fam, cert)
        # both pairwise forms over all 55 unordered pairs
        for i in range(len(cert.pairs)):
            a, fa = cert.pairs[i]
            for j in range(i + 1, len(cert.pairs)):
                b, fb = cert.pairs[j]
                assert difference_disjoint(a, fa, b, fb)
                assert intervals_disjoint(a, fa, b, fb)
        assert frequency_vector(fam) == (5, 5, 5, 5, 5, 5, 5, 5)
        assert report.max_frequency == 5 and 2 * 5 < 11
        assert reimer_bound_holds(fam)
        proc = subprocess.run(
            [sys.executable, "-m", "unionclosed", "demo"], capture_output=True
        )
        assert proc.returncode == 0
        assert time.perf_counter() - started < 1.0


def test_criterion_2_rediscovery(criterion):
    with criterion(2, "full n=8 two-pair search rediscovers the family"):
        payload = json.loads(search_json_bytes(1))
        assert payload["shape"] == {"ground": 8, "pairs": [[1, 2], [3, 4]]}
        reports = payload["reports"]
        assert payload["count"] == len(reports) > 0
        known = minimal_counterexample().family.to_dict()
        assert known in [r["family"] for r in reports]
        for raw in reports:
            rebuilt = CounterexampleReport.from_dict(raw)  # re-verifies loudly
            assert 2 * rebuilt.max_frequency < len(rebuilt.family)


def test_criterion_3_even_minimality(criterion):
    with criterion(3, "ground size 8 is the smallest feasible even case"):
        assert min_even_ground_size() == 8
        assert [degree_budget_feasible(n) for n in (2, 4, 6, 8)] == [
            False,
            False,
            False,
            True,
        ]
        assert search_counterexamples(SearchShape(6, ((1, 2), (3, 4)))) == []
        assert search_counterexamples(SearchShape(8, ((1, 2),))) == []


def coatom_filter_families(n, k):
    """Every family certified onto the filter {[n]} + co-atoms for 1..k."""
    full = full_mask(n)
    images = [full] + [full ^ (1 << (i - 1)) for i in range(1, k + 1)]
    found = []
    chosen: list = []

    def walk(t):
        if t == len(images):
            try:
                fam = Family(n, tuple(chosen))
            except FamilyFormatError:
                return  # repeated member, not a family
            cert = Certificate(n, tuple(zip(chosen, images)))
            if verify_certificate(fam, cert):
                found.append(fam)
            return
        img = images[t]
        for a in submasks(img):
            if all(
                intervals_disjoint(a, img, chosen[i], images[i])
                for i in range(t)
            ):
                chosen.append(a)
                walk(t + 1)
                chosen.pop()

    walk(0)
    return found


def test_criterion_4_forced_majorities(criterion):
    with criterion(4, "tournaments and co-atom certificate families force a majority"):
        for k in range(1, 6):
            need = math.ceil((k - 1) / 2)
            count = 0
            for rows in all_tournaments(k):
                assert max_outdegree(Digraph(k, rows)) >= need
                count += 1
            assert count == 1 << (k * (k - 1) // 2)
        # co-atom images for 1..k, ground sizes with and without a spare element
        for k in range(1, 5):
            for n in (k, k + 1):
                families = coatom_filter_families(n, k)
                assert families
                for fam in families:
                    assert 2 * max(frequency_vector(fam)) >= k + 1


def test_criterion_5_disjointness_equivalence(criterion):
    with criterion(5, "both pairwise forms match materialized intervals on [4]"):
        full = full_mask(4)
        pairs = []
        for fa in range(full + 1):
            top = frozenset(elements_of(fa))
            for a in submasks(fa):
                pairs.append((a, fa, interval(frozenset(elements_of(a)), top)))
        assert len(pairs) == 3**4
        for a, fa, ia in pairs:
            for b, fb, ib in pairs:
                expect = not (ia & ib)
                assert difference_disjoint(a, fa, b, fb) == expect
                assert intervals_disjoint(a, fa, b, fb) == expect


def test_criterion_6_conjecture_sweep(criterion):
    with criterion(6, "no certified family up to ground size 4 dodges the half-element"):
        for n, expected in ((2, 13), (3, 192), (4, 28736)):
            summary = conjecture_sweep(n)
            assert summary.violations == ()
            # the sweep skips the bare {∅}, which the oracle certifies
            certified = brute_certified_families(n) - {frozenset([frozenset()])}
            assert summary.certified == len(certified) == expected
            assert all(
                any(2 * sum(x in s for s in fam) >= len(fam) for x in range(1, n + 1))
                for fam in certified
            )


def test_criterion_7_average_size_bound(criterion):
    with criterion(7, "average-size bound holds for all union-closed families on [3] and [4]"):
        for n in (3, 4):
            space = 1 << n
            checked = 0
            equality = 0
            for code in range(1, 1 << space):
                fam = Family(n, tuple(i for i in range(space) if code >> i & 1))
                if not is_union_closed(fam):
                    continue
                verdict = reimer_bound_holds(fam)
                assert verdict.holds
                checked += 1
                m = len(fam)
                total = sum(mask.bit_count() for mask in fam)
                if m**m == 1 << (2 * total):
                    equality += 1
            assert checked > 0
            # the full power set meets the bound exactly and must be counted
            assert equality >= 1


def test_criterion_8_decision_matches_brute_force(criterion):
    with criterion(8, "certificate decision agrees with the brute force on [3]"):
        for code in range(1 << 8):
            fam = Family(3, tuple(i for i in range(8) if code >> i & 1))
            got = find_certificate(fam)
            if got is not None:
                assert verify_certificate(fam, got)
            assert (got is not None) == brute_certificate_exists(as_sets(fam), 3)


def test_criterion_9_deterministic_output(criterion):
    with criterion(9, "one and eight workers emit byte-identical search JSON"):
        assert search_json_bytes(1) == search_json_bytes(8)
        assert len(search_json_bytes(1)) > 0
