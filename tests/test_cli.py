"""Command line behavior: exit codes, JSON payloads, error routing.

Exit code contract: 0 for an affirmative outcome, 1 for a legitimate
negative one, 2 for usage or data errors, 3 for refused resource
guards, 4 for an internal error, 141 when the reader of stdout closes
it. Everything runs in-process through main() except a run without
numpy, checks of what start-up, a search and enumerate import, and one
smoke test of the installed entry points.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import unionclosed
from unionclosed import (
    Certificate,
    CertificateVerdict,
    CounterexampleReport,
    Family,
    ReimerVerdict,
    ResourceLimitError,
    SearchShape,
    elements_of,
    find_certificate,
    format_set,
    frankl_check,
    is_filter,
    is_union_closed,
    minimal_counterexample,
    reimer_bound_holds,
    search_counterexamples,
    verify_certificate,
)
from unionclosed import certificates
from unionclosed.cli import _average, main
from unionclosed.sweep import SweepSummary


@pytest.fixture()
def family_file(tmp_path):
    def write(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    return write


def rebuilt_report(raw):
    """The report a JSON payload describes; construction re-verifies it."""
    family = Family.from_dict(raw["family"])
    return CounterexampleReport(family, Certificate.from_dict(raw["certificate"]))


@pytest.fixture()
def minimal_files(family_file):
    report = minimal_counterexample()
    fam = family_file("family.json", report.family.to_dict())
    cert = family_file("cert.json", report.certificate.to_dict())
    return fam, cert


# ----------------------------------------------------------------- check


def test_check_minimal_family_human(minimal_files, capsys):
    fam, _ = minimal_files
    assert main(["check", fam]) == 0
    out = capsys.readouterr().out
    assert "family: 11 sets over ground size 8" in out
    assert "union-closed: no" in out
    assert "half-element: fails (element 1 is in 5 of 11 sets)" in out
    assert "average-size bound: holds" in out
    assert "interval certificate: found" in out


def test_check_minimal_family_json(minimal_files, capsys):
    fam, _ = minimal_files
    assert main(["check", fam, "--json"]) == 0
    first = capsys.readouterr().out
    payload = json.loads(first)
    assert payload["union_closed"]["holds"] is False
    assert payload["half_element"] == {
        "status": "checked",
        "holds": False,
        "element": 1,
        "count": 5,
    }
    assert payload["average_size_bound"]["holds"] is True
    assert payload["average_size_bound"]["average"] == "40/11"
    cert = Certificate.from_dict(payload["certificate"]["certificate"])
    assert verify_certificate(Family.from_dict(payload["family"]), cert)
    # deterministic bytes
    assert main(["check", fam, "--json"]) == 0
    assert capsys.readouterr().out == first


def test_check_lone_empty_set(family_file, capsys):
    fam = family_file("f.json", {"ground": 3, "sets": [[]]})
    assert main(["check", fam]) == 0
    out = capsys.readouterr().out
    assert "half-element: out of scope" in out
    assert "average-size bound: holds" in out


def test_check_empty_family(family_file, capsys):
    fam = family_file("f.json", {"ground": 2, "sets": []})
    assert main(["check", fam]) == 0
    out = capsys.readouterr().out
    assert "average-size bound: out of scope for the empty family" in out


def test_check_missing_file(capsys):
    assert main(["check", "/no/such/file.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"ground": 2,')
    assert main(["check", str(path)]) == 2
    assert "line" in capsys.readouterr().err


def test_check_deeply_nested_json_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert main(["check", str(path)]) == 2
    assert "nests too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "certify"])
def test_oversized_integer_is_a_data_error_naming_the_file(command, tmp_path, capsys):
    # json.loads refuses an integer literal past 4,300 digits with a bare ValueError
    path = tmp_path / "huge.json"
    path.write_text('{"ground": 2, "sets": [[' + "1" * 5000 + "]]}")
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path} cannot be parsed: ")


def test_check_wrong_schema(family_file, capsys):
    fam = family_file("f.json", {"ground": 2, "sets": [[1]], "junk": True})
    assert main(["check", fam]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_json_reports_no_certificate(family_file, capsys):
    # below the average-size bound, and no certificate exists
    fam = family_file("no.json", {"ground": 2, "sets": [[], [1], [2]]})
    assert main(["check", fam, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["average_size_bound"]["holds"] is False
    assert payload["certificate"] == {"status": "none"}


def test_check_json_skips_the_decision_above_its_cap(family_file, capsys):
    fam = family_file("f.json", {"ground": 13, "sets": [[], [1]]})
    assert main(["check", fam, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["certificate"] == {"status": "skipped"}


def check_payload(fam):
    """The check payload, built from the library's verdicts and to_dict."""
    uc, fl = is_union_closed(fam), is_filter(fam)
    payload = {
        "family": fam.to_dict(),
        "union_closed": {"holds": True},
        "filter": {"holds": True},
        "half_element": {"status": "out-of-scope"},
        "average_size_bound": {"status": "out-of-scope"},
        "certificate": {"status": "skipped"},
    }
    if not uc:
        a, b = (list(elements_of(m)) for m in uc.witness)
        union = list(elements_of(uc.witness[0] | uc.witness[1]))
        payload["union_closed"] = {
            "holds": False, "witness": {"left": a, "right": b, "union": union}
        }
    if not fl:
        member, missing = (list(elements_of(m)) for m in fl.witness)
        payload["filter"] = {"holds": False, "witness": {"member": member, "missing": missing}}
    if fam.members and fam.members != (0,):
        fr = frankl_check(fam)
        payload["half_element"] = {
            "status": "checked", "holds": fr.holds, "element": fr.element, "count": fr.count
        }
    if fam.members:
        re = reimer_bound_holds(fam)
        payload["average_size_bound"] = {
            "status": "checked",
            "holds": re.holds,
            "average": str(Fraction(re.total, re.member_count)),
            "threshold": re.threshold,
        }
    if fam.ground_size <= certificates.DECISION_CAP:
        cert = find_certificate(fam)
        payload["certificate"] = (
            {"status": "none"} if cert is None
            else {"status": "found", "certificate": cert.to_dict()}
        )
    return payload


@pytest.mark.parametrize(
    "fam",
    [
        minimal_counterexample().family,
        Family(6, tuple(range(1 << 6))),
        Family(2, (0, 1, 2)),
        Family(13, (0, 1, 6)),
        Family(3, ()),
        Family(3, (0,)),
    ],
    ids=["minimal", "power_set_6", "no_certificate", "above_decision_cap", "empty", "empty_set"],
)
def test_check_json_is_the_sorted_dict_encoding(fam, tmp_path):
    # check writes the family and the certificate from per-mask text, as
    # certify does; its bytes must be those of the whole payload's to_dict
    path = tmp_path / "f.json"
    path.write_text(json.dumps(fam.to_dict()))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["check", str(path), "--json"]) == 0
    assert out.getvalue() == json.dumps(check_payload(fam), sort_keys=True) + "\n"


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 200), st.integers(0, 12), st.one_of(st.just(0), st.integers(0, 199)))
def test_printed_average_is_the_fraction_text(m, whole, rest):
    # check and demo print the average without fractions; the text and the
    # float must be those of the Fraction, whole-number averages included
    total = whole * m + rest % m
    verdict = ReimerVerdict(True, total, m, 0.0)
    assert _average(verdict) == (str(Fraction(total, m)), float(Fraction(total, m)))


@pytest.mark.parametrize("command", ["demo", "check", "enumerate"])
def test_commands_other_than_search_leave_fractions_and_struct_unimported(command, tmp_path):
    # the average is printed from its total and count; only search packs keys
    path = tmp_path / "f.json"
    path.write_text(json.dumps(minimal_counterexample().family.to_dict()))
    argv = {"demo": ["demo"], "check": ["check", str(path)], "enumerate": ["enumerate", "--n", "2"]}
    program = (
        "import contextlib, io, sys, unionclosed.cli\n"
        "for flag in ([], ['--json']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        assert unionclosed.cli.main({argv[command]!r} + flag) == 0\n"
        "loaded = {'fractions', 'decimal', 'struct'} & set(sys.modules)\n"
        "assert not loaded, sorted(loaded)\n"
    )
    src = str(Path(unionclosed.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", program],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr


# --------------------------------------------------------------- certify


def test_certify_valid_certificate(minimal_files, capsys):
    fam, cert = minimal_files
    assert main(["certify", fam, cert]) == 0
    assert "certificate: valid" in capsys.readouterr().out


def test_certify_invalid_certificate_names_the_clause(
    minimal_files, family_file, capsys
):
    fam, _ = minimal_files
    report = minimal_counterexample()
    broken = report.certificate.to_dict()
    del broken["pairs"][0]
    cert = family_file("broken.json", broken)
    assert main(["certify", fam, cert]) == 1
    assert "coverage" in capsys.readouterr().out


def test_certify_decides_when_no_certificate_given(family_file, capsys):
    yes = family_file("yes.json", {"ground": 2, "sets": [[], [1], [2], [1, 2]]})
    no = family_file("no.json", {"ground": 2, "sets": [[], [1], [2]]})
    assert main(["certify", yes, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "found"
    assert main(["certify", no]) == 1
    assert "no certificate exists" in capsys.readouterr().out


def test_certify_human_lists_the_found_pairs(family_file, capsys):
    fam = family_file("yes.json", {"ground": 2, "sets": [[], [1], [2], [1, 2]]})
    assert main(["certify", fam, "--json"]) == 0
    cert = Certificate.from_dict(json.loads(capsys.readouterr().out)["certificate"])
    assert main(["certify", fam]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "certificate: found"
    assert lines[1:] == [f"  {format_set(a)} -> {format_set(f)}" for a, f in cert.pairs]


def test_internal_fault_exits_four(minimal_files, monkeypatch, capsys):
    # a fault is never a verdict: not 1 ("no certificate"), not a traceback
    def broken(fam):
        raise RuntimeError("broken decision")

    monkeypatch.setattr("unionclosed.cli.find_certificate", broken)
    fam, _ = minimal_files
    assert main(["certify", fam]) == 4
    assert "internal error: RuntimeError" in capsys.readouterr().err


def test_json_output_formats_no_certificate_lines(minimal_files, monkeypatch, capsys):
    # the human lines of a found certificate are never built for --json
    def refuse(cert):
        raise AssertionError("certificate lines built for --json")

    monkeypatch.setattr("unionclosed.cli._certificate_lines", refuse)
    fam, _ = minimal_files
    assert main(["certify", fam, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "found"
    assert main(["check", fam, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["certificate"]["status"] == "found"


def test_certify_ground_mismatch(family_file, capsys):
    fam = family_file("f.json", {"ground": 2, "sets": [[]]})
    cert = family_file("c.json", {"ground": 3, "pairs": [{"set": [], "image": [1, 2, 3]}]})
    assert main(["certify", fam, cert]) == 2
    assert "error:" in capsys.readouterr().err


HUGE = 1_000_000_000_000


def test_check_refuses_a_huge_ground_as_a_data_error(family_file, capsys):
    fam = family_file("f.json", {"ground": HUGE, "sets": [[HUGE]]})
    assert main(["check", fam]) == 2
    assert "error: ground size" in capsys.readouterr().err


def test_certify_refuses_a_huge_certificate_ground_as_a_data_error(
    minimal_files, family_file, capsys
):
    fam, _ = minimal_files
    cert = family_file("c.json", {"ground": HUGE, "pairs": [{"set": [HUGE], "image": [HUGE]}]})
    assert main(["certify", fam, cert]) == 2
    assert "error: ground size" in capsys.readouterr().err


def test_certify_refuses_oversized_decision(family_file, capsys):
    fam = family_file("f.json", {"ground": 13, "sets": [[]]})
    assert main(["certify", fam]) == 3
    assert "refused:" in capsys.readouterr().err


def test_certify_power_set_never_claims_no_certificate(family_file, capsys):
    # 1024 members, one level of find_certificate's search each; the
    # identity pairing is a certificate, so exit 1 would be a false proof
    sets = [[e for e in range(1, 11) if code >> (e - 1) & 1] for code in range(1 << 10)]
    fam = family_file("p10.json", {"ground": 10, "sets": sets})
    code = main(["certify", fam, "--json"])
    captured = capsys.readouterr()
    assert code == 0
    cert = Certificate.from_dict(json.loads(captured.out)["certificate"])
    assert verify_certificate(Family.from_dict({"ground": 10, "sets": sets}), cert)


def assert_certify_json_is_the_sorted_dict_encoding(fam, path):
    # certify writes its certificate from per-mask text; its bytes must be
    # those of to_dict
    path.write_text(json.dumps(fam.to_dict()))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["certify", str(path), "--json"])
    cert = find_certificate(fam)
    payload = {"status": "none"}
    if cert is not None:
        payload = {"certificate": cert.to_dict(), "status": "found"}
    assert code == int(cert is None)
    assert out.getvalue() == json.dumps(payload, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "fam",
    [
        *(Family(n, tuple(range(1 << n))) for n in range(6)),
        Family(3, ()),
        Family(3, (0,)),
        minimal_counterexample().family,
    ],
    ids=[*(f"power_set_{n}" for n in range(6)), "empty", "empty_set", "minimal"],
)
def test_certify_json_is_the_sorted_dict_encoding(fam, tmp_path):
    assert_certify_json_is_the_sorted_dict_encoding(fam, tmp_path / "f.json")


@settings(deadline=None, max_examples=100)
@given(st.sets(st.integers(0, 15), max_size=12))
def test_certify_json_is_the_sorted_dict_encoding_over_4(tmp_path_factory, masks):
    fam = Family(4, tuple(sorted(masks)))
    path = tmp_path_factory.getbasetemp() / "certify_over_4.json"
    assert_certify_json_is_the_sorted_dict_encoding(fam, path)


@pytest.mark.parametrize("command", ["certify", "check"])
def test_decision_out_of_memory_is_refused(command, minimal_files, monkeypatch, capsys):
    # running out of memory in a certificate decision is a refusal (exit
    # 3), as in the search, and not an internal error (exit 4)
    def starved(n):
        raise MemoryError

    monkeypatch.setattr(certificates, "_cubes", starved)
    fam, _ = minimal_files
    assert main([command, fam, "--json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("refused:")


# ---------------------------------------------------------------- search


def test_search_empty_shape_exits_one(capsys):
    assert main(["search", "--n", "6", "--pairs", "1,2:3,4", "--json"]) == 1
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["count"] == 0 and payload["reports"] == []
    assert "search finished" in captured.err


def test_search_without_pairs_exits_one(capsys):
    assert main(["search", "--n", "6", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["shape"] == {"ground": 6, "pairs": []}
    assert payload["count"] == 0 and payload["reports"] == []


def test_search_with_limit_reports_verify(capsys):
    assert main(["search", "--n", "8", "--pairs", "1,2:3,4", "--limit", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 3
    assert payload["shape"] == {"ground": 8, "pairs": [[1, 2], [3, 4]]}
    for raw in payload["reports"]:
        assert rebuilt_report(raw).to_dict() == raw


def test_search_limit_truncates_the_sorted_list(capsys):
    argv = ["search", "--n", "8", "--pairs", "1,2:3,4", "--json"]
    assert main(argv) == 0
    full = json.loads(capsys.readouterr().out)
    assert main(argv + ["--limit", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["reports"] == full["reports"][:3]
    # the shape still admits families, so an empty listing is no negative answer
    assert main(argv + ["--limit", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 0 and payload["reports"] == []


def _patch_search_verify(monkeypatch, good):
    """Count the search's verify_certificate calls; every call after the
    first good ones returns an invalid verdict."""
    calls = []

    def verify(fam, cert):
        calls.append(fam)
        if good is not None and len(calls) > good:
            return CertificateVerdict(False, "disjointness", "patched")
        return verify_certificate(fam, cert)

    monkeypatch.setattr("unionclosed.search.verify_certificate", verify)
    return calls


TWO_PAIRS_8 = ["--n", "8", "--pairs", "1,2:3,4"]


@pytest.mark.parametrize(
    ("argv", "count", "built"),
    [
        pytest.param([*TWO_PAIRS_8, "--limit", "3"], 3, 1344, id="3"),
        pytest.param([*TWO_PAIRS_8, "--limit", "0"], 0, 1344, id="0"),
        pytest.param([*TWO_PAIRS_8, "--limit", "3", "--canonical"], 3, 1344, id="3-canonical"),
        pytest.param([*TWO_PAIRS_8, "--limit", "0", "--canonical"], 0, 1344, id="0-canonical"),
        pytest.param(
            ["--n", "7", "--pairs", "1,2:3,4:5,6", "--canonical"], 18, 1248, id="n7-canonical"
        ),
    ],
)
def test_search_limit_still_verifies_every_report(argv, count, built, monkeypatch, capsys):
    # the exit code claims that the shape admits a family, so every report
    # is built and verified, however few are written or listed, and the
    # closing note counts them all
    calls = _patch_search_verify(monkeypatch, None)
    assert main(["search", *argv, "--json"]) == 0
    assert len(calls) == built
    captured = capsys.readouterr()
    assert json.loads(captured.out)["count"] == count
    assert f"{built} report(s) built and verified" in captured.err


@pytest.mark.parametrize("good", [0, 4])
def test_search_failed_self_verification_exits_four(good, monkeypatch, capsys):
    # a report the search built failing its re-check is a fault of this
    # program, not bad data; stdout then stops after the reports before it
    _patch_search_verify(monkeypatch, good)
    assert main(["search", "--n", "8", "--pairs", "1,2:3,4", "--json"]) == 4
    captured = capsys.readouterr()
    assert "internal error" in captured.err
    assert "certificate does not verify: disjointness" in captured.err
    assert captured.out.startswith('{"count": 1344, "reports": [')
    assert captured.out.count('"certificate"') == good


@pytest.mark.parametrize("good", [0, 4])
def test_canonical_search_failed_self_verification_exits_four(good, monkeypatch, capsys):
    # canonical streams like plain search: stdout stops after whole reports
    # that begin the canonical list
    shape = SearchShape(8, ((1, 2), (3, 4)))
    listed = [
        json.dumps(r.to_dict(), sort_keys=True)
        for r in search_counterexamples(shape, canonical=True)
    ]
    _patch_search_verify(monkeypatch, good)
    assert main(["search", "--n", "8", "--pairs", "1,2:3,4", "--canonical", "--json"]) == 4
    captured = capsys.readouterr()
    assert "internal error" in captured.err
    assert "certificate does not verify: disjointness" in captured.err
    head = '{"count": 7, "reports": ['
    assert captured.out.startswith(head)
    prefixes = [", ".join(listed[:k]) for k in range(len(listed) + 1)]
    written = prefixes.index(captured.out[len(head):])
    # the first report in key order is the least of its orbit, so it is listed
    assert (written > 0) == (good > 0)


@pytest.mark.parametrize(
    ("extra", "count"),
    [pytest.param([], 1344, id="plain"), pytest.param(["--canonical"], 7, id="canonical")],
)
def test_search_holds_at_most_two_reports(extra, count, monkeypatch, capsys):
    # streamed: the report being written and the one being built, never the
    # list; canonical builds every report too but drops the unlisted at once
    class Tracked(CounterexampleReport):  # no __slots__, so weakly referable
        pass

    built, freed, alive = [], [], []

    def track(family, certificate):
        report = Tracked(family, certificate)
        built.append(weakref.ref(report, freed.append))
        alive.append(len(built) - len(freed))
        return report

    monkeypatch.setattr("unionclosed.search.CounterexampleReport", track)
    assert main(["search", "--n", "8", "--pairs", "1,2:3,4", "--json", *extra]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == count
    assert len(built) == 1344
    assert max(alive) <= 2


@pytest.mark.parametrize(
    ("n", "pairs", "extra"),
    [
        (8, ((1, 2), (3, 4)), []),
        (8, ((1, 2), (3, 4)), ["--limit", "3"]),
        (8, ((1, 2), (3, 4)), ["--limit", "0"]),
        (8, ((1, 2), (3, 4)), ["--canonical"]),
        (8, ((2, 7), (4, 6)), []),
        (7, ((1, 2), (3, 4), (5, 6)), []),
        (6, ((1, 2), (3, 4)), []),
    ],
)
def test_search_json_is_the_sorted_dict_encoding(n, pairs, extra, capsys):
    # the writer joins text per mask; its bytes must be those of to_dict
    shape = SearchShape(n, pairs)
    found = search_counterexamples(shape, canonical="--canonical" in extra)
    limit = int(extra[1]) if extra[:1] == ["--limit"] else None
    reports = found[:limit]
    expected = json.dumps(
        {
            "shape": shape.to_dict(),
            "count": len(reports),
            "reports": [r.to_dict() for r in reports],
        },
        sort_keys=True,
    )
    text = ":".join(f"{i},{j}" for i, j in pairs)
    code = main(["search", "--n", str(n), "--pairs", text, "--json", *extra])
    assert code == (0 if found else 1)
    out, want = capsys.readouterr().out, expected + "\n"
    if out != want:
        # pytest's own diff of two 1 MB strings runs for minutes
        at = next(i for i, (x, y) in enumerate(zip(out + "\0", want + "\0")) if x != y)
        lo = max(at - 40, 0)
        pytest.fail(f"stdout differs at {at}: {out[lo:at + 40]!r} != {want[lo:at + 40]!r}")


def test_canonical_search_runs_without_numpy():
    program = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from unionclosed.cli import main\n"
        "sys.exit(main(['search', '--n', '8', '--pairs', '1,2:3,4',"
        " '--canonical', '--json']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["count"] == 7


def test_startup_leaves_fractions_unimported():
    # fractions (with decimal) is only needed for the average-size bound
    program = "import sys, unionclosed.cli; sys.exit('fractions' in sys.modules)"
    src = str(Path(unionclosed.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", program],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr


def test_startup_leaves_the_process_pool_unimported():
    # no command starts a process pool, not even search with --workers 2
    program = (
        "import contextlib, io, sys, unionclosed.cli\n"
        "pool = {'concurrent.futures.process', 'multiprocessing'}\n"
        "assert not pool & set(sys.modules), sorted(pool & set(sys.modules))\n"
        "argv = ['search', '--n', '8', '--pairs', '1,2:3,4', '--workers', '2', '--json']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert unionclosed.cli.main(argv) == 0\n"
        "sys.exit(sorted(pool & set(sys.modules)) or None)"
    )
    src = str(Path(unionclosed.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", program],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr


def test_startup_leaves_dataclasses_and_search_unimported():
    # check and certify need neither; every package name still resolves
    program = (
        "import sys, unionclosed.cli\n"
        "loaded = {'dataclasses', 'inspect', 'unionclosed.search', 'unionclosed.skeleton',"
        " 'unionclosed.sweep', 'unionclosed.searchcli'} & set(sys.modules)\n"
        "assert not loaded, sorted(loaded)\n"
        "import unionclosed\n"
        "for name in unionclosed.__all__:\n"
        "    getattr(unionclosed, name)\n"
    )
    src = str(Path(unionclosed.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", program],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv, code, loaded",
    [
        pytest.param(["check", "F"], 0, set(), id="check"),
        pytest.param(["certify", "F"], 0, set(), id="certify"),
        pytest.param(["demo"], 0, {"searchcli", "search"}, id="demo"),
        pytest.param(
            ["search", "--n", "6", "--pairs", "1,2"],
            1,
            {"searchcli", "search", "skeleton"},
            id="search",
        ),
        pytest.param(["enumerate", "--n", "2"], 0, {"searchcli", "sweep"}, id="enumerate"),
        pytest.param(["search", "--help"], 0, set(), id="help"),
        pytest.param(["search", "--n", "x"], 2, set(), id="usage"),
    ],
)
def test_each_command_loads_only_its_modules(argv, code, loaded, tmp_path):
    # every module compiles whole in each process, so check and certify load
    # none of the search side, demo and search never the sweep, and
    # enumerate never the structured search; help and usage errors load no
    # handler's module, and the table parser never loads argparse, with its
    # gettext and locale
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"ground": 3, "sets": [[1], [2], [1, 2]]}))
    argv = [str(path) if a == "F" else a for a in argv]
    program = (
        "import contextlib, io, sys, unionclosed.cli\n"
        "for flag in ([], ['--json']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        assert unionclosed.cli.main({argv!r} + flag) == {code}\n"
        "parser = {'argparse', 'gettext', 'locale'} & set(sys.modules)\n"
        "assert not parser, sorted(parser)\n"
        "print(sorted(m for m in sys.modules if m.startswith('unionclosed.')))\n"
    )
    src = str(Path(unionclosed.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", program],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    expected = {"family", "certificates", "cli"} | loaded
    assert proc.stdout.strip() == str(sorted(f"unionclosed.{m}" for m in expected))


@pytest.mark.parametrize(
    "name, module, unloaded",
    [
        pytest.param("conjecture_sweep", "sweep", "search", id="sweep"),
        pytest.param("SearchShape", "search", "sweep", id="search"),
    ],
)
def test_package_names_load_only_their_module(name, module, unloaded):
    # a lazy package name compiles the module that defines it and no other
    program = (
        "import sys, unionclosed\n"
        f"getattr(unionclosed, {name!r})\n"
        f"assert 'unionclosed.{module}' in sys.modules\n"
        f"sys.exit('unionclosed.{unloaded}' in sys.modules)\n"
    )
    src = str(Path(unionclosed.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", program],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr


def test_search_human_output_spells_each_member_with_format_set(capsys):
    # the listing spells each distinct mask once; the text must not change
    reports = search_counterexamples(SearchShape(8, ((1, 2), (3, 4))))
    lines = [
        "shape: ground size 8, pairs {1,2} {3,4}",
        f"counterexamples found: {len(reports)}",
    ]
    for idx, r in enumerate(reports, start=1):
        lines.append(
            f"counterexample {idx}: {len(r.family)} sets, max frequency {r.max_frequency}"
        )
        lines.append("  " + " ".join(format_set(m) for m in r.family))
    assert main(["search", "--n", "8", "--pairs", "1,2:3,4"]) == 0
    assert capsys.readouterr().out == "\n".join(lines) + "\n"


@pytest.mark.parametrize("pairs", ["1,2:3", "1;2", "1,x", "0,2"])
def test_search_rejects_bad_pairs(pairs, capsys):
    assert main(["search", "--n", "8", "--pairs", pairs]) == 2
    assert "error:" in capsys.readouterr().err


def test_search_refuses_large_ground(capsys):
    assert main(["search", "--n", "12", "--pairs", "1,2:3,4"]) == 3
    assert "refused:" in capsys.readouterr().err


def test_search_refuses_canonical_above_its_cap(capsys):
    assert main(["search", "--n", "9", "--pairs", "1,2:3,4", "--canonical"]) == 3
    assert "refused:" in capsys.readouterr().err


def test_search_refuses_beyond_the_solution_budget(monkeypatch, capsys):
    # the held sort keys are bounded: a shape with more solutions than the
    # budget exits 3 during the search, before any report is written
    monkeypatch.setattr("unionclosed.search._KEY_CAP", 100)
    assert main(["search", "--n", "8", "--pairs", "1,2:3,4", "--json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("refused:")
    with pytest.raises(ResourceLimitError):
        search_counterexamples(SearchShape(8, ((1, 2), (3, 4))))


def test_search_refuses_when_its_keys_run_out_of_memory(monkeypatch, capsys):
    # running out of memory while the keys are read is a refusal, like the
    # budget above, and not an internal error (exit 4)
    import unionclosed.skeleton

    real = unionclosed.skeleton._search_solutions

    def starved(n, missing):
        yield next(real(n, missing))
        raise MemoryError

    monkeypatch.setattr(unionclosed.skeleton, "_search_solutions", starved)
    assert main(["search", "--n", "8", "--pairs", "1,2:3,4", "--json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("refused:")
    with pytest.raises(ResourceLimitError):
        search_counterexamples(SearchShape(8, ((1, 2), (3, 4))))


def test_search_limit_says_how_many_were_found(capsys):
    # the human listing counts what was found and, when --limit cuts it
    # short, how many are listed; without a cut the line is unchanged
    cases = [
        ([], "counterexamples found: 1344", 1344),
        (["--limit", "3"], "counterexamples found: 1344 (3 listed)", 3),
        (["--limit", "0"], "counterexamples found: 1344 (0 listed)", 0),
        (["--canonical", "--limit", "3"], "counterexamples found: 7 (3 listed)", 3),
    ]
    for extra, line, listed in cases:
        assert main(["search", "--n", "8", "--pairs", "1,2:3,4", *extra]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1] == line
        assert sum(text.startswith("counterexample ") for text in out) == listed


@pytest.mark.parametrize(
    ("extra", "size"),
    [
        pytest.param(["--json"], 1168016, id="json"),
        pytest.param([], 200561, id="human"),
        pytest.param(["--limit", "3", "--canonical"], 517, id="limit-canonical"),
    ],
)
def test_search_closing_note_counts_the_bytes_written(extra, size, capsys):
    assert main(["search", *TWO_PAIRS_8, *extra]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.encode()) == size
    note = captured.err.splitlines()[-1]
    assert note.startswith(f"1344 report(s) built and verified, {size} bytes written in ")


def test_search_rejects_zero_workers(capsys):
    assert main(["search", "--n", "8", "--pairs", "1,2:3,4", "--workers", "0"]) == 2


def test_search_rejects_negative_limit(capsys):
    error = usage_error(["search", "--n", "8", "--limit", "-1"], capsys)
    assert error.endswith("argument --limit: limit must be nonnegative")


def test_search_limit_all_is_no_limit(capsys):
    argv = ["search", "--n", "8", "--pairs", "1,2:3,4", "--json"]
    assert main(argv) == 0
    unlimited = capsys.readouterr().out
    assert main([*argv, "--limit", "all"]) == 0
    assert capsys.readouterr().out == unlimited


def test_search_rejects_a_non_integer_limit(capsys):
    error = usage_error(["search", "--n", "8", "--limit", "abc"], capsys)
    assert "limit must be an integer or 'all'" in error


# ------------------------------------------------------------------ demo


def test_demo_human(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "frequency vector: (5, 5, 5, 5, 5, 5, 5, 5)" in out
    assert "55 pairwise interval checks" in out
    assert "no element reaches half" in out


def test_demo_json_round_trips(capsys):
    assert main(["demo", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pairwise_checks"] == 55
    report = rebuilt_report(payload["report"])
    assert report == minimal_counterexample()
    assert report.to_dict() == payload["report"]


def test_demo_json_is_the_sorted_dict_encoding(capsys):
    # the report is written from per-mask text; its bytes must be those of
    # the payload built from the library's verdicts and to_dict
    report = minimal_counterexample()
    fr, re = frankl_check(report.family), reimer_bound_holds(report.family)
    payload = {
        "report": report.to_dict(),
        "half_element": {"holds": fr.holds, "element": fr.element, "count": fr.count},
        "average_size_bound": {
            "holds": re.holds,
            "average": str(Fraction(re.total, re.member_count)),
            "threshold": re.threshold,
        },
        "pairwise_checks": 55,
    }
    assert main(["demo", "--json"]) == 0
    assert capsys.readouterr().out == json.dumps(payload, sort_keys=True) + "\n"


def test_demo_failed_recheck_exits_four(monkeypatch, capsys):
    # the bundled family failing its re-check is a fault, not a negative
    failing = ReimerVerdict(False, 0, 1, 1.0)
    monkeypatch.setattr("unionclosed.searchcli.reimer_bound_holds", lambda fam: failing)
    assert main(["demo"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "demo family failed re-verification" in captured.err


def test_demo_failed_certificate_recheck_exits_four(monkeypatch, capsys):
    # the bundled report is built by the program; its failing is a fault
    _patch_search_verify(monkeypatch, 0)
    assert main(["demo", "--json"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal error" in captured.err


# ------------------------------------------------------------- enumerate


def test_enumerate_ground_two(capsys):
    assert main(["enumerate", "--n", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "certified": 13,
        "ground": 2,
        "scanned": 14,
        "violations": [],
    }


def test_enumerate_ground_four(capsys):
    assert main(["enumerate", "--n", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "certified": 28736,
        "ground": 4,
        "scanned": 65534,
        "violations": [],
    }


@pytest.mark.parametrize(
    "json_flag", [pytest.param([], id="human"), pytest.param(["--json"], id="json")]
)
def test_enumerate_lists_violations_and_exits_one(json_flag, monkeypatch, capsys):
    # no ground size the sweep reaches has a violation, so one is patched in
    bad = Family(2, (0b01, 0b10, 0b11))
    summary = SweepSummary(2, 14, 13, (bad,))
    monkeypatch.setattr("unionclosed.sweep.conjecture_sweep", lambda n: summary)
    assert main(["enumerate", "--n", "2", *json_flag]) == 1
    out = capsys.readouterr().out
    if json_flag:
        assert json.loads(out)["violations"] == [bad.to_dict()]
    else:
        assert "1 fail the half-element property" in out
        assert "  " + " ".join(format_set(m) for m in bad) + "\n" in out


@pytest.mark.parametrize(
    "violations",
    [(), (Family(2, (0b01, 0b10, 0b11)),), (Family(2, (0b01, 0b10, 0b11)), Family(2, ()))],
    ids=["none", "one", "two"],
)
def test_enumerate_json_is_the_sorted_dict_encoding(violations, monkeypatch, capsys):
    # the violations are written from per-mask text; the sweep's own list is
    # empty at every ground size, so the families are patched in
    summary = SweepSummary(2, 14, 13, violations)
    monkeypatch.setattr("unionclosed.sweep.conjecture_sweep", lambda n: summary)
    assert main(["enumerate", "--n", "2", "--json"]) == (1 if violations else 0)
    payload = {
        "ground": 2,
        "scanned": 14,
        "certified": 13,
        "violations": [f.to_dict() for f in violations],
    }
    assert capsys.readouterr().out == json.dumps(payload, sort_keys=True) + "\n"


def test_enumerate_rejects_large_ground(capsys):
    assert main(["enumerate", "--n", "5"]) == 3
    assert "refused:" in capsys.readouterr().err


def test_enumerate_rejects_empty_ground(capsys):
    assert main(["enumerate", "--n", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_enumerate_rejects_ground_beyond_max(capsys):
    # past the largest ground any family may have it is a bad input (exit 2),
    # as for search, not a refused size (exit 3)
    assert main(["enumerate", "--n", "31"]) == 2
    assert "error: ground size must be an integer in 1..30, got 31" in capsys.readouterr().err


def test_enumerate_has_no_workers_option(capsys):
    error = usage_error(["enumerate", "--n", "2", "--workers", "2"], capsys)
    assert error.endswith("unrecognized arguments: --workers")


# ----------------------------------------------------------------- misc


def usage_error(argv, capsys):
    """The error line of main(argv), which must be a usage error: exit 2, a
    usage line and an error line on stderr, nothing on stdout."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    command = argv[0] if argv and argv[0] in COMMANDS else ""
    assert usage.startswith(f"usage: unionclosed {command}".rstrip() + " [-h]")
    assert error.startswith("error: ")
    return error


COMMANDS = ("check", "certify", "search", "demo", "enumerate")


def test_no_arguments_is_a_usage_error(capsys):
    assert usage_error([], capsys) == "error: a command is required"


@pytest.mark.parametrize(
    "argv, message",
    [
        # the other usage errors: no command, a negative or non-integer
        # --limit and enumerate --workers, each in a test of its own above
        pytest.param(["bogus"], "invalid command: 'bogus'", id="command"),
        pytest.param(["--json", "demo"], "unrecognized arguments: --json", id="before-command"),
        pytest.param(["demo", "--bogus"], "unrecognized arguments: --bogus", id="option"),
        pytest.param(["search", "-n", "8"], "unrecognized arguments: -n", id="short-option"),
        pytest.param(["search", "--n"], "argument --n: expected one argument", id="value"),
        pytest.param(
            ["search", "--n", "8", "--pairs", "--json"],
            "argument --pairs: expected one argument",
            id="option-for-value",
        ),
        pytest.param(["search", "--pairs", "1,2"], "required: --n", id="search-n"),
        pytest.param(["enumerate", "--json"], "required: --n", id="enumerate-n"),
        pytest.param(["certify"], "required: family", id="family"),
        pytest.param(["search", "--n", "x"], "argument --n: invalid literal for int()", id="n"),
        pytest.param(["enumerate", "--n="], "argument --n: invalid literal for int()", id="n-empty"),
        pytest.param(
            ["search", "--n", "8", "--workers", "two"],
            "argument --workers: invalid literal for int() with base 10: 'two'",
            id="workers",
        ),
        pytest.param(["search", "--n", "8", "extra"], "unrecognized arguments: extra", id="extra"),
        pytest.param(["check", "a", "b"], "unrecognized arguments: b", id="check-extra"),
        pytest.param(["certify", "a", "b", "c"], "unrecognized arguments: c", id="certify-extra"),
        pytest.param(["demo", "--", "--json"], "unrecognized arguments: --json", id="after-dashes"),
        pytest.param(
            ["demo", "--json=1"], "argument --json: ignored explicit argument '1'", id="flag-value"
        ),
    ],
)
def test_usage_errors_exit_two_with_usage_on_stderr(argv, message, capsys):
    assert message in usage_error(argv, capsys)


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "unionclosed" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
@pytest.mark.parametrize(
    "argv, names",
    [
        pytest.param([], COMMANDS, id="top"),
        pytest.param(["check"], ["family", "--json"], id="check"),
        pytest.param(["certify", "f.json"], ["family", "certificate", "--json"], id="certify"),
        pytest.param(
            ["search", "--n", "8"],
            ["--n", "--pairs", "--limit", "--workers", "--canonical", "--json"],
            id="search",
        ),
        pytest.param(["demo"], ["--json"], id="demo"),
        pytest.param(["enumerate", "--json"], ["--n", "--json"], id="enumerate"),
    ],
)
def test_help_names_every_option(argv, names, flag, capsys):
    # help wins over the rest of the line and gives each name a row
    assert main([*argv, flag]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    usage, *lines = captured.out.splitlines()
    assert usage.startswith(" ".join(["usage: unionclosed", *argv[:1], "[-h]"]))
    rows = {line.split()[0] for line in lines if line.startswith("  ")}
    assert rows >= {"-h,", *names}


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["search", "--n=8", "--pairs=1,2:3,4", "--json"], id="equals"),
        pytest.param(["search", "--n", "8", "--pai", "1,2:3,4", "--js"], id="prefix"),
        pytest.param(["search", "--json", "--n", "8", "--pairs", "1,2:3,4"], id="after-json"),
        pytest.param(
            ["search", "--n", "6", "--pairs", "1,2", "--json", "--n", "8", "--pairs=1,2:3,4"],
            id="last-wins",
        ),
    ],
)
def test_argument_spellings_print_the_same_bytes(argv, capsys):
    assert main(["search", "--n", "8", "--pairs", "1,2:3,4", "--json"]) == 0
    canonical = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == canonical


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "F", "C", "--json"],
        ["certify", "--json", "F", "C"],
        ["certify", "F", "--json", "C"],
        ["certify", "--js", "--", "F", "C"],
    ],
    ids=["after", "before", "between", "dashes"],
)
def test_certify_takes_its_options_anywhere(argv, minimal_files, capsys):
    fam, cert = minimal_files
    assert main([{"F": fam, "C": cert}.get(a, a) for a in argv]) == 0
    assert capsys.readouterr().out == '{"valid": true}\n'


class _ClosedPipe:
    """A stdout whose reader has gone: the named call raises BrokenPipeError
    (write when the output fills the pipe, flush when it fit the buffer)."""

    def __init__(self, fd, failing):
        self.fd = fd
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self):
        if self.failing == "flush":
            raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("failing", ["write", "flush"])
@pytest.mark.parametrize(
    "argv",
    [["demo"], ["enumerate", "--n", "2", "--json"], ["search", "--n", "8", "--pairs", "1,2:3,4"]],
)
def test_closed_stdout_exits_141(argv, failing, tmp_path, monkeypatch, capsys):
    # exit 141 (128 + SIGPIPE), never 0, 1 or 4, with stdout left on os.devnull
    with open(tmp_path / "stdout", "w") as target:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(target.fileno(), failing))
        assert main(argv) == 141
        assert os.path.samestat(os.fstat(target.fileno()), os.stat(os.devnull))
    assert "internal error" not in capsys.readouterr().err


def test_module_and_script_entry_points():
    proc = subprocess.run(
        [sys.executable, "-m", "unionclosed", "demo"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    script = shutil.which("unionclosed")
    assert script is not None
    proc = subprocess.run([script, "demo"], capture_output=True, text=True)
    assert proc.returncode == 0
