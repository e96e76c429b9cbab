"""Command line behavior: exit codes, JSON payloads, error routing.

Exit code contract: 0 for an affirmative outcome, 1 for a legitimate
negative one, 2 for usage or data errors, 3 for refused resource
guards, 4 for an internal error. Everything runs in-process through
main() except a run without numpy and one smoke test of the installed
entry points.
"""

import json
import shutil
import subprocess
import sys

import pytest

from unionclosed import (
    Certificate,
    CounterexampleReport,
    Family,
    minimal_counterexample,
    verify_certificate,
)
from unionclosed.cli import main


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


def test_check_wrong_schema(family_file, capsys):
    fam = family_file("f.json", {"ground": 2, "sets": [[1]], "junk": True})
    assert main(["check", fam]) == 2
    assert "error:" in capsys.readouterr().err


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


def test_certify_ground_mismatch(family_file, capsys):
    fam = family_file("f.json", {"ground": 2, "sets": [[]]})
    cert = family_file("c.json", {"ground": 3, "pairs": [{"set": [], "image": [1, 2, 3]}]})
    assert main(["certify", fam, cert]) == 2
    assert "error:" in capsys.readouterr().err


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


# ---------------------------------------------------------------- search


def test_search_empty_shape_exits_one(capsys):
    assert main(["search", "--n", "6", "--pairs", "1,2:3,4", "--json"]) == 1
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["count"] == 0 and payload["reports"] == []
    assert "search finished" in captured.err


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


def test_search_rejects_zero_workers(capsys):
    assert main(["search", "--n", "8", "--pairs", "1,2:3,4", "--workers", "0"]) == 2


def test_search_rejects_negative_limit(capsys):
    assert main(["search", "--n", "8", "--limit", "-1"]) == 2


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


def test_enumerate_rejects_large_ground(capsys):
    assert main(["enumerate", "--n", "5"]) == 3
    assert "refused:" in capsys.readouterr().err


def test_enumerate_rejects_empty_ground(capsys):
    assert main(["enumerate", "--n", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_enumerate_has_no_workers_option(capsys):
    assert main(["enumerate", "--n", "2", "--workers", "2"]) == 2


# ----------------------------------------------------------------- misc


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "unionclosed" in capsys.readouterr().out


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
