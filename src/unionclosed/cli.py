"""Command-line front end.

Subcommands:
  check      verdicts for one family: union-closed, filter, half-element,
             average-size bound, certificate existence
  certify    verify a supplied certificate, or decide whether one exists
  search     enumerate counterexample families of a given shape
  demo       the bundled eleven-member example, rebuilt and re-verified
  enumerate  sweep every family over a tiny ground set

Exit codes: 0 for success or an affirmative answer, 1 for a legitimate
negative answer, 2 for usage or data errors, 3 for refused resource
guards, 4 for an internal error (a fault of this program, never a
verdict). In --json mode each command prints exactly one JSON document on
stdout; timing notes go to stderr so identical inputs give identical
stdout bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .certificates import (
    DECISION_CAP,
    Certificate,
    find_certificate,
    verify_certificate,
)
from .family import (
    Family,
    FamilyFormatError,
    ResourceLimitError,
    elements_of,
    format_set,
    frankl_check,
    is_filter,
    is_union_closed,
    reimer_bound_holds,
)
from .search import (
    SearchShape,
    conjecture_sweep,
    minimal_counterexample,
    search_counterexamples,
)


def _load_data(path: str) -> object:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FamilyFormatError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FamilyFormatError(
            f"{path} is not valid JSON: {exc.msg} (line {exc.lineno} column {exc.colno})"
        ) from exc
    except RecursionError as exc:
        raise FamilyFormatError(f"{path} nests too deeply to parse") from exc


def _emit(args: argparse.Namespace, payload: dict, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _certificate_lines(cert: Certificate) -> list[str]:
    return [f"  {format_set(a)} -> {format_set(f)}" for a, f in cert.pairs]


def _cmd_check(args: argparse.Namespace) -> int:
    fam = Family.from_dict(_load_data(args.family))
    payload: dict = {"family": fam.to_dict()}
    lines = [f"family: {len(fam)} sets over ground size {fam.ground_size}"]

    uc = is_union_closed(fam)
    if uc:
        payload["union_closed"] = {"holds": True}
        lines.append("union-closed: yes")
    else:
        a, b = uc.witness
        payload["union_closed"] = {
            "holds": False,
            "witness": {
                "left": list(elements_of(a)),
                "right": list(elements_of(b)),
                "union": list(elements_of(a | b)),
            },
        }
        lines.append(
            f"union-closed: no ({format_set(a)} | {format_set(b)}"
            f" = {format_set(a | b)} is missing)"
        )

    fl = is_filter(fam)
    if fl:
        payload["filter"] = {"holds": True}
        lines.append("filter: yes")
    else:
        member, missing = fl.witness
        payload["filter"] = {
            "holds": False,
            "witness": {
                "member": list(elements_of(member)),
                "missing": list(elements_of(missing)),
            },
        }
        lines.append(
            f"filter: no ({format_set(member)} is a member"
            f" but {format_set(missing)} is not)"
        )

    try:
        fr = frankl_check(fam)
    except ValueError:
        payload["half_element"] = {"status": "out-of-scope"}
        lines.append("half-element: out of scope for this family")
    else:
        payload["half_element"] = {
            "status": "checked",
            "holds": fr.holds,
            "element": fr.element,
            "count": fr.count,
        }
        word = "holds" if fr.holds else "fails"
        lines.append(
            f"half-element: {word}"
            f" (element {fr.element} is in {fr.count} of {len(fam)} sets)"
        )

    if len(fam) == 0:
        payload["average_size_bound"] = {"status": "out-of-scope"}
        lines.append("average-size bound: out of scope for the empty family")
    else:
        re = reimer_bound_holds(fam)
        payload["average_size_bound"] = {
            "status": "checked",
            "holds": re.holds,
            "average": str(re.average),
            "threshold": re.threshold,
        }
        word = "holds" if re.holds else "fails"
        lines.append(
            f"average-size bound: {word}"
            f" (average {re.average} = {float(re.average):.3f},"
            f" threshold log2({len(fam)})/2 = {re.threshold:.3f})"
        )

    if fam.ground_size <= DECISION_CAP:
        cert = find_certificate(fam)
        if cert is None:
            payload["certificate"] = {"status": "none"}
            lines.append("interval certificate: none (exhaustive decision)")
        else:
            payload["certificate"] = {"status": "found", "certificate": cert.to_dict()}
            lines.append("interval certificate: found")
            lines.extend(_certificate_lines(cert))
    else:
        payload["certificate"] = {"status": "skipped"}
        lines.append(
            f"interval certificate: skipped (decision supported up to ground size {DECISION_CAP})"
        )

    _emit(args, payload, lines)
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    fam = Family.from_dict(_load_data(args.family))
    if args.certificate is not None:
        cert = Certificate.from_dict(_load_data(args.certificate))
        verdict = verify_certificate(fam, cert)
        if verdict:
            _emit(args, {"valid": True}, ["certificate: valid"])
            return 0
        _emit(
            args,
            {"valid": False, "clause": verdict.clause, "detail": verdict.detail},
            [f"certificate: invalid ({verdict.clause}: {verdict.detail})"],
        )
        return 1
    cert = find_certificate(fam)
    if cert is None:
        _emit(
            args,
            {"status": "none"},
            ["no certificate exists (exhaustive decision)"],
        )
        return 1
    _emit(
        args,
        {"status": "found", "certificate": cert.to_dict()},
        ["certificate: found"] + _certificate_lines(cert),
    )
    return 0


def _parse_pairs(text: str) -> tuple[tuple[int, int], ...]:
    if not text:
        return ()
    pairs = []
    for chunk in text.split(":"):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise FamilyFormatError(
                f"pair {chunk!r} must be two comma-separated elements, like 1,2"
            )
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise FamilyFormatError(f"pair {chunk!r} must contain integers") from None
    return tuple(pairs)


def _cmd_search(args: argparse.Namespace) -> int:
    shape = SearchShape(args.n, _parse_pairs(args.pairs))
    started = time.perf_counter()
    found = search_counterexamples(
        shape, workers=args.workers, canonical=args.canonical
    )
    elapsed = time.perf_counter() - started
    print(
        f"search finished in {elapsed:.1f}s with {len(found)} result(s)",
        file=sys.stderr,
    )
    reports = found[: args.limit]
    # Each mode formats every report, so build only the one printed.
    if args.json:
        payload = {
            "shape": shape.to_dict(),
            "count": len(reports),
            "reports": [r.to_dict() for r in reports],
        }
        _emit(args, payload, [])
    else:
        lines = [
            f"shape: ground size {shape.ground_size},"
            f" pairs {' '.join(format_set((1 << (i - 1)) | (1 << (j - 1))) for i, j in shape.missing_pairs) or '(none)'}",
            f"counterexamples found: {len(reports)}",
        ]
        for idx, r in enumerate(reports, start=1):
            lines.append(
                f"counterexample {idx}: {len(r.family)} sets,"
                f" max frequency {r.max_frequency}"
            )
            lines.append("  " + " ".join(format_set(m) for m in r.family))
        _emit(args, {}, lines)
    # The exit code answers whether the shape admits a family, which
    # --limit does not change.
    return 0 if found else 1


def _cmd_demo(args: argparse.Namespace) -> int:
    report = minimal_counterexample()
    fam = report.family
    cert = report.certificate
    fr = frankl_check(fam)
    re = reimer_bound_holds(fam)
    checks = len(cert) * (len(cert) - 1) // 2
    if fr.holds or not re.holds:
        print("demo family failed re-verification", file=sys.stderr)
        return 1
    payload = {
        "report": report.to_dict(),
        "half_element": {"holds": fr.holds, "element": fr.element, "count": fr.count},
        "average_size_bound": {
            "holds": re.holds,
            "average": str(re.average),
            "threshold": re.threshold,
        },
        "pairwise_checks": checks,
    }
    lines = [
        f"ground size: {fam.ground_size}",
        f"members: {len(fam)}, paired with their filter images:",
        *_certificate_lines(cert),
        f"frequency vector: {report.frequency}",
        f"max frequency {report.max_frequency} of {len(fam)} members:"
        " no element reaches half, the half-element property fails",
        f"average size {re.average} = {float(re.average):.3f},"
        f" threshold log2({len(fam)})/2 = {re.threshold:.3f}: the size bound holds",
        f"certificate: valid ({checks} pairwise interval checks)",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    summary = conjecture_sweep(args.n)
    payload = {
        "ground": summary.ground_size,
        "scanned": summary.scanned,
        "certified": summary.certified,
        "violations": [f.to_dict() for f in summary.violations],
    }
    lines = [
        f"ground size {summary.ground_size}: scanned {summary.scanned} families,"
        f" {summary.certified} admit a certificate,"
        f" {len(summary.violations)} fail the half-element property"
    ]
    for f in summary.violations:
        lines.append("  " + " ".join(format_set(m) for m in f))
    _emit(args, payload, lines)
    return 0 if not summary.violations else 1


def _limit_arg(text: str) -> int | None:
    if text == "all":
        return None
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("limit must be an integer or 'all'") from None
    if value < 0:
        raise argparse.ArgumentTypeError("limit must be nonnegative")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unionclosed",
        description="Exact checks and searches for set families over a small ground set.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run every verdict on one family")
    p.add_argument("family", help="path to a family JSON file")
    p.add_argument("--json", action="store_true", help="emit one JSON document")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("certify", help="verify or decide an interval certificate")
    p.add_argument("family", help="path to a family JSON file")
    p.add_argument(
        "certificate",
        nargs="?",
        default=None,
        help="path to a certificate JSON file; omit to search for one",
    )
    p.add_argument("--json", action="store_true", help="emit one JSON document")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("search", help="enumerate counterexamples of a shape")
    p.add_argument("--n", type=int, required=True, help="ground set size")
    p.add_argument(
        "--pairs",
        default="",
        help="colon-separated element pairs, like 1,2:3,4",
    )
    p.add_argument(
        "--limit",
        type=_limit_arg,
        default=None,
        help="emit at most this many reports, or 'all' (the default)",
    )
    p.add_argument("--workers", type=int, default=1, help="parallel worker count")
    p.add_argument(
        "--canonical",
        action="store_true",
        help="keep one representative per relabeling orbit",
    )
    p.add_argument("--json", action="store_true", help="emit one JSON document")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("demo", help="rebuild and verify the eleven-member example")
    p.add_argument("--json", action="store_true", help="emit one JSON document")
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("enumerate", help="sweep every family over a tiny ground")
    p.add_argument("--n", type=int, required=True, help="ground set size (1..4)")
    p.add_argument("--json", action="store_true", help="emit one JSON document")
    p.set_defaults(func=_cmd_enumerate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except (FamilyFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Exit 1 is a proven negative answer, so a fault must not surface
        # as an uncaught exception, which the interpreter reports as 1.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def run() -> None:
    sys.exit(main(sys.argv[1:]))
