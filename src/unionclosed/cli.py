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
guards (running out of memory in a search or a decision included), 4 for
an internal error (a fault of this program, never a verdict), 141 (128 +
SIGPIPE) when the reader of stdout closes it before the output is
written. In --json mode each command prints exactly one JSON document on
stdout; timing notes go to stderr so identical inputs give identical
stdout bytes. Every document comes from one writer, _json, with the
bytes of json.dumps(..., sort_keys=True) of the payload with to_dict,
joined from per-mask text. `search` builds, verifies and writes its
reports one at a time; its stdout is cut short only with exit 141 or
with exit 4, when a report of the program's own fails re-verification.
The search runs in one process; `search --workers N` is accepted and
checked (N >= 1) but changes nothing. The search module is imported
only by the commands that use it (search, demo, enumerate).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections.abc import Iterator
from functools import cache
from itertools import chain, islice, starmap
from math import gcd
from pathlib import Path
from typing import TYPE_CHECKING

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
    mask_from_elements,
    reimer_bound_holds,
)

if TYPE_CHECKING:
    from .family import ReimerVerdict
    from .search import CounterexampleReport, SearchShape


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
    except ValueError as exc:  # an integer past Python's int-to-string limit
        raise FamilyFormatError(f"{path} cannot be parsed: {exc}") from exc


# The text of each mask and of each (member, image) pair, encoded once. A
# command writes one document, so the caches hold that document's masks.
_set_text = cache(lambda m: json.dumps(list(elements_of(m))))
_pair_text = cache(lambda a, f: f'{{"image": {_set_text(f)}, "set": {_set_text(a)}}}')


def _json(value: object) -> Iterator[str]:
    """The text of json.dumps(value, sort_keys=True) in pieces, where a
    Family, a Certificate or a CounterexampleReport stands for its to_dict.

    A list or an iterator gives one piece per item, and "[" comes out
    before the first item is taken, so a report that fails its
    re-verification leaves only whole reports written.
    """
    if isinstance(value, dict):
        yield "{"
        sep = ""
        for key in sorted(value):
            yield f"{sep}{json.dumps(key)}: "
            yield from _json(value[key])
            sep = ", "
        yield "}"
    elif isinstance(value, (list, Iterator)):
        yield "["
        sep = ""
        for item in value:
            yield sep + "".join(_json(item))
            sep = ", "
        yield "]"
    else:
        yield _text(value)


def _text(value: object) -> str:
    """json.dumps(value, sort_keys=True) for a value _json writes in one
    piece. Families, certificates and reports are joined from per-mask
    text rather than built as dict trees: on the power set of [12] those
    run out of memory first."""
    if isinstance(value, Family):
        return f'{{"ground": {value.ground_size}, "sets": [{", ".join(map(_set_text, value))}]}}'
    if isinstance(value, Certificate):
        pairs = ", ".join(starmap(_pair_text, value.pairs))
        return f'{{"ground": {value.ground_size}, "pairs": [{pairs}]}}'
    if hasattr(value, "max_frequency"):
        # a CounterexampleReport, told apart without importing search
        return (
            f'{{"certificate": {_text(value.certificate)},'
            f' "family": {_text(value.family)},'
            f' "frequency": [{", ".join(map(str, value.frequency))}],'
            f' "max_frequency": {value.max_frequency}}}'
        )
    return json.dumps(value, sort_keys=True)


def _emit(args: argparse.Namespace, payload: dict, lines: list[str]) -> None:
    if args.json:
        print("".join(_json(payload)))
    else:
        for line in lines:
            print(line)


def _certificate_lines(cert: Certificate) -> list[str]:
    return [f"  {format_set(a)} -> {format_set(f)}" for a, f in cert.pairs]


def _cmd_check(args: argparse.Namespace) -> int:
    fam = Family.from_dict(_load_data(args.family))
    payload: dict = {"family": fam}
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
        ratio, average = _average(re)
        payload["average_size_bound"] = {
            "status": "checked",
            "holds": re.holds,
            "average": ratio,
            "threshold": re.threshold,
        }
        word = "holds" if re.holds else "fails"
        lines.append(
            f"average-size bound: {word}"
            f" (average {ratio} = {average:.3f},"
            f" threshold log2({len(fam)})/2 = {re.threshold:.3f})"
        )

    if fam.ground_size <= DECISION_CAP:
        cert = find_certificate(fam)
        if cert is None:
            payload["certificate"] = {"status": "none"}
            lines.append("interval certificate: none (exhaustive decision)")
        else:
            payload["certificate"] = {"certificate": cert, "status": "found"}
            lines.append("interval certificate: found")
            if not args.json:
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
        _emit(args, {"status": "none"}, ["no certificate exists (exhaustive decision)"])
        return 1
    lines = [] if args.json else ["certificate: found", *_certificate_lines(cert)]
    _emit(args, {"certificate": cert, "status": "found"}, lines)
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


def _average(re: ReimerVerdict) -> tuple[str, float]:
    """The average member size re.total / re.member_count as str and float
    of its Fraction give it, without fractions: the reduced ratio p/q, or p
    when q is 1."""
    d = gcd(re.total, re.member_count)
    p, q = re.total // d, re.member_count // d
    return f"{p}/{q}" if q != 1 else str(p), re.total / re.member_count


def _search_lines(
    shape: SearchShape, found: int, count: int, reports: Iterator[CounterexampleReport]
) -> Iterator[str]:
    """The human search listing of count of the found reports, a piece per
    report; each mask is spelled once."""
    text = cache(format_set)
    pairs = " ".join(
        format_set(mask_from_elements(p, shape.ground_size)) for p in shape.missing_pairs
    )
    yield (
        f"shape: ground size {shape.ground_size}, pairs {pairs or '(none)'}\n"
        f"counterexamples found: {found}{f' ({count} listed)' if count < found else ''}"
    )
    for idx, r in enumerate(reports, start=1):
        yield (
            f"\ncounterexample {idx}: {len(r.family)} sets, max frequency {r.max_frequency}"
            f"\n  {' '.join(map(text, r.family))}"
        )


def _cmd_search(args: argparse.Namespace) -> int:
    from .search import SearchShape, _search_reports

    if args.workers < 1:
        raise ValueError("workers must be at least 1")
    shape = SearchShape(args.n, _parse_pairs(args.pairs))
    started = time.perf_counter()
    found, built, reports = _search_reports(shape, canonical=args.canonical)
    elapsed = time.perf_counter() - started
    print(f"search finished in {elapsed:.1f}s with {found} result(s)", file=sys.stderr)
    started = time.perf_counter()
    count = found if args.limit is None else min(found, args.limit)
    listed = islice(reports, count)
    if args.json:
        pieces = _json({"count": count, "reports": listed, "shape": shape.to_dict()})
    else:
        pieces = _search_lines(shape, found, count, listed)
    size = 0
    for piece in chain(pieces, ["\n"]):
        sys.stdout.write(piece)
        size += len(piece.encode())
    # The exit code claims that the shape admits a family, so the reports
    # past --limit are built and verified too.
    for _ in reports:
        pass
    sys.stdout.flush()
    elapsed = time.perf_counter() - started
    note = f"{built} report(s) built and verified, {size} bytes written in {elapsed:.3f}s"
    print(note, file=sys.stderr)
    return 0 if found else 1


def _cmd_demo(args: argparse.Namespace) -> int:
    from .search import minimal_counterexample

    report = minimal_counterexample()
    fam = report.family
    cert = report.certificate
    fr = frankl_check(fam)
    re = reimer_bound_holds(fam)
    ratio, average = _average(re)
    checks = len(cert) * (len(cert) - 1) // 2
    # The report's constructor has already refused an element in half the
    # members; a failed re-check is a fault of this program (exit 4).
    if not re.holds:
        raise RuntimeError("demo family failed re-verification")
    payload = {
        "report": report,
        "half_element": {"holds": fr.holds, "element": fr.element, "count": fr.count},
        "average_size_bound": {
            "holds": re.holds,
            "average": ratio,
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
        f"average size {ratio} = {average:.3f},"
        f" threshold log2({len(fam)})/2 = {re.threshold:.3f}: the size bound holds",
        f"certificate: valid ({checks} pairwise interval checks)",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    from .search import conjecture_sweep

    summary = conjecture_sweep(args.n)
    payload = {
        "ground": summary.ground_size,
        "scanned": summary.scanned,
        "certified": summary.certified,
        "violations": list(summary.violations),
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
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted for compatibility (at least 1); the search runs in one process",
    )
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
        code = args.func(args)
        # Flushed here so that a reader gone early is caught below.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout closed it (say, `| head -1`): no fault of
        # this program and no verdict. As the signal module docs advise,
        # stdout now points at os.devnull, so the flush at exit cannot
        # raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
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
