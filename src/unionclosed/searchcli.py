"""The search, demo and enumerate commands.

cli.py parses the arguments from its command table, which names these
handlers, and imports this module only when one of them runs, so check
and certify do not compile it. Each handler imports what it runs when it
is called: search and demo load search.py, enumerate loads sweep.py and
never the structured search. Their documents go through cli.py's one
JSON writer.
"""

from __future__ import annotations

import sys
import time
from collections.abc import Iterator
from functools import cache
from itertools import chain, islice
from typing import TYPE_CHECKING

from .cli import _average, _certificate_lines, _emit, _json
from .family import (
    FamilyFormatError,
    format_set,
    frankl_check,
    mask_from_elements,
    reimer_bound_holds,
)

if TYPE_CHECKING:
    from types import SimpleNamespace

    from .search import CounterexampleReport, SearchShape


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


def _cmd_search(args: SimpleNamespace) -> int:
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


def _cmd_demo(args: SimpleNamespace) -> int:
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


def _cmd_enumerate(args: SimpleNamespace) -> int:
    from .sweep import conjecture_sweep

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
