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
checked (N >= 1) but changes nothing. The search, demo and enumerate
handlers live in searchcli.py, imported only when one of them runs, so
check and certify compile none of the search side.

The command line is parsed from one table, _COMMANDS, which gives each
command its handler, its positionals, options and flags, and a line of
help for each; -h or --help, at the top or after a command, prints help
built from it. The parse takes the forms argparse takes: --opt value or
--opt=value, options before, between or after the positionals, -- to
end them, a unique prefix of an option, and the last of a repeated
option. A usage error prints a usage line and an error line on stderr
and exits 2. No command loads argparse, gettext or locale.
"""

from __future__ import annotations

import json
import os
import sys
from collections.abc import Callable, Iterator
from functools import cache
from itertools import starmap
from math import gcd
from pathlib import Path
from types import SimpleNamespace
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
    reimer_bound_holds,
)

if TYPE_CHECKING:
    from .family import ReimerVerdict


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


def _emit(args: SimpleNamespace, payload: dict, lines: list[str]) -> None:
    if args.json:
        print("".join(_json(payload)))
    else:
        for line in lines:
            print(line)


def _certificate_lines(cert: Certificate) -> list[str]:
    return [f"  {format_set(a)} -> {format_set(f)}" for a, f in cert.pairs]


def _cmd_check(args: SimpleNamespace) -> int:
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


def _cmd_certify(args: SimpleNamespace) -> int:
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


def _average(re: ReimerVerdict) -> tuple[str, float]:
    """The average member size re.total / re.member_count as str and float
    of its Fraction give it, without fractions: the reduced ratio p/q, or p
    when q is 1."""
    d = gcd(re.total, re.member_count)
    p, q = re.total // d, re.member_count // d
    return f"{p}/{q}" if q != 1 else str(p), re.total / re.member_count


def _limit_arg(text: str) -> int | None:
    if text == "all":
        return None
    try:
        value = int(text)
    except ValueError:
        raise ValueError("limit must be an integer or 'all'") from None
    if value < 0:
        raise ValueError("limit must be nonnegative")
    return value


# The command line: for each command its handler (a function of this
# module, or the name of one in searchcli.py, imported only when it runs),
# a line of help, and its arguments, options first. An argument is (name,
# convert, default, help): a name with dashes is an option, a flag when
# convert is None, and a name without is a positional. An argument whose
# default is _REQUIRED must be given. A handler reads each argument as the
# attribute named by its name without dashes.
_REQUIRED = object()
_JSON = ("--json", None, False, "emit one JSON document")
_FAMILY = ("family", None, _REQUIRED, "path to a family JSON file")
_COMMANDS = {
    "check": (_cmd_check, "run every verdict on one family", _JSON, _FAMILY),
    "certify": (
        _cmd_certify,
        "verify or decide an interval certificate",
        _JSON,
        _FAMILY,
        ("certificate", None, None, "path to a certificate JSON file; omit to search for one"),
    ),
    "search": (
        "_cmd_search",
        "enumerate counterexamples of a shape",
        ("--n", int, _REQUIRED, "ground set size"),
        ("--pairs", str, "", "colon-separated element pairs, like 1,2:3,4"),
        ("--limit", _limit_arg, None, "emit at most this many reports, or 'all' (the default)"),
        (
            "--workers",
            int,
            1,
            "accepted for compatibility (at least 1); the search runs in one process",
        ),
        ("--canonical", None, False, "keep one representative per relabeling orbit"),
        _JSON,
    ),
    "demo": ("_cmd_demo", "rebuild and verify the eleven-member example", _JSON),
    "enumerate": (
        "_cmd_enumerate",
        "sweep every family over a tiny ground",
        ("--n", int, _REQUIRED, "ground set size (1..4)"),
        _JSON,
    ),
}


class _UsageError(Exception):
    """A command line the table does not take: (command, message), the
    command "" for the program itself."""


def _is_option(arg: str) -> bool:
    # as in argparse, "-" and negative numbers are values
    return arg[:1] == "-" and arg != "-" and not arg[1:].isdigit()


def _help(command: str) -> list[str]:
    """The help of command, or of the program for "", from the table: the
    usage line, a line about it, then one line per argument or command."""
    words = [f"usage: unionclosed {command}".rstrip(), "[-h]"]
    rows = [("-h, --help", "show this help message and exit")]
    if command:
        _, about, *arguments = _COMMANDS[command]
        for name, convert, default, text in arguments:
            if name[0] == "-" and convert:
                name += " " + name[2:].upper()
            words.append(name if default is _REQUIRED else f"[{name}]")
            rows.append((name, text))
    else:
        about = "Exact checks and searches for set families over a small ground set."
        words.append("{" + ",".join(_COMMANDS) + "} ...")
        rows += [(name, entry[1]) for name, entry in _COMMANDS.items()]
    width = max(len(name) for name, _ in rows)
    return [" ".join(words), "", about, "", *(f"  {name:<{width}}  {text}" for name, text in rows)]


def _print_help(command: str) -> int:
    print("\n".join(_help(command)))
    return 0


def _parse(argv: list[str]) -> tuple[Callable | str, object]:
    """The handler of a command line and what it is called with, by the
    table; -h or --help gives _print_help and the command. As argparse
    does, this takes --opt value and --opt=value, options before, between
    or after positionals, -- to end them, a unique prefix of an option, and
    the last of a repeated option. Raises _UsageError for anything else."""
    command = argv[0] if argv and argv[0] in _COMMANDS else ""
    handler, _, *arguments = _COMMANDS.get(command, (None, None))
    values, options, positionals, given = {}, {}, [], []
    for name, convert, default, _ in arguments:
        values[name.strip("-")] = default
        if name[0] == "-":
            options[name] = convert
        else:
            positionals.append(name)
    rest = iter(argv[1:] if command else argv)
    for arg in rest:
        if arg == "--":
            given += rest
        elif not _is_option(arg):
            given.append(arg)
        else:
            name, eq, value = arg.partition("=")
            if name not in options:
                matches = [option for option in [*options, "--help"] if option.startswith(name)]
                if name == "-h" or matches == ["--help"]:
                    return _print_help, command
                if len(matches) != 1:
                    raise _UsageError(command, "unrecognized arguments: " + arg)
                name = matches[0]
            convert = options[name]
            if convert is None:
                if eq:
                    message = f"argument {name}: ignored explicit argument {value!r}"
                    raise _UsageError(command, message)
                value = True
            else:
                if not eq:
                    value = next(rest, "--")
                    if _is_option(value):
                        raise _UsageError(command, f"argument {name}: expected one argument")
                try:
                    value = convert(value)
                except ValueError as exc:
                    raise _UsageError(command, f"argument {name}: {exc}") from None
            values[name[2:]] = value
    if not command:
        message = f"invalid command: {given[0]!r}" if given else "a command is required"
        raise _UsageError("", message)
    if len(given) > len(positionals):
        extra = " ".join(given[len(positionals) :])
        raise _UsageError(command, "unrecognized arguments: " + extra)
    values.update(zip(positionals, given))
    missing = [name for name, _, _, _ in arguments if values[name.strip("-")] is _REQUIRED]
    if missing:
        raise _UsageError(command, "the following arguments are required: " + ", ".join(missing))
    return handler, SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        command, message = exc.args
        print(_help(command)[0], "error: " + message, sep="\n", file=sys.stderr)
        return 2
    try:
        if isinstance(handler, str):
            from . import searchcli

            handler = getattr(searchcli, handler)
        code = handler(args)
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
