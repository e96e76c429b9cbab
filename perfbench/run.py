"""End-to-end and per-layer benchmark of the unionclosed command line.

Usage:
  python3 perfbench/run.py --workload decide --seed 1 --seconds 40 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. Every operation is one fresh
`python -m unionclosed ...` process with PYTHONPATH=src, run one after
another and started through perfbench/launch.py, which times it and
reads its peak memory. A round is the workload's commands with fifteen `demo --json` runs
(the set-up cost) spread evenly among them; rounds repeat while another
fits in --seconds, and at least one runs. Every output is checked with
perfbench/checker.py, which shares no code with the program.

With --trace 0 the last stdout line is one JSON object with the
end-to-end metrics. With --trace 1 the run makes one untraced round and
then the same round through perfbench/traced_cli.py, and reports
per-layer metrics from the spans instead. Metrics, failed operations and
a per-workload breakdown also go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checker
import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "sweep_reference.json"
WORKLOADS = ("decide", "search", "sweep")
SETUP_RUNS = 15
# A run kills whatever is still going at this age, so it ends within 180 s.
RUN_LIMIT_S = 165.0
# The one operation known to fail: find_certificate recurses once per
# member and raises RecursionError on the 1024 members of this family.
KNOWN_FAULTS = {"certify power_set_10"}


@dataclass
class Op:
    name: str
    kind: str  # groups operations for the breakdown on stderr
    args: list[str]
    check: Callable[["Result", dict], str | None]
    # Names of earlier operations of the round whose stdout the check reads.
    reads: tuple[str, ...] = ()


@dataclass
class Result:
    op: Op
    code: int
    stdout: bytes
    stderr: bytes
    wall: float
    launched: float  # time.monotonic() just before the command started
    peak_kb: int  # peak resident memory of the command and its pool workers
    problem: str | None = None
    spans: dict | None = None


class RunTimeout(Exception):
    pass


def parse_json(res: Result) -> dict:
    return json.loads(res.stdout)


def expect_code(res: Result, code: int) -> str | None:
    if b"Traceback" in res.stderr:
        return "traceback on stderr"
    if res.code != code:
        return f"exit {res.code}, expected {code}"
    return None


# ---- set-up: demo -----------------------------------------------------------


def check_demo(res: Result, done: dict) -> str | None:
    problem = expect_code(res, 0)
    if problem:
        return problem
    report = parse_json(res)["report"]
    n, fam = checker.family_from_dict(report["family"])
    _, pairs = checker.certificate_from_dict(report["certificate"])
    paper, _ = gen.paper_certificate()
    if (n, fam) != (8, paper):
        return "demo family is not the paper's 11-set family"
    return report_problem(n, fam, pairs, report)


def report_problem(n: int, fam: frozenset, pairs, report: dict) -> str | None:
    """Independent verdict on one counterexample report."""
    clause = checker.certificate_problem(n, fam, pairs)
    if clause:
        return f"certificate fails clause {clause}"
    freq = checker.frequencies(n, fam)
    if report["frequency"] != freq or report["max_frequency"] != max(freq):
        return "frequency fields disagree with the family"
    if checker.half_element(n, fam):
        return "an element reaches half the members"
    return None


def with_setup(ops: list[Op]) -> list[Op]:
    """Spread the demo runs evenly through the round, so that setup_s
    samples the machine over the whole round rather than at its start."""
    out = list(ops)
    for k in reversed(range(SETUP_RUNS)):
        demo = Op(f"demo {k}", "setup", ["demo", "--json"], check_demo)
        out.insert(k * len(ops) // SETUP_RUNS, demo)
    return out


# ---- decide -----------------------------------------------------------------


def decide_ops(work: Path, seed: int) -> list[Op]:
    cases, _ = gen.write(seed, work)
    ops = []
    for case in cases:

        def check(res: Result, done: dict, case=case) -> str | None:
            if case.expect == "valid":
                problem = expect_code(res, 0)
                if not problem and parse_json(res) != {"valid": True}:
                    problem = "exit 0 without the valid document"
                return problem
            if case.expect == "none":
                problem = expect_code(res, 1)
                if not problem and parse_json(res) != {"status": "none"}:
                    problem = "exit 1 without the status none document"
                return problem
            problem = expect_code(res, 0)
            if problem:
                return problem
            doc = parse_json(res)
            n, pairs = checker.certificate_from_dict(doc["certificate"])
            if doc["status"] != "found" or n != case.ground:
                return "certificate document for the wrong ground"
            clause = checker.certificate_problem(n, case.family, pairs)
            return f"certificate fails clause {clause}" if clause else None

        path = work / "decide" / f"{case.name}.json"
        args = ["certify", str(path), "--json"]
        if case.certificate:
            args.insert(2, str(path.with_suffix(".cert.json")))
        kind = "verify" if case.certificate else "certify"
        ops.append(Op(f"certify {case.name}", kind, args, check))
    return ops


# ---- search -----------------------------------------------------------------

BASE_PAIRS = "1,2:3,4"


BASE = f"search {BASE_PAIRS}"


@functools.lru_cache(maxsize=2)
def search_reports(stdout: bytes) -> tuple[str | None, frozenset]:
    """Check every report of a search; return its set of (family, pairs)."""
    doc = json.loads(stdout)
    if doc["count"] != len(doc["reports"]):
        return "count disagrees with the report list", frozenset()
    result = set()
    for raw in doc["reports"]:
        n, fam = checker.family_from_dict(raw["family"])
        _, pairs = checker.certificate_from_dict(raw["certificate"])
        problem = report_problem(n, fam, pairs, raw)
        if problem:
            return problem, frozenset()
        result.add((fam, frozenset(pairs)))
    return None, frozenset(result)


def search_result(res: Result) -> tuple[str | None, frozenset]:
    problem = expect_code(res, 0)
    return (problem, frozenset()) if problem else search_reports(res.stdout)


def base_result(done: dict) -> frozenset | None:
    """The checked result of this round's base search, if it has one."""
    try:
        problem, result = search_reports(done[BASE])
    except (ValueError, KeyError, TypeError):
        return None
    return None if problem else result


def check_base(res: Result, done: dict) -> str | None:
    problem, result = search_result(res)
    if problem:
        return problem
    paper, _ = gen.paper_certificate()
    if paper not in {fam for fam, _ in result}:
        return "the 11-set family is missing"
    return None


def check_same_bytes(first: str) -> Callable[[Result, dict], str | None]:
    def check(res: Result, done: dict) -> str | None:
        problem = expect_code(res, 0)
        if problem:
            return problem
        if done.get(first) != res.stdout:
            return f"stdout differs from {first}"
        return None

    return check


def check_relabeled(perm: list[int]) -> Callable[[Result, dict], str | None]:
    mapping = dict(zip(range(1, 9), perm))

    def check(res: Result, done: dict) -> str | None:
        problem, result = search_result(res)
        if problem:
            return problem
        base = base_result(done)
        if base is None:
            return f"no checked {BASE_PAIRS} result to compare with"
        moved = {
            (checker.relabel(fam, mapping), checker.relabel_pairs(pairs, mapping))
            for fam, pairs in base
        }
        return None if moved == result else f"result is not the {BASE_PAIRS} result relabeled"

    return check


def check_canonical(res: Result, done: dict) -> str | None:
    problem, result = search_result(res)
    if problem:
        return problem
    reps = [fam for fam, _ in result]
    for i, left in enumerate(reps):
        for right in reps[i + 1 :]:
            if checker.isomorphic(8, left, right):
                return "two representatives are relabelings of each other"
    base = base_result(done)
    if base is None:
        return f"no checked {BASE_PAIRS} result to compare with"
    labeled = {fam for fam, _ in base}
    stabilizer = checker.pair_stabilizer(8, [(1, 2), (3, 4)])
    covered: set = set()
    for rep in reps:
        orbit = {checker.relabel(rep, p) for p in stabilizer}
        if orbit & covered:
            return "two orbits overlap"
        covered |= orbit
    if covered != labeled or len(labeled) != len(base):
        return "orbits do not tile the labeled result"
    return None


def search_ops(work: Path, seed: int) -> list[Op]:
    _, shapes = gen.write(seed, work)
    base = ["search", "--n", "8", "--pairs", BASE_PAIRS, "--json"]
    ops = [
        Op(BASE, "search_w1", base, check_base),
        Op(f"{BASE} w2", "search_w2", base + ["--workers", "2"], check_same_bytes(BASE), (BASE,)),
        Op(f"{BASE} canonical", "canonical", base + ["--canonical"], check_canonical, (BASE,)),
    ]
    for shape in shapes:
        args = ["search", "--n", "8", "--pairs", shape["pairs"], "--json"]
        name = f"search {shape['pairs']}"
        ops.append(Op(name, "search_w1", args, check_relabeled(shape["perm"]), (BASE,)))
        ops.append(Op(f"{name} w2", "search_w2", args + ["--workers", "2"],
                      check_same_bytes(name), (name,)))
    return ops


# ---- sweep ------------------------------------------------------------------


def check_sweep(n: int, reference: dict) -> Callable[[Result, dict], str | None]:
    def check(res: Result, done: dict) -> str | None:
        problem = expect_code(res, 1 if reference["violations"] else 0)
        if problem:
            return problem
        doc = parse_json(res)
        if doc["ground"] != n or doc["scanned"] != (1 << (1 << n)) - 2:
            return "scanned count is not 2**(2**n) - 2"
        if doc["certified"] != reference["certified"]:
            return f"certified {doc['certified']}, oracle says {reference['certified']}"
        if not reference["union_closed"] <= doc["certified"] <= reference["average_bound"]:
            return "certified count outside [union-closed, average-bound] counts"
        listed = sorted(sorted(sorted(s) for s in v["sets"]) for v in doc["violations"])
        if listed != reference["violations"]:
            return "violation list differs from the oracle's"
        for v in doc["violations"]:
            if checker.half_element(*checker.family_from_dict(v)):
                return "a listed violation has a half element"
        return None

    return check


def sweep_ops(work: Path, seed: int) -> list[Op]:
    reference = json.loads(REFERENCE.read_text())
    if reference["ground"] != 4 or reference["scanned"] != (1 << 16) - 2:
        raise ValueError(f"{REFERENCE} is not the [4] reference")
    ops = [Op("enumerate 4", "sweep", ["enumerate", "--n", "4", "--json"],
              check_sweep(4, reference))]
    for n in (3, 2):
        ops.append(Op(f"enumerate {n}", "sweep_small", ["enumerate", "--n", str(n), "--json"],
                      check_sweep(n, checker.sweep_reference(n))))
    return ops


PLANS = {"decide": decide_ops, "search": search_ops, "sweep": sweep_ops}


# ---- running ----------------------------------------------------------------


class Runner:
    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        # No .pyc files: every command compiles the package the same way,
        # whatever the caller's environment, and src/ stays untouched.
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
        self.verdicts: dict[tuple, str | None] = {}
        # The stdout of each operation so far in this round, by name, for
        # checks that compare commands (same bytes, relabeled result).
        self.done: dict[str, bytes] = {}

    def run(self, op: Op, trace: bool) -> Result:
        spans_path = self.work / "spans.json"
        stats_path = self.work / "launch.json"
        if trace:
            command = [str(HERE / "traced_cli.py"), str(spans_path)]
        else:
            command = ["-m", "unionclosed"]
        argv = [sys.executable, str(HERE / "launch.py"), str(stats_path), sys.executable,
                *command, *op.args]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RunTimeout(op.name)
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=self.env, cwd=ROOT, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            raise RunTimeout(op.name) from None
        finally:
            # Pool workers share the command's process group; none may outlive it.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        stats = json.loads(stats_path.read_text())
        stats_path.unlink()
        res = Result(op, proc.returncode, out, err, stats["wall_s"], stats["launched"],
                     stats["peak_kb"])
        if trace:
            res.spans = json.loads(spans_path.read_text()) if spans_path.exists() else None
            spans_path.unlink(missing_ok=True)
        # A verdict depends only on the operation's own output and on the
        # outputs it reads, so an output seen before is not checked again.
        read = tuple(self.done.get(n) for n in op.reads)
        key = (op.name, res.code, out, b"Traceback" in err, read)
        if key not in self.verdicts:
            try:
                self.verdicts[key] = op.check(res, self.done)
            except (ValueError, KeyError, TypeError) as exc:
                self.verdicts[key] = f"unreadable output ({type(exc).__name__}: {exc})"
        res.problem = self.verdicts[key]
        self.done[op.name] = out
        return res

    def round(self, ops: list[Op], trace: bool = False) -> list[Result]:
        self.done = {}
        return [self.run(op, trace) for op in ops]


def median_over(rounds: list[list[Result]], pick: Callable[[list[Result]], float]) -> float:
    return statistics.median(pick(r) for r in rounds)


def end_to_end(rounds: list[list[Result]]) -> dict:
    setup = [r.wall for rnd in rounds for r in rnd if r.op.kind == "setup"]
    peak_kb = max(r.peak_kb for rnd in rounds for r in rnd)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (
            median_over(rounds, lambda rnd: sum(r.wall for r in rnd if r.op.kind != "setup")),
            "s",
        ),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def breakdown(rounds: list[list[Result]]) -> dict:
    """The workload's wall time split by kind of command, for stderr."""

    def label(r: Result) -> str:
        if r.problem:
            return "failed_s"
        if r.op.kind == "certify":
            return "certify_found_s" if r.code == 0 else "certify_none_s"
        return {"search_w1": "search_s"}.get(r.op.kind, f"{r.op.kind}_s")

    labels = sorted({label(r) for rnd in rounds for r in rnd if r.op.kind != "setup"})
    return {
        lab: median_over(rounds, lambda rnd: sum(r.wall for r in rnd if label(r) == lab))
        for lab in labels
    }


def span_stats(spans: dict | None) -> tuple[dict, float | None]:
    """Per span name: calls, inclusive s, self s, max s; plus when cli.main began."""
    stats: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "max_s": 0.0})
    if not spans:
        return stats, None
    names, name, parent = spans["names"], spans["name"], spans["parent"]
    dur = [e - s for s, e in zip(spans["start"], spans["end"])]
    children = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p] += dur[i]
    main = None
    for i, d in enumerate(dur):
        st = stats[names[name[i]]]
        st["calls"] += 1
        st["self_s"] += d - children[i]
        st["max_s"] = max(st["max_s"], d)
        p = parent[i]
        while p >= 0 and name[p] != name[i]:
            p = parent[p]
        if p < 0:  # outermost span of its name: count its time once
            st["s"] += d
        if parent[i] < 0 and names[name[i]] == "cli.main":
            main = spans["start"][i] - spans["install_s"]
    return stats, main


def per_layer(untraced: list[Result], traced: list[Result]) -> dict:
    """Per-layer metrics of the traced round; a module is a layer.

    Every time reported here is nonzero on every workload, since each
    round's demo runs enter all four modules. Per-function figures for
    functions a workload may never call (find_certificate on search,
    search_counterexamples and conjecture_sweep elsewhere) go to stderr.
    """
    total: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "max_s": 0.0})
    startup = []
    for res in traced:
        stats, main = span_stats(res.spans)
        if main is not None:  # interpreter start and imports, wrapping excluded
            startup.append(main - res.launched)
        for nm, st in stats.items():
            agg = total[nm]
            agg["calls"] += st["calls"]
            agg["s"] += st["s"]
            agg["self_s"] += st["self_s"]
            agg["max_s"] = max(agg["max_s"], st["max_s"])
    for nm, st in sorted(total.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  span {nm}: {st['calls']} calls, {st['s']:.6g} s, self {st['self_s']:.6g} s,"
              f" max {st['max_s']:.6g} s", file=sys.stderr)
    module_self: dict = defaultdict(float)
    for nm, st in total.items():
        module_self[nm.partition(".")[0]] += st["self_s"]
    fc, vc = total["certificates.find_certificate"], total["certificates.verify_certificate"]
    rep = total["search.CounterexampleReport"]
    fam, fr = total["family.Family"], total["family.frankl_check"]
    main = total["cli.main"]
    return {
        "certificates.find_certificate.calls": (fc["calls"], "count"),
        "certificates.verify_certificate.calls": (vc["calls"], "count"),
        "certificates.verify_certificate.s": (vc["s"], "s"),
        "certificates.self_s": (module_self["certificates"], "s"),
        "search.CounterexampleReport.calls": (rep["calls"], "count"),
        "search.CounterexampleReport.s": (rep["s"], "s"),
        "search.self_s": (module_self["search"], "s"),
        "family.Family.calls": (fam["calls"], "count"),
        "family.Family.s": (fam["s"], "s"),
        "family.frankl_check.calls": (fr["calls"], "count"),
        "family.frankl_check.s": (fr["s"], "s"),
        "family.self_s": (module_self["family"], "s"),
        "cli.main.self_s": (main["self_s"], "s"),
        "cli.main.max_s": (main["max_s"], "s"),
        "cli.stdout_bytes": (sum(len(r.stdout) for r in traced), "bytes"),
        "cli.startup_s": (statistics.median(startup), "s"),
        "trace.overhead_s": (sum(r.wall for r in traced) - sum(r.wall for r in untraced), "s"),
    }


def report(workload: str, seed: int, rounds: list[list[Result]], metrics: dict) -> dict:
    results = [r for rnd in rounds for r in rnd]
    failed = [r for r in results if r.problem]
    unexpected = [r for r in failed if r.op.name not in KNOWN_FAULTS]
    print(f"{workload} seed {seed}: {len(rounds)} round(s), {len(results)} operations"
          f" attempted, {len(failed)} failed", file=sys.stderr)
    for r in {r.op.name: r for r in failed}.values():
        known = "known fault" if r.op.name in KNOWN_FAULTS else "UNEXPECTED"
        print(f"  failed ({known}): {r.op.name}: {r.problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}", file=sys.stderr)
    return {
        "correct": not unexpected,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> int:
    started = time.monotonic()
    work = ROOT / ".perfbench" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, started + RUN_LIMIT_S)
    rounds: list[list[Result]] = []
    try:
        ops = with_setup(PLANS[workload](work, seed))
        if trace:
            rounds = [runner.round(ops), runner.round(ops, trace=True)]
            metrics = per_layer(rounds[0], rounds[1])
        else:
            while True:
                round_start = time.monotonic()
                rounds.append(runner.round(ops))
                now = time.monotonic()
                if now - started + (now - round_start) > seconds:
                    break
            metrics = end_to_end(rounds)
            for name, value in breakdown(rounds).items():
                print(f"  breakdown {name} {value:.6g} s", file=sys.stderr)
    except RunTimeout as exc:
        print(f"{workload}: gave up after {RUN_LIMIT_S:.0f} s, still in {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report(workload, seed, rounds, metrics)))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "unionclosed" / "__init__.py").is_file():
        print(f"no unionclosed package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [
            subprocess.call([sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                             "--seconds", str(args.seconds), "--trace", str(args.trace)])
            for w in WORKLOADS
        ]
        return max(codes)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
