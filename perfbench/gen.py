"""Seeded inputs for the benchmark: the `decide` corpus and the `search` shapes.

The same seed always gives the same files. The program under test sees
only what this writes; the expected verdict of every family is derived
here with the independent checker, never from the program:

  - the 11-set family of the paper, to decide (a deep search that finds);
  - the star of the empty set and the singletons of [10], which fails the
    average-size bound, to decide (a deep search that proves none exists);
  - the power set of [10], union-closed, so a certificate exists;
  - the 11-set family relabeled by seeded permutations of 1..8 (two-pair
    families for the relabeled pairs), each with its relabeled
    certificate, to verify;
  - seeded union-closed families over [8]..[10] with 6..10 members, which
    have a certificate by the average-set-size theorem (Reimer 2003);
  - seeded families of 6 or 7 sets of size <= 2 that fail the
    average-size bound, so no certificate exists.

Run `python3 perfbench/gen.py --seed 1 --out DIR` to look at the files."""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import checker

# The paper's family, member by member, with the image each member takes:
# the full set, the co-atom missing i for i = 1..8, then the complements
# of {1, 2} and {3, 4}.
PAPER_MEMBERS = (
    (1, 2, 3, 4, 5, 6, 7, 8),
    (2, 4, 6, 7, 8),
    (1, 3, 5, 8),
    (1, 4, 7, 8),
    (2, 3, 5, 6),
    (1, 3, 7),
    (2, 3, 5),
    (2, 4, 6),
    (4, 5, 6, 7),
    (8,),
    (1,),
)
PAPER_PAIRS = ((1, 2), (3, 4))

RELABELED_TWO_PAIR = 4
UNION_CLOSED = 12
BELOW_BOUND = 8
SEARCH_SHAPES = 3


@dataclass(frozen=True)
class Case:
    """One `certify` input: its file stem, the family, and the verdict due."""

    name: str
    ground: int
    family: frozenset
    expect: str  # "found", "none", or "valid" for a supplied certificate
    certificate: tuple = ()


def _require(holds: bool, what: str) -> None:
    if not holds:
        raise RuntimeError(f"generated input fails its own check: {what}")


def paper_certificate() -> tuple[frozenset, list]:
    full = checker.ground(8)
    images = [full] + [full - {i} for i in range(1, 9)] + [full - set(p) for p in PAPER_PAIRS]
    pairs = [(frozenset(a), img) for a, img in zip(PAPER_MEMBERS, images)]
    return frozenset(a for a, _ in pairs), pairs


def _permutation(rng: random.Random, n: int) -> dict:
    image = list(range(1, n + 1))
    rng.shuffle(image)
    return dict(zip(range(1, n + 1), image))


def _union_closed(rng: random.Random) -> tuple[int, frozenset]:
    while True:
        n = rng.choice((8, 9, 10))
        members: set[frozenset] = set()
        for _ in range(rng.choice((3, 4))):
            g = frozenset(e for e in range(1, n + 1) if rng.random() < 0.35)
            members |= {g} | {g | s for s in members}
        if rng.random() < 0.5:
            members.add(frozenset())
        fam = frozenset(members)
        if 6 <= len(fam) <= 10:
            return n, fam


def _below_bound(rng: random.Random) -> tuple[int, frozenset]:
    n = rng.choice((8, 9, 10))
    pool = [frozenset(c) for k in range(3) for c in combinations(range(1, n + 1), k)]
    size = rng.choice((6, 7))
    while True:
        fam = frozenset(rng.sample(pool, size))
        if not checker.meets_average_bound(fam):
            return n, fam


def decide_corpus(seed: int) -> list[Case]:
    rng = random.Random(f"decide:{seed}")
    paper, pairs = paper_certificate()
    _require(checker.certificate_problem(8, paper, pairs) is None, "paper certificate")
    star = frozenset([frozenset()] + [frozenset([e]) for e in range(1, 10)])
    _require(not checker.meets_average_bound(star), "star fails the bound")
    power = frozenset(checker.subsets(range(1, 11)))
    cases = [
        Case("paper", 8, paper, "found"),
        Case("star_10", 10, star, "none"),
        Case("power_set_10", 10, power, "found"),
    ]
    for k in range(RELABELED_TWO_PAIR):
        perm = _permutation(rng, 8)
        fam = checker.relabel(paper, perm)
        moved = tuple(checker.relabel_pairs(pairs, perm))
        _require(checker.certificate_problem(8, fam, moved) is None, "relabeled certificate")
        cases.append(Case(f"two_pair_{k}", 8, fam, "valid", moved))
    for k in range(UNION_CLOSED):
        n, fam = _union_closed(rng)
        _require(checker.union_closed(fam), "union-closure")
        cases.append(Case(f"union_closed_{k}", n, fam, "found"))
    for k in range(BELOW_BOUND):
        n, fam = _below_bound(rng)
        cases.append(Case(f"below_bound_{k}", n, fam, "none"))
    return cases


def search_shapes(seed: int) -> list[dict]:
    """Seeded relabelings of the shape 1,2:3,4, each with its permutation."""
    rng = random.Random(f"search:{seed}")
    out: list[dict] = []
    seen = {frozenset(map(frozenset, PAPER_PAIRS))}
    while len(out) < SEARCH_SHAPES:
        perm = _permutation(rng, 8)
        moved = [tuple(sorted(perm[e] for e in p)) for p in PAPER_PAIRS]
        key = frozenset(map(frozenset, moved))
        if key in seen:
            continue
        seen.add(key)
        out.append({
            "pairs": ":".join(f"{a},{b}" for a, b in sorted(moved)),
            "perm": [perm[e] for e in range(1, 9)],
        })
    return out


def write(seed: int, out: Path) -> tuple[list[Case], list[dict]]:
    """Write decide/<name>.json (and <name>.cert.json) per case, search_shapes.json."""
    cases = decide_corpus(seed)
    shapes = search_shapes(seed)
    (out / "decide").mkdir(parents=True, exist_ok=True)
    for case in cases:
        path = out / "decide" / f"{case.name}.json"
        path.write_text(json.dumps(checker.family_to_dict(case.ground, case.family)))
        if case.certificate:
            cert = checker.certificate_to_dict(case.ground, case.certificate)
            path.with_suffix(".cert.json").write_text(json.dumps(cert))
    (out / "search_shapes.json").write_text(json.dumps(shapes, indent=1))
    return cases, shapes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    cases, shapes = write(args.seed, args.out)
    for case in cases:
        print(f"{case.name}: ground {case.ground}, {len(case.family)} sets, expect {case.expect}")
    for shape in shapes:
        print(f"shape {shape['pairs']} (relabeling {shape['perm']})")


if __name__ == "__main__":
    main()
