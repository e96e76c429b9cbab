"""Recompute perfbench/sweep_reference.json, what `enumerate --n 4` must report.

Usage: python3 perfbench/reference.py

The certified count and the violation list come from the brute-force
oracle in checker.py, which lists every certificate over [4] filter by
filter; nothing is read from the program. The file also records how many
families over [4] are union-closed and how many meet the average-size
bound, the lower and upper limits on the certified count.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import checker

REFERENCE = Path(__file__).resolve().parent / "sweep_reference.json"


def main() -> int:
    started = time.perf_counter()
    ref = checker.sweep_reference(4)
    print(f"recomputed in {time.perf_counter() - started:.1f} s: {ref['certified']} certified,"
          f" {len(ref['violations'])} violations", file=sys.stderr)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
