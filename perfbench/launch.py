"""Run one command and write its wall time and peak memory as JSON.

Usage: python3 perfbench/launch.py STATS_PATH COMMAND...

run.py starts every command through this small process rather than
directly. When a process execs, Linux counts the peak resident memory of
the process that started it into the new program's peak. A command
started by run.py would so report run.py's own peak, which grows with
the outputs it checks. This process stays smaller than any command it
starts, so the peak it reads is the command's, pool workers included.
Stdout and stderr pass straight to the command, and the exit code is
the command's.
"""

import json
import resource
import subprocess
import sys
import time


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    launched = time.monotonic()  # the clock traced_cli.py stamps spans with
    start = time.perf_counter()
    code = subprocess.call(argv)
    wall = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    with open(stats_path, "w") as f:
        json.dump({"launched": launched, "wall_s": wall, "peak_kb": peak_kb}, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
