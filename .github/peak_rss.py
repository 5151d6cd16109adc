"""Run one ``nestfactor`` command under a time limit and a peak-RSS limit.

Usage::

    python .github/peak_rss.py LIMIT_MB TIMEOUT_S COMMAND [ARGS...]

Runs ``timeout TIMEOUT_S nestfactor COMMAND ARGS...``, prints its exit code
and the peak resident set size of the process tree it waited for, and exits
1 when the command failed (a timeout included) or its peak RSS exceeded
LIMIT_MB.
"""

import resource
import subprocess
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    limit_mb, timeout_s, *args = argv
    code = subprocess.run(["timeout", timeout_s, "nestfactor", *args]).returncode
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"nestfactor {' '.join(args)}: exit {code}, peak RSS {peak_mb:.1f} MB "
          f"(limit {limit_mb} MB)")
    return 1 if code != 0 or peak_mb > float(limit_mb) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
