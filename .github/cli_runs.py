"""CI's ``nestfactor`` runs as one table: ``python .github/cli_runs.py`` from the repository
root, with the package installed.  Each row runs as ``timeout T nestfactor ARGS --out NAME
[--config NAME.cfg]`` in a fresh temp directory, kept for inspection, and passes on its exit
code when each pattern matches a line of its ``summary.txt`` (else of its output) and its own
peak RSS (``os.wait4``) is within its limit.  Corner rows follow the caps in ``nestfactor.cli``.
"""

import multiprocessing
import os
import re
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from nestfactor.cli import (COMMANDS, MAX_ALPHAS, MAX_CASES, MAX_CHANNELS, MAX_DIM,
                            MAX_SCHEDULE, POSDEF_MAX_DIM)
from nestfactor.serialize import write_matrix_csv


class Row(NamedTuple):
    name: str                     # its output directory; its config is NAME.cfg
    args: str                     # the command line before --out and --config
    config: str | None = None     # None: no --config
    timeout_s: int = 120
    rss_mb: int | None = None     # the peak-RSS limit in MB
    code: int = 0                 # the expected exit code
    expect: tuple[str, ...] = ()  # patterns, each to match a line (re.M)
    env: dict[str, str] = {}      # added to the environment


def rank300(path: str) -> None:
    a = np.random.default_rng(300).standard_normal((300, MAX_DIM))
    write_matrix_csv(path, a.T @ a / MAX_DIM)


HALF = MAX_DIM // 2
DEEP = f"n = {MAX_DIM}\nschedule = {MAX_SCHEDULE}\n"
ALPHAS = f"alphas = {', '.join(map(str, range(2, 2 + MAX_ALPHAS)))}\n"
RANK300 = f"operator = csv\ncsv_path = rank300.csv\nschedule = {MAX_SCHEDULE}\n"
# the diag_values cap with the paper's semidefinite case: rank HALF at dimension MAX_DIM
RANK_HALF = (f"operator = diagonal\nschedule = {MAX_SCHEDULE}\ndiag_values = "
             + ", ".join([str(1 + k % 7) for k in range(HALF)] + ["0"] * HALF) + "\n")
# C is not positive definite, so the Cholesky oracle refuses and the distance reads nan
NAN = "^cholesky distance = nan$"
SEMIDEFINITE = "operator = diagonal\ndiag_values = 4, 1, 0, 0\n"
GRAM_FLOOR = "operator = diagonal\ndiag_values = 4, 1, 1e-8, 0\n"
# a block-diagonal C on a channel nest commutes with the channels exactly
CHANNELS_OK = ("^channel commutation defect = 0\\.0$", "^harness verdict = pass$")

ROWS = [
    Row("factorize", "factorize", "n = 16\nschedule = 4\n"),
    Row("diagonal", "diagonal", "operator = volterra_factor\nn = 16\nschedule = 4\n"),
    Row("stability", "stability", "n = 16\nschedule = 4\n"),
    Row("stability-channel", "stability", "nest = channel\nchannels = 2\nn = 16\n"),
    Row("counterexample", "counterexample", "n_max = 8\ntrunc = 16\n"),
    Row("channels", "channels", "n = 8\nchannels = 2\nschedule = 3\n", expect=CHANNELS_OK),
    Row("posdef-check", "posdef-check", "n = 8\ncases = 5\n"),
    # the semidefinite case: its Cauchy defects are 0, so refinement stops at once
    Row("factorize-semidefinite", "factorize", SEMIDEFINITE, expect=(NAN,)),
    Row("diagonal-semidefinite", "diagonal", SEMIDEFINITE),
    # a value the rank cut keeps (root 1e-4 for factorize, 1e-8 for diagonal) but far
    # below the Gram floor, so the block spectrum's SVD path runs end to end
    Row("factorize-gram-floor", "factorize", GRAM_FLOOR),
    Row("diagonal-gram-floor", "diagonal", GRAM_FLOOR),
    Row("help", "--help", expect=COMMANDS),
    Row("bogus", "bogus", code=2),
    # a tol the family cannot meet: a fail verdict exits 1
    Row("stability-fail", "stability", "n = 16\nschedule = 4\ntol = 1e-6\n", code=1,
        expect=(r"^regular convergence verdict = fail \(operator defect ",)),
    # a kappa outside (0, 1) and a non-finite alpha are refused where the config enters
    Row("kappa-zero", "factorize", "kappa = 0\n", code=2, expect=(r"kappa must lie in \(0, 1\)",)),
    Row("alphas-nan", "stability", "alphas = 2, nan\n", code=2),
    Row("factorize-max-dim", "factorize", f"n = {MAX_DIM}\nschedule = 5\n", 120, 160),
    Row("factorize-corner", "factorize", DEEP, 120, 160),
    Row("diagonal-corner", "diagonal", DEEP, 120, 110),
    Row("diagonal-rank300", "diagonal", RANK300, 120, 110),
    Row("factorize-rank300", "factorize", RANK300, 120, 160),
    Row("factorize-half-rank", "factorize", RANK_HALF, 120, 160,
        expect=(f"^rank defect = {HALF}$", NAN)),
    Row("diagonal-half-rank", "diagonal", RANK_HALF, 120, 110),
    Row("stability-defaults", "stability"),
    Row("stability-max-dim", "stability", f"n = {MAX_DIM}\n", 120, 180),
    Row("stability-corner", "stability", DEEP + ALPHAS, 120, 180),
    Row("stability-channel8", "stability", f"nest = channel\nchannels = 8\nn = {MAX_DIM}\n",
        120, 180),
    # the shape of the channels-block benchmark workload: 4 channels of 24
    Row("stability-channel4", "stability", "nest = channel\nchannels = 4\nn = 96\n"),
    Row("diagonal-defaults", "diagonal"),
    Row("counterexample-defaults", "counterexample"),
    Row("counterexample-corner", "counterexample", f"n_max = {HALF}\ntrunc = {MAX_DIM}\n",
        120, 190),
    Row("channels-defaults", "channels", None, 300, 250, expect=CHANNELS_OK),
    Row("channels-corner", "channels", f"n = {MAX_DIM // MAX_CHANNELS}\nchannels = {MAX_CHANNELS}"
        f"\nschedule = {MAX_SCHEDULE}\n" + ALPHAS, 120, 180, expect=CHANNELS_OK),
    Row("posdef-check-defaults", "posdef-check"),
    # warnings as errors: a 0/0 in the gap bounds (the first gap is all zeros) fails the row
    Row("posdef-check-corner", "posdef-check", f"n = {POSDEF_MAX_DIM}\ncases = {MAX_CASES}\n",
        60, 60, env={"PYTHONWARNINGS": "error"}),
]


def run(row: Row) -> bool:
    """Run one row in the current directory, print its line and return whether it passed."""
    argv = ["timeout", str(row.timeout_s), "nestfactor", *row.args.split(), "--out", row.name]
    if row.config is not None:
        Path(f"{row.name}.cfg").write_text(row.config)
        argv += ["--config", f"{row.name}.cfg"]
    with open(f"{row.name}.log", "wb") as log:
        start = time.perf_counter()
        pid = os.posix_spawnp(argv[0], argv, {**os.environ, **row.env}, file_actions=[
            (os.POSIX_SPAWN_DUP2, log.fileno(), 1), (os.POSIX_SPAWN_DUP2, log.fileno(), 2)])
        # this child's tree alone; it starts in this process's memory, so reads at least its peak
        _, status, usage = os.wait4(pid, 0)
        wall_s = time.perf_counter() - start
    code, peak_mb = os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024
    summary, log = Path(row.name, "summary.txt"), Path(f"{row.name}.log").read_text()
    text = summary.read_text() if summary.exists() else log
    missing = [p for p in row.expect if not re.search(p, text, re.M)]
    ok = code == row.code and not missing and (row.rss_mb is None or peak_mb <= row.rss_mb)
    config = "; ".join(re.sub(r"(.{40}).+", r"\1 ...", x) for x in (row.config or "").splitlines())
    print(f"{'ok  ' if ok else 'FAIL'} {row.name}: nestfactor {row.args} [{config}] exit "
          f"{code} (want {row.code}), {wall_s:.2f} s (limit {row.timeout_s} s), peak RSS "
          f"{peak_mb:.1f} MB (limit {row.rss_mb or '-'} MB)", flush=True)
    if not ok:
        print(*(f"     no line matches {p!r}" for p in missing), log, sep="\n", flush=True)
    return ok


def main() -> int:
    os.chdir(tempfile.mkdtemp(prefix="nestfactor-cli-runs-"))
    # written in a process of its own, as each row's peak RSS starts from this process's
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        pool.apply(rank300, ("rank300.csv",))
    failed = [row.name for row in ROWS if not run(row)]
    print(f"{len(ROWS) - len(failed)} of {len(ROWS)} rows passed in {os.getcwd()}", *failed)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
