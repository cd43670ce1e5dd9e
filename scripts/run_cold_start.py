#!/usr/bin/env python3
"""Time cold sigmadiv processes: a bare `import sigmadiv.cli` and every subcommand.

Each run is a fresh child interpreter; the subcommands work on tiny inputs written
to a temporary directory (a 7-taxon abundance table and a 6-row three-level tree),
so what is timed is mostly start-up: the imports, numpy's load and the CLI's own
set-up.  The runs are interleaved, `--runs` rounds of all of them (default 11), so
a drift in host speed touches every run alike.  For each run the script prints the
median wall seconds, the median CPU seconds of the child (user + system, from the
rusage that wait4 reports) and the median peak RSS (VmHWM, `ru_maxrss`).  CPU above
wall means a second thread was busy, such as a BLAS worker spinning while idle.

Python reads any bytecode cached under src/; run with PYTHONDONTWRITEBYTECODE=1
after removing src/sigmadiv/__pycache__ to time the compile of sigmadiv's source
too.  Run from the root of a source checkout:

    python3 scripts/run_cold_start.py
    python3 scripts/run_cold_start.py --runs 21
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time

ABUNDANCE = "taxon,count\na,30\nb,12\nc,5\nd,2\ne,1\nf,1\ng,1\n"
TREE = ("level1,level2,level3,count\nf1,g1,s1,20\nf1,g1,s2,5\nf1,g2,s3,3\n"
        "f2,g3,s4,8\nf2,g3,s5,1\nf3,g4,s6,2\n")
COMMANDS = {
    "simulate": ["simulate", "--n", "40", "--alpha", "5"],
    "simulate nested": ["simulate", "--n", "40", "--levels-spec", "dp:3;dp:2;ap:0.8"],
    "fit dp": ["fit", "--input", "{abundance}", "--draws", "50"],
    "fit ap": ["fit", "--input", "{abundance}", "--family", "ap", "--draws", "50"],
    "richness": ["richness", "--input", "{abundance}", "--sg", "1", "0.02", "52",
                 "--nhat", "5000", "--draws", "200"],
    "extrapolate": ["extrapolate", "--input", "{abundance}", "--m", "5"],
    "validate": ["validate", "--input", "{abundance}", "--replicates", "3"],
    "taxonomic": ["taxonomic", "--input", "{tree}", "--mcmc-iters", "30", "--burn-in", "10"],
}


def run(argv, env):
    """(wall s, CPU s, peak RSS in MiB) of one child process running argv, from the
    rusage that wait4 reports; exits if the child fails.  The other run_*_scale
    scripts time their children with it too."""
    start = time.perf_counter()
    child = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit(f"{' '.join(argv)} exited with {os.waitstatus_to_exitcode(status)}")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=11, help="cold runs of each command")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be >= 1")

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    with tempfile.TemporaryDirectory() as work:
        inputs = {"abundance": os.path.join(work, "abundance.csv"),
                  "tree": os.path.join(work, "tree.csv")}
        for name, text in (("abundance", ABUNDANCE), ("tree", TREE)):
            with open(inputs[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        argvs = {"import sigmadiv.cli": [sys.executable, "-c", "import sigmadiv.cli"]}
        for i, (name, argv) in enumerate(COMMANDS.items()):
            argvs[name] = ([sys.executable, "-m", "sigmadiv.cli"]
                           + [a.format(**inputs) for a in argv]
                           + ["--seed", "1", "--output-dir", os.path.join(work, f"out{i}")])
        samples = {name: [] for name in argvs}
        for _ in range(args.runs):
            for name, argv in argvs.items():
                samples[name].append(run(argv, env))

    print(f"{'run':<22}{'wall s':>9}{'CPU s':>9}{'VmHWM MiB':>11}")
    for name, runs in samples.items():
        wall, cpu, peak = (statistics.median(column) for column in zip(*runs))
        print(f"{name:<22}{wall:>9.3f}{cpu:>9.3f}{peak:>11.1f}")


if __name__ == "__main__":
    main()
