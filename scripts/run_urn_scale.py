#!/usr/bin/env python3
"""Time the urn commands through the CLI and report the peak memory of each process.

For each sample size n (by default 1e5, the Amazon n = 553,949 and 2e6) it runs,
each in a fresh child process:

- `simulate --family dp --alpha 751.23` (the Amazon ML alpha),
- `simulate --family dm --bound-h 20000 --sigma -1`,
- `simulate --family ap --gamma 6.67` (the Amazon AP fit),
- `validate --family dp --alpha 751.23` on the DP simulation's abundances and
  `validate --family ap --gamma 6.67` on the AP simulation's, each with
  `--replicates` urns (default 3),

all with `--seed 1`, and prints each command's wall seconds and the peak RSS of its
process (VmHWM, the `ru_maxrss` that wait4 reports; see run_cold_start.run), so
memory per draw can be read as the growth of the peak with n.  Run from the root of
a source checkout:

    python3 scripts/run_urn_scale.py
    python3 scripts/run_urn_scale.py 100000 2000000 --replicates 5
"""

import argparse
import os
import sys
import tempfile

from run_cold_start import run

SIZES = (100_000, 553_949, 2_000_000)
MODELS = {"dp": ["--alpha", "751.23"], "dm": ["--bound-h", "20000", "--sigma", "-1"],
          "ap": ["--gamma", "6.67"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("sizes", type=int, nargs="*", default=SIZES, help="sample sizes n")
    parser.add_argument("--replicates", type=int, default=3, help="--replicates of validate")
    args = parser.parse_args()

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    cli = [sys.executable, "-m", "sigmadiv.cli"]
    print(f"{'command':<14}{'n':>10}{'wall s':>9}{'VmHWM MiB':>11}")
    with tempfile.TemporaryDirectory() as work:
        for n in args.sizes:
            for family, flags in MODELS.items():
                out = os.path.join(work, f"simulate-{family}-{n}")
                wall, _, peak = run(cli + ["simulate", "--family", family, *flags,
                                           "--n", str(n), "--seed", "1", "--output-dir", out],
                                    env)
                print(f"{'simulate ' + family:<14}{n:>10}{wall:>9.2f}{peak:>11.1f}")
            for family in ("dp", "ap"):
                table = os.path.join(work, f"simulate-{family}-{n}", "simulated_abundance.csv")
                out = os.path.join(work, f"validate-{family}-{n}")
                wall, _, peak = run(cli + ["validate", "--input", table, "--family", family,
                                           *MODELS[family], "--replicates",
                                           str(args.replicates), "--seed", "1",
                                           "--output-dir", out], env)
                print(f"{'validate ' + family:<14}{n:>10}{wall:>9.2f}{peak:>11.1f}")


if __name__ == "__main__":
    main()
