#!/usr/bin/env python3
"""Time the taxonomic fit of an Amazon-scale simulated taxonomy through the CLI.

Simulates n = 553,949 individuals from a family/genus/species tree
(`--levels-spec "dp:25;dp:2.5;ap:0.9" --seed 6`: 276 families, 2,599 genera,
18,496 species), then runs `sigmadiv taxonomic --rho 0.25 --seed 7` on it in a
child process with the given number of MCMC iterations (burn-in one tenth of
them).  Prints the fit's wall seconds, the peak RSS of the fit's process (its
`ru_maxrss`, from wait4; see run_cold_start.run) and the size of the
`taxonomic_fit.json` it wrote.
Run from the root of a source checkout:

    python3 scripts/run_taxonomic_scale.py 2000
"""

import argparse
import os
import subprocess
import sys
import tempfile

from run_cold_start import run


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mcmc_iters", type=int, help="--mcmc-iters of the fit")
    args = parser.parse_args()

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    cli = [sys.executable, "-m", "sigmadiv.cli"]
    with tempfile.TemporaryDirectory() as work:
        sim, out = os.path.join(work, "sim"), os.path.join(work, "fit")
        subprocess.run(cli + ["simulate", "--levels-spec", "dp:25;dp:2.5;ap:0.9",
                              "--n", "553949", "--seed", "6", "--output-dir", sim],
                       env=env, check=True)
        argv = cli + ["taxonomic", "--input", os.path.join(sim, "simulated_taxonomy.csv"),
                      "--mcmc-iters", str(args.mcmc_iters),
                      "--burn-in", str(args.mcmc_iters // 10), "--rho", "0.25",
                      "--seed", "7", "--output-dir", out]
        wall, _, peak = run(argv, env)
        size = os.path.getsize(os.path.join(out, "taxonomic_fit.json"))
    print(f"mcmc_iters {args.mcmc_iters}: wall {wall:.1f} s, "
          f"peak RSS {peak:.0f} MiB, taxonomic_fit.json {size / 2**20:.1f} MiB")


if __name__ == "__main__":
    main()
