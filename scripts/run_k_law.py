#!/usr/bin/env python3
"""Time the exact law of the new-taxa count, `posterior_Km_pmf` and `prior_Kn_pmf`.

For each state the script makes one warm-up call (it builds the Hermite ratio table
an AP state reads), then prints the median wall time of 5 more calls and the
tracemalloc peak of one call.  The states are the three exact calls of the
benchmark's km-pmf job (AP(2.0) at m = 500), long horizons for each family, a small
gamma far from its start, the Amazon state (n = 553,949, k = 4,962) with m = 2,000,
and `prior_Kn_pmf(AP(2.0), 10000)`.  It calls only public functions with their
long-standing arguments, so the same script times any checkout: it imports the
sigmadiv on PYTHONPATH and prints where that is.  Run from the root of a checkout:

    PYTHONPATH=src python3 scripts/run_k_law.py

To compare two checkouts, run it alternately with PYTHONPATH set to each one's src.
"""

import statistics
import time
import tracemalloc

import sigmadiv
from sigmadiv import gibbs

AP, DP, DM = gibbs.AldousPitman, gibbs.DirichletProcess, gibbs.DirichletMultinomial
AMAZON_N, AMAZON_K = 553_949, 4_962
CALLS = 5

STATES = {
    "km-pmf AP(2.0) (1000, 60, 500)": lambda: gibbs.posterior_Km_pmf(AP(2.0), 1000, 60, 500),
    "km-pmf AP(2.0) (1500, 75, 500)": lambda: gibbs.posterior_Km_pmf(AP(2.0), 1500, 75, 500),
    "km-pmf AP(2.0) (2000, 90, 500)": lambda: gibbs.posterior_Km_pmf(AP(2.0), 2000, 90, 500),
    "AP(2.0) (2000, 90, 4000)": lambda: gibbs.posterior_Km_pmf(AP(2.0), 2000, 90, 4000),
    "DP(2.0) (2000, 90, 4000)": lambda: gibbs.posterior_Km_pmf(DP(2.0), 2000, 90, 4000),
    "DM(-1, 500) (2000, 90, 4000)":
        lambda: gibbs.posterior_Km_pmf(DM(-1.0, 500), 2000, 90, 4000),
    "AP(0.1) (100, 3, 9000)": lambda: gibbs.posterior_Km_pmf(AP(0.1), 100, 3, 9000),
    "DP(751.23) Amazon, m = 2000":
        lambda: gibbs.posterior_Km_pmf(DP(751.23), AMAZON_N, AMAZON_K, 2000),
    "AP(6.67) Amazon, m = 2000":
        lambda: gibbs.posterior_Km_pmf(AP(6.67), AMAZON_N, AMAZON_K, 2000),
    "prior_Kn_pmf AP(2.0), n = 10000": lambda: gibbs.prior_Kn_pmf(AP(2.0), 10_000),
}


def main():
    print(f"sigmadiv from {sigmadiv.__file__}")
    print(f"{'state':<34}{'median ms':>11}{'peak MiB':>10}")
    for name, call in STATES.items():
        call()
        walls = []
        for _ in range(CALLS):
            start = time.perf_counter()
            call()
            walls.append(time.perf_counter() - start)
        tracemalloc.start()
        call()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(f"{name:<34}{1e3 * statistics.median(walls):>11.2f}{peak / 2**20:>10.3f}")


if __name__ == "__main__":
    main()
