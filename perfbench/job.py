"""Run one benchmark job in a fresh interpreter, as a user would run it.

    python3 perfbench/job.py [--rss FILE] [--spans FILE --job NAME] cli <sigmadiv argv...>
    python3 perfbench/job.py [--rss FILE] [--spans FILE --job NAME] lib <spec.json>

`cli` calls `sigmadiv.cli.main(argv)`, which is what the `sigmadiv`
console script does.  `lib` calls a library function that has no CLI
subcommand and writes its result as JSON to the spec's "out" path.  With
--spans the job installs span wrappers first and appends its spans to FILE.
With --rss it writes its peak resident set size in KiB (VmHWM) to FILE: the
parent's rusage would report at least the parent's own size, which the
child inherits at fork.  The exit code is the program's.
"""

from __future__ import annotations

import json
import sys
import time


def _run_lib(spec: dict) -> int:
    from sigmadiv import dpinfer, gibbs

    if spec["fn"] == "calibration_curve":
        a, b, n_ref = spec["prior"]
        prior = dpinfer.StirlingGammaSpec(a=a, b=b, n_ref=int(n_ref))
        curve = dpinfer.calibration_curve(prior, spec["n"], spec["k"], spec["rho_grid"],
                                          n_draws=spec["n_draws"], rng_seed=spec["seed"])
        result = {"curve": [[rho, ll] for rho, ll in curve]}
    elif spec["fn"] == "posterior_Km_pmf":
        model = gibbs.AldousPitman(gamma=spec["gamma"])
        result = {"pmfs": [gibbs.posterior_Km_pmf(model, c["n"], c["k"], c["m"],
                                                  table_cap=c["table_cap"],
                                                  mc_replicates=c["mc_replicates"],
                                                  rng_seed=c["seed"]).tolist()
                           for c in spec["calls"]]}
    else:
        raise SystemExit(f"unknown library job {spec['fn']!r}")
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _write_peak_rss(path: str) -> None:
    with open("/proc/self/status", encoding="ascii") as fh:
        kib = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(kib + "\n")


def main(argv) -> int:
    spans_path = job = rss_path = None
    while argv and argv[0].startswith("--"):
        if argv[0] == "--spans":
            spans_path = argv[1]
        elif argv[0] == "--rss":
            rss_path = argv[1]
        elif argv[0] == "--job":
            job = argv[1]
        else:
            raise SystemExit(f"unknown option {argv[0]}")
        argv = argv[2:]
    kind, rest = argv[0], argv[1:]

    t0 = time.perf_counter_ns()
    import sigmadiv.cli
    t1 = time.perf_counter_ns()

    tracer = None
    if spans_path:
        from spans import Tracer

        tracer = Tracer(job or kind)
        tracer.add("cli.import", t0, t1)
        tracer.install()

    if kind == "cli":
        run, name = (lambda: sigmadiv.cli.main(rest)), "cli.main"
    elif kind == "lib":
        with open(rest[0], encoding="utf-8") as fh:
            spec = json.load(fh)
        run, name = (lambda: _run_lib(spec)), f"lib.{spec['fn']}"
    else:
        raise SystemExit(f"unknown job kind {kind!r}")

    try:
        return run() if tracer is None else tracer.span(name, run)()
    finally:
        if tracer is not None:
            tracer.dump(spans_path)
        if rss_path:
            _write_peak_rss(rss_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
