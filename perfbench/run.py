#!/usr/bin/env python3
"""sigmadiv benchmark: seeded CLI analyses timed end to end, or traced per layer.

    python3 perfbench/run.py --workload amazon-dp-urn --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout.  Set-up builds the workload's fixtures
from --seed and times one cold `import sigmadiv.cli`; it is repeated
SETUP_REPEATS times and reported as the median `setup_s`.  Then:

--trace 0  passes over the job list are repeated while another pass still
           ends within --seconds; each job runs in a fresh interpreter, one
           at a time.  The end-to-end metrics come from per-job medians over
           the passes.
--trace 1  one untraced pass, then one pass with span wrappers installed in
           every job; the traced outputs must be byte-identical to the
           untraced ones.  Reports the per-layer metrics.

Every job's outputs are checked against independent references; a job that
exits non-zero, misses an output, fails a check, or writes data different
from its earlier passes counts as failed.  The last line of stdout is the
JSON result; the full record (environment, per-job timings, problems) goes
to .perfbench_results/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np
import scipy

import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
JOB_TIMEOUT_S = 150.0

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"), ("setup_s", "s")]


def environment(root: str) -> dict:
    """Machine and software record (read-only: lscpu-equivalent files under /proc, /sys)."""
    env = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": platform.processor() or "?",
           "python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(cache_dir):
        for idx in sorted(os.listdir(cache_dir)):
            try:
                with open(os.path.join(cache_dir, idx, "level")) as fh:
                    level = fh.read().strip()
                with open(os.path.join(cache_dir, idx, "size")) as fh:
                    size = fh.read().strip()
                with open(os.path.join(cache_dir, idx, "type")) as fh:
                    kind = fh.read().strip()
            except OSError:
                continue
            if level in ("2", "3") and kind in ("Unified", "Data"):
                env[f"l{level}_cache"] = size
    commit = "unknown"
    try:
        top = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], root):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    env["commit"] = commit
    h = hashlib.sha256()
    src = os.path.join(root, "src", "sigmadiv")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + fh.read())
    env["source_sha256"] = h.hexdigest()[:16]
    return env


def run_process(cmd, cwd: str, env: dict, log_path: str):
    """Run cmd to completion; returns (exit code, wall s, cpu s)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return code, wall, ru.ru_utime + ru.ru_stime


class Runner:
    """Runs a workload's jobs pass after pass and keeps one record per job run."""

    def __init__(self, workload: str, seed: int, work: str, env: dict):
        self.work, self.env = work, env
        self.run_dir = os.path.join(work, "run")
        self.jobs = workloads.jobs(workload, seed, len(os.sched_getaffinity(0)))
        os.makedirs(os.path.join(self.run_dir, "specs"), exist_ok=True)
        for job in self.jobs:
            if job.spec is not None:
                with open(os.path.join(self.run_dir, job.argv[0]), "w", encoding="utf-8") as fh:
                    json.dump(job.spec, fh)
        self.digests = {}
        self.records = []

    def run_pass(self, label: str, spans_path: str = None) -> None:
        """Run every job once, in order; check each as it finishes."""
        rss_path = os.path.join(self.work, "job.rss")
        for job in self.jobs:
            out = os.path.join(self.run_dir, "out", job.name)
            shutil.rmtree(out, ignore_errors=True)
            os.makedirs(out)
            if os.path.exists(rss_path):
                os.remove(rss_path)
            cmd = [sys.executable, os.path.join(HERE, "job.py"), "--rss", rss_path]
            if spans_path:
                cmd += ["--spans", spans_path, "--job", job.name]
            cmd += [job.kind, *job.argv]
            log = os.path.join(self.work, f"{label}-{job.name}.log")
            code, wall, cpu = run_process(cmd, self.run_dir, self.env, log)
            rss = 0.0
            if os.path.exists(rss_path):
                with open(rss_path, encoding="ascii") as fh:
                    rss = int(fh.read()) / 1024.0
            problems = self.check(job, code, out, log)
            self.records.append({"pass": label, "job": job.name, "group": job.group,
                                 "exit": code, "wall_s": wall, "cpu_s": cpu,
                                 "max_rss_mb": rss, "problems": problems})
            for p in problems:
                print(f"FAIL {label} {job.name}: {p}", file=sys.stderr)

    def summary(self, labels) -> dict:
        """Metrics from each job's median over the passes named in labels."""
        runs = [r for r in self.records if r["pass"] in labels]
        med = {key: {job.name: statistics.median(r[key] for r in runs if r["job"] == job.name)
                     for job in self.jobs}
               for key in ("wall_s", "cpu_s", "max_rss_mb")}
        groups = {}
        for job in self.jobs:
            groups[job.group] = groups.get(job.group, 0.0) + med["wall_s"][job.name]
        return {"wall_s": sum(med["wall_s"].values()), "cpu_s": sum(med["cpu_s"].values()),
                "peak_rss_mb": max(med["max_rss_mb"].values()), "groups": groups}

    def check(self, job, code: int, out: str, log: str) -> list:
        if code != 0:
            with open(log, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-400:].strip().replace("\n", " | ")
            return [f"exit code {code}: {tail}"]
        missing = [f for f in job.outputs if not os.path.isfile(os.path.join(out, f))]
        if missing:
            return [f"missing outputs {missing}"]
        try:
            problems = job.check(out)
        except (KeyError, ValueError, IndexError, TypeError) as exc:
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        d = workloads.digest(out, job.outputs)
        if self.digests.setdefault(job.name, d) != d:
            problems.append("output data differ from the first pass")
        return problems


def setup(workload: str, seed: int, work: str, root: str, env: dict) -> float:
    """Build the fixtures and import the CLI once, cold; returns the seconds taken."""
    times = []
    fixtures = os.path.join(work, "run", "fixtures")
    for i in range(SETUP_REPEATS):
        shutil.rmtree(fixtures, ignore_errors=True)
        start = time.perf_counter()
        workloads.make_fixtures(workload, seed, fixtures, root)
        code, _, _ = run_process([sys.executable, "-c", "import sigmadiv.cli"], work, env,
                                    os.path.join(work, f"setup-{i}.log"))
        times.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"import sigmadiv.cli failed with exit code {code}")
    return statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    for needed in ("src/sigmadiv/cli.py", "scripts/make_amazon_fixture.py"):
        if not os.path.isfile(os.path.join(root, needed)):
            print(f"error: {needed} not found; run from the root of a sigmadiv checkout",
                  file=sys.stderr)
            return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    work = os.path.join(root, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    results = os.path.join(root, ".perfbench_results")
    os.makedirs(results, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(work)
    try:
        setup_s = setup(args.workload, args.seed, work, root, env)
        runner = Runner(args.workload, args.seed, work, env)
        if args.trace:
            runner.run_pass("untraced")
            spans_path = os.path.join(results, f"{tag}-spans.jsonl")
            if os.path.exists(spans_path):
                os.remove(spans_path)
            runner.run_pass("traced", spans_path)
            untraced = runner.summary(["untraced"])
            spans, counts = layers.load(spans_path)
            values = layers.per_layer(spans, counts, untraced["groups"], untraced["wall_s"],
                                      runner.summary(["traced"])["wall_s"])
            units = {name: unit for name, unit, _ in layers.PER_LAYER}
        else:
            # start another pass only if one as long as the last still ends in time
            labels = []
            start = time.perf_counter()
            while True:
                begun = time.perf_counter()
                labels.append(f"pass{len(labels)}")
                runner.run_pass(labels[-1])
                now = time.perf_counter()
                if now - start + (now - begun) > args.seconds:
                    break
            values = runner.summary(labels)
            values["setup_s"] = setup_s
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = len(runner.records)
    failed = sum(bool(r["problems"]) for r in runner.records)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    passes = attempted // len(runner.jobs)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "passes": passes, "setup_s": setup_s,
              "environment": environment(root), "metrics": metrics,
              "failed_frac": failed / attempted, "jobs": runner.records}
    if not args.trace:
        record["group_s"] = values["groups"]
    with open(os.path.join(results, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {passes} passes, "
          f"{attempted} jobs, {failed} failed")
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'failed_frac':42s} {failed / attempted:>16.6g} ratio")
    for g, v in record.get("group_s", {}).items():
        print(f"{g + '_s':42s} {v:>16.6g} s")
    print(json.dumps({"environment": record["environment"]}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
