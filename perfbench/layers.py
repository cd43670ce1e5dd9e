"""Per-layer metrics from the spans of one traced pass over a workload's jobs.

Each metric is derived where the work happens: span durations, self time
(a span's duration minus its direct children in the same thread), counts
recorded as span attributes, and counters of hot methods.  A layer that a
workload never calls reads 0 (calls, seconds, and rates alike).
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Dict, List, Tuple

# (name, unit, better); the order is the order BENCHMARK.json lists them in
GROUPS = ("fit", "richness", "extrapolate", "simulate", "validate", "taxonomic", "lib")
PER_LAYER: List[Tuple[str, str, str]] = [
    ("cli.import_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("datamodel.ingest_s", "s", "lower"),
    ("datamodel.stream_to_partition_s", "s", "lower"),
    ("specfun.log_hermite.calls", "count", "lower"),
    ("specfun.log_hermite.s", "s", "lower"),
    ("specfun.log_hermite_batch.orders", "count", "lower"),
    ("specfun.log_hermite_batch.s", "s", "lower"),
    ("specfun.hermite_orders_per_s", "1/s", "higher"),
    ("specfun.log_row.calls", "count", "lower"),
    ("specfun.log_row.s", "s", "lower"),
    ("gibbs.urn_steps_per_s.dp", "1/s", "higher"),
    ("gibbs.urn_steps_per_s.dm", "1/s", "higher"),
    ("gibbs.urn_steps_per_s.ap", "1/s", "higher"),
    ("gibbs.mc_curve_steps_per_s", "1/s", "higher"),
    ("gibbs.expected_freq_counts.s", "s", "lower"),
    ("gibbs.rarefaction.s", "s", "lower"),
    ("gibbs.posterior_Km_pmf.s", "s", "lower"),
    ("gibbs.posterior_Km_pmf.rss_growth_mb", "MiB", "lower"),
    ("gibbs.log_V.calls", "count", "lower"),
    ("estimators.classical_rarefaction.s", "s", "lower"),
    ("dpinfer.sg_posterior_sample.calls", "count", "lower"),
    ("dpinfer.sg_posterior_sample.s", "s", "lower"),
    ("dpinfer.draws_per_s", "1/s", "higher"),
    ("dpinfer.log_kernel_evals_per_draw", "evals/draw", "lower"),
    ("dpinfer.thin_mean", "count", "lower"),
    ("dpinfer.ess_per_draw", "ratio", "higher"),
    ("dpinfer.richness_self_s", "s", "lower"),
    ("dpinfer.calibration_curve.s", "s", "lower"),
    ("apinfer.iid_two_step_sample.s", "s", "lower"),
    ("apinfer.iid_draws_per_s", "1/s", "higher"),
    ("apinfer.sample_modified_half_normal.calls", "count", "lower"),
    ("apinfer.sample_modified_half_normal.s", "s", "lower"),
    ("taxo.nested_urn_sample.s", "s", "lower"),
    ("taxo.nested_steps_per_s", "1/s", "higher"),
    ("taxo.fit_taxonomic.s", "s", "lower"),
    ("taxo.ap_level_s", "s", "lower"),
    ("taxo.ap_sweeps_per_s", "1/s", "higher"),
    ("taxo.threads2_speedup", "ratio", "higher"),
    ("draws.effective_sample_size.s", "s", "lower"),
    *[(f"{g}_s", "s", "lower") for g in GROUPS],
    ("trace.overhead", "ratio", "lower"),
]


def load(path: str):
    """Spans and per-job counters from a spans file written by spans.Tracer."""
    spans, counts = [], defaultdict(int)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if "counts" in rec:
                for k, v in rec["counts"].items():
                    counts[k] += v
            else:
                rec["dur"] = (rec["end_ns"] - rec["start_ns"]) / 1e9
                spans.append(rec)
    return spans, counts


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def per_layer(spans: List[dict], counts: Dict[str, int], group_walls: Dict[str, float],
              untraced_wall: float, traced_wall: float) -> Dict[str, float]:
    by_name = defaultdict(list)
    children = defaultdict(float)
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"]:
            children[(s["job"], s["parent"])] += s["dur"]

    def total(name: str, key: str = "dur") -> float:
        return float(sum(s.get(key, 0) for s in by_name[name]))

    def calls(name: str) -> int:
        return len(by_name[name])

    def self_time(name: str, pred=lambda s: True) -> float:
        return float(sum(s["dur"] - children[(s["job"], s["id"])]
                         for s in by_name[name] if pred(s)))

    m: Dict[str, float] = {}
    m["cli.import_s"] = total("cli.import")
    m["cli.self_s"] = self_time("cli.main")
    m["datamodel.ingest_s"] = (total("datamodel.ingest_abundance_csv")
                               + total("datamodel.ingest_taxonomy_csv"))
    m["datamodel.stream_to_partition_s"] = total("datamodel.stream_to_partition")
    m["specfun.log_hermite.calls"] = calls("specfun.log_hermite")
    m["specfun.log_hermite.s"] = total("specfun.log_hermite")
    orders = total("specfun.log_hermite_batch", "orders")
    m["specfun.log_hermite_batch.orders"] = int(orders)
    m["specfun.log_hermite_batch.s"] = total("specfun.log_hermite_batch")
    m["specfun.hermite_orders_per_s"] = _ratio(orders, m["specfun.log_hermite_batch.s"])
    m["specfun.log_row.calls"] = calls("specfun.log_row")
    m["specfun.log_row.s"] = total("specfun.log_row")
    for fam in ("dp", "dm", "ap"):
        urns = [s for s in by_name["gibbs.urn_sample"] if s["family"] == fam]
        m[f"gibbs.urn_steps_per_s.{fam}"] = _ratio(sum(s["steps"] for s in urns),
                                                   sum(s["dur"] for s in urns))
    mc = [s for s in by_name["gibbs.extrapolation"] if s["mc_steps"]]
    m["gibbs.mc_curve_steps_per_s"] = _ratio(
        sum(s["mc_steps"] for s in mc),
        self_time("gibbs.extrapolation", lambda s: s["mc_steps"] > 0))
    m["gibbs.expected_freq_counts.s"] = total("gibbs.expected_freq_counts")
    m["gibbs.rarefaction.s"] = total("gibbs.rarefaction")
    m["gibbs.posterior_Km_pmf.s"] = total("gibbs.posterior_Km_pmf")
    growth = 0.0
    pmf_jobs = defaultdict(list)
    for s in by_name["gibbs.posterior_Km_pmf"]:
        pmf_jobs[s["job"]].append(s)
    for job_spans in pmf_jobs.values():
        job_spans.sort(key=lambda s: s["start_ns"])
        growth += job_spans[-1]["rss_after_mb"] - job_spans[0]["rss_before_mb"]
    m["gibbs.posterior_Km_pmf.rss_growth_mb"] = growth
    m["gibbs.log_V.calls"] = calls("gibbs.log_V")
    m["estimators.classical_rarefaction.s"] = total("estimators.classical_rarefaction")
    sg = by_name["dpinfer.sg_posterior_sample"]
    all_draws = total("dpinfer.sg_posterior_sample", "draws") + total(
        "dpinfer.sg_prior_sample", "draws")
    m["dpinfer.sg_posterior_sample.calls"] = len(sg)
    m["dpinfer.sg_posterior_sample.s"] = total("dpinfer.sg_posterior_sample")
    m["dpinfer.draws_per_s"] = _ratio(total("dpinfer.sg_posterior_sample", "draws"),
                                      m["dpinfer.sg_posterior_sample.s"])
    m["dpinfer.log_kernel_evals_per_draw"] = _ratio(counts.get("dpinfer.log_kernel", 0),
                                                    all_draws)
    m["dpinfer.thin_mean"] = _ratio(sum(s["thin"] for s in sg), len(sg))
    m["dpinfer.ess_per_draw"] = _ratio(total("dpinfer.sg_posterior_sample", "ess"),
                                       total("dpinfer.sg_posterior_sample", "draws"))
    m["dpinfer.richness_self_s"] = self_time("dpinfer.richness_posterior")
    m["dpinfer.calibration_curve.s"] = total("dpinfer.calibration_curve")
    m["apinfer.iid_two_step_sample.s"] = total("apinfer.iid_two_step_sample")
    m["apinfer.iid_draws_per_s"] = _ratio(total("apinfer.iid_two_step_sample", "draws"),
                                          m["apinfer.iid_two_step_sample.s"])
    m["apinfer.sample_modified_half_normal.calls"] = calls(
        "apinfer.sample_modified_half_normal")
    m["apinfer.sample_modified_half_normal.s"] = total("apinfer.sample_modified_half_normal")
    m["taxo.nested_urn_sample.s"] = total("taxo.nested_urn_sample")
    m["taxo.nested_steps_per_s"] = _ratio(total("taxo.nested_urn_sample", "steps"),
                                          m["taxo.nested_urn_sample.s"])
    m["taxo.fit_taxonomic.s"] = total("taxo.fit_taxonomic")
    m["taxo.ap_level_s"] = self_time("taxo.fit_ap_level")
    m["taxo.ap_sweeps_per_s"] = _ratio(total("taxo.fit_ap_level", "iters"),
                                       total("taxo.fit_ap_level"))
    fits = {s["job"]: s["dur"] for s in by_name["taxo.fit_taxonomic"]}
    m["taxo.threads2_speedup"] = _ratio(fits.get("taxonomic-serial", 0.0),
                                        fits.get("taxonomic-threaded", 0.0))
    m["draws.effective_sample_size.s"] = total("draws.effective_sample_size")
    for g in GROUPS:
        m[f"{g}_s"] = group_walls.get(g, 0.0)
    m["trace.overhead"] = _ratio(traced_wall, untraced_wall)
    return m
