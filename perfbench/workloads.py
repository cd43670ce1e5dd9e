"""Workloads: seeded fixtures, the four job lists, and each job's output check.

Every job is one `sigmadiv <subcommand>` run (or one library call with no
subcommand) in a fresh interpreter.  Job seeds and fixtures derive from the
workload seed; the program only ever sees the generated files and argv.
Each job lists the files it must write and a check that compares them
with references from `refs`, computed without calling sigmadiv.  Sizes are
chosen so that one pass over a workload takes about 16 s on two cores (see
README.md).
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

import refs

AMAZON_N, AMAZON_K = 553_949, 4_962
AMAZON_SG = (1.0, 0.0002, AMAZON_N)
AMAZON_NHAT = 3.949e11
RHO_GRID = (1.0, 0.25, 0.1, 0.01, 0.001)

# urn-mc fixture: a DP sample drawn by stick breaking, independent of the urn code
URN_N, URN_ALPHA = 100_000, 50.0
DM_H = 2000
VALIDATE_REPLICATES = {"dp": 3, "dm": 2}
# taxonomic fixture: a fixed-shape 3-level tree (families x genera, species per genus cycle)
TREE_FAMILIES, TREE_GENERA = 8, 4
TREE_SPECIES = (2, 5, 9, 3)
TAXO_SG = (0.3, 0.1, 100)
TAXO_ITERS, TAXO_BURN = 600, 100

# z-score beyond which a Monte Carlo estimate counts as wrong (false alarm ~1e-5)
Z_MAX = 4.5


@dataclass
class Job:
    name: str            # unique within the workload; also its output directory
    group: str           # the end-to-end group: a subcommand name or "lib"
    kind: str            # "cli" or "lib"
    argv: List[str]      # sigmadiv argv, or the lib spec path
    outputs: List[str]   # files the job must write into out/<name>/
    check: Callable[[str], List[str]]  # out dir -> list of problems
    spec: Optional[dict] = None        # library call description (lib jobs)


# --- fixtures -------------------------------------------------------------------

def _write_abundance_csv(path: str, counts) -> None:
    """The `taxon,count` layout of sigmadiv.datamodel.write_abundance_csv."""
    counts = sorted((int(c) for c in counts if c > 0), reverse=True)
    width = len(str(len(counts)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("taxon,count\n")
        for i, c in enumerate(counts, start=1):
            fh.write(f"t{i:0{width}d},{c}\n")


def dp_sample(seed: int) -> np.ndarray:
    """Abundances of URN_N draws from a DP(URN_ALPHA) via truncated stick breaking."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xD9)))
    sticks = rng.beta(1.0, URN_ALPHA, size=4000)
    w = sticks * np.concatenate([[1.0], np.cumprod(1.0 - sticks)[:-1]])
    counts = rng.multinomial(URN_N, w / w.sum())
    return counts[counts > 0]


def taxonomy_rows(seed: int) -> List[tuple]:
    """Rows (family, genus, species, count) of the fixed-shape tree; only counts vary."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x7A)))
    rows = []
    g_index = 0
    for f in range(1, TREE_FAMILIES + 1):
        for g in range(1, TREE_GENERA + 1):
            n_sp = TREE_SPECIES[g_index % len(TREE_SPECIES)]
            g_index += 1
            counts = 1 + rng.geometric(1.0 / 12.0, size=n_sp)
            for s, c in enumerate(counts, start=1):
                rows.append((f"f{f:02d}", f"f{f:02d}g{g:02d}", f"f{f:02d}g{g:02d}s{s:02d}",
                             int(c)))
    return rows


def make_fixtures(workload: str, seed: int, fixture_dir: str, src_root: str) -> None:
    """Write the inputs one workload needs into fixture_dir."""
    os.makedirs(fixture_dir, exist_ok=True)
    parts = WORKLOADS[workload]
    if "amazon-dp" in parts or "ap-hermite" in parts:
        # the script's table function is plain numpy; loading it here rather than
        # running the script keeps a second cold sigmadiv import out of setup_s
        path = os.path.join(src_root, "scripts", "make_amazon_fixture.py")
        spec = importlib.util.spec_from_file_location("make_amazon_fixture", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        _write_abundance_csv(os.path.join(fixture_dir, "amazon.csv"),
                             script.log_series_abundances())
    if "urn-mc" in parts:
        _write_abundance_csv(os.path.join(fixture_dir, "dp_sample.csv"), dp_sample(seed))
    if "taxonomic" in parts:
        with open(os.path.join(fixture_dir, "tree.csv"), "w", encoding="utf-8",
                  newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["level1", "level2", "level3", "count"])
            w.writerows(taxonomy_rows(seed))


# --- output readers ---------------------------------------------------------------

def read_table(path: str) -> List[dict]:
    """Rows of a CSV table written by sigmadiv, without its `# config:` line."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("# config:")]
    return list(csv.DictReader(lines))


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload.pop("_config", None)
    return payload


def digest(outdir: str, names: List[str]) -> str:
    """Hash of the job's data: CSV files minus `# config:` lines, JSON minus `_config`."""
    h = hashlib.sha256()
    for name in names:
        path = os.path.join(outdir, name)
        h.update(name.encode())
        if name.endswith(".json"):
            h.update(json.dumps(read_json(path), sort_keys=True).encode())
        else:
            with open(path, "rb") as fh:
                for line in fh:
                    if not line.startswith(b"# config:"):
                        h.update(line)
    return h.hexdigest()


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref)


def _close(label: str, got, want, rtol: float, atol: float = 0.0) -> List[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{label}: {got.size} values, expected {want.size}"]
    bad = np.abs(got - want) > atol + rtol * np.abs(want)
    if bad.any():
        i = int(np.argmax(bad))
        return [f"{label}: {bad.sum()} values off, e.g. #{i}: {got[i]!r} vs {want[i]!r}"]
    return []


def _z(label: str, got: float, want: float, se: float) -> List[str]:
    z = abs(got - want) / se if se > 0 else (0.0 if got == want else math.inf)
    return [f"{label}: {got:.6g} vs reference {want:.6g} (z = {z:.1f})"] if z > Z_MAX else []


# --- checks -------------------------------------------------------------------------

def check_dp_fit(rho: float, draws: int):
    tol = 0.03 if rho == 0.001 else 0.02
    mean, _, quarts = refs.dp_alpha_summary(*AMAZON_SG, AMAZON_N, AMAZON_K, rho)

    def check(out: str) -> List[str]:
        rows = read_table(os.path.join(out, "draws.csv"))
        summ = read_json(os.path.join(out, "summary.json"))
        est = read_json(os.path.join(out, "point_estimates.json"))
        problems = [] if len(rows) == draws else [f"{len(rows)} draws, expected {draws}"]
        alpha = np.array([float(r["alpha"]) for r in rows])
        got = [alpha.mean()] + list(np.quantile(alpha, refs.QUARTILES))
        # at rho = 0.001 the quartiles' Monte Carlo error at this many draws (~1.2%)
        # is too close to the 3% tolerance to check them; the mean's is ~0.6%
        checked = 1 if rho < 0.01 else 4
        for label, g, w in list(zip(("mean", "q25", "q50", "q75"), got,
                                    [mean] + quarts))[:checked]:
            if _rel(g, w) > tol:
                problems.append(f"alpha {label} {g:.6g} vs grid {w:.6g} (tol {tol:.0%})")
        if _rel(summ["mean"], mean) > tol:
            problems.append(f"summary mean {summ['mean']} vs grid {mean:.6g}")
        if _rel(est["ml"]["value"], refs.mle_alpha(AMAZON_N, AMAZON_K)) > 1e-5:
            problems.append(f"mle {est['mle']['value']} off")
        return problems

    return check


def check_richness(rho: float, draws: int):
    tol = 0.03 if rho == 0.001 else 0.02
    want = refs.dp_richness_mean(*AMAZON_SG, AMAZON_N, AMAZON_K, rho, AMAZON_NHAT)

    def check(out: str) -> List[str]:
        rows = read_json(os.path.join(out, "richness_draws.json"))["rows"]
        summ = read_json(os.path.join(out, "richness_summary.json"))
        data = read_json(os.path.join(out, "data_summary.json"))
        problems = [] if len(rows) == draws else [f"{len(rows)} draws, expected {draws}"]
        if (data["n"], data["k"]) != (AMAZON_N, AMAZON_K):
            problems.append(f"data summary n, k = {data['n']}, {data['k']}")
        kn = np.array([r["K_N"] for r in rows], dtype=float)
        if kn.min() < AMAZON_K:
            problems.append("K_N draw below the observed k")
        for label, got in (("draws", kn.mean()), ("summary", summ["mean"])):
            if _rel(got, want) > tol:
                problems.append(f"K_N {label} mean {got:.6g} vs quadrature {want:.6g}")
        return problems

    return check


def check_dp_extrapolation(n: int, k: int, m: int):
    def check(out: str) -> List[str]:
        rows = read_table(os.path.join(out, "extrapolation.csv"))
        want = refs.dp_extrapolation(refs.mle_alpha(n, k), n, k, m)
        sizes = [int(r["size"]) for r in rows]
        problems = [] if sizes == list(range(n + 1, n + m + 1)) else ["size column wrong"]
        return problems + _close("expected K", [float(r["expected"]) for r in rows],
                                 want, 1e-5)

    return check


def check_calibration(n_draws: int):
    ref = [refs.dp_calibration_point(*AMAZON_SG, AMAZON_N, AMAZON_K, rho)
           for rho in RHO_GRID]

    def check(out: str) -> List[str]:
        curve = read_json(os.path.join(out, "calibration.json"))["curve"]
        if [c[0] for c in curve] != list(RHO_GRID):
            return [f"rho grid {[c[0] for c in curve]}"]
        problems = []
        for (rho, ll), (mean, sd) in zip(curve, ref):
            problems += _z(f"E[loglik] at rho={rho}", ll, mean, sd / math.sqrt(n_draws))
        return problems

    return check


def check_ap_simulation(gamma: float, n: int):
    pmf = None
    for _, pmf in refs.ap_count_pmfs(gamma, 0, 0, n):
        pass
    cdf = np.cumsum(pmf)
    lo, hi = int(np.searchsorted(cdf, 1e-5)), int(np.searchsorted(cdf, 1 - 1e-5))
    return _check_simulation(n, lambda k: [] if lo <= k <= hi else
                             [f"K_n = {k} outside the exact 1e-5 tails [{lo}, {hi}]"])


def check_dp_simulation(alpha: float, n: int):
    mean, sd = refs.dp_kn_moments(alpha, n)
    return _check_simulation(n, lambda k: _z("K_n", k, mean, sd))


def _check_simulation(n: int, k_check):
    def check(out: str) -> List[str]:
        with open(os.path.join(out, "simulated_abundance.csv"), encoding="utf-8") as fh:
            counts = [int(r["count"]) for r in csv.DictReader(fh)]
        acc = np.array([int(r["distinct"]) for r in read_table(
            os.path.join(out, "accumulation.csv"))])
        problems = []
        if sum(counts) != n or acc.size != n:
            problems.append(f"sample size {sum(counts)} / {acc.size} rows, expected {n}")
        steps = np.diff(np.concatenate([[0], acc]))
        if acc.size and (steps.min() < 0 or steps.max() > 1 or acc[-1] != len(counts)):
            problems.append("accumulation curve inconsistent with the abundances")
        return problems + k_check(len(counts))

    return check


def check_ap_extrapolation(gamma: float, n: int, k: int, m: int, replicates: int):
    marks = {m // 4, m // 2, m}
    ref = {}
    for i, pmf in refs.ap_count_pmfs(gamma, n, k, m):
        if i in marks:
            j = np.arange(pmf.size)
            mu = float(j @ pmf)
            ref[i] = (k + mu, math.sqrt(float((j - mu) ** 2 @ pmf)))

    def check(out: str) -> List[str]:
        rows = read_table(os.path.join(out, "extrapolation.csv"))
        if len(rows) != m:
            return [f"{len(rows)} rows, expected {m}"]
        problems = []
        for i, (mean, sd) in sorted(ref.items()):
            got = float(rows[i - 1]["expected"])
            problems += _z(f"E[K_{n + i}]", got, mean, sd / math.sqrt(replicates))
        return problems

    return check


def check_ap_fit(n: int, k: int, draws: int):
    mean, _, quarts = refs.ap_gamma_posterior(n, k, 1.0, 1.0)

    def check(out: str) -> List[str]:
        rows = read_table(os.path.join(out, "draws.csv"))
        if len(rows) != draws:
            return [f"{len(rows)} draws, expected {draws}"]
        g = np.array([float(r["gamma"]) for r in rows])
        got = [g.mean()] + list(np.quantile(g, refs.QUARTILES))
        return [f"gamma {label} {x:.6g} vs quadrature {w:.6g}"
                for label, x, w in zip(("mean", "q25", "q50", "q75"), got, [mean] + quarts)
                if _rel(x, w) > 0.02]

    return check


def check_km_pmf(gamma: float, calls: List[dict]):
    refs_by_call = []
    for c in calls:
        pmf = None
        for _, pmf in refs.ap_count_pmfs(gamma, c["n"], c["k"], c["m"]):
            pass
        refs_by_call.append(pmf)

    def check(out: str) -> List[str]:
        pmfs = read_json(os.path.join(out, "pmfs.json"))["pmfs"]
        if len(pmfs) != len(calls):
            return [f"{len(pmfs)} pmfs, expected {len(calls)}"]
        problems = []
        for c, got, want in zip(calls, pmfs, refs_by_call):
            got = np.asarray(got)
            label = f"pmf(n={c['n']}, k={c['k']}, m={c['m']})"
            if c["m"] <= c["table_cap"]:
                problems += _close(label, got, want, 0.0, 1e-8)
            else:
                j = np.arange(want.size)
                mu = float(j @ want)
                sd = math.sqrt(float((j - mu) ** 2 @ want))
                problems += _z(label + " mean", float(j @ got), mu,
                               sd / math.sqrt(c["mc_replicates"]))
        return problems

    return check


def check_validate(family: str, abundances: np.ndarray, bound_h: int = 0):
    n, k = int(abundances.sum()), int(abundances.size)
    ranked = np.sort(abundances)[::-1]
    freq = np.bincount(abundances, minlength=102)

    def check(out: str) -> List[str]:
        rare = read_table(os.path.join(out, "rarefaction.csv"))
        fc = read_table(os.path.join(out, "freq_counts.csv"))
        rad = read_table(os.path.join(out, "rad.csv"))
        sizes = np.array([int(r["size"]) for r in rare])
        problems = _close("classical rarefaction", [float(r["classical"]) for r in rare],
                          refs.classical_rarefaction(abundances, sizes), 1e-5)
        r = np.array([int(x["r"]) for x in fc])
        if list(r) != list(range(1, min(100, n) + 1)):
            return problems + ["freq_counts r column wrong"]
        problems += _close("observed freq counts", [int(x["observed"]) for x in fc],
                           freq[r], 0.0)
        expected = np.array([float(x["expected"]) for x in fc])
        if family == "dp":
            alpha = refs.mle_alpha(n, k)
            problems += _close("DP model rarefaction", [float(x["model"]) for x in rare],
                               refs.dp_rarefaction(alpha, sizes), 1e-5)
            problems += _close("DP expected freq counts", expected,
                               refs.dp_freq_counts(alpha, n, r.size), 1e-5, 1e-12)
        else:
            problems += _close("DM model rarefaction", [float(x["model"]) for x in rare],
                               refs.dm_rarefaction(1.0, bound_h, sizes), 1e-5)
            want = refs.dm_freq_counts(1.0, bound_h, n, r.size)
            reps = VALIDATE_REPLICATES["dm"]
            # Monte Carlo average of counts; Poisson variance bounds the occupancy variance
            z = np.abs(expected - want) / np.sqrt(np.maximum(want, 1.0 / reps) / reps)
            if z.max() > Z_MAX + 1.0:
                i = int(np.argmax(z))
                problems.append(f"DM expected M_{i + 1} = {expected[i]:.6g} vs exact "
                                f"{want[i]:.6g} (z = {z[i]:.1f})")
        obs = [int(x["observed"]) for x in rad]
        if obs[:k] != list(ranked) or any(obs[k:]):
            problems.append("RAD observed column differs from the input")
        total = sum(float(x["expected"]) for x in rad)
        if _rel(total, n) > 1e-4:
            problems.append(f"RAD expected abundances sum to {total:.6g}, not n = {n}")
        return problems

    return check


def check_nested_simulation(n: int):
    def check(out: str) -> List[str]:
        with open(os.path.join(out, "simulated_taxonomy.csv"), encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        problems = []
        if rows[0] != ["level1", "level2", "level3", "count"]:
            problems.append(f"header {rows[0]}")
        body = rows[1:]
        if sum(int(r[3]) for r in body) != n:
            problems.append("counts do not sum to n")
        if len({tuple(r[:3]) for r in body}) != len(body):
            problems.append("duplicate taxonomy paths")
        return problems

    return check


def check_taxonomic(rows_fixture: List[tuple], reference_job: Optional[str]):
    """Level-1 and family-level DP posteriors against grid quadrature, and (for the
    threaded job) data identical to the single-threaded job's."""
    fam_n: Dict[str, int] = {}
    fam_genera: Dict[str, set] = {}
    for fam, gen, _, c in rows_fixture:
        fam_n[fam] = fam_n.get(fam, 0) + c
        fam_genera.setdefault(fam, set()).add(gen)
    n_total = sum(fam_n.values())
    n_genera = sum(len(g) for g in fam_genera.values())
    level1 = refs.dp_alpha_summary(*TAXO_SG, n_total, len(fam_n), 1.0)
    fams = {f: refs.dp_alpha_summary(*TAXO_SG, fam_n[f], len(fam_genera[f]), 1.0)
            for f in fam_n}

    def posterior_z(label, draws, ref):
        draws = np.asarray(draws, dtype=float)
        return _z(label, float(draws.mean()), ref[0], ref[1] / math.sqrt(refs.ess(draws)))

    def check(out: str) -> List[str]:
        fit = read_json(os.path.join(out, "taxonomic_fit.json"))
        rows = read_table(os.path.join(out, "branch_summaries.csv"))
        problems = []
        if len(rows) != len(fam_n) + n_genera:
            problems.append(f"{len(rows)} branch rows, expected {len(fam_n) + n_genera}")
        problems += posterior_z("level-1 alpha mean", fit["level1"], level1)
        for f, ref in fams.items():
            problems += posterior_z(f"alpha mean of {f}", fit["families"][f], ref)
        for r in rows:
            if not float(r["q01"]) <= float(r["mean"]) <= float(r["q99"]):
                problems.append(f"branch {r['label']}: mean outside its interval")
        if reference_job is not None:
            ref_out = os.path.join(os.path.dirname(out), reference_job)
            names = ["taxonomic_fit.json", "branch_summaries.csv"]
            if digest(out, names) != digest(ref_out, names):
                problems.append(f"output differs from {reference_job}")
        return problems

    return check


# --- job lists -------------------------------------------------------------------------

def _seeds(seed: int, count: int, part: str) -> List[int]:
    salt = int.from_bytes(hashlib.sha256(part.encode()).digest()[:4], "little")
    rng = np.random.default_rng(np.random.SeedSequence((seed, salt)))
    return [int(s) for s in rng.integers(1, 2**31 - 1, size=count)]


def _cli(name, group, argv, outputs, check) -> Job:
    return Job(name=name, group=group, kind="cli",
               argv=argv + ["--output-dir", f"out/{name}"], outputs=outputs, check=check)


def _lib(name, spec, outputs, check) -> Job:
    spec = dict(spec, out=f"out/{name}/{outputs[0]}")
    return Job(name=name, group="lib", kind="lib", argv=[f"specs/{name}.json"],
               outputs=outputs, check=check, spec=spec)


def amazon_dp(seed: int, nproc: int) -> List[Job]:
    s = _seeds(seed, 5, "amazon-dp")
    sg = ["--sg"] + [repr(x) for x in AMAZON_SG]
    table = ["--input", "fixtures/amazon.csv"]
    draws, m_ext, cal_draws = 5_000, 50_000, 1_000
    fit_out = ["draws.csv", "point_estimates.json", "summary.json"]
    return [
        _cli("fit-rho0.01", "fit", ["fit", *table, *sg, "--rho", "0.01",
                                    "--draws", str(draws), "--seed", str(s[0])],
             fit_out, check_dp_fit(0.01, draws)),
        _cli("fit-rho0.001", "fit", ["fit", *table, *sg, "--rho", "0.001",
                                     "--draws", str(draws), "--seed", str(s[1])],
             fit_out, check_dp_fit(0.001, draws)),
        _cli("richness", "richness", ["richness", *table, *sg, "--rho", "0.01",
                                      "--nhat", repr(AMAZON_NHAT), "--draws", str(draws),
                                      "--format", "json", "--seed", str(s[2])],
             ["richness_draws.json", "richness_summary.json", "data_summary.json"],
             check_richness(0.01, draws)),
        _cli("extrapolate-dp", "extrapolate", ["extrapolate", *table, "--family", "dp",
                                               "--m", str(m_ext), "--seed", str(s[3])],
             ["extrapolation.csv"], check_dp_extrapolation(AMAZON_N, AMAZON_K, m_ext)),
        _lib("calibration", {"fn": "calibration_curve", "prior": list(AMAZON_SG),
                             "n": AMAZON_N, "k": AMAZON_K, "rho_grid": list(RHO_GRID),
                             "n_draws": cal_draws, "seed": s[4]},
             ["calibration.json"], check_calibration(cal_draws)),
    ]


def ap_hermite(seed: int, nproc: int) -> List[Job]:
    s = _seeds(seed, 4, "ap-hermite")
    sim_gamma, sim_n = 2.0, 800
    ext_n, ext_k, ext_m, ext_reps = 5_000, 350, 2_000, 200
    ext_gamma = ext_k / math.sqrt(ext_n)
    draws = 10_000
    pmf_gamma = 2.0
    calls = [{"n": 1000, "k": 60, "m": 500, "table_cap": 10_000, "mc_replicates": 0},
             {"n": 1500, "k": 75, "m": 500, "table_cap": 10_000, "mc_replicates": 0},
             {"n": 2000, "k": 90, "m": 500, "table_cap": 10_000, "mc_replicates": 0},
             {"n": 1000, "k": 60, "m": 800, "table_cap": 500, "mc_replicates": 300}]
    calls = [dict(c, seed=s[3] + i) for i, c in enumerate(calls)]
    return [
        _cli("simulate-ap", "simulate", ["simulate", "--family", "ap", "--gamma",
                                         repr(sim_gamma), "--n", str(sim_n),
                                         "--seed", str(s[0])],
             ["simulated_abundance.csv", "accumulation.csv"],
             check_ap_simulation(sim_gamma, sim_n)),
        _cli("extrapolate-ap", "extrapolate",
             ["extrapolate", "--family", "ap", "--gamma", repr(ext_gamma), "--n", str(ext_n),
              "--k", str(ext_k), "--m", str(ext_m), "--replicates", str(ext_reps),
              "--seed", str(s[1])],
             ["extrapolation.csv"],
             check_ap_extrapolation(ext_gamma, ext_n, ext_k, ext_m, ext_reps)),
        _cli("fit-ap", "fit", ["fit", "--input", "fixtures/amazon.csv", "--family", "ap",
                               "--draws", str(draws), "--seed", str(s[2])],
             ["draws.csv", "point_estimates.json", "summary.json"],
             check_ap_fit(AMAZON_N, AMAZON_K, draws)),
        _lib("km-pmf", {"fn": "posterior_Km_pmf", "gamma": pmf_gamma, "calls": calls},
             ["pmfs.json"], check_km_pmf(pmf_gamma, calls)),
    ]


def urn_mc(seed: int, nproc: int) -> List[Job]:
    s = _seeds(seed, 3, "urn-mc")
    sample = dp_sample(seed)
    table = ["--input", "fixtures/dp_sample.csv"]
    val_out = ["rarefaction.csv", "freq_counts.csv", "rad.csv"]
    return [
        _cli("simulate-dp", "simulate", ["simulate", "--family", "dp", "--alpha",
                                         repr(URN_ALPHA), "--n", str(URN_N),
                                         "--seed", str(s[0])],
             ["simulated_abundance.csv", "accumulation.csv"],
             check_dp_simulation(URN_ALPHA, URN_N)),
        _cli("validate-dp", "validate", ["validate", *table, "--family", "dp",
                                         "--replicates", str(VALIDATE_REPLICATES["dp"]),
                                         "--seed", str(s[1])],
             val_out, check_validate("dp", sample)),
        _cli("validate-dm", "validate", ["validate", *table, "--family", "dm",
                                         "--bound-h", str(DM_H), "--sigma", "-1",
                                         "--replicates", str(VALIDATE_REPLICATES["dm"]),
                                         "--seed", str(s[2])],
             val_out, check_validate("dm", sample, DM_H)),
    ]


def taxonomic(seed: int, nproc: int) -> List[Job]:
    s = _seeds(seed, 2, "taxonomic")
    sim_n = 2000
    rows = taxonomy_rows(seed)
    threads = min(2, nproc)
    fit = ["taxonomic", "--input", "fixtures/tree.csv", "--levels", "3",
           "--mcmc-iters", str(TAXO_ITERS), "--burn-in", str(TAXO_BURN), "--rho", "0.25",
           "--sg", *[repr(float(x)) for x in TAXO_SG], "--seed", str(s[1])]
    fit_out = ["taxonomic_fit.json", "branch_summaries.csv"]
    return [
        _cli("simulate-nested", "simulate", ["simulate", "--levels-spec", "dp:8;dp:2;ap:0.8",
                                             "--n", str(sim_n), "--seed", str(s[0])],
             ["simulated_taxonomy.csv"], check_nested_simulation(sim_n)),
        _cli("taxonomic-serial", "taxonomic", fit + ["--threads", "1"], fit_out,
             check_taxonomic(rows, None)),
        _cli("taxonomic-threaded", "taxonomic", fit + ["--threads", str(threads)],
             fit_out, check_taxonomic(rows, "taxonomic-serial")),
    ]


# Each workload runs the job lists of its parts in sequence.  Four lists in two
# workloads: with two workloads a check has time for ~50 s runs, which the
# host's CPU-speed drift needs (see README.md).  amazon-dp-urn never touches a
# Hermite function; ap-hermite-taxonomic is where they do the work.
PARTS = {"amazon-dp": amazon_dp, "urn-mc": urn_mc, "ap-hermite": ap_hermite,
         "taxonomic": taxonomic}
WORKLOADS = {"amazon-dp-urn": ("amazon-dp", "urn-mc"),
             "ap-hermite-taxonomic": ("ap-hermite", "taxonomic")}


def jobs(workload: str, seed: int, nproc: int) -> List[Job]:
    return [job for part in WORKLOADS[workload] for job in PARTS[part](seed, nproc)]
