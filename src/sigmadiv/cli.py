"""Batch command-line surface: fit | validate | richness | extrapolate | taxonomic | simulate.

Every run is seeded and every output file records the fully resolved
configuration, so repeated runs with the same flags are byte-identical.
CSV files carry the config as a leading comment line; JSON files embed it
under "_config".  Exit codes: 2 parse errors, 3 domain errors,
5 internal errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import apinfer, dpinfer, estimators, gibbs, taxo
from .datamodel import (ingest_abundance_csv, ingest_taxonomy_csv,
                        stream_to_partition, write_abundance_csv, write_taxonomy_csv)
from .errors import DomainError, ParseError, SigmadivError

EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_INTERNAL = 5

_DRAW_FMT = "%.17g"
_SUMMARY_FMT = "%.6g"


def _fmt(value, fmt: str) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return fmt % value
    return str(value)


def _config_line(args: argparse.Namespace, resolved: Dict) -> str:
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None}
    cfg.update(resolved)
    return json.dumps(cfg, sort_keys=True, default=str)


def _write_table(outdir: str, name: str, columns: Sequence[str], rows: List[Sequence],
                 fmt: str, config: str, value_fmt: str = _SUMMARY_FMT) -> str:
    if fmt == "json":
        path = os.path.join(outdir, f"{name}.json")
        payload = {"_config": json.loads(config),
                   "rows": [{c: (float(v) if isinstance(v, (float, np.floating)) else v)
                             for c, v in zip(columns, row)} for row in rows]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return path
    path = os.path.join(outdir, f"{name}.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# config: {config}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v, value_fmt) for v in row) + "\n")
    return path


def _write_json(outdir: str, name: str, payload: Dict, config: str) -> str:
    path = os.path.join(outdir, f"{name}.json")
    payload = dict(payload)
    payload["_config"] = json.loads(config)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def _round6(x) -> float:
    return float(_SUMMARY_FMT % float(x))


def _summary_payload(summary: Dict) -> Dict:
    return {"mean": _round6(summary["mean"]),
            "quantiles": {q: _round6(v) for q, v in summary["quantiles"].items()}}


def _model_from_args(args, n: Optional[int] = None, k: Optional[int] = None) -> gibbs.GibbsModel:
    if args.family == "dp":
        alpha = args.alpha
        if alpha is None:
            if n is None or k is None:
                raise DomainError("--alpha is required without input data")
            alpha = estimators.mle_alpha(n, k).value
        return gibbs.DirichletProcess(alpha=alpha)
    if args.family == "dm":
        if args.bound_h is None:
            raise DomainError("--bound-h is required for the dm family")
        return gibbs.DirichletMultinomial(sigma=args.sigma, H=args.bound_h)
    if args.gamma is None:
        raise DomainError("--gamma is required for the ap family")
    return gibbs.AldousPitman(gamma=args.gamma)


def _sg_prior(args, n: int) -> dpinfer.StirlingGammaSpec:
    if args.sg is not None:
        a, b, n_ref = args.sg
        return dpinfer.StirlingGammaSpec(a=a, b=b, n_ref=int(n_ref))
    # default: location min(5000, n) with a = 1, anchored at the observed n
    b = max(0.0002, 1.0 / n)
    return dpinfer.StirlingGammaSpec(a=1.0, b=b, n_ref=n)


def _load_stats(args) -> tuple:
    """(PartitionData | None, n, k) from --input or --n/--k."""
    if args.input:
        data = ingest_abundance_csv(args.input)
        return data, data.n, data.k
    if args.n is None or args.k is None:
        raise DomainError("either --input or both --n and --k are required")
    return None, args.n, args.k


def _maybe_write_data_summary(args, outdir, config, data=None, tree=None) -> None:
    if args.format != "json":
        return
    if data is not None:
        _write_json(outdir, "data_summary", data.to_json(), config)
    if tree is not None:
        _write_json(outdir, "data_summary", tree.to_json(), config)


def cmd_fit(args) -> int:
    data, n, k = _load_stats(args)
    outdir = args.output_dir
    os.makedirs(outdir, exist_ok=True)
    estimates = {"n": n, "k": k}
    for fn in (estimators.fisher_alpha, estimators.mle_alpha):
        est = fn(n, k)
        estimates[est.method] = {"value": _round6(est.value),
                                 "residual": float(est.residual),
                                 "iterations": est.iterations}
    if args.family == "dp":
        prior = _sg_prior(args, n)
        resolved = {"resolved_prior": f"sg({prior.a},{prior.b},{prior.n_ref})"}
        config = _config_line(args, resolved)
        post = dpinfer.CoarsenedPosterior(prior=prior, n=n, k=k, rho=args.rho)
        draws = dpinfer.sg_posterior_sample(post, args.draws, args.seed)
        param = "alpha"
    elif args.family == "ap":
        a_g, b_g = args.gamma_prior if args.gamma_prior else (1.0, 1.0)
        config = _config_line(args, {"resolved_prior": f"gamma({a_g},{b_g})"})
        draws = apinfer.iid_two_step_sample(n, k, a_g, b_g, args.draws, args.seed,
                                            rho=args.rho)
        param = "gamma"
    else:
        raise DomainError("fit supports the dp and ap families; Bayesian inference "
                          "for the dm richness bound needs a discrete prior and is "
                          "not part of this command")
    _maybe_write_data_summary(args, outdir, config, data=data)
    _write_json(outdir, "point_estimates", estimates, config)
    _write_table(outdir, "draws", ["draw", param],
                 [(i, v) for i, v in enumerate(draws.values)], args.format, config,
                 value_fmt=_DRAW_FMT)
    _write_json(outdir, "summary", _summary_payload(draws.summary()), config)
    return 0


def _grid_sizes(n: int, points: int) -> np.ndarray:
    if n <= points:
        return np.arange(1, n + 1)
    grid = np.unique(np.round(np.geomspace(1, n, points)).astype(np.int64))
    return grid


def cmd_validate(args) -> int:
    data = ingest_abundance_csv(args.input)
    n, k = data.n, data.k
    model = _model_from_args(args, n, k)
    resolved = {"resolved_model": repr(model)}
    config = _config_line(args, resolved)
    outdir = args.output_dir
    os.makedirs(outdir, exist_ok=True)
    _maybe_write_data_summary(args, outdir, config, data=data)

    sizes = _grid_sizes(n, args.grid_points)
    classical = estimators.classical_rarefaction(data, sizes)
    curve = gibbs.rarefaction(model, n, replicates=args.replicates, rng_seed=args.seed)
    model_vals = np.array([c.value for c in curve])[sizes - 1]
    rows = [(int(i), c, m) for i, c, m in zip(sizes, classical, model_vals)]
    _write_table(outdir, "rarefaction", ["size", "classical", "model"], rows,
                 args.format, config)

    r_max = min(args.r_max, n)
    expected = gibbs.expected_freq_counts(model, n, r_max, replicates=args.replicates,
                                          rng_seed=args.seed)
    observed = [data.freq_counts.get(r, 0) for r in range(1, r_max + 1)]
    rows = [(r, o, e) for r, o, e in zip(range(1, r_max + 1), observed, expected)]
    _write_table(outdir, "freq_counts", ["r", "observed", "expected"], rows,
                 args.format, config)

    rng = np.random.default_rng(np.random.SeedSequence((args.seed, 0x7ad)))
    acc = np.zeros(0)
    acc2 = np.zeros(0)
    for _ in range(args.replicates):
        sim = stream_to_partition(gibbs.urn_sample(model, n, rng.integers(2**63)))
        ranked = np.array(sim.abundances, dtype=float)
        if ranked.size > acc.size:
            acc = np.pad(acc, (0, ranked.size - acc.size))
            acc2 = np.pad(acc2, (0, ranked.size - acc2.size))
        acc[:ranked.size] += ranked
        acc2[:ranked.size] += ranked ** 2
    mean = acc / args.replicates
    se = np.sqrt(np.maximum(acc2 / args.replicates - mean ** 2, 0.0) / args.replicates)
    obs = list(data.abundances)
    rows = []
    for r in range(max(len(obs), mean.size)):
        rows.append((r + 1,
                     obs[r] if r < len(obs) else 0,
                     mean[r] if r < mean.size else 0.0,
                     se[r] if r < se.size else 0.0))
    _write_table(outdir, "rad", ["rank", "observed", "expected", "se"], rows,
                 args.format, config)
    return 0


def cmd_richness(args) -> int:
    data, n, k = _load_stats(args)
    prior = _sg_prior(args, n)
    config = _config_line(args, {"resolved_prior": f"sg({prior.a},{prior.b},{prior.n_ref})"})
    outdir = args.output_dir
    os.makedirs(outdir, exist_ok=True)
    _maybe_write_data_summary(args, outdir, config, data=data)
    post = dpinfer.CoarsenedPosterior(prior=prior, n=n, k=k, rho=args.rho)
    pred = dpinfer.richness_posterior(post, args.nhat, args.draws, args.seed)
    _write_table(outdir, "richness_draws", ["draw", "K_N"],
                 [(i, int(v)) for i, v in enumerate(pred.draws)], args.format, config,
                 value_fmt=_DRAW_FMT)
    _write_json(outdir, "richness_summary", _summary_payload(pred.summary()), config)
    return 0


def cmd_extrapolate(args) -> int:
    data, n, k = _load_stats(args)
    model = _model_from_args(args, n, k)
    config = _config_line(args, {"resolved_model": repr(model)})
    outdir = args.output_dir
    os.makedirs(outdir, exist_ok=True)
    _maybe_write_data_summary(args, outdir, config, data=data)
    curve = gibbs.extrapolation(model, n, k, args.m, replicates=args.replicates,
                                rng_seed=args.seed)
    rows = [(c.size, c.value, c.se if c.se is not None else "") for c in curve]
    _write_table(outdir, "extrapolation", ["size", "expected", "se"], rows,
                 args.format, config)
    return 0


def cmd_taxonomic(args) -> int:
    tree = ingest_taxonomy_csv(args.input, args.levels)
    if args.sg is not None:
        a, b, n_ref = args.sg
        sg = dpinfer.StirlingGammaSpec(a=a, b=b, n_ref=int(n_ref))
    else:
        sg = dpinfer.StirlingGammaSpec(a=0.3, b=0.1, n_ref=100)
    level_priors: List[taxo.LevelPrior] = [taxo.DPLevelPrior(sg=sg)]
    for _ in range(2, args.levels):
        level_priors.append(taxo.DPLevelPrior(sg=sg))
    level_priors.append(taxo.APLevelPrior(hyper_mu=tuple(args.hyper_mu),
                                          hyper_sd=args.hyper_sd,
                                          rho=args.rho))
    spec = taxo.TaxonomicModelSpec(levels=tuple(level_priors))
    mcmc = taxo.MCMCSettings(iters=args.mcmc_iters, burn_in=args.burn_in,
                             seed=args.seed, threads=args.threads)
    config = _config_line(args, {"resolved_prior": f"sg({sg.a},{sg.b},{sg.n_ref})"})
    outdir = args.output_dir
    os.makedirs(outdir, exist_ok=True)
    _maybe_write_data_summary(args, outdir, config, tree=tree)
    fit = taxo.fit_taxonomic(spec, tree, mcmc)

    payload: Dict = {"level1": _draws_list(fit.level1.values)}
    level_names = {2: "families", 3: "genera"} if args.levels == 3 else {}
    for i, level_draws in enumerate(fit.branches):
        name = level_names.get(i + 2, f"level{i + 2}")
        payload[name] = {lab: _draws_list(d.values)
                         for lab, d in sorted(level_draws.items())}
    payload["hyper"] = {
        str(level): {"a_gamma": _draws_list(h["a_gamma"]),
                     "b_gamma": _draws_list(h["b_gamma"]),
                     "acceptance": _round6(h["acceptance"])}
        for level, h in fit.hyper.items()}
    _write_json(outdir, "taxonomic_fit", payload, config)
    rows = [(s.level, s.label, s.mean, s.q01, s.q99, s.n_branch, s.k_branch,
             int(s.prior_only)) for s in taxo.branch_summaries(fit)]
    _write_table(outdir, "branch_summaries",
                 ["level", "label", "mean", "q01", "q99", "n_branch", "k_branch",
                  "prior_only"], rows, args.format, config)
    return 0


def _draws_list(a: np.ndarray) -> List[float]:
    return [float(_DRAW_FMT % v) for v in a]


def _parse_levels_spec(spec: str) -> List[taxo.LevelModel]:
    levels = []
    for part in spec.split(";"):
        bits = part.strip().split(":")
        family = bits[0]
        if family not in ("dm", "dp", "ap"):
            raise DomainError(f"unknown family {family!r} in --levels-spec")
        if len(bits) < 2:
            raise DomainError(f"level {part!r} needs a diversity value")
        diversity = float(bits[1])
        sigma = float(bits[2]) if len(bits) > 2 else None
        levels.append(taxo.LevelModel(family=family, diversity=diversity, sigma=sigma))
    return levels


def cmd_simulate(args) -> int:
    outdir = args.output_dir
    os.makedirs(outdir, exist_ok=True)
    if args.levels_spec:
        levels = _parse_levels_spec(args.levels_spec)
        config = _config_line(args, {})
        tree = taxo.nested_urn_sample(levels, args.n, args.seed)
        path = os.path.join(outdir, "simulated_taxonomy.csv")
        write_taxonomy_csv(tree, path)
        if args.format == "json":
            _write_json(outdir, "simulated_taxonomy", tree.to_json(), config)
        return 0
    model = _model_from_args(args)
    config = _config_line(args, {"resolved_model": repr(model)})
    stream = gibbs.urn_sample(model, args.n, args.seed)
    data = stream_to_partition(stream)
    write_abundance_csv(data, os.path.join(outdir, "simulated_abundance.csv"))
    running = np.maximum.accumulate(stream) + 1
    rows = [(i + 1, int(kv)) for i, kv in enumerate(running)]
    _write_table(outdir, "accumulation", ["size", "distinct"], rows, args.format, config)
    if args.format == "json":
        _write_json(outdir, "data_summary", data.to_json(), config)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigmadiv",
        description="Gibbs-type species sampling: diversity inference, richness "
                    "prediction, accumulation curves and taxonomic models")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, input_required=True):
        p.add_argument("--input", required=False, help="input CSV path")
        p.add_argument("--output-dir", required=True)
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--rho", type=float, default=1.0)
        p.add_argument("--family", choices=["dm", "dp", "ap"], default="dp")
        p.add_argument("--sigma", type=float, default=-1.0, help="dm discount (< 0)")
        p.add_argument("--bound-h", type=int, help="dm taxon bound H")
        p.add_argument("--alpha", type=float, help="dp precision")
        p.add_argument("--gamma", type=float, help="ap diversity")
        p.add_argument("--sg", type=float, nargs=3, metavar=("A", "B", "NREF"),
                       help="Stirling-gamma prior")
        p.add_argument("--gamma-prior", type=float, nargs=2, metavar=("A", "B"))
        p.add_argument("--mcmc-iters", type=int, default=10_000)
        p.add_argument("--burn-in", type=int, default=1_000)
        p.add_argument("--replicates", type=int, default=1_000)
        p.add_argument("--n", type=int, help="sample size (alternative to --input)")
        p.add_argument("--k", type=int, help="distinct count (alternative to --input)")

    p = sub.add_parser("fit", help="point estimates plus a diversity posterior")
    common(p)
    p.add_argument("--draws", type=int, default=10_000)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("validate", help="rarefaction, frequency-count and RAD checks")
    common(p)
    p.add_argument("--grid-points", type=int, default=250)
    p.add_argument("--r-max", type=int, default=100)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("richness", help="posterior of the total richness K_N")
    common(p)
    p.add_argument("--nhat", type=float, required=True)
    p.add_argument("--draws", type=int, default=10_000)
    p.set_defaults(func=cmd_richness)

    p = sub.add_parser("extrapolate", help="out-of-sample accumulation curve")
    common(p)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_extrapolate)

    p = sub.add_parser("taxonomic", help="hierarchical fit of a taxonomy CSV")
    common(p)
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--hyper-mu", type=float, nargs=2, default=[0.0, 0.0])
    p.add_argument("--hyper-sd", type=float, default=10.0)
    p.set_defaults(func=cmd_taxonomic, rho=0.25)

    p = sub.add_parser("simulate", help="draw a synthetic dataset from an urn")
    common(p)
    p.add_argument("--levels-spec", help="nested spec, e.g. 'dp:30;dp:3;ap:0.8'")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except SigmadivError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
