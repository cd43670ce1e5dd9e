"""Batch command-line surface: fit | validate | richness | extrapolate | taxonomic | simulate.

Every run is seeded and every output file records the fully resolved
configuration, so repeated runs with the same flags are byte-identical.
CSV files carry the config as a leading comment line, except simulate's
simulated_abundance.csv and simulated_taxonomy.csv; JSON files embed it
under "_config".  Exit codes: 2 parse errors, 3 domain errors,
5 internal errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import apinfer, dpinfer, estimators, gibbs, taxo
from .datamodel import (PartitionData, ingest_abundance_csv, ingest_taxonomy_csv,
                        write_abundance_csv, write_taxonomy_csv)
from .errors import DomainError, ParseError, count

EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_INTERNAL = 5

_DRAW_FMT = "%.17g"
_SUMMARY_FMT = "%.6g"
_CSV_CHUNK = 1 << 12  # rows formatted and written per step


def _spec(tp: type, fmt: str) -> Optional[str]:
    """The %-format of a CSV cell of type tp: ints as digits, floats (numpy's float64
    included) with fmt, anything else by str; None for bools, written true/false."""
    if issubclass(tp, (bool, np.bool_)):
        return None
    if issubclass(tp, (int, np.integer)):
        return "%d"
    if issubclass(tp, float):
        return fmt
    return "%s"


def _cell(value, fmt: str) -> str:
    spec = _spec(type(value), fmt)
    return ("true" if value else "false") if spec is None else spec % (value,)


def _config_line(args: argparse.Namespace, resolved: Dict) -> str:
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None}
    cfg.update(resolved)
    return json.dumps(cfg, sort_keys=True, default=str)


def _write_table(outdir: str, name: str, columns: Dict[str, Sequence], fmt: str,
                 config: str, value_fmt: str = _SUMMARY_FMT) -> str:
    """Write equal-length columns (arrays or lists) under their headers, as CSV or as
    JSON rows {header: cell}.  Either goes out _CSV_CHUNK rows at a time, through one
    %-template over the interleaved cells (_chunks): each column's spec comes once from
    its dtype or single element type, and a column without one is formatted cell by
    cell (bools, mixed types; in JSON also strings and floats that are not finite)."""
    if fmt == "json":
        columns = dict(sorted(columns.items()))  # the key order of sort_keys
    cols = list(columns.values())
    rows, = {len(c) for c in cols}  # a ValueError unless the columns have one length
    kinds = [{c.dtype.type} if isinstance(c, np.ndarray) else set(map(type, c)) for c in cols]
    if fmt == "json":
        specs = [_json_spec(k.pop(), c) if len(k) == 1 else None for k, c in zip(kinds, cols)]
        return _write_json(outdir, name, {"rows": lambda depth: _json_rows(
            list(columns), cols, specs, rows, depth)}, config)
    specs = [_spec(k.pop(), value_fmt) if len(k) == 1 else None for k in kinds]
    line = ",".join(spec or "%s" for spec in specs) + "\n"
    path = os.path.join(outdir, f"{name}.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# config: {config}\n")
        fh.write(",".join(columns) + "\n")
        fh.writelines(_chunks(cols, specs, rows, lambda v: _cell(v, value_fmt), line))
    return path


def _chunks(cols: List[Sequence], specs: List[Optional[str]], rows: int, cell, line: str,
            first: Optional[str] = None) -> Iterator[str]:
    """The text of each run of _CSV_CHUNK rows, formatted by the row template line (the
    first row by `first`, if given) over the cells row by row: a column with a spec as it
    is (an array's by tolist), one without formatted by cell."""
    for lo in range(0, rows, _CSV_CHUNK):
        size = min(_CSV_CHUNK, rows - lo)
        cells = [None] * (size * len(cols))
        for j, (spec, c) in enumerate(zip(specs, cols)):
            c = c[lo:lo + size]
            cells[j::len(cols)] = ((c.tolist() if isinstance(c, np.ndarray) else c) if spec
                                   else [cell(v) for v in c])
        yield (first + line * (size - 1) if first and not lo else line * size) % tuple(cells)


def _json_spec(tp: type, column: Sequence) -> Optional[str]:
    """The %-format of a JSON column of cells of type tp: "%d" for ints and "%r" for
    finite floats (json writes both by their repr); None for the rest, which _json_cell
    encodes.  An array gives its cells by tolist, so there numpy types stand for both."""
    array = isinstance(column, np.ndarray)
    if tp is int or (array and issubclass(tp, np.integer)):
        return "%d"
    if (tp is float or (array and issubclass(tp, np.floating))) and np.isfinite(column).all():
        return "%r"
    return None


def _json_cell(value) -> str:
    return _JSON.encode(value.item() if isinstance(value, np.generic) else value)


def _json_rows(names: List[str], cols: List[Sequence], specs: List[Optional[str]],
               rows: int, depth: int) -> Iterator[str]:
    """The text of _JSON for the list of row objects {names[j]: cols[j][i]} nested
    `depth` deep, one piece per chunk of _chunks."""
    if not rows:
        yield "[]"
        return
    pad = "\n" + " " * (depth + 1)
    row = "," + pad + "{" + ",".join(pad + " " + json.dumps(h).replace("%", "%%") + ": "
                                     + (spec or "%s") for h, spec in zip(names, specs)) + pad + "}"
    yield from _chunks(cols, specs, rows, _json_cell, row, "[" + row[1:])
    yield pad[:-1] + "]"


def _write_json(outdir: str, name: str, payload: Dict, config: str) -> str:
    """The bytes of json.dump(payload + _config, indent=1, sort_keys=True), written
    piece by piece by _json_pieces; payload values may be numpy arrays."""
    path = os.path.join(outdir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_json_pieces(dict(payload, _config=json.loads(config))))
        fh.write("\n")
    return path


_JSON = json.JSONEncoder(indent=1, sort_keys=True)  # json.dump(indent=1, sort_keys=True)


def _json_pieces(value, depth: int = 0) -> Iterator[str]:
    """The text of _JSON for a value nested `depth` deep, in pieces: a dict with
    string keys key by key, a 1-D float array of finite values as one piece
    (repr of its list, whose floats json writes by the same repr, with ", " turned
    into the separator at that depth), and anything else by _JSON.iterencode,
    re-indented; a callable value gives its own pieces at its depth (_json_rows).  So
    no piece holds more than one array's or one chunk's text."""
    pad = "\n" + " " * (depth + 1)
    if isinstance(value, dict) and value:
        for i, key in enumerate(sorted(value)):
            yield ("{" if i == 0 else ",") + pad + json.dumps(key) + ": "
            yield from _json_pieces(value[key], depth + 1)
        yield pad[:-1] + "}"
    elif (isinstance(value, np.ndarray) and value.ndim == 1 and value.size
          and value.dtype.kind == "f" and np.isfinite(value).all()):
        yield "[" + pad + repr(value.tolist())[1:-1].replace(", ", "," + pad) + pad[:-1] + "]"
    elif callable(value):
        yield from value(depth)
    else:
        for piece in _JSON.iterencode(value.tolist() if isinstance(value, np.ndarray)
                                      else value):
            yield piece.replace("\n", pad[:-1])


def _round6(x) -> float:
    return float(_SUMMARY_FMT % float(x))


def _summary_payload(summary: Dict) -> Dict:
    return {"mean": _round6(summary["mean"]),
            "quantiles": {q: _round6(v) for q, v in summary["quantiles"].items()}}


def _model_from_args(args, n: Optional[int] = None, k: Optional[int] = None) -> gibbs.GibbsModel:
    for flag, family in (("alpha", "dp"), ("sigma", "dm"), ("bound_h", "dm"), ("gamma", "ap")):
        if getattr(args, flag) is not None and args.family != family:
            raise DomainError(f"--{flag.replace('_', '-')} applies only to --family {family}")
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
        sigma = -1.0 if args.sigma is None else args.sigma
        return gibbs.DirichletMultinomial(sigma=sigma, H=args.bound_h)
    if args.gamma is None:
        raise DomainError("--gamma is required for the ap family")
    return gibbs.AldousPitman(gamma=args.gamma)


def _sg_prior(args, n: Optional[int] = None) -> Tuple[dpinfer.StirlingGammaSpec, Dict]:
    """The --sg A B NREF prior and its config entry.  The default is anchored at the
    observed n with location min(5000, n) and a = 1; SG(0.3, 0.1, 100) without n."""
    if args.sg is not None:
        a, b, n_ref = args.sg
    elif n is None:
        a, b, n_ref = 0.3, 0.1, 100
    else:
        a, b, n_ref = 1.0, max(0.0002, 1.0 / n), n
    prior = dpinfer.StirlingGammaSpec(a=a, b=b, n_ref=n_ref)
    return prior, {"resolved_prior": f"sg({prior.a},{prior.b},{prior.n_ref})"}


def _load_stats(args) -> tuple:
    """(PartitionData | None, n, k) from --input or --n/--k."""
    if args.input:
        if args.n is not None or args.k is not None:
            raise DomainError("give either --input or --n/--k, not both")
        data = ingest_abundance_csv(args.input)
        return data, data.n, data.k
    if args.n is None or args.k is None:
        raise DomainError("either --input or both --n and --k are required")
    return None, args.n, args.k


def _start_outputs(args, resolved: Dict, data) -> Tuple[str, str]:
    """Make --output-dir, write data_summary.json under --format json; (dir, config).
    Commands call it once their arguments have passed every check, so a refused run
    writes nothing."""
    config = _config_line(args, resolved)
    os.makedirs(args.output_dir, exist_ok=True)
    if args.format == "json" and data is not None:
        _write_json(args.output_dir, "data_summary", data.to_json(), config)
    return args.output_dir, config


def cmd_fit(args) -> int:
    data, n, k = _load_stats(args)
    estimates = {"n": n, "k": k}
    for fn in (estimators.fisher_alpha, estimators.mle_alpha):
        est = fn(n, k)
        estimates[est.method] = {"value": _round6(est.value),
                                 "residual": float(est.residual),
                                 "iterations": est.iterations}
    if args.family == "dp":
        if args.gamma_prior is not None:
            raise DomainError("--gamma-prior is the ap prior; the dp prior is --sg")
        prior, resolved = _sg_prior(args, n)
        post = dpinfer.CoarsenedPosterior(prior=prior, n=n, k=k, rho=args.rho)
        draws = dpinfer.sg_posterior_sample(post, args.draws, args.seed)
        param = "alpha"
    else:
        if args.sg is not None:
            raise DomainError("--sg is the dp prior; the ap prior is --gamma-prior")
        a_g, b_g = args.gamma_prior if args.gamma_prior else (1.0, 1.0)
        resolved = {"resolved_prior": f"gamma({a_g},{b_g})"}
        draws = apinfer.iid_two_step_sample(n, k, a_g, b_g, args.draws, args.seed,
                                            rho=args.rho)
        param = "gamma"
    outdir, config = _start_outputs(args, resolved, data)
    _write_json(outdir, "point_estimates", estimates, config)
    _write_table(outdir, "draws", {"draw": np.arange(len(draws.values)), param: draws.values},
                 args.format, config, value_fmt=_DRAW_FMT)
    _write_json(outdir, "summary", _summary_payload(draws.summary()), config)
    return 0


def _grid_sizes(n: int, points: int) -> np.ndarray:
    if n <= count("--grid-points", points):
        return np.arange(1, n + 1)
    sizes = np.round(np.geomspace(1, n, points)).astype(np.int64)  # sorted
    return sizes[np.concatenate(([True], sizes[1:] != sizes[:-1]))]


def cmd_validate(args) -> int:
    count("--replicates", args.replicates)
    data = ingest_abundance_csv(args.input)
    n, k = data.n, data.k
    model = _model_from_args(args, n, k)
    sizes = _grid_sizes(n, args.grid_points)
    count("--r-max", args.r_max)
    classical = estimators.classical_rarefaction(data, sizes)
    curve = gibbs.rarefaction(model, n, sizes=sizes)
    r = np.arange(1, min(args.r_max, n) + 1)
    expected = gibbs.expected_freq_counts(model, n, r.size)
    outdir, config = _start_outputs(args, {"resolved_model": repr(model)}, data)
    _write_table(outdir, "rarefaction",
                 {"size": curve.sizes, "classical": classical, "model": curve.values},
                 args.format, config)
    _write_table(outdir, "freq_counts", {
        "r": r, "observed": [data.freq_counts.get(i, 0) for i in r.tolist()],
        "expected": expected}, args.format, config)

    rng = np.random.default_rng(np.random.SeedSequence((args.seed, 0x7ad)))
    acc = np.zeros((2, k))  # sums of the ranked sizes and of their squares
    for _ in range(args.replicates):
        # ranked by counting: hist[c] taxa of size c, so each size c repeats hist[c] times
        hist = np.bincount(gibbs.taxon_counts(gibbs.urn_sample(model, n, rng)))
        ranked = np.repeat(np.arange(hist.size - 1, 0, -1), hist[:0:-1])
        if ranked.size > acc.shape[1]:
            acc = np.concatenate((acc, np.zeros((2, ranked.size - acc.shape[1]))), axis=1)
        acc[:, :ranked.size] += ranked, ranked ** 2
    width = acc.shape[1]
    obs = np.zeros(width, dtype=np.int64)
    obs[:k] = data.abundances
    mean, sq = acc / args.replicates
    se = np.sqrt(np.maximum(sq - mean ** 2, 0.0) / args.replicates)
    _write_table(outdir, "rad", {"rank": np.arange(1, width + 1), "observed": obs,
                                 "expected": mean, "se": se}, args.format, config)
    return 0


def cmd_richness(args) -> int:
    data, n, k = _load_stats(args)
    prior, resolved = _sg_prior(args, n)
    post = dpinfer.CoarsenedPosterior(prior=prior, n=n, k=k, rho=args.rho)
    pred = dpinfer.richness_posterior(post, args.nhat, args.draws, args.seed)
    outdir, config = _start_outputs(args, resolved, data)
    _write_table(outdir, "richness_draws", {"draw": np.arange(len(pred.draws)), "K_N": pred.draws},
                 args.format, config, value_fmt=_DRAW_FMT)
    _write_json(outdir, "richness_summary", _summary_payload(pred.summary()), config)
    return 0


def cmd_extrapolate(args) -> int:
    count("--replicates", args.replicates)
    data, n, k = _load_stats(args)
    model = _model_from_args(args, n, k)
    curve = gibbs.extrapolation(model, n, k, args.m, replicates=args.replicates,
                                rng_seed=args.seed)
    outdir, config = _start_outputs(args, {"resolved_model": repr(model)}, data)
    se = [""] * args.m if curve.se is None else curve.se
    _write_table(outdir, "extrapolation", {"size": curve.sizes, "expected": curve.values,
                                           "se": se}, args.format, config)
    return 0


def cmd_taxonomic(args) -> int:
    tree = ingest_taxonomy_csv(args.input, args.levels)
    sg, resolved = _sg_prior(args)
    # ingest_taxonomy_csv has checked levels >= 2
    level_priors: List[taxo.LevelPrior] = [taxo.DPLevelPrior(sg=sg)] * (args.levels - 1)
    level_priors.append(taxo.APLevelPrior(hyper_mu=tuple(args.hyper_mu),
                                          hyper_sd=args.hyper_sd,
                                          rho=args.rho))
    spec = taxo.TaxonomicModelSpec(levels=tuple(level_priors))
    mcmc = taxo.MCMCSettings(iters=args.mcmc_iters, burn_in=args.burn_in,
                             seed=args.seed, threads=args.threads)
    fit = taxo.fit_taxonomic(spec, tree, mcmc)
    outdir, config = _start_outputs(args, resolved, tree)

    # arrays, not lists: _write_json writes them one branch at a time
    payload: Dict = {"level1": fit.level1.values}
    level_names = {2: "families", 3: "genera"} if args.levels == 3 else {}
    for i, level_draws in enumerate(fit.branches):
        name = level_names.get(i + 2, f"level{i + 2}")
        payload[name] = {lab: d.values for lab, d in level_draws.items()}
    payload["hyper"] = {
        str(level): {"a_gamma": h["a_gamma"], "b_gamma": h["b_gamma"],
                     "acceptance": _round6(h["acceptance"])}
        for level, h in fit.hyper.items()}
    _write_json(outdir, "taxonomic_fit", payload, config)
    summaries = taxo.branch_summaries(fit)
    columns = {c: [getattr(s, c) for s in summaries]
               for c in ("level", "label", "mean", "q01", "q99", "n_branch", "k_branch")}
    columns["prior_only"] = [int(s.prior_only) for s in summaries]
    _write_table(outdir, "branch_summaries", columns, args.format, config)
    return 0


def _parse_levels_spec(spec: str) -> List[taxo.LevelModel]:
    levels = []
    for part in spec.split(";"):
        bits = part.strip().split(":")
        family = bits[0]
        if family not in ("dm", "dp", "ap"):
            raise DomainError(f"unknown family {family!r} in --levels-spec")
        if len(bits) < 2:
            raise DomainError(f"level {part!r} needs a diversity value")
        try:
            diversity = float(bits[1])
            sigma = float(bits[2]) if len(bits) > 2 else None
        except ValueError:
            raise DomainError(f"level {part!r} needs numeric values") from None
        levels.append(taxo.LevelModel(family=family, diversity=diversity, sigma=sigma))
    return levels


def cmd_simulate(args) -> int:
    model_flags = (args.family, args.sigma, args.alpha, args.bound_h, args.gamma)
    if args.levels_spec and model_flags != (None,) * len(model_flags):
        raise DomainError("--family, --sigma, --alpha, --bound-h and --gamma do not apply "
                          "with --levels-spec")
    outdir = args.output_dir
    if args.levels_spec:
        levels = _parse_levels_spec(args.levels_spec)
        tree = taxo.nested_urn_sample(levels, args.n, args.seed)
        os.makedirs(outdir, exist_ok=True)
        config = _config_line(args, {})
        write_taxonomy_csv(tree, os.path.join(outdir, "simulated_taxonomy.csv"))
        if args.format == "json":
            _write_json(outdir, "simulated_taxonomy", tree.to_json(), config)
        return 0
    if args.family is None:
        args.family = "dp"
    model = _model_from_args(args)
    stream = gibbs.urn_sample(model, args.n, args.seed)
    os.makedirs(outdir, exist_ok=True)
    config = _config_line(args, {"resolved_model": repr(model)})
    data = PartitionData.from_abundances(gibbs.taxon_counts(stream))
    write_abundance_csv(data, os.path.join(outdir, "simulated_abundance.csv"))
    # labels come in discovery order, so K after each draw is their running max + 1,
    # written over the labels
    distinct = np.maximum.accumulate(stream, out=stream)
    distinct += 1
    _write_table(outdir, "accumulation", {"size": np.arange(1, args.n + 1, dtype=np.int32),
                                          "distinct": distinct}, args.format, config)
    if args.format == "json":
        _write_json(outdir, "data_summary", data.to_json(), config)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    """One subparser per command, each with only the flags its cmd_* reads."""
    parser = argparse.ArgumentParser(
        prog="sigmadiv",
        description="Gibbs-type species sampling: diversity inference, richness "
                    "prediction, accumulation curves and taxonomic models")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--output-dir", required=True)
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--seed", type=int, required=True)
        p.set_defaults(func=func)
        return p

    def data(p):
        p.add_argument("--input", help="input CSV path")
        p.add_argument("--n", type=int, help="sample size (alternative to --input)")
        p.add_argument("--k", type=int, help="distinct count (alternative to --input)")

    def model(p, family="dp"):
        p.add_argument("--family", choices=["dm", "dp", "ap"], default=family,
                       help="model family (default dp)")
        p.add_argument("--alpha", type=float, help="dp precision")
        p.add_argument("--sigma", type=float, help="dm discount (< 0, default -1)")
        p.add_argument("--bound-h", type=int, help="dm taxon bound H")
        p.add_argument("--gamma", type=float, help="ap diversity")

    def priors(p, rho=1.0):
        p.add_argument("--sg", type=float, nargs=3, metavar=("A", "B", "NREF"),
                       help="Stirling-gamma prior")
        p.add_argument("--rho", type=float, default=rho, help="coarsening level")

    p = command("fit", cmd_fit, "point estimates plus a diversity posterior")
    data(p)
    priors(p)
    p.add_argument("--family", choices=["dp", "ap"], default="dp")
    p.add_argument("--gamma-prior", type=float, nargs=2, metavar=("A", "B"))
    p.add_argument("--draws", type=int, default=10_000)

    p = command("validate", cmd_validate, "rarefaction, frequency-count and RAD checks")
    p.add_argument("--input", required=True, help="input CSV path")
    model(p)
    p.add_argument("--replicates", type=int, default=1_000)
    p.add_argument("--grid-points", type=int, default=250)
    p.add_argument("--r-max", type=int, default=100)

    p = command("richness", cmd_richness, "posterior of the total richness K_N")
    data(p)
    priors(p)
    p.add_argument("--nhat", type=float, required=True)
    p.add_argument("--draws", type=int, default=10_000)

    p = command("extrapolate", cmd_extrapolate, "out-of-sample accumulation curve")
    data(p)
    model(p)
    p.add_argument("--replicates", type=int, default=1_000)
    p.add_argument("--m", type=int, required=True)

    p = command("taxonomic", cmd_taxonomic, "hierarchical fit of a taxonomy CSV")
    p.add_argument("--input", required=True, help="taxonomy CSV path")
    priors(p, rho=0.25)
    p.add_argument("--threads", type=int, default=1,
                   help="checked (>= 1) but without effect: the fit runs on one thread")
    p.add_argument("--mcmc-iters", type=int, default=10_000)
    p.add_argument("--burn-in", type=int, default=1_000)
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--hyper-mu", type=float, nargs=2, default=[0.0, 0.0])
    p.add_argument("--hyper-sd", type=float, default=10.0)

    p = command("simulate", cmd_simulate, "draw a synthetic dataset from an urn")
    p.add_argument("--n", type=int, required=True, help="sample size")
    model(p, family=None)  # resolved by the flat branch, foreign to --levels-spec
    p.add_argument("--levels-spec", help="nested spec, e.g. 'dp:30;dp:3;ap:0.8'")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        count("--seed", args.seed, 0)  # numpy's seeds are non-negative
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
