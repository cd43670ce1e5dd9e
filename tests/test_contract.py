"""The domain contract of the public library API.

Every name in a module's `__all__` that takes numeric parameters has a row here:
a valid call and the kind of each numeric parameter.  Each bad value of a kind is
substituted for one parameter in turn.  A count (a finite whole number >= a bound)
given NaN, +-inf, -1, 0.5 or its valid value plus 0.5 must raise DomainError; given
0, which some counts accept, and a real given any bad value, the call must raise
DomainError or return a finite result (every float it holds, down through
containers and attributes, is finite).  A parameter written `name[0]` is a
sequence, or a dict, whose first entry (key) is substituted.  Counts given a value
big enough only to exhaust memory are outside the contract, so counts never get one.

A public name without a row must be in EXEMPT, with the reason it has none, so no
new entry point can skip the contract.
"""

import importlib
import math
import pkgutil

import numpy as np
import pytest

import sigmadiv
from sigmadiv import apinfer, datamodel, dpinfer, draws, estimators, gibbs, specfun, taxo
from sigmadiv.errors import DomainError

NAN, INF = math.nan, math.inf
COUNT_REFUSED = (NAN, INF, -INF, -1, 0.5)  # and the valid count plus 0.5
REAL_BAD = (NAN, INF, -INF, -1.0, 0.0, 1e308)

TREE = "level1,level2,count\nA,a1,3\nA,a2,1\nB,b1,2\n"

_RECORD = "record of values the package computed; it stores what it is given"
_NO_NUMBER = "no numeric parameter"
_KERNEL = "special function: evaluated as given, so NaN gives NaN, as in numpy"
_SAMPLE = "its only numeric input is a sample, summarized as given"

EXEMPT = {
    "apinfer": {"APWeights": _RECORD, "gibbs_sweep": _NO_NUMBER},
    "datamodel": {"TaxonNode": _RECORD, "ObservationStream": "type alias",
                  "ingest_abundance_csv": _NO_NUMBER, "write_abundance_csv": _NO_NUMBER,
                  "write_taxonomy_csv": _NO_NUMBER, "accumulate": _NO_NUMBER,
                  "stream_to_partition": _NO_NUMBER},
    "dpinfer": {"RichnessPrediction": _RECORD},
    "draws": {"PosteriorDraws": _RECORD, "summarize_draws": _SAMPLE},
    "estimators": {"AlphaEstimate": _RECORD},
    "gibbs": {"GibbsModel": "type alias", "PredictiveSplit": _RECORD, "Curve": _RECORD,
              "DiversityIndices": _RECORD, "log_eppf": _NO_NUMBER,
              "taxon_counts": "its only input is a label stream of urn_sample",
              "diversity_indices": _NO_NUMBER},
    "specfun": {"gammaln": _KERNEL, "digamma": _KERNEL, "trigamma": _KERNEL,
                "logsumexp": _KERNEL, "gammainc_pq": _KERNEL, "poisson_pmf": _KERNEL,
                "normal_quantile": _KERNEL, "log_rising": _KERNEL,
                "log_rising_each": _KERNEL, "log_rising_excess": _KERNEL,
                "discovery_mean": _KERNEL, "STIRLING_FROM": "constant",
                "HERMITE_BLOCK": "constant", "log_grid_rule": _NO_NUMBER},
    "taxo": {"BranchSufficientStats": _RECORD, "BranchSummary": _RECORD,
             "TaxonomicFit": _RECORD,
             "log_taxonomic_likelihood": _NO_NUMBER, "fit_taxonomic": _NO_NUMBER,
             "branch_summaries": _NO_NUMBER},
}


def _tree():
    return datamodel.stream_to_taxonomy(
        [("A", "a1")] * 3 + [("A", "a2"), ("B", "b1"), ("B", "b1")], 2)


SG = dpinfer.StirlingGammaSpec(2.0, 0.5, 50)
POST = dpinfer.CoarsenedPosterior(SG, 50, 10, 1.0)
DP, DM = gibbs.DirichletProcess(2.0), gibbs.DirichletMultinomial(-1.0, 8)
AP = gibbs.AldousPitman(1.5)
DATA = datamodel.PartitionData.from_abundances([4, 2, 1, 1])
RNG = np.random.default_rng(0)


def _log_kernel(v):
    return np.log(v) - v


# (module, name, callable, valid keyword arguments, {parameter: kind})
ROWS = [
    ("gibbs", "DirichletMultinomial", gibbs.DirichletMultinomial, dict(sigma=-1.0, H=5),
     {"sigma": "real", "H": "count"}),
    ("gibbs", "DirichletProcess", gibbs.DirichletProcess, dict(alpha=2.0), {"alpha": "real"}),
    ("gibbs", "AldousPitman", gibbs.AldousPitman, dict(gamma=1.5), {"gamma": "real"}),
    ("gibbs", "log_V", gibbs.log_V, dict(model=AP, n=10, k=3),
     {"n": "count", "k": "count"}),
    ("gibbs", "predictive", gibbs.predictive, dict(model=DM, n=5, k=2, abundances=[3, 2]),
     {"n": "count", "k": "count", "abundances[0]": "count"}),
    ("gibbs", "urn_sample", gibbs.urn_sample, dict(model=DP, n_steps=20, rng_seed=1),
     {"n_steps": "count", "rng_seed": "count"}),
    ("gibbs", "prior_Kn_pmf", gibbs.prior_Kn_pmf, dict(model=AP, n=12), {"n": "count"}),
    ("gibbs", "posterior_Km_pmf", gibbs.posterior_Km_pmf,
     dict(model=DP, n=10, k=3, m=5, table_cap=100),
     {"n": "count", "k": "count", "m": "count", "table_cap": "count"}),
    ("gibbs", "posterior_Km_pmf", gibbs.posterior_Km_pmf,
     dict(model=AP, n=10, k=3, m=5, table_cap=2, mc_replicates=20, rng_seed=0),
     {"m": "count", "mc_replicates": "count", "rng_seed": "count"}),
    ("gibbs", "rarefaction", gibbs.rarefaction, dict(model=DM, n=20, sizes=[3, 7]),
     {"n": "count", "sizes[0]": "count"}),
    ("gibbs", "extrapolation", gibbs.extrapolation,
     dict(model=AP, n=10, k=3, m=4, replicates=5, rng_seed=0),
     {"n": "count", "k": "count", "m": "count", "replicates": "count", "rng_seed": "count"}),
    ("gibbs", "expected_freq_counts", gibbs.expected_freq_counts,
     dict(model=DP, n=100, r_max=5), {"n": "count", "r_max": "count"}),
    ("estimators", "fisher_alpha", estimators.fisher_alpha, dict(n=50, k=10),
     {"n": "count", "k": "count"}),
    ("estimators", "mle_alpha", estimators.mle_alpha, dict(n=50, k=10),
     {"n": "count", "k": "count"}),
    ("estimators", "classical_rarefaction", estimators.classical_rarefaction,
     dict(data=DATA, sizes=[2, 5]), {"sizes[0]": "count"}),
    ("estimators", "sample_coverage", estimators.sample_coverage, dict(model=DP, n=10, k=3),
     {"n": "count", "k": "count"}),
    ("datamodel", "PartitionData", datamodel.PartitionData.from_abundances,
     dict(counts=[3, 2]), {"counts[0]": "count"}),
    ("datamodel", "PartitionData", datamodel.PartitionData.from_freq_counts,
     dict(freq_counts={2: 1, 1: 2}), {"freq_counts[0]": "count"}),
    ("datamodel", "TaxonomicDataset", datamodel.TaxonomicDataset, dict(levels=2, top={}),
     {"levels": "count"}),
    ("datamodel", "ingest_taxonomy_csv", datamodel.ingest_taxonomy_csv,
     dict(path="{tree}", levels=2), {"levels": "count"}),
    ("datamodel", "stream_to_taxonomy", datamodel.stream_to_taxonomy,
     dict(stream=[("A", "a"), ("A", "b")], levels=2), {"levels": "count"}),
    ("dpinfer", "StirlingGammaSpec", dpinfer.StirlingGammaSpec, dict(a=2.0, b=0.5, n_ref=50),
     {"a": "real", "b": "real", "n_ref": "count"}),
    ("dpinfer", "CoarsenedPosterior", dpinfer.CoarsenedPosterior,
     dict(prior=SG, n=50, k=10, rho=1.0), {"n": "count", "k": "count", "rho": "real"}),
    ("dpinfer", "sg_posterior_sample", dpinfer.sg_posterior_sample,
     dict(post=POST, n_draws=20, rng_seed=0), {"n_draws": "count", "rng_seed": "count"}),
    ("dpinfer", "sg_prior_sample", dpinfer.sg_prior_sample,
     dict(prior=SG, n_draws=20, rng_seed=0), {"n_draws": "count", "rng_seed": "count"}),
    ("dpinfer", "richness_posterior", dpinfer.richness_posterior,
     dict(post=POST, N_hat=500.0, n_draws=20, rng_seed=0),
     {"N_hat": "real", "n_draws": "count", "rng_seed": "count"}),
    ("dpinfer", "diversity_transforms", dpinfer.diversity_transforms,
     dict(alpha_draws=[1.0, 2.0]), {"alpha_draws[0]": "real"}),
    ("dpinfer", "calibration_curve", dpinfer.calibration_curve,
     dict(prior=SG, n=50, k=10, rho_grid=[0.5, 1.0], n_draws=20, rng_seed=0),
     {"n": "count", "k": "count", "rho_grid[0]": "real", "n_draws": "count",
      "rng_seed": "count"}),
    ("apinfer", "APAugmentedState", apinfer.APAugmentedState,
     dict(gamma=1.0, u=1.0, n=5, k=2, rho=1.0),
     {"gamma": "real", "u": "real", "n": "count", "k": "count", "rho": "real"}),
    ("apinfer", "GammaPrior", apinfer.GammaPrior, dict(a=1.0, b=1.0),
     {"a": "real", "b": "real"}),
    ("apinfer", "ap_stick_sample", apinfer.ap_stick_sample,
     dict(gamma=1.0, H_trunc=10, rng_seed=0),
     {"gamma": "real", "H_trunc": "count", "rng_seed": "count"}),
    ("apinfer", "log_augmented_likelihood", apinfer.log_augmented_likelihood,
     dict(state=apinfer.APAugmentedState(1.0, 1.0, 5, 2), abundances=[3, 2]),
     {"abundances[0]": "count"}),
    ("apinfer", "sample_modified_half_normal", apinfer.sample_modified_half_normal,
     dict(rng=RNG, m=3.0, p=0.5, q=0.5), {"m": "real", "p": "real", "q": "real"}),
    ("apinfer", "run_ap_gibbs", apinfer.run_ap_gibbs,
     dict(n=20, k=8, prior=apinfer.GammaPrior(2.0, 1.0), n_draws=5, burn_in=2, rng_seed=0,
          rho=1.0),
     {"n": "count", "k": "count", "n_draws": "count", "burn_in": "count",
      "rng_seed": "count", "rho": "real"}),
    ("apinfer", "iid_two_step_sample", apinfer.iid_two_step_sample,
     dict(n=40, k=12, a_gamma=1.0, b_gamma=1.0, n_draws=10, rng_seed=0, rho=1.0),
     {"n": "count", "k": "count", "a_gamma": "real", "b_gamma": "real",
      "n_draws": "count", "rng_seed": "count", "rho": "real"}),
    ("apinfer", "ap_predictive_sample", apinfer.ap_predictive_sample,
     dict(gamma=1.0, n=5, k=2, abundances=[3, 2], rng=RNG),
     {"gamma": "real", "n": "count", "k": "count", "abundances[0]": "count"}),
    ("apinfer", "py_prior_density", apinfer.py_prior_density, dict(gamma=1.0, theta=0.5),
     {"gamma": "real", "theta": "real"}),
    ("apinfer", "ig_prior_density", apinfer.ig_prior_density, dict(gamma=1.0, beta=0.5),
     {"gamma": "real", "beta": "real"}),
    ("taxo", "LevelModel", taxo.LevelModel, dict(family="dp", diversity=2.0, rho=1.0),
     {"diversity": "real", "rho": "real"}),
    ("taxo", "LevelModel", taxo.LevelModel, dict(family="dm", diversity=5, sigma=-1.0),
     {"diversity": "count", "sigma": "real"}),
    ("taxo", "DPLevelPrior", taxo.DPLevelPrior, dict(sg=SG, rho=1.0), {"rho": "real"}),
    ("taxo", "APLevelPrior", taxo.APLevelPrior,
     dict(hyper_mu=[0.0, 0.0], hyper_sd=10.0, rho=1.0),
     {"hyper_mu[0]": "real", "hyper_sd": "real", "rho": "real"}),
    ("taxo", "TaxonomicModelSpec", taxo.TaxonomicModelSpec.default_three_level,
     dict(rho_species=0.25), {"rho_species": "real"}),
    ("taxo", "MCMCSettings", taxo.MCMCSettings, dict(iters=10, burn_in=2, seed=0, threads=1),
     {"iters": "count", "burn_in": "count", "seed": "count", "threads": "count"}),
    ("taxo", "nested_urn_sample", taxo.nested_urn_sample,
     dict(levels=[taxo.LevelModel("dp", 2.0), taxo.LevelModel("ap", 1.0)], n_steps=30,
          rng_seed=0),
     {"n_steps": "count", "rng_seed": "count"}),
    ("taxo", "branch_stats", taxo.branch_stats, dict(data=_tree(), level=2),
     {"level": "count"}),
    ("draws", "autocorrelation", draws.autocorrelation,
     dict(x=[1.0, 3.0, 2.0, 5.0], lag=1), {"lag": "count"}),
    ("draws", "effective_sample_size", draws.effective_sample_size,
     dict(x=[1.0, 3.0, 2.0, 5.0], max_lag=2), {"max_lag": "count"}),
    ("draws", "log_grid_sample", draws.log_grid_sample,
     dict(log_kernel=_log_kernel, n_draws=10, rng=RNG), {"n_draws": "count"}),
    ("draws", "quantiles", draws.quantiles, dict(values=[1.0, 3.0, 2.0], q=0.5),
     {"q": "real"}),
    ("specfun", "CoefficientTable", specfun.CoefficientTable, dict(sigma=0.5, shift=1.0),
     {"sigma": "real", "shift": "real"}),
    ("specfun", "CoefficientTable", specfun.CoefficientTable(0.5, 1.0).log_row, dict(m=4),
     {"m": "count"}),
    ("specfun", "log_hermite", specfun.log_hermite, dict(order=-3.0, t=1.0),
     {"order": "real", "t": "real"}),
    ("specfun", "hermite_ratios", specfun.hermite_ratios, dict(t=1.0, start=2, stop=9),
     {"t": "real", "start": "count", "stop": "count"}),
]


def _finite(value) -> bool:
    """Every float in value, through containers and attributes, is finite."""
    if isinstance(value, (str, bytes, type(None), np.random.Generator)):
        return True
    if isinstance(value, (int, float, complex, np.number, np.ndarray)):
        return bool(np.all(np.isfinite(value)))
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    if isinstance(value, (list, tuple, set)):
        return all(map(_finite, value))
    slots = [s for cls in type(value).__mro__ for s in getattr(cls, "__slots__", ())]
    attrs = [getattr(value, s) for s in slots if hasattr(value, s)]
    return all(map(_finite, attrs + list(getattr(value, "__dict__", {}).values())))


def _first(kwargs: dict, param: str):
    """The valid value of a parameter, or the first entry (key) of a `name[0]` one."""
    if not param.endswith("[0]"):
        return kwargs[param]
    return next(iter(kwargs[param[:-3]]))


def _substituted(kwargs: dict, param: str, bad) -> dict:
    kwargs = dict(kwargs)
    if not param.endswith("[0]"):
        kwargs[param] = bad
        return kwargs
    param = param[:-3]
    seq = kwargs[param]
    if isinstance(seq, dict):
        first, *rest = seq.items()
        kwargs[param] = {bad: first[1], **dict(rest)}
    else:
        kwargs[param] = [bad, *seq[1:]]
    return kwargs


def _bad_values(kind: str, valid):
    """(bad value, whether it must raise DomainError) pairs of one kind of parameter."""
    if kind == "real":
        return [(bad, False) for bad in REAL_BAD]
    return [(bad, True) for bad in dict.fromkeys((*COUNT_REFUSED, valid + 0.5))] + [(0, False)]


CASES = [pytest.param(fn, kwargs, param, bad, refused, id=f"{name}-{param}={bad!r}")
         for module, name, fn, kwargs, kinds in ROWS
         for param, kind in kinds.items()
         for bad, refused in _bad_values(kind, _first(kwargs, param))]


@pytest.fixture(scope="module")
def tree_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract") / "tree.csv"
    path.write_text(TREE, encoding="utf-8")
    return str(path)


def _resolve(kwargs: dict, tree_csv: str) -> dict:
    return {k: tree_csv if isinstance(v, str) and v == "{tree}" else v
            for k, v in kwargs.items()}


@pytest.mark.parametrize("fn, kwargs", [pytest.param(fn, kwargs, id=name)
                                        for module, name, fn, kwargs, kinds in ROWS])
def test_valid_call_is_finite(fn, kwargs, tree_csv):
    assert _finite(fn(**_resolve(kwargs, tree_csv)))


@pytest.mark.parametrize("fn, kwargs, param, bad, refused", CASES)
def test_bad_value_is_domain_error_or_finite(fn, kwargs, param, bad, refused, tree_csv):
    try:
        result = fn(**_substituted(_resolve(kwargs, tree_csv), param, bad))
    except DomainError:
        return
    assert not refused, result
    assert _finite(result), result


MODULES = sorted(m.name for m in pkgutil.iter_modules(sigmadiv.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_has_a_row_or_an_exemption(name):
    declared = getattr(importlib.import_module(f"sigmadiv.{name}"), "__all__", [])
    rows = {row[1] for row in ROWS if row[0] == name}
    exempt = EXEMPT.get(name, {})
    assert not rows & set(exempt), name
    assert [n for n in declared if n not in rows and n not in exempt] == []
    assert set(rows) | set(exempt) <= set(declared)
