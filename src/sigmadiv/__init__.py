"""Bayesian nonparametric biodiversity inference with Gibbs-type priors.

Every command executes `errors`, `datamodel` and `specfun`, so they load with the
package.  The other six layers are registered in `sys.modules` and as attributes
here, but a layer's source is compiled and executed on its first attribute access
(`importlib.util.LazyLoader`), and the package's public names resolve through
`_EXPORTS` on first use (PEP 562).  So a command compiles only the layers it calls.
A layer compiled after `numpy.random` has loaded raises a command's peak RSS, so
each command reaches its layers before it draws; a lazy `specfun` would not
(`simulate --family ap` first reads it mid-urn).
"""

import importlib.util as _util
import os as _os
import sys as _sys

# numpy's OpenBLAS starts an idle worker that spins 2^28 cycles before it sleeps,
# ~60 ms of CPU in every short process; load it with the shortest timeout, 2^4
if "numpy" not in _sys.modules and not _os.environ.keys() & {"OPENBLAS_THREAD_TIMEOUT",
                                                             "GOTO_THREAD_TIMEOUT"}:
    _os.environ["OPENBLAS_THREAD_TIMEOUT"] = "4"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_THREAD_TIMEOUT"]

from . import datamodel, errors, specfun


def _lazy(name: str):
    """sigmadiv.<name>, registered in sys.modules but executed on first attribute access."""
    spec = _util.find_spec(f"{__name__}.{name}")
    spec.loader = _util.LazyLoader(spec.loader)
    module = _sys.modules[spec.name] = _util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gibbs, estimators, draws, dpinfer, apinfer, taxo = map(
    _lazy, ("gibbs", "estimators", "draws", "dpinfer", "apinfer", "taxo"))

# public name -> the layer that defines it
_EXPORTS = {name: module for module, names in (
    ("datamodel", "PartitionData TaxonomicDataset accumulate ingest_abundance_csv "
                  "ingest_taxonomy_csv stream_to_partition stream_to_taxonomy"),
    ("gibbs", "AldousPitman Curve DirichletMultinomial DirichletProcess DiversityIndices "
              "GibbsModel PredictiveSplit diversity_indices expected_freq_counts "
              "extrapolation log_V log_eppf posterior_Km_pmf predictive prior_Kn_pmf "
              "rarefaction taxon_counts urn_sample"),
    ("estimators", "AlphaEstimate classical_rarefaction fisher_alpha mle_alpha "
                   "sample_coverage"),
    ("dpinfer", "CoarsenedPosterior RichnessPrediction StirlingGammaSpec calibration_curve "
                "diversity_transforms richness_posterior sg_posterior_sample "
                "sg_prior_sample"),
    ("apinfer", "APAugmentedState APWeights GammaPrior ap_predictive_sample ap_stick_sample "
                "gibbs_sweep ig_prior_density iid_two_step_sample log_augmented_likelihood "
                "py_prior_density run_ap_gibbs"),
    ("taxo", "APLevelPrior BranchSufficientStats DPLevelPrior LevelModel MCMCSettings "
             "TaxonomicFit TaxonomicModelSpec branch_summaries fit_taxonomic "
             "log_taxonomic_likelihood nested_urn_sample"),
    ("draws", "PosteriorDraws"),
) for name in names.split()}

__all__ = sorted(_EXPORTS.keys() | {"errors", "datamodel", "specfun", "gibbs", "estimators",
                                    "draws", "dpinfer", "apinfer", "taxo"})


def __getattr__(name: str):
    # read from the layer on every access, so a rebound function is seen here too
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[module], name)


def __dir__():
    return sorted(globals().keys() | _EXPORTS.keys())


__version__ = "0.1.0"
