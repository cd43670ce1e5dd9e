"""Bayesian nonparametric biodiversity inference with Gibbs-type priors."""

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

from .datamodel import (PartitionData, TaxonomicDataset, accumulate,
                        ingest_abundance_csv, ingest_taxonomy_csv,
                        stream_to_partition, stream_to_taxonomy)
from .gibbs import (AldousPitman, Curve, DirichletMultinomial, DirichletProcess,
                    DiversityIndices, GibbsModel, PredictiveSplit, diversity_indices,
                    expected_freq_counts, extrapolation, log_V, log_eppf,
                    posterior_Km_pmf, predictive, prior_Kn_pmf, rarefaction, taxon_counts,
                    urn_sample)
from .estimators import (AlphaEstimate, classical_rarefaction, fisher_alpha, mle_alpha,
                         sample_coverage)
from .dpinfer import (CoarsenedPosterior, RichnessPrediction, StirlingGammaSpec,
                      calibration_curve, diversity_transforms, richness_posterior,
                      sg_posterior_sample, sg_prior_sample)
from .apinfer import (APAugmentedState, APWeights, GammaPrior, ap_predictive_sample,
                      ap_stick_sample, gibbs_sweep, ig_prior_density,
                      iid_two_step_sample, log_augmented_likelihood, py_prior_density,
                      run_ap_gibbs)
from .taxo import (APLevelPrior, BranchSufficientStats, DPLevelPrior, LevelModel,
                   MCMCSettings, TaxonomicFit, TaxonomicModelSpec, branch_summaries,
                   fit_taxonomic, log_taxonomic_likelihood, nested_urn_sample)
from .draws import PosteriorDraws

__version__ = "0.1.0"
