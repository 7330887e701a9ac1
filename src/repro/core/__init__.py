"""The paper's core contribution: particle filter + mean-shift localization.

The pipeline, per Fig. 1 of the paper, processes **one measurement per
iteration** with no ordering requirement:

1. *Selection* (fusion range): only particles within ``d_i`` of the
   reporting sensor are touched (:mod:`repro.core.fusion`).
2. *Prediction*: sources are static, so prediction is the identity (a
   movement model hook exists for the tracking extension).
3. *Weighting*: the Poisson likelihood of the observed count under each
   particle's single-source hypothesis multiplies its weight
   (:mod:`repro.core.weighting`).
4. *Estimation*: mean-shift over the weighted particles finds every density
   mode; each surviving mode is one source estimate, so the number of
   sources K is never an input (:mod:`repro.core.meanshift`,
   :mod:`repro.core.clustering`, :mod:`repro.core.estimator`).
5. *Resampling*: only the touched particles are resampled, with Gaussian
   jitter on duplicates and a small random-injection fraction for new
   sources (:mod:`repro.core.resampling`).

:class:`repro.core.MultiSourceLocalizer` ties the steps together.
"""

from repro.core.backend import (
    ArrayBackend,
    FastNumpyBackend,
    NumpyBackend,
    ScratchPool,
    available_backends,
    get_backend,
    resolve_backend_name,
)
from repro.core.config import LocalizerConfig
from repro.core.grid import SpatialGridIndex
from repro.core.particles import ParticleSet
from repro.core.fusion import (
    FusionRangePolicy,
    FixedFusionRange,
    AutoFusionRange,
    InfiniteFusionRange,
)
from repro.core.weighting import poisson_log_pmf, reweight_in_place
from repro.core.meanshift import (
    mean_shift,
    mean_shift_modes,
    truncated_mean_shift_modes,
)
from repro.core.clustering import merge_modes, Mode
from repro.core.estimator import SourceEstimate, extract_estimates
from repro.core.resampling import resample_subset
from repro.core.localizer import MultiSourceLocalizer
from repro.core.movement import DriftModel, RandomWalkModel, StaticModel
from repro.core.diagnostics import (
    ClusterSupport,
    ConvergenceMonitor,
    PopulationHealth,
    cluster_report,
    population_health,
)

__all__ = [
    "ArrayBackend",
    "FastNumpyBackend",
    "NumpyBackend",
    "ScratchPool",
    "available_backends",
    "get_backend",
    "resolve_backend_name",
    "LocalizerConfig",
    "ParticleSet",
    "FusionRangePolicy",
    "FixedFusionRange",
    "AutoFusionRange",
    "InfiniteFusionRange",
    "SpatialGridIndex",
    "poisson_log_pmf",
    "reweight_in_place",
    "mean_shift",
    "mean_shift_modes",
    "truncated_mean_shift_modes",
    "merge_modes",
    "Mode",
    "SourceEstimate",
    "extract_estimates",
    "resample_subset",
    "MultiSourceLocalizer",
    "StaticModel",
    "RandomWalkModel",
    "DriftModel",
    "ClusterSupport",
    "ConvergenceMonitor",
    "PopulationHealth",
    "cluster_report",
    "population_health",
]
