"""Localizer configuration.

All tunables of the algorithm live here, with the paper's evaluation
defaults.  The dataclass validates itself on construction so that a bad
sweep value fails loudly at setup time rather than as a numerics mystery
mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple


@dataclass(frozen=True)
class LocalizerConfig:
    """Tunable parameters of the particle-filter + mean-shift localizer.

    Defaults follow Section VI of the paper where stated (sigma_N = 3.0,
    ~5 % random injection, 3000 particles at Scenario-A scale) and this
    reproduction's calibrations elsewhere (fusion range 24, likelihood
    tempering 0.25, local injection -- see DESIGN.md section 5 for why
    each deviates from a literal reading of the paper).
    """

    # --- particle population -------------------------------------------------
    n_particles: int = 3000
    #: Strength hypothesis range (uCi); the paper's sources span 4-1000.
    strength_min: float = 1.0
    strength_max: float = 1000.0
    #: "log" draws initial strengths log-uniformly (sane for a 3-decade
    #: range); "uniform" matches a literal reading of the paper.
    strength_init: str = "log"

    # --- fusion range ---------------------------------------------------------
    #: Fusion range d_i (length units).  The paper quotes 28 for its
    #: 20-spaced grid; with this reproduction's sensor-efficiency
    #: calibration the accuracy/robustness optimum sits at 24 (the
    #: fusion-range ablation benchmark sweeps the trade-off: small d
    #: misses sources, large d lets a disc spanning two clusters feed one
    #: cluster to the other).  Ignored if the localizer is given an
    #: explicit policy.
    fusion_range: float = 24.0

    # --- weighting -------------------------------------------------------------
    #: Background rate (CPM) the localizer *assumes* at every sensor.  The
    #: paper calibrates sensors, so this matches the simulated background
    #: unless a robustness experiment deliberately mis-specifies it.
    assumed_background_cpm: float = 5.0
    #: Assumed sensor counting efficiency E_i.
    assumed_efficiency: float = 1.0
    #: Asymmetric-likelihood knob in [0, 1] (see
    #: :func:`repro.core.weighting.tempered_poisson_log_likelihood`):
    #: under-prediction of a reading -- explainable by *other* sources --
    #: is penalized at this fraction of the full Poisson log-likelihood.
    #: 1.0 is the symmetric (single-source-naive) likelihood, under which
    #: the strongest source's cluster slowly absorbs the population.
    under_prediction_tempering: float = 0.25
    #: When True, each particle's expected rate additionally includes the
    #: predicted contribution of current source estimates *outside the
    #: reporting sensor's fusion disc*.  Ablation option: it reduces echo
    #: false positives but the hard inclusion boundary erodes genuine
    #: clusters near it, so the default FP control is the report-time
    #: echo filter below instead.
    interference_subtraction: bool = False
    #: Refresh cadence (iterations) of the estimate set used for
    #: interference subtraction; estimation costs a mean-shift pass, so it
    #: is not recomputed on every measurement.
    interference_refresh: int = 25
    #: Report-time explain-away filter: a candidate estimate is reported
    #: only if, at one of the sensors near it, at least this fraction of
    #: its own predicted excess is *not* already explained by stronger
    #: accepted estimates.  Sensors 30-60 units from a strong source read
    #: a real excess whose origin lies outside their fusion disc; that
    #: excess breeds phantom "echo" clusters, and this filter is what
    #: keeps them out of the reported estimates.  Set to 0 to disable.
    echo_residual_fraction: float = 0.35
    #: Radius around a candidate within which sensors vouch for it; None
    #: uses the fusion range.
    echo_sensor_radius: float | None = None
    #: The vouching sensor's unexplained excess must also exceed this many
    #: Poisson standard deviations of the assumed background.  Without an
    #: absolute floor, a weak candidate's tiny predicted excess makes any
    #: 1-2 count background fluctuation look like full support, letting
    #: low-strength corner ghosts flicker into the reports.
    echo_noise_sigmas: float = 2.0

    # --- resampling -------------------------------------------------------------
    #: Std-dev of the zero-mean Gaussian position jitter on duplicated
    #: particles (the paper's sigma_N).
    resample_noise_sigma: float = 3.0
    #: Relative log-normal jitter applied to duplicated strengths.
    strength_noise_rel: float = 0.15
    #: Fraction of resampled slots replaced by fresh random particles
    #: (the paper's ~5 % provision for new sources).
    injection_fraction: float = 0.05
    #: Resampling can be confined to particles within
    #: ``resample_range_fraction * d_i`` of the reporting sensor while
    #: weighting uses the full fusion range.  1.0 (default) resamples the
    #: whole disc, per the paper; fractions below 1 are an ablation knob
    #: (they slow cross-cluster particle theft but let unresampled
    #: annulus weights accumulate, destabilizing the density estimates).
    resample_range_fraction: float = 1.0
    #: "local" injects fresh particles within the reporting sensor's
    #: fusion disc; "global" injects anywhere in the area (a literal
    #: reading of the paper).  Local is the default because global
    #: injection drains particle mass from regions covered by many sensor
    #: discs toward the dominant source (each disc resample leaks its
    #: injection fraction), starving subordinate clusters.  New-source
    #: detection is preserved: every point of a covered area lies in some
    #: sensor's disc, so fresh hypotheses still reach it.
    injection_scope: str = "local"
    #: "reset" restores the touched subset's weight mass to the global mean
    #: after resampling (density carries the memory; supports many sources);
    #: "preserve" keeps the subset's likelihood-deflated mass (ablation).
    resample_weight_mode: str = "reset"

    # --- mean-shift estimation ---------------------------------------------------
    #: Gaussian kernel bandwidth (length units) for position mean-shift.
    bandwidth: float = 8.0
    #: Number of mean-shift seed points (drawn from the particles).
    meanshift_seeds: int = 96
    #: Convergence tolerance (length units) and iteration cap.
    meanshift_tol: float = 1e-2
    meanshift_max_iter: int = 100
    #: Modes closer than this are merged into one estimate.
    mode_merge_radius: float = 6.0
    #: A mode counts as a source only if the particle weight within 2x the
    #: bandwidth of it exceeds this multiple of what a *uniform* particle
    #: spread would put there.  Scale-free across area sizes: 1.0 means
    #: "no denser than noise", higher demands a real cluster.  The mass is
    #: measured over one bandwidth around the mode, where converged
    #: clusters sit an order of magnitude above the uniform baseline, so
    #: 2.0 passes even weak-source clusters while rejecting noise bumps.
    mode_mass_ratio: float = 2.0
    #: Estimates whose strength hypothesis falls below this (uCi) are
    #: treated as background artifacts and dropped.
    min_estimate_strength: float = 1.5

    # --- sensor integrity --------------------------------------------------------
    # Credibility scoring and quarantine for suspect sensors (spoofed /
    # stuck / drifting counts); see repro.core.integrity and
    # docs/ROBUSTNESS.md.  Disabled by default: scoring consults
    # ``estimates()`` mid-iteration, which consumes filter RNG, so
    # enabling it changes the RNG stream (fault-free *results* stay
    # statistically equivalent, but not bitwise).
    #: Master switch for the SensorCredibility layer.
    integrity_enabled: bool = False
    #: Surprise EMA (in Poisson sigmas) above which an active sensor's
    #: likelihood is tempered below full strength.
    integrity_soft_sigma: float = 4.0
    #: Surprise EMA at which a sensor is quarantined outright (its
    #: readings are skipped entirely until re-admission).
    integrity_hard_sigma: float = 8.0
    #: Smoothing factor of the per-sensor surprise EMA; higher reacts
    #: faster to an attack, lower rides out honest Poisson flukes.
    integrity_ema_alpha: float = 0.25
    #: Readings per sensor before the state machine may act -- early
    #: estimates are too unsettled to call anything surprising.
    integrity_min_observations: int = 5
    #: Calm readings required in probation before full re-admission.
    integrity_probation_readings: int = 8
    #: Credibility weight applied to a probation sensor's likelihood.
    integrity_probation_weight: float = 0.5
    #: Floor of the active-sensor down-weighting ramp (soft -> hard sigma
    #: maps weight 1.0 -> this).
    integrity_min_weight: float = 0.1
    #: Leave-local-out radius: estimates within this distance of the
    #: scored sensor are excluded from its predicted rate, so a phantom
    #: estimate bred by a spoofed sensor cannot vouch for the spoof.
    integrity_exclusion_radius: float = 12.0
    #: Refresh cadence (readings) of the estimate set used as the
    #: credibility reference (an estimates() call per refresh).
    integrity_refresh: int = 25

    # --- compute fast path -------------------------------------------------------
    # Every knob below selects between a reference implementation and an
    # accelerated one; the defaults enable the fast paths.  Estimate
    # caching is *exact* (bit-identical results); kernel truncation is a
    # tight approximation gated on population size.  Disc selection is
    # always the one brute-force scan of Eq. 5.  See docs/PERFORMANCE.md.
    #: Cache the mean-shift extraction keyed on the particle revision, so
    #: repeated ``estimates()`` calls on an unmutated population (the
    #: interference refresh, per-step diagnostics) reuse the result.
    estimate_cache: bool = True
    #: Truncate the mean-shift Gaussian kernel at this many bandwidths:
    #: each ascent step gathers only grid-local particles instead of the
    #: full population.  At 4 sigma the discarded kernel mass is < 3.4e-4
    #: relative, so modes match the dense sweep to well under the merge
    #: radius.  0 disables truncation (always dense).
    meanshift_truncation_sigmas: float = 4.0
    #: Populations smaller than this use the dense mean-shift even when
    #: truncation is enabled (the gather bookkeeping only pays off once
    #: the kernel matrix is large).
    meanshift_truncation_min_particles: int = 4096
    #: Array backend for the hot kernels (see repro.core.backend):
    #: "default" (float64 reference, bitwise parity) or "fast" (float32
    #: SoA scratch-buffer kernels, tolerance parity).  None consults the
    #: REPRO_BACKEND environment variable and falls back to "default";
    #: the CLI --backend flag overwrites this field.
    backend: str | None = None

    # --- area ----------------------------------------------------------------
    #: Surveillance area (width, height); particles live in [0,w] x [0,h].
    area: Tuple[float, float] = (100.0, 100.0)

    def __post_init__(self) -> None:
        if self.n_particles < 1:
            raise ValueError(f"n_particles must be >= 1, got {self.n_particles}")
        if not (0 < self.strength_min <= self.strength_max):
            raise ValueError(
                f"need 0 < strength_min <= strength_max, got "
                f"[{self.strength_min}, {self.strength_max}]"
            )
        if self.strength_init not in ("log", "uniform"):
            raise ValueError(f"strength_init must be 'log' or 'uniform', got {self.strength_init!r}")
        if self.fusion_range <= 0:
            raise ValueError(f"fusion_range must be positive, got {self.fusion_range}")
        if self.assumed_background_cpm < 0:
            raise ValueError(
                f"assumed_background_cpm must be non-negative, got {self.assumed_background_cpm}"
            )
        if self.assumed_efficiency <= 0:
            raise ValueError(
                f"assumed_efficiency must be positive, got {self.assumed_efficiency}"
            )
        if not 0.0 <= self.under_prediction_tempering <= 1.0:
            raise ValueError(
                f"under_prediction_tempering must be in [0, 1], "
                f"got {self.under_prediction_tempering}"
            )
        if self.interference_refresh < 1:
            raise ValueError(
                f"interference_refresh must be >= 1, got {self.interference_refresh}"
            )
        if not 0.0 <= self.echo_residual_fraction <= 1.0:
            raise ValueError(
                f"echo_residual_fraction must be in [0, 1], "
                f"got {self.echo_residual_fraction}"
            )
        if self.echo_sensor_radius is not None and self.echo_sensor_radius <= 0:
            raise ValueError(
                f"echo_sensor_radius must be positive, got {self.echo_sensor_radius}"
            )
        if self.echo_noise_sigmas < 0:
            raise ValueError(
                f"echo_noise_sigmas must be non-negative, got {self.echo_noise_sigmas}"
            )
        if not 0.0 < self.integrity_soft_sigma < self.integrity_hard_sigma:
            raise ValueError(
                f"need 0 < integrity_soft_sigma < integrity_hard_sigma, got "
                f"[{self.integrity_soft_sigma}, {self.integrity_hard_sigma}]"
            )
        if not 0.0 < self.integrity_ema_alpha <= 1.0:
            raise ValueError(
                f"integrity_ema_alpha must be in (0, 1], got {self.integrity_ema_alpha}"
            )
        if self.integrity_min_observations < 1:
            raise ValueError(
                f"integrity_min_observations must be >= 1, "
                f"got {self.integrity_min_observations}"
            )
        if self.integrity_probation_readings < 1:
            raise ValueError(
                f"integrity_probation_readings must be >= 1, "
                f"got {self.integrity_probation_readings}"
            )
        if not 0.0 < self.integrity_probation_weight <= 1.0:
            raise ValueError(
                f"integrity_probation_weight must be in (0, 1], "
                f"got {self.integrity_probation_weight}"
            )
        if not 0.0 <= self.integrity_min_weight < 1.0:
            raise ValueError(
                f"integrity_min_weight must be in [0, 1), "
                f"got {self.integrity_min_weight}"
            )
        if self.integrity_exclusion_radius <= 0:
            raise ValueError(
                f"integrity_exclusion_radius must be positive, "
                f"got {self.integrity_exclusion_radius}"
            )
        if self.integrity_refresh < 1:
            raise ValueError(
                f"integrity_refresh must be >= 1, got {self.integrity_refresh}"
            )
        if self.resample_noise_sigma < 0:
            raise ValueError(
                f"resample_noise_sigma must be non-negative, got {self.resample_noise_sigma}"
            )
        if self.strength_noise_rel < 0:
            raise ValueError(
                f"strength_noise_rel must be non-negative, got {self.strength_noise_rel}"
            )
        if not 0.0 < self.resample_range_fraction <= 1.0:
            raise ValueError(
                f"resample_range_fraction must be in (0, 1], "
                f"got {self.resample_range_fraction}"
            )
        if not 0.0 <= self.injection_fraction < 1.0:
            raise ValueError(
                f"injection_fraction must be in [0, 1), got {self.injection_fraction}"
            )
        if self.injection_scope not in ("global", "local"):
            raise ValueError(
                f"injection_scope must be 'global' or 'local', got {self.injection_scope!r}"
            )
        if self.resample_weight_mode not in ("reset", "preserve"):
            raise ValueError(
                f"resample_weight_mode must be 'reset' or 'preserve', "
                f"got {self.resample_weight_mode!r}"
            )
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.meanshift_seeds < 1:
            raise ValueError(f"meanshift_seeds must be >= 1, got {self.meanshift_seeds}")
        if self.meanshift_tol <= 0:
            raise ValueError(f"meanshift_tol must be positive, got {self.meanshift_tol}")
        if self.meanshift_max_iter < 1:
            raise ValueError(
                f"meanshift_max_iter must be >= 1, got {self.meanshift_max_iter}"
            )
        if self.mode_merge_radius < 0:
            raise ValueError(
                f"mode_merge_radius must be non-negative, got {self.mode_merge_radius}"
            )
        if self.mode_mass_ratio < 0:
            raise ValueError(
                f"mode_mass_ratio must be non-negative, got {self.mode_mass_ratio}"
            )
        if self.min_estimate_strength < 0:
            raise ValueError(
                f"min_estimate_strength must be non-negative, got {self.min_estimate_strength}"
            )
        if self.area[0] <= 0 or self.area[1] <= 0:
            raise ValueError(f"area must be positive, got {self.area}")
        if self.meanshift_truncation_sigmas < 0:
            raise ValueError(
                f"meanshift_truncation_sigmas must be non-negative, "
                f"got {self.meanshift_truncation_sigmas}"
            )
        if self.meanshift_truncation_min_particles < 0:
            raise ValueError(
                f"meanshift_truncation_min_particles must be non-negative, "
                f"got {self.meanshift_truncation_min_particles}"
            )
        if self.backend is not None and self.backend not in ("default", "fast"):
            raise ValueError(
                f"backend must be None, 'default' or 'fast', got {self.backend!r}"
            )

    def grid_cell(self) -> float:
        """The truncated mean-shift's grid cell size: ``fusion_range / 2``."""
        return 0.5 * self.fusion_range

    def with_overrides(self, **kwargs) -> "LocalizerConfig":
        """A copy with the given fields replaced (validated again)."""
        return replace(self, **kwargs)

    def without_fast_paths(self) -> "LocalizerConfig":
        """A copy running only the reference implementations.

        Disables estimate caching and kernel truncation, and pins the
        array backend to the float64 reference (an explicit "default"
        here also shields the reference runs from a stray REPRO_BACKEND
        environment override) -- the configuration every fast path is
        parity-tested against (and the baseline of ``bench_fastpath``).
        """
        return replace(
            self,
            estimate_cache=False,
            meanshift_truncation_sigmas=0.0,
            backend="default",
        )
