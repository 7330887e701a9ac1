"""Source parameter estimation: particles -> source estimates.

Runs batch mean-shift over the particle positions, merges the converged
seeds into distinct modes, and filters the modes down to source estimates:

* **mass filter** -- the particle weight within twice the bandwidth of the
  mode must exceed ``mode_mass_ratio`` times what a uniform spread would
  put there.  A uniform (ignorant) population produces shallow modes
  everywhere; this is what makes the early time steps report few or noisy
  estimates rather than one estimate per seed.
* **strength filter** -- the mode's local mean strength hypothesis must
  exceed ``min_estimate_strength``.  In source-free regions the surviving
  hypotheses collapse toward zero strength (a reading of pure background is
  best explained by "no source"), so this filter is the main false-positive
  killer; it is also why very weak (4 uCi) sources are the hard case,
  exactly as the paper reports.

Each surviving mode becomes a :class:`SourceEstimate` with position,
strength (local weighted mean) and diagnostic scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter
from typing import List, Optional, Tuple

import numpy as np

from repro.core.clustering import Mode, merge_modes
from repro.core.config import LocalizerConfig
from repro.core.meanshift import (
    mean_shift_modes,
    select_seeds,
    truncated_mean_shift_modes,
)
from repro.core.particles import ParticleSet
from repro.obs.trace import NULL_TRACER, Tracer


@dataclass(frozen=True)
class SourceEstimate:
    """One estimated radiation source."""

    x: float
    y: float
    strength: float
    #: Fraction of total particle weight within 2 * bandwidth of the mode.
    mass: float
    #: mass / (uniform-spread mass for the same disc): > 1 means denser
    #: than noise; the estimator's threshold is config.mode_mass_ratio.
    mass_ratio: float
    #: Number of mean-shift seeds that converged to this mode.
    seed_count: int

    @property
    def position(self) -> Tuple[float, float]:
        return (self.x, self.y)

    def position_array(self) -> np.ndarray:
        return np.array([self.x, self.y])

    def distance_to(self, x: float, y: float) -> float:
        return math.hypot(self.x - x, self.y - y)

    def __str__(self) -> str:
        return (
            f"Estimate(({self.x:.1f}, {self.y:.1f}), {self.strength:.1f} uCi, "
            f"mass={self.mass:.3f}, ratio={self.mass_ratio:.2f})"
        )


def disc_mass(
    particles: ParticleSet,
    x: float,
    y: float,
    radius: float,
    indices: Optional[np.ndarray] = None,
) -> float:
    """Normalized particle weight within ``radius`` of (x, y).

    Pass ``indices`` (a precomputed ``indices_within`` result for the same
    disc) to skip the selection scan -- the estimator shares one query per
    mode between this and :func:`local_strength`.
    """
    total = particles.weights.sum()
    if total <= 0:
        return 0.0
    idx = particles.indices_within(x, y, radius) if indices is None else indices
    return float(particles.weights[idx].sum() / total)


def weighted_median(values: np.ndarray, weights: np.ndarray) -> float:
    """The 50 % weighted quantile of ``values``."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if len(values) == 0:
        raise ValueError("weighted_median of empty values")
    order = np.argsort(values)
    cum = np.cumsum(weights[order])
    total = cum[-1]
    if total <= 0:
        return float(np.median(values))
    return float(values[order][np.searchsorted(cum, 0.5 * total)])


def local_strength(
    particles: ParticleSet,
    x: float,
    y: float,
    radius: float,
    indices: Optional[np.ndarray] = None,
) -> float:
    """Robust local strength hypothesis: the weighted median near (x, y).

    The median, not the mean: the resampler continuously injects fresh
    random particles whose strengths are drawn from the full (log-uniform)
    hypothesis range, and a mean would let a handful of those contaminants
    drag a collapsed (no-source) region back above the strength filter.

    As with :func:`disc_mass`, ``indices`` short-circuits the disc scan.
    """
    idx = particles.indices_within(x, y, radius) if indices is None else indices
    if len(idx) == 0:
        return 0.0
    return weighted_median(particles.strengths[idx], particles.weights[idx])


def extract_estimates(
    particles: ParticleSet,
    config: LocalizerConfig,
    rng: Optional[np.random.Generator] = None,
    tracer: Optional[Tracer] = None,
    backend=None,
) -> List[SourceEstimate]:
    """The full Section V-D step: mean-shift, merge, filter, estimate.

    Never needs (or produces) an assumed number of sources: every mode
    that survives the mass and strength filters is one estimated source.

    The mean-shift sweep runs on one of three kernels, chosen here and
    nowhere else (see docs/PERFORMANCE.md).  Populations below the
    truncation gate, or any population with truncation off, run the
    dense reference sweep.  Above the gate, an accelerated array
    ``backend`` (:mod:`repro.core.backend`) runs its padded-SoA sweep
    (tolerance parity); otherwise the grid-based truncated kernel runs
    (a tight approximation).  ``backend=None`` resolves one from
    ``config.backend``; the localizer passes its own instance so scratch
    buffers persist across calls.

    With an enabled ``tracer``, one ``extract`` event is emitted carrying
    seed / sweep / mode counts, the kernel that ran (``path``: ``dense``,
    ``truncated`` or ``backend:<name>``), and per-phase wall-clock
    seconds (``seed``, ``shift``, ``merge``, ``filter``).
    """
    tracer = NULL_TRACER if tracer is None else tracer
    traced = tracer.enabled
    if backend is None:
        from repro.core.backend import get_backend

        backend = get_backend(config.backend)
    positions = particles.positions
    weights = particles.weights
    if weights.sum() <= 0:
        return []

    if traced:
        phases = {}
        t_start = t_prev = perf_counter()
        shift_stats: Optional[dict] = {}
    else:
        shift_stats = None
    seeds = select_seeds(positions, weights, config.meanshift_seeds, rng)
    if traced:
        t_now = perf_counter()
        phases["seed"] = t_now - t_prev
        t_prev = t_now
    n = len(particles)
    use_truncated = (
        config.meanshift_truncation_sigmas > 0
        and n >= config.meanshift_truncation_min_particles
    )
    if not use_truncated:
        path = "dense"
        converged, _densities = mean_shift_modes(
            seeds,
            positions,
            weights,
            bandwidth=config.bandwidth,
            tol=config.meanshift_tol,
            max_iter=config.meanshift_max_iter,
            stats=shift_stats,
        )
    elif backend.accelerated:
        path = f"backend:{backend.name}"
        converged, _densities = backend.meanshift_modes(
            particles, seeds, config, stats=shift_stats
        )
    else:
        path = "truncated"
        converged, _densities = truncated_mean_shift_modes(
            seeds,
            positions,
            weights,
            bandwidth=config.bandwidth,
            grid=particles.grid(config.grid_cell()),
            truncation_sigmas=config.meanshift_truncation_sigmas,
            tol=config.meanshift_tol,
            max_iter=config.meanshift_max_iter,
            stats=shift_stats,
        )
    if traced:
        t_now = perf_counter()
        phases["shift"] = t_now - t_prev
        t_prev = t_now
    modes: List[Mode] = merge_modes(converged, _densities, config.mode_merge_radius)
    if traced:
        t_now = perf_counter()
        phases["merge"] = t_now - t_prev
        t_prev = t_now

    area = config.area[0] * config.area[1]
    # One bandwidth, not more: a converged cluster is bandwidth-tight, and
    # a wider support disc dilutes its mass ratio toward the uniform
    # baseline, which is exactly the contrast the threshold needs.
    support_radius = config.bandwidth
    uniform_mass = min(1.0, math.pi * support_radius**2 / area)

    # One exact disc query per mode, shared by the mass and strength
    # filters.  When the truncated sweep (reference or backend) already
    # built the grid for its gathers, the queries reuse it; otherwise they
    # are the brute-force scan.  Identical index sets either way.
    if use_truncated:
        support_sets = [
            particles.indices_within_grid(
                mode.x, mode.y, support_radius, config.grid_cell()
            )
            for mode in modes
        ]
    else:
        support_sets = [
            particles.indices_within(mode.x, mode.y, support_radius)
            for mode in modes
        ]

    estimates: List[SourceEstimate] = []
    # Hoisted out of disc_mass: one O(N) total-weight sum shared by every
    # mode (the per-mode expression below is op-for-op disc_mass).
    total_w = particles.weights.sum()
    for mode, support_idx in zip(modes, support_sets):
        mass = (
            float(particles.weights[support_idx].sum() / total_w)
            if total_w > 0
            else 0.0
        )
        ratio = mass / uniform_mass if uniform_mass > 0 else 0.0
        if ratio < config.mode_mass_ratio:
            continue
        strength = local_strength(
            particles, mode.x, mode.y, support_radius, indices=support_idx
        )
        if strength < config.min_estimate_strength:
            continue
        estimates.append(
            SourceEstimate(
                x=float(np.clip(mode.x, 0.0, config.area[0])),
                y=float(np.clip(mode.y, 0.0, config.area[1])),
                strength=strength,
                mass=mass,
                mass_ratio=ratio,
                seed_count=mode.seed_count,
            )
        )
    if traced:
        t_end = perf_counter()
        phases["filter"] = t_end - t_prev
        tracer.emit(
            "extract",
            n_seeds=int(shift_stats.get("n_seeds", len(seeds))),
            meanshift_sweeps=int(shift_stats.get("sweeps", 0)),
            n_modes=len(modes),
            n_estimates=len(estimates),
            path=path,
            phases=phases,
            total_seconds=t_end - t_start,
        )
    return estimates
