"""Runtime diagnostics for the localizer.

Operational deployments need more than estimates: when has the filter
*converged*, is the population healthy, and how much of it backs each
reported source?  This module computes those signals from a localizer
without touching its state.

* :func:`population_health` -- ESS, spatial spread, strength statistics.
* :class:`ConvergenceMonitor` -- declares convergence when the estimate
  set has been stable (same cardinality, positions within a tolerance)
  for a configurable number of checks; this is the "when can the response
  team move" signal.
* :func:`cluster_report` -- per-estimate support: particle count, weight
  mass, and local strength inter-quartile range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.estimator import SourceEstimate
from repro.core.localizer import MultiSourceLocalizer


@dataclass(frozen=True)
class PopulationHealth:
    """Summary statistics of the particle population."""

    n_particles: int
    effective_sample_size: float
    #: ESS / N in (0, 1]: near zero means weight degeneracy.
    ess_fraction: float
    #: RMS distance of particles from their mean position (spread).
    spatial_spread: float
    strength_median: float
    strength_iqr: float


def population_health(localizer: MultiSourceLocalizer) -> PopulationHealth:
    """Snapshot health metrics of the localizer's population."""
    particles = localizer.particles
    ess = particles.effective_sample_size()
    mean_x = float(particles.xs.mean())
    mean_y = float(particles.ys.mean())
    spread = float(
        np.sqrt(np.mean((particles.xs - mean_x) ** 2 + (particles.ys - mean_y) ** 2))
    )
    q25, q50, q75 = np.percentile(particles.strengths, [25, 50, 75])
    return PopulationHealth(
        n_particles=len(particles),
        effective_sample_size=ess,
        ess_fraction=ess / len(particles),
        spatial_spread=spread,
        strength_median=float(q50),
        strength_iqr=float(q75 - q25),
    )


@dataclass(frozen=True)
class ClusterSupport:
    """How much of the population backs one reported estimate."""

    estimate: SourceEstimate
    particle_count: int
    weight_mass: float
    strength_iqr: float


def cluster_report(
    localizer: MultiSourceLocalizer,
    estimates: Optional[Sequence[SourceEstimate]] = None,
    radius: Optional[float] = None,
) -> List[ClusterSupport]:
    """Per-estimate support statistics.

    ``radius`` defaults to the mean-shift bandwidth.  A confident report
    has a large particle count, a weight mass well above the uniform
    share, and a tight strength IQR.
    """
    if estimates is None:
        estimates = localizer.estimates()
    if radius is None:
        radius = localizer.config.bandwidth
    particles = localizer.particles
    total = particles.weights.sum()
    out: List[ClusterSupport] = []
    for estimate in estimates:
        idx = particles.indices_within(estimate.x, estimate.y, radius)
        mass = float(particles.weights[idx].sum() / total) if total > 0 else 0.0
        if len(idx) > 0:
            q25, q75 = np.percentile(particles.strengths[idx], [25, 75])
            iqr = float(q75 - q25)
        else:
            iqr = float("nan")
        out.append(
            ClusterSupport(
                estimate=estimate,
                particle_count=len(idx),
                weight_mass=mass,
                strength_iqr=iqr,
            )
        )
    return out


class ConvergenceMonitor:
    """Declares convergence from estimate-set stability.

    Feed it the estimate list after each time step; it reports converged
    once the set's cardinality is unchanged and every estimate moved less
    than ``position_tolerance`` since the previous check, for
    ``stable_checks`` consecutive checks.
    """

    def __init__(self, position_tolerance: float = 3.0, stable_checks: int = 3):
        if position_tolerance <= 0:
            raise ValueError(
                f"position tolerance must be positive, got {position_tolerance}"
            )
        if stable_checks < 1:
            raise ValueError(f"stable_checks must be >= 1, got {stable_checks}")
        self.position_tolerance = float(position_tolerance)
        self.stable_checks = stable_checks
        self._previous: Optional[List[SourceEstimate]] = None
        self._stable_count = 0
        #: Check index (0-based) at which convergence was first declared.
        self.converged_at: Optional[int] = None
        self._checks = 0

    def update(self, estimates: Sequence[SourceEstimate]) -> bool:
        """Record one check; returns True once converged."""
        estimates = list(estimates)
        stable = False
        if self._previous is not None and len(estimates) == len(self._previous):
            if len(estimates) == 0:
                # An empty set is only "stable" once sources were never
                # seen; do not declare convergence on nothing.
                stable = False
            else:
                moved = []
                remaining = list(self._previous)
                for estimate in estimates:
                    best = min(
                        remaining,
                        key=lambda p: p.distance_to(estimate.x, estimate.y),
                    )
                    moved.append(best.distance_to(estimate.x, estimate.y))
                    remaining.remove(best)
                stable = max(moved) < self.position_tolerance
        self._stable_count = self._stable_count + 1 if stable else 0
        self._previous = estimates
        if (
            self.converged_at is None
            and self._stable_count >= self.stable_checks
        ):
            self.converged_at = self._checks
        self._checks += 1
        return self.converged_at is not None

    @property
    def converged(self) -> bool:
        return self.converged_at is not None

    # --- checkpoint support ---------------------------------------------------

    def export_state(self) -> dict:
        """JSON-safe snapshot of the monitor, for checkpointing."""
        import dataclasses

        return {
            "position_tolerance": self.position_tolerance,
            "stable_checks": self.stable_checks,
            "previous": (
                None
                if self._previous is None
                else [dataclasses.asdict(e) for e in self._previous]
            ),
            "stable_count": self._stable_count,
            "converged_at": self.converged_at,
            "checks": self._checks,
        }

    @classmethod
    def from_state(cls, state: dict) -> "ConvergenceMonitor":
        """Rebuild a monitor from :meth:`export_state` output."""
        monitor = cls(
            position_tolerance=state["position_tolerance"],
            stable_checks=state["stable_checks"],
        )
        previous = state["previous"]
        if previous is not None:
            monitor._previous = [SourceEstimate(**e) for e in previous]
        monitor._stable_count = int(state["stable_count"])
        monitor.converged_at = state["converged_at"]
        monitor._checks = int(state["checks"])
        return monitor
