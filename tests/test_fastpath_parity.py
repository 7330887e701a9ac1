"""End-to-end checks of the compute paths that are fixed in code.

The estimate cache is always on: repeated ``estimates()`` calls on an
unmutated population reuse one extraction, and any mutation forces a
fresh one.  Below the truncation gate nothing builds the spatial grid,
and the default configuration still localizes the true sources.
Same-seed determinism is covered by the golden-stream gates and
tests/test_obs_determinism.py; the float32 backend's tolerance parity
by tests/test_core_backend.py.
"""

import numpy as np

from repro.core import estimator
from repro.core.config import LocalizerConfig
from repro.core.localizer import MultiSourceLocalizer
from repro.obs.metrics import MetricsRegistry
from repro.physics.intensity import RadiationField
from repro.physics.source import RadiationSource
from repro.sensors.network import SensorNetwork
from repro.sensors.placement import grid_placement

EFFICIENCY = 1e-4
BACKGROUND = 5.0


def base_config(**overrides) -> LocalizerConfig:
    return LocalizerConfig(
        n_particles=overrides.pop("n_particles", 1500),
        area=(100.0, 100.0),
        assumed_efficiency=EFFICIENCY,
        assumed_background_cpm=BACKGROUND,
    ).with_overrides(**overrides)


def measurement_stream(sources, n_steps=6, seed=1):
    sensors = grid_placement(
        6, 6, 100, 100, efficiency=EFFICIENCY, background_cpm=BACKGROUND,
        margin_fraction=0.0,
    )
    network = SensorNetwork(
        sensors, RadiationField(sources), np.random.default_rng(seed)
    )
    stream = []
    for t in range(n_steps):
        stream.extend(network.measure_time_step(t))
    return stream


SOURCES = [
    RadiationSource(25.0, 30.0, 9.0),
    RadiationSource(75.0, 70.0, 7.0),
]


class TestEstimateCache:
    def test_repeated_calls_reuse_extraction(self):
        stream = measurement_stream(SOURCES)
        metrics = MetricsRegistry()
        localizer = MultiSourceLocalizer(
            base_config(), rng=np.random.default_rng(0), metrics=metrics
        )
        for m in stream:
            localizer.observe(m)
        first = localizer.estimates()
        misses = metrics.counter("localizer.estimate_cache_misses").value
        second = localizer.estimates()
        assert metrics.counter("localizer.estimate_cache_hits").value >= 1
        assert metrics.counter("localizer.estimate_cache_misses").value == misses
        assert [(e.x, e.y) for e in first] == [(e.x, e.y) for e in second]

    def test_cache_invalidated_by_resampling(self):
        """After a mutation the cache must recompute, not serve stale modes."""
        stream = measurement_stream(SOURCES)
        metrics = MetricsRegistry()
        localizer = MultiSourceLocalizer(
            base_config(), rng=np.random.default_rng(0), metrics=metrics
        )
        for m in stream[:-5]:
            localizer.observe(m)
        before = localizer.estimates()
        misses_before = metrics.counter("localizer.estimate_cache_misses").value
        revision_before = localizer.particles.revision
        # More observations resample (mutate) the population...
        for m in stream[-5:]:
            localizer.observe(m)
        assert localizer.particles.revision > revision_before
        # ...so the next estimates() call is a miss and recomputes.
        after = localizer.estimates()
        assert (
            metrics.counter("localizer.estimate_cache_misses").value
            > misses_before
        )
        assert isinstance(after, list)
        del before  # only the recomputation mattered


class TestGridMetrics:
    def test_small_default_run_never_builds_grid(self):
        """Below the truncation gate nothing needs the grid: selection,
        resampling and the support queries are all brute-force scans."""
        stream = measurement_stream(SOURCES, n_steps=3)
        metrics = MetricsRegistry()
        config = base_config(backend="default")
        assert config.n_particles < estimator.TRUNCATION_MIN_PARTICLES
        localizer = MultiSourceLocalizer(
            config, rng=np.random.default_rng(0), metrics=metrics
        )
        for m in stream:
            localizer.observe(m)
        localizer.estimates()
        assert localizer.particles.grid_rebuilds == 0
        assert metrics.counter("localizer.grid_rebuilds").value == 0
        assert metrics.counter("localizer.grid_queries").value == 0


class TestFullFastPathAccuracy:
    def test_all_fast_paths_localize_sources(self):
        """Defaults (every fast path on) still find the true sources."""
        stream = measurement_stream(SOURCES, n_steps=10)
        localizer = MultiSourceLocalizer(
            base_config(n_particles=3000), rng=np.random.default_rng(2)
        )
        for m in stream:
            localizer.observe(m)
        estimates = localizer.estimates()
        assert len(estimates) >= 2
        for source in SOURCES:
            best = min(
                np.hypot(e.x - source.x, e.y - source.y) for e in estimates
            )
            assert best < 12.0
