"""The pluggable array-backend layer: registry, parity, and scratch reuse.

Three contract families:

* **Registry** -- name resolution precedence (config field over
  ``REPRO_BACKEND`` over the default) and validation.
* **Parity** -- the default backend must be *bitwise* identical to the
  pre-backend code (it routes through the unmodified reference kernels by
  construction, and a dual-run regression pins that); the float32 fast
  backend is tolerance-parity on every kernel, property-tested across
  delivered counts, tempering exponents, credibility weights, and
  quarantine-induced skips.
* **Scratch** -- the fast backend's per-step allocation count must reach
  zero once warm (the SoA buffers are preallocated and reused).
"""

import logging
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import estimator
from repro.core.backend import (
    BACKEND_NAMES,
    ArrayBackend,
    FastNumpyBackend,
    get_backend,
    resolve_backend_name,
)
from repro.core.config import LocalizerConfig
from repro.core.estimator import extract_estimates
from repro.core.localizer import MultiSourceLocalizer
from repro.core.particles import ParticleSet
from repro.core.weighting import reweight_in_place
from repro.obs.metrics import MetricsRegistry
from repro.physics.intensity import RadiationField
from repro.physics.source import RadiationSource
from repro.sensors.measurement import Measurement
from repro.sensors.network import SensorNetwork
from repro.sensors.placement import grid_placement

EFFICIENCY = 1e-4
BACKGROUND = 5.0


def base_config(**overrides) -> LocalizerConfig:
    return LocalizerConfig(
        n_particles=overrides.pop("n_particles", 1200),
        area=(100.0, 100.0),
        assumed_efficiency=EFFICIENCY,
        assumed_background_cpm=BACKGROUND,
    ).with_overrides(**overrides)


def measurement_stream(n_steps=4, seed=3):
    sensors = grid_placement(
        5, 5, 100, 100, efficiency=EFFICIENCY, background_cpm=BACKGROUND,
        margin_fraction=0.0,
    )
    sources = [
        RadiationSource(30.0, 35.0, 40.0),
        RadiationSource(70.0, 65.0, 55.0),
    ]
    network = SensorNetwork(
        sensors, RadiationField(sources), np.random.default_rng(seed)
    )
    steps = []
    for t in range(n_steps):
        steps.append(network.measure_time_step(t))
    return steps


# --- registry / resolution ------------------------------------------------------


class TestRegistry:
    def test_backend_names_are_the_config_and_cli_choices(self):
        from repro.__main__ import build_parser

        assert BACKEND_NAMES == ("default", "fast")
        for name in BACKEND_NAMES:
            assert base_config(backend=name).backend == name
            args = build_parser().parse_args(["run", "a", "--backend", name])
            assert args.backend == name

    def test_resolution_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend_name(None) == "default"
        monkeypatch.setenv("REPRO_BACKEND", "fast")
        assert resolve_backend_name(None) == "fast"
        # The config field shadows the env var.
        assert resolve_backend_name("default") == "default"

    def test_unknown_name_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown"):
            resolve_backend_name("turbo")
        monkeypatch.setenv("REPRO_BACKEND", "turbo")
        with pytest.raises(ValueError, match="unknown"):
            resolve_backend_name(None)

    def test_config_validates_backend(self):
        with pytest.raises(ValueError):
            base_config(backend="turbo")
        assert base_config(backend="fast").backend == "fast"

    def test_get_backend_instances(self):
        default = get_backend("default")
        assert type(default) is ArrayBackend
        assert not default.accelerated
        assert default.describe() == {"name": "default", "dtype": "float64"}
        fast = get_backend("fast")
        assert isinstance(fast, FastNumpyBackend)
        assert fast.accelerated
        assert fast.describe() == {"name": "fast", "dtype": "float32"}
        # Fresh scratch per instance: no cross-localizer aliasing.
        assert get_backend("fast") is not fast


# --- bitwise parity of the default backend --------------------------------------


class TestDefaultBitwise:
    def test_default_backend_matches_direct_call(self, monkeypatch):
        """Dispatch through the backend == calling the kernels directly."""
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        config = base_config()
        steps = measurement_stream()
        through = MultiSourceLocalizer(
            config.with_overrides(backend="default"),
            rng=np.random.default_rng(5),
        )
        direct = MultiSourceLocalizer(config, rng=np.random.default_rng(5))
        assert not direct.backend.accelerated
        for batch in steps:
            for m in batch:
                through.observe(m)
                direct.observe(m)
        np.testing.assert_array_equal(
            through.particles.weights, direct.particles.weights
        )
        np.testing.assert_array_equal(through.particles.xs, direct.particles.xs)

    def test_reweight_backend_none_is_reference(self, monkeypatch):
        """``backend=None`` and a non-accelerated backend are the same code."""
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        config = base_config()
        rng = np.random.default_rng(11)
        a = MultiSourceLocalizer(config, rng=np.random.default_rng(0)).particles
        b = a.copy() if hasattr(a, "copy") else None
        weights_before = a.weights.copy()
        indices = np.arange(len(a))
        reweight_in_place(
            a, indices, 12.0, 40.0, 40.0,
            efficiency=EFFICIENCY, background_cpm=BACKGROUND,
        )
        expected = a.weights.copy()
        a.weights[:] = weights_before
        reweight_in_place(
            a, indices, 12.0, 40.0, 40.0,
            efficiency=EFFICIENCY, background_cpm=BACKGROUND,
            backend=get_backend("default"),
        )
        np.testing.assert_array_equal(a.weights, expected)

    def test_observe_batch_default_is_bitwise_loop(self, monkeypatch):
        """observe_batch under the default backend == the observe loop."""
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        config = base_config()
        steps = measurement_stream()
        batched = MultiSourceLocalizer(config, rng=np.random.default_rng(5))
        looped = MultiSourceLocalizer(config, rng=np.random.default_rng(5))
        for batch in steps:
            batched.observe_batch(batch)
            for m in batch:
                looped.observe(m)
        np.testing.assert_array_equal(
            batched.particles.weights, looped.particles.weights
        )
        np.testing.assert_array_equal(batched.particles.xs, looped.particles.xs)


# --- tolerance parity of the fast backend ---------------------------------------


class TestFastParity:
    @given(
        count=st.one_of(
            st.just(0.0),
            st.just(1.0),
            st.floats(min_value=2.0, max_value=5000.0),
        ),
        tempering=st.sampled_from([0.0, 0.25, 1.0]),
        credibility=st.floats(min_value=0.05, max_value=1.0),
        interference=st.floats(min_value=0.0, max_value=3.0),
        subset=st.sampled_from(["all", "disc", "empty"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_reweight_matches_reference(
        self, count, tempering, credibility, interference, subset
    ):
        """The float32 per-reading weight update tracks the float64 one.

        Both backends update cloned populations from the same non-uniform
        prior; the resulting weights must agree to float32 tolerance, and
        an empty subset must leave the weights untouched under either.
        """
        config = base_config(n_particles=400)
        localizer = MultiSourceLocalizer(config, rng=np.random.default_rng(2))
        src = localizer.particles
        sensor_x, sensor_y = 40.0, 60.0
        indices = {
            "all": np.arange(len(src)),
            "disc": src.indices_within(sensor_x, sensor_y, 25.0),
            "empty": np.empty(0, dtype=np.int64),
        }[subset]
        prior = np.random.default_rng(3).uniform(0.1, 1.0, len(src))
        prior /= prior.sum()
        reference, fast = (
            ParticleSet(
                src.xs.copy(), src.ys.copy(), src.strengths.copy(), prior.copy()
            )
            for _ in range(2)
        )
        for particles, backend in ((reference, None), (fast, get_backend("fast"))):
            reweight_in_place(
                particles, indices, count, sensor_x, sensor_y,
                efficiency=EFFICIENCY, background_cpm=BACKGROUND,
                under_prediction_tempering=tempering,
                interference_cpm=interference,
                credibility_weight=credibility,
                backend=backend,
            )
        if subset == "empty":
            np.testing.assert_array_equal(fast.weights, prior)
            np.testing.assert_array_equal(reference.weights, prior)
        np.testing.assert_allclose(
            fast.weights, reference.weights, rtol=2e-2, atol=1e-9
        )

    def test_quarantined_sensor_skipped_in_batch(self):
        """A zero-credibility reading is dropped, not weighted."""
        config = base_config(integrity_enabled=True)
        steps = measurement_stream(n_steps=1)
        fast = MultiSourceLocalizer(
            config.with_overrides(backend="fast"),
            rng=np.random.default_rng(5),
        )
        # Poison one sensor hard enough to be quarantined immediately.
        bad = Measurement(
            sensor_id=steps[0][0].sensor_id,
            x=steps[0][0].x, y=steps[0][0].y,
            cpm=10_000_000.0, time_step=0, sequence=999,
        )
        before = fast.iteration
        fast.observe_batch(list(steps[0]) + [bad] * 3)
        assert fast.iteration > before  # honest readings still observed

    def test_session_accuracy_tracks_default(self):
        """End-to-end accuracy under the fast backend stays near default.

        The float32 kernels change weights only within float32 tolerance,
        so a whole session must still localize every source: the default
        backend holds worst-source error below 5 on this seed.
        """
        import dataclasses

        from repro.sim.scenarios import scenario_a
        from repro.sim.session import LocalizerSession

        sc = scenario_a(n_time_steps=8)
        sc = dataclasses.replace(
            sc,
            localizer_config=sc.localizer_config.with_overrides(
                backend="fast"
            ),
        )
        result = LocalizerSession(sc, seed=1).run()
        n_sources = len(sc.sources)
        worst = [
            max(result.error_series(i)[t] for i in range(n_sources))
            for t in range(result.n_steps)
        ]
        # Steady state: a lost source would sit at 25+ here.
        assert all(err < 8.0 for err in worst[3:]), worst

    def test_meanshift_extraction_parity(self, monkeypatch):
        monkeypatch.setattr(estimator, "TRUNCATION_MIN_PARTICLES", 256)
        config = base_config(n_particles=3000)
        steps = measurement_stream(n_steps=3)
        localizer = MultiSourceLocalizer(
            config.with_overrides(backend="fast"),
            rng=np.random.default_rng(5),
        )
        for batch in steps:
            localizer.observe_batch(batch)
        particles = localizer.particles
        fast = extract_estimates(
            particles,
            config.with_overrides(backend="fast"),
            np.random.default_rng(7),
        )
        # The reference is the dense float64 sweep: no population
        # reaches this gate.
        monkeypatch.setattr(estimator, "TRUNCATION_MIN_PARTICLES", sys.maxsize)
        reference = extract_estimates(
            particles,
            config.with_overrides(backend="default"),
            np.random.default_rng(7),
        )
        assert len(fast) == len(reference)
        for ref in reference:
            delta = min(
                float(np.hypot(e.x - ref.x, e.y - ref.y)) for e in fast
            )
            assert delta < 0.5

    def test_meanshift_creeping_rows_warn_nothing(self):
        """A row creeping by the same float32 step twice has an Aitken
        ratio of exactly 1; the kernel must not divide by 1 - ratio there.
        A tiny tolerance keeps rows creeping until ``max_iter``."""
        rng = np.random.default_rng(0)
        points = np.vstack(
            [
                rng.normal((30.0, 40.0), 6.0, (2500, 2)),
                rng.normal((70.0, 60.0), 6.0, (2500, 2)),
            ]
        )
        particles = ParticleSet(points[:, 0], points[:, 1], np.ones(len(points)))
        config = base_config(
            n_particles=len(points),
            meanshift_tol=1e-9,
            meanshift_max_iter=60,
        )
        seeds = points[rng.choice(len(points), 24, replace=False)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            modes, densities = FastNumpyBackend().meanshift_modes(
                particles, seeds, config
            )
        assert np.all(np.isfinite(modes)) and np.all(np.isfinite(densities))


# --- scratch reuse / observability ----------------------------------------------


class TestScratch:
    def test_zero_allocations_once_warm(self):
        config = base_config(backend="fast")
        registry = MetricsRegistry()
        localizer = MultiSourceLocalizer(
            config, rng=np.random.default_rng(5), metrics=registry
        )
        steps = measurement_stream(n_steps=4)
        for batch in steps:
            localizer.observe_batch(batch)
        pool = localizer.backend.scratch
        assert pool.reuses > 0
        # Warm steady state: repeating an identical batch allocates nothing.
        localizer.observe_batch(steps[-1])
        assert pool.allocations_this_step == 0
        assert registry.gauge("backend.allocations_per_step").value == 0
        assert registry.counter("backend.scratch_reuse").value > 0

    def test_scratch_pool_growth_and_dtype(self):
        from repro.core.backend import ScratchPool

        pool = ScratchPool()
        a = pool.get("x", (4, 8), np.float32)
        assert a.shape == (4, 8) and a.dtype == np.float32
        b = pool.get("x", (2, 8), np.float32)
        assert b.base is a.base or b.base is a  # reused storage
        assert pool.allocations == 1 and pool.reuses == 1
        c = pool.get("x", (1000,), np.float32)
        assert pool.allocations == 2  # outgrew: reallocated
        d = pool.get("x", (3,), np.float64)
        assert d.dtype == np.float64  # dtype change reallocates
        pool.begin_step()
        assert pool.allocations_this_step == 0


# --- checkpoint interplay -------------------------------------------------------


class TestCheckpointBackend:
    def _localizer_state(self, backend=None):
        config = base_config(backend=backend)
        localizer = MultiSourceLocalizer(config, rng=np.random.default_rng(5))
        for batch in measurement_stream(n_steps=1):
            localizer.observe_batch(batch)
        return config, localizer.export_state()

    def test_backend_recorded_in_state(self):
        _config, state = self._localizer_state(backend="fast")
        assert state["meta"]["backend"] == {"name": "fast", "dtype": "float32"}

    def test_mismatch_warns(self, caplog):
        config, state = self._localizer_state(backend="fast")
        with caplog.at_level(logging.WARNING, logger="repro.core.localizer"):
            MultiSourceLocalizer.from_state(
                config.with_overrides(backend="default"), state
            )
        assert any("backend" in r.message for r in caplog.records)

    def test_session_strict_backend_errors(self, tmp_path, monkeypatch):
        from repro.sim.scenarios import scenario_a
        from repro.sim.serialization import CheckpointError
        from repro.sim.session import LocalizerSession

        # The mismatch below relies on the session resolving "default";
        # neutralize any REPRO_BACKEND override from the environment.
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        scenario = scenario_a(n_time_steps=4)
        session = LocalizerSession(scenario, seed=1)
        session.step()
        path = tmp_path / "run.ckpt.json"
        session.save_checkpoint(path)
        # Same backend: strict restore is fine.
        resumed = LocalizerSession.resume_from_checkpoint(
            path, strict_backend=True
        )
        assert resumed.step_index == 1
        # Different backend: strict restore refuses.
        with pytest.raises(CheckpointError, match="backend"):
            LocalizerSession.resume_from_checkpoint(
                path, strict_backend=True, backend_override="fast"
            )
        # Non-strict restore under a new backend proceeds (with a warning).
        resumed = LocalizerSession.resume_from_checkpoint(
            path, backend_override="fast"
        )
        assert resumed.localizer.backend.name == "fast"
        resumed.run()

    def test_run_start_and_manifest_record_backend(self, tmp_path, monkeypatch):
        from repro.obs.trace import Tracer
        from repro.obs.sinks import InMemorySink
        from repro.sim.scenarios import scenario_a
        from repro.sim.session import LocalizerSession

        # This test pins the recorded identity of the *default* backend.
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        sink = InMemorySink()
        scenario = scenario_a(n_time_steps=2)
        session = LocalizerSession(scenario, seed=1, tracer=Tracer(sink))
        session.step()
        starts = sink.of_type("run_start")
        assert starts and starts[0]["backend"] == "default"
        assert starts[0]["backend_dtype"] == "float64"
        manifest = session.manifest()
        assert manifest.context["backend"] == "default"
        assert manifest.context["backend_dtype"] == "float64"
