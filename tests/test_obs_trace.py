"""Tests for sinks, the tracer, and localizer/estimator instrumentation."""

import json
import math

import numpy as np
import pytest

import repro.core.estimator as estimator_module
import repro.core.localizer as localizer_module
from repro.core.backend import FastNumpyBackend
from repro.core.config import LocalizerConfig
from repro.core.localizer import MultiSourceLocalizer
from repro.obs.sinks import InMemorySink, JsonlSink, NullSink, read_jsonl
from repro.obs.trace import NULL_TRACER, Tracer, jsonl_tracer
from repro.sensors.network import SensorNetwork
from repro.sim.scenarios import scenario_a


def make_localizer(tracer=None, metrics=None, n_particles=400, seed=5):
    config = LocalizerConfig(
        area=(100.0, 100.0), n_particles=n_particles, assumed_background_cpm=5.0
    )
    return MultiSourceLocalizer(
        config, rng=np.random.default_rng(seed), tracer=tracer, metrics=metrics
    )


class TestSinks:
    def test_null_sink_drops(self):
        sink = NullSink()
        sink.write({"type": "x"})  # nothing observable, must not raise

    def test_in_memory_sink_collects_and_filters(self):
        sink = InMemorySink()
        sink.write({"type": "a", "v": 1})
        sink.write({"type": "b", "v": 2})
        assert len(sink) == 2
        assert sink.of_type("a") == [{"type": "a", "v": 1}]
        sink.clear()
        assert len(sink) == 0

    def test_jsonl_sink_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlSink(path) as sink:
            sink.write({"type": "a", "x": np.float64(1.5), "n": np.int64(2)})
            sink.write({"type": "b", "inf": float("inf")})
        records = read_jsonl(path)
        assert records[0] == {"type": "a", "x": 1.5, "n": 2}
        assert records[1]["inf"] == math.inf

    def test_read_jsonl_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ValueError, match="line 2|not valid JSON"):
            read_jsonl(path)


class TestTracer:
    def test_null_default_disabled(self):
        assert Tracer().enabled is False
        assert NULL_TRACER.enabled is False

    def test_emit_adds_type_and_seq(self):
        sink = InMemorySink()
        tracer = Tracer(sink)
        assert tracer.enabled
        tracer.emit("alpha", value=1)
        tracer.emit("beta", value=2)
        assert sink.records[0]["type"] == "alpha"
        assert [r["seq"] for r in sink.records] == [1, 2]

    def test_span_times_block(self):
        sink = InMemorySink()
        with Tracer(sink).span("work", label="x") as extra:
            extra["n"] = 3
        [event] = sink.records
        assert event["type"] == "work"
        assert event["seconds"] >= 0
        assert event["label"] == "x" and event["n"] == 3

    def test_jsonl_tracer_writes_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = jsonl_tracer(path)
        tracer.emit("hello", v=1)
        tracer.close()
        assert read_jsonl(path) == [{"type": "hello", "seq": 1, "v": 1}]


class TestLocalizerInstrumentation:
    def test_iteration_event_schema(self):
        sink = InMemorySink()
        localizer = make_localizer(tracer=Tracer(sink))
        localizer.observe_reading(50.0, 50.0, 40.0, sensor_id=7)
        [event] = sink.of_type("iteration")
        assert event["iteration"] == 1
        assert event["sensor_id"] == 7
        assert event["touched"] > 0
        assert event["ess_before"] > 0 and event["ess_after"] > 0
        assert event["resampled"] >= 0 and event["injected"] >= 0
        assert set(event["phases"]) == {"select", "predict", "weight", "resample"}
        # Phases are contiguous perf_counter splits: they sum to the total.
        assert sum(event["phases"].values()) == pytest.approx(
            event["total_seconds"], rel=1e-9
        )

    def test_empty_subset_event(self):
        sink = InMemorySink()
        localizer = make_localizer(tracer=Tracer(sink))
        # A sensor far outside the area touches nothing within fusion range.
        localizer.observe_reading(1e6, 1e6, 5.0)
        [event] = sink.of_type("iteration")
        assert event["touched"] == 0
        assert event["resampled"] == 0 and event["injected"] == 0
        assert event["ess_before"] == pytest.approx(event["ess_after"])
        assert "select" in event["phases"]

    def test_extract_event_from_estimates(self):
        sink = InMemorySink()
        localizer = make_localizer(tracer=Tracer(sink))
        for _ in range(3):
            localizer.observe_reading(50.0, 50.0, 60.0)
        sink.clear()
        localizer.estimates()
        [event] = sink.of_type("extract")
        assert event["n_seeds"] > 0
        assert event["meanshift_sweeps"] >= 1
        assert event["n_modes"] >= event["n_estimates"]
        assert set(event["phases"]) == {"seed", "shift", "merge", "filter"}
        assert sum(event["phases"].values()) == pytest.approx(
            event["total_seconds"], rel=1e-9
        )

    @pytest.mark.parametrize(
        "backend, min_particles, expected",
        [
            ("default", 4096, "dense"),
            ("fast", 4096, "dense"),
            ("default", 256, "truncated"),
            ("fast", 256, "backend:fast"),
        ],
    )
    def test_extract_path_names_the_kernel_that_ran(
        self, monkeypatch, backend, min_particles, expected
    ):
        ran = []

        def recording(label, kernel):
            def wrapper(*args, **kwargs):
                ran.append(label)
                return kernel(*args, **kwargs)

            return wrapper

        for label, owner, name in [
            ("dense", estimator_module, "mean_shift_modes"),
            ("truncated", estimator_module, "truncated_mean_shift_modes"),
            ("backend:fast", FastNumpyBackend, "meanshift_modes"),
        ]:
            monkeypatch.setattr(
                owner, name, recording(label, getattr(owner, name))
            )
        scenario = scenario_a(strengths=(50.0, 50.0), n_particles=500)
        config = scenario.localizer_config.with_overrides(
            backend=backend, meanshift_truncation_min_particles=min_particles
        )
        sink = InMemorySink()
        localizer = MultiSourceLocalizer(
            config, rng=np.random.default_rng(5), tracer=Tracer(sink)
        )
        network = SensorNetwork(
            scenario.sensors, scenario.field_with_obstacles(),
            np.random.default_rng(1),
        )
        for t in range(2):
            localizer.observe_batch(network.measure_time_step(t))
        localizer.estimates()
        [event] = sink.of_type("extract")
        assert ran == [expected]
        assert event["path"] == expected

    def test_interference_refresh_does_not_emit_nested_extract(self):
        sink = InMemorySink()
        config = LocalizerConfig(
            area=(100.0, 100.0),
            n_particles=400,
            assumed_background_cpm=5.0,
            interference_subtraction=True,
            interference_refresh=1,
        )
        localizer = MultiSourceLocalizer(
            config, rng=np.random.default_rng(3), tracer=Tracer(sink)
        )
        for _ in range(4):
            localizer.observe_reading(50.0, 50.0, 60.0)
        # The refresh runs mean-shift inside observe_reading, but only
        # explicit estimates() calls may emit extract events.
        assert sink.of_type("extract") == []
        assert len(sink.of_type("iteration")) == 4

    def test_metrics_updated_per_iteration(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        localizer = make_localizer(metrics=registry)
        localizer.observe_reading(50.0, 50.0, 40.0)
        localizer.observe_reading(1e6, 1e6, 5.0)
        snap = registry.snapshot()
        assert snap["localizer.iterations"]["value"] == 2
        assert snap["localizer.empty_subsets"]["value"] == 1
        assert snap["localizer.touched"]["count"] == 2
        assert snap["localizer.resampled_particles"]["value"] > 0


class TestZeroOverheadContract:
    """The null path must never read clocks or compute diagnostics."""

    def test_observe_reads_no_clock_when_untraced(self, monkeypatch):
        def boom():
            raise AssertionError("perf_counter called on the null path")

        monkeypatch.setattr(localizer_module, "perf_counter", boom)
        localizer = make_localizer()  # default: NULL_TRACER
        localizer.observe_reading(50.0, 50.0, 40.0)
        assert localizer.iteration == 1

    def test_extract_reads_no_clock_when_untraced(self, monkeypatch):
        def boom():
            raise AssertionError("perf_counter called on the null path")

        monkeypatch.setattr(estimator_module, "perf_counter", boom)
        localizer = make_localizer()
        localizer.observe_reading(50.0, 50.0, 40.0)
        localizer.estimates()

    def test_null_tracer_emit_is_noop_even_with_fields(self):
        NULL_TRACER.emit("iteration", anything=object())  # must not raise

    def test_jsonl_trace_is_parseable_line_by_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = jsonl_tracer(path)
        localizer = make_localizer(tracer=tracer)
        for _ in range(2):
            localizer.observe_reading(50.0, 50.0, 40.0)
        localizer.estimates()
        tracer.close()
        with open(path) as handle:
            lines = [line for line in handle if line.strip()]
        assert len(lines) == 3
        for line in lines:
            json.loads(line)
