"""Self-tests of the benchmark harness: ``python3 -m pytest stepbench -q``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from report import (  # noqa: E402
    Metric,
    TooFewSamples,
    check_metrics,
    percentile,
    result_line,
)
from spans import Span, SpanRecorder, merge_intervals, self_times  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# --- self time --------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("child", 2.0, 6.0, parent=0),
        Span("grandchild", 3.0, 4.0, parent=1),
    ]
    assert self_times(spans) == pytest.approx([6.0, 3.0, 1.0])
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_self_time_counts_sibling_overlap_once():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 5.0, parent=0),
        Span("b", 4.0, 7.0, parent=0),  # overlaps a (concurrent work)
        Span("c", 8.0, 9.0, parent=0),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_self_time_clips_children_to_parent():
    spans = [Span("root", 1.0, 3.0), Span("late", 2.0, 5.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_merge_intervals():
    assert merge_intervals([]) == 0.0
    assert merge_intervals([(0, 1), (1, 2), (5, 6), (5.5, 5.7)]) == pytest.approx(3.0)


def test_recorder_parents_and_step_keys():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    root, root_token = recorder.open("root", step="s1", root=True)
    child, child_token = recorder.open("child")
    detached = recorder.open_detached("remote")
    recorder.close(child, child_token)
    recorder.close(root, root_token)
    assert recorder.current() is None
    assert recorder.open_detached("outside") is None
    spans = recorder.spans
    assert spans[child].parent == root and spans[child].step == "s1"
    assert detached.parent == child and detached.step == "s1"


# --- percentiles, names, units ----------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    assert percentile(list(range(1, 101)), 90) == 90
    with pytest.raises(TooFewSamples):
        percentile(list(range(99)), 90)
    with pytest.raises(TooFewSamples):
        percentile([], 50)
    assert percentile(list(range(20)), 50) == 9


@pytest.mark.parametrize("name", ["step_ms_p50", "core.index_ms", "a-b.c_9", "9x"])
def test_valid_metric_names(name):
    check_metrics([Metric(name, 1.0, "ms", 1)])


@pytest.mark.parametrize("name", ["", "_x", ".x", "has space", "a/b", "x" * 65, "é"])
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        check_metrics([Metric(name, 1.0, "ms", 1)])


@pytest.mark.parametrize("unit", ["", None, "m s", "x" * 17])
def test_metric_needs_a_unit(unit):
    with pytest.raises(ValueError):
        check_metrics([Metric("m", 1.0, unit, 1)])


def test_duplicate_and_non_finite_metrics_refused():
    with pytest.raises(ValueError):
        check_metrics([Metric("m", 1.0, "ms", 1), Metric("m", 2.0, "ms", 1)])
    with pytest.raises(ValueError):
        check_metrics([Metric("m", float("nan"), "ms", 1)])


def test_result_line_shape():
    doc = json.loads(result_line(True, 3, 0, [Metric("m", 1.5, "ms", 3)]))
    assert doc == {"correct": True, "attempted": 3, "failed": 0,
                   "metrics": {"m": {"value": 1.5, "unit": "ms"}}}


# --- printed metrics match BENCHMARK.json -----------------------------------


def _declared(section):
    return [(m["name"], m["unit"]) for m in BENCHMARK[section]]


def _synthetic_pass():
    out = workloads.Pass()
    out.latencies = [0.01 + i * 1e-4 for i in range(120)]
    out.wall = sum(out.latencies)
    out.setups = [0.1, 0.2, 0.3]
    out.attempted = 120
    return out


def test_end_to_end_metrics_match_benchmark_json():
    printed = check_metrics(workloads.end_to_end(_synthetic_pass()))
    assert [(m.name, m.unit) for m in printed] == _declared("end_to_end")


def test_per_layer_metrics_match_benchmark_json():
    printed = check_metrics(
        workloads.per_layer(_synthetic_pass(), _synthetic_pass(), 2)
    )
    assert [(m.name, m.unit) for m in printed] == _declared("per_layer")


def test_workloads_match_benchmark_json():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]


def test_unit_inputs_are_a_prefix_of_longer_runs():
    short, long = workloads.unit_state(7, 2), workloads.unit_state(7, 5)
    assert all((a == b).all() for a, b in zip(short, long))
    assert not (workloads.unit_state(8, 1)[0] == short[0]).all()


# --- wrappers ---------------------------------------------------------------


def _tiny_scenario():
    import dataclasses

    from repro.sim.scenarios import scenario_a

    scenario = scenario_a(n_particles=300, n_time_steps=4)
    return dataclasses.replace(
        scenario,
        localizer_config=dataclasses.replace(
            scenario.localizer_config, backend="default"
        ),
    )


def test_install_and_uninstall_restore_every_boundary():
    before = [
        (b.owner, b.attr, (b.owner.__dict__[b.attr] if isinstance(b.owner, type)
                           else getattr(b.owner, b.attr)))
        for b in layers.boundaries()
    ]
    layers.install(SpanRecorder())
    try:
        with pytest.raises(RuntimeError):
            layers.install(SpanRecorder())
    finally:
        layers.uninstall()
    for owner, attr, original in before:
        current = (owner.__dict__[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
        assert current is original, (owner, attr)


def test_traced_session_matches_untraced_and_covers_its_steps():
    scenario = _tiny_scenario()
    plain, traced = workloads.Pass(), workloads.Pass()
    workloads.run_session(scenario, 11, "s", plain)
    recorder = SpanRecorder()
    layers.install(recorder)
    try:
        workloads.run_session(scenario, 11, "s", traced)
    finally:
        layers.uninstall()
    assert traced.records == plain.records
    assert not plain.problems and not traced.problems
    summary = layers.summarize(recorder.spans)
    assert summary["n_steps"] == scenario.n_time_steps
    coverage = sum(summary["self_seconds"].values()) / sum(traced.latencies)
    assert 0.95 < coverage <= 1.0 + 1e-9
    names = {span.name for span in recorder.spans}
    assert {"sim.session_other", "core.extract", "core.select", "core.weight",
            "core.resample", "core.index", "streams.measure"} <= names
    assert summary["counts"]["core.extract.meanshift_dense"] >= 1
