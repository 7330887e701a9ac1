"""The three workloads: inputs from the seed, runners, output checks.

A *unit* is what a run repeats: one 30-step session in process, or one
serving round (a fresh service, 8 concurrent sessions, 2 shard
processes).  Every round of a run serves the same 8 recorded streams,
so the in-process reference replay runs once per stream.  The unit count follows from ``--seconds`` through a fixed
nominal unit time, so a run's inputs depend only on the seed and the
run length, never on how fast the program is.

Everything a session unit needs derives from
``SeedSequence(seed).spawn(...)`` child ``i`` (the serving streams from
child 0), so a shorter run (the traced one) replays a prefix of a
longer run's units exactly.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import multiprocessing
import resource
import shutil
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

import numpy as np

import layers
from report import Metric, median, percentile
from spans import SpanRecorder

SESSION_STEPS = 30
SERVE_SESSIONS = 8
SERVE_SHARDS = 2
#: Output check on accuracy: more missed source-steps than this means a
#: source was lost for good, which no workload does today.
MISSED_SOURCE_CEILING = 0.25
#: Timing fields of a step record: excluded when records are compared.
TIMING_FIELDS = ("mean_iteration_seconds",)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: "session" (in process) or "serve".
    kind: str
    #: Nominal wall seconds of one unit, checks included.
    unit_seconds: float
    #: Enough units for 100 timed steps (10 beyond the p90), or more
    #: where the step p50 needs them to be steady.
    min_units: int
    #: Set-up samples per unit: the unit's own set-up plus set-up-only
    #: samples (a session constructed and dropped, or a service spun up
    #: and closed) taken just before it.  Spreading the samples over the
    #: run lets their median average the machine's speed swings the way
    #: the step metrics do; a burst of samples would catch one moment.
    setup_samples: int
    scenario: Callable[[], Any]

    def units(self, seconds: float) -> int:
        return max(self.min_units, round(seconds / self.unit_seconds))


def _pin_backend(scenario, backend: str):
    return dataclasses.replace(
        scenario,
        localizer_config=dataclasses.replace(
            scenario.localizer_config, backend=backend
        ),
    )


def _a3_3k_ref():
    from repro.sim.scenarios import scenario_a_three_sources

    return _pin_backend(
        scenario_a_three_sources(n_particles=3000, n_time_steps=SESSION_STEPS),
        "default",
    )


def _b_15k_fast():
    from repro.sim.scenarios import scenario_b

    return _pin_backend(
        scenario_b(n_particles=15000, n_time_steps=SESSION_STEPS), "fast"
    )


def _a_500():
    from repro.sim.scenarios import scenario_a

    return _pin_backend(
        scenario_a(n_particles=500, n_time_steps=SESSION_STEPS), "default"
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "a3-3k-ref",
            "Scenario A with 3 sources, 3000 particles, default backend: dense "
            "mean-shift extraction dominates and index upkeep is small; the "
            "bitwise sequential observe loop",
            "session", 2.5, 4, 3, _a3_3k_ref,
        ),
        Workload(
            "b-15k-fast",
            "Table-1 cell (196 sensors, 9 sources, 3 obstacles, 15000 "
            "particles, fast backend): grid upkeep and select/weight/resample "
            "dominate; fused batches",
            "session", 6.5, 6, 4, _b_15k_fast,
        ),
        Workload(
            "serve-a-ckpt",
            "8 closed-loop clients, 2 shard processes, checkpoint every step, "
            "500-particle Scenario A replayed from recorded streams: queueing, "
            "IPC and checkpoints dominate",
            "serve", 5.0, 2, 2, _a_500,
        ),
    )
}


# --- inputs -----------------------------------------------------------------


def unit_state(seed: int, n_units: int) -> List[np.ndarray]:
    """32-bit words per unit; unit ``i`` depends only on (seed, i)."""
    children = np.random.SeedSequence(seed).spawn(n_units)
    return [child.generate_state(1 + SERVE_SESSIONS) for child in children]


@dataclass
class ServeInputs:
    tenant: str
    #: (session id, session seed, stream path) per session.
    sessions: List[tuple]


def record_round(scenario, state: np.ndarray, directory: Path) -> ServeInputs:
    """Record one round's streams: the simulator's measurements, no filter.

    Each file is a ``repro-stream v1`` recording of ``scenario`` at the
    session seed; replaying it with the header seed reproduces the live
    session bitwise.
    """
    from repro.sim.rng import spawn_rngs
    from repro.streams import Recorder, SimulatorSource

    tenant = f"t{int(state[0]) % 16**6:06x}"
    sessions = []
    for n in range(SERVE_SESSIONS):
        session_id = f"{tenant}-{n}"
        seed = int(state[1 + n])
        path = directory / f"{session_id}.stream.jsonl"
        measurement_rng = spawn_rngs(seed, 3)[0]
        source = SimulatorSource(scenario, measurement_rng)
        with Recorder.for_scenario(path, scenario, seed, stream_id=session_id) as recorder:
            source.recorder = recorder
            for step in range(scenario.n_time_steps):
                source.measure(step)
        sessions.append((session_id, seed, path))
    return ServeInputs(tenant, sessions)


# --- results ----------------------------------------------------------------


def canonical(record) -> dict:
    """A step record as a dict without timing fields (for comparisons)."""
    from repro.sim.serialization import step_record_to_dict

    doc = step_record_to_dict(record)
    for key in TIMING_FIELDS:
        doc.pop(key, None)
    return doc


@dataclass
class Pass:
    """What one pass over a workload's units produced."""

    latencies: List[float] = field(default_factory=list)
    wall: float = 0.0
    setups: List[float] = field(default_factory=list)
    #: Per session: the canonical step records, in order.
    records: Dict[str, List[dict]] = field(default_factory=dict)
    #: Per session: StepRecord objects (accuracy).
    steps: Dict[str, list] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    worker_rss_kib: Dict[int, int] = field(default_factory=dict)
    shed: int = 0
    retries: int = 0
    resurrections: int = 0
    #: Session-compute seconds per shard (traced serving rounds).
    shard_busy: Dict[int, float] = field(default_factory=dict)
    #: One :func:`layers.summarize` result per traced unit.
    summaries: List[dict] = field(default_factory=list)

    def fail(self, steps: int, problem: str) -> None:
        self.failed += steps
        self.problems.append(problem)


# --- in-process sessions ----------------------------------------------------


def setup_session(scenario, seed: int, out: Pass) -> None:
    """Construct a session and drop it: one set-up sample."""
    from repro.sim.session import LocalizerSession

    start = perf_counter()
    LocalizerSession(scenario, seed=seed)
    out.setups.append(perf_counter() - start)


def run_session(scenario, seed: int, label: str, out: Pass) -> None:
    """One session, stepped to completion, every step timed."""
    from repro.sim.session import LocalizerSession

    out.attempted += scenario.n_time_steps
    start = perf_counter()
    session = LocalizerSession(scenario, seed=seed)
    out.setups.append(perf_counter() - start)
    completed = 0
    begin = perf_counter()
    try:
        while not session.finished:
            t0 = perf_counter()
            session.step()
            out.latencies.append(perf_counter() - t0)
            completed += 1
    except Exception as exc:  # a failed step request is counted, not fatal
        out.problems.append(f"{label}: step {completed} raised {exc!r}")
    out.wall += perf_counter() - begin
    if not session.finished:
        out.fail(scenario.n_time_steps - completed, f"{label}: did not finish")
    out.steps[label] = list(session.records)
    out.records[label] = [canonical(r) for r in session.records]


# --- serving rounds ---------------------------------------------------------


async def _serve_round(inputs: ServeInputs, checkpoint_dir: Path, out: Pass,
                       timed: bool, spans: Optional[list]) -> Dict[str, Any]:
    """Spin up a service, host the round's sessions, drive them, close.

    The set-up is timed as one set-up sample; with ``timed=False`` the
    round stops there.
    With ``spans`` (a traced round) each shard's spans are collected
    after the timed phase and attached to that list.  Returns each
    admitted session's result document (None when it could not be
    collected).
    """
    from repro.serve import (
        Admitted,
        LocalizationService,
        ServiceConfig,
    )

    start = perf_counter()
    service = LocalizationService(
        ServiceConfig(
            checkpoint_dir=checkpoint_dir,
            n_shards=SERVE_SHARDS,
            inline=False,
            checkpoint_every=1,
        )
    )
    results: Dict[str, Any] = {}
    try:
        admitted = []
        for session_id, _seed, path in inputs.sessions:
            outcome = await service.submit(
                inputs.tenant, session_id, {"stream_path": str(path)}
            )
            if isinstance(outcome, Admitted):
                admitted.append(session_id)
            elif timed:
                out.shed += 1
                out.attempted += SESSION_STEPS
                out.fail(SESSION_STEPS, f"{session_id}: shed ({outcome.reason})")
        await service.shard_pids()  # warm-up: every shard process is up
        out.setups.append(perf_counter() - start)
        if not timed:
            return results

        async def client(session_id: str) -> None:
            handle = service.sessions[session_id]
            while not handle.finished:
                t0 = perf_counter()
                try:
                    await service.advance(session_id, 1)
                except Exception as exc:  # counted as a failed request
                    out.problems.append(f"{session_id}: advance raised {exc!r}")
                    return
                out.latencies.append(perf_counter() - t0)

        for _ in admitted:
            out.attempted += SESSION_STEPS
        begin = perf_counter()
        await asyncio.gather(*(client(sid) for sid in admitted))
        out.wall += perf_counter() - begin

        for session_id in admitted:
            handle = service.sessions[session_id]
            out.retries += handle.retries
            out.resurrections += handle.resurrections
            try:
                results[session_id] = await service.collect(session_id)
            except Exception as exc:  # counted: the session has no result
                out.problems.append(f"{session_id}: collect raised {exc!r}")
                results[session_id] = None
        for index, shard in enumerate(service.shards):
            report = await asyncio.wrap_future(
                shard.pool.submit(layers.worker_report)
            )
            previous = out.worker_rss_kib.get(index, 0)
            out.worker_rss_kib[index] = max(previous, report["maxrss_kib"])
            if spans is not None:
                busy = sum(
                    row[2] - row[1]
                    for row in report["spans"]
                    if row[0] == "serve.host_other" and row[3] is None
                )
                out.shard_busy[index] = out.shard_busy.get(index, 0.0) + busy
                layers.attach_worker_spans(spans, report["spans"])
    finally:
        await service.close()
    return results


def run_round(inputs: ServeInputs, checkpoint_dir: Path, out: Pass,
              timed: bool = True, spans: Optional[list] = None,
              label: str = "") -> None:
    """One serving round; records are kept as ``<label><session id>``."""
    from repro.sim.serialization import step_record_from_dict

    results = asyncio.run(
        _serve_round(inputs, checkpoint_dir, out, timed, spans)
    )
    shutil.rmtree(checkpoint_dir, ignore_errors=True)
    if not timed:
        return
    for session_id, result in results.items():
        key = label + session_id
        if result is None:
            out.fail(SESSION_STEPS, f"{key}: no result")
            continue
        steps = result["steps"]
        out.steps[key] = [step_record_from_dict(doc) for doc in steps]
        for doc in steps:
            for field_name in TIMING_FIELDS:
                doc.pop(field_name, None)
        out.records[key] = steps
        if not result["finished"] or len(steps) != SESSION_STEPS:
            out.fail(
                SESSION_STEPS - min(len(steps), SESSION_STEPS),
                f"{key}: did not finish ({len(steps)} steps)",
            )


def replay_reference(path: Path) -> List[dict]:
    """The same stream replayed in process: the serving output check."""
    from repro.streams import open_replay_session

    return [canonical(r) for r in open_replay_session(path).run().steps]


# --- checks -----------------------------------------------------------------


def compare(out: Pass, label: str, got: List[dict], want: List[dict],
            what: str) -> None:
    """Count every step whose record differs from the reference as failed."""
    mismatched = sum(1 for a, b in zip(got, want) if a != b)
    mismatched += abs(len(got) - len(want))
    if mismatched:
        out.fail(mismatched, f"{label}: {mismatched} step records differ from {what}")


def accuracy(out: Pass, n_sources: int) -> Dict[str, Metric]:
    errors: List[float] = []
    misses = alarms = steps = 0
    for records in out.steps.values():
        for record in records:
            metrics = record.metrics
            errors.extend(e for e in metrics.errors if math.isfinite(e))
            misses += metrics.false_negatives
            alarms += metrics.false_positives
            steps += 1
    return {
        "loc_error_mean": Metric(
            "loc_error_mean", float(np.mean(errors)) if errors else 0.0,
            "area_units", len(errors)),
        "missed_source_rate": Metric(
            "missed_source_rate", misses / max(1, n_sources * steps),
            "ratio", n_sources * steps),
        "false_alarm_rate": Metric(
            "false_alarm_rate", alarms / max(1, steps), "1/step", steps),
        "failed_fraction": Metric(
            "failed_fraction", out.failed / max(1, out.attempted), "ratio",
            out.attempted),
    }


def check_accuracy(out: Pass, n_sources: int) -> None:
    rate = accuracy(out, n_sources)["missed_source_rate"].value
    if rate > MISSED_SOURCE_CEILING:
        out.problems.append(
            f"missed_source_rate {rate:.3f} above {MISSED_SOURCE_CEILING}: "
            f"a source was lost"
        )


# --- runs -------------------------------------------------------------------


def _parent_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def end_to_end(out: Pass) -> List[Metric]:
    n = len(out.latencies)
    ms = [t * 1e3 for t in out.latencies]
    rss_kib = _parent_rss_kib() + sum(out.worker_rss_kib.values())
    return [
        Metric("step_ms_p50", median(ms), "ms", n),
        Metric("step_ms_p90", percentile(ms, 90), "ms", n),
        Metric("steps_per_s", n / out.wall, "1/s", n),
        Metric("setup_s", median(out.setups), "s", len(out.setups)),
        Metric("peak_rss_mb", rss_kib / 1024.0, "MiB",
               1 + len(out.worker_rss_kib)),
    ]


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 workdir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.scenario = workload.scenario()
        self.n_sources = len(self.scenario.sources)

    def _units(self, n_units: int) -> List[Any]:
        """Per unit: a session seed, or the round's recorded streams."""
        if self.workload.kind == "session":
            return [int(state[0]) for state in unit_state(self.seed, n_units)]
        inputs = record_round(
            self.scenario, unit_state(self.seed, 1)[0], self.workdir / "streams"
        )
        return [inputs] * n_units

    def _run_unit(self, i: int, unit: Any, out: Pass, tag: str,
                  spans: Optional[list] = None) -> None:
        if self.workload.kind == "session":
            run_session(self.scenario, unit, f"session-{i}", out)
        else:
            run_round(unit, self.workdir / f"{tag}-{i}", out, spans=spans,
                      label=f"round-{i}/")

    # -- untraced run: end-to-end metrics --

    def measure(self) -> Pass:
        units = self._units(self.workload.units(self.seconds))
        out = Pass()
        for i, unit in enumerate(units):
            for j in range(self.workload.setup_samples - 1):
                if self.workload.kind == "session":
                    setup_session(self.scenario, unit, out)
                else:
                    run_round(unit, self.workdir / f"setup-{i}-{j}", out,
                              timed=False)
            self._run_unit(i, unit, out, "round")
        self._check_replays(units, out)
        check_accuracy(out, self.n_sources)
        return out

    # -- traced run: per-layer metrics --

    def trace(self) -> tuple:
        """Each unit untraced, then traced.

        Returns ``(untraced, traced, spans)`` where ``spans`` holds every
        traced span as a row, for writing out when the run ends.
        """
        units = self._units(max(1, math.ceil(self.workload.units(self.seconds) / 2)))
        plain, traced = Pass(), Pass()
        rows: List[list] = []
        for i, unit in enumerate(units):
            self._run_unit(i, unit, plain, "plain")
            recorder = SpanRecorder()
            layers.install(recorder)
            try:
                self._run_unit(i, unit, traced, "traced", spans=recorder.spans)
            finally:
                layers.uninstall()
            traced.summaries.append(layers.summarize(recorder.spans))
            rows.extend(span.to_row() for span in recorder.spans)
        for label, records in plain.records.items():
            compare(traced, label, traced.records.get(label, []), records,
                    "the untraced run")
        self._check_replays(units, traced)
        check_accuracy(traced, self.n_sources)
        return plain, traced, rows

    def _check_replays(self, units: List[Any], out: Pass) -> None:
        """Compare every served session with its stream replayed in process.

        Runs after all timed rounds, on one process per shard.  The
        processes fork, like the shard workers: a spawn context would
        start a resource-tracker process that outlives the benchmark.
        """
        if self.workload.kind != "serve":
            return
        sessions = units[0].sessions
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(SERVE_SHARDS, mp_context=context) as pool:
            references = pool.map(replay_reference, [s[2] for s in sessions])
            reference_of = dict(zip((s[0] for s in sessions), references))
        for i in range(len(units)):
            for session_id, reference in reference_of.items():
                key = f"round-{i}/{session_id}"
                if key in out.records:
                    compare(out, key, out.records[key], reference,
                            "the in-process replay")


def per_layer(plain: Pass, traced: Pass, n_sources: int) -> List[Metric]:
    """The traced run's per-layer metrics (per step unless stated)."""
    n = sum(s["n_steps"] for s in traced.summaries)
    selfs: Dict[str, float] = {}
    durations: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    host_step = 0.0
    for summary in traced.summaries:
        for table, source in ((selfs, "self_seconds"), (durations, "durations"),
                              (counts, "counts")):
            for key, value in summary[source].items():
                table[key] = table.get(key, 0.0) + value
        host_step += summary["host_step_seconds"]

    def ms(layer: str) -> Metric:
        name = layer + "_ms"
        return Metric(name, 1e3 * selfs.get(layer, 0.0) / max(1, n), "ms", n)

    def per_step(name: str, key: str, unit: str = "count") -> Metric:
        return Metric(name, counts.get(key, 0.0) / max(1, n), unit, n)

    def ratio(name: str, num: str, den: str, unit: str = "ratio") -> Metric:
        d = counts.get(den, 0.0)
        return Metric(name, counts.get(num, 0.0) / d if d else 0.0, unit, int(d))

    wall = sum(traced.latencies)
    total_self = sum(selfs.values())
    plain_rate = len(plain.latencies) / plain.wall if plain.wall else 0.0
    traced_rate = len(traced.latencies) / traced.wall if traced.wall else 0.0
    busy = traced.shard_busy
    checkpoints = counts.get("sim.checkpoint.checkpoints", 0.0)
    metrics = [
        ms("core.extract"),
        per_step("core.extract_calls", "core.extract.calls"),
        per_step("core.meanshift_dense", "core.extract.meanshift_dense"),
        per_step("core.meanshift_truncated", "core.extract.meanshift_truncated"),
        ratio("core.estimate_cache_hit_ratio", "core.estimates_other.cache_hits",
              "core.estimates_other.calls"),
        ms("core.estimates_other"),
        ms("core.index"),
        per_step("core.index_rebuilds", "core.index.rebuilds"),
        per_step("core.index_incremental", "core.index.incremental"),
        ms("core.select"),
        ratio("core.select_yield", "core.select.returned", "core.select.scanned"),
        ratio("core.touched_per_reading", "core.select.returned",
              "core.observe_other.readings", "count"),
        ms("core.weight"),
        ms("core.resample"),
        per_step("core.resampled_per_step", "core.resample.resampled"),
        per_step("core.injected_per_step", "core.resample.injected"),
        ms("core.observe_other"),
        ms("streams.measure"),
        ms("network.push"),
        ms("eval.evaluate"),
        ms("core.diagnostics"),
        ms("sim.checkpoint"),
        Metric("sim.checkpoint_bytes",
               counts.get("sim.checkpoint.bytes", 0.0) / checkpoints
               if checkpoints else 0.0, "bytes", int(checkpoints)),
        ms("sim.session_other"),
        ms("serve.queue_wait"),
        Metric("serve.shard_call_ms", 1e3 * host_step / max(1, n), "ms", n),
        Metric("serve.session_compute_ms",
               1e3 * durations.get("serve.host_other", 0.0) / max(1, n), "ms", n),
        Metric("serve.ipc_ms", 1e3 * selfs.get("serve.shard_call", 0.0) / max(1, n),
               "ms", n),
        ms("serve.host_other"),
        Metric("serve.shard_busy_share_max",
               max(busy.values()) / sum(busy.values())
               if busy and sum(busy.values()) else 0.0, "ratio", len(busy)),
        Metric("serve.retries", float(traced.retries), "count", n),
        Metric("serve.resurrections", float(traced.resurrections), "count", n),
        Metric("serve.shed", float(traced.shed), "count", n),
        Metric("trace.coverage", total_self / wall if wall else 0.0, "ratio", n),
        Metric("trace.overhead", traced_rate / plain_rate if plain_rate else 0.0,
               "ratio", len(plain.latencies)),
    ]
    metrics.extend(accuracy(traced, n_sources).values())
    return metrics
