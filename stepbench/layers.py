"""The layer boundaries the benchmark times, wrapped from outside.

:func:`install` replaces each public function listed in
:func:`boundaries` with a wrapper that records a span (see
:mod:`spans`); :func:`uninstall` puts the originals back.  No program
file changes.  Install before any session or shard pool exists: shard
workers fork from the benchmark process and inherit the wrappers.

Spans are recorded only inside a session step.  A step starts at
``LocalizerSession.step`` (in process), ``LocalizationService.advance``
(the serving client's request) or ``ShardHost.step`` (inside a shard
worker); a wrapper called outside a step costs one context lookup.

Two rules keep layers apart:

* a boundary called inside a span of its own layer opens no new span
  (``super()`` chains, ``observe`` inside ``observe_batch``);
* disc queries made by extraction (mean-shift gathers and support
  queries) fold into ``core.extract``: ``core.select`` is the
  fusion-range selection of the observe path only.  Index maintenance
  stays ``core.index`` whichever layer triggers it.
"""

from __future__ import annotations

import functools
import inspect
import resource
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from spans import Span, SpanRecorder, attach, self_times


@dataclass(frozen=True)
class Boundary:
    owner: Any
    attr: str
    layer: str
    #: Ancestor layers under which this boundary opens no span.
    fold: tuple = ()
    #: ``root(args, recorder) -> step key``: this boundary may start a step.
    root: Optional[Callable] = None
    #: Start a new step even inside an open span (a forked worker's
    #: context can hold a parent span that is not its own).
    always_root: bool = False
    #: ``probe(args, recorder) -> state`` before the call.
    probe: Optional[Callable] = None
    #: ``count(span, args, result, state)`` after the call.
    count: Optional[Callable] = None
    #: Count-only boundary: ``tally(span, args, result, state)`` updates
    #: the enclosing ``layer`` span and opens no span of its own.
    tally: Optional[Callable] = None


# --- counters ---------------------------------------------------------------


def _local_step_key(args, recorder):
    return ("local", len(recorder.spans))


def _host_step_key(args, recorder):
    host, session_id = args[0], args[1]
    session = host.sessions.get(session_id)
    return (session_id, session.step_index if session is not None else -1)


def _service_step_key(args, recorder):
    service, session_id = args[0], args[1]
    handle = service.sessions.get(session_id)
    return (session_id, handle.step_index if handle is not None else -1)


def _count_checkpoint(span, args, result, state):
    span.count("checkpoints")
    span.count("bytes", int(result))


def _count_readings(span, args, result, state):
    span.count("readings", len(args[1]))


def _probe_spans(args, recorder):
    return recorder.spans, len(recorder.spans)


def _count_estimates(span, args, result, state):
    spans, before = state
    span.count("calls")
    if not any(s.name == "core.extract" for s in spans[before:]):
        span.count("cache_hits")


def _count_call(span, args, result, state):
    span.count("calls")


def _probe_grid(args, recorder):
    particles = args[0]
    return particles.grid_rebuilds, particles.grid_incremental_updates


def _count_grid(span, args, result, state):
    particles = args[0]
    span.count("rebuilds", particles.grid_rebuilds - state[0])
    span.count("incremental", particles.grid_incremental_updates - state[1])


def _count_brute_select(span, args, result, state):
    span.count("returned", len(result))
    span.count("scanned", len(args[0]))


def _probe_grid_candidates(args, recorder):
    return args[0].grid_candidates


def _count_grid_select(span, args, result, state):
    span.count("returned", len(result))
    span.count("scanned", args[0].grid_candidates - state)


def _probe_batch_candidates(args, recorder):
    return args[1].candidates_scanned


def _count_batch_select(span, args, result, state):
    _flat, offsets = result
    span.count("returned", int(offsets[-1]))
    span.count("scanned", args[1].candidates_scanned - state)


def _tally_dense(span, args, result, state):
    span.count("meanshift_dense")


def _tally_truncated(span, args, result, state):
    span.count("meanshift_truncated")


def _probe_dense(args, recorder):
    frame = recorder.current()
    counts = recorder.spans[frame.index].counts if frame is not None else None
    return (counts or {}).get("meanshift_dense", 0)


def _tally_backend(span, args, result, state):
    # The backend kernel falls back to the dense sweep for small
    # populations; that call tallies itself.
    if (span.counts or {}).get("meanshift_dense", 0) == state:
        span.count("meanshift_truncated")


def _count_resample(span, args, result, state):
    span.count("resampled", result.n_resampled)
    span.count("injected", result.n_injected)


# --- the boundary table -----------------------------------------------------


def _defining(module, base, attr) -> List[type]:
    """Classes in ``module`` deriving from ``base`` that define ``attr``."""
    found = []
    for value in vars(module).values():
        if (
            isinstance(value, type)
            and value not in found
            and issubclass(value, base)
            and attr in value.__dict__
            and not getattr(value.__dict__[attr], "__isabstractmethod__", False)
        ):
            found.append(value)
    return found


def boundaries() -> List[Boundary]:
    """Every wrapped boundary, importing the program lazily."""
    from repro.core import backend as backend_mod
    from repro.core import estimator as estimator_mod
    from repro.core import localizer as localizer_mod
    from repro.core import meanshift as meanshift_mod
    from repro.core.diagnostics import ConvergenceMonitor
    from repro.core.particles import ParticleSet
    from repro.network import transport
    from repro.serve.service import LocalizationService
    from repro.serve.shard import ShardHost
    from repro.sim import session as session_mod
    from repro.streams.source import MeasurementSource

    table = [
        Boundary(session_mod.LocalizerSession, "step", "sim.session_other",
                 root=_local_step_key),
        Boundary(session_mod.LocalizerSession, "save_checkpoint",
                 "sim.checkpoint", count=_count_checkpoint),
        Boundary(MeasurementSource, "measure", "streams.measure"),
        Boundary(localizer_mod.MultiSourceLocalizer, "observe_batch",
                 "core.observe_other", count=_count_readings),
        Boundary(localizer_mod.MultiSourceLocalizer, "estimates",
                 "core.estimates_other", probe=_probe_spans,
                 count=_count_estimates),
        Boundary(localizer_mod, "extract_estimates", "core.extract",
                 count=_count_call),
        Boundary(estimator_mod, "mean_shift_modes", "core.extract",
                 tally=_tally_dense),
        Boundary(meanshift_mod, "mean_shift_modes", "core.extract",
                 tally=_tally_dense),
        Boundary(estimator_mod, "truncated_mean_shift_modes", "core.extract",
                 tally=_tally_truncated),
        Boundary(ParticleSet, "grid", "core.index", probe=_probe_grid,
                 count=_count_grid),
        Boundary(ParticleSet, "indices_within", "core.select",
                 fold=("core.extract",), count=_count_brute_select),
        Boundary(ParticleSet, "indices_within_grid", "core.select",
                 fold=("core.extract",), probe=_probe_grid_candidates,
                 count=_count_grid_select),
        Boundary(localizer_mod, "reweight_in_place", "core.weight"),
        Boundary(localizer_mod, "resample_subset", "core.resample",
                 count=_count_resample),
        Boundary(session_mod, "evaluate_step", "eval.evaluate"),
        Boundary(session_mod, "population_health", "core.diagnostics"),
        Boundary(ConvergenceMonitor, "update", "core.diagnostics"),
        Boundary(ShardHost, "step", "serve.host_other", root=_host_step_key,
                 always_root=True),
        Boundary(LocalizationService, "advance", "serve.queue_wait",
                 root=_service_step_key, always_root=True),
    ]
    for cls in _defining(backend_mod, backend_mod.ArrayBackend, "multi_disc_query"):
        table.append(Boundary(cls, "multi_disc_query", "core.select",
                              fold=("core.extract",),
                              probe=_probe_batch_candidates,
                              count=_count_batch_select))
    for cls in _defining(backend_mod, backend_mod.ArrayBackend, "meanshift_modes"):
        table.append(Boundary(cls, "meanshift_modes", "core.extract",
                              probe=_probe_dense, tally=_tally_backend))
    for attr in ("log_likelihood_batch", "apply_log_likelihood"):
        for cls in _defining(backend_mod, backend_mod.ArrayBackend, attr):
            table.append(Boundary(cls, attr, "core.weight"))
    for attr in ("push", "drain"):
        for cls in _defining(transport, transport.DeliveryStream, attr):
            table.append(Boundary(cls, attr, "network.push"))
    return table


# --- installation -----------------------------------------------------------

#: The recorder the installed wrappers write to.  Process-global because
#: the wrappers themselves are (they replace class and module attributes),
#: and because a shard worker finds its recorder here in
#: :func:`worker_report`.
_RECORDER: Optional[SpanRecorder] = None
_ORIGINALS: List[tuple] = []


def _wrap(recorder: SpanRecorder, boundary: Boundary, original: Callable):
    layer = boundary.layer
    skip = frozenset(boundary.fold) | {layer}

    def enter(args):
        frame = recorder.current()
        if boundary.root is not None and (boundary.always_root or frame is None):
            return recorder.open(layer, boundary.root(args, recorder), root=True)
        if frame is None or skip & frame.layers:
            return None
        return recorder.open(layer)

    def leave(opened, args, result, state, ok):
        index, token = opened
        span = recorder.close(index, token)
        if ok and boundary.count is not None:
            boundary.count(span, args, result, state)

    if boundary.tally is not None:

        @functools.wraps(original)
        def tally_wrapper(*args, **kwargs):
            frame = recorder.current()
            if frame is None or recorder.spans[frame.index].name != layer:
                return original(*args, **kwargs)
            span = recorder.spans[frame.index]
            state = (
                boundary.probe(args, recorder) if boundary.probe is not None else None
            )
            result = original(*args, **kwargs)
            boundary.tally(span, args, result, state)
            return result

        return tally_wrapper

    if inspect.iscoroutinefunction(original):

        @functools.wraps(original)
        async def async_wrapper(*args, **kwargs):
            opened = enter(args)
            if opened is None:
                return await original(*args, **kwargs)
            result, ok = None, False
            try:
                result = await original(*args, **kwargs)
                ok = True
                return result
            finally:
                leave(opened, args, result, None, ok)

        return async_wrapper

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        opened = enter(args)
        if opened is None:
            return original(*args, **kwargs)
        state = (
            boundary.probe(args, recorder) if boundary.probe is not None else None
        )
        result, ok = None, False
        try:
            result = original(*args, **kwargs)
            ok = True
            return result
        finally:
            leave(opened, args, result, state, ok)

    return wrapper


def _wrap_submit(recorder: SpanRecorder, original: Callable):
    """``WorkerPool.submit``: a span from the call until its future completes."""

    @functools.wraps(original)
    def submit(self, fn, *args, **kwargs):
        span = recorder.open_detached("serve.shard_call")
        future = original(self, fn, *args, **kwargs)
        if span is not None:
            span.count(getattr(fn, "__name__", "call"))

            def finished(_future, span=span):
                span.end = recorder.clock()

            future.add_done_callback(finished)
        return future

    return submit


def install(recorder: SpanRecorder) -> None:
    """Wrap every boundary so that it records into ``recorder``."""
    global _RECORDER
    if _RECORDER is not None:
        raise RuntimeError("boundaries are already wrapped")
    from repro.core.parallel import WorkerPool

    for boundary in boundaries():
        original = (
            boundary.owner.__dict__[boundary.attr]
            if isinstance(boundary.owner, type)
            else getattr(boundary.owner, boundary.attr)
        )
        _ORIGINALS.append((boundary.owner, boundary.attr, original))
        setattr(boundary.owner, boundary.attr, _wrap(recorder, boundary, original))
    original = WorkerPool.__dict__["submit"]
    _ORIGINALS.append((WorkerPool, "submit", original))
    WorkerPool.submit = _wrap_submit(recorder, original)
    _RECORDER = recorder


def uninstall() -> None:
    """Restore every original function."""
    global _RECORDER
    while _ORIGINALS:
        owner, attr, original = _ORIGINALS.pop()
        setattr(owner, attr, original)
    _RECORDER = None


def worker_report() -> Dict[str, Any]:
    """Run inside a shard worker: its peak RSS and recorded spans."""
    spans = _RECORDER.spans if _RECORDER is not None else []
    return {
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": [span.to_row() for span in spans],
    }


def attach_worker_spans(parent: List[Span], rows: Sequence[list]) -> None:
    """Hang a worker's step roots under the shard call that carried them."""
    calls: Dict[Any, List[int]] = defaultdict(list)
    for index, span in enumerate(parent):
        if span.name == "serve.shard_call" and span.counts and "host_step" in span.counts:
            calls[span.step].append(index)

    def link(root: Span) -> Optional[int]:
        for index in calls.get(root.step, ()):
            call = parent[index]
            if call.start <= root.start and (call.end is None or root.start <= call.end):
                return index
        return None

    attach(parent, rows, link)


# --- aggregation ------------------------------------------------------------


def summarize(spans: Sequence[Span]) -> Dict[str, Any]:
    """Per-step layer self times (seconds) and counters over all steps."""
    selfs = self_times(spans)
    self_seconds: Dict[str, float] = defaultdict(float)
    durations: Dict[str, float] = defaultdict(float)
    counts: Dict[str, float] = defaultdict(float)
    n_steps = 0
    for span, own in zip(spans, selfs):
        if span.step is None:
            continue
        if span.parent is None:
            n_steps += 1
        if span.end is None:
            raise ValueError(f"span {span!r} never ended")
        self_seconds[span.name] += own
        durations[span.name] += span.end - span.start
        if span.counts:
            for key, value in span.counts.items():
                counts[f"{span.name}.{key}"] += value
    return {
        "n_steps": n_steps,
        "self_seconds": dict(self_seconds),
        "durations": dict(durations),
        "counts": dict(counts),
        "host_step_seconds": sum(
            span.end - span.start
            for span in spans
            if span.name == "serve.shard_call"
            and span.counts
            and "host_step" in span.counts
        ),
    }
