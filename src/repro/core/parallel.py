"""A persistent, self-repairing process pool for multi-process subsystems.

Each serving-layer shard and the experiment engine in :mod:`repro.exp`
own one long-lived :class:`WorkerPool`.  Mean-shift extraction does not
use one: it runs in-process (see
:func:`repro.core.estimator.extract_estimates`).
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, List, Optional


class WorkerPool:
    """A persistent, lazily-built, self-repairing process pool.

    Any subsystem (the serving shards, the experiment engine in
    :mod:`repro.exp`) can own one long-lived pool:

    * the executor is created on first use, not at construction, so a pool
      configured but never exercised costs nothing;
    * :meth:`run_batch` transparently rebuilds the executor once and
      retries if its workers died between calls (``BrokenProcessPool``);
    * :meth:`discard` tears the executor down *without waiting* -- the
      recovery path for stuck or killed workers -- while :meth:`close`
      shuts down cleanly.  Either way the pool stays usable: the next
      call builds a fresh executor.

    An optional ``tracer`` (any object with an ``emit(type, **fields)``
    method and an ``enabled`` flag, i.e. :class:`repro.obs.trace.Tracer`)
    records the pool's lifecycle -- ``pool_build`` / ``pool_discard`` /
    ``pool_close`` events tagged with the build count -- so a merged
    sweep trace shows exactly when the pool was rebuilt and why results
    arrived in the order they did.
    """

    def __init__(
        self,
        n_workers: int,
        initializer=None,
        initargs: tuple = (),
        tracer=None,
    ):
        if n_workers < 1:
            raise ValueError(f"WorkerPool needs n_workers >= 1, got {n_workers}")
        self.n_workers = int(n_workers)
        self._initializer = initializer
        self._initargs = initargs
        self._executor: Optional[ProcessPoolExecutor] = None
        self.tracer = tracer
        #: Executors created so far (1 after first use; +1 per repair).
        self.builds = 0

    def _emit(self, event: str, **fields) -> None:
        if self.tracer is not None and getattr(self.tracer, "enabled", False):
            self.tracer.emit(event, n_workers=self.n_workers, **fields)

    def executor(self) -> ProcessPoolExecutor:
        """The live executor, building it on first use."""
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.n_workers,
                initializer=self._initializer,
                initargs=self._initargs,
            )
            self.builds += 1
            self._emit("pool_build", build=self.builds)
        return self._executor

    def submit(self, fn: Callable, *args, **kwargs) -> Future:
        return self.executor().submit(fn, *args, **kwargs)

    def run_batch(self, fn: Callable, payloads: Iterable) -> List:
        """``map(fn, payloads)`` with a single rebuild-and-retry on breakage."""
        payloads = list(payloads)
        try:
            return list(self.executor().map(fn, payloads))
        except BrokenProcessPool:
            # Workers died between calls; rebuild once and retry.
            self.discard()
            return list(self.executor().map(fn, payloads))

    #: Grace period between SIGTERM and SIGKILL in :meth:`discard`.
    KILL_DEADLINE_SECONDS = 2.0

    def discard(self, kill_deadline: Optional[float] = None) -> None:
        """Drop the executor without waiting for in-flight work.

        Used to recover from hung or killed workers: pending futures are
        cancelled and worker processes still running a task are escalated
        through a hard-kill deadline -- ``terminate()`` (SIGTERM), a
        bounded ``join``, then ``kill()`` (SIGKILL) for anything that
        ignored the polite signal -- and finally reaped, so a discard can
        neither hang on a SIGTERM-blocking worker nor leak zombies.  The
        next call builds a fresh executor.
        """
        if self._executor is None:
            return
        if kill_deadline is None:
            kill_deadline = self.KILL_DEADLINE_SECONDS
        executor, self._executor = self._executor, None
        processes = list(getattr(executor, "_processes", {}).values())
        # Captured before shutdown, which drops the executor's reference.
        manager = getattr(executor, "_executor_manager_thread", None)
        executor.shutdown(wait=False, cancel_futures=True)
        terminated = 0
        for process in processes:
            if process.is_alive():
                process.terminate()
                terminated += 1
        killed = 0
        deadline_each = kill_deadline / max(1, terminated) if terminated else 0.0
        for process in processes:
            process.join(timeout=deadline_each)
            if process.is_alive():
                process.kill()
                killed += 1
        for process in processes:
            # Post-SIGKILL join cannot block; it reaps the zombie.
            process.join()
        # The executor's manager thread joins the same processes; when it
        # wins the reap, the exit code lands only once that thread stores
        # it, so wait for it before reporting the workers gone.
        if manager is not None:
            manager.join(timeout=kill_deadline)
        self._emit(
            "pool_discard",
            build=self.builds,
            terminated=terminated,
            killed=killed,
        )

    def close(self) -> None:
        """Shut the executor down cleanly (the pool can be reused)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
            self._emit("pool_close", build=self.builds)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "live" if self._executor is not None else "idle"
        return f"WorkerPool(n_workers={self.n_workers}, {state}, builds={self.builds})"
