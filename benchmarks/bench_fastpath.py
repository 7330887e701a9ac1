"""Fast-path compute layer: speedup and parity on the Table I scenario.

Compares the default configuration (estimate cache + truncated-kernel
mean-shift) against ``config.without_fast_paths()`` --
the reference implementations every fast path is parity-tested against --
on the paper's hardest Table I cell: 15000 particles, N = 196 sensors.

Two artifacts come out of the full run:

* ``benchmarks/results/BENCH_fastpath.json`` -- machine-readable timing
  and parity summary (consumed by CI / tracking scripts);
* the usual text report next to it.

The ``smoke`` test runs the same comparison on a reduced scenario and
asserts parity only (never wall-clock), so CI can catch fast-path
regressions on shared runners without flaking on timing.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import BENCH_SEED, write_bench_json
from repro.core.backend import ArrayBackend
from repro.core.estimator import extract_estimates
from repro.core.localizer import MultiSourceLocalizer
from repro.core.meanshift import select_seeds, truncated_mean_shift_modes
from repro.eval.reporting import format_table
from repro.sensors.network import SensorNetwork
from repro.sim.rng import spawn_rngs
from repro.sim.scenarios import scenario_b

WARMUP_STEPS = 2
TIMED_ITERATIONS = 12

#: The fast float32 backend's speedup bar on the Table I cell
#: (acceptance criterion; the cache+truncated layer alone must
#: still clear 2x).
BACKEND_SPEEDUP_BAR = 8.5

#: Estimates from the truncated kernel must land within this distance of
#: the dense-kernel reference (the downstream merge radius is the
#: bandwidth, 8.0 in scenario B; drift is typically < 0.01).
PARITY_TOLERANCE = 0.5

#: Tighter budget for the float32 backend extraction: its modes must sit
#: within two mean-shift tolerances (tol = 0.01 in scenario B) of the
#: float64 reference extraction on the same population.
BACKEND_PARITY_TOLERANCE = 0.02

#: Seed for the parity extraction rngs (select_seeds draws from it; both
#: extractions must see identical draws to compare like with like).
PARITY_SEED = 7


def _run(config, n_particles, n_iterations):
    """Observe+estimate iterations under ``config``.

    Returns (seconds/iteration, final localizer).  Every run rebuilds the
    scenario from the same seeds, so the fast and reference configurations
    consume an identical measurement stream.  The reported figure is the
    per-iteration *median*: preemption on shared/virtualized runners only
    ever inflates individual laps, so the median tracks the true cost
    where a whole-loop mean absorbs every steal spike.
    """
    scenario = scenario_b(n_particles=n_particles)
    measurement_rng, _t, filter_rng = spawn_rngs(BENCH_SEED, 3)
    network = SensorNetwork(
        scenario.sensors, scenario.field_with_obstacles(), measurement_rng
    )
    localizer = MultiSourceLocalizer(config, rng=filter_rng)
    for t in range(WARMUP_STEPS):
        for measurement in network.measure_time_step(t):
            localizer.observe(measurement)
    measurements = network.measure_time_step(WARMUP_STEPS)
    laps = []
    for i in range(n_iterations):
        start = time.perf_counter()
        localizer.observe(measurements[i % len(measurements)])
        localizer.estimates()
        laps.append(time.perf_counter() - start)
    return float(np.median(laps)), localizer


def _extraction_parity(localizer, config, tolerance=PARITY_TOLERANCE):
    """Fast vs reference extraction on the SAME final population.

    End-to-end trajectories legitimately drift apart between the two
    configurations (the truncated kernel feeds marginally different
    interference corrections back into the weighting), so the meaningful
    parity check is on identical inputs: run the fast and the dense
    reference extraction over the same particles with identical seed rngs
    and require the same candidate count with matching positions.
    Returns the per-candidate deviations.
    """
    particles = localizer.particles
    fast = extract_estimates(
        particles, config, np.random.default_rng(PARITY_SEED)
    )
    reference = extract_estimates(
        particles,
        config.without_fast_paths(),
        np.random.default_rng(PARITY_SEED),
    )
    assert len(fast) == len(reference), (
        f"fast extraction found {len(fast)} candidates, "
        f"reference found {len(reference)}"
    )
    deltas = []
    for ref in reference:
        delta = min(float(np.hypot(e.x - ref.x, e.y - ref.y)) for e in fast)
        assert delta < tolerance, (
            f"reference candidate ({ref.x:.2f}, {ref.y:.2f}) has no fast-path "
            f"match within {tolerance} (nearest: {delta:.3f})"
        )
        deltas.append(delta)
    return deltas


def _time_ms(fn, repeats=5):
    """Best-of-N wall time of ``fn`` in milliseconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def _kernel_timings(localizer, config):
    """Per-kernel fast-vs-reference timings on the final population.

    Milliseconds per call, best of five.  These land in the bench JSON's
    ``timings`` block (and the CI artifact) for drill-down; wall-clock is
    machine-specific, so only the ratio metrics gate.
    """
    particles = localizer.particles
    backend = localizer.backend
    reference = ArrayBackend()
    seeds = select_seeds(
        particles.positions,
        particles.weights,
        config.meanshift_seeds,
        np.random.default_rng(PARITY_SEED),
    )
    grid = particles.grid(config.grid_cell())

    def backend_meanshift():
        backend.meanshift_modes(particles, seeds, config)

    def truncated_meanshift():
        truncated_mean_shift_modes(
            seeds,
            particles.positions,
            particles.weights,
            bandwidth=config.bandwidth,
            grid=grid,
            truncation_sigmas=config.meanshift_truncation_sigmas,
            tol=config.meanshift_tol,
            max_iter=config.meanshift_max_iter,
        )

    weights = np.abs(particles.weights) + 1e-12
    total = float(weights.sum())

    def fast_prefix_sum():
        backend.prefix_sum(weights, total)

    def reference_prefix_sum():
        reference.prefix_sum(weights, total)

    return {
        "meanshift_backend_ms": _time_ms(backend_meanshift),
        "meanshift_truncated_ms": _time_ms(truncated_meanshift),
        "prefix_sum_fast_ms": _time_ms(fast_prefix_sum),
        "prefix_sum_reference_ms": _time_ms(reference_prefix_sum),
    }


def test_fastpath_speedup_table1(report, benchmark):
    """The headline numbers on the 15000-particle / N=196 cell.

    The cache+truncated layer must clear 2x; the float32 SoA
    backend on top of it must clear :data:`BACKEND_SPEEDUP_BAR`.
    """
    n_particles = 15000

    def measure():
        scenario_config = scenario_b(n_particles=n_particles).localizer_config
        ref_seconds, _ref = _run(
            scenario_config.without_fast_paths(), n_particles, TIMED_ITERATIONS
        )
        fast_seconds, fast_localizer = _run(
            scenario_config, n_particles, TIMED_ITERATIONS
        )
        deltas = _extraction_parity(fast_localizer, scenario_config)
        backend_config = scenario_config.with_overrides(backend="fast")
        backend_seconds, backend_localizer = _run(
            backend_config, n_particles, TIMED_ITERATIONS
        )
        backend_deltas = _extraction_parity(backend_localizer, backend_config)
        kernels = _kernel_timings(backend_localizer, backend_config)
        return (
            ref_seconds, fast_seconds, deltas,
            backend_seconds, backend_deltas, kernels,
        )

    (
        ref_seconds, fast_seconds, deltas,
        backend_seconds, backend_deltas, kernels,
    ) = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = ref_seconds / fast_seconds
    backend_speedup = ref_seconds / backend_seconds

    report.add(
        format_table(
            ["path", "ms/iter", "speedup"],
            [
                ["reference", round(ref_seconds * 1000, 2), 1.0],
                [
                    "fast (cache+truncated)",
                    round(fast_seconds * 1000, 2),
                    round(speedup, 2),
                ],
                [
                    "fast backend (float32 SoA)",
                    round(backend_seconds * 1000, 2),
                    round(backend_speedup, 2),
                ],
            ],
            title=f"Full observe+estimate iteration, {n_particles} particles, N=196",
        )
    )
    report.add(
        format_table(
            ["kernel", "ms/call"],
            [[name, round(ms, 3)] for name, ms in kernels.items()],
            title="Per-kernel timings (final population, best of 5)",
        )
    )
    report.add(
        f"extraction parity: {len(deltas)} candidates on both paths, "
        f"max deviation {max(deltas):.4f} (truncated) / "
        f"{max(backend_deltas):.4f} (backend), tolerance {PARITY_TOLERANCE}"
    )

    parity_ok = float(
        max(deltas) <= PARITY_TOLERANCE
        and max(backend_deltas) <= BACKEND_PARITY_TOLERANCE
    )
    write_bench_json(
        "fastpath",
        metrics={
            "reference_ms_per_iteration": ref_seconds * 1000,
            "fast_ms_per_iteration": fast_seconds * 1000,
            "backend_ms_per_iteration": backend_seconds * 1000,
            "speedup": speedup,
            "backend_speedup": backend_speedup,
            "parity_ok": parity_ok,
        },
        config={
            "n_particles": n_particles,
            "n_sensors": 196,
            "seed": BENCH_SEED,
            "timed_iterations": TIMED_ITERATIONS,
            "backend": "fast",
        },
        timings=kernels,
        detail={
            "parity": {
                "n_candidates": len(deltas),
                "max_position_deviation": max(deltas),
                "max_backend_deviation": max(backend_deltas),
                "tolerance": PARITY_TOLERANCE,
            },
        },
    )
    assert speedup >= 2.0, (
        f"fast path is only {speedup:.2f}x the reference "
        f"({fast_seconds * 1000:.1f} vs {ref_seconds * 1000:.1f} ms/iter)"
    )
    assert backend_speedup >= BACKEND_SPEEDUP_BAR, (
        f"fast backend is only {backend_speedup:.2f}x the reference "
        f"({backend_seconds * 1000:.1f} vs {ref_seconds * 1000:.1f} ms/iter)"
    )
    assert max(backend_deltas) <= BACKEND_PARITY_TOLERANCE, (
        f"backend extraction deviates {max(backend_deltas):.4f} from the "
        f"float64 reference (budget {BACKEND_PARITY_TOLERANCE})"
    )


def test_fastpath_smoke_parity(report, benchmark):
    """Reduced-scenario parity check for CI: parity gates, never ms.

    2000 particles with the truncation gate lowered so every fast path
    (cache, truncated kernel, float32 backend) actually executes;
    the reference run must agree on the source count and positions.
    Writes ``BENCH_fastpath.json`` so the CI regression gate can compare
    ``parity_ok`` and the (machine-portable) ``speedup`` ratio against
    the committed baseline -- the baseline floor is deliberately far
    below the full bench's bar so shared runners cannot flake the gate.
    """
    n_particles = 2000

    def measure():
        scenario_config = scenario_b(
            n_particles=n_particles
        ).localizer_config.with_overrides(meanshift_truncation_min_particles=256)
        ref_seconds, _ref = _run(
            scenario_config.without_fast_paths(), n_particles, 4
        )
        fast_seconds, fast_localizer = _run(scenario_config, n_particles, 4)
        deltas = _extraction_parity(fast_localizer, scenario_config)
        backend_config = scenario_config.with_overrides(backend="fast")
        backend_seconds, backend_localizer = _run(backend_config, n_particles, 4)
        backend_deltas = _extraction_parity(backend_localizer, backend_config)
        return (
            ref_seconds, fast_seconds, deltas, backend_seconds, backend_deltas,
        )

    (
        ref_seconds, fast_seconds, deltas, backend_seconds, backend_deltas,
    ) = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = ref_seconds / backend_seconds
    report.add(
        f"smoke parity: {len(deltas)} candidates on all paths, "
        f"max deviation {max(deltas):.4f} (truncated) / "
        f"{max(backend_deltas):.4f} (backend); "
        f"ref {ref_seconds * 1000:.1f} ms/iter, "
        f"fast {fast_seconds * 1000:.1f} ms/iter, "
        f"backend {backend_seconds * 1000:.1f} ms/iter "
        "(wall-clock informational only)"
    )
    parity_ok = float(
        max(deltas) <= PARITY_TOLERANCE
        and max(backend_deltas) <= PARITY_TOLERANCE
    )
    write_bench_json(
        "fastpath",
        metrics={
            "parity_ok": parity_ok,
            "speedup": speedup,
        },
        config={
            "mode": "smoke",
            "n_particles": n_particles,
            "n_sensors": 196,
            "seed": BENCH_SEED,
            "backend": "fast",
        },
        detail={
            "parity": {
                "n_candidates": len(deltas),
                "max_position_deviation": max(deltas),
                "max_backend_deviation": max(backend_deltas),
                "tolerance": PARITY_TOLERANCE,
            },
            "reference_ms_per_iteration": ref_seconds * 1000,
            "backend_ms_per_iteration": backend_seconds * 1000,
        },
    )


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s", "--benchmark-disable"])
