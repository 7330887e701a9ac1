"""Property-based tests for the admission-control state machine.

The invariants pinned here:

* a shed request **always** gets a typed rejection -- never a hang,
  never a silent drop;
* evict -> restore round-trips are **bitwise** (the resume-parity
  harness from ``test_session_checkpoint`` applied through the service).
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    AdmissionConfig,
    AdmissionController,
    Admitted,
    Rejected,
    TokenBucket,
    is_rejected,
)
from repro.sim.serialization import scenario_to_dict
from tests.test_session_checkpoint import tiny_scenario


class FakeClock:
    def __init__(self, start: float = 1000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTokenBucketProperties:
    @given(
        rate=st.floats(min_value=0.5, max_value=100.0),
        capacity=st.floats(min_value=1.0, max_value=20.0),
        gaps=st.lists(
            st.floats(min_value=0.0, max_value=5.0), max_size=50
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_tokens_never_exceed_capacity(self, rate, capacity, gaps):
        clock = FakeClock()
        bucket = TokenBucket(rate, capacity, clock=clock)
        for gap in gaps:
            clock.advance(gap)
            assert 0.0 <= bucket.tokens <= capacity + 1e-9
            bucket.try_acquire()

    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, capacity=3.0, clock=clock)
        assert [bucket.try_acquire() for _ in range(4)] == [
            True, True, True, False,
        ]
        assert bucket.seconds_until_available() == pytest.approx(0.5)
        clock.advance(0.5)
        assert bucket.try_acquire() is True

    def test_never_blocks(self):
        bucket = TokenBucket(rate=1.0, capacity=1.0, clock=FakeClock())
        bucket.try_acquire()
        # Exhausted bucket answers immediately, no waiting.
        assert bucket.try_acquire() is False


def controller(clock=None, **overrides):
    defaults = dict(
        max_sessions=8,
        tenant_max_sessions=4,
        tenant_rate=1000.0,
        tenant_burst=1000.0,
    )
    defaults.update(overrides)
    return AdmissionController(
        AdmissionConfig(**defaults), clock=clock or FakeClock()
    )


class TestAdmissionControllerProperties:
    @given(
        n_tenants=st.integers(min_value=1, max_value=4),
        n_requests=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_request_gets_a_typed_answer(self, n_tenants, n_requests):
        ctl = controller()
        outcomes = []
        for i in range(n_requests):
            tenant = f"tenant-{i % n_tenants}"
            outcomes.append(ctl.admit(tenant, f"session-{i}"))
        # No hangs by construction (synchronous); every outcome is typed.
        assert all(isinstance(o, (Admitted, Rejected)) for o in outcomes)
        admitted = [o for o in outcomes if isinstance(o, Admitted)]
        assert ctl.active_sessions == len(admitted)
        assert ctl.active_sessions <= ctl.config.max_sessions
        for i in range(n_tenants):
            assert (
                ctl.tenant_active(f"tenant-{i}")
                <= ctl.config.tenant_max_sessions
            )

    def test_tenant_quota_rejection(self):
        ctl = controller(tenant_max_sessions=2)
        assert isinstance(ctl.admit("t", "a"), Admitted)
        assert isinstance(ctl.admit("t", "b"), Admitted)
        rejected = ctl.admit("t", "c")
        assert is_rejected(rejected)
        assert rejected.reason == "tenant_quota"
        assert rejected.status == 503

    def test_service_capacity_rejection(self):
        ctl = controller(max_sessions=2, tenant_max_sessions=2)
        ctl.admit("t1", "a")
        ctl.admit("t1", "b")
        rejected = ctl.admit("t2", "c")
        assert rejected.reason == "service_capacity"

    def test_rate_limit_rejection_has_retry_after(self):
        clock = FakeClock()
        ctl = controller(clock, tenant_rate=1.0, tenant_burst=1.0)
        assert isinstance(ctl.admit("t", "a"), Admitted)
        rejected = ctl.admit("t", "b")
        assert rejected.reason == "rate_limited"
        assert rejected.status == 429
        assert rejected.retry_after is not None and rejected.retry_after > 0
        clock.advance(1.5)
        assert isinstance(ctl.admit("t", "b"), Admitted)

    def test_release_frees_quota(self):
        ctl = controller(tenant_max_sessions=1)
        ctl.admit("t", "a")
        assert ctl.admit("t", "b").reason == "tenant_quota"
        ctl.release("a")
        assert isinstance(ctl.admit("t", "b"), Admitted)
        # Double release is harmless.
        ctl.release("a")
        assert ctl.active_sessions == 1

    def test_quarantine_gates_and_expires(self):
        clock = FakeClock()
        ctl = controller(clock)
        ctl.quarantine("t", duration=10.0)
        rejected = ctl.admit("t", "a")
        assert rejected.reason == "tenant_quarantined"
        assert rejected.retry_after == pytest.approx(10.0)
        clock.advance(10.1)
        assert isinstance(ctl.admit("t", "a"), Admitted)

    def test_snapshot_shape(self):
        ctl = controller()
        ctl.admit("t", "a")
        ctl.admit("t", "b")
        snap = ctl.snapshot()
        assert snap["active_sessions"] == 2
        assert snap["tenants"]["t"]["admitted"] == 2


class TestEvictRestoreBitwise:
    """Evict -> restore must round-trip bitwise through the service."""

    @pytest.mark.parametrize("seed,evict_at", [(3, 1), (7, 2), (11, 3)])
    def test_round_trip_is_bitwise(self, tmp_path, seed, evict_at):
        from repro.serve import LocalizationService, ServiceConfig
        from repro.sim.serialization import step_record_to_dict
        from repro.sim.session import LocalizerSession

        async def serve_run():
            service = LocalizationService(
                ServiceConfig(
                    checkpoint_dir=tmp_path / "ckpts",
                    n_shards=1,
                    inline=True,
                )
            )
            spec = {
                "scenario": scenario_to_dict(tiny_scenario()),
                "seed": seed,
            }
            assert isinstance(
                await service.submit("t", "s", spec), Admitted
            )
            await service.advance("s", evict_at)
            evicted = await service.evict("s")
            assert (tmp_path / "ckpts" / "s.ckpt.json").exists()
            assert evicted["step_index"] == evict_at
            restored = await service.restore("s")
            assert isinstance(restored, Admitted)
            result = await service.run_to_completion("s")
            await service.close()
            return result

        result = asyncio.run(serve_run())
        live = LocalizerSession(tiny_scenario(), seed=seed).run()

        def strip(docs):
            return [
                {k: v for k, v in d.items() if k != "mean_iteration_seconds"}
                for d in docs
            ]

        live_docs = [step_record_to_dict(s) for s in live.steps]
        assert strip(result["steps"]) == strip(live_docs)

    def test_restore_without_evict_is_typed_conflict(self, tmp_path):
        from repro.serve import LocalizationService, ServiceConfig

        async def run():
            service = LocalizationService(
                ServiceConfig(
                    checkpoint_dir=tmp_path, n_shards=1, inline=True
                )
            )
            spec = {
                "scenario": scenario_to_dict(tiny_scenario()),
                "seed": 3,
            }
            await service.submit("t", "s", spec)
            outcome = await service.restore("s")
            await service.close()
            return outcome

        outcome = asyncio.run(run())
        assert is_rejected(outcome)
        assert outcome.reason == "not_evicted"
        assert outcome.status == 409
