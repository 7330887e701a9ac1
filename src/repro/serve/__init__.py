"""Multi-tenant serving front-end for streaming localization sessions.

* :mod:`repro.serve.admission` -- quotas, token-bucket rate limits,
  typed load shedding.
* :mod:`repro.serve.breaker` -- per-tenant circuit breakers and the
  deterministic exponential retry schedule.
* :mod:`repro.serve.shard` -- the worker-side session host (many
  sessions per process, checkpoint-backed).
* :mod:`repro.serve.service` -- the asyncio supervision tree tying it
  together: deadlines, retries, resurrection, health endpoints.

See ``docs/SERVING.md`` for the architecture and failure doctrine.
"""

from repro.serve.admission import (
    AdmissionConfig,
    AdmissionController,
    Admitted,
    Rejected,
    TokenBucket,
    is_rejected,
)
from repro.serve.breaker import (
    BreakerBoard,
    CircuitBreaker,
    step_backoff_seconds,
)
from repro.serve.service import (
    LocalizationService,
    ServiceConfig,
    SessionHandle,
    StepFailed,
)
from repro.serve.shard import ShardHost

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "Admitted",
    "BreakerBoard",
    "CircuitBreaker",
    "LocalizationService",
    "Rejected",
    "ServiceConfig",
    "SessionHandle",
    "ShardHost",
    "StepFailed",
    "TokenBucket",
    "is_rejected",
    "step_backoff_seconds",
]
