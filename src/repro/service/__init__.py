"""Scheduling-as-a-service: the relative scheduler behind an HTTP API.

The service stack, bottom up:

* :mod:`repro.service.pool` -- a bounded worker pool; connections are
  cheap, scheduling work is admitted (:class:`PoolSaturatedError`
  -> HTTP 503);
* :mod:`repro.service.app` -- transport-agnostic dispatch: endpoints
  (each ``/schedule`` request is scheduled on its own pool thread;
  ``/schedule_many`` is the arena kernel's entry point), budgets, the
  error contract;
* :mod:`repro.service.sessions` -- the bounded table of durable
  executor sessions (journaled ``/sessions`` streams with idempotent
  replay and crash recovery);
* :mod:`repro.service.server` -- the stdlib HTTP front
  (``ThreadingHTTPServer``) and :func:`serve`;
* :mod:`repro.service.client` -- the JSON client the tests, smoke
  harness and benchmark share.

Start one from the command line with ``repro serve``.
"""

from repro.service.app import (
    PROTOCOL_VERSION,
    SchedulingService,
    ServiceConfig,
    ServiceError,
)
from repro.service.client import ServiceClient
from repro.service.pool import (
    JobTimeoutError,
    PoolSaturatedError,
    PoolShutdownError,
    WorkerPool,
)
from repro.service.server import ServiceServer, serve
from repro.service.sessions import Session, SessionSealedError, SessionTable

__all__ = [
    "PROTOCOL_VERSION",
    "JobTimeoutError",
    "PoolSaturatedError",
    "PoolShutdownError",
    "SchedulingService",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceServer",
    "Session",
    "SessionSealedError",
    "SessionTable",
    "WorkerPool",
    "serve",
]
