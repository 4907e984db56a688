"""Parallel execution backend: multi-core fleet GEMMs and sharded kernels.

FIFL's per-round pipeline is embarrassingly parallel across workers —
fleet local SGD stacks N private models into one batched kernel, and the
detection/contribution/reward kernels are pure per-row reductions. This
package adds the execution layer that spreads those row shards across
cores behind one switch::

    FederatedTrainer(..., backend="thread", max_workers=4)
    FedExpConfig(backend="thread")

* :mod:`repro.parallel.backend` — ``serial`` (the differential oracle)
  and ``thread`` (persistent pool; the big NumPy kernels release the
  GIL) behind :func:`make_backend`, both with ordered-reduce semantics
  so results are byte-identical to serial regardless of shard
  completion order. The trainer owns the one pool of a run and hands it
  to the mechanism (``attach_backend``).
* :mod:`repro.parallel.blas` — :func:`blas_limits`, the BLAS/OMP
  thread-count guard against ``pool x blas`` oversubscription.

Telemetry: every parallel dispatch emits ``parallel.*`` metrics and one
``parallel.round`` event (pool size, shard count, per-shard wall time,
queue wait); the monitor's ``shard-straggler`` rule watches those for
shards stalling far beyond their siblings.
"""

from .backend import (
    BACKENDS,
    ExecutionBackend,
    SerialBackend,
    ThreadBackend,
    auto_workers,
    backend_summary,
    emit_parallel_telemetry,
    make_backend,
)
from .blas import blas_limits, blas_thread_count

__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "auto_workers",
    "backend_summary",
    "emit_parallel_telemetry",
    "make_backend",
    "blas_limits",
    "blas_thread_count",
]
