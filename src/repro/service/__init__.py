"""repro.service -- the concurrent multi-stream synopsis service.

The serving layer over :mod:`repro.runtime`: a :class:`StreamService`
hosts many named streams, each a registry-built maintainer behind a
bounded ingest queue drained by a worker thread, with snapshot-isolated
queries (``range_sum`` / ``quantile`` / ``histogram`` / ``stats``) and
durable checkpoint/restore via checksummed binary snapshots in a
directory that is their only record.  The fault-tolerance subsystem --
worker supervision with bounded-backoff restarts
(:class:`StreamSupervisor`), poison-record quarantine
(:class:`DeadLetterBuffer`), snapshot generation fallback, per-stream
health states, and the deterministic :class:`FaultInjector` chaos
harness -- keeps hosted synopses exact across crashes.  The QoS
layer (:class:`QoSConfig` / :class:`QoSController`) adds multi-tenant
admission control and a graceful-degradation ladder so overload sheds
low-priority load deterministically instead of failing everyone.  See
``docs/API.md`` ("Service layer", "Fault tolerance" and "QoS") and the
README serving quickstart.
"""

from .deadletter import DeadLetterBuffer, DeadLetterRecord
from .faults import FaultInjector, InjectedFault
from .queries import (
    MaterializedView,
    UnsupportedQueryError,
    freeze_synopsis,
    view_histogram,
    view_quantile,
    view_range_sum,
)
from .protocol import ServiceProtocol, StreamSpec, UnknownStreamError
from .qos import (
    DEGRADATION_LEVELS,
    QoSConfig,
    QoSController,
    QuotaExceededError,
    TenantQuota,
)
from .service import StreamService
from .snapshot import SnapshotCorruptError, SnapshotStore
from .stream_worker import (
    BackpressureError,
    StreamWorker,
    WorkerCounters,
    WorkerFailedError,
)
from .supervisor import RestartPolicy, StreamFailedError, StreamSupervisor

__all__ = [
    "BackpressureError",
    "DEGRADATION_LEVELS",
    "DeadLetterBuffer",
    "DeadLetterRecord",
    "FaultInjector",
    "InjectedFault",
    "MaterializedView",
    "QoSConfig",
    "QoSController",
    "QuotaExceededError",
    "RestartPolicy",
    "ServiceProtocol",
    "SnapshotCorruptError",
    "SnapshotStore",
    "StreamFailedError",
    "StreamService",
    "StreamSpec",
    "StreamSupervisor",
    "StreamWorker",
    "TenantQuota",
    "UnknownStreamError",
    "UnsupportedQueryError",
    "WorkerCounters",
    "WorkerFailedError",
    "freeze_synopsis",
    "view_histogram",
    "view_quantile",
    "view_range_sum",
]
