"""The one front door both serving tiers share.

:class:`ServiceProtocol` is the base class of the two tiers:

* :class:`~repro.service.service.StreamService` -- the in-process,
  thread-per-stream engine (the *shard core*);
* :class:`~repro.shard.router.ShardRouter` -- the multi-process tier
  that consistent-hashes streams onto N shard processes, each of which
  runs a ``StreamService`` internally.

It holds the one copy of everything a request meets before it reaches
a tier's transport:

* registration: the closed, name and duplicate checks, the spec map and
  the QoS registration that every create, restore and drop goes through
  (``_register`` / ``_unregister``), ``create_stream``'s spec versus
  ``backend``/``params`` handling, ``streams``, ``spec`` and the
  :class:`UnknownStreamError` message;
* admission: ``ingest`` validates the batch and runs QoS admission
  (which accounts shed mass) before the tier delivers what is left;
  ``update`` / ``update_many`` encode turnstile updates onto that path,
  and ``retry_dead_letters`` charges a retry all or nothing;
* reporting: ``qos()``, the QoS part of every health report, the
  counting of failed automatic checkpoints, and metric export.

Each tier supplies only its transport, through the abstract methods
below: how a stream is hosted, how an admitted batch is delivered (a
worker submit or a frame send), and when an automatic checkpoint is
due.  Code written against this class runs unchanged on either tier;
it deliberately excludes ``view()`` / ``synopsis()``, which hand out
live in-process objects that cannot cross a process boundary.
"""

from __future__ import annotations

import logging
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path

from ..core.prefix import as_stream_batch
from ..counting.encoding import encode_update, encode_updates
from ..obs.accuracy import OPTIONS as ACCURACY_OPTIONS
from ..obs.accuracy import AccuracyMonitor
from ..obs.export import samples_to_jsonl, samples_to_prometheus_text
from ..obs.metrics import MetricsRegistry
from ..runtime.registry import make_maintainer
from .qos import QoSConfig, QoSController, tier_controller
from .stream_worker import BACKPRESSURE_POLICIES, POISON_POLICIES

__all__ = [
    "DEFAULT_CHECKPOINT_EVERY",
    "ServiceProtocol",
    "StreamSpec",
    "UnknownStreamError",
]

logger = logging.getLogger(__name__)

#: Automatic checkpoint cadence, in points, of a stream without its own
#: ``checkpoint_every`` on a tier that checkpoints into a private store
#: (a :class:`~repro.shard.ShardRouter` without a ``snapshot_dir``).
#: Each barrier stalls its producer for tens of milliseconds; this
#: cadence keeps that under a tenth of ingest time while bounding each
#: recovery log at about ``snapshot_keep`` times this many points.
DEFAULT_CHECKPOINT_EVERY = 1 << 20

#: Accuracy keys an older version persisted; a restored spec drops them.
_RETIRED_ACCURACY_KEYS = ("epsilon", "mode", "probes", "seed", "num_buckets")


class UnknownStreamError(KeyError):
    """The service hosts no stream under the requested name."""


def _valid_stream_name(name: str) -> bool:
    # Names become snapshot filenames ("<name>-<seq>.snap"); excluding
    # "-" keeps the sequence separator unambiguous.
    return bool(name) and name.replace("_", "").replace(".", "").isalnum()


@dataclass(frozen=True)
class StreamSpec:
    """Declarative configuration of one hosted stream.

    ``backend``/``params`` feed the maintainer registry
    (:func:`~repro.runtime.registry.make_maintainer`); the rest shapes
    the worker: maintenance cadence, queue bound, full-queue policy,
    poison-record policy (``"quarantine"`` dead-letters offending
    points, ``"fail"`` kills the worker), and an optional automatic
    checkpoint cadence in ingested points.

    ``tenant`` and ``priority`` place the stream in the QoS model (see
    :mod:`repro.service.qos`): the tenant's token bucket meters its
    ingest, and the priority class (``0`` most critical) decides what
    the degradation ladder sheds first.  Both are inert until the
    service is built with a QoS config.

    ``accuracy`` opts the stream into online accuracy monitoring: a
    keyword dict for :class:`~repro.obs.accuracy.AccuracyMonitor` with
    any of ``window_size``, ``check_every`` and ``max_reports`` (``{}``
    takes the defaults).  The monitor audits the live maintainer
    through its backend's exact oracle, against the backend's own
    bound, and reports through stats, metrics and ``accuracy()``.  For
    a window backend ``window_size`` is the synopsis window: leave it
    out to take it, any other size is a ``ValueError``.
    """

    backend: str
    params: dict = field(default_factory=dict)
    maintain_every: int | None = 1
    queue_capacity: int = 1024
    backpressure: str = "block"
    checkpoint_every: int | None = None
    poison: str = "quarantine"
    accuracy: dict | None = None
    tenant: str = "default"
    priority: int = 1

    def __post_init__(self) -> None:
        if not self.tenant or not isinstance(self.tenant, str):
            raise ValueError("tenant must be a non-empty string")
        if not isinstance(self.priority, int) or self.priority < 0:
            raise ValueError("priority must be an int >= 0 (0 most critical)")
        if self.maintain_every is not None and self.maintain_every < 1:
            raise ValueError("maintain_every must be >= 1 (or None)")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.backpressure not in BACKPRESSURE_POLICIES:
            raise ValueError(
                f"unknown backpressure policy {self.backpressure!r}; "
                f"use one of {BACKPRESSURE_POLICIES}"
            )
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1 (or None)")
        if self.poison not in POISON_POLICIES:
            raise ValueError(
                f"unknown poison policy {self.poison!r}; "
                f"use one of {POISON_POLICIES}"
            )
        if self.accuracy is not None:
            if not isinstance(self.accuracy, dict):
                raise ValueError("accuracy must be a keyword dict (or None)")
            unknown = sorted(set(self.accuracy) - set(ACCURACY_OPTIONS))
            if unknown:
                raise ValueError(
                    f"unknown accuracy option(s) {unknown}; "
                    f"use {list(ACCURACY_OPTIONS)}"
                )
            AccuracyMonitor(self.backend, self.params, **self.accuracy)

    def build_maintainer(self):
        return make_maintainer(self.backend, **self.params)

    def to_dict(self) -> dict:
        return {
            "backend": self.backend,
            "params": dict(self.params),
            "maintain_every": self.maintain_every,
            "queue_capacity": self.queue_capacity,
            "backpressure": self.backpressure,
            "checkpoint_every": self.checkpoint_every,
            "poison": self.poison,
            "accuracy": None if self.accuracy is None else dict(self.accuracy),
            "tenant": self.tenant,
            "priority": self.priority,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "StreamSpec":
        accuracy = payload.get("accuracy")
        if accuracy is not None:
            retired = _RETIRED_ACCURACY_KEYS
            accuracy = {k: v for k, v in accuracy.items() if k not in retired}
        return cls(
            backend=payload["backend"],
            params=dict(payload.get("params", {})),
            maintain_every=payload.get("maintain_every", 1),
            queue_capacity=int(payload.get("queue_capacity", 1024)),
            backpressure=payload.get("backpressure", "block"),
            checkpoint_every=payload.get("checkpoint_every"),
            poison=payload.get("poison", "quarantine"),
            accuracy=accuracy,
            tenant=payload.get("tenant", "default"),
            priority=int(payload.get("priority", 1)),
        )


class ServiceProtocol(ABC):
    """Base class of a multi-stream synopsis service tier.

    ``qos`` attaches multi-tenant admission control and the graceful-
    degradation ladder (a :class:`~repro.service.qos.QoSConfig`, or a
    pre-built :class:`~repro.service.qos.QoSController`, which then
    records into this tier's registry).
    """

    def __init__(self, qos: QoSConfig | QoSController | None) -> None:
        self.registry = MetricsRegistry()
        self._qos = tier_controller(
            qos, self.registry, self._qos_signals, self._qos_drained
        )
        self._specs: dict[str, StreamSpec] = {}
        self._checkpoint_errors: dict[str, int] = {}
        self._closed = False

    # -- stream lifecycle ----------------------------------------------

    def create_stream(
        self,
        name: str,
        backend: str | None = None,
        params: dict | None = None,
        *,
        spec: StreamSpec | None = None,
        **options,
    ):
        """Register and start a stream.

        Either pass a full :class:`StreamSpec` via ``spec`` or the
        ``backend``/``params`` pair plus spec fields as keyword options
        (``maintain_every``, ``queue_capacity``, ``backpressure``,
        ``checkpoint_every``, ``poison``, ``accuracy``, ``tenant``,
        ``priority``).
        """
        if spec is None:
            if backend is None:
                raise ValueError("need either a spec or a backend name")
            spec = StreamSpec(backend=backend, params=dict(params or {}), **options)
        elif backend is not None or params is not None or options:
            raise ValueError("pass either spec or backend/params/options, not both")
        return self._add_stream(name, spec)

    def _add_stream(self, name: str, spec: StreamSpec, **restored):
        """Register, then host; a stream the tier cannot host is unregistered."""
        self._register(name, spec)
        try:
            return self._host_stream(name, spec, **restored)
        except BaseException:
            self._unregister(name)
            raise

    def _register(self, name: str, spec: StreamSpec) -> None:
        if self._closed:
            raise RuntimeError(f"{type(self).__name__} is closed")
        if not _valid_stream_name(name):
            raise ValueError(
                f"invalid stream name {name!r}; use letters, digits, '_' or '.'"
            )
        if name in self._specs:
            raise ValueError(f"stream {name!r} already exists")
        self._specs[name] = spec
        if self._qos is not None:
            self._qos.register_stream(name, spec.tenant, spec.priority)

    def _unregister(self, name: str) -> None:
        del self._specs[name]
        self._checkpoint_errors.pop(name, None)
        if self._qos is not None:
            self._qos.forget_stream(name)

    def streams(self) -> list[str]:
        """Hosted stream names, sorted."""
        return sorted(self._specs)

    def spec(self, name: str) -> StreamSpec:
        """The :class:`StreamSpec` a stream was created with."""
        try:
            return self._specs[name]
        except KeyError:
            raise self._unknown(name) from None

    def _unknown(self, name: str) -> UnknownStreamError:
        known = ", ".join(self.streams()) or "<none>"
        return UnknownStreamError(f"no stream named {name!r}; hosted: {known}")

    @abstractmethod
    def _host_stream(self, name: str, spec: StreamSpec, **restored):
        """Start hosting a registered stream (the tier's transport)."""

    @abstractmethod
    def drop_stream(self, name: str, drain: bool = True) -> None:
        """Stop and forget a stream (snapshots stay on disk)."""

    # -- ingestion ------------------------------------------------------

    def ingest(self, name: str, values) -> int:
        """Admit a batch for a stream; returns the accepted point count.

        Safe to call from any thread.  With QoS configured the batch
        first passes admission control: a tenant over its token-bucket
        quota gets a typed :class:`~repro.service.qos.QuotaExceededError`
        (with ``retry_after``), and under overload the degradation ladder
        may deterministically shed part of a sheddable stream's batch;
        the controller counts the shed mass (see ``qos()``).  What is
        left goes to the tier, whose backpressure and automatic
        checkpoint cadence then apply.
        """
        if name not in self._specs:
            raise self._unknown(name)
        batch = as_stream_batch(values)
        if self._qos is not None:
            batch, _ = self._qos.admit(name, batch)
        if batch.size == 0:
            return 0
        return self._deliver(name, batch)

    def update(self, name: str, key: int, delta: int = 1) -> int:
        """Turnstile update ``f[key] += delta`` on a stream.

        The update is encoded as ``|delta|`` signed unit points (see
        :mod:`repro.counting.encoding`) and rides the ordinary ingest
        path, so admission, backpressure, checkpoints, replay and
        sharding all apply unchanged.  Turnstile backends
        (``cr_precis``) decode deletions; insert-only backends
        quarantine them as poison.
        """
        return self.ingest(name, encode_update(key, delta))

    def update_many(self, name: str, updates) -> int:
        """Apply ``(key, delta)`` turnstile updates as one batch."""
        return self.ingest(name, encode_updates(updates))

    @abstractmethod
    def _deliver(self, name: str, batch) -> int:
        """Hand an admitted, non-empty batch to the stream's host."""

    @abstractmethod
    def flush(self, name: str | None = None, timeout: float | None = None) -> bool:
        """Wait until queued points are ingested (one stream or all)."""

    # -- dead letters ---------------------------------------------------

    @abstractmethod
    def dead_letters(self, name: str) -> list:
        """Quarantined poison records of a stream, oldest first."""

    def retry_dead_letters(self, name: str) -> dict:
        """Re-feed a stream's quarantined records; returns outcome counts.

        With QoS configured the retried mass re-enters admission: the
        whole retry is charged against the stream tenant's quota
        (all-or-nothing -- a partial shed of a poison retry would make
        the outcome counts meaningless) and is refused outright while
        the ladder is at ``shed`` or above for a sheddable stream.
        """
        self.spec(name)
        if self._qos is not None:
            pending = len(self.dead_letters(name))
            if pending:
                self._qos.admit_retry(name, pending)
        return self._redeliver_dead_letters(name)

    @abstractmethod
    def _redeliver_dead_letters(self, name: str) -> dict:
        """Re-feed the quarantined records (admission already passed)."""

    # -- queries --------------------------------------------------------

    @abstractmethod
    def range_sum(self, name: str, start: int, end: int) -> float:
        """Estimated sum over window positions ``[start, end]``."""

    @abstractmethod
    def quantile(self, name: str, fraction: float) -> float:
        """Approximate ``fraction``-quantile of the summarized values."""

    @abstractmethod
    def histogram(self, name: str) -> dict:
        """JSON-friendly rendering of the stream's synopsis."""

    @abstractmethod
    def stats(self, name: str | None = None) -> dict:
        """Ingest/maintenance/queue telemetry (one stream or all)."""

    # -- QoS, health and observability ----------------------------------

    def qos(self) -> dict | None:
        """QoS snapshot: ladder level, tenant buckets, per-stream shed
        mass (None when QoS is not configured).  Forces a ladder
        evaluation, so polling this drives demotion on a quiet tier.
        """
        if self._qos is None:
            return None
        return self._qos.snapshot()

    @abstractmethod
    def _qos_signals(self) -> dict:
        """Overload signals for the ladder: queue fill and p99 latency."""

    @abstractmethod
    def _qos_drained(self) -> bool:
        """Has the backlog drained (the gate for leaving stale_serve)?"""

    @abstractmethod
    def health(self, name: str | None = None) -> dict:
        """Health report (one stream, or all streams keyed by name)."""

    def _front_health(self, report: dict) -> dict:
        """Add the front door's part to a tier's health report.

        ``checkpoint_errors`` counts this stream's failed automatic
        checkpoints.  With QoS, ``degradation`` names the ladder level;
        at ``stale_serve`` a sheddable stream is intentionally degraded:
        ``qos_shed`` and ``stale_view`` are set, because its queries
        answer from the last materialized view.
        """
        name = report["stream"]
        report["checkpoint_errors"] = self._checkpoint_errors.get(name, 0)
        if self._qos is not None:
            report["degradation"] = self._qos.level_name()
            if self._qos.serving_stale(name):
                report["qos_shed"] = True
                report["stale_view"] = True
                if report["state"] == "healthy":
                    report["state"] = "degraded"
        return report

    @abstractmethod
    def metrics(self, name: str | None = None) -> list[dict]:
        """Metric samples (whole service, or one stream's)."""

    def _collect(self) -> list[dict]:
        """Every sample of this process's registry.

        ``repro_process_cpu_seconds`` (user plus system CPU of the
        collecting process) is refreshed first, so a sharded tier's
        merged samples carry one per process: the router's and each
        shard host's.
        """
        self.registry.gauge("repro_process_cpu_seconds").set(time.process_time())
        return self.registry.collect()

    def prometheus_metrics(self) -> str:
        """Every metric in Prometheus text exposition format."""
        return samples_to_prometheus_text(self.metrics())

    def export_metrics_jsonl(self, path) -> Path:
        """Append every current sample to ``path`` as JSON lines."""
        path = Path(path)
        with open(path, "a") as handle:
            handle.write(samples_to_jsonl(self.metrics()))
        return path

    @abstractmethod
    def accuracy(self, name: str) -> dict | None:
        """Accuracy-monitor summary (None when not configured)."""

    # -- certification and durability ----------------------------------

    @abstractmethod
    def certify(self, name: str, **kwargs) -> dict:
        """Differential certification report; ``report['passed']``."""

    @abstractmethod
    def checkpoint(self, name: str | None = None) -> list[str]:
        """Write durable snapshots; returns the written paths."""

    def _auto_checkpoint(self, checkpoint, streams) -> None:
        """Run an automatic checkpoint without ever failing the producer.

        A failure counts against every stream the checkpoint covered
        (``repro_checkpoint_errors_total{stream}`` and
        ``health(name)["checkpoint_errors"]``); the tier's next cadence,
        or an explicit ``checkpoint()``, tries again.
        """
        try:
            checkpoint()
        except Exception:
            logger.warning(
                "automatic checkpoint of %s failed", ", ".join(streams),
                exc_info=True,
            )
            for name in streams:
                self._checkpoint_errors[name] = (
                    self._checkpoint_errors.get(name, 0) + 1
                )
                self.registry.counter(
                    "repro_checkpoint_errors_total", stream=name
                ).inc()

    @abstractmethod
    def close(self, checkpoint: bool | None = None) -> None:
        """Drain and stop (idempotent)."""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(checkpoint=False if exc_type else None)
