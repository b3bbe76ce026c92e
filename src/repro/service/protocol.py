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
* the checkpoint scheduler: a *unit* (a router's shard, a threaded
  service's stream with a ``checkpoint_every``) falls due once its
  cadence of points has been delivered to it.  The producer that trips
  it only marks it due; the tier's one checkpointer thread runs the
  owed checkpoints, oldest first, and a producer waits
  (``repro_checkpoint_wait_seconds``) only while its unit owes one
  behind a running one.  A unit's checkpoints, automatic or public, run
  one at a time (``repro_checkpoint_seconds``, from when each fell
  due); a dropped unit's owed ones count as run, and ``close()`` lets a
  running one finish and drops the owed ones.  A router without a
  ``snapshot_dir`` checkpoints into a private temporary directory,
  which ``checkpoint()`` and ``restore()`` refuse and ``close()``
  removes;
* reporting: ``qos()``, the QoS part of every health report, the
  counting of failed automatic checkpoints, and metric export.

Each tier supplies only its transport, through the abstract methods
below: how a stream is hosted, how an admitted batch is delivered (a
worker submit or a frame send), which unit hosts a stream, and what
one unit's checkpoint is (a stream's capture and write, or a shard
barrier).  Code written against
this class runs unchanged on either tier; it deliberately excludes
``view()`` / ``synopsis()``, which hand out live in-process objects that
cannot cross a process boundary.
"""

from __future__ import annotations

import logging
import shutil
import tempfile
import threading
import time
from abc import ABC, abstractmethod
from collections import Counter, deque
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

#: Automatic checkpoint cadence, in points framed to a shard, of a
#: :class:`~repro.shard.ShardRouter` checkpointing into its private store
#: (unless a stream on the shard sets its own ``checkpoint_every``).  It
#: sets the router's frame-log bound per shard, ``(snapshot_keep + 1) x
#: (2^18 + one batch)`` points: 787,968 with the default keep and
#: 512-point batches.
DEFAULT_CHECKPOINT_EVERY = 1 << 18

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


class _Schedule:
    """One checkpoint unit's schedule (see the module notes)."""

    def __init__(self, key, lock, registry: MetricsRegistry, labels: dict) -> None:
        self.key = key
        self.seconds = registry.histogram("repro_checkpoint_seconds", **labels)
        self.wait_seconds = registry.histogram(
            "repro_checkpoint_wait_seconds", **labels
        )
        self.cadence: int | None = None
        self.points = 0  # delivered since the unit last fell due
        # When it fell due, oldest first: the first is running (or next).
        self.due: deque[float] = deque()
        self.done = 0  # owed checkpoints run (or failed) so far
        self.changed = threading.Condition(lock)
        self.running = threading.Lock()  # one checkpoint at a time


class ServiceProtocol(ABC):
    """Base class of a multi-stream synopsis service tier.

    ``qos`` attaches multi-tenant admission control and the graceful-
    degradation ladder (a :class:`~repro.service.qos.QoSConfig`, or a
    pre-built :class:`~repro.service.qos.QoSController`, which then
    records into this tier's registry).  ``snapshot_dir`` is the
    caller's store directory; without one, ``private_store`` (the
    router's, whose frame log needs a store) gets the private store.
    """

    def __init__(
        self,
        qos: QoSConfig | QoSController | None,
        snapshot_dir=None,
        *,
        private_store: bool = False,
    ) -> None:
        self.registry = MetricsRegistry()
        self._qos = tier_controller(
            qos, self.registry, self._qos_signals, self._qos_drained
        )
        self._specs: dict[str, StreamSpec] = {}
        self._checkpoint_errors: Counter[str] = Counter()
        self._closed = False
        # The store's directory: the caller's, a private one when the
        # tier must bound its logs without one, or None (no checkpoints).
        self._private_dir = None
        if private_store and not snapshot_dir:
            self._private_dir = Path(tempfile.mkdtemp(prefix="repro-"))
        self._snapshot_base = Path(snapshot_dir) if snapshot_dir else self._private_dir
        self._schedules: dict = {}
        # Guards the schedule map; wakes the checkpointer when a unit
        # falls due (and at close).
        self._checkpointer_cond = threading.Condition()
        self._checkpointer_thread: threading.Thread | None = None

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
        self._reschedule()

    def _unregister(self, name: str) -> None:
        del self._specs[name]
        self._checkpoint_errors.pop(name, None)
        if self._qos is not None:
            self._qos.forget_stream(name)
        self._reschedule()

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

    def checkpoint(self, name: str | None = None) -> list[str]:
        """Write durable snapshots of the unit hosting ``name`` (of every
        unit without one); returns the written paths.  Each waits for an
        automatic checkpoint of its unit still running.  Refused without
        the caller's ``snapshot_dir``."""
        if self._snapshot_base is None or self._private_dir is not None:
            raise RuntimeError(
                f"{type(self).__name__} was created without a snapshot_dir"
            )
        paths: list[str] = []
        for key in self._units(name):
            schedule = self._schedules.get(key)  # None: never due
            paths.extend(
                self._checkpoint_unit(key) if schedule is None
                else self._checkpoint_now(schedule)
            )
        return paths

    def _remove_private_dir(self) -> None:
        if self._private_dir is not None:
            shutil.rmtree(self._private_dir, ignore_errors=True)

    # -- the checkpoint scheduler ---------------------------------------

    @abstractmethod
    def _checkpoint_unit(self, key) -> list[str]:
        """One checkpoint of a unit (its turn held); returns the paths."""

    @abstractmethod
    def _unit_of(self, name: str):
        """The unit hosting a registered stream (its checkpoint covers it)."""

    def _units(self, name: str | None = None) -> list:
        """The unit hosting ``name``, or every unit hosting a stream."""
        if name is not None:
            self.spec(name)  # raises UnknownStreamError
            return [self._unit_of(name)]
        return sorted({self._unit_of(stream) for stream in list(self._specs)})

    def _unit_streams(self, key) -> list[str]:
        """The streams a unit hosts, sorted."""
        return sorted(n for n in list(self._specs) if self._unit_of(n) == key)

    def _add_schedule(self, key, lock=None, **labels) -> _Schedule:
        """Schedule a unit; its counts are guarded by ``lock`` (and so is
        what the tier's delivery does under it)."""
        schedule = _Schedule(key, lock or threading.Lock(), self.registry, labels)
        with self._checkpointer_cond:
            self._schedules[key] = schedule
        self._reschedule()
        return schedule

    def _drop_schedule(self, key) -> None:
        """Forget a unit once a checkpoint of it running now has ended;
        the ones it still owes count as run."""
        with self._checkpointer_cond:
            schedule = self._schedules.pop(key, None)
        if schedule is None:
            return
        with schedule.running, schedule.changed:
            schedule.done += len(schedule.due)
            schedule.due.clear()
            schedule.changed.notify_all()

    def _reschedule(self) -> None:
        """Every unit's cadence (on each registration change): the smallest
        ``checkpoint_every`` of its streams, where, with a private store,
        a stream without one takes :data:`DEFAULT_CHECKPOINT_EVERY`."""
        default = None if self._private_dir is None else DEFAULT_CHECKPOINT_EVERY
        cadences: dict = {}
        for name, spec in list(self._specs.items()):
            every = spec.checkpoint_every or default
            cadences.setdefault(self._unit_of(name), []).append(every)
        for key, schedule in list(self._schedules.items()):
            schedule.cadence = min(filter(None, cadences.get(key, ())), default=None)

    def _scheduled(self, schedule: _Schedule, deliver) -> int:
        """Run ``deliver()`` (a batch's hand-off; it returns the points)
        under the unit's lock: first wait while the unit owes a checkpoint
        behind a running one, then count the points, and mark the unit due
        when they reach its cadence."""
        with schedule.changed:
            if len(schedule.due) > 1:
                started = time.perf_counter()
                schedule.changed.wait_for(
                    lambda: len(schedule.due) < 2 or self._closed
                )
                schedule.wait_seconds.observe(time.perf_counter() - started)
            points = deliver()
            schedule.points += points
            due = schedule.cadence is not None and schedule.points >= schedule.cadence
            if due:
                schedule.points = 0
                schedule.due.append(time.perf_counter())
        if due:
            with self._checkpointer_cond:
                if self._checkpointer_thread is None and not self._closed:
                    self._checkpointer_thread = threading.Thread(
                        target=self._checkpointer, name="repro-checkpointer",
                        daemon=True,
                    )
                    self._checkpointer_thread.start()
                self._checkpointer_cond.notify()
        return points

    def _checkpointer(self) -> None:
        """Run the owed checkpoints, oldest first, one at a time."""
        while True:
            with self._checkpointer_cond:
                owing = []
                while not self._closed and not owing:
                    owing = [s for s in self._schedules.values() if s.due]
                    if not owing:
                        self._checkpointer_cond.wait()
                if self._closed:
                    return
            self._run_due(min(owing, key=lambda s: s.due[0]))

    def _run_due(self, schedule: _Schedule) -> None:
        """Run a unit's oldest owed checkpoint without failing a producer:
        a failure counts against every stream of the unit
        (``repro_checkpoint_errors_total{stream}``, ``health(name)
        ["checkpoint_errors"]``), and the next one tries again."""
        try:
            self._checkpoint_now(schedule, schedule.due[0])
        except Exception:
            streams = self._unit_streams(schedule.key)
            logger.warning(
                "automatic checkpoint of %s failed", ", ".join(streams),
                exc_info=True,
            )
            with self._checkpointer_cond:  # not for a stream dropped since
                if self._schedules.get(schedule.key) is schedule:
                    for name in streams:
                        self._checkpoint_errors[name] += 1
                        self.registry.counter(
                            "repro_checkpoint_errors_total", stream=name
                        ).inc()
        finally:
            with schedule.changed:
                if schedule.due:  # not when a drop has counted it
                    schedule.due.popleft()
                    schedule.done += 1
                schedule.changed.notify_all()

    def _checkpoint_now(self, schedule: _Schedule, since=None) -> list[str]:
        """A unit's checkpoint, once one of it running now has ended,
        timed from ``since`` (when it fell due; the call by default)."""
        since = since or time.perf_counter()
        with schedule.running:
            if self._schedules.get(schedule.key) is not schedule:
                return []  # dropped meanwhile
            paths = self._checkpoint_unit(schedule.key)
        schedule.seconds.observe(time.perf_counter() - since)
        return paths

    def _await_checkpoints(self, keys, timeout: float | None = None) -> bool:
        """Wait until the checkpoints these units owe now have run (or
        ``close()`` dropped them); False if one did not in ``timeout``."""
        finished = True
        for schedule in filter(None, map(self._schedules.get, keys)):
            with schedule.changed:
                owed = schedule.done + len(schedule.due)
                finished = schedule.changed.wait_for(
                    lambda s=schedule, n=owed: s.done >= n or self._closed,
                    timeout=timeout,
                ) and finished
        return finished

    def close(self, checkpoint: bool | None = None) -> None:
        """Drain and stop (idempotent): a running checkpoint finishes and
        the owed ones are dropped first.  ``checkpoint`` asks for a final
        one into the caller's ``snapshot_dir`` (``None``: the tier's
        default); a private store takes none and is removed."""
        if self._closed:
            return
        self._closed = True
        with self._checkpointer_cond:
            self._checkpointer_cond.notify_all()
        if self._checkpointer_thread is not None:
            self._checkpointer_thread.join()
        for schedule in list(self._schedules.values()):
            with schedule.changed:  # the producers waiting on it go on
                schedule.changed.notify_all()
        try:
            self._shutdown(False if self._private_dir is not None else checkpoint)
        finally:
            self._remove_private_dir()

    @abstractmethod
    def _shutdown(self, checkpoint: bool | None) -> None:
        """Stop the tier's transport, with a final checkpoint or not."""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(checkpoint=False if exc_type else None)
