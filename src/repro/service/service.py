"""The multi-stream synopsis service.

:class:`StreamService` hosts many named streams, each a registry-built
maintainer behind a :class:`~repro.service.stream_worker.StreamWorker`:
thread-safe ingestion through bounded per-stream queues, snapshot-
isolated queries against the last materialized synopsis, and durable
checkpoint/restore through a :class:`~repro.service.snapshot.
SnapshotStore`.  This is the serving-layer shape the ROADMAP aims at:
Theorem 1's polylog-per-point maintenance is what makes it feasible to
keep every hosted synopsis continuously queryable while the streams are
live.

With ``supervise=True`` the service also self-heals: a
:class:`~repro.service.supervisor.StreamSupervisor` restarts dead
workers from the newest verifiable snapshot generation with bounded
exponential backoff and a restart budget, replaying the retained batch
log so the recovered synopsis is bit-identical to an uninterrupted run.
Poison records are quarantined per stream
(:class:`~repro.service.deadletter.DeadLetterBuffer`) instead of
killing workers, queries during recovery are answered from the last
view marked ``stale``, and :meth:`StreamService.health` reports
``healthy`` / ``degraded`` / ``failed`` per stream.

Typical lifetime::

    service = StreamService(snapshot_dir="snapshots/", supervise=True)
    service.create_stream(
        "cpu", backend="fixed_window",
        params=dict(window_size=1024, num_buckets=16, epsilon=0.1),
    )
    service.ingest("cpu", samples)          # any thread, backpressured
    service.range_sum("cpu", 100, 499)       # reads the materialized view
    service.health("cpu")                    # healthy / degraded / failed
    service.checkpoint()                     # binary snapshot + manifest
    ...                                      # crash / restart ...
    service = StreamService.restore("snapshots/")   # same state + tail
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Iterable

from ..core.prefix import as_stream_batch
from ..counting.encoding import encode_update, encode_updates
from ..obs.accuracy import AccuracyMonitor
from ..obs.export import to_prometheus_text, write_jsonl
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import SpanRecord, Tracer
from ..runtime.registry import make_maintainer
from .deadletter import DeadLetterBuffer, DeadLetterRecord
from .faults import FaultInjector
from .qos import QoSConfig, QoSController, tier_controller
from .queries import (
    MaterializedView,
    view_histogram,
    view_quantile,
    view_range_sum,
)
from .snapshot import SnapshotStore
from .stream_worker import (
    BACKPRESSURE_POLICIES,
    POISON_POLICIES,
    StreamWorker,
    WorkerFailedError,
)
from .supervisor import RestartPolicy, StreamSupervisor

__all__ = ["StreamService", "StreamSpec", "UnknownStreamError"]


class UnknownStreamError(KeyError):
    """The service hosts no stream under the requested name."""


def _valid_stream_name(name: str) -> bool:
    # Names become snapshot filenames ("<name>-<seq>.snap"); excluding
    # "-" keeps the sequence separator unambiguous.
    return bool(name) and name.replace("_", "").replace(".", "").isalnum()


def _tiles_contiguously(batches, start: int, end: int) -> bool:
    """Do the (start_arrival, batch) pairs cover [start, end) gaplessly?

    The delta-checkpoint safety gate: a delta is only written when the
    replay-log slice provably re-derives every arrival since the last
    checkpoint.  Quarantined poison points never advance the arrival
    counter, so a healthy replay log always tiles; anything else (a
    trimmed log, replay tracking off) fails here and the checkpoint
    falls back to a full snapshot.
    """
    position = start
    for batch_start, batch in batches:
        if batch_start != position:
            return False
        position += int(batch.size)
    return position == end


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
    keyword dict for :class:`~repro.obs.accuracy.AccuracyMonitor`
    (``epsilon`` is required; ``window_size``, ``check_every``,
    ``mode``, ... as needed).  The monitor shadows ingested points with
    an exact window and reports observed epsilon vs the configured
    bound through stats, metrics and ``StreamService.accuracy()``.
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
            if "epsilon" not in self.accuracy:
                raise ValueError("accuracy config needs an 'epsilon' bound")

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
            "accuracy": dict(self.accuracy) if self.accuracy else None,
            "tenant": self.tenant,
            "priority": self.priority,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "StreamSpec":
        return cls(
            backend=payload["backend"],
            params=dict(payload.get("params", {})),
            maintain_every=payload.get("maintain_every", 1),
            queue_capacity=int(payload.get("queue_capacity", 1024)),
            backpressure=payload.get("backpressure", "block"),
            checkpoint_every=payload.get("checkpoint_every"),
            poison=payload.get("poison", "quarantine"),
            accuracy=payload.get("accuracy"),
            tenant=payload.get("tenant", "default"),
            priority=int(payload.get("priority", 1)),
        )


class StreamService:
    """Concurrent host for many named synopsis streams.

    ``supervise=True`` attaches a :class:`StreamSupervisor` (tune it
    with ``restart_policy``); ``fault_injector`` threads a
    :class:`FaultInjector` through every worker and the snapshot store;
    ``snapshot_keep`` bounds the retained snapshot generations per
    stream (>= 2 keeps a fallback behind the newest);
    ``snapshot_base_every`` sets the delta-checkpoint cadence: every
    K-th checkpoint of a stream writes a full base generation and the
    K-1 in between write cheap binary deltas (1, the default, keeps the
    old always-full behavior); ``qos`` attaches multi-tenant admission
    control and the graceful-degradation ladder (a
    :class:`~repro.service.qos.QoSConfig`, or a pre-built
    :class:`~repro.service.qos.QoSController`, which then records into
    this service's registry).
    """

    def __init__(
        self,
        snapshot_dir=None,
        *,
        supervise: bool = False,
        restart_policy: RestartPolicy | None = None,
        fault_injector: FaultInjector | None = None,
        snapshot_keep: int = 2,
        snapshot_base_every: int = 1,
        qos: QoSConfig | QoSController | None = None,
    ) -> None:
        if restart_policy is not None and not supervise:
            raise ValueError("restart_policy requires supervise=True")
        self.registry = MetricsRegistry()
        self.tracer = Tracer(self.registry)
        self._qos = tier_controller(
            qos, self.registry, self._qos_signals, self._qos_drained
        )
        self._store = (
            SnapshotStore(
                snapshot_dir,
                keep=snapshot_keep,
                fault_injector=fault_injector,
                registry=self.registry,
            )
            if snapshot_dir
            else None
        )
        self._injector = fault_injector
        if snapshot_base_every < 1:
            raise ValueError("snapshot_base_every must be >= 1")
        self._snapshot_base_every = int(snapshot_base_every)
        # Per-stream delta counter: full/delta cadence is tracked per
        # stream (not service-wide) so no checkpoint interleaving can
        # starve a stream of base generations and let its replay log
        # and delta chain grow without bound.
        self._deltas_since_base: dict[str, int] = {}
        self._workers: dict[str, StreamWorker] = {}
        self._specs: dict[str, StreamSpec] = {}
        # Arrivals at each stream's last checkpoint.  Replay retention
        # rule: after a write the worker's replay log keeps only what a
        # reader can still ask for.  Without a supervisor the only reader
        # is the next delta checkpoint, which wants the batches since
        # this mark; a supervisor may instead fall back to the oldest
        # retained *base* generation and replay forward from it.
        self._checkpoint_marks: dict[str, int] = {}
        # Arrival positions of the retained base generations (supervised
        # retention reaches back to the oldest one).
        self._generation_arrivals: dict[str, deque] = {}
        self._checkpoint_errors: dict[str, int] = {}
        self._closed = False
        self._supervisor: StreamSupervisor | None = None
        if supervise:
            self._supervisor = StreamSupervisor(self, restart_policy)
            self._supervisor.start()

    # ------------------------------------------------------------------
    # Stream management
    # ------------------------------------------------------------------

    def create_stream(
        self,
        name: str,
        backend: str | None = None,
        params: dict | None = None,
        *,
        spec: StreamSpec | None = None,
        **options,
    ) -> StreamWorker:
        """Register and start a stream.

        Either pass a full :class:`StreamSpec` via ``spec`` or the
        ``backend``/``params`` pair plus spec fields as keyword options
        (``maintain_every``, ``queue_capacity``, ``backpressure``,
        ``checkpoint_every``, ``poison``).
        """
        if spec is None:
            if backend is None:
                raise ValueError("need either a spec or a backend name")
            spec = StreamSpec(backend=backend, params=dict(params or {}), **options)
        elif backend is not None or params is not None or options:
            raise ValueError("pass either spec or backend/params/options, not both")
        return self._start_stream(name, spec, state=None, arrivals=0, tail=())

    def _build_worker(
        self,
        name: str,
        spec: StreamSpec,
        *,
        state: dict | None,
        arrivals: int,
        dead_letter: DeadLetterBuffer | None = None,
    ) -> StreamWorker:
        """A configured (not yet started) worker; shared with recovery."""
        maintainer = spec.build_maintainer()
        if state is not None:
            maintainer.load_state_dict(state)
        accuracy = None
        if spec.accuracy is not None:
            accuracy = AccuracyMonitor(
                registry=self.registry, stream=name, **spec.accuracy
            )
        on_shed = None
        if self._qos is not None:
            qos = self._qos

            def on_shed(points: int) -> None:
                # drop_oldest evictions are this stream's shed mass, in
                # its own QoS record as well as its tenant's totals.
                qos.note_shed(name, points)

        worker = StreamWorker(
            name,
            maintainer,
            maintain_every=spec.maintain_every,
            queue_capacity=spec.queue_capacity,
            backpressure=spec.backpressure,
            initial_arrivals=arrivals,
            poison=spec.poison,
            injector=self._injector,
            # Delta checkpoints persist the replay-log slice since the
            # last checkpoint, so the log is also tracked (without a
            # supervisor) whenever the store runs a delta cadence.
            track_replay=self._supervisor is not None
            or (self._store is not None and self._snapshot_base_every > 1),
            dead_letter=dead_letter,
            registry=self.registry,
            tracer=self.tracer,
            accuracy=accuracy,
            on_shed=on_shed,
        )
        if state is not None:
            worker.seed_view()
        return worker

    def _start_stream(
        self,
        name: str,
        spec: StreamSpec,
        state: dict | None,
        arrivals: int,
        tail: Iterable,
    ) -> StreamWorker:
        if self._closed:
            raise RuntimeError("service is closed")
        if not _valid_stream_name(name):
            raise ValueError(
                f"invalid stream name {name!r}; use letters, digits, '_' or '.'"
            )
        if name in self._workers:
            raise ValueError(f"stream {name!r} already exists")
        worker = self._build_worker(name, spec, state=state, arrivals=arrivals)
        self._workers[name] = worker
        self._specs[name] = spec
        self._checkpoint_marks[name] = arrivals
        self._deltas_since_base[name] = 0
        if self._qos is not None:
            self._qos.register_stream(name, spec.tenant, spec.priority)
        worker.start()
        for batch in tail:
            worker.submit(batch)
        return worker

    def drop_stream(self, name: str, drain: bool = True) -> None:
        """Stop and forget a stream (its snapshots stay on disk)."""
        worker = self._worker(name)
        worker.stop(drain=drain)
        del self._workers[name]
        del self._specs[name]
        del self._checkpoint_marks[name]
        self._deltas_since_base.pop(name, None)
        self._generation_arrivals.pop(name, None)
        self._checkpoint_errors.pop(name, None)
        if self._qos is not None:
            self._qos.forget_stream(name)

    def streams(self) -> list[str]:
        """Hosted stream names, sorted."""
        return sorted(self._workers)

    def spec(self, name: str) -> StreamSpec:
        self._worker(name)
        return self._specs[name]

    def _worker(self, name: str) -> StreamWorker:
        try:
            return self._workers[name]
        except KeyError:
            known = ", ".join(self.streams()) or "<none>"
            raise UnknownStreamError(
                f"no stream named {name!r}; hosted: {known}"
            ) from None

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def ingest(self, name: str, values) -> int:
        """Enqueue points for a stream; returns the accepted count.

        Safe to call from any thread.  Backpressure follows the stream's
        policy; with ``checkpoint_every`` configured, a durable
        checkpoint is taken whenever enough new points have been
        *ingested* since the last one.  On a supervised service, a
        submit that hits a dead worker transparently waits for the
        restarted replacement and retries.

        With QoS configured, the batch first passes admission control:
        a tenant over its token-bucket quota gets a typed
        :class:`~repro.service.qos.QuotaExceededError` (with
        ``retry_after``), and under overload the degradation ladder may
        deterministically shed part of a sheddable stream's batch -- the
        shed mass is counted and widens the stream's reported effective
        epsilon.
        """
        if self._qos is not None:
            worker = self._worker(name)  # surface UnknownStreamError first
            kept, shed = self._qos.admit(name, as_stream_batch(values))
            if shed and worker.accuracy is not None:
                worker.accuracy.note_shed(shed)
            if kept.size == 0:
                return 0
            values = kept
        while True:
            worker = self._worker(name)
            try:
                accepted = worker.submit(values)
                break
            except WorkerFailedError:
                if self._supervisor is None:
                    raise
                self._supervisor.wait_recovered(name, worker)
        every = self._specs[name].checkpoint_every
        if every is not None and self._store is not None:
            if worker.arrivals - self._checkpoint_marks[name] >= every:
                try:
                    self.checkpoint(name)
                except (OSError, WorkerFailedError):
                    # An automatic checkpoint must never fail the
                    # producer; the miss is counted and the next cadence
                    # (or an explicit checkpoint()) tries again.
                    self._checkpoint_errors[name] = (
                        self._checkpoint_errors.get(name, 0) + 1
                    )
                    self.registry.counter(
                        "repro_checkpoint_errors_total", stream=name
                    ).inc()
        return accepted

    def update(self, name: str, key: int, delta: int = 1) -> int:
        """Turnstile update ``f[key] += delta`` on a stream.

        The update is encoded as ``|delta|`` signed unit points (see
        :mod:`repro.counting.encoding`) and rides the ordinary ingest
        path, so backpressure, checkpoints, replay, and sharding all
        apply unchanged.  Turnstile backends (``cr_precis``) decode
        deletions; insert-only backends quarantine them as poison.
        """
        batch = encode_update(key, delta)
        if batch.size == 0:
            return 0
        return self.ingest(name, batch)

    def update_many(self, name: str, updates) -> int:
        """Apply ``(key, delta)`` turnstile updates as one batch."""
        batch = encode_updates(updates)
        if batch.size == 0:
            return 0
        return self.ingest(name, batch)

    def flush(self, name: str | None = None, timeout: float | None = None) -> bool:
        """Wait until queued points are ingested (one stream or all).

        On a supervised service this rides across worker restarts: a
        flush that observes a dead worker waits for its replacement and
        re-flushes, so a ``True`` return means the recovered backlog is
        fully drained too.
        """
        names = [name] if name else self.streams()
        drained = True
        for stream_name in names:
            while True:
                worker = self._worker(stream_name)
                try:
                    drained = worker.flush(timeout=timeout) and drained
                    break
                except WorkerFailedError:
                    if self._supervisor is None:
                        raise
                    self._supervisor.wait_recovered(stream_name, worker)
        return drained

    # ------------------------------------------------------------------
    # Dead-letter quarantine
    # ------------------------------------------------------------------

    def dead_letters(self, name: str) -> list[DeadLetterRecord]:
        """Quarantined poison records of a stream, oldest first."""
        return self._worker(name).dead_letter.records()

    def retry_dead_letters(self, name: str) -> dict:
        """Re-feed a stream's quarantined records; returns outcome counts.

        With QoS configured the retried mass re-enters admission: the
        whole retry is charged against the stream tenant's quota
        (all-or-nothing -- a partial shed of a poison retry would make
        the outcome counts meaningless) and is refused outright while
        the ladder is at ``shed`` or above for a sheddable stream.
        """
        worker = self._worker(name)
        if self._qos is not None:
            pending = len(worker.dead_letter.records())
            if pending:
                self._qos.admit_retry(name, pending)
        return worker.retry_dead_letters()

    # ------------------------------------------------------------------
    # QoS signals
    # ------------------------------------------------------------------

    def _qos_signals(self) -> dict:
        """Overload signals for the degradation ladder.

        ``queue_fill`` is the MAX per-worker fill fraction, not the
        mean: one saturated stream must escalate the shared service so
        low-priority load is shed before the hot stream's producers
        block.  ``p99_latency`` is the worst per-worker p99 enqueue
        latency from the workers' reservoirs.
        """
        fill = 0.0
        latency = 0.0
        for worker in list(self._workers.values()):
            fill = max(fill, worker.queue_depth / worker.queue_capacity)
            latency = max(latency, worker.counters.latency_quantile(0.99))
        return {"queue_fill": fill, "p99_latency": latency}

    def _qos_drained(self) -> bool:
        """True when every sheddable stream has caught up (backlog
        drained, no in-flight batch, fresh served view) -- the gate for
        demoting out of ``stale_serve``."""
        if self._qos is None:
            return True
        for name, worker in list(self._workers.items()):
            if self._qos.sheddable(name) and not worker.caught_up():
                return False
        return True

    def qos(self) -> dict | None:
        """QoS snapshot: ladder level, tenant buckets, per-stream shed
        mass (None when QoS is not configured).  Forces a ladder
        evaluation, so polling this drives demotion on a quiet service.
        """
        if self._qos is None:
            return None
        return self._qos.snapshot()

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------

    def health(self, name: str | None = None) -> dict:
        """Health report (one stream or all streams keyed by name).

        ``state`` is ``healthy`` (worker alive, backlog drained),
        ``degraded`` (recovering / replaying; queries served from the
        stale view), or ``failed`` (worker dead with no supervisor, or
        restart budget exhausted).
        """
        if name is None:
            return {n: self.health(n) for n in self.streams()}
        worker = self._worker(name)
        record = (
            self._supervisor.snapshot(name)
            if self._supervisor is not None
            else {}
        )
        state = record.get("state")
        if state is None:
            state = "failed" if worker.failed else "healthy"
        elif worker.failed and state != "failed":
            state = "degraded"  # crash seen but not yet picked up
        elif state == "degraded" and worker.caught_up():
            # Queue empty alone is not enough -- the last replay batch
            # may still be mid-ingest; caught_up() also requires no
            # in-flight batch and a non-stale served view.
            state = "healthy"
        view = worker.view()
        report = {
            "stream": name,
            "state": state,
            "restarts": record.get("restarts", 0),
            "last_error": record.get("last_error")
            or (repr(worker.error) if worker.failed else None),
            "lossy_recovery": record.get("lossy_recovery", False),
            "dead_letter": worker.dead_letter.counters(),
            "checkpoint_errors": self._checkpoint_errors.get(name, 0),
            "stale_view": bool(worker.failed or (view is not None and view.stale)),
            "queue_depth": worker.queue_depth,
        }
        if self._qos is not None:
            report["degradation"] = self._qos.level_name()
            if self._qos.serving_stale(name):
                # Stale-serve is an intentional degradation, not a
                # failure: queries are answered from the last good view.
                report["qos_shed"] = True
                if report["state"] == "healthy":
                    report["state"] = "degraded"
        return report

    # ------------------------------------------------------------------
    # Queries (snapshot-isolated: served from materialized views)
    # ------------------------------------------------------------------

    def view(self, name: str) -> MaterializedView:
        """The stream's last materialized synopsis view.

        While a stream is down or recovering the last good view is
        served with ``stale=True`` -- queries degrade, they do not
        deadlock or error.
        """
        worker = self._worker(name)
        view = worker.view()
        if view is None:
            raise ValueError(
                f"stream {name!r} has no materialized synopsis yet "
                "(nothing ingested)"
            )
        if worker.failed and not view.stale:
            return replace(view, stale=True)
        if (
            self._qos is not None
            and self._qos.serving_stale(name)
            and not view.stale
        ):
            # At stale_serve the ladder stops feeding sheddable streams
            # entirely; mark the served view so callers can tell.
            return replace(view, stale=True)
        return view

    def synopsis(self, name: str):
        """The frozen synopsis object of the last materialized view."""
        return self.view(name).synopsis

    def range_sum(self, name: str, start: int, end: int) -> float:
        """Estimated sum over window positions ``[start, end]``."""
        return view_range_sum(self.synopsis(name), start, end)

    def quantile(self, name: str, fraction: float) -> float:
        """Approximate ``fraction``-quantile of the summarized values."""
        return view_quantile(self.synopsis(name), fraction)

    def histogram(self, name: str) -> dict:
        """JSON-friendly rendering of the stream's synopsis."""
        return view_histogram(self.synopsis(name))

    def stats(self, name: str | None = None) -> dict:
        """Ingest/maintenance/queue telemetry (one stream or all)."""
        if name is not None:
            return self._worker(name).stats()
        return {n: self._workers[n].stats() for n in self.streams()}

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def metrics(self, name: str | None = None) -> list[dict]:
        """Every metric sample of the service (or one stream's).

        Covers ingest counters, queue high-watermarks, enqueue-latency
        reservoirs, dead-letter quarantine, snapshot outcomes, restart
        counts, per-stage latency series and (where configured) observed
        accuracy -- one shared registry, labeled per stream.
        """
        if name is not None:
            self._worker(name)  # surface UnknownStreamError
            return self.registry.collect_labeled(stream=name)
        return self.registry.collect()

    def prometheus_metrics(self) -> str:
        """The whole registry in Prometheus text exposition format."""
        return to_prometheus_text(self.registry)

    def export_metrics_jsonl(self, path):
        """Append every current sample to ``path`` as JSON lines."""
        return write_jsonl(self.registry, path)

    def spans(
        self, stage: str | None = None, name: str | None = None
    ) -> list[SpanRecord]:
        """Recorded stage spans, oldest first, optionally filtered."""
        return self.tracer.spans(stage=stage, stream=name)

    def accuracy(self, name: str) -> dict | None:
        """The stream's accuracy-monitor summary (None when not configured)."""
        worker = self._worker(name)
        if worker.accuracy is None:
            return None
        return worker.accuracy.to_dict()

    def note_shed(self, name: str, points: int) -> None:
        """Account externally-shed mass against a stream's accuracy.

        Used by the shard router, whose admission control sheds points
        before they ever reach this (shard-internal) service: the
        stream's accuracy monitor still widens its effective epsilon
        over the thinned feed.  No-op without a monitor.
        """
        worker = self._worker(name)
        if worker.accuracy is not None and points > 0:
            worker.accuracy.note_shed(int(points))

    def certify(
        self,
        name: str,
        *,
        profile: str = "uniform",
        seed: int = 0,
        points: int = 512,
        timeout: float | None = None,
    ) -> dict:
        """Certify a hosted stream: live accuracy, restore fidelity, config.

        Three layers, strongest available first:

        1. **Live accuracy** -- if the stream carries an
           :class:`~repro.obs.accuracy.AccuracyMonitor`, force a check of
           the served synopsis against the exact shadow window right now
           (no cadence wait).
        2. **Restore fidelity** -- push the worker's ``state_dict``
           through a real JSON round-trip into a fresh maintainer and
           require an identical synopsis (the checkpoint/restore
           metamorphic identity, on the *live* state).
        3. **Configuration certification** -- run the offline
           :class:`~repro.verify.differential.DifferentialChecker` for
           the spec's exact backend and parameters over a seeded fuzzed
           stream, auditing epsilon bounds and metamorphic equivalences
           against the exact oracle.

        The stream is flushed first; certify on a quiescent stream (a
        concurrent ingester can race the layer-2 comparison).  Returns a
        JSON-serializable report; ``report["passed"]`` aggregates all
        three layers.
        """
        import json

        from ..verify import DifferentialChecker, observe

        spec = self.spec(name)
        worker = self._worker(name)
        self.flush(name, timeout=timeout)

        with self.tracer.span("certify", name):
            capture = worker.checkpoint_capture()
            state, arrivals = capture["state"], capture["arrivals"]

            live = None
            if worker.accuracy is not None:
                report = worker.accuracy.force_check(
                    arrivals, self.synopsis(name)
                )
                if report is not None:
                    live = report.to_dict()

            clone = spec.build_maintainer()
            clone.load_state_dict(json.loads(json.dumps(state)))
            restore_ok = (
                observe(clone)["synopsis"]
                == observe(worker.maintainer)["synopsis"]
            )

            differential = DifferentialChecker(
                spec.backend,
                spec.params,
                profile=profile,
                seed=seed,
                total_points=points,
            ).run()

        passed = (
            (live is None or live["within_bound"])
            and restore_ok
            and differential.passed
        )
        return {
            "stream": name,
            "backend": spec.backend,
            "params": dict(spec.params),
            "arrivals": arrivals,
            "passed": passed,
            "live_accuracy": live,
            "restore_identity": restore_ok,
            "differential": differential.to_dict(),
        }

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------

    def checkpoint(
        self, name: str | None = None, *, mode: str = "auto"
    ) -> list[str]:
        """Write durable snapshots (one stream or all); returns paths.

        Each snapshot captures the maintainer state at a batch boundary
        plus the buffered tail, so a restore replays exactly the points
        the crashed service had accepted but not yet applied.

        With ``snapshot_base_every=K > 1`` only every K-th checkpoint of
        a stream writes a full base; the others persist a binary delta
        (the replay-log slice since the last checkpoint plus the current
        tail) -- but only when that slice provably tiles the arrival
        range without a gap, and there is a base on disk to chain from;
        otherwise the checkpoint silently falls back to a full.
        ``mode="full"`` forces full snapshots regardless of cadence (the
        shard router uses this to align delta chains with its own replay
        trimming).  After a successful write the worker's replay log is
        trimmed by the retention rule beside ``_checkpoint_marks``: to
        this checkpoint without a supervisor, to the oldest retained
        *base* generation with one.  A failed write trims nothing.
        """
        if self._store is None:
            raise RuntimeError("service was created without a snapshot_dir")
        if mode not in ("auto", "full"):
            raise ValueError(f"unknown checkpoint mode {mode!r}")
        names = [name] if name is not None else self.streams()
        paths = []
        for stream_name in names:
            worker = self._worker(stream_name)
            with self.tracer.span("checkpoint", stream_name):
                path, arrivals = self._checkpoint_stream(
                    stream_name, worker, mode
                )
                paths.append(str(path))
            self._checkpoint_marks[stream_name] = arrivals
            if self._supervisor is None:
                worker.trim_replay(arrivals)
            elif generations := self._generation_arrivals.get(stream_name):
                worker.trim_replay(generations[0])
        return paths

    def _checkpoint_stream(self, name: str, worker, mode: str):
        """Write one stream's checkpoint (delta when safe, else full)."""
        mark = self._checkpoint_marks.get(name, 0)
        want_delta = (
            mode == "auto"
            and self._snapshot_base_every > 1
            and self._deltas_since_base.get(name, 0)
            < self._snapshot_base_every - 1
        )
        if want_delta:
            capture = worker.checkpoint_capture(state=False, replay_since=mark)
            arrivals = capture["arrivals"]
            batches = capture.get("replay", [])
            if _tiles_contiguously(batches, mark, arrivals):
                try:
                    path = self._store.write_delta(
                        name,
                        arrivals=arrivals,
                        from_arrivals=mark,
                        batches=batches,
                        tail=capture["tail"],
                    )
                except ValueError:
                    pass  # no base generation on disk; write a full
                else:
                    self._deltas_since_base[name] = (
                        self._deltas_since_base.get(name, 0) + 1
                    )
                    return path, arrivals
        capture = worker.checkpoint_capture()
        arrivals = capture["arrivals"]
        path = self._store.write(
            name, {"spec": self._specs[name].to_dict(), **capture}
        )
        self._deltas_since_base[name] = 0
        generations = self._generation_arrivals.setdefault(
            name, deque(maxlen=self._store.keep)
        )
        generations.append(arrivals)
        return path, arrivals

    def restore_stream(self, name: str) -> StreamWorker:
        """Recreate one stream from its latest verifiable snapshot."""
        if self._store is None:
            raise RuntimeError("service was created without a snapshot_dir")
        payload = self._store.load_latest(name)
        spec = StreamSpec.from_dict(payload["spec"])
        return self._start_stream(
            name,
            spec,
            state=payload["state"],
            arrivals=int(payload["arrivals"]),
            tail=payload["tail"],
        )

    @classmethod
    def restore(cls, snapshot_dir, **kwargs) -> "StreamService":
        """Bring a whole service back from a snapshot directory.

        Every stream named in the manifest is rebuilt from its latest
        verifiable snapshot (corrupt newest generations fall back to the
        previous good one) and its buffered tail is re-enqueued, so the
        recovered service converges to the state the crashed one would
        have reached after draining its queues.  Keyword arguments
        (``supervise``, ``restart_policy``, ``fault_injector``,
        ``snapshot_keep``) are forwarded to the constructor.
        """
        service = cls(snapshot_dir=snapshot_dir, **kwargs)
        for name in service._store.streams():
            service.restore_stream(name)
        return service

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self, checkpoint: bool | None = None) -> None:
        """Drain and stop every worker (idempotent).

        The supervisor (if any) is stopped first so no restart races the
        shutdown.  With a snapshot store attached, a final checkpoint of
        every *live* stream is taken by default once the queues are
        drained (pass ``checkpoint=False`` to skip it); failed streams
        are skipped rather than erroring the shutdown.
        """
        if self._closed:
            return
        self._closed = True
        if self._supervisor is not None:
            self._supervisor.stop()
        for worker in self._workers.values():
            worker.stop(drain=True)
        if checkpoint is None:
            checkpoint = self._store is not None
        if checkpoint:
            for name in self.streams():
                if not self._workers[name].failed:
                    self.checkpoint(name)

    def __enter__(self) -> "StreamService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(checkpoint=False if exc_type else None)
