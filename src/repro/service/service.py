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
    service.checkpoint()                     # one binary snapshot file each
    ...                                      # crash / restart ...
    service = StreamService.restore("snapshots/")   # same state + tail
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import replace

from ..obs.accuracy import AccuracyMonitor
from ..obs.tracing import SpanRecord, Tracer
from .deadletter import DeadLetterBuffer, DeadLetterRecord
from .faults import FaultInjector
from .protocol import ServiceProtocol, StreamSpec, UnknownStreamError
from .qos import QoSConfig, QoSController
from .queries import (
    MaterializedView,
    view_histogram,
    view_quantile,
    view_range_sum,
)
from .snapshot import SnapshotStore
from .stream_worker import StreamWorker, WorkerFailedError
from .supervisor import RestartPolicy, StreamSupervisor

__all__ = ["StreamService", "StreamSpec", "UnknownStreamError"]


def _tiles_contiguously(batches, start: int, end: int) -> bool:
    """Do the (start_arrival, batch) pairs cover [start, end) gaplessly?

    The delta-checkpoint safety gate: a delta is only written when the
    replay-log slice provably re-derives every arrival since the last
    checkpoint.  Quarantined poison points never advance the arrival
    counter, so a kept replay log always tiles; anything else (a
    trimmed or emptied log) fails here and the checkpoint falls back to
    a full snapshot.
    """
    position = start
    for batch_start, batch in batches:
        if batch_start != position:
            return False
        position += int(batch.size)
    return position == end


class StreamService(ServiceProtocol):
    """Concurrent host for many named synopsis streams.

    ``supervise=True`` attaches a :class:`StreamSupervisor` (tune it
    with ``restart_policy``); ``fault_injector`` threads a
    :class:`FaultInjector` through every worker and the snapshot store;
    ``snapshot_keep`` bounds the retained snapshot generations per
    stream (>= 2 keeps a fallback behind the newest); ``qos`` is as in
    :class:`~repro.service.protocol.ServiceProtocol`.
    ``snapshot_base_every`` is accepted and ignored: each checkpoint
    chooses its own shape (full or delta, by size).

    A stream with a ``checkpoint_every`` is one unit of the checkpoint
    scheduler (:mod:`repro.service.protocol`).  Without ``snapshot_dir``
    an unsupervised service takes no checkpoints, and a supervised one
    checkpoints every stream into a private store, as a
    :class:`~repro.shard.ShardRouter` does, so its replay logs stay
    bounded.
    """

    def __init__(
        self,
        snapshot_dir=None,
        *,
        supervise: bool = False,
        restart_policy: RestartPolicy | None = None,
        fault_injector: FaultInjector | None = None,
        snapshot_keep: int = 2,
        snapshot_base_every: int | None = None,
        qos: QoSConfig | QoSController | None = None,
    ) -> None:
        if restart_policy is not None and not supervise:
            raise ValueError("restart_policy requires supervise=True")
        if snapshot_keep < 1:
            raise ValueError("snapshot_keep must be >= 1")
        # A supervisor restores from a store, so without the caller's
        # directory it gets a private one.
        super().__init__(qos, snapshot_dir, private_store=supervise)
        self.tracer = Tracer(self.registry)
        self._store = (
            SnapshotStore(
                self._snapshot_base,
                keep=snapshot_keep,
                fault_injector=fault_injector,
                registry=self.registry,
            )
            if self._snapshot_base
            else None
        )
        self._injector = fault_injector
        self._workers: dict[str, StreamWorker] = {}
        # Per stream, the shape rule's ledger: (bytes of its last full
        # less the tail it carried, which a delta would carry too, and
        # bytes of the deltas written since).
        self._chain_bytes: dict[str, tuple[int, int]] = {}
        # Arrivals at each stream's last checkpoint.  Replay retention
        # rule: after a write the worker's replay log keeps only what a
        # reader can still ask for.  Without a supervisor the only reader
        # is the next delta checkpoint, which wants the batches since
        # this mark, and no delta outweighs the last full (the log's
        # byte limit); a supervisor may instead fall back to the oldest
        # retained full generation and replay forward from it.
        self._checkpoint_marks: dict[str, int] = {}
        # Arrival positions of the retained full generations (supervised
        # retention reaches back to the oldest one).
        self._generation_arrivals: dict[str, deque] = {}
        # The cut each restored stream's snapshot recorded (see
        # _capture_checkpoint), None for a snapshot without one.
        self._restored_cuts: dict[str, int | None] = {}
        self._supervisor: StreamSupervisor | None = None
        if supervise:
            self._supervisor = StreamSupervisor(self, restart_policy)
            self._supervisor.start()

    # ------------------------------------------------------------------
    # Stream management
    # ------------------------------------------------------------------

    def _build_worker(
        self,
        name: str,
        spec: StreamSpec,
        *,
        state: dict | None,
        arrivals: int,
        dead_letter: DeadLetterBuffer | None = None,
        replay_limit: float = 0,
    ) -> StreamWorker:
        """A configured (not yet started) worker; shared with recovery."""
        maintainer = spec.build_maintainer()
        if state is not None:
            maintainer.load_state_dict(state)
        accuracy = None
        if spec.accuracy is not None:
            accuracy = AccuracyMonitor(
                spec.backend, spec.params, start=arrivals,
                registry=self.registry, stream=name, **spec.accuracy,
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
            replay_limit=math.inf if self._supervisor is not None else replay_limit,
            dead_letter=dead_letter,
            registry=self.registry,
            tracer=self.tracer,
            accuracy=accuracy,
            on_shed=on_shed,
        )
        if state is not None:
            worker.seed_view()
        return worker

    def _host_stream(
        self, name: str, spec: StreamSpec, *, state: dict | None = None,
        arrivals: int = 0, chain_bytes: tuple[int, int] = (0, 0),
    ) -> StreamWorker:
        """Host a restored stream (``state``, its chain's ``chain_bytes``)
        or a fresh one, which retires a dropped predecessor's snapshots."""
        if state is None and self._store is not None:
            self._store.retire(name)
        worker = self._build_worker(
            name, spec, state=state, arrivals=arrivals,
            replay_limit=chain_bytes[0],
        )
        self._workers[name] = worker
        self._checkpoint_marks[name] = arrivals
        self._chain_bytes[name] = chain_bytes
        worker.start()
        if self._store is not None and (spec.checkpoint_every or self._private_dir):
            self._add_schedule(name, stream=name)
        return worker

    def drop_stream(self, name: str, drain: bool = True) -> None:
        """Stop and forget a stream (its snapshots stay until a fresh create)."""
        worker = self._worker(name)
        self._drop_schedule(name)
        worker.stop(drain=drain)
        del self._workers[name]
        del self._checkpoint_marks[name]
        self._chain_bytes.pop(name, None)
        self._generation_arrivals.pop(name, None)
        self._restored_cuts.pop(name, None)
        self._unregister(name)

    def _worker(self, name: str) -> StreamWorker:
        try:
            return self._workers[name]
        except KeyError:
            raise self._unknown(name) from None

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def _deliver(self, name: str, batch) -> int:
        """Submit to the stream's worker, through its checkpoint schedule
        when it has one (its points then count toward the next automatic
        checkpoint, which the checkpointer thread takes).

        On a supervised service it rides across worker restarts.
        """
        schedule = self._schedules.get(name)
        if schedule is None:
            return self._submit(name, batch)
        return self._scheduled(schedule, lambda: self._submit(name, batch))

    def _submit(self, name: str, batch) -> int:
        # `ingest` validated the batch: the worker does not scan it again.
        return self._on_live_worker(name, lambda worker: worker._enqueue(batch))

    def _on_live_worker(self, name: str, act):
        """``act(worker)``; on a supervised service, a call that meets a
        dead worker waits for its restarted replacement and retries."""
        while True:
            worker = self._worker(name)
            try:
                return act(worker)
            except WorkerFailedError:
                if self._supervisor is None:
                    raise
                self._supervisor.wait_recovered(name, worker)

    def flush(self, name: str | None = None, timeout: float | None = None) -> bool:
        """Wait until queued points are ingested (one stream or all), and
        until the automatic checkpoints that fell due before the call
        are written.

        On a supervised service this rides across worker restarts: a
        flush that observes a dead worker waits for its replacement and
        re-flushes, so a ``True`` return means the recovered backlog is
        fully drained too.
        """
        names = [name] if name else self.streams()
        drained = [
            self._on_live_worker(n, lambda worker: worker.flush(timeout=timeout))
            for n in names
        ]
        return self._await_checkpoints(names, timeout) and all(drained)

    # ------------------------------------------------------------------
    # Dead-letter quarantine
    # ------------------------------------------------------------------

    def dead_letters(self, name: str) -> list[DeadLetterRecord]:
        """Quarantined poison records of a stream, oldest first."""
        return self._worker(name).dead_letter.records()

    def _redeliver_dead_letters(self, name: str) -> dict:
        return self._worker(name).retry_dead_letters()

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
            "stale_view": bool(worker.failed or (view is not None and view.stale)),
            "queue_depth": worker.queue_depth,
        }
        return self._front_health(report)

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
        counts, per-stage latency series, (where configured) observed
        accuracy and the process's ``repro_process_cpu_seconds`` -- one
        shared registry, labeled per stream.
        """
        if name is not None:
            self._worker(name)  # surface UnknownStreamError
            return self.registry.collect_labeled(stream=name)
        return self._collect()

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
           :class:`~repro.obs.accuracy.AccuracyMonitor`, audit the live
           maintainer through its exact oracle right now (no cadence
           wait).  Only an exact check can fail this layer; an
           unverified one reports ``within_bound`` None.
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

            live = worker.check_accuracy()

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
            (live is None or live["within_bound"] is not False)
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

    def _unit_of(self, name: str) -> str:
        return name

    def _checkpoint_unit(self, key: str) -> list[str]:
        """One stream's checkpoint: a durable snapshot of its maintainer
        state at a batch boundary plus the buffered tail, so a restore
        replays exactly the points the crashed service had accepted but
        not yet applied.

        Each checkpoint chooses its own shape by size: a binary delta
        (the replay-log slice since the last checkpoint plus the current
        tail) only while the stream's deltas since its last full, this
        one included, stay smaller in bytes than that full (less the
        tail it carried), and only when the slice provably tiles the
        arrivals since the last checkpoint; otherwise a full.  A restore
        therefore reads less than two fulls' worth, and the bytes
        written stay within twice the cheaper shape's.  After the write
        the worker's replay log is trimmed by the retention rule beside
        ``_checkpoint_marks``: to this checkpoint without a supervisor,
        to the oldest retained full generation with one.  A failed
        write trims nothing (a failed first full stops the log its
        capture started).
        """
        with self.tracer.span("checkpoint", key):
            return [self._write_checkpoint(self._capture_checkpoint(key))]

    def _capture_checkpoint(self, name: str, cut: int | None = None) -> tuple:
        """Capture one stream's next checkpoint without writing it.

        A delta, already encoded, when the shape rule allows one (see
        :meth:`_checkpoint_unit`); otherwise the full state.  A delta
        holds 8 bytes per point since the last checkpoint, so a stream
        whose points since then already outweigh its budget skips the
        slice capture.  The capture is the cut :meth:`_write_checkpoint`
        persists, however much the stream ingests in between (the shard
        host relies on this).  ``cut`` is the caller's name for that
        point (the shard host's frame watermark); the snapshot records
        it, and a restore reports it back in ``_restored_cuts``.
        """
        worker = self._worker(name)
        mark = self._checkpoint_marks.get(name, 0)
        full, spent = self._chain_bytes.get(name, (0, 0))
        capture = None
        if 8 * (worker.arrivals - mark) < full - spent:
            delta = worker.checkpoint_capture(replay_since=mark)
            if _tiles_contiguously(delta["replay"], mark, delta["arrivals"]):
                encoded = self._store.encode_delta(
                    name, arrivals=delta["arrivals"], from_arrivals=mark,
                    batches=delta["replay"], tail=delta["tail"], cut=cut,
                )
                if encoded is not None and len(encoded[1]) < full - spent:
                    capture = {"arrivals": delta["arrivals"], "delta": encoded}
        if capture is None:
            if not full and self._supervisor is None:
                # A first full: log from here on, so that the next delta
                # tiles from its mark (the write sets the log's limit).
                worker.trim_replay(worker.arrivals, math.inf)
            capture = worker.checkpoint_capture()
            if cut is not None:
                capture["cut"] = cut
        return name, worker, capture

    def _write_checkpoint(self, captured: tuple) -> str:
        """Persist a :meth:`_capture_checkpoint`, then trim the worker's
        replay log by the retention rule beside ``_checkpoint_marks``.
        Returns the written path."""
        name, worker, capture = captured
        arrivals = capture["arrivals"]
        if "delta" in capture:
            path = self._store.commit_delta(capture["delta"])
            full, spent = self._chain_bytes[name]
            spent += len(capture["delta"][1])
        else:
            try:
                path = self._store.write(
                    name, {"spec": self._specs[name].to_dict(), **capture}
                )
            except BaseException:
                if not self._chain_bytes[name][0] and self._supervisor is None:
                    # The capture started the log for this first full.
                    worker.trim_replay(math.inf, 0)
                raise
            tail = sum(int(batch.size) for batch in capture["tail"])
            full, spent = path.stat().st_size - 8 * tail, 0
            self._generation_arrivals.setdefault(
                name, deque(maxlen=self._store.keep)
            ).append(arrivals)
        self._chain_bytes[name] = (full, spent)
        self._checkpoint_marks[name] = arrivals
        if self._supervisor is None:
            worker.trim_replay(arrivals, full)
        elif generations := self._generation_arrivals.get(name):
            worker.trim_replay(generations[0])
        return str(path)

    @classmethod
    def restore(cls, snapshot_dir, **kwargs) -> "StreamService":
        """Bring a whole service back from a snapshot directory.

        Every stream with a generation in the directory is rebuilt from
        its latest verifiable snapshot (corrupt newest generations fall
        back to the previous good one) and its buffered tail is
        re-enqueued, so the recovered service converges to the state the
        crashed one would have reached after draining its queues.
        Keyword arguments (``supervise``, ``restart_policy``,
        ``fault_injector``, ``snapshot_keep``, ``qos``) are forwarded to
        the constructor.
        """
        if not snapshot_dir:
            raise RuntimeError("StreamService.restore needs a snapshot_dir")
        service = cls(snapshot_dir=snapshot_dir, **kwargs)
        for name in service._store.streams():
            payload = service._store.load_latest(name)
            service._restored_cuts[name] = payload.get("cut")
            worker = service._add_stream(
                name,
                StreamSpec.from_dict(payload["spec"]),
                state=payload["state"],
                arrivals=int(payload["arrivals"]),
                chain_bytes=tuple(payload["chain_bytes"]),
            )
            for batch in payload["tail"]:
                worker.submit(batch)
        return service

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _shutdown(self, checkpoint: bool | None) -> None:
        """Stop the supervisor (so no restart races the shutdown), then
        drain and stop every worker; with the caller's snapshot store a
        final checkpoint of every *live* stream follows by default
        (failed streams are skipped rather than erroring the shutdown).
        """
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
