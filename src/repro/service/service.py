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


class StreamService(ServiceProtocol):
    """Concurrent host for many named synopsis streams.

    ``supervise=True`` attaches a :class:`StreamSupervisor` (tune it
    with ``restart_policy``); ``fault_injector`` threads a
    :class:`FaultInjector` through every worker and the snapshot store;
    ``snapshot_keep`` bounds the retained snapshot generations per
    stream (>= 2 keeps a fallback behind the newest);
    ``snapshot_base_every`` sets the delta-checkpoint cadence: every
    K-th checkpoint of a stream writes a full base generation and the
    K-1 in between write cheap binary deltas (1, the default, keeps the
    old always-full behavior); ``qos`` is as in
    :class:`~repro.service.protocol.ServiceProtocol`.

    Without ``snapshot_dir`` the service takes no checkpoints, so a
    supervised service's replay logs grow with its streams (a
    :class:`~repro.shard.ShardRouter` checkpoints into a private store
    instead).
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
        if snapshot_keep < 1:
            raise ValueError("snapshot_keep must be >= 1")
        if snapshot_base_every < 1:
            raise ValueError("snapshot_base_every must be >= 1")
        super().__init__(qos)
        self.tracer = Tracer(self.registry)
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
        self._snapshot_base_every = int(snapshot_base_every)
        # Per-stream delta counter: full/delta cadence is tracked per
        # stream (not service-wide) so no checkpoint interleaving can
        # starve a stream of base generations and let its replay log
        # and delta chain grow without bound.
        self._deltas_since_base: dict[str, int] = {}
        self._workers: dict[str, StreamWorker] = {}
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

    def _host_stream(
        self, name: str, spec: StreamSpec, *, state: dict | None = None,
        arrivals: int = 0,
    ) -> StreamWorker:
        worker = self._build_worker(name, spec, state=state, arrivals=arrivals)
        self._workers[name] = worker
        self._checkpoint_marks[name] = arrivals
        self._deltas_since_base[name] = 0
        worker.start()
        return worker

    def drop_stream(self, name: str, drain: bool = True) -> None:
        """Stop and forget a stream (its snapshots stay on disk)."""
        worker = self._worker(name)
        worker.stop(drain=drain)
        del self._workers[name]
        del self._checkpoint_marks[name]
        self._deltas_since_base.pop(name, None)
        self._generation_arrivals.pop(name, None)
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
        """Submit to the stream's worker, then take a due checkpoint.

        On a supervised service a submit that hits a dead worker waits
        for the restarted replacement and retries.  With
        ``checkpoint_every`` set, a checkpoint is due once that many
        points have been *applied* since the stream's last one.
        """
        while True:
            worker = self._worker(name)
            try:
                accepted = worker.submit(batch)
                break
            except WorkerFailedError:
                if self._supervisor is None:
                    raise
                self._supervisor.wait_recovered(name, worker)
        every = self._specs[name].checkpoint_every
        if every is not None and self._store is not None:
            if worker.arrivals - self._checkpoint_marks[name] >= every:
                self._auto_checkpoint(lambda: self.checkpoint(name), [name])
        return accepted

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
        names = [name] if name is not None else self.streams()
        paths = []
        for stream_name in names:
            with self.tracer.span("checkpoint", stream_name):
                captured = self._capture_checkpoint(stream_name, mode)
                paths.append(self._write_checkpoint(captured))
        return paths

    def _capture_checkpoint(
        self, name: str, mode: str, cut: int | None = None
    ) -> tuple:
        """Capture one stream's next checkpoint without writing it.

        A delta's slice when one can be written: mode ``"auto"``, the
        stream's delta cadence not used up, a generation on disk to
        chain onto, and a replay slice that tiles the arrivals since
        the last checkpoint.  Otherwise the full state.  The capture is
        the cut :meth:`_write_checkpoint` persists, however much the
        stream ingests in between (the shard host relies on this).
        ``cut`` is the caller's name for that point (the shard host's
        frame watermark); the snapshot records it, and a restore
        reports it back in ``_restored_cuts``.
        """
        if mode not in ("auto", "full"):
            raise ValueError(f"unknown checkpoint mode {mode!r}")
        worker = self._worker(name)
        mark = self._checkpoint_marks.get(name, 0)
        want_delta = (
            mode == "auto"
            and self._snapshot_base_every > 1
            and self._deltas_since_base.get(name, 0)
            < self._snapshot_base_every - 1
            and self._store.can_extend(name)
        )
        capture = None
        if want_delta:
            delta = worker.checkpoint_capture(state=False, replay_since=mark)
            if _tiles_contiguously(delta["replay"], mark, delta["arrivals"]):
                capture = delta
        if capture is None:
            capture = worker.checkpoint_capture()
        if cut is not None:
            capture["cut"] = cut
        return name, worker, mark, capture

    def _write_checkpoint(self, captured: tuple) -> str:
        """Persist a :meth:`_capture_checkpoint`, then trim the worker's
        replay log by the retention rule beside ``_checkpoint_marks``.
        Returns the written path."""
        name, worker, mark, capture = captured
        arrivals = capture["arrivals"]
        if "state" in capture:
            path = self._store.write(
                name, {"spec": self._specs[name].to_dict(), **capture}
            )
            self._deltas_since_base[name] = 0
            generations = self._generation_arrivals.setdefault(
                name, deque(maxlen=self._store.keep)
            )
            generations.append(arrivals)
        else:
            path = self._store.write_delta(
                name,
                arrivals=arrivals,
                from_arrivals=mark,
                batches=capture["replay"],
                tail=capture["tail"],
                cut=capture.get("cut"),
            )
            self._deltas_since_base[name] = (
                self._deltas_since_base.get(name, 0) + 1
            )
        self._checkpoint_marks[name] = arrivals
        if self._supervisor is None:
            worker.trim_replay(arrivals)
        elif generations := self._generation_arrivals.get(name):
            worker.trim_replay(generations[0])
        return str(path)

    def restore_stream(self, name: str) -> StreamWorker:
        """Recreate one stream from its latest verifiable snapshot."""
        if self._store is None:
            raise RuntimeError("service was created without a snapshot_dir")
        payload = self._store.load_latest(name)
        self._restored_cuts[name] = payload.get("cut")
        worker = self._add_stream(
            name,
            StreamSpec.from_dict(payload["spec"]),
            state=payload["state"],
            arrivals=int(payload["arrivals"]),
        )
        for batch in payload["tail"]:
            worker.submit(batch)
        return worker

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
        if not snapshot_dir:
            raise RuntimeError("StreamService.restore needs a snapshot_dir")
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
