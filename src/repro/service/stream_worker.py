"""One hosted stream: bounded ingest queue, worker thread, live view.

A :class:`StreamWorker` owns a single maintainer driven through a
:class:`~repro.runtime.pipeline.StreamPipeline` (so maintenance cadence
semantics are *identical* to a direct single-threaded run over the same
points).  Producers call :meth:`submit` from any thread; the worker
thread drains batches in arrival order, then materializes an immutable
:class:`~repro.service.queries.MaterializedView` that queries read
without ever touching the maintainer.

The queue hand-off is whole-batch on both sides: ``submit`` enqueues one
queue item per batch (the bounded capacity and every backpressure policy
count whole batches by their point count), and the worker takes the
*entire* backlog in a single lock acquisition per drain cycle, feeding
it batch by batch and materializing the view once at the end of the
cycle.  Points are never serialized individually through the queue, so
a producer burst of k chunks costs one worker wakeup and one view
refresh instead of k.

Backpressure when the queue is full is configurable:

* ``"block"`` -- the producer waits for space (lossless, the default);
* ``"reject"`` -- :meth:`submit` raises :class:`BackpressureError`;
* ``"drop_oldest"`` -- the oldest queued batches are evicted to make
  room (freshest-data-wins, for monitoring workloads).

Failure handling splits along one line: *data* errors and *worker*
errors.  A record that raises during ingest is poison, not a crash --
under the default ``poison="quarantine"`` policy the failing batch is
re-fed point by point, offending points land in the stream's
:class:`~repro.service.deadletter.DeadLetterBuffer` (counted, bounded,
retryable) and clean points keep flowing.  Quarantined points never
advance the arrival counter, so maintenance cadence stays aligned with
a clean-stream run.  Everything else -- an :class:`InjectedFault`, a
failure that cannot be attributed to an un-ingested point, any error
under ``poison="fail"`` -- is fatal: the un-applied remainder of the
in-flight batch is pushed back onto the queue, the error is published
to producers as :class:`WorkerFailedError`, and the worker thread dies
for the supervisor to find.

The worker can keep a *replay log* (``replay_limit > 0``): every
successfully ingested batch is retained, stamped with its start arrival,
until the service trims it after a checkpoint.  It has two readers.  A
delta checkpoint persists the slice since the previous checkpoint, and
a supervisor restores the last durable snapshot and re-feeds the suffix
after it, which reproduces the lost worker bit-exactly -- the same
determinism argument that makes the synopses checkpointable at all.
A log kept only for deltas has a byte limit, the weight of the last
full snapshot, which no delta may reach: a log that reaches it is
emptied.  ``stats()["replay_points"]`` reports how many points the log
holds.

Every decision is counted (:class:`WorkerCounters`): points submitted /
ingested / dropped, batches rejected, enqueue wait time, and a bounded
reservoir of recent enqueue latencies for percentile reporting.  The
counters live on a :class:`~repro.obs.metrics.MetricsRegistry` (the
service shares one across its streams, labeled per stream) and stay
readable through the same attribute names and ``stats()`` dict as
before; latency percentiles are computed from a single locked reservoir
snapshot, so a concurrent ``stats()`` can never observe a mutating deque
or torn p50/p99 pair.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import replace

import numpy as np

from ..core.prefix import as_stream_batch
from ..obs.accuracy import AccuracyMonitor
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import PipelineObserver, Tracer
from ..runtime.maintainer import Maintainer
from ..runtime.pipeline import StreamPipeline
from .deadletter import DeadLetterBuffer
from .faults import FaultInjector, InjectedFault
from .queries import MaterializedView, freeze_synopsis

__all__ = [
    "BackpressureError",
    "StreamWorker",
    "WorkerCounters",
    "WorkerFailedError",
]

BACKPRESSURE_POLICIES = ("block", "reject", "drop_oldest")
POISON_POLICIES = ("quarantine", "fail")


class BackpressureError(RuntimeError):
    """A ``reject``-policy queue refused a batch because it was full."""


class WorkerFailedError(RuntimeError):
    """The stream's worker thread died; producers must not keep feeding it.

    Carries the original failure as ``__cause__``.  A supervised
    service intercepts this, waits for the restarted worker, and
    retries the submit transparently.
    """


class WorkerCounters:
    """Ingestion telemetry of one hosted stream, backed by the registry.

    Every figure is a labeled instrument on a
    :class:`~repro.obs.metrics.MetricsRegistry` (a private one when the
    worker runs standalone), so the same numbers surface through
    ``stats()`` dicts, ``StreamService.metrics()`` and the Prometheus /
    JSONL exporters without double bookkeeping.  The former public
    attributes (``submitted_points``, ``ingested_points``, ...) remain
    readable as properties.

    Enqueue latencies live in a bounded reservoir histogram whose
    readers always work from a snapshot taken under the metric's lock --
    producers appending concurrently can no longer make a ``stats()``
    call raise ``deque mutated during iteration`` or return a p50/p99
    pair computed from two different latency populations.
    """

    #: Retained enqueue-latency observations (matches the old ring size).
    LATENCY_RESERVOIR = 4096

    def __init__(
        self, registry: MetricsRegistry | None = None, stream: str = ""
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        labels = {"stream": stream}
        counter = self.registry.counter
        self._submitted = counter("repro_submitted_points_total", **labels)
        self._ingested = counter("repro_ingested_points_total", **labels)
        self._dropped = counter("repro_dropped_points_total", **labels)
        self._rejected_batches = counter("repro_rejected_batches_total", **labels)
        self._rejected_points = counter("repro_rejected_points_total", **labels)
        self._enqueued_batches = counter("repro_enqueued_batches_total", **labels)
        self._drained_batches = counter("repro_drained_batches_total", **labels)
        self._enqueue_wait = counter("repro_enqueue_wait_seconds_total", **labels)
        self._max_queue_depth = self.registry.gauge(
            "repro_max_queue_depth", **labels
        )
        self._latencies = self.registry.histogram(
            "repro_enqueue_latency_seconds",
            reservoir=self.LATENCY_RESERVOIR,
            **labels,
        )

    # -- mutation verbs (called by the worker under its own locking) ----

    def record_enqueue(self, points: int, waited: float, depth: int) -> None:
        """One accepted batch: size, time spent waiting, resulting depth."""
        self._submitted.inc(points)
        self._enqueued_batches.inc()
        self._enqueue_wait.inc(waited)
        self._latencies.observe(waited)
        self._max_queue_depth.set_max(depth)

    def record_rejected(self, points: int) -> None:
        self._rejected_batches.inc()
        self._rejected_points.inc(points)

    def record_dropped(self, points: int) -> None:
        self._dropped.inc(points)

    def record_drained(self, ingested: int) -> None:
        self._ingested.inc(ingested)
        self._drained_batches.inc()

    def record_ingested(self, points: int) -> None:
        self._ingested.inc(points)

    def note_queue_depth(self, depth: int) -> None:
        self._max_queue_depth.set_max(depth)

    # -- reader side ----------------------------------------------------

    @property
    def submitted_points(self) -> int:
        return self._submitted.value

    @property
    def ingested_points(self) -> int:
        return self._ingested.value

    @property
    def dropped_points(self) -> int:
        return self._dropped.value

    @property
    def rejected_batches(self) -> int:
        return self._rejected_batches.value

    @property
    def rejected_points(self) -> int:
        return self._rejected_points.value

    @property
    def enqueued_batches(self) -> int:
        return self._enqueued_batches.value

    @property
    def drained_batches(self) -> int:
        return self._drained_batches.value

    @property
    def max_queue_depth(self) -> int:
        return int(self._max_queue_depth.value)

    @property
    def enqueue_wait_seconds(self) -> float:
        return self._enqueue_wait.value

    @property
    def enqueue_latencies(self) -> list[float]:
        """A consistent snapshot of the recent enqueue latencies."""
        return self._latencies.snapshot()

    def latency_quantile(self, fraction: float) -> float:
        """Quantile of recent enqueue latencies in seconds (0 if none)."""
        return self._latencies.quantile(fraction)

    def to_dict(self) -> dict:
        # Both percentiles come from ONE reservoir snapshot: they always
        # describe the same set of observations.
        marks = self._latencies.quantiles((0.50, 0.99))
        return {
            "submitted_points": self.submitted_points,
            "ingested_points": self.ingested_points,
            "dropped_points": self.dropped_points,
            "rejected_batches": self.rejected_batches,
            "rejected_points": self.rejected_points,
            "enqueued_batches": self.enqueued_batches,
            "drained_batches": self.drained_batches,
            "max_queue_depth": self.max_queue_depth,
            "enqueue_wait_seconds": self.enqueue_wait_seconds,
            "enqueue_p50_seconds": marks[0.50],
            "enqueue_p99_seconds": marks[0.99],
        }


class StreamWorker:
    """Threaded ingestion front of one maintainer.

    Parameters mirror the stream spec: ``queue_capacity`` bounds the
    number of *points* (not batches) waiting in the queue,
    ``backpressure`` picks the full-queue policy, ``maintain_every`` is
    forwarded to the internal pipeline, and ``initial_arrivals`` resumes
    the arrival counter of a restored checkpoint so cadence events keep
    firing at the same absolute stream positions.  ``poison`` selects
    what an ingest error does (``"quarantine"`` records, the default, or
    ``"fail"`` the worker); ``injector`` threads a
    :class:`~repro.service.faults.FaultInjector` through the feed path;
    ``replay_limit`` is the bytes of ingested batches the replay log
    may hold for deltas and supervised recovery (``math.inf``: all; 0:
    none; the service trims it and resets the limit, :meth:`trim_replay`);
    ``dead_letter`` lets a supervisor carry the quarantine buffer across
    a restart.

    Observability is opt-in per handle: ``registry`` hosts the worker's
    counters (a private registry is created when omitted), ``tracer``
    attaches per-stage spans (ingest / maintain through the pipeline
    observer, materialize here), and ``accuracy`` feeds ingested points
    to an :class:`~repro.obs.accuracy.AccuracyMonitor` that audits the
    maintainer after a materialize, on its own cadence.
    """

    def __init__(
        self,
        name: str,
        maintainer: Maintainer,
        *,
        maintain_every: int | None = 1,
        queue_capacity: int = 1024,
        backpressure: str = "block",
        initial_arrivals: int = 0,
        poison: str = "quarantine",
        injector: FaultInjector | None = None,
        replay_limit: float = 0,
        dead_letter: DeadLetterBuffer | None = None,
        dead_letter_capacity: int = 1024,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        accuracy: AccuracyMonitor | None = None,
        on_shed=None,
    ) -> None:
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if backpressure not in BACKPRESSURE_POLICIES:
            raise ValueError(
                f"unknown backpressure policy {backpressure!r}; "
                f"use one of {BACKPRESSURE_POLICIES}"
            )
        if poison not in POISON_POLICIES:
            raise ValueError(
                f"unknown poison policy {poison!r}; use one of {POISON_POLICIES}"
            )
        self.name = name
        self.maintainer = maintainer
        self.queue_capacity = queue_capacity
        self.backpressure = backpressure
        self.poison = poison
        self.counters = WorkerCounters(registry, name)
        self.tracer = tracer
        self.accuracy = accuracy
        # Called with the evicted point count on every drop_oldest
        # eviction (under the queue lock -- keep it leaf-locked); the
        # service wires this to QoS shed accounting so dropped mass is
        # always counted, not just when shedding was deliberate.
        self._on_shed = on_shed
        self.dead_letter = (
            dead_letter
            if dead_letter is not None
            else DeadLetterBuffer(
                capacity=dead_letter_capacity,
                registry=self.counters.registry,
                stream=name,
            )
        )
        self._injector = injector
        self._replay_limit = replay_limit
        self._replay: list[tuple[int, np.ndarray]] = []
        self._replay_points = 0
        self._pipeline = StreamPipeline(
            [maintainer],
            maintain_every=maintain_every,
            initial_arrivals=initial_arrivals,
            observer=(
                PipelineObserver(tracer, name) if tracer is not None else None
            ),
        )
        self._queue: deque[np.ndarray] = deque()
        self._queued_points = 0
        # Whole batches dequeued but not yet fully applied, oldest first.
        # The worker takes the *entire* queue in one lock acquisition per
        # drain cycle (whole batches, never individual points), so a
        # producer-side burst costs one wakeup and one materialize
        # instead of one per chunk.
        self._in_flight: list[np.ndarray] | None = None
        self._fatal_leftover: np.ndarray | None = None
        self._cv = threading.Condition()
        # Held by the worker around each batch it feeds (and around the
        # materialize) and by checkpoint readers; guarantees a
        # checkpoint never sees a half-applied batch.
        self._state_lock = threading.Lock()
        # Holds on the worker (see hold()): while any is taken, the worker
        # stops at its next batch boundary, outside the state lock.
        self._holds = 0
        self._view: MaterializedView | None = None
        self._view_lock = threading.Lock()
        self._error: BaseException | None = None
        self._stop_requested = False
        self._thread = threading.Thread(
            target=self._run, name=f"stream-worker:{name}", daemon=True
        )
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        if not self._started:
            self._started = True
            self._thread.start()

    def stop(self, drain: bool = True) -> None:
        """Stop the worker; with ``drain`` (default) finish queued work.

        Idempotent: repeated ``stop``/``close`` calls, stop before
        start, and stop after a worker failure are all safe no-ops
        beyond the first effective shutdown.
        """
        with self._cv:
            if not drain:
                self.counters.record_dropped(self._queued_points)
                self._queue.clear()
                self._queued_points = 0
            self._stop_requested = True
            self._cv.notify_all()
        if self._started and self._thread.is_alive():
            self._thread.join()

    def close(self) -> None:
        """Alias for :meth:`stop` with the default drain-then-stop."""
        self.stop(drain=True)

    @property
    def arrivals(self) -> int:
        """Points the maintainer has actually consumed so far."""
        return self._pipeline.arrivals

    @property
    def failed(self) -> bool:
        """True once the worker thread has died on a fatal error."""
        return self._error is not None

    @property
    def error(self) -> BaseException | None:
        """The fatal error that killed the worker, if any."""
        return self._error

    @property
    def queue_depth(self) -> int:
        """Points currently waiting in the queue."""
        with self._cv:
            return self._queued_points

    def caught_up(self) -> bool:
        """Has this worker fully processed everything handed to it?

        True only when the queue is empty, no dequeued batch is still
        mid-ingest, and the served view is not a stale adoption from a
        crashed predecessor.  An empty queue alone is *not* enough: the
        worker pops a batch before feeding it, so ``queue_depth == 0``
        can coincide with the final replay batch being applied -- the
        exact window in which a supervisor must not yet report the
        stream healthy.
        """
        with self._cv:
            if self._queue or self._in_flight is not None:
                return False
            if self._error is not None:
                return False
        view = self.view()
        if view is None or not view.stale:
            return True
        # Still serving an adopted stale view with nothing left to drain:
        # there was no replay traffic to re-materialize it.  Refresh in
        # place; the maintainer state is already current.
        self.seed_view()
        view = self.view()
        return view is not None and not view.stale

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------

    def submit(self, values) -> int:
        """Enqueue a batch; returns the number of points accepted.

        Thread-safe.  Applies the configured backpressure policy and
        records the time spent waiting for queue space.  The queue owns
        a copy of the batch: a producer may refill its buffer as soon as
        this returns.
        """
        return self._enqueue(as_stream_batch(values))

    def _enqueue(self, batch: np.ndarray) -> int:
        """:meth:`submit` by a batch :func:`as_stream_batch` validated."""
        if batch.size == 0:
            return 0
        batch = batch.copy()
        started = time.perf_counter()
        with self._cv:
            self._raise_if_failed()
            if self._stop_requested:
                raise RuntimeError(f"stream {self.name!r} is stopped")
            if self.backpressure == "block":
                self._cv.wait_for(
                    lambda: self._fits(batch.size)
                    or self._stop_requested
                    or self._error is not None
                )
                self._raise_if_failed()
                if self._stop_requested:
                    raise RuntimeError(f"stream {self.name!r} is stopped")
            elif self.backpressure == "reject":
                if not self._fits(batch.size):
                    self.counters.record_rejected(batch.size)
                    raise BackpressureError(
                        f"stream {self.name!r} queue full "
                        f"({self._queued_points}/{self.queue_capacity} points)"
                    )
            else:  # drop_oldest
                while not self._fits(batch.size) and self._queue:
                    evicted = self._queue.popleft()
                    self._queued_points -= evicted.size
                    self.counters.record_dropped(evicted.size)
                    # Evicted points never reach the synopsis: QoS
                    # counts them as shed mass.
                    if self._on_shed is not None:
                        self._on_shed(int(evicted.size))
            waited = time.perf_counter() - started
            self._queue.append(batch)
            self._queued_points += batch.size
            self.counters.record_enqueue(batch.size, waited, self._queued_points)
            self._cv.notify_all()
        return batch.size

    def preload(self, batches) -> int:
        """Stage batches ahead of any live traffic, bypassing capacity.

        Only valid before :meth:`start`; used by restore/recovery to
        enqueue the replay suffix and a dead worker's pending queue
        before producers can reach the replacement.
        """
        if self._started:
            raise RuntimeError("preload is only valid before start()")
        total = 0
        with self._cv:
            for values in batches:
                batch = as_stream_batch(values)
                if batch.size == 0:
                    continue
                self._queue.append(batch)
                self._queued_points += batch.size
                total += batch.size
            self.counters.note_queue_depth(self._queued_points)
        return total

    def _fits(self, size: int) -> bool:
        # An oversize batch may enter an *empty* queue so it can always
        # make progress; otherwise the point bound is respected.
        if self._queued_points == 0:
            return True
        return self._queued_points + size <= self.queue_capacity

    def flush(self, timeout: float | None = None) -> bool:
        """Block until every queued point has been ingested."""
        with self._cv:
            drained = self._cv.wait_for(
                lambda: (
                    (not self._queue and self._in_flight is None)
                    or self._error is not None
                ),
                timeout=timeout,
            )
            self._raise_if_failed()
            return drained

    def _raise_if_failed(self) -> None:
        if self._error is not None:
            raise WorkerFailedError(
                f"stream {self.name!r} worker failed: {self._error!r}"
            ) from self._error

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------

    def _run(self) -> None:
        """Drain cycles: take the whole backlog, feed it one batch per
        state-lock hold, then materialize once under one more.

        Between two batches the in-flight list holds exactly the batches
        not yet applied, so a :meth:`checkpoint_capture` may take the
        lock there and still get a clean cut.  Before each lock hold the
        worker waits out any :meth:`hold`, so a capture waits for one
        batch at most.
        """
        while True:
            with self._cv:
                self._cv.wait_for(lambda: self._queue or self._stop_requested)
                if not self._queue:
                    break
                # Take the whole backlog in one go: every queue item is a
                # whole submitted batch, and the cycle below pays one
                # queue hand-off and one materialize for all of them
                # instead of one per batch.
                batches = list(self._queue)
                self._queue.clear()
                self._queued_points = 0
                self._in_flight = batches
                self._cv.notify_all()
            try:
                while batches:
                    self._wait_while_held()
                    with self._state_lock:
                        ingested = self._feed(batches[0])
                        self.counters.record_drained(ingested)
                        del batches[0]
                self._wait_while_held()
                with self._state_lock:
                    self._materialize()
                    with self._cv:
                        self._in_flight = None
                        self._cv.notify_all()
            except BaseException as error:  # noqa: B036 - surfaced to producers
                leftover = self._fatal_leftover
                self._fatal_leftover = None
                with self._cv:
                    # The un-applied remainder of the failing batch plus
                    # every not-yet-fed batch of this cycle go back to the
                    # queue front (in order) so a supervisor restart loses
                    # nothing.
                    for pending in reversed(batches[1:]):
                        self._queue.appendleft(pending)
                        self._queued_points += int(pending.size)
                    if leftover is not None and leftover.size:
                        self._queue.appendleft(np.asarray(leftover))
                        self._queued_points += int(leftover.size)
                    self._error = error
                    self._in_flight = None
                    self._cv.notify_all()
                break

    def _wait_while_held(self) -> None:
        if self._holds:
            with self._cv:
                self._cv.wait_for(lambda: not self._holds)

    def hold(self) -> None:
        """Stop the worker at its next batch boundary until
        :meth:`release` (holds nest).  A lock handed straight back from
        batch to batch would starve a capture waiting for it; the shard
        host also holds a barrier's streams while it writes them, so the
        writes do not compete with their ingest (the queues absorb the
        pause)."""
        with self._cv:
            self._holds += 1

    def release(self) -> None:
        """Undo one :meth:`hold`."""
        with self._cv:
            self._holds -= 1
            self._cv.notify_all()

    def _feed(self, batch: np.ndarray) -> int:
        """Feed one batch; returns the number of points ingested.

        Poison handling: an ingest error under ``poison="quarantine"``
        re-feeds the un-applied remainder point by point, quarantining
        the offenders.  Fatal paths (injected crashes, ``poison="fail"``,
        errors not attributable to an un-ingested point) leave the
        remainder in ``_fatal_leftover`` and re-raise.
        """
        start = self._pipeline.arrivals
        self._fatal_leftover = batch
        if self._injector is not None:
            self._injector.on_ingest(self.name, start, int(batch.size))
        try:
            # Every queued batch was validated on its way in.
            self._pipeline._extend(batch)
        except Exception as error:
            # The pipeline rolls its arrival counter back when the feed
            # failed before the maintainer ingested anything, so the gap
            # between counters is exactly the applied prefix.
            applied = self._pipeline.arrivals - start
            if applied:
                self._retain(start, batch[:applied])
            rest = batch[applied:]
            self._fatal_leftover = rest
            if (
                isinstance(error, InjectedFault)
                or self.poison != "quarantine"
                or rest.size == 0
            ):
                raise
            self._fatal_leftover = None
            clean = self._quarantine_rest(rest)
            self.dead_letter.record_batch()
            return applied + clean
        self._retain(start, batch)
        self._fatal_leftover = None
        return int(batch.size)

    def _retain(self, start: int, batch: np.ndarray) -> None:
        """Record an ingested batch: in the replay log (while it is
        kept) and with the accuracy monitor (when configured)."""
        if self._replay_limit:
            self._replay.append((start, batch))
            self._replay_points += int(batch.size)
            if 8 * self._replay_points >= self._replay_limit:
                self._replay, self._replay_points = [], 0
        if self.accuracy is not None:
            self.accuracy.extend(batch)

    def _quarantine_rest(self, rest: np.ndarray) -> int:
        """Per-point isolation of a failing batch remainder."""
        clean = 0
        for i in range(rest.size):
            value = float(rest[i])
            start = self._pipeline.arrivals
            point = np.asarray([value], dtype=np.float64)
            try:
                self._pipeline.extend(point)
            except Exception as error:
                if self._pipeline.arrivals > start:
                    # The point *was* ingested and something after it
                    # (maintenance) failed: not poison. Escalate with
                    # the untouched remainder preserved for replay.
                    self._retain(start, point)
                    self._fatal_leftover = rest[i + 1 :]
                    raise
                self.dead_letter.quarantine(value, error, start)
            else:
                self._retain(start, point)
                clean += 1
        return clean

    def _materialize(self) -> None:
        """Refresh the queryable view from the maintainer.

        Uses ``last_synopsis`` where the backend caches one (the
        staleness side of the maintenance cadence); the result is frozen
        so concurrent queries can never observe later mutation.  A due
        accuracy check then audits the maintainer (the caller holds the
        state lock).
        """
        started = time.perf_counter()
        produce = getattr(self.maintainer, "last_synopsis", None)
        try:
            synopsis = produce() if produce is not None else self.maintainer.synopsis()
        except ValueError:
            return  # nothing ingested yet (e.g. an all-dropped batch)
        view = MaterializedView(
            synopsis=freeze_synopsis(synopsis),
            arrivals=self._pipeline.arrivals,
            created_at=time.time(),
        )
        with self._view_lock:
            self._view = view
        if self.tracer is not None:
            self.tracer.record(
                "materialize", self.name, time.perf_counter() - started
            )
        if self.accuracy is not None:
            self.accuracy.maybe_check(self._pipeline.arrivals, self.maintainer)

    def check_accuracy(self) -> dict | None:
        """Run an accuracy check now, under the state lock (certification).

        Returns the report dict, or None when the stream is unmonitored.
        """
        if self.accuracy is None:
            return None
        with self._state_lock:
            report = self.accuracy.check(self._pipeline.arrivals, self.maintainer)
        return report.to_dict()

    def seed_view(self) -> None:
        """Materialize an initial view outside the worker thread.

        Used right after a checkpoint restore so the stream is queryable
        before any new point arrives.
        """
        with self._state_lock:
            self._materialize()

    def adopt_view(self, view: MaterializedView) -> None:
        """Serve a predecessor's view (marked stale) until fresh data lands.

        Used by the supervisor so queries keep answering while a
        restarted stream replays its backlog.
        """
        with self._view_lock:
            self._view = replace(view, stale=True)

    # ------------------------------------------------------------------
    # Dead-letter retry
    # ------------------------------------------------------------------

    def retry_dead_letters(self) -> dict:
        """Re-feed every quarantined record in place.

        Records that ingest cleanly leave the buffer (appended at the
        current stream position); records that fail again are
        re-quarantined with the fresh error.  Returns outcome counts.
        """
        self._raise_if_failed()
        records = self.dead_letter.take_all()
        succeeded = failed = 0
        with self._state_lock:
            for record in records:
                start = self._pipeline.arrivals
                point = np.asarray([record.value], dtype=np.float64)
                try:
                    self._pipeline.extend(point)
                except Exception as error:
                    self.dead_letter.requarantine(record, error)
                    failed += 1
                else:
                    self._retain(start, point)
                    self.counters.record_ingested(1)
                    succeeded += 1
            if succeeded:
                self._materialize()
        self.dead_letter.note_retry(succeeded, failed)
        return {"retried": len(records), "succeeded": succeeded, "failed": failed}

    # ------------------------------------------------------------------
    # Reader side
    # ------------------------------------------------------------------

    def view(self) -> MaterializedView | None:
        """The last materialized view (None before any ingestion)."""
        with self._view_lock:
            return self._view

    def checkpoint_capture(self, *, replay_since: int | None = None) -> dict:
        """One consistent capture of everything a checkpoint can use.

        Holding the state lock parks the worker *between* batches: the
        worker takes it once per batch, and the capture holds the worker
        (:meth:`hold`) while it waits, so it waits for at most one
        batch, not a whole drain cycle.  The queue lock then captures the
        not-yet-ingested tail (numpy copies): the rest of the drain
        cycle, then the queue.  Every submitted point lands in exactly
        one of the applied state and ``tail``.  A full's capture holds
        ``state`` (the maintainer's ``state_dict()``); with
        ``replay_since`` it is a delta's instead, holding the replay-log
        slice from that arrival -- the batches ingested since the last
        checkpoint.  Serializing the state is left to the caller,
        outside both locks.
        """
        self.hold()
        try:
            with self._state_lock, self._cv:
                self._raise_if_failed()
                tail = [batch.copy() for batch in self._queue]
                if self._in_flight is not None:
                    # The worker drops a batch from the in-flight list
                    # under the state lock once it is applied, so the
                    # ones left are entirely un-applied: they belong to
                    # the tail, ahead of the queued ones.
                    tail = [batch.copy() for batch in self._in_flight] + tail
                capture: dict = {
                    "arrivals": self._pipeline.arrivals,
                    "tail": tail,
                }
                if replay_since is not None:
                    capture["replay"] = [
                        (start, batch.copy())
                        for start, batch in self._replay
                        if start >= replay_since
                    ]
                else:
                    capture["state"] = self.maintainer.state_dict()
                return capture
        finally:
            self.release()

    # ------------------------------------------------------------------
    # Recovery side (supervisor)
    # ------------------------------------------------------------------

    def replay_batches(self) -> list[tuple[int, np.ndarray]]:
        """The retained (start_arrival, batch) replay log, oldest first."""
        with self._state_lock:
            return list(self._replay)

    def trim_replay(self, min_arrival: int, limit: float | None = None) -> None:
        """Drop replay batches that start before ``min_arrival`` (the
        oldest arrival a reader may still ask for, by the service's
        retention rule); ``limit`` replaces the log's byte limit."""
        with self._state_lock:
            if limit is not None:
                self._replay_limit = limit
            self._replay = [
                (start, batch) for start, batch in self._replay
                if start >= min_arrival
            ]
            self._replay_points = sum(int(b.size) for _, b in self._replay)
            if 8 * self._replay_points >= self._replay_limit:
                self._replay, self._replay_points = [], 0

    def drain_pending(self) -> list[np.ndarray]:
        """Take ownership of the not-yet-ingested queue (recovery path).

        Marks the worker stopped so any still-blocked producer is
        released (it will observe the failure and retry through the
        supervisor).
        """
        with self._cv:
            pending = list(self._queue)
            self._queue.clear()
            self._queued_points = 0
            self._stop_requested = True
            self._cv.notify_all()
        return pending

    def stats(self) -> dict:
        """Unified ingest / maintenance / queue telemetry."""
        with self._cv:
            queue_depth = self._queued_points
        maintainer_stats = self.maintainer.stats()
        return {
            "stream": self.name,
            "arrivals": self._pipeline.arrivals,
            "replay_points": self._replay_points,
            "queue_depth": queue_depth,
            "backpressure": self.backpressure,
            "queue_capacity": self.queue_capacity,
            "poison": self.poison,
            "failed": self.failed,
            "maintainer": maintainer_stats.counters(),
            "ingest_seconds": maintainer_stats.ingest_seconds,
            "maintain_seconds": maintainer_stats.maintain_seconds,
            "dead_letter": self.dead_letter.counters(),
            "accuracy": (
                self.accuracy.to_dict() if self.accuracy is not None else None
            ),
            **self.counters.to_dict(),
        }
