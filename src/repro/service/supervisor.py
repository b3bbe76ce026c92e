"""Worker supervision: detect dead streams, restart them from checkpoints.

The :class:`StreamSupervisor` watches every worker of a
:class:`~repro.service.service.StreamService`.  When a worker dies on a
fatal error (an injected crash, a non-quarantinable ingest failure) the
supervisor rebuilds the stream:

1. the dead worker's pending queue and replay log are captured;
2. after a bounded exponential backoff (``RestartPolicy``), a fresh
   maintainer is restored from the newest *verifiable* snapshot
   generation in the service's store (the caller's, or the private one
   a supervised service without a ``snapshot_dir`` checkpoints into) --
   :class:`~repro.service.snapshot.SnapshotStore` falls back to the
   previous generation when the newest is corrupt;
3. the replay suffix (every batch ingested since that snapshot) and the
   pending queue are staged ahead of live traffic, the dead worker's
   last view is adopted (marked stale) so queries keep answering, its
   older batches start the new replay log (a later crash may fall back
   past that snapshot), and the replacement worker starts.

Because the synopses are deterministic and replay re-feeds the exact
same points at the exact same arrival positions, the recovered stream
is bit-identical to one that never crashed.  Restarts are budgeted
(``max_restarts``); a stream that exhausts its budget is marked
``failed`` and producers get a :class:`StreamFailedError` instead of an
endless crash loop.

Health states surfaced through ``StreamService.health()``:

* ``healthy``  -- worker alive, backlog drained;
* ``degraded`` -- restart pending / backlog replaying (queries are
  served from the stale view meanwhile);
* ``failed``   -- restart budget exhausted (stale view still queryable).
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass

from .snapshot import SnapshotCorruptError

__all__ = ["RestartPolicy", "StreamFailedError", "StreamSupervisor"]

logger = logging.getLogger(__name__)


class StreamFailedError(RuntimeError):
    """A stream exhausted its restart budget and is permanently failed."""


@dataclass(frozen=True)
class RestartPolicy:
    """Restart budget and bounded exponential backoff knobs.

    A stream may be restarted at most ``max_restarts`` times over its
    lifetime; restart ``k`` (0-based) waits
    ``min(backoff_max, backoff_initial * backoff_factor ** k)`` seconds
    before the replacement worker is built.
    """

    max_restarts: int = 5
    backoff_initial: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.backoff_initial < 0 or self.backoff_max < 0:
            raise ValueError("backoff times must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")

    def delay(self, restart_index: int) -> float:
        return min(
            self.backoff_max,
            self.backoff_initial * self.backoff_factor ** restart_index,
        )


class StreamSupervisor:
    """Background watchdog restarting dead workers of one service."""

    def __init__(
        self,
        service,
        policy: RestartPolicy | None = None,
        poll_interval: float = 0.02,
    ) -> None:
        self._service = service
        self.policy = policy or RestartPolicy()
        self.poll_interval = poll_interval
        self._cond = threading.Condition()
        self._restarts: dict[str, int] = {}
        self._states: dict[str, str] = {}
        self._last_error: dict[str, str] = {}
        self._lossy: dict[str, bool] = {}
        self._stop_event = threading.Event()
        self._thread = threading.Thread(
            target=self._watch, name="stream-supervisor", daemon=True
        )
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        if not self._started:
            self._started = True
            self._thread.start()

    def stop(self) -> None:
        self._stop_event.set()
        if self._started and self._thread.is_alive():
            self._thread.join()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def snapshot(self, name: str) -> dict:
        """Supervision record of one stream (state, restarts, last error)."""
        with self._cond:
            return {
                "state": self._states.get(name),
                "restarts": self._restarts.get(name, 0),
                "last_error": self._last_error.get(name),
                "lossy_recovery": self._lossy.get(name, False),
            }

    def wait_recovered(self, name: str, failed_worker, timeout: float = 30.0) -> None:
        """Block until ``name`` is served by a live replacement worker.

        Raises :class:`StreamFailedError` when the restart budget is
        exhausted, ``KeyError`` when the stream was dropped meanwhile,
        and ``TimeoutError`` after ``timeout`` seconds.
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                if self._states.get(name) == "failed":
                    raise StreamFailedError(
                        f"stream {name!r} exhausted its restart budget "
                        f"({self.policy.max_restarts})"
                    )
                current = self._service._workers.get(name)
                if current is None:
                    raise KeyError(f"stream {name!r} was dropped during recovery")
                if current is not failed_worker and not current.failed:
                    return
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"stream {name!r} did not recover within {timeout}s"
                    )
                self._cond.wait(timeout=min(remaining, 0.1))

    # ------------------------------------------------------------------
    # Watch loop
    # ------------------------------------------------------------------

    def _watch(self) -> None:
        while not self._stop_event.wait(self.poll_interval):
            for name, worker in list(self._service._workers.items()):
                if self._states.get(name) == "failed":
                    continue
                if worker.failed:
                    try:
                        self._recover(name, worker)
                    except Exception as error:  # recovery itself failed
                        logger.exception("recovery of stream %r failed", name)
                        with self._cond:
                            self._states[name] = "failed"
                            self._last_error[name] = repr(error)
                            self._cond.notify_all()
                elif self._states.get(name) == "degraded":
                    # An empty queue is not the same as a drained backlog:
                    # the worker pops a batch *before* feeding it, so the
                    # last replay batch can still be mid-ingest (and the
                    # served view still the dead worker's stale adoption)
                    # while queue_depth reads 0.  Promote only once the
                    # worker reports itself fully caught up.
                    if not worker.failed and worker.caught_up():
                        with self._cond:
                            self._states[name] = "healthy"
                            self._cond.notify_all()

    def _recover(self, name: str, dead) -> None:
        service = self._service
        with self._cond:
            count = self._restarts.get(name, 0)
            self._last_error[name] = repr(dead.error)
            if count >= self.policy.max_restarts:
                self._states[name] = "failed"
                self._cond.notify_all()
                logger.error(
                    "stream %r exceeded its restart budget (%d); marking failed",
                    name, self.policy.max_restarts,
                )
                return
            self._states[name] = "degraded"
            self._cond.notify_all()
        logger.warning(
            "stream %r worker died (%r); restart %d/%d in %.3fs",
            name, dead.error, count + 1, self.policy.max_restarts,
            self.policy.delay(count),
        )
        # Interruptible backoff: a service close() must not wait out the
        # full backoff of a crash-looping stream.
        if self._stop_event.wait(self.policy.delay(count)):
            return
        # The span lands even when the rebuild raises (status carries the
        # exception type), so failed recoveries are visible too.
        with service.tracer.span("recover", name, restart=count + 1):
            self._rebuild(name, dead, count)

    def _rebuild(self, name: str, dead, count: int) -> None:
        """Build, seed and start the replacement worker for ``name``."""
        service = self._service
        spec = service._specs[name]
        pending = dead.drain_pending()
        replay = dead.replay_batches()
        state, arrivals = None, 0
        try:
            payload = service._store.load_latest(name)
            state = payload["state"]
            arrivals = int(payload["arrivals"])
        except KeyError:
            pass  # no snapshot yet: rebuild from scratch + replay
        except SnapshotCorruptError:
            logger.exception(
                "no verifiable snapshot of stream %r; rebuilding from replay",
                name,
            )
        replay_suffix = [batch for start, batch in replay if start >= arrivals]
        carried = [(start, batch) for start, batch in replay if start < arrivals]
        covered_from = min((start for start, _ in replay), default=arrivals)
        lossy = covered_from > arrivals
        if lossy:
            # The replay log no longer reaches back to the snapshot
            # position -- recovery proceeds but the gap is on record.
            logger.error(
                "stream %r: replay log starts at arrival %d but the best "
                "snapshot is at %d; recovered stream is missing that gap",
                name, covered_from, arrivals,
            )
        worker = service._build_worker(
            name, spec, state=state, arrivals=arrivals,
            dead_letter=dead.dead_letter,
        )
        stale = dead.view()
        seeded = worker.view()
        if stale is not None and (seeded is None or stale.arrivals >= seeded.arrivals):
            worker.adopt_view(stale)
        worker.adopt_replay(carried)
        worker.preload(replay_suffix + pending)
        with self._cond:
            self._restarts[name] = count + 1
            self._lossy[name] = self._lossy.get(name, False) or lossy
            service._workers[name] = worker
            worker.start()
            self._states[name] = "degraded"
            self._cond.notify_all()
        service.registry.counter("repro_restarts_total", stream=name).inc()
        if lossy:
            service.registry.counter("repro_lossy_recoveries_total", stream=name).inc()
        logger.warning(
            "stream %r restarted from arrival %d (replaying %d points, "
            "%d pending)",
            name, arrivals,
            sum(int(b.size) for b in replay_suffix),
            sum(int(b.size) for b in pending),
        )
