"""Deterministic fault injection for the service layer.

A :class:`FaultInjector` carries a *schedule* of faults -- crash the
worker of a stream once arrival N is reached, fail the next snapshot
write, slow an ingest round down -- and is threaded through
:class:`~repro.service.stream_worker.StreamWorker` and
:class:`~repro.service.snapshot.SnapshotStore` hooks.  Because faults
fire at exact stream positions (not wall-clock times) a chaos run is
fully reproducible: the same schedule over the same data produces the
same crash points, the same recovery replays, and therefore -- by the
determinism of the synopses -- the same recovered state.

The optional seed drives :meth:`crash_points`, which draws crash
arrivals from a seeded generator so randomized chaos suites stay
deterministic across runs.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

__all__ = ["FaultInjector", "InjectedFault"]


class InjectedFault(RuntimeError):
    """A scheduled crash raised by a :class:`FaultInjector`.

    Stream workers treat this as *fatal* (the simulated process death),
    never as a poison record: the batch being fed is preserved for
    replay and the worker thread dies, which is exactly what the
    supervisor is there to detect.
    """


@dataclass
class _ScheduledFault:
    kind: str  # crash | slow | snapshot | slow_control | dir_fsync
    stream: str | None  # None matches every stream (or verb, slow_control)
    at_arrival: int | None = None
    at_seq: int | None = None
    seconds: float = 0.0
    remaining: int = 1

    def matches(self, stream: str) -> bool:
        return self.stream is None or self.stream == stream


class FaultInjector:
    """Seeded, thread-safe schedule of service-layer faults.

    Schedule faults with :meth:`crash_at`, :meth:`slow_ingest_at` and
    :meth:`fail_snapshot_write`; the service components call the
    ``on_*`` hooks, which fire each scheduled fault at most ``times``
    times and append an audit entry to :attr:`events`.
    """

    def __init__(self, seed: int | None = None) -> None:
        self.rng = np.random.default_rng(seed)
        self.events: list[dict] = []
        self._faults: list[_ScheduledFault] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def crash_at(
        self, at_arrival: int | None = None, *, stream: str | None = None,
        times: int = 1,
    ) -> "FaultInjector":
        """Kill the worker once its feed reaches ``at_arrival`` points.

        With ``at_arrival=None`` the very next ingest round crashes.
        Returns ``self`` so schedules chain fluently.
        """
        self._faults.append(
            _ScheduledFault("crash", stream, at_arrival=at_arrival, remaining=times)
        )
        return self

    def slow_ingest_at(
        self, at_arrival: int, seconds: float, *, stream: str | None = None,
        times: int = 1,
    ) -> "FaultInjector":
        """Sleep ``seconds`` in the worker when ``at_arrival`` is reached."""
        self._faults.append(
            _ScheduledFault(
                "slow", stream, at_arrival=at_arrival, seconds=seconds,
                remaining=times,
            )
        )
        return self

    def fail_snapshot_write(
        self, *, stream: str | None = None, at_seq: int | None = None,
        times: int = 1,
    ) -> "FaultInjector":
        """Make snapshot writes raise ``OSError`` (``times`` shots).

        With ``at_seq`` only that snapshot sequence number fails;
        otherwise the next matching write does.
        """
        self._faults.append(
            _ScheduledFault("snapshot", stream, at_seq=at_seq, remaining=times)
        )
        return self

    def slow_control_at(
        self, verb: str | None = None, seconds: float = 1.0, *, times: int = 1,
    ) -> "FaultInjector":
        """Wedge a shard's control plane: sleep before answering ``verb``.

        Fires in the shard process (the injector crosses the fork with
        the spawn options), delaying the reply to the next ``times``
        matching control verbs -- a deterministic stand-in for a wedged
        shard, used to exercise the router's per-verb deadlines and
        circuit breaker without killing real processes.  ``verb=None``
        matches every verb.
        """
        self._faults.append(
            _ScheduledFault(
                "slow_control", verb, seconds=seconds, remaining=times,
            )
        )
        return self

    def drop_dir_fsync(self, *, times: int = 1) -> "FaultInjector":
        """Skip the parent-directory fsync after the next ``times`` writes.

        Simulates the classic torn-rename failure: the snapshot (or the
        router's ``router.json``) file itself is durable, but the
        directory entry that makes it reachable is not, so a crash right
        after ``os.replace`` rolls the directory back.  The chaos suite
        schedules this to prove the store's dir-fsync actually closes
        that window.
        """
        self._faults.append(_ScheduledFault("dir_fsync", None, remaining=times))
        return self

    def crash_points(self, total_arrivals: int, count: int = 1) -> list[int]:
        """``count`` distinct seeded crash arrivals in ``[1, total_arrivals)``.

        A convenience for randomized-but-reproducible chaos suites: the
        injector's seed fully determines the result.
        """
        if total_arrivals < 2:
            raise ValueError("need at least 2 arrivals to pick a crash point")
        points = self.rng.choice(
            np.arange(1, total_arrivals), size=min(count, total_arrivals - 1),
            replace=False,
        )
        return sorted(int(p) for p in points)

    # ------------------------------------------------------------------
    # Hooks (called by StreamWorker / SnapshotStore)
    # ------------------------------------------------------------------

    def on_ingest(self, stream: str, start_arrival: int, size: int) -> None:
        """Fire due ingest faults; may sleep (slow) or raise InjectedFault."""
        due: list[_ScheduledFault] = []
        with self._lock:
            for fault in self._faults:
                if fault.remaining <= 0 or fault.kind not in ("crash", "slow"):
                    continue
                if not fault.matches(stream):
                    continue
                if (
                    fault.at_arrival is not None
                    and start_arrival + size < fault.at_arrival
                ):
                    continue
                fault.remaining -= 1
                self.events.append(
                    {
                        "kind": fault.kind,
                        "stream": stream,
                        "arrival": start_arrival,
                        "batch_size": size,
                    }
                )
                due.append(fault)
        for fault in due:
            if fault.kind == "slow":
                time.sleep(fault.seconds)
        for fault in due:
            if fault.kind == "crash":
                raise InjectedFault(
                    f"injected crash in stream {stream!r} while feeding "
                    f"arrivals ({start_arrival}, {start_arrival + size}]"
                )

    def on_control(self, verb: str) -> None:
        """Fire due control-plane faults (called shard-side per verb)."""
        due: list[_ScheduledFault] = []
        with self._lock:
            for fault in self._faults:
                if fault.remaining <= 0 or fault.kind != "slow_control":
                    continue
                if fault.stream is not None and fault.stream != verb:
                    continue
                fault.remaining -= 1
                self.events.append(
                    {
                        "kind": "slow_control",
                        "verb": verb,
                        "seconds": fault.seconds,
                    }
                )
                due.append(fault)
        for fault in due:
            time.sleep(fault.seconds)

    def on_snapshot_write(self, stream: str, seq: int) -> None:
        """Fire due snapshot-write faults; raises ``OSError`` when one is due."""
        with self._lock:
            for fault in self._faults:
                if fault.remaining <= 0 or fault.kind != "snapshot":
                    continue
                if not fault.matches(stream):
                    continue
                if fault.at_seq is not None and seq != fault.at_seq:
                    continue
                fault.remaining -= 1
                self.events.append(
                    {"kind": "snapshot", "stream": stream, "seq": seq}
                )
                raise OSError(
                    f"injected snapshot write failure for stream {stream!r} "
                    f"(seq {seq})"
                )

    def on_dir_fsync(self, path: str) -> bool:
        """Should this directory fsync be skipped? (called by the store)."""
        with self._lock:
            for fault in self._faults:
                if fault.remaining <= 0 or fault.kind != "dir_fsync":
                    continue
                fault.remaining -= 1
                self.events.append({"kind": "dir_fsync", "path": path})
                return True
        return False

    def pending(self) -> int:
        """Scheduled fault shots not yet fired."""
        with self._lock:
            return sum(max(0, fault.remaining) for fault in self._faults)
