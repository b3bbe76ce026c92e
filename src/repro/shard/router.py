"""The shard router: consistent-hash fan-out over N shard processes.

:class:`ShardRouter` is the multi-process tier of the service.  Like
the threaded :class:`~repro.service.service.StreamService` it subclasses
:class:`~repro.service.protocol.ServiceProtocol`, the front door that
owns registration, admission, the turnstile verbs and QoS reporting;
the router supplies only the transport behind it.  It hosts every
stream inside one of N forked **shard processes** (each running a
supervised ``StreamService`` of its own, see :mod:`repro.shard.host`).
Placement is a deterministic consistent-hash ring
(:class:`~repro.shard.placement.HashRing`) over stream names, so a
restored router routes every stream back to the shard that owns its
snapshots.

Ingest crosses the process boundary as length-prefixed binary frames
(one frame per batch, :mod:`repro.shard.framing`); queries, health,
metrics, checkpoints and certification travel as JSON control verbs
with per-request sequence numbers.  Observability is merged: shard
registries are serialized over the control channel and re-labeled with
``shard="<id>"`` (the router's own per-shard series keep their shard
id, its other metrics carry ``shard="router"``), so
``prometheus_metrics()`` is one exposition document for the whole
fleet.

**Shard failure** reuses the snapshot/restart machinery at shard
granularity.  The router retains each stream's data frames since the
oldest full snapshot of it the shard still keeps
(``shard_states()[id]["replay_points"]``, the
``repro_router_replay_points`` gauge); when a shard process dies the
monitor thread respawns it after the :class:`~repro.service.supervisor.
RestartPolicy` backoff, restores it from its own SnapshotStore
directory, reconciles the stream set, and replays each stream's
retained frames after the *cut* its restored snapshot recorded (the
shard's frame watermark at capture) -- deterministic synopses plus
identical replay make the recovered shard bit-identical to one that
never crashed, whichever generation the restore reached.  A shard that
exhausts its restart budget is ``failed``; producers get
:class:`~repro.service.supervisor.StreamFailedError`.

**Barriers.**  Each shard is one unit of the front door's checkpoint
scheduler (:class:`~repro.service.protocol.ServiceProtocol`); its
checkpoint is a barrier, due every ``checkpoint_every`` (its streams'
smallest) or, into the private store,
:data:`~repro.service.protocol.DEFAULT_CHECKPOINT_EVERY` points framed
to it.  That bounds its frame log at ``(snapshot_keep + 1) x (cadence +
one batch)`` points while barriers write fulls, as GK streams do.

Two deliberate semantic differences from the threaded tier:

* ``reject`` / ``drop_oldest`` backpressure refusals happen inside the
  shard and surface as worker counters, not producer exceptions (only
  ``block`` propagates, through the OS socket buffer).
* ``checkpoint(name)`` checkpoints the whole owning shard (every
  stream it hosts): replay retention is per shard, so its durable
  watermark must advance as one unit.  The automatic cadence follows
  (see *Barriers*), and a failed automatic checkpoint counts against
  every stream of the shard.
"""

from __future__ import annotations

import json
import multiprocessing
import socket
import threading
import time
from collections import deque
from dataclasses import replace
from pathlib import Path

from ..obs.tracing import SpanRecord
from ..service.faults import FaultInjector
from ..service.protocol import ServiceProtocol, StreamSpec, UnknownStreamError
from ..service.qos import QoSConfig, QoSController
from ..service.queries import UnsupportedQueryError
from ..service.snapshot import SnapshotCorruptError, _atomic_write
from ..service.supervisor import RestartPolicy, StreamFailedError
from .breaker import CircuitBreaker
from .framing import (
    KIND_CONTROL,
    KIND_DATA,
    KIND_REPLY,
    FramingError,
    decode_obj,
    encode_obj,
    recv_frame,
    send_frame,
)
from .host import shard_main
from .placement import DEFAULT_VIRTUAL_NODES, HashRing

__all__ = [
    "ShardDownError",
    "ShardRemoteError",
    "ShardRouter",
    "ShardUnavailableError",
]

#: Router manifest filename inside the snapshot directory.
MANIFEST_NAME = "router.json"

#: Exceptions a shard raises that map back to local types at the router.
_REMOTE_ERRORS: dict[str, type[Exception]] = {
    "UnknownStreamError": UnknownStreamError,
    "UnsupportedQueryError": UnsupportedQueryError,
    "StreamFailedError": StreamFailedError,
    "ValueError": ValueError,
    "KeyError": KeyError,
    "TimeoutError": TimeoutError,
    "RuntimeError": RuntimeError,
}


#: Each control verb's deadline in seconds (None: the full
#: REQUEST_TIMEOUT, for barriers whose work scales with hosted state) and
#: whether a timed-out call may be resent (read-only verbs, and barriers
#: whose re-execution is a no-op; a timed-out create may have applied).
#: A health probe against a wedged shard must fail in ~2 s, not 120.
VERBS: dict[str, tuple[float | None, bool]] = {
    "ping": (2.0, True),
    "health": (2.0, True),
    "stats": (5.0, True),
    "streams": (5.0, True),
    "accuracy": (5.0, True),
    "dead_letters": (5.0, True),
    "metrics": (10.0, True),
    "spans": (10.0, True),
    "range_sum": (10.0, True),
    "quantile": (10.0, True),
    "histogram": (10.0, True),
    "create_stream": (30.0, False),
    "drop_stream": (30.0, False),
    "retry_dead_letters": (30.0, False),
    "flush": (None, True),
    "checkpoint": (None, True),
    "restore_report": (None, True),
    "certify": (None, False),
    "stop": (None, False),
}

#: The rule of a verb missing from :data:`VERBS`.
UNKNOWN_VERB: tuple[float | None, bool] = (30.0, False)

#: Cap on every control deadline, in seconds.
REQUEST_TIMEOUT = 120.0
#: How long a caller waits for a dead shard to recover, in seconds.
RECOVERY_WAIT = 30.0
#: Resends of a timed-out resendable verb, the first after CTRL_BACKOFF
#: seconds and each later one after twice the previous wait.
CTRL_RETRIES = 2
CTRL_BACKOFF = 0.05
#: Consecutive control failures that open a shard's breaker, and the
#: seconds before its half-open probe.
BREAKER_THRESHOLD = 3
BREAKER_RESET = 5.0


def _frame_points(record: tuple[int, str, bytes]) -> int:
    """Points in a replay-log record (its payload is a float64 buffer)."""
    return len(record[2]) // 8


class ShardDownError(RuntimeError):
    """The owning shard is down: its channel broke mid-verb (the router
    recovers it), or it did not recover within the wait."""


class ShardRemoteError(RuntimeError):
    """A shard-side verb failed with a type the router does not map."""


class ShardUnavailableError(RuntimeError):
    """The shard's circuit breaker is open: it is wedged, not dead.

    The process is alive but its control plane stopped answering within
    deadline; callers fail fast until the half-open probe succeeds.
    """


class _ShardHandle:
    """Router-side state of one shard process."""

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.process = None
        self.data_sock = None
        self.ctrl_sock = None
        # send_lock orders data frames and guards the replay buffer and
        # the shard's checkpoint schedule; ctrl_lock serializes
        # request/reply pairs on the control channel.
        self.send_lock = threading.Lock()
        self.ctrl_lock = threading.Lock()
        self.next_seq = 1
        self.ctrl_seq = 0
        # Each stream's frames since the oldest full of it the shard
        # keeps: (seq, stream, payload), and the points they hold.
        self.replay: deque[tuple[int, str, bytes]] = deque()
        self.replay_points = 0
        # Per stream, the newest frame number the log no longer holds
        # (trimmed, or from before a cold restore): a restore to an
        # earlier cut cannot be replayed exactly.
        self.trimmed_upto: dict[str, int] = {}
        # Per stream, the cuts of the barriers that wrote it the fulls
        # its store keeps: a restore lands at or after the oldest, so
        # the stream's frames up to it can go.
        self.full_cuts: dict[str, deque[int]] = {}
        self.state = "down"  # up / dead / recovering / failed / closed
        self.restarts = 0
        self.last_error: str | None = None
        self.lossy = False
        self.breaker: CircuitBreaker | None = None  # set by the router


class ShardRouter(ServiceProtocol):
    """Multi-process synopsis service: router + N shard processes.

    Parameters
    ----------
    num_shards:
        Shard process count (the consistent-hash ring size).
    snapshot_dir:
        Base directory for durability; each shard gets its own
        ``shard-<id>/`` SnapshotStore underneath, the router writes a
        ``router.json`` manifest (specs + ring geometry) beside them.
        Without it the stores live in a private temporary directory
        that only bounds the replay log (see *Barriers* in the module
        notes): ``checkpoint()`` and ``restore()`` are unavailable, and
        ``close()`` removes the directory.
    restart_policy:
        Shard-process respawn budget/backoff (defaults to
        :class:`RestartPolicy`'s defaults, same as worker supervision).
    snapshot_keep:
        Full snapshot generations each shard retains per stream; also
        bounds how far back the router keeps each stream's replay
        frames.  Each stream's shard decides per barrier whether it
        writes a full or a delta, and the router keeps the stream's
        frames back to the oldest full the shard still keeps, so a
        truncated delta chain can always be re-derived from frames.

    Each shard supervises its worker threads; the control plane's timing
    is :data:`VERBS` and the constants beside it.
    """

    def __init__(
        self,
        num_shards: int = 4,
        snapshot_dir=None,
        *,
        restart_policy: RestartPolicy | None = None,
        snapshot_keep: int = 2,
        fault_injector: FaultInjector | None = None,
        qos: QoSConfig | QoSController | None = None,
        _restore: bool = False,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if snapshot_keep < 1:
            raise ValueError("snapshot_keep must be >= 1")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "ShardRouter needs the 'fork' start method (POSIX only)"
            )
        self._ctx = multiprocessing.get_context("fork")
        self._snapshot_keep = int(snapshot_keep)
        self._restart_policy = restart_policy or RestartPolicy()
        self._injector = fault_injector
        # Without the caller's directory the shards' stores live in a
        # private one, so the frame log always has a full to trim to.
        super().__init__(qos, snapshot_dir, private_store=True)
        self._send_latency = self.registry.histogram(
            "repro_router_send_seconds"
        )
        self._cond = threading.Condition()
        self._stop_event = threading.Event()

        restoring = bool(_restore)
        virtual_nodes = DEFAULT_VIRTUAL_NODES
        if restoring:
            manifest = self._read_manifest()
            num_shards = int(manifest["num_shards"])
            virtual_nodes = int(manifest["virtual_nodes"])
        self.num_shards = int(num_shards)
        self._ring = HashRing(range(self.num_shards), virtual_nodes)
        if restoring:
            for name, spec in manifest["specs"].items():
                self._register(name, StreamSpec.from_dict(spec))
        # Hot-path routing cache: stream -> (handle, points counter).
        self._route: dict[str, tuple[_ShardHandle, object]] = {}

        self._shards = {
            shard_id: _ShardHandle(shard_id)
            for shard_id in range(self.num_shards)
        }
        for handle in self._shards.values():
            handle.breaker = CircuitBreaker(
                shard=str(handle.shard_id),
                failure_threshold=BREAKER_THRESHOLD,
                reset_timeout=BREAKER_RESET,
                registry=self.registry,
            )
            self._add_schedule(
                handle.shard_id, handle.send_lock, shard=str(handle.shard_id)
            )
            try:
                self._spawn(handle, restore=restoring)
            except BaseException:
                # A router that never started leaves no private store.
                self._remove_private_dir()
                raise
            handle.state = "up"
            self.registry.gauge(
                "repro_shard_up", shard=str(handle.shard_id)
            ).set(1)
        if restoring:
            self._reconcile_restored()
        for name in self._specs:
            self._cache_route(name)

        self._monitor_thread = threading.Thread(
            target=self._monitor, name="shard-router-monitor", daemon=True
        )
        self._monitor_thread.start()

    # ------------------------------------------------------------------
    # Process lifecycle
    # ------------------------------------------------------------------

    def _shard_dir(self, shard_id: int) -> str:
        return str(self._snapshot_base / f"shard-{shard_id}")

    def _spawn(self, handle: _ShardHandle, restore: bool) -> None:
        data_parent, data_child = socket.socketpair()
        ctrl_parent, ctrl_child = socket.socketpair()
        options = {
            "snapshot_dir": self._shard_dir(handle.shard_id),
            "snapshot_keep": self._snapshot_keep,
            "restore": bool(restore),
            # The injector object crosses the fork (like the sockets),
            # so position-deterministic faults fire shard-side too.
            "fault_injector": self._injector,
        }
        process = self._ctx.Process(
            target=shard_main,
            args=(handle.shard_id, data_child, ctrl_child, options),
            name=f"repro-shard-{handle.shard_id}",
            daemon=True,
        )
        process.start()
        data_child.close()
        ctrl_child.close()
        handle.process = process
        handle.data_sock = data_parent
        handle.ctrl_sock = ctrl_parent

    def _monitor(self) -> None:
        while not self._stop_event.wait(0.02):
            for handle in self._shards.values():
                state = handle.state
                if state == "dead" or (
                    state == "up" and not handle.process.is_alive()
                ):
                    self._recover(handle)

    def _note_dead(self, handle: _ShardHandle) -> None:
        with self._cond:
            if handle.state == "up":
                handle.state = "dead"
                self._cond.notify_all()
        # A dead process can answer nothing: open immediately so racing
        # control callers fail fast instead of each eating a deadline.
        handle.breaker.trip()

    def _await_up(self, handle: _ShardHandle) -> None:
        """Block until the shard is usable; raise when it never will be."""
        with self._cond:
            self._cond.wait_for(
                lambda: handle.state in ("up", "failed", "closed"),
                timeout=RECOVERY_WAIT,
            )
            if handle.state == "up":
                return
            if handle.state == "failed":
                raise StreamFailedError(
                    f"shard {handle.shard_id} exhausted its restart budget "
                    f"({self._restart_policy.max_restarts}); "
                    f"last error: {handle.last_error}"
                )
            if handle.state == "closed":
                raise RuntimeError("router is closed")
            raise ShardDownError(
                f"shard {handle.shard_id} did not recover within "
                f"{RECOVERY_WAIT:.0f}s (state {handle.state!r})"
            )

    def _recover(self, handle: _ShardHandle) -> None:
        """Respawn, restore, reconcile and replay one dead shard."""
        shard_id = handle.shard_id
        exitcode = handle.process.exitcode
        with self._cond:
            if handle.state in ("closed", "failed", "recovering"):
                return
            handle.state = "recovering"
            handle.last_error = f"shard process exited (code {exitcode})"
            self._cond.notify_all()
        # Monitor-detected deaths never pass through _note_dead; open
        # the breaker here too so control callers racing the respawn
        # fail fast instead of eating deadlines against a dead socket.
        handle.breaker.trip()
        self.registry.gauge("repro_shard_up", shard=str(shard_id)).set(0)
        if handle.restarts >= self._restart_policy.max_restarts:
            with self._cond:
                handle.state = "failed"
                self._cond.notify_all()
            return
        delay = self._restart_policy.delay(handle.restarts)
        handle.restarts += 1
        self.registry.counter(
            "repro_shard_restarts_total", shard=str(shard_id)
        ).inc()
        if self._stop_event.wait(delay):
            return
        try:
            # send_lock held across the whole swap: producers that raced
            # past the state check serialize behind the replay, so frame
            # order on the new channel stays monotone.
            with handle.send_lock:
                for sock in (handle.data_sock, handle.ctrl_sock):
                    try:
                        sock.close()
                    except OSError:
                        pass
                handle.process.join(timeout=5.0)
                self._spawn(handle, restore=True)
                cuts = self._reconcile(handle)
                replayed = 0
                for seq, name, payload in handle.replay:
                    if name in self._specs and seq > cuts.get(name, 0):
                        send_frame(
                            handle.data_sock, KIND_DATA, seq, name, payload
                        )
                        replayed += 1
                # Exact from any restored generation whose cut the log
                # still reaches back to.
                if any(
                    cuts.get(name, 0) < upto
                    for name, upto in handle.trimmed_upto.items()
                ):
                    handle.lossy = True
                if handle.next_seq > 1:
                    # Watermark sync so pre-crash barriers resolve even
                    # when every retained frame was filtered out.
                    send_frame(
                        handle.data_sock, KIND_DATA, handle.next_seq - 1,
                        "", b"",
                    )
            self.registry.counter(
                "repro_router_replayed_frames_total", shard=str(shard_id)
            ).inc(replayed)
        except Exception as error:  # noqa: BLE001 - budget-bounded retry
            handle.last_error = repr(error)
            with self._cond:
                if handle.state == "recovering":
                    handle.state = "dead"  # monitor retries, budget permitting
                    self._cond.notify_all()
            return
        # Recovery talked to the respawned shard through _request_raw
        # (breaker-exempt); it answered, so close the breaker before
        # letting ordinary traffic back in.
        handle.breaker.reset()
        with self._cond:
            handle.state = "up"
            self._cond.notify_all()
        self.registry.gauge("repro_shard_up", shard=str(shard_id)).set(1)

    # ------------------------------------------------------------------
    # Control channel
    # ------------------------------------------------------------------

    def _request_raw(self, handle: _ShardHandle, verb: str, args: dict):
        """One request/reply on the control channel (no recovery retry).

        Applies the verb's deadline (:data:`VERBS`); the reply loop's seq
        matching also skims off stale replies a previous timed-out
        request left behind, so one slow verb cannot poison the channel.
        """
        deadline = VERBS.get(verb, UNKNOWN_VERB)[0] or REQUEST_TIMEOUT
        with handle.ctrl_lock:
            handle.ctrl_sock.settimeout(min(deadline, REQUEST_TIMEOUT))
            handle.ctrl_seq += 1
            seq = handle.ctrl_seq
            send_frame(
                handle.ctrl_sock, KIND_CONTROL, seq, verb, encode_obj(args)
            )
            while True:
                frame = recv_frame(handle.ctrl_sock)
                if frame is None:
                    raise FramingError(
                        f"shard {handle.shard_id} closed the control channel"
                    )
                if frame.kind == KIND_REPLY and frame.seq == seq:
                    break
        reply = decode_obj(frame.payload)
        if reply.get("ok"):
            return reply.get("value")
        error_type = reply.get("error_type", "")
        message = reply.get("error", "shard verb failed")
        raised = _REMOTE_ERRORS.get(error_type)
        if raised is not None:
            raise raised(message)
        raise ShardRemoteError(
            f"shard {handle.shard_id} {verb} failed: {error_type}: {message}"
        )

    def _call(self, handle: _ShardHandle, verb: str, args: dict):
        """:meth:`_request_raw` with its failures classified.  A timeout
        (slow, not dead: respawning a live shard would lose its state for
        nothing) counts against the breaker and re-raises; a broken
        channel marks the shard dead and raises :class:`ShardDownError`.
        Records no success: only :meth:`_request` may close the breaker.
        """
        try:
            return self._request_raw(handle, verb, args)
        except TimeoutError:
            handle.breaker.record_failure()
            raise
        except (OSError, FramingError) as error:
            self._note_dead(handle)
            raise ShardDownError(
                f"shard {handle.shard_id} died during {verb!r}"
            ) from error

    def _request(self, handle: _ShardHandle, verb: str, args: dict):
        """Request with recovery ride-across, breaker gate, and bounded
        retry-with-backoff after timeouts (resendable verbs only)."""
        attempt = 0
        while True:
            if handle.state != "up":
                self._await_up(handle)
            if not handle.breaker.allow():
                raise ShardUnavailableError(
                    f"shard {handle.shard_id} circuit breaker is open "
                    f"({verb!r} rejected); retry after "
                    f"{handle.breaker.reset_timeout:.1f}s"
                )
            try:
                result = self._call(handle, verb, args)
            except TimeoutError:
                if not VERBS.get(verb, UNKNOWN_VERB)[1] or attempt >= CTRL_RETRIES:
                    raise
                time.sleep(CTRL_BACKOFF * 2**attempt)
                attempt += 1
            except ShardDownError:
                pass  # resent once the shard has recovered
            else:
                handle.breaker.record_success()
                return result

    def _owner_handle(self, name: str) -> _ShardHandle:
        return self._involved(name)[0]

    def _ask(self, name: str, verb: str, **args):
        """Send ``verb`` about stream ``name`` to the shard that owns it."""
        return self._request(self._owner_handle(name), verb, {"name": name, **args})

    def _unit_of(self, name: str) -> int:
        return self._ring.owner(name)

    # ------------------------------------------------------------------
    # Stream lifecycle
    # ------------------------------------------------------------------

    def _shard_spec(self, name: str) -> dict:
        """The spec a shard hosts: checkpoint cadence stays router-side.

        Shard-internal auto-checkpoints would write snapshot generations
        at sequence points the router never saw, breaking the
        seq <-> generation correspondence crash replay depends on; the
        router drives the cadence itself, shard-wide.
        """
        return replace(self._specs[name], checkpoint_every=None).to_dict()

    def _cache_route(self, name: str) -> None:
        handle = self._shards[self._ring.owner(name)]
        counter = self.registry.counter(
            "repro_router_ingested_points_total",
            stream=name,
            shard=str(handle.shard_id),
        )
        self._route[name] = (handle, counter)

    def _host_stream(self, name: str, spec: StreamSpec) -> None:
        """Create a registered stream on its owner shard (placement is hashed)."""
        handle = self._shards[self._ring.owner(name)]
        if handle.state != "up":
            self._await_up(handle)
        try:
            self._call(
                handle, "create_stream",
                {"name": name, "spec": self._shard_spec(name)},
            )
        except (TimeoutError, ShardDownError):
            # Registration stands: a slow shard was sent the create and
            # its serial channel will still apply it, and recovery
            # re-creates every owned stream from the spec map.
            pass
        self._cache_route(name)
        self._write_manifest()

    def drop_stream(self, name: str, drain: bool = True) -> None:
        """Stop and forget a stream (its snapshots stay on disk)."""
        handle = self._owner_handle(name)
        self._request(handle, "drop_stream", {"name": name, "drain": drain})
        self._unregister(name)
        self._route.pop(name, None)
        with handle.send_lock:
            handle.replay = deque(
                record for record in handle.replay if record[1] != name
            )
            handle.replay_points = sum(
                _frame_points(record) for record in handle.replay
            )
            handle.trimmed_upto.pop(name, None)
            handle.full_cuts.pop(name, None)
        self._write_manifest()

    def placement(self) -> dict[str, int]:
        """Owner shard id of every hosted stream."""
        return self._ring.assignments(self._specs)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def _deliver(self, name: str, batch) -> int:
        """Frame an admitted batch to the owner shard.

        ``block`` backpressure propagates through the socket buffer;
        ``reject``/``drop_oldest`` refusals happen inside the shard
        (visible in worker counters, never raised here).  A batch
        accepted while the shard is crashing is not lost: it sits in
        the replay buffer and recovery re-delivers it.  A wedged shard
        whose breaker is open raises :class:`ShardUnavailableError`
        instead of blocking on its socket.  The frame goes through the
        shard's checkpoint schedule, so its points count toward the
        shard's next barrier.
        """
        handle, counter = self._route[name]
        points = int(batch.size)
        payload = batch.tobytes()
        if handle.state != "up":
            self._await_up(handle)
        if handle.breaker.blocked():
            raise ShardUnavailableError(
                f"shard {handle.shard_id} circuit breaker is open; "
                f"ingest for {name!r} rejected, retry after "
                f"{handle.breaker.reset_timeout:.1f}s"
            )
        send_failed = []

        def frame() -> int:  # under send_lock
            seq = handle.next_seq
            handle.next_seq = seq + 1
            handle.replay.append((seq, name, payload))
            handle.replay_points += points
            started = time.perf_counter()
            try:
                send_frame(handle.data_sock, KIND_DATA, seq, name, payload)
            except OSError:
                send_failed.append(seq)
            else:
                self._send_latency.observe(time.perf_counter() - started)
            return points

        self._scheduled(self._schedules[handle.shard_id], frame)
        counter.inc(points)
        if send_failed:
            self._note_dead(handle)
        return points

    def flush(self, name: str | None = None, timeout: float | None = None) -> bool:
        """Barrier + drain: every frame sent so far is fully ingested."""
        drained = True
        for handle in self._involved(name):
            with handle.send_lock:
                upto = handle.next_seq - 1
            result = self._request(
                handle, "flush",
                {"upto_seq": upto, "name": name, "timeout": timeout},
            )
            drained = bool(result) and drained
        return drained

    def _involved(self, name: str | None) -> list[_ShardHandle]:
        return [self._shards[shard_id] for shard_id in self._units(name)]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def range_sum(self, name: str, start: int, end: int) -> float:
        """Estimated sum over window positions ``[start, end]``."""
        return self._ask(name, "range_sum", start=int(start), end=int(end))

    def quantile(self, name: str, fraction: float) -> float:
        """Approximate ``fraction``-quantile of the summarized values."""
        return self._ask(name, "quantile", fraction=float(fraction))

    def histogram(self, name: str) -> dict:
        """JSON-friendly rendering of the stream's synopsis."""
        return self._ask(name, "histogram")

    def stats(self, name: str | None = None) -> dict:
        """Ingest/maintenance/queue telemetry (one stream or all)."""
        if name is not None:
            return self._ask(name, "stats")
        merged: dict = {}
        for handle in self._involved(None):
            merged.update(self._request(handle, "stats", {}))
        return dict(sorted(merged.items()))

    def dead_letters(self, name: str) -> list[dict]:
        """Quarantined poison records (as dicts; they crossed a process)."""
        return self._ask(name, "dead_letters")

    def _redeliver_dead_letters(self, name: str) -> dict:
        return self._ask(name, "retry_dead_letters")

    # ------------------------------------------------------------------
    # QoS signals
    # ------------------------------------------------------------------

    def _qos_signals(self) -> dict:
        """Overload signals for the degradation ladder, router flavor.

        ``queue_fill`` is the fraction of shards not currently up (a
        down shard is a saturated queue from the producers' view);
        ``p99_latency`` is the p99 of data-frame send times -- socket
        sends only back up when shard-side queues do.
        """
        down = sum(
            1 for handle in self._shards.values() if handle.state != "up"
        )
        return {
            "queue_fill": down / self.num_shards,
            "p99_latency": self._send_latency.quantile(0.99),
        }

    def _qos_drained(self) -> bool:
        """Every shard answering again gates leaving ``stale_serve``."""
        return all(
            handle.state == "up" for handle in self._shards.values()
        )

    # ------------------------------------------------------------------
    # Health and observability
    # ------------------------------------------------------------------

    def health(self, name: str | None = None) -> dict:
        """Per-stream health (same shape as the threaded service, plus
        ``shard`` / ``shard_restarts``); a down shard renders every
        hosted stream ``degraded``, a failed one ``failed``."""
        if name is None:
            reports: dict = {}
            for handle in self._involved(None):
                shard_reports = None
                if handle.state == "up":
                    try:
                        shard_reports = self._call(handle, "health", {})
                    except (TimeoutError, ShardDownError):
                        pass  # slow or dead: its streams render degraded
                for stream in self._unit_streams(handle.shard_id):
                    if shard_reports is not None and stream in shard_reports:
                        reports[stream] = self._annotate_health(
                            shard_reports[stream], handle
                        )
                    else:
                        reports[stream] = self._down_health(stream, handle)
            return dict(sorted(reports.items()))
        handle = self._owner_handle(name)
        if handle.state != "up":
            return self._down_health(name, handle)
        try:
            # A hung shard raises TimeoutError in ~the health deadline,
            # never the flat request timeout (the regression contract).
            record = self._call(handle, "health", {"name": name})
        except ShardDownError:
            return self._down_health(name, handle)
        return self._annotate_health(record, handle)

    def _annotate_health(self, record: dict, handle: _ShardHandle) -> dict:
        record["shard"] = handle.shard_id
        record["shard_restarts"] = handle.restarts
        if handle.lossy:
            record["lossy_recovery"] = True
        return self._front_health(record)

    def _down_health(self, name: str, handle: _ShardHandle) -> dict:
        state = "failed" if handle.state == "failed" else "degraded"
        return self._front_health({
            "stream": name,
            "state": state,
            "shard": handle.shard_id,
            "shard_restarts": handle.restarts,
            "restarts": handle.restarts,
            "last_error": handle.last_error,
            "lossy_recovery": handle.lossy,
            "stale_view": True,
            "queue_depth": 0,
        })

    def shard_states(self) -> dict[int, dict]:
        """Router-level view of every shard process."""
        return {
            handle.shard_id: {
                "state": handle.state,
                "restarts": handle.restarts,
                "last_error": handle.last_error,
                "breaker": handle.breaker.state_name(),
                "pid": handle.process.pid if handle.process else None,
                "streams": self._unit_streams(handle.shard_id),
                "replay_points": handle.replay_points,
            }
            for handle in self._shards.values()
        }

    def metrics(self, name: str | None = None) -> list[dict]:
        """Merged samples: router registry plus every live shard's,
        labeled with ``shard`` so series never collide.  The router's
        per-shard series keep their shard id; its other samples carry
        ``shard="router"``."""
        for handle in self._shards.values():
            self.registry.gauge(
                "repro_router_replay_points", shard=str(handle.shard_id)
            ).set(handle.replay_points)
        samples = [
            {**sample, "labels": {"shard": "router", **sample["labels"]}}
            for sample in self._collect()
        ]
        for handle in self._shards.values():
            if handle.state != "up":
                continue
            try:
                shard_samples = self._call(handle, "metrics", {})
            except (TimeoutError, ShardDownError, StreamFailedError):
                continue
            samples.extend(
                {
                    **sample,
                    "labels": {
                        **sample["labels"], "shard": str(handle.shard_id)
                    },
                }
                for sample in shard_samples
            )
        if name is not None:
            samples = [
                sample
                for sample in samples
                if sample["labels"].get("stream") == name
            ]
        samples.sort(key=lambda s: (s["name"], sorted(s["labels"].items())))
        return samples

    def spans(
        self, stage: str | None = None, name: str | None = None
    ) -> list[SpanRecord]:
        """Stage spans gathered from every shard, oldest first."""
        records: list[SpanRecord] = []
        for handle in self._involved(None):
            payload = self._request(
                handle, "spans", {"stage": stage, "name": name}
            )
            records.extend(SpanRecord(**span) for span in payload)
        records.sort(key=lambda record: record.started_at)
        return records

    def accuracy(self, name: str) -> dict | None:
        """The stream's accuracy-monitor summary (None if unconfigured)."""
        return self._ask(name, "accuracy")

    # ------------------------------------------------------------------
    # Certification
    # ------------------------------------------------------------------

    def certify(self, name: str | None = None, **kwargs) -> dict:
        """Differential certification per shard + placement audit.

        With a ``name``: the owning shard runs the same three-layer
        :meth:`StreamService.certify` it would run in-process, after a
        flush, so the frames sent so far are ingested first.  Without:
        every hosted stream is certified on its shard and the report
        adds the router-level placement-stability audit.
        """
        if name is not None:
            self.flush(name, timeout=kwargs.get("timeout"))
            report = self._ask(name, "certify", **kwargs)
            report["shard"] = self._ring.owner(name)
            return report
        streams = {
            stream: self.certify(stream, **kwargs) for stream in self.streams()
        }
        placement = self.placement_audit()
        return {
            "passed": placement["passed"]
            and all(report["passed"] for report in streams.values()),
            "streams": streams,
            "placement": placement,
            "shards": self.shard_states(),
        }

    def placement_audit(self, probes: int = 256) -> dict:
        """Audit placement determinism and monotone ring stability.

        Checks that (1) every hosted stream lives on the shard the ring
        assigns it (no drifted placement), and (2) growing the ring by
        one shard moves keys *only* onto the new shard -- the
        consistent-hashing contract that bounds rebalancing.
        """
        keys = sorted(self._specs) + [f"probe_{i}" for i in range(probes)]
        new_shard = max(self._ring.shard_ids) + 1
        grown = HashRing(
            list(self._ring.shard_ids) + [new_shard],
            self._ring.virtual_nodes,
        )
        moved_within = [
            key
            for key in keys
            if grown.owner(key) not in (self._ring.owner(key), new_shard)
        ]
        moved_to_new = sum(1 for key in keys if grown.owner(key) == new_shard)
        misplaced = []
        for handle in self._involved(None):
            hosted = self._request(handle, "streams", {})
            misplaced.extend(
                stream
                for stream in hosted
                if self._ring.owner(stream) != handle.shard_id
            )
            misplaced.extend(
                stream
                for stream in self._unit_streams(handle.shard_id)
                if stream not in hosted
            )
        return {
            "passed": not moved_within and not misplaced,
            "keys_checked": len(keys),
            "moved_to_new_shard": moved_to_new,
            "moved_between_existing": moved_within,
            "misplaced_streams": sorted(set(misplaced)),
        }

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------

    def _checkpoint_unit(self, key: int) -> list[str]:
        """One barrier: the shard snapshots every stream it hosts, each
        in the shape it chooses, and the router trims each stream's
        frames up to the oldest full of it the shard keeps.

        The shard captures every frame up to the barrier, plus any later
        frames other producers got in first, and each snapshot records
        that cut (its watermark at capture); the router records the cut
        the shard reports, not the one it asked for.
        """
        handle = self._shards[key]
        while True:
            if handle.state != "up":
                self._await_up(handle)
            with handle.send_lock:
                upto = handle.next_seq - 1
            try:
                reply = self._call(handle, "checkpoint", {"upto_seq": upto})
            except ShardDownError:
                continue
            cut = int(reply["applied_seq"])
            with handle.send_lock:
                for stream, shape in reply["shapes"].items():
                    if shape == "full":
                        handle.full_cuts.setdefault(
                            stream, deque(maxlen=self._snapshot_keep)
                        ).append(cut)
                self._trim_frames(handle)
            return list(reply["paths"])

    @staticmethod
    def _trim_frames(handle: _ShardHandle) -> None:
        """Drop each stream's frames up to the oldest full of it the shard
        keeps, visiting only the log's prefix (``send_lock`` held)."""
        floors = {stream: cuts[0] for stream, cuts in handle.full_cuts.items()}
        top = max(floors.values(), default=0)
        kept = []
        while handle.replay and handle.replay[0][0] <= top:
            record = handle.replay.popleft()
            if record[0] <= floors.get(record[1], 0):
                handle.replay_points -= _frame_points(record)
                handle.trimmed_upto[record[1]] = record[0]
            else:
                kept.append(record)
        handle.replay.extendleft(reversed(kept))

    def _manifest_path(self) -> Path:
        return self._snapshot_base / MANIFEST_NAME

    def _write_manifest(self) -> None:
        if self._private_dir is not None:
            return  # only restore() reads it, and that needs the caller's
        self._snapshot_base.mkdir(parents=True, exist_ok=True)
        payload = {
            "format": 1,
            "num_shards": self.num_shards,
            "virtual_nodes": self._ring.virtual_nodes,
            "specs": {
                name: spec.to_dict() for name, spec in self._specs.items()
            },
        }
        _atomic_write(
            self._manifest_path(),
            json.dumps(payload, indent=2, sort_keys=True).encode("utf-8"),
            self._injector,
        )

    def _read_manifest(self) -> dict:
        path = self._manifest_path()
        if not path.exists():
            raise FileNotFoundError(
                f"no router manifest at {path}; nothing to restore"
            )
        try:
            manifest = json.loads(path.read_bytes())
        except ValueError as error:
            raise SnapshotCorruptError(f"{path} is not valid JSON: {error}") from error
        if not isinstance(manifest, dict):
            raise SnapshotCorruptError(f"{path} is not a JSON object")
        return manifest

    def _reconcile(self, handle: _ShardHandle) -> dict[str, int]:
        """Align a freshly spawned shard's streams with the spec map.

        Drops the streams its restore brought back that the ring no
        longer places on it, creates the owned ones it lacks, and
        returns the cut each restored stream's snapshot recorded (0
        for a snapshot without one: it predates every frame the router
        holds).
        """
        report = self._request_raw(handle, "restore_report", {})
        owned = self._unit_streams(handle.shard_id)
        for stream in sorted(set(report["streams"]) - set(owned)):
            self._request_raw(
                handle, "drop_stream", {"name": stream, "drain": False}
            )
        for stream in owned:
            if stream not in report["streams"]:
                self._request_raw(
                    handle, "create_stream",
                    {"name": stream, "spec": self._shard_spec(stream)},
                )
        return {stream: int(cut or 0) for stream, cut in report["cuts"].items()}

    def _reconcile_restored(self) -> None:
        """After a cold restore, align every shard with the manifest.

        Frame numbers continue past every restored cut, so a crash
        before the first new barrier replays all the new frames; a
        watermark sync lets barriers at the restored numbers resolve.
        """
        for handle in self._shards.values():
            cuts = self._reconcile(handle)
            handle.trimmed_upto = {
                stream: cuts[stream]
                for stream in self._unit_streams(handle.shard_id)
                if cuts.get(stream)
            }
            top = max(cuts.values(), default=0)
            if top:
                handle.next_seq = top + 1
                send_frame(handle.data_sock, KIND_DATA, top, "", b"")

    @classmethod
    def restore(cls, snapshot_dir, **kwargs) -> "ShardRouter":
        """Bring a whole sharded service back from its snapshot tree.

        Ring geometry and stream specs come from the router manifest;
        each shard restores its internal service from its own
        SnapshotStore directory (with the store's generation fallback),
        so the recovered fleet converges to the state the stopped one
        had checkpointed, under identical placement.
        """
        if not snapshot_dir:
            raise RuntimeError("ShardRouter.restore needs a snapshot_dir")
        return cls(snapshot_dir=snapshot_dir, _restore=True, **kwargs)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _shutdown(self, checkpoint: bool | None) -> None:
        """Barrier, optionally checkpoint, and stop every shard, after any
        barrier in flight (the monitor can still recover its shard);
        ``checkpoint=None`` means each shard takes its default final
        checkpoint into the caller's ``snapshot_dir``."""
        self._stop_event.set()
        if self._monitor_thread.is_alive():
            self._monitor_thread.join(timeout=5.0)
        for handle in self._shards.values():
            process = handle.process
            if (
                process is not None
                and process.is_alive()
                and handle.state in ("up", "dead")
            ):
                try:
                    with handle.send_lock:
                        upto = handle.next_seq - 1
                    self._request_raw(
                        handle, "stop",
                        {"upto_seq": upto, "checkpoint": checkpoint},
                    )
                except (OSError, FramingError, TimeoutError, ShardRemoteError):
                    pass
            if process is not None:
                process.join(timeout=10.0)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=2.0)
                if process.is_alive():  # pragma: no cover - last resort
                    process.kill()
                    process.join(timeout=2.0)
            for sock in (handle.data_sock, handle.ctrl_sock):
                if sock is not None:
                    try:
                        sock.close()
                    except OSError:
                        pass
            with self._cond:
                handle.state = "closed"
                self._cond.notify_all()
