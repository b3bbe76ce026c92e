"""The shard host: one process, one in-process StreamService.

:class:`ShardHost` is the child-process side of the sharded service;
:func:`shard_main` is the entry point the router forks for every shard.
A shard owns two channels back to the router:

* the **data channel** -- a dedicated thread applies framed ingest
  batches (:data:`~repro.shard.framing.KIND_DATA`) to the internal
  :class:`~repro.service.service.StreamService` in frame order and
  advances an *applied-sequence watermark* after each one.  The
  watermark is what the router's flush/checkpoint barriers wait on:
  "everything up to seq S has been handed to the workers".  An
  empty-name DATA frame is a pure watermark sync (sent after crash
  replay so barriers against pre-crash sequence numbers resolve).
  Each frame is applied under the lock a checkpoint holds while it
  captures, so a snapshot holds exactly the frames up to the
  watermark it reports, even when other producers keep sending.  Each
  snapshot records that watermark as its *cut*, and a restored shard
  reports every stream's restored cut (``restore_report``), so the
  router replays exactly the frames after it, whichever generation the
  restore reached and whether or not the router heard the barrier's
  reply.
* the **control channel** -- the main thread answers one JSON verb at a
  time (create/drop/query/health/metrics/checkpoint/...), each reply
  echoing the request's sequence number.

Backpressure crosses the process boundary through the OS socket buffer:
when the internal queues block the data thread, the router's ``sendall``
eventually blocks too, which is exactly the ``block`` policy producers
expect.  ``reject`` / ``drop_oldest`` streams never surface exceptions
across the boundary -- refusals happen inside the shard and are visible
through the same worker counters as in the threaded service.

The internal service runs supervised by default, so worker-thread
deaths inside a shard heal locally; whole-process deaths are the
router's job (respawn + restore + replay, see
:mod:`repro.shard.router`).
"""

from __future__ import annotations

import threading
from contextlib import ExitStack
from dataclasses import asdict

from ..service.service import StreamService, StreamSpec, UnknownStreamError
from ..service.stream_worker import BackpressureError, WorkerFailedError
from ..service.supervisor import RestartPolicy, StreamFailedError
from .framing import (
    KIND_DATA,
    KIND_REPLY,
    FramingError,
    decode_batch,
    decode_obj,
    encode_obj,
    recv_frame,
    send_frame,
)

__all__ = ["ShardHost", "shard_main"]

#: How long a shard-side barrier waits for the data thread to catch up
#: before the verb fails (the router's request timeout is longer).
BARRIER_TIMEOUT = 60.0

#: Ingest failures that are stream-local telemetry, not shard faults.
_REFUSALS = (
    UnknownStreamError,
    BackpressureError,
    StreamFailedError,
    WorkerFailedError,
    ValueError,
    RuntimeError,
)


class _Watermark:
    """Monotone applied-sequence counter the barrier verbs wait on."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._applied = 0
        self._closed = False

    def advance(self, seq: int) -> None:
        with self._cond:
            if seq > self._applied:
                self._applied = seq
            self._cond.notify_all()

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def applied(self) -> int:
        with self._cond:
            return self._applied

    def wait(self, seq: int, timeout: float = BARRIER_TIMEOUT) -> bool:
        with self._cond:
            return self._cond.wait_for(
                lambda: self._applied >= seq or self._closed, timeout=timeout
            ) and self._applied >= seq


def _build_service(options: dict) -> StreamService:
    policy = options.get("restart_policy")
    kwargs = dict(
        supervise=bool(options.get("supervise", True)),
        snapshot_keep=int(options.get("snapshot_keep", 2)),
        # The router's injector crosses the fork with the options, so
        # shard-internal ingest faults (slow/crash) stay schedulable.
        # QoS deliberately does NOT cross: admission already ran at the
        # router, and double-metering would shed admitted points twice.
        fault_injector=options.get("fault_injector"),
    )
    if policy is not None and kwargs["supervise"]:
        kwargs["restart_policy"] = RestartPolicy(**policy)
    snapshot_dir = options["snapshot_dir"]
    if options.get("restore"):
        return StreamService.restore(snapshot_dir, **kwargs)
    return StreamService(snapshot_dir=snapshot_dir, **kwargs)


class ShardHost:
    """One shard process: an internal StreamService behind two channels."""

    def __init__(self, shard_id: int, data_sock, ctrl_sock, options: dict) -> None:
        self.shard_id = int(shard_id)
        self.service = _build_service(options)
        self._injector = options.get("fault_injector")
        self._data_sock = data_sock
        self._ctrl_sock = ctrl_sock
        self._watermark = _Watermark()
        # Held by the data thread around each frame's hand-off and by a
        # checkpoint while it captures: the cut between frames.
        self._apply_lock = threading.Lock()
        self._stop_event = threading.Event()
        self._close_checkpoint: bool | None = None

    # -- data plane -----------------------------------------------------

    def _drain_data(self) -> None:
        """Apply DATA frames in order; advance the watermark after each."""
        refused = self.service.registry.counter(
            "repro_shard_refused_batches_total"
        )
        try:
            while True:
                frame = recv_frame(self._data_sock)
                if frame is None:
                    break
                if frame.kind != KIND_DATA:
                    continue
                with self._apply_lock:
                    if frame.name:
                        try:
                            self.service.ingest(
                                frame.name, decode_batch(frame.payload)
                            )
                        except _REFUSALS:
                            # Refusals are shard-local telemetry, never
                            # channel errors: the frame still advances
                            # the watermark so barriers cannot hang on it.
                            refused.inc()
                    self._watermark.advance(frame.seq)
        except (FramingError, OSError):
            pass  # router gone; the control loop shuts the shard down
        finally:
            self._watermark.close()
            self._stop_event.set()

    # -- control plane --------------------------------------------------

    def _barrier(self, args: dict) -> None:
        upto = int(args.get("upto_seq", 0))
        if upto and not self._watermark.wait(upto):
            raise TimeoutError(
                f"shard {self.shard_id} barrier at seq {upto} timed out "
                f"(applied {self._watermark.applied})"
            )

    def dispatch(self, verb: str, args: dict):
        """Answer one control verb against the internal service."""
        service = self.service
        if verb == "ping":
            return {
                "shard": self.shard_id,
                "applied_seq": self._watermark.applied,
            }
        if verb == "restore_report":
            # A restored service resubmits each snapshot's buffered tail
            # through the normal queues; drain it, so the router's
            # replay starts from settled streams.  A cut is None for a
            # snapshot written without one (an older version's).
            service.flush()
            return {
                "streams": service.streams(),
                "cuts": dict(service._restored_cuts),
            }
        if verb == "create_stream":
            service.create_stream(
                args["name"], spec=StreamSpec.from_dict(args["spec"])
            )
            return None
        if verb == "drop_stream":
            service.drop_stream(args["name"], drain=args.get("drain", True))
            return None
        if verb == "streams":
            return service.streams()
        if verb == "spec":
            return service.spec(args["name"]).to_dict()
        if verb == "flush":
            # Unlike checkpoint, an unfinished flush is a False return
            # (threaded flush(timeout) semantics), not an error.
            upto = int(args.get("upto_seq", 0))
            timeout = args.get("timeout")
            wait = (
                BARRIER_TIMEOUT
                if timeout is None
                else min(float(timeout), BARRIER_TIMEOUT)
            )
            if upto and not self._watermark.wait(upto, wait):
                return False
            return service.flush(args.get("name"), timeout=timeout)
        if verb == "health":
            return service.health(args.get("name"))
        if verb == "stats":
            return service.stats(args.get("name"))
        if verb == "range_sum":
            return service.range_sum(
                args["name"], int(args["start"]), int(args["end"])
            )
        if verb == "quantile":
            return service.quantile(args["name"], float(args["fraction"]))
        if verb == "histogram":
            return service.histogram(args["name"])
        if verb == "accuracy":
            return service.accuracy(args["name"])
        if verb == "dead_letters":
            return [
                asdict(record) for record in service.dead_letters(args["name"])
            ]
        if verb == "retry_dead_letters":
            return service.retry_dead_letters(args["name"])
        if verb == "metrics":
            return service.metrics()
        if verb == "spans":
            return [
                asdict(span)
                for span in service.spans(args.get("stage"), args.get("name"))
            ]
        if verb == "certify":
            return service.certify(args.pop("name"), **args)
        if verb == "checkpoint":
            self._barrier(args)
            name = args.get("name")
            names = [name] if name is not None else service.streams()
            return self._checkpoint(names)
        raise ValueError(f"unknown shard verb {verb!r}")

    def _checkpoint(self, names: list[str]) -> dict:
        """Snapshot ``names`` at one cut: the reply's ``paths``, the cut
        (``applied_seq``) and each stream's shape (``shapes``: ``"full"``
        or ``"delta"``, as the service's rule chose it).

        Every stream is captured between the same two data frames, and
        each snapshot records the watermark there.  The writes follow
        while new frames apply, with the streams' workers held at a
        batch boundary: beside busy workers they would take ten times
        as long, while the queues absorb the short pause.  The holds
        are taken under the apply lock, so no frame waits on a held
        worker's full queue while holding it.
        """
        service = self.service
        with ExitStack() as held:
            with self._apply_lock:
                for stream in names:
                    worker = service._worker(stream)
                    worker.hold()
                    held.callback(worker.release)
                applied = self._watermark.applied
                captured = [
                    service._capture_checkpoint(stream, cut=applied)
                    for stream in names
                ]
            paths, shapes = [], {}
            for stream, capture in zip(names, captured):
                with service.tracer.span("checkpoint", stream):
                    paths.append(service._write_checkpoint(capture))
                shapes[stream] = "delta" if "delta" in capture[2] else "full"
        return {"paths": paths, "applied_seq": applied, "shapes": shapes}

    def _close_service(self) -> None:
        """Drain and stop the service, then take its final checkpoint
        of every live stream (unless the router declined one), which
        records its cut like a barrier's."""
        service = self.service
        service.close(checkpoint=False)
        if self._close_checkpoint is not False:
            self._checkpoint(
                [n for n in service.streams() if not service.stats(n)["failed"]]
            )

    def run(self) -> None:
        """Serve both channels until the router says stop (or dies)."""
        data_thread = threading.Thread(
            target=self._drain_data,
            name=f"shard-{self.shard_id}-data",
            daemon=True,
        )
        data_thread.start()
        try:
            while not self._stop_event.is_set():
                frame = recv_frame(self._ctrl_sock)
                if frame is None:
                    break
                verb = frame.name
                args = decode_obj(frame.payload) or {}
                if self._injector is not None:
                    # Scheduled control-plane faults (slow_control_at)
                    # fire here, before dispatch: the reply is delayed
                    # exactly like a wedged shard's would be.
                    self._injector.on_control(verb)
                stopping = verb == "stop"
                if stopping:
                    self._barrier({"upto_seq": args.get("upto_seq", 0)})
                    self._close_checkpoint = args.get("checkpoint")
                    payload = encode_obj({"ok": True, "value": None})
                else:
                    try:
                        # Encoding belongs inside the try: a value the
                        # host cannot encode is an error reply, not a
                        # dead shard.
                        payload = encode_obj(
                            {"ok": True, "value": self.dispatch(verb, args)}
                        )
                    except Exception as error:  # propagated to the router
                        payload = encode_obj({
                            "ok": False,
                            "error": str(error) or repr(error),
                            "error_type": type(error).__name__,
                        })
                try:
                    send_frame(
                        self._ctrl_sock, KIND_REPLY, frame.seq, verb, payload
                    )
                except OSError:
                    break
                if stopping:
                    break
        except (FramingError, OSError):
            pass
        finally:
            try:
                self._close_service()
            finally:
                for sock in (self._data_sock, self._ctrl_sock):
                    try:
                        sock.close()
                    except OSError:
                        pass


def shard_main(shard_id: int, data_sock, ctrl_sock, options: dict) -> None:
    """Child-process entry point: run one shard to completion."""
    ShardHost(shard_id, data_sock, ctrl_sock, options).run()
