"""Sharded tier tests: framing, placement, router/threaded equivalence,
crash recovery and restore.

The equivalence class is the heart of the suite: every registry backend
is driven through a :class:`~repro.shard.ShardRouter` and a threaded
:class:`~repro.service.StreamService` with identical arrival order, and
the two tiers must answer every query bit-identically (all synopses are
deterministic -- the reservoir backend is seeded).  Crash tests SIGKILL
real shard processes and require bit-identical recovery from the
shard's own snapshot generation plus the router's replay buffer.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import socket
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.obs import parse_prometheus_text
from repro.service import FaultInjector, SnapshotCorruptError, StreamService
from repro.service.config import ServiceConfig, build_service, load_config
from repro.service.protocol import DEFAULT_CHECKPOINT_EVERY, ServiceProtocol
from repro.service.queries import UnsupportedQueryError
from repro.shard import FramingError, HashRing, ShardRouter
from repro.shard.framing import (
    KIND_CONTROL,
    KIND_DATA,
    KIND_REPLY,
    decode_batch,
    decode_obj,
    encode_batch,
    encode_obj,
    recv_frame,
    send_frame,
)

pytestmark = pytest.mark.shard

POINTS = 1_536
CHUNK = 192


def _domain_stream(n: int, seed: int) -> np.ndarray:
    """Integer-valued points in [0, 100]: inside every backend's domain
    (``dynamic_wavelet`` only accepts values below its ``domain_size``)."""
    rng = np.random.default_rng(seed)
    return np.floor(rng.random(n) * 101.0)


def _chunks(data: np.ndarray) -> list[np.ndarray]:
    return [data[i : i + CHUNK] for i in range(0, len(data), CHUNK)]


def _outcome(service, query, name: str):
    """Query result, or the marker that the backend cannot answer it."""
    try:
        return ("ok", query(service, name))
    except UnsupportedQueryError:
        return ("unsupported", None)


QUERIES = (
    ("histogram", lambda s, n: s.histogram(n)),
    ("median", lambda s, n: s.quantile(n, 0.5)),
    ("p95", lambda s, n: s.quantile(n, 0.95)),
    # Positional range inside the smallest windowed backend (size 64).
    ("range_sum", lambda s, n: s.range_sum(n, 5, 50)),
)


def _uninterrupted(backend: str, params: dict, chunks) -> dict:
    """Every query's outcome on a threaded run that never crashed."""
    with StreamService() as reference:
        reference.create_stream(
            "rec", backend=backend, params=params, maintain_every=16
        )
        for chunk in chunks:
            reference.ingest("rec", chunk)
        assert reference.flush("rec") is True
        return {
            label: _outcome(reference, query, "rec") for label, query in QUERIES
        }


def _assert_recovered(router: ShardRouter, expected: dict, label: str) -> None:
    """Healthy, not lossy, and every answer equal to the reference."""
    assert router.stats("rec")["arrivals"] == POINTS
    health = router.health("rec")
    assert health["state"] == "healthy"
    assert health["lossy_recovery"] is False
    for query_label, query in QUERIES:
        assert _outcome(router, query, "rec") == expected[query_label], (
            f"{label}: {query_label} diverged after crash recovery"
        )


class TestFraming:
    def test_roundtrip_data_and_control(self):
        left, right = socket.socketpair()
        try:
            batch = np.arange(9, dtype=np.float64)
            send_frame(left, KIND_DATA, 7, "cpu", encode_batch(batch))
            send_frame(left, KIND_CONTROL, 8, "flush", encode_obj({"a": 1}))
            frame = recv_frame(right)
            assert (frame.kind, frame.seq, frame.name) == (KIND_DATA, 7, "cpu")
            np.testing.assert_array_equal(decode_batch(frame.payload), batch)
            frame = recv_frame(right)
            assert (frame.kind, frame.seq, frame.name) == (
                KIND_CONTROL, 8, "flush",
            )
            assert decode_obj(frame.payload) == {"a": 1}
            left.close()
            assert recv_frame(right) is None  # clean EOF at a boundary
        finally:
            right.close()

    def test_mid_frame_eof_is_an_error(self):
        left, right = socket.socketpair()
        try:
            send_frame(left, KIND_DATA, 1, "cpu", b"\x00" * 16)
            # Resend just a truncated prefix of the same frame.
            buffered = right.recv(4096)
            left.sendall(buffered[: len(buffered) // 2])
            left.close()
            with pytest.raises(FramingError):
                recv_frame(right)
        finally:
            right.close()

    def test_batch_codec_rejects_ragged_payload(self):
        with pytest.raises(FramingError):
            decode_batch(b"\x00" * 13)

    def test_encode_batch_is_contiguous_float64(self):
        batch = encode_batch([1, 2, 3])
        assert len(batch) == 24
        np.testing.assert_array_equal(
            decode_batch(batch), np.asarray([1.0, 2.0, 3.0])
        )


class TestShardHostReplies:
    def test_unencodable_reply_is_an_error_not_a_dead_shard(self, monkeypatch):
        from repro.shard.host import ShardHost

        data_host, data_router = socket.socketpair()
        ctrl_host, ctrl_router = socket.socketpair()
        host = ShardHost(0, data_host, ctrl_host, {"snapshot_dir": None})
        dispatch = host.dispatch
        monkeypatch.setattr(
            host, "dispatch",
            lambda verb, args: {1, 2} if verb == "streams" else dispatch(verb, args),
        )
        runner = threading.Thread(target=host.run, daemon=True)
        runner.start()

        def call(seq, verb):
            send_frame(ctrl_router, KIND_CONTROL, seq, verb, encode_obj({}))
            frame = recv_frame(ctrl_router)
            assert (frame.kind, frame.seq) == (KIND_REPLY, seq)
            return decode_obj(frame.payload)

        try:
            reply = call(1, "streams")  # a set has no JSON encoding
            assert reply["ok"] is False
            assert reply["error_type"] == "TypeError"
            assert call(2, "ping")["value"]["shard"] == 0
            assert call(3, "stop")["ok"] is True
            runner.join(timeout=10.0)
            assert not runner.is_alive()
        finally:
            data_router.close()
            ctrl_router.close()


class TestHashRing:
    def test_deterministic_across_instances(self):
        keys = [f"stream-{i}" for i in range(300)]
        one = HashRing(range(4))
        two = HashRing(range(4))
        assert [one.owner(k) for k in keys] == [two.owner(k) for k in keys]

    def test_growth_moves_keys_only_to_the_new_shard(self):
        """Consistent hashing's contract: shrink/grow is monotone."""
        keys = [f"stream-{i}" for i in range(400)]
        for shards in range(1, 6):
            before = HashRing(range(shards))
            after = HashRing(range(shards + 1))
            moved = {
                k: (before.owner(k), after.owner(k))
                for k in keys
                if before.owner(k) != after.owner(k)
            }
            assert moved, f"growing {shards}->{shards + 1} moved nothing"
            assert all(new == shards for _, new in moved.values()), moved

    def test_load_is_spread(self):
        ring = HashRing(range(4))
        owners = {ring.owner(f"stream-{i}") for i in range(400)}
        assert owners == {0, 1, 2, 3}


class TestRouterEquivalence:
    def test_all_backends_match_threaded_tier(self, all_backends):
        """Same arrival order => bit-identical answers from both tiers."""
        backend, params = all_backends
        data = _domain_stream(POINTS, seed=11)
        with StreamService() as single, ShardRouter(num_shards=2) as router:
            for tier in (single, router):
                tier.create_stream(
                    "eq", backend=backend, params=params, maintain_every=16
                )
                for chunk in _chunks(data):
                    tier.ingest("eq", chunk)
                assert tier.flush("eq") is True
            assert single.stats("eq")["arrivals"] == POINTS
            assert router.stats("eq")["arrivals"] == POINTS
            for label, query in QUERIES:
                assert _outcome(single, query, "eq") == _outcome(
                    router, query, "eq"
                ), f"{backend}: {label} diverged across tiers"

    def test_both_tiers_satisfy_the_protocol(self):
        with StreamService() as single, ShardRouter(num_shards=1) as router:
            assert isinstance(single, ServiceProtocol)
            assert isinstance(router, ServiceProtocol)


class TestRouterLifecycle:
    def test_placement_and_fanout(self):
        data = _domain_stream(512, seed=3)
        with ShardRouter(num_shards=4) as router:
            names = [f"s{i}" for i in range(8)]
            for name in names:
                router.create_stream(
                    name, backend="gk_quantiles", params={"epsilon": 0.1},
                    maintain_every=32,
                )
                router.ingest(name, data)
            assert router.flush() is True
            placement = router.placement()
            assert set(placement) == set(names)
            assert set(placement.values()) <= {0, 1, 2, 3}
            stats = router.stats()
            assert all(stats[name]["arrivals"] == 512 for name in names)
            health = router.health()
            assert all(
                record["state"] == "healthy" for record in health.values()
            )
            assert {record["shard"] for record in health.values()} == set(
                placement.values()
            )

    def test_merged_metrics_carry_shard_labels(self):
        with ShardRouter(num_shards=2) as router:
            router.create_stream(
                "m", backend="gk_quantiles", params={"epsilon": 0.1},
                maintain_every=32,
            )
            router.ingest("m", _domain_stream(256, seed=5))
            assert router.flush() is True
            samples = router.metrics()
            shards = {s["labels"].get("shard") for s in samples}
            assert "router" in shards
            assert shards & {"0", "1"}
            text = router.prometheus_metrics()
            assert "repro_submitted_points_total" in text
            series = [
                (s["name"], tuple(sorted(s["labels"].items())))
                for s in samples
            ]
            assert len(series) == len(set(series)), "repeated series"
            up = sorted(
                s["labels"]["shard"]
                for s in samples
                if s["name"] == "repro_shard_up"
            )
            assert up == ["0", "1"]
            # One CPU-seconds sample per process: the router and each host.
            cpu = sorted(
                s["labels"]["shard"]
                for s in samples
                if s["name"] == "repro_process_cpu_seconds"
            )
            assert cpu == ["0", "1", "router"]
            # Each shard's barrier series: how long barriers took from
            # falling due, and how long producers waited for them.
            for series in (
                "repro_checkpoint_seconds_count",
                "repro_checkpoint_wait_seconds_count",
            ):
                shards = sorted(
                    s["labels"]["shard"]
                    for s in parse_prometheus_text(text)
                    if s["name"] == series
                )
                assert shards == ["0", "1"], series

    def test_certify_covers_streams_and_placement(self):
        with ShardRouter(num_shards=2) as router:
            router.create_stream(
                "c", backend="gk_quantiles", params={"epsilon": 0.05},
                maintain_every=32,
            )
            router.ingest("c", _domain_stream(512, seed=9))
            assert router.flush() is True
            verdict = router.certify()
            assert verdict["passed"] is True
            assert verdict["placement"]["passed"] is True
            assert verdict["streams"]["c"]["passed"] is True
            assert verdict["streams"]["c"]["shard"] in (0, 1)


def _kill_owner(router: ShardRouter, name: str) -> int:
    """SIGKILL the shard process hosting ``name``; returns its id."""
    shard_id = router.placement()[name]
    pid = router.shard_states()[shard_id]["pid"]
    os.kill(pid, signal.SIGKILL)
    return shard_id


def _wait_for_restart(router: ShardRouter, shard_id: int,
                      timeout: float = 15.0) -> None:
    """Wait until the shard has been respawned at least once and is up."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        state = router.shard_states()[shard_id]
        if state["restarts"] >= 1 and state["state"] == "up":
            return
        time.sleep(0.01)
    raise AssertionError(
        f"shard {shard_id} never came back: {router.shard_states()[shard_id]}"
    )


def _barriers(router: ShardRouter, shard_id: int) -> int:
    return router.registry.histogram(
        "repro_checkpoint_seconds", shard=str(shard_id)
    ).count


def _wait_for_barriers(router: ShardRouter, shard_id: int, count: int,
                       timeout: float = 30.0) -> None:
    """Wait until ``count`` barriers on the shard have been recorded
    (automatic barriers run on the router's checkpointer thread)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if _barriers(router, shard_id) >= count:
            return
        time.sleep(0.01)
    raise AssertionError(
        f"shard {shard_id} recorded {_barriers(router, shard_id)} of "
        f"{count} barriers within {timeout:.0f}s"
    )


def _wait_for_state(router: ShardRouter, shard_id: int, state: str,
                    timeout: float = 15.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if router.shard_states()[shard_id]["state"] == state:
            return
        time.sleep(0.01)
    raise AssertionError(
        f"shard {shard_id} never reached {state!r}: "
        f"{router.shard_states()[shard_id]}"
    )


@pytest.mark.chaos
class TestShardCrashRecovery:
    def test_sigkill_mid_ingest_recovers_bit_identical(
        self, all_backends, tmp_path
    ):
        """Checkpoint + SIGKILL + keep ingesting: replay heals losslessly."""
        backend, params = all_backends
        data = _domain_stream(POINTS, seed=13)
        chunks = _chunks(data)
        half = len(chunks) // 2
        with StreamService() as reference:
            reference.create_stream(
                "rec", backend=backend, params=params, maintain_every=16
            )
            for chunk in chunks:
                reference.ingest("rec", chunk)
            assert reference.flush("rec") is True
            expected = {
                label: _outcome(reference, query, "rec")
                for label, query in QUERIES
            }
        with ShardRouter(
            num_shards=2, snapshot_dir=tmp_path / "snap"
        ) as router:
            router.create_stream(
                "rec", backend=backend, params=params, maintain_every=16
            )
            for chunk in chunks[:half]:
                router.ingest("rec", chunk)
            router.checkpoint()
            shard_id = _kill_owner(router, "rec")
            for chunk in chunks[half:]:
                router.ingest("rec", chunk)
            assert router.flush("rec") is True
            _wait_for_state(router, shard_id, "up")
            assert router.shard_states()[shard_id]["restarts"] >= 1
            assert router.stats("rec")["arrivals"] == POINTS
            health = router.health("rec")
            assert health["state"] == "healthy"
            assert health["lossy_recovery"] is False
            for label, query in QUERIES:
                assert _outcome(router, query, "rec") == expected[label], (
                    f"{backend}: {label} diverged after crash recovery"
                )

    def test_sigkill_with_delta_cadence_recovers_bit_identical(
        self, tmp_path
    ):
        """Delta checkpoints on the shard tier heal just as losslessly."""
        data = _domain_stream(POINTS, seed=29)
        chunks = _chunks(data)
        quarter = len(chunks) // 4
        params = {"window_size": 1024}
        with StreamService() as reference:
            reference.create_stream(
                "rec", backend="exact", params=params, maintain_every=16
            )
            for chunk in chunks:
                reference.ingest("rec", chunk)
            assert reference.flush("rec") is True
            expected = reference.histogram("rec")
        snap = tmp_path / "snap"
        with ShardRouter(num_shards=2, snapshot_dir=snap) as router:
            router.create_stream(
                "rec", backend="exact", params=params, maintain_every=16
            )
            # Four barriers, a quarter of the points apart: the exact
            # window's full outweighs the next quarter's delta, so the
            # shard writes full, delta, full, delta.
            for barrier in range(4):
                for chunk in chunks[barrier * quarter : (barrier + 1) * quarter]:
                    router.ingest("rec", chunk)
                router.flush("rec")
                router.checkpoint()
            deltas = list(snap.rglob("*.delta"))
            assert deltas, "the shape rule never produced a delta file"
            shard_id = _kill_owner(router, "rec")
            for chunk in chunks[4 * quarter :]:
                router.ingest("rec", chunk)
            assert router.flush("rec") is True
            _wait_for_state(router, shard_id, "up")
            assert router.stats("rec")["arrivals"] == POINTS
            health = router.health("rec")
            assert health["state"] == "healthy"
            assert health["lossy_recovery"] is False
            assert router.histogram("rec") == expected

    def test_frame_log_keeps_each_stream_back_to_its_oldest_full(
        self, tmp_path
    ):
        """One shard hosts an exact window (fulls outweigh several
        deltas) and a GK summary (fulls only).  After every barrier the
        router holds each stream's frames after the oldest full of it
        the shard keeps (keep=2), and a SIGKILL in the middle of the
        exact stream's delta chain recovers bit-identical."""
        names = {"e": ("exact", {"window_size": 1024}),
                 "q": ("gk_quantiles", {"epsilon": 0.05})}
        data = {name: _domain_stream(4 * 1024, seed=seed)
                for name, seed in (("e", 71), ("q", 72))}
        with StreamService() as reference:
            for name, (backend, params) in names.items():
                reference.create_stream(name, backend=backend, params=params)
                reference.ingest(name, data[name])
            reference.flush()
            expected = {name: reference.histogram(name) for name in names}
        with ShardRouter(num_shards=1, snapshot_dir=tmp_path) as router:
            for name, (backend, params) in names.items():
                router.create_stream(name, backend=backend, params=params)
            frames = []  # (seq, stream, points): one frame per ingest
            fulls = {name: [] for name in names}
            shapes = []
            position = 0
            for end in range(1024, 1024 + 10 * CHUNK, CHUNK):
                for name in names:
                    router.ingest(name, data[name][position:end])
                    frames.append((len(frames) + 1, name, end - position))
                position = end
                assert router.flush() is True
                paths = router.checkpoint()
                cut = len(frames)
                for path in paths:
                    name = Path(path).name.split("-")[0]
                    if path.endswith(".snap"):
                        fulls[name].append(cut)
                shapes.append(
                    "".join("F" if p.endswith(".snap") else "D" for p in paths)
                )
                floors = {name: cuts[-2:][0] for name, cuts in fulls.items()}
                held = sum(
                    points for seq, name, points in frames
                    if seq > floors[name]
                )
                assert router.shard_states()[0]["replay_points"] == held
            # (e, q) per barrier: a 192-point delta (about 2 KB) is a
            # fifth of the exact window's full, and heavier than GK's.
            assert shapes == ["FF"] + ["DF"] * 4 + ["FF"] + ["DF"] * 4
            _kill_owner(router, "e")
            for name in names:
                router.ingest(name, data[name][position:])
            assert router.flush() is True
            _wait_for_restart(router, 0)
            assert router.flush() is True
            for name in names:
                health = router.health(name)
                assert health["state"] == "healthy"
                assert health["lossy_recovery"] is False
                assert router.stats(name)["arrivals"] == data[name].size
                assert router.histogram(name) == expected[name]

    def test_recreated_stream_does_not_recover_its_predecessor(
        self, tmp_path
    ):
        old = _domain_stream(512, seed=73) + 1000.0
        new = _domain_stream(192, seed=74)
        params = {"epsilon": 0.05}
        with StreamService() as reference:
            reference.create_stream("x", backend="gk_quantiles", params=params)
            reference.ingest("x", new)
            reference.flush("x")
            expected = reference.histogram("x")
        with ShardRouter(num_shards=1, snapshot_dir=tmp_path) as router:
            router.create_stream("x", backend="gk_quantiles", params=params)
            router.ingest("x", old)
            router.flush("x")
            router.checkpoint()
            router.drop_stream("x")
            router.create_stream("x", backend="gk_quantiles", params=params)
            router.ingest("x", new)
            assert router.flush("x") is True
            _kill_owner(router, "x")
            _wait_for_restart(router, 0)
            assert router.flush("x") is True
            health = router.health("x")
            assert health["state"] == "healthy"
            assert health["lossy_recovery"] is False
            assert router.stats("x")["arrivals"] == new.size
            assert router.quantile("x", 1.0) < 1000.0
            assert router.histogram("x") == expected

    def test_sigkill_without_snapshot_dir_recovers_bit_identical(
        self, all_backends
    ):
        """No snapshot_dir: automatic barriers into the private store
        (on the stream's cadence; public checkpoint() refuses) give the
        respawned shard a base, and replay heals it losslessly."""
        backend, params = all_backends
        data = _domain_stream(POINTS, seed=13)
        chunks = _chunks(data)
        half = len(chunks) // 2
        with StreamService() as reference:
            reference.create_stream(
                "rec", backend=backend, params=params, maintain_every=16
            )
            for chunk in chunks:
                reference.ingest("rec", chunk)
            assert reference.flush("rec") is True
            expected = {
                label: _outcome(reference, query, "rec")
                for label, query in QUERIES
            }
        with ShardRouter(num_shards=2) as router:
            router.create_stream(
                "rec", backend=backend, params=params, maintain_every=16,
                checkpoint_every=2 * CHUNK,
            )
            for chunk in chunks[: half + 1]:
                router.ingest("rec", chunk)
            shard_id = router.placement()["rec"]
            _wait_for_barriers(router, shard_id, 2)
            _kill_owner(router, "rec")
            for chunk in chunks[half + 1 :]:
                router.ingest("rec", chunk)
            assert router.flush("rec") is True
            _wait_for_restart(router, shard_id)
            assert router.flush("rec") is True
            assert router.stats("rec")["arrivals"] == POINTS
            health = router.health("rec")
            assert health["state"] == "healthy"
            assert health["lossy_recovery"] is False
            for label, query in QUERIES:
                assert _outcome(router, query, "rec") == expected[label], (
                    f"{backend}: {label} diverged after crash recovery"
                )

    def test_barrier_records_the_cut_the_shard_captured(self, tmp_path):
        """Frames another producer sends while a barrier waits may land
        in its snapshot; recovery must not send them a second time."""
        chunk, late = 512, 8
        data = {"a": _domain_stream(32_768, seed=41),
                "b": _domain_stream(32_768, seed=43)}
        chunks = {
            name: [values[i : i + chunk] for i in range(0, values.size, chunk)]
            for name, values in data.items()
        }
        # The shard holds the checkpoint verb for 0.5 s before it runs.
        injector = FaultInjector().slow_control_at("checkpoint", 0.5)
        with StreamService() as reference, ShardRouter(
            num_shards=1, snapshot_dir=tmp_path / "snap",
            fault_injector=injector,
        ) as router:
            for tier in (reference, router):
                for name in data:
                    tier.create_stream(
                        name, backend="gk_quantiles",
                        params={"epsilon": 0.05}, maintain_every=16,
                    )
            for name, batches in chunks.items():
                for batch in batches:
                    reference.ingest(name, batch)
            for batch in chunks["a"]:
                router.ingest("a", batch)
            for batch in chunks["b"][:-late]:
                router.ingest("b", batch)

            def send_late() -> None:
                time.sleep(0.1)  # the checkpoint is waiting on the shard
                for batch in chunks["b"][-late:]:
                    router.ingest("b", batch)

            producer = threading.Thread(target=send_late)
            producer.start()
            router.checkpoint()
            producer.join(timeout=60.0)
            assert not producer.is_alive()
            assert router.flush() is True
            _kill_owner(router, "b")
            _wait_for_restart(router, 0)
            assert router.flush() is True
            assert reference.flush() is True
            for name in data:
                assert router.stats(name)["arrivals"] == 32_768
                assert router.health(name)["lossy_recovery"] is False
                assert router.histogram(name) == reference.histogram(name)

    def test_barrier_under_a_streaming_producer_recovers_exactly(
        self, tmp_path
    ):
        """A producer that keeps sending through the barrier: the router
        records the shard's cut, so recovery takes the exact path."""
        chunk = 512
        data = _domain_stream(1 << 19, seed=47)
        batches = [data[i : i + chunk] for i in range(0, data.size, chunk)]
        with StreamService() as reference, ShardRouter(
            num_shards=1, snapshot_dir=tmp_path / "snap"
        ) as router:
            for tier in (reference, router):
                tier.create_stream(
                    "b", backend="gk_quantiles", params={"epsilon": 0.05},
                    maintain_every=16,
                )
            for batch in batches:
                reference.ingest("b", batch)
            streaming = threading.Event()

            def produce() -> None:
                for index, batch in enumerate(batches):
                    router.ingest("b", batch)
                    if index == 64:
                        streaming.set()

            producer = threading.Thread(target=produce)
            producer.start()
            assert streaming.wait(30.0)
            router.checkpoint()
            producer.join(timeout=60.0)
            assert not producer.is_alive()
            assert router.flush() is True
            _kill_owner(router, "b")
            _wait_for_restart(router, 0)
            assert router.flush() is True
            assert reference.flush() is True
            assert router.stats("b")["arrivals"] == data.size
            assert router.health("b")["lossy_recovery"] is False
            assert router.histogram("b") == reference.histogram("b")

    def test_crash_without_snapshots_replays_the_full_buffer(self):
        """No snapshot_dir and fewer points than DEFAULT_CHECKPOINT_EVERY
        => no barrier has trimmed the replay buffer yet, so the respawned
        (empty) shard is rebuilt from replay alone and the answers do not
        change."""
        data = _domain_stream(POINTS, seed=17)
        with ShardRouter(num_shards=1) as router:
            router.create_stream(
                "v", backend="gk_quantiles", params={"epsilon": 0.05},
                maintain_every=16,
            )
            for chunk in _chunks(data):
                router.ingest("v", chunk)
            assert router.flush("v") is True
            before = router.quantile("v", 0.5)
            shard_id = _kill_owner(router, "v")
            _wait_for_state(router, shard_id, "up")
            assert router.flush("v") is True
            assert router.stats("v")["arrivals"] == POINTS
            assert router.quantile("v", 0.5) == before


@pytest.mark.chaos
class TestMidBarrierCrash:
    """A shard killed in the middle of a barrier: every snapshot records
    its frame cut, so recovery replays exactly the frames after it,
    whether or not the router heard the barrier's reply."""

    def test_kill_before_the_reply_is_recorded_recovers_bit_identical(
        self, all_backends, monkeypatch
    ):
        """The shard wrote the second barrier's snapshots and dies
        before the router records the reply: recovery restores that
        generation, which the router never heard of."""
        backend, params = all_backends
        chunks = _chunks(_domain_stream(POINTS, seed=13))
        expected = _uninterrupted(backend, params, chunks)
        with ShardRouter(num_shards=2) as router:
            router.create_stream(
                "rec", backend=backend, params=params, maintain_every=16,
                checkpoint_every=2 * CHUNK,
            )
            shard_id = router.placement()["rec"]
            request_raw = router._request_raw
            replies: list[dict] = []

            def lose_the_second_reply(handle, verb, args):
                value = request_raw(handle, verb, args)
                if verb == "checkpoint":
                    replies.append(value)
                    if len(replies) == 2:
                        os.kill(handle.process.pid, signal.SIGKILL)
                        raise FramingError("the shard died with its reply")
                return value

            monkeypatch.setattr(router, "_request_raw", lose_the_second_reply)
            for chunk in chunks:
                router.ingest("rec", chunk)
            _wait_for_restart(router, shard_id)
            assert router.flush("rec") is True
            _assert_recovered(router, expected, backend)

    def test_sigkill_while_the_shard_holds_a_barrier_recovers_bit_identical(
        self,
    ):
        params = {"epsilon": 0.05}
        chunks = _chunks(_domain_stream(POINTS, seed=67))
        expected = _uninterrupted("gk_quantiles", params, chunks)
        # The shard holds every checkpoint verb 0.3 s before it runs.
        injector = FaultInjector().slow_control_at("checkpoint", 0.3, times=100)
        with ShardRouter(num_shards=1, fault_injector=injector) as router:
            router.create_stream(
                "rec", backend="gk_quantiles", params=params,
                maintain_every=16, checkpoint_every=2 * CHUNK,
            )
            for chunk in chunks[:4]:
                router.ingest("rec", chunk)
            _wait_for_barriers(router, 0, 2)
            for chunk in chunks[4:6]:  # the third barrier falls due
                router.ingest("rec", chunk)
            time.sleep(0.1)
            assert _barriers(router, 0) == 2
            _kill_owner(router, "rec")
            for chunk in chunks[6:]:
                router.ingest("rec", chunk)
            _wait_for_restart(router, 0)
            assert router.flush("rec") is True
            _assert_recovered(router, expected, "gk_quantiles")


class TestBarrierScheduling:
    """Automatic barriers run on the front door's checkpointer thread
    (the scheduling cases both tiers share are in
    ``tests/test_front_door.py::TestCheckpointScheduler``)."""

    def test_two_producers_stay_within_the_frame_log_bound(self):
        """Points other producers frame during a barrier count toward
        the next one, and a shard that falls due again while its
        barrier is in flight holds every producer back."""
        cadence, chunk, keep, batches = 4096, 512, 2, 300
        bound = (keep + 1) * (cadence + chunk)
        injector = FaultInjector().slow_control_at(
            "checkpoint", 0.2, times=1000
        )
        with ShardRouter(
            num_shards=1, snapshot_keep=keep, fault_injector=injector
        ) as router:
            router.create_stream(
                "g", backend="gk_quantiles", params={"epsilon": 0.05},
                checkpoint_every=cadence,
            )
            samples: list[int] = []

            def produce(seed: int) -> None:
                data = _domain_stream(batches * chunk, seed)
                for start in range(0, data.size, chunk):
                    router.ingest("g", data[start : start + chunk])
                    samples.append(router.shard_states()[0]["replay_points"])

            producers = [
                threading.Thread(target=produce, args=(seed,))
                for seed in (71, 73)
            ]
            for producer in producers:
                producer.start()
            for producer in producers:
                producer.join(timeout=120.0)
            assert not any(producer.is_alive() for producer in producers)
            assert max(samples) <= bound
            points = 2 * batches * chunk
            _wait_for_barriers(router, 0, points // cadence - 1)
            waited = router.registry.histogram(
                "repro_checkpoint_wait_seconds", shard="0"
            )
            assert waited.count > 0
            assert router.flush() is True
            assert router.stats("g")["arrivals"] == points


class TestStorelessRouter:
    """A router without a ``snapshot_dir`` checkpoints into a private
    temporary directory, which bounds its frame log."""

    def test_frame_log_stays_bounded(self):
        """No snapshot_dir, no checkpoint_every: automatic barriers into
        the private store keep the router's frame log within
        ``snapshot_keep + 1`` cadences (one batch each), the exported
        metrics show it, and the answers match the threaded tier.  The
        CI shard job runs this test under a fresh TMPDIR and fails if
        close() left it unclean.
        """
        chunk, keep = 512, 2
        data = _domain_stream(3 * DEFAULT_CHECKPOINT_EVERY, seed=53)
        bound = (keep + 1) * (DEFAULT_CHECKPOINT_EVERY + chunk)
        with StreamService() as reference, ShardRouter(
            num_shards=1, snapshot_keep=keep
        ) as router:
            for tier in (reference, router):
                tier.create_stream(
                    "g", backend="gk_quantiles", params={"epsilon": 0.05},
                    maintain_every=64,
                )
            peak = 0
            for start in range(0, data.size, chunk):
                batch = data[start : start + chunk]
                reference.ingest("g", batch)
                router.ingest("g", batch)
                peak = max(peak, router.shard_states()[0]["replay_points"])
            assert DEFAULT_CHECKPOINT_EVERY <= peak <= bound
            _wait_for_barriers(router, 0, 3)
            exported = {
                sample["name"]: sample["value"]
                for sample in parse_prometheus_text(router.prometheus_metrics())
                if sample["labels"].get("shard") == "0"
            }
            assert exported["repro_router_replay_points"] <= bound
            assert exported["repro_checkpoint_seconds_count"] >= 3
            with pytest.raises(RuntimeError, match="snapshot_dir"):
                router.checkpoint()
            assert router.flush() is True
            assert reference.flush() is True
            assert router.histogram("g") == reference.histogram("g")

    def test_close_removes_the_private_store_without_a_final_checkpoint(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        removed: list[str] = []
        rmtree = shutil.rmtree

        def spy(path, *args, **kwargs):
            removed.extend(p.name for p in Path(path).rglob("*") if p.is_file())
            rmtree(path, *args, **kwargs)

        monkeypatch.setattr(shutil, "rmtree", spy)
        router = ShardRouter(num_shards=1)
        router.create_stream("s", backend="gk_quantiles", params={"epsilon": 0.1})
        router.ingest("s", _domain_stream(512, seed=5))
        assert router.flush("s") is True
        (private,) = tmp_path.iterdir()
        assert private.name.startswith("repro-")
        router.close()
        assert list(tmp_path.iterdir()) == []
        snapshots = [name for name in removed if name.endswith((".snap", ".delta"))]
        assert snapshots == [], "close() checkpointed into the private store"


@pytest.mark.chaos
class TestRouterRestore:
    def test_clean_close_then_restore_continues_identically(self, tmp_path):
        data = _domain_stream(POINTS, seed=19)
        chunks = _chunks(data)
        half = len(chunks) // 2
        snap = tmp_path / "snap"
        with StreamService() as reference:
            reference.create_stream(
                "r", backend="gk_quantiles", params={"epsilon": 0.05},
                maintain_every=16,
            )
            for chunk in chunks:
                reference.ingest("r", chunk)
            assert reference.flush("r") is True
            expected = reference.histogram("r")
        router = ShardRouter(num_shards=2, snapshot_dir=snap)
        try:
            router.create_stream(
                "r", backend="gk_quantiles", params={"epsilon": 0.05},
                maintain_every=16,
            )
            for chunk in chunks[:half]:
                router.ingest("r", chunk)
        finally:
            router.close(checkpoint=True)
        with ShardRouter.restore(snap) as restored:
            assert restored.streams() == ["r"]
            assert restored.stats("r")["arrivals"] == half * CHUNK
            for chunk in chunks[half:]:
                restored.ingest("r", chunk)
            assert restored.flush("r") is True
            assert restored.histogram("r") == expected

    def test_crash_after_a_cold_restore_replays_the_new_frames(self, tmp_path):
        """Frame numbers continue past the restored cuts: a crash before
        the first new barrier replays every frame sent since restore."""
        params = {"epsilon": 0.05}
        chunks = _chunks(_domain_stream(POINTS, seed=23))
        half = len(chunks) // 2
        expected = _uninterrupted("gk_quantiles", params, chunks)
        snap = tmp_path / "snap"
        router = ShardRouter(num_shards=1, snapshot_dir=snap)
        try:
            router.create_stream(
                "rec", backend="gk_quantiles", params=params,
                maintain_every=16,
            )
            for chunk in chunks[:half]:
                router.ingest("rec", chunk)
        finally:
            router.close(checkpoint=True)
        with ShardRouter.restore(snap) as restored:
            for chunk in chunks[half:]:
                restored.ingest("rec", chunk)
            assert restored.flush("rec") is True
            _kill_owner(restored, "rec")
            _wait_for_restart(restored, 0)
            assert restored.flush("rec") is True
            _assert_recovered(restored, expected, "gk_quantiles")

    def test_router_json_write_fsyncs_its_directory(self, tmp_path):
        injector = FaultInjector().drop_dir_fsync(times=1)
        with ShardRouter(
            num_shards=1, snapshot_dir=tmp_path, fault_injector=injector
        ) as router:
            router.create_stream(
                "r", backend="gk_quantiles", params={"epsilon": 0.05}
            )
            assert injector.events == [{"kind": "dir_fsync", "path": str(tmp_path)}]

    @pytest.mark.parametrize(
        "content", [b'{"num_shards": 1, "virt', b"[1, 2]"],
        ids=["torn", "not_an_object"],
    )
    def test_unreadable_router_json_is_a_typed_error(self, tmp_path, content):
        (tmp_path / "router.json").write_bytes(content)
        with pytest.raises(SnapshotCorruptError, match="router.json"):
            ShardRouter.restore(tmp_path)


class TestServiceConfig:
    CONFIG = {
        "mode": "sharded",
        "shards": 2,
        "streams": [
            {
                "name": "cpu",
                "backend": "gk_quantiles",
                "params": {"epsilon": 0.1},
                "maintain_every": 32,
            },
            {"name": "win", "backend": "exact",
             "params": {"window_size": 64}},
        ],
    }

    def test_json_config_builds_a_sharded_service(self, tmp_path):
        path = tmp_path / "svc.json"
        path.write_text(json.dumps(self.CONFIG))
        config = load_config(path)
        assert config.mode == "sharded"
        assert config.shards == 2
        service = build_service(config)
        try:
            assert isinstance(service, ShardRouter)
            assert sorted(service.streams()) == ["cpu", "win"]
            service.ingest("cpu", _domain_stream(256, seed=21))
            assert service.flush() is True
        finally:
            service.close(checkpoint=False)

    def test_cli_restore_keeps_the_durability_settings(self, tmp_path):
        """A restored router keeps the config's retention: three full
        generations, with the deltas the shape rule wrote between them.
        The config still names the retired ``snapshot_base_every`` and
        ``virtual_nodes``, and ``supervise``, which a sharded service
        ignores (its shards always supervise); it loads and runs."""
        from repro.service.__main__ import main

        path = tmp_path / "svc.json"
        path.write_text(json.dumps({
            "mode": "sharded",
            "shards": 1,
            "snapshot_dir": str(tmp_path / "snap"),
            "snapshot_base_every": 4,
            "virtual_nodes": 64,
            "supervise": False,
            "snapshot_keep": 3,
            "streams": [{
                "name": "w", "backend": "exact",
                "params": {"window_size": 4096}, "maintain_every": 64,
                "checkpoint_every": 512,
            }],
        }))
        run = [str(path), "--points", "6000", "--checkpoint", "--quiet"]
        assert main(run) == 0
        assert main(run + ["--restore"]) == 0
        shard_dir = tmp_path / "snap" / "shard-0"
        assert len(list(shard_dir.glob("w-*.snap"))) == 3
        assert list(shard_dir.glob("w-*.delta"))

    def test_unknown_keys_are_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ServiceConfig.from_dict({"mode": "threaded", "bogus": 1})
        with pytest.raises(ValueError, match="needs a 'backend'"):
            ServiceConfig.from_dict(
                {"streams": [{"name": "x"}]}
            )

    def test_threaded_mode_builds_a_stream_service(self, tmp_path):
        path = tmp_path / "svc.json"
        path.write_text(
            json.dumps(
                {
                    "mode": "threaded",
                    "streams": [
                        {
                            "name": "t",
                            "backend": "reservoir",
                            "params": {"capacity": 16},
                        }
                    ],
                }
            )
        )
        service = build_service(load_config(path))
        try:
            assert isinstance(service, StreamService)
            assert service.streams() == ["t"]
        finally:
            service.close(checkpoint=False)
