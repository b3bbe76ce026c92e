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
from repro.service import FaultInjector, StreamService
from repro.service.config import ServiceConfig, build_service, load_config
from repro.service.protocol import DEFAULT_CHECKPOINT_EVERY, ServiceProtocol
from repro.service.queries import UnsupportedQueryError
from repro.shard import FramingError, HashRing, ShardRouter
from repro.shard.framing import (
    KIND_CONTROL,
    KIND_DATA,
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
        "repro_router_checkpoint_seconds", shard=str(shard_id)
    ).count


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
        with StreamService() as reference:
            reference.create_stream(
                "rec", backend="gk_quantiles", params={"epsilon": 0.05},
                maintain_every=16,
            )
            for chunk in chunks:
                reference.ingest("rec", chunk)
            assert reference.flush("rec") is True
            expected = reference.histogram("rec")
        snap = tmp_path / "snap"
        with ShardRouter(
            num_shards=2, snapshot_dir=snap, snapshot_base_every=3
        ) as router:
            # Four checkpoint barriers under a base-every-3 cadence:
            # full, delta, delta, full.
            for barrier in range(4):
                for chunk in chunks[barrier * quarter : (barrier + 1) * quarter]:
                    if barrier == 0 and chunk is chunks[0]:
                        router.create_stream(
                            "rec", backend="gk_quantiles",
                            params={"epsilon": 0.05}, maintain_every=16,
                        )
                    router.ingest("rec", chunk)
                router.flush("rec")
                router.checkpoint()
            deltas = list(snap.rglob("*.delta"))
            assert deltas, "delta cadence never produced a delta file"
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
            assert _barriers(router, shard_id) >= 2
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


class TestStorelessRouter:
    """A router without a ``snapshot_dir`` checkpoints into a private
    temporary directory, which bounds its frame log."""

    def test_frame_log_stays_bounded(self):
        """No snapshot_dir, no checkpoint_every: automatic barriers into
        the private store keep the router's frame log within
        ``snapshot_keep`` cadences, the exported metrics show it, and
        the answers match the threaded tier.  The CI shard job runs this
        test under a fresh TMPDIR and fails if close() left it unclean.
        """
        chunk, keep = 512, 2
        data = _domain_stream(3 * DEFAULT_CHECKPOINT_EVERY, seed=53)
        bound = keep * (DEFAULT_CHECKPOINT_EVERY + chunk)
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
            exported = {
                sample["name"]: sample["value"]
                for sample in parse_prometheus_text(router.prometheus_metrics())
                if sample["labels"].get("shard") == "0"
            }
            assert exported["repro_router_replay_points"] <= bound
            assert exported["repro_router_checkpoint_seconds_count"] >= 3
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
        """A restored router keeps the config's delta cadence and
        retention: deltas between bases, three base generations."""
        from repro.service.__main__ import main

        path = tmp_path / "svc.json"
        path.write_text(json.dumps({
            "mode": "sharded",
            "shards": 1,
            "snapshot_dir": str(tmp_path / "snap"),
            "snapshot_base_every": 4,
            "snapshot_keep": 3,
            "streams": [{
                "name": "q", "backend": "gk_quantiles",
                "params": {"epsilon": 0.05}, "maintain_every": 64,
                "checkpoint_every": 1024,
            }],
        }))
        run = [str(path), "--points", "6000", "--checkpoint", "--quiet"]
        assert main(run) == 0
        assert main(run + ["--restore"]) == 0
        shard_dir = tmp_path / "snap" / "shard-0"
        assert len(list(shard_dir.glob("q-*.snap"))) == 3
        assert list(shard_dir.glob("q-*.delta"))

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
