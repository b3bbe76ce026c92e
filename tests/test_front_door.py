"""The shared front door, driven through both serving tiers.

Registration, admission, the turnstile verbs and QoS reporting live once
in :class:`~repro.service.protocol.ServiceProtocol`; every test here runs
against a threaded ``StreamService`` and a 1-shard ``ShardRouter`` (the
``tier`` fixture) and expects the same answers from both.  Quota
refusals and dead-letter retry admission are covered the same way in
``tests/test_qos.py``.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import threading
import time

import numpy as np
import pytest

from repro.service import (
    FaultInjector,
    QoSConfig,
    QoSController,
    QuotaExceededError,
    StreamService,
    StreamSpec,
    TenantQuota,
    UnknownStreamError,
)

GK = dict(epsilon=0.1)


def _stream(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.floor(rng.random(n) * 101.0)


class TestRegistration:
    def test_spec_versus_backend_arguments(self, tier):
        spec = StreamSpec(backend="gk_quantiles", params=GK)
        with tier() as service:
            with pytest.raises(ValueError, match="need either"):
                service.create_stream("s")
            with pytest.raises(ValueError, match="not both"):
                service.create_stream("s", backend="gk_quantiles", spec=spec)
            with pytest.raises(ValueError, match="not both"):
                service.create_stream("s", spec=spec, maintain_every=4)
            assert service.streams() == []
            service.create_stream("s", spec=spec)
            service.create_stream("t", "gk_quantiles", GK, maintain_every=4)
            assert service.streams() == ["s", "t"]
            assert service.spec("s") == spec
            assert service.spec("t").maintain_every == 4

    def test_invalid_and_duplicate_names(self, tier):
        with tier() as service:
            for bad in ("", "a/b", "a-b", "a b"):
                with pytest.raises(ValueError, match="stream name"):
                    service.create_stream(bad, backend="gk_quantiles", params=GK)
            service.create_stream("s", backend="gk_quantiles", params=GK)
            with pytest.raises(ValueError, match="already exists"):
                service.create_stream("s", backend="gk_quantiles", params=GK)
            assert service.streams() == ["s"]

    def test_closed_tier_refuses_new_streams(self, tier):
        service = tier()
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.create_stream("s", backend="gk_quantiles", params=GK)

    def test_unknown_stream_error_lists_hosted_streams(self, tier):
        with tier() as service:
            service.create_stream("b", backend="gk_quantiles", params=GK)
            service.create_stream("a", backend="gk_quantiles", params=GK)
            calls = (
                lambda: service.ingest("nope", [1.0]),
                lambda: service.update("nope", 3),
                lambda: service.spec("nope"),
                lambda: service.retry_dead_letters("nope"),
                lambda: service.drop_stream("nope"),
            )
            for call in calls:
                with pytest.raises(UnknownStreamError, match="hosted: a, b"):
                    call()

    def test_stream_the_tier_cannot_host_leaves_no_registration(self, tier):
        with tier(qos=QoSConfig()) as service:
            with pytest.raises((TypeError, RuntimeError)):
                service.create_stream(
                    "s", backend="gk_quantiles", params=dict(bogus=1)
                )
            assert service.streams() == []
            assert service.qos()["streams"] == {}
            service.create_stream("s", backend="gk_quantiles", params=GK)
            assert list(service.qos()["streams"]) == ["s"]
            service.drop_stream("s")
            assert service.streams() == []
            assert service.qos()["streams"] == {}


class TestIngestCounts:
    def test_update_and_update_many_return_point_counts(self, tier):
        with tier() as service:
            service.create_stream(
                "freq", backend="cr_precis",
                params=dict(rows=5, base=23, domain=131072),
            )
            assert service.ingest("freq", []) == 0
            assert service.update("freq", 42, 5) == 5
            assert service.update("freq", 42, -2) == 2
            assert service.update("freq", 9, 0) == 0
            assert service.update_many("freq", [(7, 3), (42, 1)]) == 4
            assert service.update_many("freq", []) == 0
            assert service.flush("freq") is True
            assert service.stats("freq")["arrivals"] == 11


class TestSharedReporting:
    def test_restored_tier_meters_its_streams(self, tier, tmp_path):
        with tier(snapshot_dir=tmp_path) as service:
            service.create_stream("s", backend="gk_quantiles", params=GK)
            service.ingest("s", _stream(64))
            restore = type(service).restore
        qos = QoSConfig(default_quota=TenantQuota(rate=1.0, burst=100.0))
        with restore(tmp_path, qos=qos) as restored:
            assert restored.streams() == ["s"]
            assert restored.qos()["streams"]["s"]["tenant"] == "default"
            assert restored.ingest("s", _stream(100, seed=1)) == 100
            with pytest.raises(QuotaExceededError) as refused:
                restored.ingest("s", _stream(50, seed=2))
            assert refused.value.retry_after > 0

    def test_failed_automatic_checkpoint_is_counted_per_stream(
        self, tier, tmp_path
    ):
        injector = FaultInjector().fail_snapshot_write(stream="s", times=1)
        with tier(snapshot_dir=tmp_path, fault_injector=injector) as service:
            service.create_stream(
                "s", backend="exact", params=dict(window_size=64),
                checkpoint_every=100,
            )
            data = _stream(300, seed=13)
            for start in range(0, 300, 100):
                service.ingest("s", data[start : start + 100])
                service.flush("s")
            health = service.health("s")
            assert health["checkpoint_errors"] == 1
            assert health["state"] == "healthy"
            counted = [
                sample["value"]
                for sample in service.metrics("s")
                if sample["name"] == "repro_checkpoint_errors_total"
            ]
            assert counted == [1]

    def test_stale_serve_health_reports_the_stale_view(self, tier):
        ctrl = QoSController(QoSConfig())
        with tier(qos=ctrl) as service:
            service.create_stream("s", backend="gk_quantiles", params=GK)
            service.create_stream(
                "crit", backend="gk_quantiles", params=GK, priority=0
            )
            service.ingest("s", _stream(200))
            service.ingest("crit", _stream(200))
            assert service.flush() is True
            ctrl.force_level("stale_serve")
            assert service.ingest("s", _stream(50, seed=2)) == 0
            for health in (service.health("s"), service.health()["s"]):
                assert health["degradation"] == "stale_serve"
                assert health["qos_shed"] is True
                assert health["stale_view"] is True
                assert health["state"] == "degraded"
            crit = service.health("crit")
            assert crit["stale_view"] is False
            assert crit["state"] == "healthy"
            assert "qos_shed" not in crit


#: Window backends at a 512-point synopsis window.
WINDOW_BACKENDS = {
    "fixed_window": dict(window_size=512, num_buckets=8, epsilon=0.1),
    "exact": dict(window_size=512),
    "wavelet": dict(window_size=512, budget=8),
    "eh_count": dict(window=512, epsilon=0.1),
}


class TestProcessCpu:
    def test_every_process_exports_its_cpu_seconds(self, tier):
        """One ``repro_process_cpu_seconds`` per process (the service, or
        the router and its shard), positive after ingest, never falling."""

        def cpu(service):
            return {
                sample["labels"].get("shard"): sample["value"]
                for sample in service.metrics()
                if sample["name"] == "repro_process_cpu_seconds"
            }

        with tier() as service:
            service.create_stream("s", backend="gk_quantiles", params=GK)
            service.ingest("s", _stream(4096))
            assert service.flush("s") is True
            first = cpu(service)
            assert set(first) in ({None}, {"router", "0"})
            assert all(seconds > 0 for seconds in first.values())
            service.ingest("s", _stream(4096, seed=1))
            assert service.flush("s") is True
            second = cpu(service)
            assert set(second) == set(first)
            assert all(second[key] >= first[key] for key in first)


class TestAccuracyWindow:
    @pytest.mark.parametrize("backend", sorted(WINDOW_BACKENDS))
    def test_shadow_window_is_the_synopsis_window(self, tier, backend):
        params = WINDOW_BACKENDS[backend]
        with tier() as service:
            for shadow in (256, 1024):
                with pytest.raises(ValueError, match="synopsis window"):
                    service.create_stream(
                        "w", backend=backend, params=params,
                        accuracy=dict(window_size=shadow),
                    )
            assert service.streams() == []
            service.create_stream(
                "w", backend=backend, params=params, maintain_every=64,
                accuracy=dict(check_every=512),
            )
            data = _stream(4096, seed=1)
            for start in range(0, 4096, 512):
                service.ingest("w", data[start : start + 512])
            assert service.flush("w") is True
            report = service.accuracy("w")
            assert report["checks"] >= 1
            assert report["window_points"] == 512
            assert report["unverified"] == 0
            assert report["violations"] == 0
            assert service.health("w")["state"] == "healthy"


def _backend_stream(backend: str, params: dict, n: int, seed: int = 3):
    """A fuzzed stream every backend accepts (turnstile for CR-precis)."""
    from repro.verify import StreamFuzzer

    profile = "turnstile" if backend == "cr_precis" else "uniform"
    clip = params.get("domain_size")
    return StreamFuzzer(profile, seed, clip_domain=clip).take(n)


class TestLiveAccuracy:
    """The monitor judges through the backend's exact oracle, on both
    tiers, and reports a violation only when that oracle is exact."""

    def test_every_backend_stays_healthy_without_violations(self, tier):
        from .conftest import BACKEND_PARAMS

        with tier() as service:
            for backend, params in BACKEND_PARAMS.items():
                service.create_stream(
                    backend, backend=backend, params=params,
                    maintain_every=16, accuracy={"check_every": 256},
                )
                data = _backend_stream(backend, params, 2048)
                for start in range(0, 2048, 128):
                    service.ingest(backend, data[start : start + 128])
            assert service.flush() is True
            for backend in BACKEND_PARAMS:
                health = service.health(backend)
                assert health["state"] == "healthy", (backend, health)
                assert health["restarts"] == 0
                report = service.accuracy(backend)
                assert report["checks"] >= 1, backend
                assert report["violations"] == 0, (backend, report)

    def test_certify_report_is_json_and_costs_no_restart(self, tier):
        import json

        with tier() as service:
            service.create_stream(
                "q", backend="gk_quantiles", params={"epsilon": 0.05},
                accuracy={"window_size": 2048, "check_every": 256},
            )
            service.ingest("q", _stream(2000, seed=4))
            report = service.certify("q", points=256)
            json.dumps(report)
            assert report["passed"] is True
            assert report["live_accuracy"]["exact"] is True
            assert report["live_accuracy"]["within_bound"] is True
            health = service.health("q")
            assert health["restarts"] == 0
            assert health.get("shard_restarts", 0) == 0

    def test_removed_options_are_refused_but_restore(self, tier):
        legacy = StreamSpec.from_dict({
            "backend": "gk_quantiles",
            "params": GK,
            "accuracy": {"epsilon": 0.25, "mode": "quantile",
                         "window_size": 512},
        })
        assert legacy.accuracy == {"window_size": 512}
        with tier() as service:
            for key in ("epsilon", "mode", "probes", "seed", "num_buckets"):
                with pytest.raises(ValueError, match=key):
                    service.create_stream(
                        "s", backend="gk_quantiles", params=GK,
                        accuracy={key: 1},
                    )
            assert service.streams() == []
            service.create_stream("s", spec=legacy)
            assert service.spec("s") == legacy

    def test_restored_window_stream_is_unverified_until_it_refills(
        self, tier, tmp_path
    ):
        from .conftest import BACKEND_PARAMS

        window = BACKEND_PARAMS["fixed_window"]["window_size"]
        specs = {
            "fw": ("fixed_window", BACKEND_PARAMS["fixed_window"]),
            "gk": ("gk_quantiles", BACKEND_PARAMS["gk_quantiles"]),
        }
        data = _stream(512, seed=6)
        with tier(snapshot_dir=tmp_path / "snap") as service:
            for name, (backend, params) in specs.items():
                service.create_stream(
                    name, backend=backend, params=params, maintain_every=16,
                    accuracy={"check_every": 16},
                )
                service.ingest(name, data[:256])
            assert service.flush() is True
            service.checkpoint()
        service = type(service).restore(tmp_path / "snap")
        try:
            # One check per 16-point batch: the first window after the
            # restore point is unverified, every later check is exact.
            for batch, start in enumerate(range(256, 512, 16), start=1):
                for name in specs:
                    service.ingest(name, data[start : start + 16])
                assert service.flush() is True
                fw, gk = service.accuracy("fw"), service.accuracy("gk")
                assert fw["checks"] == gk["checks"] == batch
                assert fw["unverified"] == min(batch, window // 16 - 1)
                assert fw["violations"] == 0
                assert gk["unverified"] == batch
                assert gk["violations"] == 0
            assert service.health("fw")["state"] == "healthy"
        finally:
            service.close()


class TestSnapshotDirRequired:
    """The public checkpoint and restore verbs need the caller's
    ``snapshot_dir``, on both tiers; the private store a router
    checkpoints into without one is never theirs."""

    def test_checkpoint_and_restore_refuse_without_one(
        self, tier, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with tier() as service:
            service.create_stream("s", backend="gk_quantiles", params=GK)
            with pytest.raises(RuntimeError, match="without a snapshot_dir"):
                service.checkpoint()
        for snapshot_dir in (None, ""):
            with pytest.raises(RuntimeError, match="needs a snapshot_dir"):
                type(service).restore(snapshot_dir)
        # Refused up front: no restored service, no temporary directory.
        assert list(tmp_path.iterdir()) == []


class TestCheckpointScheduler:
    """One scheduler for both tiers: a unit (the threaded service's
    stream, the 1-shard router's shard) falls due on its cadence, and
    the tier's checkpointer thread, not the producer, takes the
    checkpoint.  Each test slows every checkpoint of the unit by
    wrapping the tier's ``_checkpoint_unit``."""

    @staticmethod
    def slow(service, monkeypatch, seconds: float) -> list[bool]:
        """Make each checkpoint of the tier take ``seconds`` longer;
        returns a list that records, per checkpoint, whether another of
        the same tier was running beside it."""
        running = threading.Lock()
        overlapped: list[bool] = []
        checkpoint_unit = service._checkpoint_unit

        def slowed(key):
            alone = running.acquire(blocking=False)
            overlapped.append(not alone)
            try:
                time.sleep(seconds)
                return checkpoint_unit(key)
            finally:
                if alone:
                    running.release()

        monkeypatch.setattr(service, "_checkpoint_unit", slowed)
        return overlapped

    @staticmethod
    def histogram(service, family: str):
        """The tier's one unit's series of a checkpoint histogram."""
        (key,) = service._schedules
        if isinstance(service, StreamService):
            return service.registry.histogram(family, stream=key)
        return service.registry.histogram(family, shard=str(key))

    def wait_for_checkpoints(self, service, count: int, timeout=30.0) -> None:
        deadline = time.monotonic() + timeout
        series = self.histogram(service, "repro_checkpoint_seconds")
        while series.count < count:
            assert time.monotonic() < deadline, (series.count, count)
            time.sleep(0.01)

    def test_the_due_ingest_does_not_wait(
        self, tier, tmp_path, monkeypatch
    ):
        with tier(snapshot_dir=tmp_path) as service:
            self.slow(service, monkeypatch, 0.5)
            service.create_stream(
                "g", backend="gk_quantiles", params=GK, checkpoint_every=1024
            )
            data = _stream(1024, seed=61)
            service.ingest("g", data[:512])
            started = time.perf_counter()
            service.ingest("g", data[512:])  # the unit falls due
            assert time.perf_counter() - started < 0.1
            assert self.histogram(service, "repro_checkpoint_seconds").count == 0
            self.wait_for_checkpoints(service, 1)
            # Timed from when the unit fell due; no producer waited.
            took = self.histogram(service, "repro_checkpoint_seconds")
            assert took.sum >= 0.5
            waited = self.histogram(service, "repro_checkpoint_wait_seconds")
            assert waited.count == 0

    def test_a_second_due_makes_producers_wait(
        self, tier, tmp_path, monkeypatch
    ):
        """The producer waits only while its unit owes a checkpoint
        behind a running one, and the wait is timed."""
        with tier(snapshot_dir=tmp_path) as service:
            self.slow(service, monkeypatch, 0.4)
            service.create_stream(
                "g", backend="gk_quantiles", params=GK, checkpoint_every=512
            )
            data = _stream(3 * 512, seed=67)
            service.ingest("g", data[:512])  # due, running
            service.ingest("g", data[512:1024])  # due again: owed
            waited = self.histogram(service, "repro_checkpoint_wait_seconds")
            assert waited.count == 0
            started = time.perf_counter()
            service.ingest("g", data[1024:])  # waits for the first
            assert time.perf_counter() - started >= 0.2
            assert waited.count == 1
            assert waited.sum >= 0.2
            self.wait_for_checkpoints(service, 3)
            assert service.flush() is True
            assert service.stats("g")["arrivals"] == data.size

    def test_checkpoint_waits_for_a_running_one(
        self, tier, tmp_path, monkeypatch
    ):
        with tier(snapshot_dir=tmp_path / "snap") as service:
            overlapped = self.slow(service, monkeypatch, 0.3)
            service.create_stream(
                "g", backend="gk_quantiles", params=GK, checkpoint_every=512
            )
            service.ingest("g", _stream(512, seed=79))  # falls due
            time.sleep(0.05)  # the automatic checkpoint is running
            assert service.checkpoint()
            self.wait_for_checkpoints(service, 2)
            assert overlapped == [False, False]

    def test_producers_lose_no_count(self, tier, tmp_path):
        """Four producers (more than the cores) and a short switch
        interval: every delivered point counts, so 64-point batches at a
        512-point cadence fall due exactly once per 512 points."""
        producers, batches, chunk, every = 4, 64, 64, 512
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with tier(snapshot_dir=tmp_path) as service:
                service.create_stream(
                    "g", backend="gk_quantiles", params=GK,
                    checkpoint_every=every,
                )

                def produce(seed: int) -> None:
                    data = _stream(batches * chunk, seed)
                    for start in range(0, data.size, chunk):
                        service.ingest("g", data[start : start + chunk])

                threads = [
                    threading.Thread(target=produce, args=(seed,))
                    for seed in range(producers)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not any(thread.is_alive() for thread in threads)
                points = producers * batches * chunk
                self.wait_for_checkpoints(service, points // every)
                assert service.flush() is True
                assert service.stats("g")["arrivals"] == points
                took = self.histogram(service, "repro_checkpoint_seconds")
                assert took.count == points // every
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize(
        "tier",
        [
            "StreamService",
            pytest.param("ShardRouter", marks=pytest.mark.shard),
            "SupervisedStreamService",
        ],
        indirect=True,
    )
    def test_close_mid_checkpoint_leaves_nothing(
        self, tier, monkeypatch
    ):
        """close() lets the running checkpoint finish; no thread of the
        tier outlives it, and a private store (the router's, a supervised
        service's) is removed and stays gone.  The CI store-less smoke
        runs this under a fresh TMPDIR and fails if close() left it
        unclean (so it takes no ``tmp_path``; the unsupervised service's
        snapshot_dir is removed here)."""
        before = set(threading.enumerate())
        # The router and a supervised service checkpoint into a private
        # store without one; an unsupervised service checkpoints only
        # into the caller's directory.
        directory = tempfile.mkdtemp() if tier is StreamService else None
        service = tier(snapshot_dir=directory)
        private = service._private_dir
        assert (private is None) == (directory is not None)
        self.slow(service, monkeypatch, 0.5)
        try:
            service.create_stream(
                "s", backend="gk_quantiles", params=GK, checkpoint_every=512
            )
            service.ingest("s", _stream(512, seed=5))  # falls due
            time.sleep(0.1)  # the checkpoint is running
            assert self.histogram(service, "repro_checkpoint_seconds").count == 0
        finally:
            service.close(checkpoint=False)
            if directory is not None:
                shutil.rmtree(directory)
        assert self.histogram(service, "repro_checkpoint_seconds").count == 1
        assert private is None or not private.exists()
        assert not service._checkpointer_thread.is_alive()
        # No thread of the tier (checkpointer, router monitor, supervisor,
        # workers) outlives close().
        tier_threads = ("repro-checkpointer", "shard-router-", "stream-")
        assert not [
            thread.name
            for thread in set(threading.enumerate()) - before
            if thread.name.startswith(tier_threads)
        ]
        time.sleep(0.6)
        assert private is None or not private.exists()
