"""The shared front door, driven through both serving tiers.

Registration, admission, the turnstile verbs and QoS reporting live once
in :class:`~repro.service.protocol.ServiceProtocol`; every test here runs
against a threaded ``StreamService`` and a 1-shard ``ShardRouter`` (the
``tier`` fixture) and expects the same answers from both.  Quota
refusals and dead-letter retry admission are covered the same way in
``tests/test_qos.py``.
"""

from __future__ import annotations

import tempfile

import numpy as np
import pytest

from repro.service import (
    FaultInjector,
    QoSConfig,
    QoSController,
    QuotaExceededError,
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
                        accuracy=dict(epsilon=0.1, window_size=shadow),
                    )
            assert service.streams() == []
            service.create_stream(
                "w", backend=backend, params=params, maintain_every=64,
                accuracy=dict(epsilon=0.1, check_every=512),
            )
            data = _stream(4096, seed=1)
            for start in range(0, 4096, 512):
                service.ingest("w", data[start : start + 512])
            assert service.flush("w") is True
            report = service.accuracy("w")
            assert report["checks"] >= 1
            assert report["window_points"] == 512
            assert service.health("w")["state"] == "healthy"
            if backend == "exact":
                assert report["violations"] == 0


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
