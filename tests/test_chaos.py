"""Chaos suite: deterministic fault injection against the stream service.

The acceptance bar for the fault-tolerance subsystem: with a seeded
:class:`FaultInjector` killing each backend's worker mid-stream and
corrupting the newest snapshot generation, a supervised
:class:`StreamService` auto-recovers and every recovered synopsis equals
a direct :class:`StreamPipeline` run over the same data -- exactly for
the deterministic backends and bit-exactly (including generator state)
for the reservoir sample.  The suite also pins the failure-mode edges:
restart-budget exhaustion, queries during recovery, injected snapshot
write failures, slow-ingest faults, and schedule reproducibility.

Faults fire at exact stream positions, never wall-clock times, so every
test here is deterministic modulo thread scheduling -- and the
equivalence assertions are immune even to that, because replay re-feeds
the exact same points at the exact same arrival positions.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.runtime import StreamPipeline, make_maintainer
from repro.service import (
    FaultInjector,
    RestartPolicy,
    StreamFailedError,
    StreamService,
)

from .conftest import BACKEND_PARAMS as BACKEND_KWARGS

pytestmark = pytest.mark.chaos

FAST_RESTARTS = RestartPolicy(
    max_restarts=3, backoff_initial=0.01, backoff_factor=2.0, backoff_max=0.05
)


def integer_stream(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 100, size=n).astype(float)


def reference_synopsis(maintainer):
    """What a service view would serve: the last-maintained synopsis."""
    produce = getattr(maintainer, "last_synopsis", None)
    return produce() if produce is not None else maintainer.synopsis()


def assert_same_synopsis(a, b):
    if hasattr(a, "to_dict"):
        assert a.to_dict() == b.to_dict()
    elif hasattr(a, "quantiles"):
        assert a.quantiles(5) == b.quantiles(5)
    else:
        assert a.range_sum(0, len(a) - 1) == b.range_sum(0, len(b) - 1)


def direct_run(backend, stream, maintain_every=32):
    maintainer = make_maintainer(backend, **BACKEND_KWARGS[backend])
    StreamPipeline([maintainer], maintain_every=maintain_every).run(stream)
    return reference_synopsis(maintainer)


def wait_for_state(service, name, state, timeout=10.0):
    deadline = time.monotonic() + timeout
    seen = None
    while time.monotonic() < deadline:
        seen = service.health(name)["state"]
        if seen == state:
            return seen
        time.sleep(0.005)
    return seen


class TestCrashRecoveryEquivalence:
    """The headline guarantee: crash + corrupt snapshot, exact recovery."""

    @pytest.mark.parametrize("backend", sorted(BACKEND_KWARGS))
    def test_crash_and_corrupt_newest_snapshot(self, backend, tmp_path):
        stream = integer_stream(1200, seed=21)
        injector = FaultInjector(seed=101)
        # Seeded crash point in the post-checkpoint tail of the stream.
        crash_arrival = 800 + injector.crash_points(400, count=1)[0]
        injector.crash_at(crash_arrival, stream="s")
        with StreamService(
            tmp_path,
            supervise=True,
            restart_policy=FAST_RESTARTS,
            fault_injector=injector,
        ) as service:
            service.create_stream(
                "s", backend=backend, params=BACKEND_KWARGS[backend],
                maintain_every=32,
            )
            for boundary in (400, 800):
                service.ingest("s", stream[boundary - 400 : boundary])
                service.flush("s")
                paths = service.checkpoint("s")
            # Corrupt the newest generation: recovery must fall back to
            # the previous one and roll forward through the replay log.
            Path(paths[0]).write_text("}corrupt, not a snapshot{")
            for start in range(800, 1200, 50):
                service.ingest("s", stream[start : start + 50])
            assert service.flush("s") is True
            health = service.health("s")
            assert health["state"] == "healthy"
            assert health["restarts"] == 1
            assert health["lossy_recovery"] is False
            assert service.stats("s")["arrivals"] == 1200
            crashes = [e for e in injector.events if e["kind"] == "crash"]
            assert len(crashes) == 1 and crashes[0]["stream"] == "s"
            counters = service._store.counters
            assert counters["corrupt_snapshots"] >= 1
            assert counters["fallback_loads"] >= 1
            served = service.synopsis("s")
        assert_same_synopsis(served, direct_run(backend, stream))

    def test_crash_without_snapshots_replays_from_scratch(self):
        stream = integer_stream(600, seed=5)
        injector = FaultInjector().crash_at(300, stream="s")
        with StreamService(
            supervise=True, restart_policy=FAST_RESTARTS,
            fault_injector=injector,
        ) as service:
            service.create_stream(
                "s", backend="fixed_window",
                params=BACKEND_KWARGS["fixed_window"], maintain_every=16,
            )
            for start in range(0, 600, 40):
                service.ingest("s", stream[start : start + 40])
            service.flush("s")
            assert service.health("s")["state"] == "healthy"
            assert service.health("s")["restarts"] == 1
            served = service.synopsis("s")
        assert_same_synopsis(
            served, direct_run("fixed_window", stream, maintain_every=16)
        )

    def test_seeded_schedule_is_reproducible(self):
        first = FaultInjector(seed=7).crash_points(1000, count=3)
        second = FaultInjector(seed=7).crash_points(1000, count=3)
        assert first == second
        assert len(first) == 3
        assert all(1 <= point < 1000 for point in first)


class TestRestartBudget:
    """A crash loop must end in ``failed``, not spin forever."""

    def test_budget_exhaustion_fails_stream_but_serves_stale(self):
        stream = integer_stream(300, seed=9)
        injector = FaultInjector().crash_at(150, stream="s", times=50)
        policy = RestartPolicy(
            max_restarts=2, backoff_initial=0.01, backoff_max=0.02
        )
        service = StreamService(
            supervise=True, restart_policy=policy, fault_injector=injector
        )
        try:
            service.create_stream(
                "s", backend="gk_quantiles", params=dict(epsilon=0.1),
                maintain_every=16,
            )
            service.ingest("s", stream[:100])
            service.flush("s")
            with pytest.raises(StreamFailedError, match="restart budget"):
                for start in range(100, 300, 50):
                    service.ingest("s", stream[start : start + 50])
                service.flush("s")
            health = service.health("s")
            assert health["state"] == "failed"
            assert health["restarts"] == 2
            assert health["stale_view"] is True
            assert "injected crash" in health["last_error"]
            # The last good view still answers queries, marked stale.
            assert service.view("s").stale is True
            assert np.isfinite(service.quantile("s", 0.5))
        finally:
            service.close()


class TestQueryDuringRecovery:
    """Queries during a restart degrade to the stale view, never block."""

    def test_stale_view_served_mid_recovery(self, tmp_path):
        stream = integer_stream(900, seed=3)
        injector = FaultInjector().crash_at(450, stream="s")
        # A wide, non-growing backoff keeps the stream visibly degraded
        # long enough for the main thread to query mid-recovery.
        policy = RestartPolicy(
            max_restarts=3, backoff_initial=0.35, backoff_factor=1.0,
            backoff_max=0.35,
        )
        service = StreamService(
            tmp_path, supervise=True, restart_policy=policy,
            fault_injector=injector,
        )
        try:
            service.create_stream(
                "s", backend="fixed_window",
                params=BACKEND_KWARGS["fixed_window"], maintain_every=16,
                checkpoint_every=200,
            )
            service.ingest("s", stream[:400])
            service.flush("s")
            assert service.view("s").stale is False

            def produce():
                for start in range(400, 900, 50):
                    service.ingest("s", stream[start : start + 50])
                service.flush("s")

            producer = threading.Thread(target=produce)
            producer.start()
            assert wait_for_state(service, "s", "degraded", timeout=5.0) == (
                "degraded"
            )
            # Mid-recovery: the last good view answers, marked stale.
            view = service.view("s")
            assert view.stale is True
            assert np.isfinite(service.quantile("s", 0.5))
            assert service.health("s")["stale_view"] is True
            producer.join(timeout=30.0)
            assert not producer.is_alive()
            assert wait_for_state(service, "s", "healthy", timeout=10.0) == (
                "healthy"
            )
            assert service.view("s").stale is False
            served = service.synopsis("s")
        finally:
            service.close()
        assert_same_synopsis(
            served, direct_run("fixed_window", stream, maintain_every=16)
        )


class TestSnapshotWriteFaults:
    """Injected snapshot write failures are counted, never producer-fatal."""

    def test_auto_checkpoint_survives_write_failure(self, tmp_path):
        stream = integer_stream(300, seed=13)
        injector = FaultInjector().fail_snapshot_write(stream="s", times=1)
        with StreamService(tmp_path, fault_injector=injector) as service:
            service.create_stream(
                "s", backend="exact", params=dict(window_size=64),
                checkpoint_every=100,
            )
            for start in range(0, 300, 100):
                service.ingest("s", stream[start : start + 100])
                service.flush("s")
            health = service.health("s")
            assert health["checkpoint_errors"] == 1
            assert health["state"] == "healthy"
            counters = service._store.counters
            assert counters["write_failures"] == 1
            assert counters["writes"] >= 1
            assert any(e["kind"] == "snapshot" for e in injector.events)
        restored = StreamService.restore(tmp_path)
        try:
            # close() took a final good checkpoint despite the earlier
            # miss: a delta after the full at 200, whose points the
            # restored worker replays.
            restored.flush("s")
            assert restored.stats("s")["arrivals"] == 300
        finally:
            restored.close(checkpoint=False)


class TestSlowIngestFaults:
    def test_slow_fault_fires_and_stream_completes(self):
        injector = FaultInjector().slow_ingest_at(50, 0.05, stream="s")
        with StreamService(fault_injector=injector) as service:
            service.create_stream(
                "s", backend="gk_quantiles", params=dict(epsilon=0.1)
            )
            service.ingest("s", integer_stream(100, seed=1))
            service.flush("s")
            assert service.stats("s")["arrivals"] == 100
            slow = [e for e in injector.events if e["kind"] == "slow"]
            assert len(slow) == 1
            assert injector.pending() == 0


class TestRecoveryObservability:
    """Crash recovery leaves a visible trail: spans plus restart metrics."""

    def test_recovery_emits_recover_span_and_restart_metrics(self):
        stream = integer_stream(600, seed=11)
        injector = FaultInjector(seed=7).crash_at(300, stream="s")
        with StreamService(
            supervise=True, restart_policy=FAST_RESTARTS,
            fault_injector=injector,
        ) as service:
            service.create_stream(
                "s", backend="exact", params=dict(window_size=64),
                maintain_every=16,
            )
            for start in range(0, 600, 50):
                service.ingest("s", stream[start : start + 50])
            assert service.flush("s") is True
            assert wait_for_state(service, "s", "healthy") == "healthy"
            assert service.stats("s")["arrivals"] == 600

            spans = service.spans(stage="recover", name="s")
            assert len(spans) == 1
            assert spans[0].status == "ok"
            assert spans[0].meta["restart"] == 1
            # The replacement's replay traffic shows up as ingest spans
            # on the same shared tracer.
            assert service.spans(stage="ingest", name="s")

            samples = {
                s["name"]: s["value"] for s in service.metrics("s")
                if s["kind"] in ("counter", "gauge")
            }
            assert samples["repro_restarts_total"] == 1
            assert samples.get("repro_lossy_recoveries_total", 0) == 0
            # The replacement re-ingests the replay suffix, so the drained
            # total exceeds the deduplicated arrival counter.
            assert samples["repro_ingested_points_total"] >= 600

    def test_exhausted_budget_restarts_are_all_traced(self):
        stream = integer_stream(300, seed=9)
        injector = FaultInjector().crash_at(150, stream="s", times=50)
        policy = RestartPolicy(
            max_restarts=2, backoff_initial=0.01, backoff_max=0.02
        )
        with StreamService(supervise=True, restart_policy=policy,
                           fault_injector=injector) as service:
            service.create_stream(
                "s", backend="exact", params=dict(window_size=64),
                maintain_every=16,
            )
            service.ingest("s", stream[:100])
            service.flush("s")
            with pytest.raises(StreamFailedError, match="restart budget"):
                for start in range(100, 300, 50):
                    service.ingest("s", stream[start : start + 50])
                service.flush("s")
            assert wait_for_state(service, "s", "failed") == "failed"
            # Every restart attempt within the budget was traced and
            # counted; the budget bounds both.
            spans = service.spans(stage="recover", name="s")
            assert len(spans) == 2
            restarts = [
                s["value"] for s in service.metrics("s")
                if s["name"] == "repro_restarts_total"
            ]
            assert restarts and restarts[0] == 2


class TestDeltaCheckpointRecovery:
    """Delta chains must not weaken the bit-identical recovery bar."""

    @pytest.mark.parametrize("backend", sorted(BACKEND_KWARGS))
    def test_crash_recovery_with_delta_cadence(self, backend, tmp_path):
        stream = integer_stream(1200, seed=33)
        injector = FaultInjector(seed=19)
        crash_arrival = 900 + injector.crash_points(300, count=1)[0]
        injector.crash_at(crash_arrival, stream="s")
        with StreamService(
            tmp_path,
            supervise=True,
            restart_policy=FAST_RESTARTS,
            fault_injector=injector,
        ) as service:
            service.create_stream(
                "s", backend=backend, params=BACKEND_KWARGS[backend],
                maintain_every=32,
            )
            # Eighteen checkpoints 50 points apart: a 50-point delta
            # (about 0.9 KB) weighs less than any of these backends'
            # fulls (1.4 KB and up), so every chain mixes both shapes.
            for boundary in range(50, 901, 50):
                service.ingest("s", stream[boundary - 50 : boundary])
                service.flush("s")
                service.checkpoint("s")
            suffixes = {p.suffix for p in service._store.generations("s")}
            assert ".delta" in suffixes
            for start in range(900, 1200, 50):
                service.ingest("s", stream[start : start + 50])
            assert service.flush("s") is True
            health = service.health("s")
            assert health["state"] == "healthy"
            assert health["restarts"] == 1
            assert health["lossy_recovery"] is False
            assert service.stats("s")["arrivals"] == 1200
            served = service.synopsis("s")
        assert_same_synopsis(served, direct_run(backend, stream))

    def test_corrupt_delta_head_still_recovers_exactly(self, tmp_path):
        stream = integer_stream(1000, seed=51)
        injector = FaultInjector().crash_at(950, stream="s")
        with StreamService(
            tmp_path,
            supervise=True,
            restart_policy=FAST_RESTARTS,
            fault_injector=injector,
        ) as service:
            service.create_stream(
                "s", backend="gk_quantiles",
                params=BACKEND_KWARGS["gk_quantiles"], maintain_every=32,
            )
            paths = []
            # 200 points outweigh a GK full (fulls at 200..800); the
            # next 50 do not (a delta at 850).
            previous = 0
            for boundary in (200, 400, 600, 800, 850):
                service.ingest("s", stream[previous:boundary])
                service.flush("s")
                paths = service.checkpoint("s")
                previous = boundary
            # The newest generation is a delta; corrupting it must
            # truncate the chain, not break recovery -- replay covers
            # everything past the surviving prefix.
            assert paths[0].endswith(".delta")
            Path(paths[0]).write_bytes(b"garbage")
            for start in range(850, 1000, 50):
                service.ingest("s", stream[start : start + 50])
            assert service.flush("s") is True
            health = service.health("s")
            assert health["state"] == "healthy"
            assert health["lossy_recovery"] is False
            assert service.stats("s")["arrivals"] == 1000
            served = service.synopsis("s")
        assert_same_synopsis(served, direct_run("gk_quantiles", stream))


class TestRecreatedStream:
    """A stream dropped and created again under the same name starts
    from nothing: recovery must never load its predecessor's data."""

    def test_recovery_ignores_the_dropped_predecessor(self, tmp_path):
        old = integer_stream(512, seed=61) + 1000.0
        new = integer_stream(192, seed=62)
        params = BACKEND_KWARGS["gk_quantiles"]
        injector = FaultInjector()
        with StreamService(
            tmp_path,
            supervise=True,
            restart_policy=FAST_RESTARTS,
            fault_injector=injector,
        ) as service:
            service.create_stream("x", backend="gk_quantiles", params=params)
            service.ingest("x", old)
            service.flush("x")
            service.checkpoint("x")
            service.drop_stream("x")
            service.create_stream("x", backend="gk_quantiles", params=params)
            injector.crash_at(100, stream="x")
            for start in range(0, new.size, 64):
                service.ingest("x", new[start : start + 64])
            assert service.flush("x") is True
            health = service.health("x")
            assert health["restarts"] == 1
            assert health["state"] == "healthy"
            assert health["lossy_recovery"] is False
            assert service.stats("x")["arrivals"] == new.size
            served = service.histogram("x")
        with StreamService() as reference:
            reference.create_stream("x", backend="gk_quantiles", params=params)
            for start in range(0, new.size, 64):
                reference.ingest("x", new[start : start + 64])
            reference.flush("x")
            assert served == reference.histogram("x")
