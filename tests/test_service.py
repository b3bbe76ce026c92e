"""Tests for repro.service: the concurrent multi-stream synopsis service.

Pins down the serving-layer contract: threaded ingestion is equivalent
to a direct single-threaded pipeline run, queries are snapshot-isolated,
backpressure policies behave as configured, and a crashed service
restored from its snapshot manifest converges to the uninterrupted run.
"""

from __future__ import annotations

import json
import shutil
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.runtime import StreamPipeline, make_maintainer
from repro.service import (
    BackpressureError,
    FaultInjector,
    SnapshotStore,
    StreamService,
    StreamSpec,
    StreamWorker,
    UnknownStreamError,
    UnsupportedQueryError,
)
from repro.service.queries import view_histogram

from .conftest import BACKEND_PARAMS as BACKEND_KWARGS

#: Snapshot directory written by the store before it stopped writing
#: JSON: one stream as format-2 ``.json`` generations, one as a ``.snap``
#: base with a ``.delta`` chain.  Tests restore a copy, never the original.
LEGACY_SNAPSHOTS = Path(__file__).parent / "data" / "snapshot_legacy"


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


class TestServiceEquivalence:
    """Threaded service ingestion == direct single-threaded pipeline."""

    @pytest.mark.parametrize("backend", sorted(BACKEND_KWARGS))
    def test_matches_direct_pipeline(self, backend):
        stream = integer_stream(1500, seed=4)
        with StreamService() as service:
            service.create_stream(
                "s",
                backend=backend,
                params=BACKEND_KWARGS[backend],
                maintain_every=32,
                queue_capacity=128,
            )
            # Ragged chunks, crossing queue and cadence boundaries.
            rng = np.random.default_rng(8)
            i = 0
            while i < stream.size:
                step = int(rng.integers(1, 97))
                service.ingest("s", stream[i : i + step])
                i += step
            service.flush("s")
            served = service.synopsis("s")
        direct = make_maintainer(backend, **BACKEND_KWARGS[backend])
        StreamPipeline([direct], maintain_every=32).run(stream)
        assert_same_synopsis(served, reference_synopsis(direct))

    def test_producer_may_refill_its_buffer_after_ingest(self):
        """The queue owns a copy of every batch it accepts."""
        rounds, size = 16, 512
        # The worker stalls on its first batch, so the later batches
        # wait in the queue while the producer refills its one buffer.
        injector = FaultInjector().slow_ingest_at(1, 0.3, stream="s")
        buffer = np.empty(size)
        expected = 0.0
        with StreamService(fault_injector=injector) as service:
            service.create_stream(
                "s", backend="exact", params=dict(window_size=rounds * size),
                queue_capacity=1 << 20,
            )
            for round_ in range(rounds):
                buffer[:] = integer_stream(size, seed=round_)
                expected += float(buffer.sum())
                service.ingest("s", buffer)
            service.flush("s")
            assert service.range_sum("s", 0, rounds * size - 1) == expected

    def test_arbitrary_queue_sizes(self):
        stream = integer_stream(800, seed=1)
        for capacity in (1, 7, 64, 4096):
            with StreamService() as service:
                service.create_stream(
                    "s",
                    backend="fixed_window",
                    params=BACKEND_KWARGS["fixed_window"],
                    maintain_every=16,
                    queue_capacity=capacity,
                )
                for start in range(0, 800, 13):
                    service.ingest("s", stream[start : start + 13])
                service.flush("s")
                served = service.synopsis("s")
            direct = make_maintainer("fixed_window", **BACKEND_KWARGS["fixed_window"])
            StreamPipeline([direct], maintain_every=16).run(stream)
            assert served.to_dict() == direct.synopsis().to_dict()

    def test_concurrent_producers_lossless(self):
        """N producer threads into one blocking stream lose nothing."""
        with StreamService() as service:
            service.create_stream(
                "gk", backend="gk_quantiles", params=dict(epsilon=0.1),
                queue_capacity=32,
            )

            def produce(seed):
                for chunk in np.array_split(integer_stream(500, seed=seed), 25):
                    service.ingest("gk", chunk)

            threads = [
                threading.Thread(target=produce, args=(seed,)) for seed in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            service.flush("gk")
            stats = service.stats("gk")
            assert stats["submitted_points"] == 2000
            assert stats["ingested_points"] == 2000
            assert stats["dropped_points"] == 0
            assert len(service.synopsis("gk")) == 2000

    def test_multiple_streams_are_independent(self):
        with StreamService() as service:
            service.create_stream(
                "a", backend="exact", params=dict(window_size=64)
            )
            service.create_stream(
                "b", backend="gk_quantiles", params=dict(epsilon=0.1)
            )
            service.ingest("a", integer_stream(100, seed=1))
            service.ingest("b", integer_stream(200, seed=2))
            service.flush()
            assert service.stats("a")["arrivals"] == 100
            assert service.stats("b")["arrivals"] == 200
            assert sorted(service.streams()) == ["a", "b"]


class TestSnapshotIsolation:
    def test_view_is_frozen_against_later_ingestion(self):
        with StreamService() as service:
            service.create_stream(
                "gk", backend="gk_quantiles", params=dict(epsilon=0.1)
            )
            service.ingest("gk", integer_stream(300, seed=0))
            service.flush("gk")
            view = service.view("gk")
            frozen = view.synopsis.to_dict()
            service.ingest("gk", integer_stream(300, seed=1))
            service.flush("gk")
            # The old view is untouched; the service serves a newer one.
            assert view.synopsis.to_dict() == frozen
            assert service.view("gk").arrivals == 600
            assert view.arrivals == 300

    def test_query_before_ingestion_raises(self):
        with StreamService() as service:
            service.create_stream("s", backend="exact", params=dict(window_size=8))
            with pytest.raises(ValueError, match="no materialized synopsis"):
                service.range_sum("s", 0, 3)


class TestQueries:
    def test_range_sum_exact_backend(self):
        stream = integer_stream(64, seed=9)
        with StreamService() as service:
            service.create_stream("s", backend="exact", params=dict(window_size=64))
            service.ingest("s", stream)
            service.flush("s")
            assert service.range_sum("s", 10, 20) == pytest.approx(
                float(stream[10:21].sum())
            )

    def test_quantile_across_backends(self):
        stream = integer_stream(500, seed=3)
        specs = {
            "gk": ("gk_quantiles", dict(epsilon=0.05)),
            "res": ("reservoir", dict(capacity=256)),
            "depth": ("equi_depth", dict(num_buckets=16)),
            "exact": ("exact", dict(window_size=500)),
        }
        with StreamService() as service:
            for name, (backend, params) in specs.items():
                service.create_stream(name, backend=backend, params=params)
                service.ingest(name, stream)
            service.flush()
            truth = float(np.quantile(stream, 0.5))
            for name in specs:
                assert service.quantile(name, 0.5) == pytest.approx(
                    truth, abs=15.0
                ), name

    def test_histogram_payload_is_json_friendly(self):
        with StreamService() as service:
            service.create_stream(
                "h", backend="fixed_window", params=BACKEND_KWARGS["fixed_window"]
            )
            service.ingest("h", integer_stream(100, seed=5))
            service.flush("h")
            payload = json.loads(json.dumps(service.histogram("h")))
            assert payload["kind"] == "histogram"
            assert len(payload["ends"]) == len(payload["values"])

    def test_gk_rejects_positional_queries(self):
        with StreamService() as service:
            service.create_stream(
                "gk", backend="gk_quantiles", params=dict(epsilon=0.1)
            )
            service.ingest("gk", integer_stream(50))
            service.flush("gk")
            with pytest.raises(UnsupportedQueryError):
                service.range_sum("gk", 0, 10)

    def test_stats_surface_counters(self):
        with StreamService() as service:
            service.create_stream("s", backend="exact", params=dict(window_size=32))
            service.ingest("s", integer_stream(96))
            service.flush("s")
            stats = service.stats("s")
            assert stats["arrivals"] == 96
            assert stats["maintainer"]["points"] == 96
            assert stats["enqueue_p99_seconds"] >= 0.0
            assert stats["queue_depth"] == 0

    def test_unknown_stream_error_lists_hosted(self):
        with StreamService() as service:
            service.create_stream("known", backend="exact", params=dict(window_size=8))
            with pytest.raises(UnknownStreamError, match="known"):
                service.ingest("missing", [1.0])


class TestBackpressure:
    """Policies exercised on an unstarted worker (queue fills, no drain)."""

    @staticmethod
    def idle_worker(policy, capacity=10):
        maintainer = make_maintainer("gk_quantiles", epsilon=0.1)
        return StreamWorker(
            "s", maintainer, queue_capacity=capacity, backpressure=policy
        )

    def test_reject_raises_when_full(self):
        worker = self.idle_worker("reject")
        worker.submit(np.ones(10))
        with pytest.raises(BackpressureError, match="queue full"):
            worker.submit(np.ones(1))
        assert worker.counters.rejected_batches == 1
        assert worker.counters.rejected_points == 1
        assert worker.counters.submitted_points == 10

    def test_drop_oldest_evicts_from_the_front(self):
        worker = self.idle_worker("drop_oldest", capacity=10)
        worker.submit(np.full(5, 1.0))
        worker.submit(np.full(5, 2.0))
        worker.submit(np.full(5, 3.0))  # evicts the batch of 1.0s
        assert worker.counters.dropped_points == 5
        worker.start()
        worker.flush()
        worker.stop()
        sample = worker.maintainer.synopsis()
        assert len(sample) == 10  # only the surviving points were ingested
        assert worker.counters.ingested_points == 10

    def test_oversize_batch_enters_empty_queue(self):
        worker = self.idle_worker("reject", capacity=4)
        assert worker.submit(np.ones(32)) == 32
        with pytest.raises(BackpressureError):
            worker.submit(np.ones(1))

    def test_block_policy_waits_for_space(self):
        worker = self.idle_worker("block", capacity=8)
        worker.submit(np.ones(8))
        # The queue is full; a blocked producer must be released once the
        # worker drains.
        worker.start()
        assert worker.submit(np.ones(8)) == 8
        worker.flush()
        worker.stop()
        assert worker.counters.ingested_points == 16
        assert worker.counters.dropped_points == 0

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="backpressure"):
            self.idle_worker("spill")

    def test_worker_failure_propagates_to_producers(self):
        # Under poison="fail" an ingest error is fatal (the pre-quarantine
        # behavior, still available per stream spec).
        maintainer = make_maintainer("equi_depth", num_buckets=4)
        worker = StreamWorker("bad", maintainer, queue_capacity=64, poison="fail")
        worker.start()
        worker.submit(np.asarray([-5.0]))  # equi-depth rejects negatives
        with pytest.raises(RuntimeError, match="worker failed"):
            worker.flush()
        with pytest.raises(RuntimeError, match="worker failed"):
            worker.submit(np.ones(4))


class TestDrainStopLifecycle:
    """stop()/close() are drain-then-stop by default and idempotent."""

    @staticmethod
    def worker():
        return StreamWorker(
            "s", make_maintainer("gk_quantiles", epsilon=0.1), queue_capacity=64
        )

    def test_stop_drains_queued_records_by_default(self):
        worker = self.worker()
        worker.submit(integer_stream(50, seed=0))  # queued, worker not started
        worker.start()
        worker.stop()
        assert worker.counters.ingested_points == 50
        assert worker.counters.dropped_points == 0

    def test_stop_and_close_are_idempotent(self):
        worker = self.worker()
        worker.start()
        worker.submit(integer_stream(10, seed=1))
        worker.stop()
        worker.stop()
        worker.close()
        assert worker.counters.ingested_points == 10

    def test_stop_before_start_is_safe(self):
        worker = self.worker()
        worker.stop()
        worker.stop()
        with pytest.raises(RuntimeError, match="stopped"):
            worker.submit([1.0])

    def test_submit_after_stop_rejected_without_losing_drained_work(self):
        worker = self.worker()
        worker.start()
        worker.submit(integer_stream(30, seed=2))
        worker.stop()
        with pytest.raises(RuntimeError, match="stopped"):
            worker.submit([1.0])
        assert len(worker.maintainer.synopsis()) == 30

    def test_preload_only_before_start(self):
        worker = self.worker()
        assert worker.preload([integer_stream(10, seed=3)]) == 10
        worker.start()
        with pytest.raises(RuntimeError, match="preload"):
            worker.preload([[1.0]])
        worker.flush()
        worker.stop()
        assert worker.counters.ingested_points == 10


class TestDropOldestConcurrent:
    """drop_oldest under concurrent producers: counted, never raising."""

    def test_concurrent_producers_account_every_point(self):
        with StreamService() as service:
            service.create_stream(
                "m", backend="gk_quantiles", params=dict(epsilon=0.1),
                queue_capacity=64, backpressure="drop_oldest",
            )
            errors = []

            def produce(seed):
                try:
                    for chunk in np.array_split(
                        integer_stream(600, seed=seed), 40
                    ):
                        service.ingest("m", chunk)
                except Exception as error:  # pragma: no cover - must not happen
                    errors.append(error)

            threads = [
                threading.Thread(target=produce, args=(seed,))
                for seed in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            service.flush("m")
            assert errors == []
            stats = service.stats("m")
            assert stats["submitted_points"] == 6 * 600
            # Every submitted point was either ingested or dropped; the
            # freshest-data-wins policy never raises at the producer.
            assert (
                stats["ingested_points"] + stats["dropped_points"]
                == stats["submitted_points"]
            )
            assert stats["queue_depth"] == 0


class TestPoisonQuarantine:
    """Poison records go to the dead-letter buffer; ingest keeps flowing."""

    def test_poison_points_quarantined_ingest_continues(self):
        stream = integer_stream(200, seed=11)
        poisoned = stream.copy()
        poison_positions = [40, 41, 120]
        for position in poison_positions:
            poisoned[position] = -7.0  # equi-depth rejects negatives
        with StreamService() as service:
            service.create_stream(
                "d", backend="equi_depth", params=dict(num_buckets=8),
                maintain_every=16,
            )
            for start in range(0, 200, 50):
                service.ingest("d", poisoned[start : start + 50])
            service.flush("d")
            stats = service.stats("d")
            assert stats["dead_letter"]["poison_points"] == 3
            assert stats["dead_letter"]["quarantined"] == 3
            assert stats["arrivals"] == 197
            assert stats["ingested_points"] == 197
            records = service.dead_letters("d")
            assert [r.value for r in records] == [-7.0, -7.0, -7.0]
            assert all("negative" in r.error for r in records)
            served = service.synopsis("d")
            health = service.health("d")
            assert health["state"] == "healthy"
        # Quarantined points never advance the arrival counter, so the
        # result equals a clean-stream run with the poison removed.
        clean = np.delete(stream, poison_positions)
        direct = make_maintainer("equi_depth", num_buckets=8)
        StreamPipeline([direct], maintain_every=16).run(clean)
        assert_same_synopsis(served, reference_synopsis(direct))

    def test_retry_requarantines_still_bad_records(self):
        with StreamService() as service:
            service.create_stream(
                "d", backend="equi_depth", params=dict(num_buckets=4)
            )
            service.ingest("d", [1.0, -3.0, 2.0])
            service.flush("d")
            assert len(service.dead_letters("d")) == 1
            outcome = service.retry_dead_letters("d")
            assert outcome == {"retried": 1, "succeeded": 0, "failed": 1}
            counters = service.stats("d")["dead_letter"]
            assert counters["retry_failed"] == 1
            assert counters["quarantined"] == 1

    def test_fail_policy_keeps_old_semantics(self):
        with StreamService() as service:
            service.create_stream(
                "d", backend="equi_depth", params=dict(num_buckets=4),
                poison="fail",
            )
            service.ingest("d", [1.0, -3.0, 2.0])
            with pytest.raises(RuntimeError, match="worker failed"):
                service.flush("d")

    def test_spec_rejects_unknown_poison_policy(self):
        with pytest.raises(ValueError, match="poison"):
            StreamSpec(backend="exact", poison="explode")


class TestCheckpointRestore:
    def test_crash_recovery_matches_uninterrupted_run(self, tmp_path):
        """Kill after a checkpoint, restore, finish: same final synopsis."""
        stream = integer_stream(2000, seed=6)
        params = dict(window_size=128, num_buckets=8, epsilon=0.25)

        service = StreamService(snapshot_dir=tmp_path)
        service.create_stream(
            "cpu", backend="fixed_window", params=params, maintain_every=32
        )
        for start in range(0, 1200, 100):
            service.ingest("cpu", stream[start : start + 100])
        service.flush("cpu")
        service.checkpoint("cpu")
        # Post-checkpoint traffic that the "crash" will wipe out.
        service.ingest("cpu", stream[1200:1400])
        del service  # crash: no close(), no final checkpoint

        restored = StreamService.restore(tmp_path)
        restored.flush()
        resume_from = restored.stats("cpu")["arrivals"]
        assert resume_from == 1200
        restored.ingest("cpu", stream[resume_from:])
        restored.flush("cpu")
        final = restored.synopsis("cpu")
        restored.close(checkpoint=False)

        direct = make_maintainer("fixed_window", **params)
        StreamPipeline([direct], maintain_every=32).run(stream)
        assert final.to_dict() == direct.synopsis().to_dict()

    @pytest.mark.parametrize("backend", sorted(BACKEND_KWARGS))
    def test_snapshot_round_trip_every_backend(self, backend, tmp_path):
        stream = integer_stream(700, seed=sorted(BACKEND_KWARGS).index(backend))
        with StreamService(snapshot_dir=tmp_path) as service:
            service.create_stream(
                "s", backend=backend, params=BACKEND_KWARGS[backend],
                maintain_every=16,
            )
            service.ingest("s", stream[:400])
            service.flush("s")
            service.checkpoint("s")
        restored = StreamService.restore(tmp_path)
        restored.ingest("s", stream[400:])
        restored.flush("s")
        served = restored.synopsis("s")
        restored.close(checkpoint=False)
        direct = make_maintainer(backend, **BACKEND_KWARGS[backend])
        pipeline = StreamPipeline([direct], maintain_every=16)
        pipeline.run(stream)
        assert_same_synopsis(served, reference_synopsis(direct))

    def test_checkpoint_captures_buffered_tail(self, tmp_path):
        """Points accepted but not yet ingested survive in the snapshot."""
        maintainer = make_maintainer("gk_quantiles", epsilon=0.1)
        worker = StreamWorker("t", maintainer, queue_capacity=512)
        stream = integer_stream(300, seed=7)
        worker.submit(stream[:200])
        # Worker never started: everything is tail.
        capture = worker.checkpoint_capture()
        assert capture["arrivals"] == 0
        assert sum(len(batch) for batch in capture["tail"]) == 200
        restored = make_maintainer("gk_quantiles", epsilon=0.1)
        restored.load_state_dict(capture["state"])
        for batch in capture["tail"]:
            restored.extend(batch)
        restored.extend(stream[200:300])
        direct = make_maintainer("gk_quantiles", epsilon=0.1)
        direct.extend(stream[:200])
        direct.extend(stream[200:300])
        assert restored.synopsis().to_dict() == direct.synopsis().to_dict()

    def test_capture_waits_for_one_batch_not_the_drain_cycle(self):
        """A capture issued mid drain cycle parks the worker at the next
        batch boundary: the batches the cycle has not applied yet go
        into its tail, and a restore from it equals the whole run."""
        size, seconds = 512, 0.05
        stream = integer_stream(8 * size, seed=11)
        batches = [stream[i : i + size] for i in range(0, stream.size, size)]
        injector = FaultInjector().slow_ingest_at(0, seconds, times=8)
        worker = StreamWorker(
            "t", make_maintainer("gk_quantiles", epsilon=0.05),
            injector=injector,
        )
        worker.preload(batches)  # one drain cycle takes all eight
        worker.start()
        time.sleep(0.06)
        started = time.perf_counter()
        capture = worker.checkpoint_capture()
        waited = time.perf_counter() - started
        worker.stop()
        assert worker.counters.ingested_points == stream.size
        assert waited < 2 * seconds, f"capture waited {waited:.3f}s"
        applied = capture["arrivals"]
        assert 0 < applied < stream.size
        np.testing.assert_array_equal(
            np.concatenate(capture["tail"]), stream[applied:]
        )
        restored = make_maintainer("gk_quantiles", epsilon=0.05)
        restored.load_state_dict(capture["state"])
        resumed = StreamPipeline([restored], initial_arrivals=applied)
        for batch in capture["tail"]:
            resumed.extend(batch)
        direct = make_maintainer("gk_quantiles", epsilon=0.05)
        whole = StreamPipeline([direct])
        for batch in batches:
            whole.extend(batch)
        assert restored.synopsis().to_dict() == direct.synopsis().to_dict()

    def test_hold_parks_the_worker_at_a_batch_boundary(self):
        size = 256
        stream = integer_stream(6 * size, seed=13)
        injector = FaultInjector().slow_ingest_at(0, 0.02, times=6)
        worker = StreamWorker(
            "t", make_maintainer("gk_quantiles", epsilon=0.05),
            injector=injector,
        )
        worker.preload(
            stream[i : i + size] for i in range(0, stream.size, size)
        )
        worker.start()
        time.sleep(0.03)
        worker.hold()
        time.sleep(0.05)  # the batch in progress ends
        parked = worker.arrivals
        time.sleep(0.1)
        assert worker.arrivals == parked < stream.size
        worker.release()
        assert worker.flush(timeout=10.0) is True
        worker.stop()
        assert worker.arrivals == stream.size

    def test_auto_checkpoint_cadence(self, tmp_path):
        store = SnapshotStore(tmp_path)
        with StreamService(snapshot_dir=tmp_path) as service:
            service.create_stream(
                "s", backend="gk_quantiles", params=dict(epsilon=0.1),
                checkpoint_every=100,
            )
            for _ in range(5):
                service.ingest("s", integer_stream(100, seed=1))
                service.flush("s")
        assert "s" in store.streams()
        payload = store.load_latest("s")
        assert payload["arrivals"] >= 100

    def test_close_takes_final_checkpoint(self, tmp_path):
        service = StreamService(snapshot_dir=tmp_path)
        service.create_stream("s", backend="exact", params=dict(window_size=32))
        service.ingest("s", integer_stream(64, seed=2))
        service.close()
        payload = SnapshotStore(tmp_path).load_latest("s")
        assert payload["arrivals"] == 64
        assert payload["tail"] == []

    def test_checkpoint_without_store_rejected(self):
        with StreamService() as service:
            service.create_stream("s", backend="exact", params=dict(window_size=8))
            with pytest.raises(RuntimeError, match="snapshot_dir"):
                service.checkpoint()

    def test_preexisting_format2_json_directory_restores(self, tmp_path):
        """A directory of format-2 JSON generations restores in place.

        ``legacy`` in the committed fixture is gk_quantiles(0.1) over
        ``integer_stream(300, seed=17)``, maintain_every=16: JSON
        generations at 60 and at 120 arrivals, the newest with
        ``stream[120:150]`` as its buffered tail.
        """
        directory = tmp_path / "snapshots"
        shutil.copytree(LEGACY_SNAPSHOTS, directory)
        stream = integer_stream(300, seed=17)
        params = dict(epsilon=0.1)
        restored = StreamService.restore(directory)
        restored.flush("legacy")
        assert restored.stats("legacy")["arrivals"] == 150
        restored.ingest("legacy", stream[150:200])
        restored.flush("legacy")
        # The first checkpoint of the restored service chains a delta
        # onto the legacy JSON head: the 80 points since that head
        # weigh less than the head itself.
        [path] = restored.checkpoint("legacy")
        assert path.endswith("legacy-00000003.delta")
        restored.ingest("legacy", stream[200:])
        restored.flush("legacy")
        served = restored.synopsis("legacy")
        restored.close(checkpoint=False)
        direct = make_maintainer("gk_quantiles", **params)
        StreamPipeline([direct], maintain_every=16).run(stream)
        assert_same_synopsis(served, reference_synopsis(direct))
        # The JSON base + binary delta chain restores to the same answer.
        again = StreamService.restore(directory)
        again.flush("legacy")
        assert again.stats("legacy")["arrivals"] == 200
        again.ingest("legacy", stream[200:])
        again.flush("legacy")
        assert again.stats("legacy")["arrivals"] == 300
        assert_same_synopsis(again.synopsis("legacy"), served)
        again.close(checkpoint=False)

    def test_committed_snap_delta_chain_restores(self, tmp_path):
        """The fixture's format-3 stream restores as it always has.

        ``chain`` is fixed_window(32, 4, 0.25) over
        ``integer_stream(300, seed=23)``, maintain_every=16: a ``.snap``
        base at 100 arrivals and two ``.delta`` links up to 150, the
        last with ``stream[150:160]`` as its tail.  The restored view
        must equal a direct run over the first 160 points, as it did
        with the store that wrote the directory.
        """
        directory = tmp_path / "snapshots"
        shutil.copytree(LEGACY_SNAPSHOTS, directory)
        params = dict(window_size=32, num_buckets=4, epsilon=0.25)
        stream = integer_stream(300, seed=23)
        restored = StreamService.restore(directory)
        restored.flush("chain")
        assert restored.stats("chain")["arrivals"] == 160
        served = restored.synopsis("chain")
        restored.close(checkpoint=False)
        direct = make_maintainer("fixed_window", **params)
        StreamPipeline([direct], maintain_every=16).run(stream[:160])
        assert served.to_dict() == reference_synopsis(direct).to_dict()

    def test_delta_cadence_round_trip(self, tmp_path):
        """Restore from a delta head, checkpoint again, restore again.

        The rule alternates full and delta up to 600 points here (a
        150-point delta weighs 1.7 KB, the fulls 2.4-4.8 KB), and the
        restored delta head has room for one more delta.
        """
        stream = integer_stream(900, seed=23)
        params = dict(window_size=512, num_buckets=8, epsilon=0.25)
        with StreamService(tmp_path) as service:
            service.create_stream(
                "s", backend="fixed_window", params=params, maintain_every=16
            )
            for boundary in range(150, 601, 150):
                service.ingest("s", stream[boundary - 150 : boundary])
                service.flush("s")
                service.checkpoint("s")
            service.close(checkpoint=False)
        suffixes = [p.suffix for p in SnapshotStore(tmp_path).generations("s")]
        assert ".delta" in suffixes and ".snap" in suffixes
        middle = StreamService.restore(tmp_path)
        middle.flush("s")
        assert middle.stats("s")["arrivals"] == 600
        middle.ingest("s", stream[600:750])
        middle.flush("s")
        [path] = middle.checkpoint("s")
        assert path.endswith(".delta")  # chains onto the restored head
        middle.close(checkpoint=False)
        final = StreamService.restore(tmp_path)
        final.flush("s")
        assert final.stats("s")["arrivals"] == 750
        final.ingest("s", stream[750:])
        final.flush("s")
        served = final.synopsis("s")
        final.close(checkpoint=False)
        direct = make_maintainer("fixed_window", **params)
        StreamPipeline([direct], maintain_every=16).run(stream)
        assert served.to_dict() == reference_synopsis(direct).to_dict()

    def test_snapshot_base_every_is_accepted_and_ignored(self, tmp_path):
        """The retired cadence option still constructs and restores, and
        changes nothing; a config naming it still loads and builds."""
        stream = integer_stream(2048, seed=5)
        with StreamService(tmp_path / "a", snapshot_base_every=0) as service:
            service.create_stream(
                "s", backend="exact", params=dict(window_size=1024)
            )
            for start in range(0, 1024, 256):
                service.ingest("s", stream[start : start + 256])
                service.flush("s")
                service.checkpoint("s")
            service.close(checkpoint=False)
        shutil.copytree(tmp_path / "a", tmp_path / "b")
        written = {}
        for directory, options in (("a", {"snapshot_base_every": 8}), ("b", {})):
            restored = StreamService.restore(tmp_path / directory, **options)
            shapes = []
            for start in range(1024, 2048, 256):
                restored.ingest("s", stream[start : start + 256])
                restored.flush("s")
                [path] = restored.checkpoint("s")
                shapes.append(Path(path).name)
            written[directory] = (shapes, restored.histogram("s"))
            restored.close(checkpoint=False)
        assert written["a"] == written["b"]
        assert any(name.endswith(".delta") for name in written["a"][0])

        from repro.service.config import ServiceConfig, build_service

        config = ServiceConfig.from_dict({
            "mode": "threaded",
            "snapshot_dir": str(tmp_path / "c"),
            "snapshot_base_every": 4,
            "streams": [{"name": "t", "backend": "exact",
                         "params": {"window_size": 8}}],
        })
        service = build_service(config)
        try:
            assert service.streams() == ["t"]
        finally:
            service.close(checkpoint=False)

    def test_snapshot_keep_validated(self, tmp_path):
        # Checked once, by the constructor, whatever the store.
        for options in ({}, {"supervise": True}, {"snapshot_dir": tmp_path}):
            with pytest.raises(ValueError, match="snapshot_keep must be >= 1"):
                StreamService(snapshot_keep=0, **options)


#: The two backends of the replay-retention tests, with their params.
RETENTION_STREAMS = {
    "e": ("exact", dict(window_size=512)),
    "q": ("gk_quantiles", dict(epsilon=0.05)),
}


def direct_histograms(stream, maintain_every=16):
    """What each retention stream serves after a direct run over ``stream``."""
    rendered = {}
    for name, (backend, params) in RETENTION_STREAMS.items():
        direct = make_maintainer(backend, **params)
        StreamPipeline([direct], maintain_every=maintain_every).run(stream)
        rendered[name] = view_histogram(reference_synopsis(direct))
    return rendered


class TestReplayRetention:
    """How much of the replay log a service keeps after each checkpoint.

    Without a supervisor the log's only reader is the next delta
    checkpoint, which needs the batches since the last checkpoint, and
    only while a delta could still win; a supervisor may recover from
    the oldest retained full generation and so keeps everything since
    that full.
    """

    def test_unsupervised_log_holds_only_since_last_checkpoint(self, tmp_path):
        every, chunk = 256, 64
        stream = integer_stream(4096, seed=31)
        service = StreamService(tmp_path)
        for name, (backend, params) in RETENTION_STREAMS.items():
            service.create_stream(
                name, backend=backend, params=params, maintain_every=16,
                checkpoint_every=every,
            )
        # Explicit checkpoints every 7 batches interleave with the
        # automatic cadence, so both paths trim.
        for index, start in enumerate(range(0, stream.size, chunk)):
            for name in RETENTION_STREAMS:
                service.ingest(name, stream[start : start + chunk])
                service.flush(name)
                assert service.stats(name)["replay_points"] <= every + chunk
            if index % 7 == 6:
                service.checkpoint()
                for name in RETENTION_STREAMS:
                    assert service.stats(name)["replay_points"] == 0
        service.flush()
        service.checkpoint()
        for name in RETENTION_STREAMS:
            assert service.stats(name)["replay_points"] == 0
            # At least one write per cadence (16) plus the explicit ones.
            writes = service.registry.counter(
                "repro_snapshot_writes_total", stream=name
            ).value
            assert writes >= 12
        service.close(checkpoint=False)
        suffixes = {p.suffix for p in SnapshotStore(tmp_path).generations("e")}
        assert suffixes == {".snap", ".delta"}

        restored = StreamService.restore(tmp_path)
        restored.flush()
        served = {name: restored.histogram(name) for name in RETENTION_STREAMS}
        restored.close(checkpoint=False)
        assert served == direct_histograms(stream)

    def test_supervised_log_reaches_back_to_oldest_base(self, tmp_path):
        segment = 256
        stream = integer_stream(4096, seed=31)
        service = StreamService(tmp_path, supervise=True)
        for name, (backend, params) in RETENTION_STREAMS.items():
            service.create_stream(
                name, backend=backend, params=params, maintain_every=16
            )
        fulls = {name: [] for name in RETENTION_STREAMS}
        for end in range(segment, stream.size + 1, segment):
            for name in RETENTION_STREAMS:
                service.ingest(name, stream[end - segment : end])
            service.flush()
            for name in RETENTION_STREAMS:
                [path] = service.checkpoint(name)
                if path.endswith(".snap"):
                    fulls[name].append(end)
                # keep=2 retains the last two fulls, and replay must
                # reach back to the older one.
                oldest = fulls[name][-2:][0]
                assert service.stats(name)["replay_points"] == end - oldest
                log = service._worker(name).replay_batches()
                assert log == [] or log[0][0] == oldest
        assert len(fulls["e"]) >= 3 and len(fulls["q"]) >= 3
        # The exact window's fulls outweigh a segment's delta; a GK
        # summary's do not.
        assert len(fulls["e"]) < len(fulls["q"]) == stream.size // segment
        service.close(checkpoint=False)

    def test_failed_delta_write_trims_nothing(self, tmp_path):
        stream = integer_stream(576, seed=31)
        # Sequence 2 is the first delta after the full at sequence 1:
        # the 64 points since that full weigh less than it does.
        injector = FaultInjector().fail_snapshot_write(at_seq=2, times=2)
        service = StreamService(tmp_path, fault_injector=injector)
        for name, (backend, params) in RETENTION_STREAMS.items():
            service.create_stream(
                name, backend=backend, params=params, maintain_every=16
            )

        def feed(start, end):
            for name in RETENTION_STREAMS:
                service.ingest(name, stream[start:end])
            service.flush()

        feed(0, 512)
        service.checkpoint()
        feed(512, 544)
        for name in RETENTION_STREAMS:
            with pytest.raises(OSError):
                service.checkpoint(name)
            assert service.stats(name)["replay_points"] == 32
        feed(544, 576)
        paths = service.checkpoint()
        assert all(path.endswith("00000002.delta") for path in paths)
        for name in RETENTION_STREAMS:
            assert service.stats(name)["replay_points"] == 0
        service.close(checkpoint=False)

        restored = StreamService.restore(tmp_path)
        restored.flush()
        for name in RETENTION_STREAMS:
            assert restored.stats(name)["arrivals"] == 576
        served = {name: restored.histogram(name) for name in RETENTION_STREAMS}
        restored.close(checkpoint=False)
        assert served == direct_histograms(stream)


class TestCheckpointShape:
    """Each checkpoint chooses full or delta by bytes.

    A delta only while the stream's deltas since its last full, this
    one included, weigh less than that full.  Both streams here run the
    old checkpoint suite's regime: an unsupervised service, a filled
    4,096-point window, a checkpoint every 512 points.  An exact
    window's full (33.8 KB) outweighs seven 512-point deltas (4.6 KB
    each) but not eight; a GK summary's full (about 1.5 KB) outweighs
    none.
    """

    WINDOW, EVERY, CYCLES = 4096, 512, 3

    def drive(self, directory, backend, params):
        """Fill, then ingest EVERY points as one batch and checkpoint;
        per checkpoint the file's shape and bytes, the restored chain's
        bytes, whether a restore matches the live stream, and the replay
        log's bytes before it next to the last full's bytes."""
        stream = integer_stream(self.WINDOW + self.EVERY * 8 * self.CYCLES, seed=9)
        service = StreamService(directory)
        service.create_stream("s", backend=backend, params=params)
        service.ingest("s", stream[: self.WINDOW])
        service.flush("s")
        rows, logs, last_full = [], [], None
        for start in range(self.WINDOW, stream.size, self.EVERY):
            service.ingest("s", stream[start : start + self.EVERY])
            service.flush("s")
            logs.append((8 * service.stats("s")["replay_points"], last_full))
            [path] = service.checkpoint("s")
            size = Path(path).stat().st_size
            if path.endswith(".snap"):
                last_full = size
            restored = StreamService.restore(directory)
            restored.flush("s")
            rows.append({
                "shape": Path(path).suffix,
                "bytes": size,
                "chain": SnapshotStore(directory).load_latest("s")["chain_bytes"],
                "identical": restored.histogram("s") == service.histogram("s"),
                "replay_points": service.stats("s")["replay_points"],
            })
            restored.close(checkpoint=False)
        service.close(checkpoint=False)
        return rows, logs

    def check_invariants(self, rows, logs):
        assert all(row["identical"] for row in rows)
        # A restore reads its full and the deltas since: under two fulls.
        for row in rows:
            full, deltas = row["chain"]
            assert deltas < full
        # Within twice the cheaper shape's bytes over the same checkpoints.
        fulls = [row["bytes"] for row in rows if row["shape"] == ".snap"]
        deltas = [row["bytes"] for row in rows if row["shape"] == ".delta"]
        written = sum(fulls) + sum(deltas)
        count = len(rows)
        cheaper = count * min(
            sum(fulls) / len(fulls),
            sum(deltas) / len(deltas) if deltas else float("inf"),
        )
        assert written <= 2 * cheaper
        # An unsupervised log never outweighs the last full.
        for held, last_full in logs:
            assert held == 0 or held < last_full

    def test_exact_window_repeats_one_full_and_seven_deltas(self, tmp_path):
        rows, logs = self.drive(tmp_path, "exact", dict(window_size=self.WINDOW))
        shapes = [row["shape"] for row in rows]
        assert shapes == ([".snap"] + [".delta"] * 7) * self.CYCLES
        fulls = [row["bytes"] for row in rows if row["shape"] == ".snap"]
        deltas = [row["bytes"] for row in rows if row["shape"] == ".delta"]
        assert all(33_000 < size < 34_600 for size in fulls)
        assert all(4_400 < size < 4_800 for size in deltas)
        self.check_invariants(rows, logs)

    def test_gk_writes_only_fulls_and_keeps_no_log(self, tmp_path):
        rows, logs = self.drive(tmp_path, "gk_quantiles", dict(epsilon=0.05))
        assert {row["shape"] for row in rows} == {".snap"}
        assert all(row["replay_points"] == 0 for row in rows)
        assert all(held == 0 for held, _ in logs)
        self.check_invariants(rows, logs)

    def test_first_full_keeps_the_log_from_its_capture(self, tmp_path):
        """Batches applied between a first full's capture and its write
        are logged, so the next checkpoint can still be a delta (on the
        checkpointer thread a capture and its write are apart while
        ingest goes on)."""
        stream = integer_stream(self.WINDOW + 2 * self.EVERY, seed=9)
        service = StreamService(tmp_path)
        service.create_stream("s", backend="exact", params=dict(window_size=self.WINDOW))
        service.ingest("s", stream[: self.WINDOW])
        service.flush("s")
        captured = service._capture_checkpoint("s")
        service.ingest("s", stream[self.WINDOW : self.WINDOW + self.EVERY])
        service.flush("s")
        assert service._write_checkpoint(captured).endswith(".snap")
        service.ingest("s", stream[self.WINDOW + self.EVERY :])
        service.flush("s")
        [path] = service.checkpoint("s")
        assert path.endswith(".delta")
        service.close(checkpoint=False)
        restored = StreamService.restore(tmp_path)
        restored.flush("s")
        assert restored.stats("s")["arrivals"] == stream.size
        restored.close(checkpoint=False)

    def test_failed_first_full_stops_the_log_it_started(self, tmp_path):
        """A first full whose write fails leaves the log as it was before
        the capture: empty, and logging nothing."""
        injector = FaultInjector().fail_snapshot_write(stream="s")
        service = StreamService(tmp_path, fault_injector=injector)
        service.create_stream("s", backend="exact", params=dict(window_size=self.WINDOW))
        service.ingest("s", integer_stream(self.WINDOW, seed=9))
        service.flush("s")
        with pytest.raises(OSError, match="injected"):
            service.checkpoint("s")
        service.ingest("s", integer_stream(self.EVERY, seed=10))
        service.flush("s")
        assert service.stats("s")["replay_points"] == 0
        service.close(checkpoint=False)


GK_PARAMS = dict(epsilon=0.05)


class TestOneCheckpointerPerService:
    """The scheduled streams of one service (those with a
    ``checkpoint_every`` and a store) share its store and its
    checkpointer thread."""

    def test_two_streams_writing_at_once_keep_their_newest_entries(
        self, tmp_path, monkeypatch
    ):
        """An automatic checkpoint of "a", slowed between its manifest
        read and write, beside a public checkpoint of "b": both land,
        and the manifest names each stream's newest generation."""
        with StreamService(tmp_path) as service:
            service.create_stream(
                "a", backend="gk_quantiles", params=GK_PARAMS, checkpoint_every=512
            )
            service.create_stream("b", backend="gk_quantiles", params=GK_PARAMS)
            service.ingest("b", integer_stream(512, seed=1))
            service.flush("b")
            service.checkpoint("b")
            store = service._store
            encode_full = store._encode_full
            entered = threading.Event()

            def slowed(name, *args):
                if name == "a":
                    entered.set()
                    time.sleep(0.3)
                return encode_full(name, *args)

            monkeypatch.setattr(store, "_encode_full", slowed)
            service.ingest("a", integer_stream(512, seed=2))  # falls due
            assert entered.wait(10.0)
            service.ingest("b", integer_stream(512, seed=3))
            service.flush("b")
            [path] = service.checkpoint("b")
            assert service.flush() is True
            assert service.health("a")["checkpoint_errors"] == 0
            entries = store.manifest()["streams"]
            assert entries["b"]["file"] == Path(path).name
            for name in ("a", "b"):
                assert entries[name]["file"] == store.generations(name)[-1].name
                assert entries[name]["seq"] == (1 if name == "a" else 2)

    def test_dropping_a_stream_that_owes_checkpoints_releases_flush(
        self, tmp_path, monkeypatch
    ):
        """"x" owes two checkpoints behind a running one of "y" when it
        is dropped: they count as run, so a flush waiting on them
        returns."""
        gate = threading.Event()
        with StreamService(tmp_path) as service:
            for name in ("x", "y"):
                service.create_stream(
                    name, backend="gk_quantiles", params=GK_PARAMS,
                    checkpoint_every=512,
                )
            checkpoint_unit = service._checkpoint_unit

            def gated(key):
                if key == "y":
                    gate.wait(30.0)
                return checkpoint_unit(key)

            monkeypatch.setattr(service, "_checkpoint_unit", gated)
            try:
                service.ingest("y", integer_stream(512, seed=1))  # runs, held
                service.ingest("x", integer_stream(512, seed=2))  # owed
                service.ingest("x", integer_stream(512, seed=3))  # owed
                assert len(service._schedules["x"].due) == 2
                flushed = []
                flusher = threading.Thread(
                    target=lambda: flushed.append(service.flush(timeout=10.0)),
                    daemon=True,
                )
                flusher.start()
                time.sleep(0.2)  # the flush waits on x's owed checkpoints
                service.drop_stream("x")
                gate.set()
                flusher.join(timeout=20.0)
                assert flushed == [True]
            finally:
                gate.set()


    @pytest.mark.parametrize("supervise", [False, True])
    def test_storeless_service_takes_no_checkpoints(self, supervise):
        with StreamService(supervise=supervise) as service:
            service.create_stream(
                "g", backend="gk_quantiles", params=GK_PARAMS, checkpoint_every=64
            )
            service.ingest("g", integer_stream(512))
            assert service.flush() is True
            assert service._private_dir is None
            assert service._schedules == {}
            assert service._checkpointer_thread is None
            held = service.stats("g")["replay_points"]
            assert held == (512 if supervise else 0)

    def test_flush_waits_for_the_checkpoints_due_before_it(
        self, tmp_path, monkeypatch
    ):
        with StreamService(tmp_path) as service:
            service.create_stream(
                "g", backend="gk_quantiles", params=GK_PARAMS, checkpoint_every=512
            )
            checkpoint_unit = service._checkpoint_unit

            def slowed(key):
                time.sleep(0.3)
                return checkpoint_unit(key)

            monkeypatch.setattr(service, "_checkpoint_unit", slowed)
            service.ingest("g", integer_stream(512))  # falls due
            started = time.perf_counter()
            assert service.flush() is True
            assert time.perf_counter() - started >= 0.2
            writes = service.registry.counter(
                "repro_snapshot_writes_total", stream="g"
            ).value
            assert writes == 1


class TestSnapshotStore:
    def test_manifest_tracks_latest_and_prunes(self, tmp_path):
        # keep=2 by default: the newest generation plus one fallback.
        store = SnapshotStore(tmp_path)
        store.write("s", {"arrivals": 1, "state": {}, "tail": []})
        store.write("s", {"arrivals": 2, "state": {}, "tail": []})
        entry = store.manifest()["streams"]["s"]
        assert entry["seq"] == 2
        assert store.load_latest("s")["arrivals"] == 2
        remaining = sorted(p.name for p in tmp_path.glob("s-*.snap"))
        assert remaining == ["s-00000001.snap", "s-00000002.snap"]
        store.write("s", {"arrivals": 3, "state": {}, "tail": []})
        remaining = sorted(p.name for p in tmp_path.glob("s-*.snap"))
        assert remaining == ["s-00000002.snap", "s-00000003.snap"]

    def test_unknown_stream_raises(self, tmp_path):
        with pytest.raises(KeyError, match="nope"):
            SnapshotStore(tmp_path).load_latest("nope")

    def test_wrong_format_rejected(self, tmp_path):
        store = SnapshotStore(tmp_path)
        (tmp_path / "manifest.json").write_text(
            json.dumps({"format": 99, "streams": {}})
        )
        with pytest.raises(ValueError, match="format"):
            store.manifest()


class TestServiceLifecycle:
    def test_duplicate_stream_rejected(self):
        with StreamService() as service:
            service.create_stream("s", backend="exact", params=dict(window_size=8))
            with pytest.raises(ValueError, match="already exists"):
                service.create_stream(
                    "s", backend="exact", params=dict(window_size=8)
                )

    def test_invalid_stream_name_rejected(self):
        with StreamService() as service:
            for bad in ("", "a/b", "a-b", "a b"):
                with pytest.raises(ValueError, match="stream name"):
                    service.create_stream(
                        bad, backend="exact", params=dict(window_size=8)
                    )

    def test_spec_and_kwargs_are_exclusive(self):
        spec = StreamSpec(backend="exact", params=dict(window_size=8))
        with StreamService() as service:
            with pytest.raises(ValueError, match="not both"):
                service.create_stream("s", backend="exact", spec=spec)
            service.create_stream("s", spec=spec)
            assert service.spec("s").backend == "exact"

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="backpressure"):
            StreamSpec(backend="exact", backpressure="nope")
        with pytest.raises(ValueError, match="queue_capacity"):
            StreamSpec(backend="exact", queue_capacity=0)
        spec = StreamSpec(backend="exact", params=dict(window_size=8))
        assert StreamSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        ) == spec

    def test_drop_stream(self):
        with StreamService() as service:
            service.create_stream("s", backend="exact", params=dict(window_size=8))
            service.ingest("s", [1.0, 2.0])
            service.drop_stream("s")
            assert service.streams() == []
            with pytest.raises(UnknownStreamError):
                service.ingest("s", [3.0])

    def test_create_after_close_rejected(self):
        service = StreamService()
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.create_stream("s", backend="exact", params=dict(window_size=8))
