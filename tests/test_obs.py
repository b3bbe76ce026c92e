"""The observability layer and the telemetry races it fixes.

Four groups of coverage:

* Substrate semantics -- :class:`~repro.obs.metrics.MetricsRegistry`
  handle caching and kind checking, the exporter round-trips
  (Prometheus text and JSONL), tracer spans, and the accuracy monitor's
  observed-epsilon-within-bound guarantee on the fixed-window backend.
* The enqueue-latency race (regression): the old ``WorkerCounters``
  ring was a bare deque read with ``list()`` twice per ``to_dict`` --
  concurrent producers could make p50 and p99 describe two different
  latency populations.  The registry-backed counters must hold the
  single-snapshot invariant (p50 <= p99, always) under a writer that
  flips the whole reservoir between two values.
* The premature ``degraded -> healthy`` promotion (regression): the
  supervisor used to promote on ``queue_depth == 0`` alone, but the
  worker pops a batch *before* feeding it, so the final replay batch
  can be mid-ingest -- and the served view still the dead worker's
  stale adoption -- behind an empty queue.  A gated maintainer holds a
  replacement worker exactly in that window and the stream must stay
  ``degraded`` until the batch lands.
* Service-level exposure: ``StreamService.metrics()`` covers every
  hosted stream across all eight registry backends while readers and
  producers run concurrently, and the Prometheus rendering parses.
"""

import json
import sys
import threading
import time

import numpy as np
import pytest

from repro.obs import (
    AccuracyMonitor,
    HistogramMetric,
    MetricsRegistry,
    PipelineObserver,
    Tracer,
    parse_prometheus_text,
    to_jsonl,
    to_prometheus_text,
    write_jsonl,
)
from repro.runtime import make_maintainer
from repro.runtime.maintainer import Maintainer
from repro.runtime.pipeline import StreamPipeline
from repro.runtime.registry import available_maintainers, register_maintainer
from repro.service import RestartPolicy, StreamService, UnknownStreamError
from repro.service.stream_worker import StreamWorker, WorkerCounters

from .conftest import BACKEND_PARAMS as BACKEND_KWARGS

FAST_RESTARTS = RestartPolicy(
    max_restarts=3, backoff_initial=0.01, backoff_factor=2.0, backoff_max=0.05
)


def integer_stream(n, seed=0):
    """Values every backend accepts (incl. the dynamic wavelet's domain)."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 64, size=n).astype(np.float64)


def wait_for_state(service, name, state, timeout=10.0):
    deadline = time.monotonic() + timeout
    seen = None
    while time.monotonic() < deadline:
        seen = service.health(name)["state"]
        if seen == state:
            return seen
        time.sleep(0.005)
    return seen


# ----------------------------------------------------------------------
# Metrics substrate
# ----------------------------------------------------------------------


class TestMetricsRegistry:
    def test_handles_are_cached_per_name_and_labels(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_test_total", stream="a")
        assert registry.counter("repro_test_total", stream="a") is counter
        other = registry.counter("repro_test_total", stream="b")
        assert other is not counter
        counter.inc(3)
        assert counter.value == 3
        assert other.value == 0

    def test_kind_mismatch_fails_loudly(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_total", stream="a")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("repro_test_total", stream="a")

    def test_invalid_metric_name_rejected(self):
        registry = MetricsRegistry()
        for bad in ("", "0starts_with_digit", "has space", "has-dash"):
            with pytest.raises(ValueError, match="invalid metric name"):
                registry.counter(bad)

    def test_counter_only_goes_up(self):
        counter = MetricsRegistry().counter("repro_test_total")
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)
        assert counter.value == 0

    def test_gauge_set_max_is_a_high_watermark(self):
        gauge = MetricsRegistry().gauge("repro_depth")
        gauge.set_max(5)
        gauge.set_max(3)
        assert gauge.value == 5.0
        gauge.set(1)
        assert gauge.value == 1.0

    def test_histogram_reservoir_is_bounded_but_count_is_not(self):
        histogram = MetricsRegistry().histogram("repro_lat", reservoir=8)
        for value in range(100):
            histogram.observe(float(value))
        assert histogram.count == 100
        assert histogram.sum == sum(range(100))
        recent = histogram.snapshot()
        assert recent == [float(v) for v in range(92, 100)]

    def test_quantiles_come_from_one_snapshot(self):
        histogram = MetricsRegistry().histogram("repro_lat")
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        marks = histogram.quantiles((0.0, 0.5, 1.0))
        assert marks[0.0] == 1.0
        assert marks[1.0] == 4.0
        assert marks[0.0] <= marks[0.5] <= marks[1.0]
        assert MetricsRegistry().histogram("repro_lat").quantile(0.5) == 0.0

    def test_collect_labeled_filters_on_every_pair(self):
        registry = MetricsRegistry()
        registry.counter("repro_a_total", stream="x").inc()
        registry.counter("repro_a_total", stream="y").inc(2)
        registry.gauge("repro_b", stream="x", stage="ingest").set(7)
        samples = registry.collect_labeled(stream="x")
        assert {s["name"] for s in samples} == {"repro_a_total", "repro_b"}
        assert all(s["labels"]["stream"] == "x" for s in samples)
        assert registry.collect_labeled(stream="z") == []


class TestExporters:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("repro_points_total", stream="cpu").inc(42)
        registry.gauge("repro_depth", stream='we"ird\\nm').set(3.5)
        histogram = registry.histogram("repro_lat_seconds", stream="cpu")
        for value in (0.1, 0.2, 0.3):
            histogram.observe(value)
        return registry

    def test_prometheus_text_round_trips(self):
        registry = self._populated()
        samples = parse_prometheus_text(to_prometheus_text(registry))
        by_name = {}
        for sample in samples:
            by_name.setdefault(sample["name"], []).append(sample)
        assert by_name["repro_points_total"][0]["value"] == 42.0
        assert by_name["repro_points_total"][0]["labels"] == {"stream": "cpu"}
        # Escaped label values survive the round trip.
        assert by_name["repro_depth"][0]["value"] == 3.5
        # Histograms render as summaries: quantile series + count + sum.
        quantiles = {
            s["labels"]["quantile"]: s["value"]
            for s in by_name["repro_lat_seconds"]
        }
        assert set(quantiles) == {"0.5", "0.9", "0.99"}
        assert quantiles["0.5"] == pytest.approx(0.2)
        assert by_name["repro_lat_seconds_count"][0]["value"] == 3.0
        assert by_name["repro_lat_seconds_sum"][0]["value"] == pytest.approx(0.6)

    def test_parser_rejects_malformed_lines(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_prometheus_text("this is not a metric line\n")
        with pytest.raises(ValueError, match="malformed"):
            parse_prometheus_text("repro_ok_total notanumber\n")
        # Comments and blank lines are fine.
        assert parse_prometheus_text("# HELP x y\n\n") == []

    def test_jsonl_is_one_sample_per_line(self):
        registry = self._populated()
        lines = to_jsonl(registry).splitlines()
        assert len(lines) == len(registry.collect())
        for line in lines:
            sample = json.loads(line)
            assert "exported_at" in sample
            assert sample["name"].startswith("repro_")
        assert to_jsonl(MetricsRegistry()) == ""

    def test_write_jsonl_appends(self, tmp_path):
        registry = self._populated()
        path = tmp_path / "metrics.jsonl"
        write_jsonl(registry, path)
        write_jsonl(registry, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2 * len(registry.collect())


class TestTracer:
    def test_unknown_stage_is_an_error(self):
        with pytest.raises(ValueError, match="unknown stage"):
            Tracer().record("compaction", "s", 0.1)

    def test_span_records_even_when_the_block_raises(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("checkpoint", "cpu", generation=3):
                raise RuntimeError("disk full")
        (span,) = tracer.spans()
        assert span.stage == "checkpoint"
        assert span.stream == "cpu"
        assert span.status == "RuntimeError"
        assert span.meta == {"generation": 3}
        status = tracer.registry.counter(
            "repro_spans_total", stage="checkpoint", stream="cpu",
            status="RuntimeError",
        )
        assert status.value == 1

    def test_concurrent_records_share_cached_handles(self):
        """Racing first records resolve the registry's own instruments."""
        tracer = Tracer(capacity=16)
        threads, per_thread = 6, 500

        def record() -> None:
            for _ in range(per_thread):
                tracer.record("ingest", "s", 0.001)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=record) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        total = threads * per_thread
        assert tracer.stage_seconds("ingest", "s").count == total
        spans = tracer.registry.counter(
            "repro_spans_total", stage="ingest", stream="s", status="ok"
        )
        assert spans.value == total

    def test_span_ring_is_bounded(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            tracer.record("ingest", "s", float(i))
        spans = tracer.spans()
        assert [s.seconds for s in spans] == [6.0, 7.0, 8.0, 9.0]
        # The aggregate histogram survives ring eviction.
        assert tracer.stage_seconds("ingest", "s").count == 10

    def test_spans_filter_by_stage_and_stream(self):
        tracer = Tracer()
        tracer.record("ingest", "a", 0.1)
        tracer.record("maintain", "a", 0.2)
        tracer.record("ingest", "b", 0.3)
        assert len(tracer.spans(stage="ingest")) == 2
        assert len(tracer.spans(stream="a")) == 2
        assert len(tracer.spans(stage="ingest", stream="b")) == 1

    def test_pipeline_observer_files_stage_timings(self):
        tracer = Tracer()
        maintainer = make_maintainer("exact", window_size=64)
        pipeline = StreamPipeline(
            [maintainer], maintain_every=4,
            observer=PipelineObserver(tracer, "cpu"),
        )
        pipeline.extend(integer_stream(8))
        ingest = tracer.spans(stage="ingest", stream="cpu")
        maintain = tracer.spans(stage="maintain", stream="cpu")
        assert len(ingest) == 1 and len(maintain) == 1
        assert ingest[0].meta["arrivals"] == 8
        # A chunk below the cadence emits ingest but no maintain span.
        pipeline.extend(integer_stream(2))
        assert len(tracer.spans(stage="ingest", stream="cpu")) == 2
        assert len(tracer.spans(stage="maintain", stream="cpu")) == 1


# ----------------------------------------------------------------------
# Accuracy monitoring
# ----------------------------------------------------------------------


class TestAccuracyMonitor:
    def test_fixed_window_observed_epsilon_within_configured_bound(self):
        """Theorem 1, observed live: SSE(served)/SSE(optimal) - 1 <= eps."""
        params = BACKEND_KWARGS["fixed_window"]
        maintainer = make_maintainer("fixed_window", **params)
        monitor = AccuracyMonitor("fixed_window", params, check_every=64)
        rng = np.random.default_rng(3)
        arrivals = 0
        reports = []
        for _ in range(8):
            chunk = np.repeat(rng.normal(size=8), 8) + 0.1 * rng.normal(size=64)
            maintainer.extend(chunk)
            maintainer.maintain()
            monitor.extend(chunk)
            arrivals += chunk.size
            report = monitor.maybe_check(arrivals, maintainer)
            if report is not None:
                reports.append(report)
        assert len(reports) == 8
        assert all(r.exact for r in reports)
        assert all(r.within_bound for r in reports), [r.violations for r in reports]
        assert all(
            0.0 <= r.observed_epsilon <= params["epsilon"] for r in reports
        ), [r.observed_epsilon for r in reports]

    def test_check_cadence_and_report_bound(self):
        monitor = AccuracyMonitor(
            "exact", {"window_size": 32}, check_every=100, max_reports=1,
        )
        maintainer = make_maintainer("exact", window_size=32)
        arrivals = 0
        for _ in range(10):
            chunk = integer_stream(32, seed=arrivals)
            maintainer.extend(chunk)
            monitor.extend(chunk)
            arrivals += chunk.size
            monitor.maybe_check(arrivals, maintainer)
        # 320 arrivals at a cadence of 100 check at 128 and 256; the
        # bounded log retains only the newest of them.
        assert len(monitor.reports()) == 1
        assert monitor.latest().arrivals == 256
        assert monitor.latest().within_bound
        assert monitor.to_dict()["checks"] == 2

    def test_registry_mirrors_checks_and_violations(self):
        registry = MetricsRegistry()
        monitor = AccuracyMonitor(
            "gk_quantiles", {"epsilon": 0.01}, window_size=16, check_every=1,
            registry=registry, stream="s",
        )
        # A summary of other points than the ones the monitor was fed.
        liar = make_maintainer("gk_quantiles", epsilon=0.01)
        liar.extend(integer_stream(16) + 1000.0)
        monitor.extend(integer_stream(16))
        report = monitor.check(16, liar)
        assert report.exact and report.within_bound is False
        assert "quantile-rank" in report.violations

        def value(metric):
            return registry.counter(metric, stream="s").value

        assert value("repro_accuracy_checks_total") == 1
        assert value("repro_accuracy_violations_total") == 1
        assert registry.gauge("repro_observed_epsilon", stream="s").value > 0.01
        # Past its window_size the whole-stream oracle is dropped: the
        # next check is unverified, neither a pass nor a violation.
        monitor.extend(integer_stream(1))
        report = monitor.check(17, liar)
        assert not report.exact and report.within_bound is None
        assert value("repro_accuracy_checks_total") == 2
        assert value("repro_accuracy_violations_total") == 1
        assert value("repro_accuracy_unverified_total") == 1
        assert monitor.to_dict()["window_points"] == 0

    def test_service_level_accuracy_monitoring(self):
        with StreamService() as service:
            service.create_stream(
                "s", backend="fixed_window",
                params=BACKEND_KWARGS["fixed_window"],
                maintain_every=16,
                accuracy=dict(window_size=64, check_every=64),
            )
            stream = integer_stream(256, seed=9)
            for start in range(0, 256, 64):
                service.ingest("s", stream[start : start + 64])
            assert service.flush("s") is True
            summary = service.accuracy("s")
            assert summary["checks"] >= 1
            assert summary["unverified"] == 0
            assert summary["violations"] == 0
            assert summary["observed_epsilon"] <= 0.25
            assert service.stats("s")["accuracy"] == summary

    def test_constructor_validation(self):
        gk = {"epsilon": 0.1}
        with pytest.raises(ValueError, match="check_every"):
            AccuracyMonitor("gk_quantiles", gk, check_every=0)
        with pytest.raises(ValueError, match="max_reports"):
            AccuracyMonitor("gk_quantiles", gk, max_reports=0)
        with pytest.raises(ValueError, match="window_size"):
            AccuracyMonitor("gk_quantiles", gk, window_size=0)
        with pytest.raises(ValueError, match="synopsis window"):
            AccuracyMonitor("exact", {"window_size": 64}, window_size=32)
        with pytest.raises(ValueError, match="no oracle"):
            AccuracyMonitor("vibes", {})

    @pytest.mark.parametrize("window_size", [512, 20_000])
    def test_gk_checks_count_only_when_exact(self, window_size):
        """An unshed 20,000-point GK stream: every exact check passes,
        and past a smaller window_size every check is unverified."""
        from repro.datasets import att_utilization_stream

        maintainer = make_maintainer("gk_quantiles", epsilon=0.05)
        monitor = AccuracyMonitor(
            "gk_quantiles", {"epsilon": 0.05}, window_size=window_size,
            check_every=1000,
        )
        stream = att_utilization_stream(20_000, seed=7)
        reports = []
        for start in range(0, stream.size, 1000):
            chunk = stream[start : start + 1000]
            maintainer.extend(chunk)
            monitor.extend(chunk)
            reports.append(monitor.maybe_check(start + chunk.size, maintainer))
        assert len(reports) == 20
        assert all(report.exact is (report.arrivals <= window_size)
                   for report in reports)
        assert all(report.within_bound is not False for report in reports)
        summary = monitor.to_dict()
        assert summary["violations"] == 0
        assert summary["unverified"] == sum(
            report.arrivals > window_size for report in reports
        )
        if window_size == 20_000:
            assert summary["unverified"] == 0
            assert summary["observed_epsilon"] <= 0.05

    def test_audit_leaves_the_maintainer_untouched(self):
        """A monitored stream's maintainer state equals an unmonitored
        twin's after the same batches, for every backend."""

        def state(service, name):
            payload = service._workers[name].maintainer.state_dict()
            stats = {
                key: value for key, value in payload.pop("stats").items()
                if not key.endswith("_seconds")
            }
            payload.pop("name")
            return payload, stats

        from .test_front_door import _backend_stream

        with StreamService() as service:
            for backend, params in BACKEND_KWARGS.items():
                data = _backend_stream(backend, params, 1024)
                for name, accuracy in (
                    (f"{backend}_m", {"check_every": 64}),
                    (f"{backend}_u", None),
                ):
                    service.create_stream(
                        name, backend=backend, params=params,
                        maintain_every=16, accuracy=accuracy,
                    )
                    for start in range(0, data.size, 64):
                        service.ingest(name, data[start : start + 64])
            assert service.flush() is True
            for backend in BACKEND_KWARGS:
                assert service.accuracy(f"{backend}_m")["checks"] >= 1
                assert state(service, f"{backend}_m") == state(
                    service, f"{backend}_u"
                ), backend

    def test_monitor_memory_is_bounded(self):
        """After 20k points a monitor holds at most max(synopsis window,
        window_size) raw points, and none for the frequency oracles."""
        from .test_front_door import _backend_stream

        for backend, params in BACKEND_KWARGS.items():
            monitor = AccuracyMonitor(backend, params)
            data = _backend_stream(backend, params, 20_000)
            for start in range(0, data.size, 500):
                monitor.extend(data[start : start + 500])
            window = params.get("window_size", params.get("window", 0))
            held = monitor.to_dict()["window_points"]
            if backend in ("cr_precis", "dynamic_wavelet"):
                assert held == 0, backend
            else:
                assert held <= max(window, monitor.window_size), backend

    def test_restarted_window_stream_reverifies_once_refilled(self, tmp_path):
        from repro.service import FaultInjector

        window = BACKEND_KWARGS["fixed_window"]["window_size"]
        injector = (
            FaultInjector()
            .crash_at(160, stream="fw")
            .crash_at(160, stream="gk")
        )
        data = integer_stream(512, seed=8)
        with StreamService(
            tmp_path, supervise=True, restart_policy=FAST_RESTARTS,
            fault_injector=injector,
        ) as service:
            for name, backend in (("fw", "fixed_window"), ("gk", "gk_quantiles")):
                service.create_stream(
                    name, backend=backend, params=BACKEND_KWARGS[backend],
                    maintain_every=16, accuracy={"check_every": 16},
                )

            def feed(start, stop):
                for begin in range(start, stop, 16):
                    for name in ("fw", "gk"):
                        service.ingest(name, data[begin : begin + 16])
                    assert service.flush() is True

            feed(0, 128)
            service.checkpoint()
            before = service.accuracy("fw")
            assert before["unverified"] == 0 and before["violations"] == 0
            gk_before = service.accuracy("gk")
            assert gk_before["unverified"] == 0
            # The batch ending at arrival 160 crashes the worker; the
            # supervisor restores arrival 128 and replays the rest.
            feed(128, 176)
            assert service.health("fw")["restarts"] == 1
            assert service.health("gk")["restarts"] == 1
            after = service.accuracy("fw")
            assert after["unverified"] > before["unverified"]
            gk_after = service.accuracy("gk")
            assert gk_after["unverified"] > gk_before["unverified"]
            # 64 points past the restore point the window is full again.
            feed(176, 128 + window)
            refilled = service.accuracy("fw")
            feed(128 + window, 512)
            final = service.accuracy("fw")
            assert final["checks"] > refilled["checks"]
            assert final["unverified"] == refilled["unverified"]
            assert final["violations"] == 0
            # A whole-stream oracle restarted mid-stream never holds the
            # points its guarantee covers: every later check is unverified.
            gk = service.accuracy("gk")
            assert gk["checks"] > gk_after["checks"]
            assert (
                gk["unverified"] - gk_after["unverified"]
                == gk["checks"] - gk_after["checks"]
            )
            assert gk["violations"] == 0
            assert service.health("fw")["state"] == "healthy"


# ----------------------------------------------------------------------
# Regression: the enqueue-latency reservoir race
# ----------------------------------------------------------------------


class TestLatencyTelemetryRace:
    """p50/p99 must describe one latency population, never two.

    The pre-fix ``WorkerCounters`` kept a bare deque and ran ``list()``
    over it once per percentile: a producer flipping the reservoir
    between epochs could land p50 in the new epoch and p99 in the old
    one (p50 > p99), and a resize mid-iteration could raise outright.
    """

    def _flip_flop(self, observe, read, reservoir):
        stop = threading.Event()
        torn, errors = [], []

        def writer():
            epoch = 0.0
            while not stop.is_set():
                for _ in range(reservoir):
                    observe(epoch)
                epoch = 1.0 - epoch

        def reader():
            while not stop.is_set():
                try:
                    p50, p99 = read()
                except Exception as error:  # noqa: BLE001 - the regression
                    errors.append(error)
                    return
                if p50 > p99 + 1e-12:
                    torn.append((p50, p99))

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.4)
        stop.set()
        for thread in threads:
            thread.join()
        assert not errors, f"reader crashed: {errors[0]!r}"
        assert not torn, f"torn percentile pair: {torn[0]}"

    def test_histogram_quantiles_never_torn(self):
        histogram = HistogramMetric("repro_lat", (), reservoir=512)

        def read():
            marks = histogram.quantiles((0.50, 0.99))
            return marks[0.50], marks[0.99]

        self._flip_flop(histogram.observe, read, reservoir=512)

    def test_worker_counters_to_dict_never_torn(self):
        counters = WorkerCounters()

        def read():
            stats = counters.to_dict()
            return stats["enqueue_p50_seconds"], stats["enqueue_p99_seconds"]

        self._flip_flop(
            lambda epoch: counters.record_enqueue(1, epoch, 1),
            read,
            reservoir=WorkerCounters.LATENCY_RESERVOIR,
        )

    def test_multi_producer_submit_with_stats_readers(self):
        """Sustained concurrent submits while readers hammer stats()."""
        worker = StreamWorker(
            "s", make_maintainer("exact", window_size=128),
            maintain_every=8, queue_capacity=512,
        )
        worker.start()
        errors = []
        done = threading.Event()
        batch = integer_stream(16)

        def producer():
            try:
                for _ in range(50):
                    worker.submit(batch)
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        def reader():
            while not done.is_set():
                try:
                    stats = worker.stats()
                    assert (
                        stats["enqueue_p50_seconds"]
                        <= stats["enqueue_p99_seconds"] + 1e-12
                    )
                    worker.counters.latency_quantile(0.9)
                except Exception as error:  # noqa: BLE001
                    errors.append(error)
                    return

        producers = [threading.Thread(target=producer) for _ in range(4)]
        readers = [threading.Thread(target=reader) for _ in range(2)]
        for thread in producers + readers:
            thread.start()
        for thread in producers:
            thread.join()
        worker.flush()
        done.set()
        for thread in readers:
            thread.join()
        try:
            assert not errors, f"concurrent telemetry failed: {errors[0]!r}"
            counters = worker.counters
            assert counters.submitted_points == 4 * 50 * batch.size
            assert counters.ingested_points == counters.submitted_points
            assert counters.drained_batches == counters.enqueued_batches == 200
            assert len(counters.enqueue_latencies) == min(
                200, WorkerCounters.LATENCY_RESERVOIR
            )
        finally:
            worker.close()


# ----------------------------------------------------------------------
# Regression: premature degraded -> healthy promotion
# ----------------------------------------------------------------------

#: Sentinel values the gated maintainer reacts to.
CRASH_VALUE = 666.0
BLOCK_VALUE = 999.0


class _PromotionController:
    """Shared switchboard between the test and the gated maintainer."""

    def __init__(self):
        self.crash_armed = threading.Event()
        self.crash_armed.set()
        self.block_gate = threading.Event()
        self.blocking = threading.Event()
        self.instances = 0


class _GatedMaintainer(Maintainer):
    """Crashes once on CRASH_VALUE; holds ingest open on BLOCK_VALUE."""

    def __init__(self, controller):
        super().__init__("gated")
        self._ctrl = controller
        controller.instances += 1
        self._values = []

    def _ingest_batch(self, batch):
        for value in batch.tolist():
            if value == CRASH_VALUE and self._ctrl.crash_armed.is_set():
                self._ctrl.crash_armed.clear()
                raise RuntimeError("injected crash")
            if value == BLOCK_VALUE and not self._ctrl.block_gate.is_set():
                self._ctrl.blocking.set()
                if not self._ctrl.block_gate.wait(timeout=10.0):
                    raise RuntimeError("block gate never released")
            self._values.append(value)

    def synopsis(self):
        return list(self._values)


@pytest.fixture(autouse=True, scope="module")
def _obs_gated_backend():
    """Register the test-only gated backend for this module, then remove
    it again: ``repro.verify`` now fails loudly on any registered
    maintainer without certification parameters, so a leaked test
    registration would poison the verify suite."""
    from repro.runtime.registry import _REGISTRY

    if "obs_gated" not in available_maintainers():
        register_maintainer("obs_gated", _GatedMaintainer)
    yield
    _REGISTRY.pop("obs_gated", None)


class TestDegradedPromotion:
    def test_not_promoted_while_final_batch_is_in_flight(self):
        """queue_depth == 0 with the last batch mid-ingest stays degraded.

        The replacement worker pops the final pending batch *before*
        feeding it, so the queue reads empty while the batch (and the
        re-materialization of the served view) is still in progress --
        the exact window in which the old promotion check reported
        ``healthy``.
        """
        ctrl = _PromotionController()
        with StreamService(
            supervise=True, restart_policy=FAST_RESTARTS
        ) as service:
            service.create_stream(
                "s", backend="obs_gated", params={"controller": ctrl},
                maintain_every=1, poison="fail",
            )
            try:
                service.ingest("s", [1.0, 2.0, 3.0])
                assert service.flush("s") is True
                # One batch: the crash kills generation 1; the replacement
                # replays [1, 2, 3], then blocks mid-way through the
                # re-queued pending batch.
                service.ingest("s", [CRASH_VALUE, BLOCK_VALUE])
                assert ctrl.blocking.wait(timeout=5.0), (
                    "replacement worker never reached the gate"
                )
                health = service.health("s")
                assert health["queue_depth"] == 0
                assert health["restarts"] == 1
                # Hold the window open across several supervisor polls:
                # the stream must stay degraded the whole time.
                deadline = time.monotonic() + 0.2
                while time.monotonic() < deadline:
                    assert service.health("s")["state"] == "degraded"
                    time.sleep(0.02)
            finally:
                ctrl.block_gate.set()
            assert wait_for_state(service, "s", "healthy") == "healthy"
            assert service.stats("s")["arrivals"] == 5
            assert service.synopsis("s") == [
                1.0, 2.0, 3.0, CRASH_VALUE, BLOCK_VALUE,
            ]
            assert ctrl.instances == 2
            assert service.health("s")["lossy_recovery"] is False


# ----------------------------------------------------------------------
# Service-level exposure
# ----------------------------------------------------------------------

#: Every stream's metrics() must cover at least these instruments.
PER_STREAM_METRICS = {
    "repro_submitted_points_total",
    "repro_ingested_points_total",
    "repro_dropped_points_total",
    "repro_enqueued_batches_total",
    "repro_drained_batches_total",
    "repro_max_queue_depth",
    "repro_enqueue_wait_seconds_total",
    "repro_enqueue_latency_seconds",
    "repro_dead_letter_poison_points_total",
    "repro_dead_letter_quarantined",
    "repro_stage_seconds",
    "repro_spans_total",
}


class TestServiceMetrics:
    def test_concurrent_metrics_under_sustained_ingest_all_backends(self):
        with StreamService() as service:
            for backend, params in BACKEND_KWARGS.items():
                service.create_stream(backend, backend=backend, params=params,
                                      maintain_every=16)
            errors = []
            done = threading.Event()

            def producer(name, seed):
                try:
                    for i in range(10):
                        service.ingest(name, integer_stream(64, seed=seed + i))
                except Exception as error:  # noqa: BLE001
                    errors.append(error)

            def reader():
                while not done.is_set():
                    try:
                        assert service.metrics()
                        parse_prometheus_text(service.prometheus_metrics())
                        service.stats()
                    except Exception as error:  # noqa: BLE001
                        errors.append(error)
                        return

            producers = [
                threading.Thread(target=producer, args=(backend, 100 * i))
                for i, backend in enumerate(BACKEND_KWARGS)
            ]
            readers = [threading.Thread(target=reader) for _ in range(2)]
            for thread in producers + readers:
                thread.start()
            for thread in producers:
                thread.join()
            assert service.flush() is True
            done.set()
            for thread in readers:
                thread.join()
            assert not errors, f"concurrent metrics access failed: {errors[0]!r}"

            for backend in BACKEND_KWARGS:
                samples = service.metrics(backend)
                names = {s["name"] for s in samples}
                missing = PER_STREAM_METRICS - names
                assert not missing, f"{backend}: metrics missing {missing}"
                by_name = {
                    s["name"]: s for s in samples
                    if s["labels"].get("stage") in (None, "ingest")
                }
                assert by_name["repro_submitted_points_total"]["value"] == 640
                assert by_name["repro_ingested_points_total"]["value"] == 640
                stages = {
                    s["labels"]["stage"] for s in samples
                    if s["name"] == "repro_stage_seconds"
                }
                assert {"ingest", "maintain", "materialize"} <= stages

    def test_metrics_cover_checkpoints_and_export(self, tmp_path):
        with StreamService(tmp_path / "snapshots") as service:
            service.create_stream(
                "s", backend="exact", params={"window_size": 64},
            )
            service.ingest("s", integer_stream(128))
            service.flush("s")
            service.checkpoint("s")
            names = {s["name"] for s in service.metrics("s")}
            assert "repro_snapshot_writes_total" in names
            spans = service.spans(stage="checkpoint", name="s")
            assert len(spans) == 1 and spans[0].status == "ok"
            # The exporters see the same registry the service reports from.
            parsed = parse_prometheus_text(service.prometheus_metrics())
            assert any(
                s["name"] == "repro_snapshot_writes_total"
                and s["labels"].get("stream") == "s"
                for s in parsed
            )
            path = service.export_metrics_jsonl(tmp_path / "metrics.jsonl")
            lines = path.read_text().splitlines()
            assert len(lines) == len(service.metrics())

    def test_unknown_stream_metrics_raise(self):
        with StreamService() as service:
            service.create_stream("s", backend="exact",
                                  params={"window_size": 8})
            with pytest.raises(UnknownStreamError):
                service.metrics("nope")
            assert service.accuracy("s") is None
