"""Tests for the repro.runtime layer: registry, maintainers, pipeline.

Covers the refactor's contract: batched and one-at-a-time ingestion are
*identical* (synopses and deterministic counters), pipeline cadence
semantics match a hand-rolled per-point loop, the registry resolves every
backend, and the batched fast path actually pays off.
"""

import time

import numpy as np
import pytest

from repro.runtime import (
    DelayedMaintainer,
    FixedWindowMaintainer,
    Maintainer,
    StreamPipeline,
    available_maintainers,
    make_maintainer,
    register_maintainer,
)

from .conftest import BACKEND_PARAMS as BACKEND_KWARGS


def utilization(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 100.0, n)



class TestRegistry:
    def test_all_backends_registered(self):
        assert set(BACKEND_KWARGS) <= set(available_maintainers())

    def test_make_resolves_every_backend(self):
        for name, kwargs in BACKEND_KWARGS.items():
            maintainer = make_maintainer(name, **kwargs)
            assert isinstance(maintainer, Maintainer)
            maintainer.extend(utilization(100))
            maintainer.maintain()
            assert maintainer.synopsis() is not None
            assert maintainer.stats().points == 100

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="fixed_window"):
            make_maintainer("no_such_backend")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_maintainer("fixed_window", FixedWindowMaintainer)

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError, match="invalid"):
            register_maintainer("no spaces!", FixedWindowMaintainer)

    def test_custom_name_kwarg_forwarded(self):
        maintainer = make_maintainer(
            "fixed_window", window_size=8, num_buckets=2, epsilon=0.5, name="mine"
        )
        assert maintainer.name == "mine"


class TestBatchedEquivalence:
    """Batched extend == per-point append: same synopses, same counters."""

    @pytest.mark.parametrize("backend", sorted(BACKEND_KWARGS))
    def test_synopsis_identical(self, backend):
        stream = utilization(500, seed=3)
        one = make_maintainer(backend, **BACKEND_KWARGS[backend])
        batched = make_maintainer(backend, **BACKEND_KWARGS[backend])
        for value in stream:
            one.append(value)
        # Ragged batch sizes, crossing every internal boundary.
        i = 0
        rng = np.random.default_rng(9)
        while i < stream.size:
            step = int(rng.integers(1, 48))
            batched.extend(stream[i : i + step])
            i += step
        one.maintain()
        batched.maintain()
        assert one.stats().counters()["points"] == 500
        assert batched.stats().counters()["points"] == 500
        a, b = one.synopsis(), batched.synopsis()
        if hasattr(a, "to_dict"):
            assert a.to_dict() == b.to_dict()
        elif hasattr(a, "quantiles"):
            assert a.quantiles(5) == b.quantiles(5)
        elif hasattr(a, "range_sum"):
            assert a.range_sum(0, len(a) - 1) == b.range_sum(0, len(b) - 1)

    def test_fixed_window_bit_identical(self):
        """The paper's structure must not drift under batched ingestion."""
        stream = utilization(3000, seed=1)
        one = FixedWindowMaintainer(256, 8, 0.25)
        batched = FixedWindowMaintainer(256, 8, 0.25)
        for value in stream:
            one.append(value)
        for start in range(0, 3000, 77):
            batched.extend(stream[start : start + 77])
        assert np.array_equal(one.window_values(), batched.window_values())
        assert one.synopsis().to_dict() == batched.synopsis().to_dict()
        assert one.stats().counters() == batched.stats().counters()

    def test_generator_input_accepted(self):
        maintainer = make_maintainer(
            "fixed_window", window_size=16, num_buckets=4, epsilon=0.5
        )
        maintainer.extend(float(v) for v in range(40))
        assert maintainer.stats().points == 40

    def test_stats_counters_exclude_timing(self):
        maintainer = make_maintainer("exact", window_size=8)
        maintainer.extend(utilization(32))
        counters = maintainer.stats().counters()
        assert set(counters) == {
            "points", "maintains", "rebuilds", "herror_evaluations",
            "search_probes",
        }

    def test_fixed_window_stats_surface_rebuild_telemetry(self):
        maintainer = FixedWindowMaintainer(64, 8, 0.25)
        maintainer.extend(utilization(200))
        maintainer.maintain()
        stats = maintainer.stats()
        assert stats.rebuilds >= 1
        assert stats.herror_evaluations > 0
        assert stats.maintains == 1
        assert stats.seconds >= 0.0


class TestStateDict:
    """Every registry backend checkpoints and resumes exactly."""

    @staticmethod
    def integers(n, seed=0):
        rng = np.random.default_rng(seed)
        return rng.integers(0, 100, size=n).astype(float)

    @pytest.mark.parametrize("backend", sorted(BACKEND_KWARGS))
    def test_json_round_trip_resumes_exactly(self, backend):
        import json

        stream = self.integers(600, seed=11)
        original = make_maintainer(backend, **BACKEND_KWARGS[backend])
        original.extend(stream[:400])
        original.maintain()
        payload = json.loads(json.dumps(original.state_dict()))
        restored = make_maintainer(backend, **BACKEND_KWARGS[backend])
        restored.load_state_dict(payload)
        assert restored.name == original.name
        assert restored.stats().counters() == original.stats().counters()
        original.extend(stream[400:])
        restored.extend(stream[400:])
        original.maintain()
        restored.maintain()
        a, b = original.synopsis(), restored.synopsis()
        if hasattr(a, "to_dict"):
            assert a.to_dict() == b.to_dict()
        elif hasattr(a, "quantiles"):
            assert a.quantiles(5) == b.quantiles(5)
        else:
            assert a.range_sum(0, len(a) - 1) == b.range_sum(0, len(b) - 1)
        assert restored.stats().counters() == original.stats().counters()

    @pytest.mark.parametrize("backend", sorted(BACKEND_KWARGS))
    def test_state_dict_is_a_copy_not_a_live_view(self, backend):
        """A checkpoint flattens the dict after the worker resumes.

        So nothing the maintainer does later -- more ingest, a
        maintain() -- may reach into a dict it already handed out.
        """
        import json

        stream = self.integers(600, seed=13)
        maintainer = make_maintainer(backend, **BACKEND_KWARGS[backend])
        maintainer.extend(stream[:300])
        maintainer.maintain()
        state = maintainer.state_dict()
        taken = json.dumps(state, sort_keys=True)
        maintainer.extend(stream[300:])
        maintainer.maintain()
        assert json.dumps(state, sort_keys=True) == taken
        assert json.dumps(maintainer.state_dict(), sort_keys=True) != taken

    def test_mismatched_adapter_rejected(self):
        exact = make_maintainer("exact", window_size=16)
        exact.extend(self.integers(8))
        gk = make_maintainer("gk_quantiles", epsilon=0.1)
        with pytest.raises(ValueError, match="cannot restore"):
            gk.load_state_dict(exact.state_dict())

    def test_reservoir_resumption_is_bit_exact(self):
        stream = self.integers(500, seed=2)
        original = make_maintainer("reservoir", capacity=16, seed=7)
        original.extend(stream[:250])
        restored = make_maintainer("reservoir", capacity=16, seed=7)
        restored.load_state_dict(original.state_dict())
        original.extend(stream[250:])
        restored.extend(stream[250:])
        assert list(original.synopsis().values()) == list(
            restored.synopsis().values()
        )

    def test_fixed_window_telemetry_survives_restore(self):
        original = make_maintainer("fixed_window", **BACKEND_KWARGS["fixed_window"])
        original.extend(self.integers(200))
        original.maintain()
        before = original.stats()
        restored = make_maintainer("fixed_window", **BACKEND_KWARGS["fixed_window"])
        restored.load_state_dict(original.state_dict())
        after = restored.stats()
        assert after.rebuilds == before.rebuilds
        assert after.herror_evaluations == before.herror_evaluations
        assert after.search_probes == before.search_probes

    def test_delayed_maintainer_round_trip(self):
        stream = self.integers(300, seed=5)
        inner = make_maintainer("gk_quantiles", epsilon=0.1)
        original = DelayedMaintainer(inner, lag=20)
        original.extend(stream[:150])
        restored = DelayedMaintainer(
            make_maintainer("gk_quantiles", epsilon=0.1), lag=20
        )
        restored.load_state_dict(original.state_dict())
        assert restored.delayed_points() == original.delayed_points()
        original.extend(stream[150:])
        restored.extend(stream[150:])
        assert original.synopsis().to_dict() == restored.synopsis().to_dict()


class TestPipelineCadence:
    def test_maintain_positions_match_per_point_loop(self):
        """Pipeline cadence == a hand-rolled `if i % c == 0: maintain()`."""
        stream = utilization(200, seed=2)
        cadence = 7

        reference = FixedWindowMaintainer(32, 4, 0.5)
        for i, value in enumerate(stream, start=1):
            reference.append(value)
            if i % cadence == 0:
                reference.maintain()

        piped = FixedWindowMaintainer(32, 4, 0.5)
        StreamPipeline([piped], maintain_every=cadence, batch_size=64).run(stream)

        assert piped.stats().counters() == reference.stats().counters()
        assert piped.synopsis().to_dict() == reference.synopsis().to_dict()

    def test_checkpoint_positions_stream_aligned(self):
        fired = []
        maintainer = make_maintainer("exact", window_size=16)
        pipeline = StreamPipeline(
            [maintainer],
            maintain_every=None,
            checkpoint_every=10,
            warmup=16,
            on_checkpoint=lambda arrivals, p: fired.append(arrivals),
        )
        pipeline.run(utilization(100))
        assert fired == [20, 30, 40, 50, 60, 70, 80, 90, 100]

    def test_checkpoint_positions_warmup_aligned(self):
        fired = []
        maintainer = make_maintainer("exact", window_size=16)
        pipeline = StreamPipeline(
            [maintainer],
            maintain_every=None,
            checkpoint_every=10,
            warmup=16,
            checkpoint_alignment="warmup",
            on_checkpoint=lambda arrivals, p: fired.append(arrivals),
        )
        pipeline.run(utilization(100))
        assert fired == [16, 26, 36, 46, 56, 66, 76, 86, 96]

    def test_events_fire_identically_for_any_batch_size(self):
        stream = utilization(150, seed=4)
        schedules = []
        for batch_size in (1, 7, 64, 150):
            maintains, checkpoints = [], []
            pipeline = StreamPipeline(
                [make_maintainer("exact", window_size=8)],
                maintain_every=6,
                checkpoint_every=11,
                warmup=8,
                on_maintain=lambda a, p: maintains.append(a),
                on_checkpoint=lambda a, p: checkpoints.append(a),
                batch_size=batch_size,
            )
            pipeline.run(stream)
            schedules.append((maintains, checkpoints))
        assert all(schedule == schedules[0] for schedule in schedules[1:])

    def test_fan_out_feeds_all_maintainers(self):
        stream = utilization(120)
        maintainers = [
            make_maintainer("exact", window_size=16, name="a"),
            make_maintainer("reservoir", capacity=8, name="b"),
        ]
        pipeline = StreamPipeline(maintainers, maintain_every=None)
        reports = pipeline.run(stream)
        assert [r.name for r in reports] == ["a", "b"]
        assert all(r.stats.points == 120 for r in reports)
        assert pipeline.arrivals == 120
        assert pipeline["b"] is maintainers[1]

    def test_duplicate_names_rejected(self):
        pair = [
            make_maintainer("exact", window_size=8, name="x"),
            make_maintainer("reservoir", capacity=4, name="x"),
        ]
        with pytest.raises(ValueError, match="unique"):
            StreamPipeline(pair)

    def test_iterator_stream(self):
        maintainer = make_maintainer("exact", window_size=4)
        StreamPipeline([maintainer], batch_size=16).run(
            float(v) for v in range(50)
        )
        assert maintainer.stats().points == 50

    def test_checkpoint_counts_in_reports(self):
        pipeline = StreamPipeline(
            [make_maintainer("exact", window_size=4)],
            maintain_every=None,
            checkpoint_every=25,
        )
        reports = pipeline.run(utilization(100))
        assert reports[0].checkpoints == 4


class _StageLog:
    """Observer recording each ``record_stage`` call but its duration."""

    def __init__(self):
        self.calls = []

    def record_stage(self, stage, seconds, arrivals):
        self.calls.append((stage, arrivals))


#: Backends that keep the base no-op ``Maintainer._maintain``.
MAINTENANCE_FREE = {
    "agglomerative", "cr_precis", "dynamic_wavelet", "eh_count",
    "equi_depth", "exact", "gk_quantiles", "reservoir",
}


class TestWholeBatchFeeds:
    """A batch is fed whole where no one can observe the maintenance cuts.

    512-point batches at ``maintain_every=64``: a pipeline without
    callbacks against one with a do-nothing ``on_maintain`` (which keeps
    the cuts), and both against per-point feeding.
    """

    EVERY = 64
    BATCH = 512

    def _run(self, backend, params, stream, checkpoint_every, on_maintain):
        maintainer = make_maintainer(backend, **params)
        observer = _StageLog()
        checkpoints = []
        pipeline = StreamPipeline(
            [maintainer],
            maintain_every=self.EVERY,
            checkpoint_every=checkpoint_every,
            on_maintain=on_maintain,
            on_checkpoint=lambda a, p: checkpoints.append(a),
            observer=observer,
        )
        for start in range(0, stream.size, self.BATCH):
            pipeline.extend(stream[start : start + self.BATCH])
        return {
            "state": maintainer.state_dict()["backend"],
            "report": pipeline.reports()[0],
            "stages": observer.calls,
            "checkpoints": checkpoints,
        }

    @pytest.mark.parametrize("checkpoint_every", [None, 100])
    def test_same_events_and_state_with_or_without_cuts(
        self, all_backends, checkpoint_every
    ):
        backend, params = all_backends
        # Non-negative integers inside every backend's domain; a ragged
        # last batch.
        stream = np.random.default_rng(7).integers(0, 100, 2100).astype(float)
        maintained = []
        whole = self._run(backend, params, stream, checkpoint_every, None)
        cut = self._run(
            backend, params, stream, checkpoint_every,
            lambda a, p: maintained.append(a),
        )
        reference = make_maintainer(backend, **params)
        for arrivals, value in enumerate(stream.tolist(), start=1):
            reference.append(value)
            if arrivals % self.EVERY == 0:
                reference.maintain()

        for run in (whole, cut):
            assert run["state"] == reference.state_dict()["backend"]
            assert run["report"].stats.counters() == reference.stats().counters()
        assert whole["report"].checkpoints == cut["report"].checkpoints
        assert whole["stages"] == cut["stages"]
        assert whole["checkpoints"] == cut["checkpoints"]
        assert maintained == list(range(self.EVERY, stream.size + 1, self.EVERY))
        # Fed whole exactly when the class does no maintenance work.
        fewer = whole["report"].stats.batches < cut["report"].stats.batches
        assert fewer == (backend in MAINTENANCE_FREE)


class TestDelayedMaintainer:
    def test_lags_inner_by_exactly_lag_points(self):
        stream = utilization(100, seed=6)
        delayed = DelayedMaintainer(
            make_maintainer("fixed_window", window_size=32, num_buckets=4,
                            epsilon=0.5),
            lag=10,
        )
        direct = make_maintainer(
            "fixed_window", window_size=32, num_buckets=4, epsilon=0.5
        )
        for start in range(0, 100, 9):
            delayed.extend(stream[start : start + 9])
        direct.extend(stream[:90])
        assert delayed.inner.stats().points == 90
        assert delayed.delayed_points() == stream[90:].tolist()
        assert delayed.synopsis().to_dict() == direct.synopsis().to_dict()


class TestBatchedFastPath:
    """The refactor's perf claim, with generous margins.

    At maintenance cadence 1 the pipeline degenerates to per-point
    `append` + `maintain`, so the whole run must not be slower than the
    hand-rolled loop it replaced.  At cadence >= 8 the pipeline hands the
    maintainer chunks of that size, and batched `extend` must beat the
    same points fed through per-point `append` (maintenance work is
    identical on both sides, so ingestion is what the cadence buys).
    """

    def test_no_slower_at_cadence_one(self):
        window, arrivals = 128, 150
        stream = utilization(window + arrivals, seed=11)

        def per_point():
            maintainer = FixedWindowMaintainer(window, 4, 0.5)
            started = time.perf_counter()
            for value in stream.tolist():
                maintainer.append(value)
                maintainer.maintain()
            return time.perf_counter() - started

        def piped():
            maintainer = FixedWindowMaintainer(window, 4, 0.5)
            pipeline = StreamPipeline([maintainer], maintain_every=1)
            started = time.perf_counter()
            pipeline.run(stream)
            return time.perf_counter() - started

        reference = min(per_point() for _ in range(2))
        pipelined = min(piped() for _ in range(2))
        # Identical work modulo loop bookkeeping; 1.5x absorbs timer noise.
        assert pipelined <= 1.5 * reference, (pipelined, reference)

    @pytest.mark.parametrize("cadence,margin", [(8, 1.0), (64, 0.5)])
    def test_batched_extend_faster_at_cadence(self, cadence, margin):
        stream = utilization(30_000, seed=12)

        def per_point():
            maintainer = FixedWindowMaintainer(256, 8, 0.25)
            values = stream.tolist()
            started = time.perf_counter()
            for value in values:
                maintainer.append(value)
            return time.perf_counter() - started

        def batched():
            maintainer = FixedWindowMaintainer(256, 8, 0.25)
            chunks = [
                stream[i : i + cadence] for i in range(0, stream.size, cadence)
            ]
            started = time.perf_counter()
            for chunk in chunks:
                maintainer.extend(chunk)
            return time.perf_counter() - started

        reference = min(per_point() for _ in range(3))
        chunked = min(batched() for _ in range(3))
        assert chunked < margin * reference, (cadence, chunked, reference)


class TestNoPrivateDrivingLoops:
    """Acceptance: the per-point maintain-and-query loop lives in runtime/
    only.  No other module may iterate a stream feeding
    FixedWindowHistogramBuilder point by point."""

    MIGRATED = [
        "src/repro/query/engine.py",
        "src/repro/query/continuous.py",
        "src/repro/mining/changepoint.py",
        "src/repro/similarity/subsequence.py",
        "src/repro/bench/experiments.py",
    ]

    def test_no_per_point_builder_loops_outside_runtime(self):
        import pathlib
        import re

        root = pathlib.Path(__file__).resolve().parent.parent
        # A for-loop whose body appends single values to a builder and
        # rebuilds: the pattern the runtime layer replaced.
        loop = re.compile(
            r"for\s+\w+(?:\s*,\s*\w+)*\s+in\s+[^\n]+:\s*\n"
            r"(?:[^\n]*\n)??"
            r"\s+\w*(?:builder|_current|_reference)\w*\.append\(",
        )
        offenders = []
        for relative in self.MIGRATED:
            text = (root / relative).read_text()
            if loop.search(text):
                offenders.append(relative)
        assert offenders == []

    def test_migrated_modules_use_runtime(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
        for relative in self.MIGRATED:
            text = (root / relative).read_text()
            assert "runtime" in text, f"{relative} does not use repro.runtime"
