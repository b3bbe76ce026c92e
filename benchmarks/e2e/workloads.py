"""The four workloads of the end-to-end benchmark.

Every workload makes its inputs from the run seed with
:func:`repro.datasets.att_utilization_stream`, drives the program from a
single producer thread through the public ``StreamService`` /
``ShardRouter`` API, and checks the program's answers before it reports
a number.  All streams use ``maintain_every=64``, block backpressure and
``queue_capacity=8192``; every batch is a multiple of 64 points, so a
view refresh never triggers a rebuild beyond the maintenance cadence.

The closed-loop workloads do a fixed amount of work per seed, sized from
``--seconds`` by a nominal rate, so the same seed repeats the same
rebuilds and summaries exactly.  They send it in short passes, each
ended by a flush, and report the median pass rate.  The open-loop
workload sends on a fixed schedule for ``--seconds``.

A shared host's speed drifts by a fifth or more over minutes, and every
run's throughput and set-up time drift with it.  So ``ingest_pps`` and
``setup_s`` are reported at a fixed reference pace: each pass or build
is scaled by :func:`_pace`, a fixed calibration loop timed just before
it on the tier's CPUs.  The wall-clock values are reported beside them
(``ingest_wall_pps``, ``setup_wall_s``), and so is the pace.

Every workload runs each process of the tier on one CPU
(:func:`_pin_tier`).  All threads of a tier process contend for that
process's GIL, and a GIL handed between CPUs costs throughput and
makes it swing from one second to the next.

A traced run splits the measured phase into alternating untraced and
traced segments -- by time for the closed loops, by batch for the open
loop.  The per-layer wrappers are installed only inside traced segments,
and the ratio of per-point cost between the two kinds is the tracing
overhead.
"""

from __future__ import annotations

import bisect
import ctypes
import json
import math
import os
import re
import shutil
import signal
import statistics
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from ledger import LayerWrappers, Recorder, Samples, installed

from repro.core.optimal import optimal_error
from repro.datasets import att_utilization_stream
from repro.runtime import StreamPipeline, make_maintainer
from repro.service import (
    DEGRADATION_LEVELS,
    QoSConfig,
    QuotaExceededError,
    StreamService,
    TenantQuota,
    view_histogram,
)
from repro.shard import ShardRouter
from repro.shard.framing import HEADER

CHUNK = 512
MAINTAIN_EVERY = 64
QUEUE_CAPACITY = 8192
STREAM_OPTIONS = dict(
    maintain_every=MAINTAIN_EVERY, queue_capacity=QUEUE_CAPACITY, backpressure="block"
)
#: Set-up is bimodal on the sharded tier (fork timing); the median of
#: at least three builds, and of as many as fit in SETUP_SECONDS (up to
#: SETUP_MAX), keeps one run's value on the usual mode.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.5
SETUP_MAX = 25
SEGMENTS = 10
DRAIN_POLL = 0.05
STALL_SECONDS = 10.0
#: A closed loop stops starting passes after this many times --seconds.
OVERRUN = 2.0
#: Size of the calibration loop behind :func:`_pace`, and the reference
#: pace: about the best-of-three seconds the loop takes on the 2-core
#: x86 reference box when no neighbour slows it.
PACE_SPIN = 5_000
PACE_REFERENCE_S = 0.0047

WINDOW_PARAMS = dict(window_size=1024, num_buckets=8, epsilon=0.1)
WINDOW_STREAMS = 2
#: Points/s over both streams the work is sized by; one rebuild of a
#: full 1024-point window costs ~45 ms every 64 points.
WINDOW_PPS = 1_200
#: Rounds per timed pass: one chunk per stream, 8 rebuilds each.
WINDOW_PASS_ROUNDS = 1
#: Points per stream fed to the traced run's single-threaded baseline.
WINDOW_DIRECT_POINTS = 2048

GK_PARAMS = dict(epsilon=0.05)
GK_STREAMS = 16
GK_FILL = 8192
#: Points/s over the 16 streams the work is sized by.
GK_PPS = 500_000
#: Rounds per timed pass of a GK fleet (131,072 points, a tenth to a
#: third of a second), so one run yields dozens of pass rates.
GK_PASS_ROUNDS = 16
REFERENCE_STREAMS = 2

MIXED_RATE = 150_000
MIXED_BATCH = 256
MIXED_STREAMS = 4  # of each backend
EXACT_WINDOW = 4096
CHECKPOINT_EVERY = 16_384
SNAPSHOT_BASE_EVERY = 8
RESTORES = 10
SCAN_EVERY = 0.25

QUANTILES = (0.01,) + tuple(k / 20 for k in range(1, 20)) + (0.99,)
_SNAPSHOT_FILE = re.compile(r"-\d{8}\.(snap|delta)$")


@dataclass
class Run:
    """One benchmark run: its settings, what it measured, what it checked."""

    workload: str
    seed: int
    seconds: float
    scale: float = 1.0
    trace: bool = False
    alter_reference: bool = False
    workdir: Path = Path(".")
    metrics: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    waterfall: dict | None = None
    recorder: Recorder = field(default_factory=Recorder)
    paces: list = field(default_factory=list)  # every _pace the run took

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))


@dataclass
class Segment:
    """One stretch of a traced run's measured phase.

    ``points`` is the work done in it; the other fields split its wall
    time into the producer's calls into the program (``submit``), its
    waits for the program to drain (``wait``, closed loop) or for the
    schedule (``idle``, open loop), and its own bookkeeping (``bench``).
    """

    start: float
    traced: bool
    points: int = 0
    end: float = 0.0
    submit: float = 0.0
    wait: float = 0.0
    idle: float = 0.0
    bench: float = 0.0


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------


def _inputs(seed: int, count: int, length: int) -> list[np.ndarray]:
    return [att_utilization_stream(length, seed=seed * 1000 + i) for i in range(count)]


def _rounds(run: Run, points_per_second_per_stream: float) -> int:
    return max(2, round(run.seconds * run.scale * points_per_second_per_stream / CHUNK))


def _setup(run: Run, build, teardown, cpus: list[int]):
    """Time ``build`` several times; keep the last instance running.

    ``setup_wall_s`` is the median build time; ``setup_s`` the median of
    each build's time over the :func:`_pace` taken just before it.
    """
    times, paces, instance = [], [], None
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_SECONDS and len(times) < SETUP_MAX):
        if instance is not None:
            teardown(instance)
        paces.append(_pace(cpus))
        started = time.perf_counter()
        instance = build()
        times.append(time.perf_counter() - started)
    run.metrics["setup_wall_s"] = statistics.median(times)
    run.metrics["setup_s"] = statistics.median(t / p for t, p in zip(times, paces))
    run.paces.extend(paces)
    return instance


_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
_PR_SET_PDEATHSIG = 1


def _pin_tier(shards: int = 0) -> list[int]:
    """Run this process, and every thread it starts from now on, on the
    first CPU; with ``shards``, run shard k of every build forked
    afterwards on CPU k (modulo the CPU count).  On two CPUs the router
    shares the first with shard 0, which holds 7 of the 16 GK streams,
    and shard 1 has the second to itself.  Returns the CPUs the tier
    runs on.

    A thread inherits its creator's CPU set, so pinning before the tier
    is built pins all of its workers.  A no-op where CPU sets are not
    available.
    """
    if not _CPUS:
        return []

    def pin(index: int) -> None:
        os.sched_setaffinity(0, {_CPUS[index % len(_CPUS)]})

    pin(0)
    if shards:
        forks = [0]

        def count() -> None:
            forks[0] += 1

        def in_shard() -> None:
            pin((forks[0] - 1) % shards)
            _die_with_parent()

        os.register_at_fork(before=count, after_in_child=in_shard)
    return sorted({_CPUS[i % len(_CPUS)] for i in range(max(1, shards))})


def _die_with_parent() -> None:
    """Have the kernel kill this (forked shard) process when the process
    that forked it dies, so a benchmark killed from outside leaves no
    shard behind: they do not exit when the router's socket closes."""
    try:
        prctl = ctypes.CDLL(None).prctl
    except (AttributeError, OSError):
        return  # not Linux: a clean exit still closes every shard
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)


_PACE_FLOATS = np.random.default_rng(0).random(PACE_SPIN).tolist()
_PACE_ARRAY = np.asarray(_PACE_FLOATS[:256])


def _spin() -> float:
    """Time a fixed mix of the kinds of work the tiers do: integer
    arithmetic, small numpy calls, sorting floats, a dict of tuples, and
    bisect insertion into short parallel lists.  It is the benchmark's
    own code, so no change to the program moves it."""
    started = time.perf_counter()
    total = 0
    for i in range(2 * PACE_SPIN):
        total += i * i % 7
    for x in _PACE_FLOATS[: PACE_SPIN // 32]:
        np.minimum(np.cumsum(_PACE_ARRAY), x).sum()
    sorted(_PACE_FLOATS)
    table = {i: (i, x) for i, x in enumerate(_PACE_FLOATS)}
    for key in table:
        total += key
    values: list[float] = []
    counts: list[int] = []
    for x in _PACE_FLOATS:
        at = bisect.bisect_right(values, x)
        values.insert(at, x)
        counts.insert(at, 1)
        if len(values) > 256:
            del values[::2], counts[::2]
    return time.perf_counter() - started


def _pace(cpus: list[int]) -> float:
    """How many times slower than the reference pace the host runs right
    now: the best of three :func:`_spin` on each of ``cpus`` (wherever
    the OS puts it when empty), averaged, over :data:`PACE_REFERENCE_S`.

    Taken while the tier is idle (before a build, after a flush), so the
    tier's own threads do not slow it.  README.md gives the evidence
    that it tracks the tiers' own speed.
    """
    home = os.sched_getaffinity(0) if cpus else None
    spins = []
    try:
        for cpu in cpus or [None]:
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            spins.append(min(_spin() for _ in range(3)))
    finally:
        if home is not None:
            os.sched_setaffinity(0, home)
    return statistics.mean(spins) / PACE_REFERENCE_S


def _plan(units: int, traced: bool) -> list[tuple[int, int, bool]]:
    """Open-loop segment bounds over ``units`` batches; traced runs
    alternate untraced/traced, ending traced so the final flush is too."""
    if not traced:
        return [(0, units, False)]
    count = min(SEGMENTS, units)
    count -= count % 2
    edges = [round(i * units / count) for i in range(count + 1)]
    return [(edges[i], edges[i + 1], i % 2 == 1) for i in range(count)]


def _overhead(segments: list[Segment]) -> float:
    """Median over segment boundaries of the traced neighbour's per-point
    cost (wall less schedule idle) over the untraced neighbour's, minus 1.

    Neighbours share the host's slow speed swings, which a comparison of
    all traced against all untraced segments would not cancel.  0 when
    no pair of neighbours both did work (tiny runs).
    """
    def cost(segment):
        return (segment.end - segment.start - segment.idle) / segment.points

    ratios = []
    for a, b in zip(segments, segments[1:]):
        if a.traced != b.traced and a.points and b.points:
            traced, untraced = (a, b) if a.traced else (b, a)
            ratios.append(cost(traced) / cost(untraced))
    return statistics.median(ratios) - 1.0 if ratios else 0.0


class _Timeline:
    """Time-sliced segments of a traced closed-loop run.

    Segments alternate untraced/traced every ``length`` seconds of the
    producer's wall time; ``applied()`` reads how many points the
    program has applied, so a segment's work is what the program did in
    it, not what the producer queued.  Inside traced segments every
    interval of the producer is accounted (calls, drain waits, and the
    gaps between them as its own time), so the waterfall parts add up to
    the segments' wall time.
    """

    def __init__(self, wrappers, applied, length: float) -> None:
        self.wrappers = wrappers
        self.applied = applied
        self.length = length
        self.segments: list[Segment] = []
        self.segment: Segment | None = None
        self.cursor = 0.0
        self.boundary = 0.0
        self.progress = applied()

    @property
    def traced(self) -> bool:
        return self.segment.traced

    def start(self, now: float, traced: bool = False) -> None:
        if traced:
            self.wrappers.install()
        self.segment = Segment(now, traced)
        self.cursor = now
        self.boundary = now + self.length

    def account(self, kind: str, began: float, ended: float) -> None:
        segment = self.segment
        if segment.traced:
            segment.bench += began - self.cursor
            setattr(segment, kind, getattr(segment, kind) + ended - began)
        self.cursor = ended

    def close(self, now: float) -> None:
        segment = self.segment
        if segment.traced:
            segment.bench += now - self.cursor
            self.wrappers.remove()
        applied = self.applied()
        segment.points, self.progress = applied - self.progress, applied
        segment.end = now
        self.segments.append(segment)

    def tick(self, now: float) -> None:
        if now >= self.boundary:
            traced = not self.segment.traced
            self.close(now)
            self.start(now, traced)


def _passes(start: int, rounds: int, pass_rounds: int) -> list[list[int]]:
    """Chunk start offsets of the ``rounds`` chunks after ``start``, one
    list per pass of ``pass_rounds`` rounds."""
    offsets = [start + r * CHUNK for r in range(rounds)]
    return [offsets[i : i + pass_rounds] for i in range(0, rounds, pass_rounds)]


def _fed(values: np.ndarray, fill: int, offsets: list[int]) -> np.ndarray:
    """Everything one stream receives: its fill, then every chunk sent."""
    return np.concatenate([values[:fill]] + [values[a : a + CHUNK] for a in offsets])


def _feed(front, pairs, offsets: list[int]) -> None:
    ingest = front.ingest
    for a in offsets:
        b = a + CHUNK
        for name, values in pairs:
            ingest(name, values[a:b])


def _closed_loop(run: Run, front, pairs, passes, wrappers, applied, cpus: list[int]) -> dict:
    """Round-robin one CHUNK per stream per round, pass after pass from
    ``passes``, each ended by a flush.  A host too slow to finish within
    ``OVERRUN`` times ``--seconds`` stops early, so a run's length stays
    bounded; only then do its counts differ from another run's.

    The untraced run is the bare loop.  A pass's rate is its points over
    the time from its first ``ingest`` to the return of its flush;
    ``ingest_wall_pps`` is the median pass rate, and ``ingest_pps`` the
    median of each pass's rate times the :func:`_pace` on ``cpus`` taken
    just before it.  A traced run reports the rate over the whole loop
    (scaled by the median set-up pace for ``ingest_pps``); it adds the :class:`_Timeline` and a span around every ``ingest``
    call in traced segments, and waits out the final drain in short
    sleeps so segments keep alternating while the program works through
    its queues.  Returns the offsets sent.
    """
    offsets: list[int] = []
    first = time.perf_counter()
    deadline = first + OVERRUN * run.seconds * run.scale
    if not run.trace:
        rates, paces = [], []
        for part in passes:
            paces.append(_pace(cpus))
            began = time.perf_counter()
            _feed(front, pairs, part)
            sent = time.perf_counter()
            front.flush()
            done = time.perf_counter()
            rates.append(len(part) * CHUNK * len(pairs) / (done - began))
            offsets.extend(part)
            if done >= deadline:
                break
        run.metrics["ingest_wall_pps"] = statistics.median(rates)
        run.metrics["ingest_pps"] = statistics.median(r * p for r, p in zip(rates, paces))
        run.paces.extend(paces)
        return _looped(run, pairs, offsets, first, sent, done)
    recorder = run.recorder
    timeline = _Timeline(wrappers, applied, run.seconds * run.scale / SEGMENTS)
    base = timeline.progress
    # Start traced: when the queues absorb a whole pass (window_rebuild)
    # a short run's ingest calls may all fall in the first segment.
    timeline.start(first, traced=True)
    for index, part in enumerate(passes):
        for a in part:
            r = len(offsets)
            offsets.append(a)
            b = a + CHUNK
            for name, values in pairs:
                batch = values[a:b]
                if timeline.traced:
                    span = recorder.current = recorder.new_id()
                    began = time.perf_counter()
                    front.ingest(name, batch)
                    ended = time.perf_counter()
                    recorder.add("submit", began, ended, span_id=span, stream=name, batch=r)
                    timeline.account("submit", began, ended)
                else:
                    front.ingest(name, batch)
                    ended = time.perf_counter()
                timeline.tick(ended)
        if index + 1 == len(passes) or ended >= deadline:
            break  # the drain below ends the last pass
        began = time.perf_counter()
        front.flush()
        ended = time.perf_counter()
        timeline.account("wait", began, ended)
        timeline.tick(ended)
    recorder.current = None
    target = base + len(offsets) * CHUNK * len(pairs)
    sent = moved = time.perf_counter()
    progress = applied()
    while progress < target:
        began = time.perf_counter()
        time.sleep(max(0.0, min(DRAIN_POLL, timeline.boundary - began)))
        ended = time.perf_counter()
        timeline.account("wait", began, ended)
        timeline.tick(ended)
        now = applied()
        if now != progress:
            progress, moved = now, ended
        elif ended - moved > STALL_SECONDS:
            break  # the flush below raises if a worker died
    began = time.perf_counter()
    front.flush()
    done = time.perf_counter()
    timeline.account("wait", began, done)
    timeline.close(done)
    loop = _looped(run, pairs, offsets, first, sent, done)
    m = run.metrics
    m["ingest_wall_pps"] = loop["points"] / loop["wall"]
    m["ingest_pps"] = m["ingest_wall_pps"] * statistics.median(run.paces)
    m["obs.trace_overhead_frac"] = _overhead(timeline.segments)
    m["service.flush_tail_s"] = loop["flush_tail"]
    _waterfall(run, timeline.segments)
    return loop


def _looped(run: Run, pairs, offsets, first: float, sent: float, done: float) -> dict:
    run.attempted += len(offsets) * len(pairs)
    return {"offsets": offsets, "points": len(offsets) * CHUNK * len(pairs),
            "wall": done - first, "flush_tail": done - sent}


def _quantile(values, q: float) -> float:
    return float(np.quantile(values, q)) if len(values) else 0.0


def _rank_error(front, names, truths) -> float:
    """Largest rank error over ``QUANTILES`` and streams, over n."""
    worst = 0.0
    for name, truth in zip(names, truths):
        ordered = np.sort(truth)
        n = ordered.size
        for q in QUANTILES:
            value = front.quantile(name, q)
            low = int(np.searchsorted(ordered, value, "left")) + 1
            high = int(np.searchsorted(ordered, value, "right"))
            target = max(1, int(round(q * n)))
            error = 0 if low <= target <= high else min(abs(target - low), abs(target - high))
            worst = max(worst, error / n)
    return worst


def _check_counts(run: Run, front, sent: dict) -> None:
    """Submitted == ingested == sent, and nothing dropped or refused."""
    stats = front.stats()
    lost = 0
    for name, count in sent.items():
        row = stats[name]
        dropped = row["dropped_points"] + row["rejected_points"] + row["dead_letter"]["poison_points"]
        lost += dropped
        ok = row["submitted_points"] == row["ingested_points"] == count and dropped == 0
        run.check(
            f"counts:{name}", ok,
            f"sent {count}, submitted {row['submitted_points']}, "
            f"ingested {row['ingested_points']}, lost {dropped}",
        )
    run.failed += lost


def _service_layers(run: Run, before: Samples, after: Samples, wall: float, points: int) -> None:
    """Worker-side numbers from the program's own stage histograms."""
    m = run.metrics
    ingest = after.delta(before, "repro_stage_seconds", "sum", stage="ingest")
    maintain = after.delta(before, "repro_stage_seconds", "sum", stage="maintain")
    materialize = after.delta(before, "repro_stage_seconds", "sum", stage="materialize")
    cycles = after.delta(before, "repro_stage_seconds", "count", stage="materialize")
    drained = after.delta(before, "repro_drained_batches_total")
    m["runtime.ingest_busy_s"] = ingest
    m["runtime.ingest_ns_per_pt"] = ingest * 1e9 / points
    m["service.enqueue_wait_s"] = after.delta(before, "repro_enqueue_wait_seconds_total")
    m["service.queue_depth_max"] = after.maximum("repro_max_queue_depth")
    m["service.drain_cycles"] = cycles
    m["service.batches_per_drain"] = drained / cycles
    m["service.materialize_busy_s"] = materialize
    m["service.materialize_p50_us"] = 1e6 * statistics.median(
        s["quantiles"]["0.5"] for s in after.select("repro_stage_seconds", stage="materialize")
    )
    m["service.worker_busy_frac"] = (ingest + maintain + materialize) / wall
    submits = run.recorder.durations("submit")
    m["service.submit_p50_us"] = 1e6 * _quantile(submits, 0.5)
    m["service.submit_p99_us"] = 1e6 * _quantile(submits, 0.99)


def _collect(front) -> tuple[Samples, float]:
    """A metrics snapshot and the median time one ``metrics()`` call took."""
    took = []
    for _ in range(3):
        started = time.perf_counter()
        samples = front.metrics()
        took.append(time.perf_counter() - started)
    return Samples(samples), statistics.median(took)


def _waterfall(run: Run, segments: list[Segment]) -> None:
    """Split the traced segments' producer wall time into admit / submit
    / benchmark self time / flush tail (drain waits and the final flush).

    Each part is measured on its own, so their sum agreeing with the
    segments' wall time checks that no producer interval was missed or
    counted twice.
    """
    traced = [s for s in segments if s.traced]
    wall = sum(s.end - s.start for s in traced)
    admit = sum(run.recorder.durations("qos.admit"))
    submit = sum(s.submit for s in traced) - admit
    bench = sum(s.bench for s in traced)
    flush = sum(s.wait for s in traced)
    parts = {"qos.admit": admit, "submit": submit, "benchmark": bench, "flush_tail": flush}
    gap = abs(sum(parts.values()) - wall) / wall
    run.waterfall = {"wall_s": wall, "parts_s": parts, "mismatch_frac": gap}
    run.metrics["load.producer_bench_frac"] = bench / wall
    run.check("waterfall_sums_to_wall", gap <= 0.02, f"parts differ from wall by {gap:.2%}")


def _direct_pps(streams, fill: int, batch: int) -> float:
    """Single-threaded ``StreamPipeline`` baseline over ``(backend,
    params, values)`` streams; the warm-up fill is not timed."""
    points, seconds = 0, 0.0
    for backend, params, values in streams:
        pipeline = StreamPipeline([make_maintainer(backend, **params)], maintain_every=MAINTAIN_EVERY)
        pipeline.extend(values[:fill])
        started = time.perf_counter()
        for a in range(fill, values.size, batch):
            pipeline.extend(values[a : a + batch])
        seconds += time.perf_counter() - started
        points += values.size - fill
    return points / seconds


# ----------------------------------------------------------------------
# window_rebuild: the paper's fixed-window histogram
# ----------------------------------------------------------------------


def run_window_rebuild(run: Run) -> None:
    names = [f"w{i}" for i in range(WINDOW_STREAMS)]
    fill = WINDOW_PARAMS["window_size"]
    rounds = _rounds(run, WINDOW_PPS / WINDOW_STREAMS)
    inputs = _inputs(run.seed, WINDOW_STREAMS, fill + rounds * CHUNK)
    cpus = _pin_tier()

    def build():
        service = StreamService()
        workers = {
            name: service.create_stream(name, "fixed_window", WINDOW_PARAMS, **STREAM_OPTIONS)
            for name in names
        }
        for name, values in zip(names, inputs):
            service.ingest(name, values[:fill])
        service.flush()
        return service, workers

    service, workers = _setup(run, build, lambda pair: pair[0].close(), cpus)
    try:
        wrappers = LayerWrappers(
            run.recorder, {name: worker.maintainer for name, worker in workers.items()}
        )
        if run.trace:
            before, _ = _collect(service)
            counters_before = {n: service.stats(n)["maintainer"] for n in names}
        loop = _closed_loop(run, service, list(zip(names, inputs)),
                            _passes(fill, rounds, WINDOW_PASS_ROUNDS), wrappers,
                            lambda: sum(worker.arrivals for worker in workers.values()), cpus)
        sent = loop["offsets"]
        _check_counts(run, service, {name: fill + len(sent) * CHUNK for name in names})
        ratios = []
        epsilon = WINDOW_PARAMS["epsilon"]
        for name, values in zip(names, inputs):
            window = _fed(values, fill, sent)[-fill:]
            sse = service.synopsis(name).sse(window)
            optimum = optimal_error(window, WINDOW_PARAMS["num_buckets"])
            ratio = sse / optimum if optimum else (1.0 if sse == 0 else math.inf)
            ratios.append(ratio)
            run.check(f"sse_bound:{name}", ratio <= 1.0 + epsilon + 1e-9,
                      f"sse/opt {ratio:.6f} vs 1+eps {1 + epsilon}")
        run.metrics["sse_over_opt"] = max(ratios)
        if run.trace:
            after, collect_s = _collect(service)
            run.metrics["obs.metrics_collect_ms"] = 1e3 * collect_s
            _service_layers(run, before, after, loop["wall"], loop["points"])
            _core_layers(run, service, names, counters_before, before, after, loop["wall"])
            direct = inputs[0][: fill + min(rounds * CHUNK, WINDOW_DIRECT_POINTS)]
            run.metrics["runtime.direct_pps"] = _direct_pps(
                [("fixed_window", WINDOW_PARAMS, direct)], fill, CHUNK
            )
    finally:
        service.close()


def _core_layers(run, service, names, counters_before, before, after, wall) -> None:
    totals = {key: 0 for key in ("points", "maintains", "rebuilds", "herror_evaluations", "search_probes")}
    for name in names:
        now = service.stats(name)["maintainer"]
        for key in totals:
            totals[key] += now[key] - counters_before[name][key]
    rebuilds = totals["rebuilds"]
    m = run.metrics
    m["core.rebuilds_per_kpt"] = 1e3 * rebuilds / totals["points"]
    m["core.herror_evals_per_rebuild"] = totals["herror_evaluations"] / rebuilds
    m["core.search_probes_per_rebuild"] = totals["search_probes"] / rebuilds
    m["core.extra_rebuilds"] = rebuilds - totals["maintains"]
    m["core.busy_frac"] = after.delta(before, "repro_stage_seconds", "sum", stage="maintain") / wall
    spans = run.recorder.durations("core.rebuild")
    m["core.rebuild_p50_ms"] = 1e3 * _quantile(spans, 0.5)
    m["core.rebuild_p95_ms"] = 1e3 * _quantile(spans, 0.95)


# ----------------------------------------------------------------------
# gk_fleet_threaded / gk_fleet_sharded: the service path
# ----------------------------------------------------------------------


def run_gk_fleet(run: Run, sharded: bool) -> None:
    # The stream names of the committed BENCH_service.json fleet rows; on
    # a 2-shard ring they split 7/9.
    names = [f"s{i}" for i in range(GK_STREAMS)]
    rounds = _rounds(run, GK_PPS / GK_STREAMS)
    inputs = _inputs(run.seed, GK_STREAMS, GK_FILL + rounds * CHUNK)
    pairs = list(zip(names, inputs))
    cpus = _pin_tier(shards=2 if sharded else 0)

    def build():
        front = ShardRouter(num_shards=2) if sharded else StreamService()
        workers = [front.create_stream(name, "gk_quantiles", GK_PARAMS, **STREAM_OPTIONS)
                   for name in names]
        _feed(front, pairs, range(0, GK_FILL, CHUNK))
        front.flush()
        return front, workers

    front, workers = _setup(run, build, lambda pair: pair[0].close(), cpus)
    try:
        if sharded:  # workers live in the shard processes; ask across the boundary
            def applied():
                return sum(row["arrivals"] for row in front.stats().values())
        else:
            def applied():
                return sum(worker.arrivals for worker in workers)
        if run.trace:
            before, _ = _collect(front)
        loop = _closed_loop(run, front, pairs, _passes(GK_FILL, rounds, GK_PASS_ROUNDS),
                            LayerWrappers(run.recorder, {}), applied, cpus)
        offsets = loop["offsets"]
        length = GK_FILL + len(offsets) * CHUNK
        _check_counts(run, front, {name: length for name in names})
        rendered = {name: front.histogram(name) for name in names}
        chosen = np.random.default_rng(run.seed).choice(GK_STREAMS, REFERENCE_STREAMS, replace=False)
        direct_points, direct_seconds = 0, 0.0
        for position, index in enumerate(sorted(int(i) for i in chosen)):
            name, values = names[index], _fed(inputs[index], GK_FILL, offsets)
            if run.alter_reference and position == 0:
                # A new maximum: GK always keeps the maximum as a tuple.
                values[length // 2] = values.max() + 1.0
            pipeline = StreamPipeline([make_maintainer("gk_quantiles", **GK_PARAMS)],
                                      maintain_every=MAINTAIN_EVERY)
            started = time.perf_counter()
            for a in range(0, length, CHUNK):
                pipeline.extend(values[a : a + CHUNK])
            direct_seconds += time.perf_counter() - started
            direct_points += length
            expected = json.loads(json.dumps(view_histogram(pipeline.maintainers[0].synopsis())))
            actual = json.loads(json.dumps(rendered[name]))
            run.check(f"reference:{name}", actual == expected,
                      "served summary equals the single-threaded pipeline's")
        run.metrics["rank_error_frac"] = _rank_error(
            front, names, (_fed(values, GK_FILL, offsets) for values in inputs)
        )
        run.attempted += len(names) * len(QUANTILES)
        if run.trace:
            after, collect_s = _collect(front)
            m = run.metrics
            m["obs.metrics_collect_ms"] = 1e3 * collect_s
            m["runtime.direct_pps"] = direct_points / direct_seconds
            m["sketches.gk_cells_max"] = max(len(r["tuples"]) for r in rendered.values())
            _service_layers(run, before, after, loop["wall"], loop["points"])
            if sharded:
                _shard_layers(run, front, names, before, after, loop, length)
    finally:
        front.close()


def _shard_layers(run, router, names, before, after, loop, length) -> None:
    m = run.metrics
    frames = after.delta(before, "repro_router_send_seconds", "count")
    measured_calls = loop["points"] // CHUNK
    run.check("frames_per_ingest", frames == measured_calls,
              f"{frames:.0f} frames for {measured_calls} ingest calls")
    send = after.select("repro_router_send_seconds")[0]["quantiles"]
    m["shard.route_p50_us"] = m["service.submit_p50_us"]
    m["shard.route_p99_us"] = m["service.submit_p99_us"]
    m["shard.send_p50_us"] = 1e6 * send["0.5"]
    m["shard.send_p99_us"] = 1e6 * send["0.99"]
    m["shard.frames"] = frames
    frame_bytes = HEADER.size + statistics.mean(len(n.encode()) for n in names) + 8 * CHUNK
    m["shard.frame_bytes_per_pt"] = frame_bytes / CHUNK
    per_shard = {}
    for name, shard in router.placement().items():
        per_shard[shard] = per_shard.get(shard, 0) + length
    loads = [per_shard.get(shard, 0) for shard in range(router.num_shards)]
    m["shard.partition_skew"] = max(loads) / statistics.mean(loads)
    m["shard.flush_tail_s"] = loop["flush_tail"]
    m["shard.apply_ingest_busy_s"] = m["runtime.ingest_busy_s"]
    m["shard.apply_materialize_busy_s"] = m["service.materialize_busy_s"]


# ----------------------------------------------------------------------
# mixed_durable: open loop, queries, snapshots, QoS
# ----------------------------------------------------------------------


def run_mixed_durable(run: Run) -> None:
    exact = [f"e{i}" for i in range(MIXED_STREAMS)]
    quantile = [f"q{i}" for i in range(MIXED_STREAMS)]
    names = exact + quantile
    order = [name for pair in zip(exact, quantile) for name in pair]
    # At least three checkpoints per stream, so even a scaled-down run
    # exercises the snapshot path.
    least = 3 * CHECKPOINT_EVERY * len(names) // MIXED_BATCH
    batches = max(least, round(run.seconds * run.scale * MIXED_RATE / MIXED_BATCH))
    batches -= batches % len(names)
    fill = EXACT_WINDOW
    length = fill + batches // len(names) * MIXED_BATCH
    inputs = dict(zip(names, _inputs(run.seed, len(names), length)))
    rng = np.random.default_rng(run.seed)
    starts = rng.integers(0, EXACT_WINDOW, size=batches)
    ends = np.minimum(EXACT_WINDOW - 1, starts + rng.integers(0, EXACT_WINDOW, size=batches))
    fractions = rng.random(batches)
    qos = QoSConfig(default_quota=TenantQuota(rate=4.0 * MIXED_RATE, burst=MIXED_RATE))

    def build():
        directory = Path(tempfile.mkdtemp(prefix="snapshots-", dir=run.workdir))
        service = StreamService(directory, snapshot_base_every=SNAPSHOT_BASE_EVERY, qos=qos)
        for name in names:
            backend, params = (("exact", {"window_size": EXACT_WINDOW}) if name in exact
                               else ("gk_quantiles", GK_PARAMS))
            service.create_stream(name, backend, params, checkpoint_every=CHECKPOINT_EVERY,
                                  **STREAM_OPTIONS)
        for name in names:
            service.ingest(name, inputs[name][:fill])
        service.flush()
        return service, directory

    def teardown(pair):
        pair[0].close(checkpoint=False)
        shutil.rmtree(pair[1])

    service, directory = _setup(run, build, teardown, _pin_tier())
    closed = False
    try:
        if run.trace:
            before, _ = _collect(service)
        state = _open_loop(run, service, directory, order, set(exact), inputs, fill, batches,
                           starts, ends, fractions)
        sent = state["sent"]
        _check_counts(run, service, sent)
        _check_range_sums(run, state["range_sums"], inputs)
        run.metrics["rank_error_frac"] = _rank_error(
            service, quantile, [inputs[n][: sent[n]] for n in quantile]
        )
        writes = Samples(service.metrics()).total("repro_snapshot_writes_total")
        files = state["files"]
        run.check("snapshot_files_seen", len(files) == writes,
                  f"{len(files)} distinct files seen, {writes:.0f} writes counted")
        run.metrics["checkpoint_bytes_per_kpt"] = sum(files.values()) / (state["points"] / 1e3)
        snapshot = service.qos()
        shed, throttled = snapshot["shed_points"], snapshot["throttled_points"]
        level = _ladder_max_level(Samples(service.metrics()))
        run.failed += shed + throttled
        run.check("qos_quiet", shed == 0 and throttled == 0 and level == 0,
                  f"shed {shed}, throttled {throttled}, ladder max level {level}")
        errors = sum(service.health(name)["checkpoint_errors"] for name in names)
        run.failed += errors
        run.check("no_checkpoint_errors", errors == 0, f"{errors} automatic checkpoints failed")
        if run.trace:
            after, collect_s = _collect(service)
            _mixed_layers(run, service, names, quantile, before, after, state, shed, level)
            run.metrics["obs.metrics_collect_ms"] = 1e3 * collect_s
            run.metrics["runtime.direct_pps"] = _direct_pps(
                [("exact", {"window_size": EXACT_WINDOW}, inputs[exact[0]]),
                 ("gk_quantiles", GK_PARAMS, inputs[quantile[0]])],
                fill, MIXED_BATCH,
            )
        views = {name: service.histogram(name) for name in names}
        service.close()
        closed = True
        _restores(run, directory, names, views)
    finally:
        if not closed:
            service.close(checkpoint=False)


def _open_loop(run, service, directory, order, exact, inputs, fill, batches,
               starts, ends, fractions) -> dict:
    """Send one batch per schedule slot; query and poll views after each.

    The query after a batch is a ``range_sum`` on streams in ``exact``
    and a ``quantile`` on the others.
    """
    interval = MIXED_BATCH / MIXED_RATE
    names = sorted(inputs)
    sent = {name: fill for name in names}
    pending = {name: deque() for name in names}
    arrivals = {name: fill for name in names}
    visible, queries, lateness, range_sums = [], [], [], []
    files: dict[str, int] = {}
    throttled = 0
    recorder = run.recorder
    wrappers = LayerWrappers(recorder, {})
    segments = []
    perf_base, wall_base = time.perf_counter(), time.time()
    first = perf_base + 0.01
    next_scan = first
    for lo, hi, traced in _plan(batches, run.trace):
        with installed(wrappers, traced):
            segment = Segment(time.perf_counter(), traced, (hi - lo) * MIXED_BATCH)
            for k in range(lo, hi):
                name = order[k % len(order)]
                due = first + k * interval
                now = time.perf_counter()
                if now < due:
                    time.sleep(due - now)
                    segment.idle += time.perf_counter() - now
                began = time.perf_counter()
                lateness.append(began - due)
                a = sent[name]
                span = recorder.new_id() if traced else None
                recorder.current = span
                run.attempted += 1
                try:
                    service.ingest(name, inputs[name][a : a + MIXED_BATCH])
                except QuotaExceededError:
                    throttled += 1
                    run.failed += 1
                    continue
                finally:
                    ingested = time.perf_counter()
                    if traced:
                        recorder.add("submit", began, ingested, span_id=span, stream=name, batch=k)
                sent[name] = a + MIXED_BATCH
                pending[name].append((sent[name], wall_base + (due - perf_base)))
                for stream, queue in pending.items():
                    if queue:
                        view = service.view(stream)
                        arrivals[stream] = view.arrivals
                        while queue and queue[0][0] <= view.arrivals:
                            visible.append(view.created_at - queue.popleft()[1])
                asked = time.perf_counter()
                run.attempted += 1
                if name in exact:
                    answer = service.range_sum(name, int(starts[k]), int(ends[k]))
                    answered = time.perf_counter()
                    range_sums.append((name, arrivals[name], service.view(name).arrivals,
                                       int(starts[k]), int(ends[k]), answer))
                else:
                    service.quantile(name, float(fractions[k]))
                    answered = time.perf_counter()
                queries.append(answered - asked)
                segment.submit += (ingested - began) + (answered - asked)
                if answered >= next_scan:
                    _scan(directory, files)
                    next_scan = answered + SCAN_EVERY
            recorder.current = None
            segment.end = time.perf_counter()
            # View polls and snapshot scans are the benchmark's own work.
            segment.bench = segment.end - segment.start - segment.idle - segment.submit
            segments.append(segment)
            if hi == batches:
                service.flush()
                done = time.perf_counter()
    for stream, queue in pending.items():
        view = service.view(stream)
        while queue and queue[0][0] <= view.arrivals:
            visible.append(view.created_at - queue.popleft()[1])
        run.check(f"all_visible:{stream}", not queue, f"{len(queue)} batches never seen")
    _scan(directory, files)
    points = sum(sent.values()) - fill * len(names)
    m = run.metrics
    # Schedule-bound, not CPU-bound: the achieved rate is not rescaled.
    m["ingest_pps"] = m["ingest_wall_pps"] = points / (done - first)
    m["visible_p50_ms"] = 1e3 * _quantile(visible, 0.5)
    m["visible_p90_ms"] = 1e3 * _quantile(visible, 0.9)
    m["visible_p99_ms"] = 1e3 * _quantile(visible, 0.99)
    m["query_p50_us"] = 1e6 * _quantile(queries, 0.5)
    m["query_p90_us"] = 1e6 * _quantile(queries, 0.9)
    if run.trace:
        m["load.lateness_p90_ms"] = 1e3 * _quantile(lateness, 0.9)
        m["load.lateness_max_ms"] = 1e3 * max(lateness)
        m["service.flush_tail_s"] = done - segments[-1].end
        m["obs.trace_overhead_frac"] = _overhead(segments)
        traced = [s for s in segments if s.traced]
        m["load.producer_bench_frac"] = sum(s.bench for s in traced) / sum(s.end - s.start for s in traced)
    return {"sent": sent, "points": points, "wall": done - first, "files": files,
            "range_sums": range_sums, "throttled": throttled}


def _scan(directory: Path, files: dict) -> None:
    """Record every published snapshot file (atomic rename: always whole)."""
    with os.scandir(directory) as entries:
        for entry in entries:
            if entry.name not in files and _SNAPSHOT_FILE.search(entry.name):
                try:
                    files[entry.name] = entry.stat().st_size
                except FileNotFoundError:
                    pass  # pruned before it was seen: the file-count check reports it


def _check_range_sums(run: Run, records, inputs) -> None:
    """Each answer equals the numpy sum over the window of some view the
    query could have read (arrivals between the polls around it)."""
    wrong = 0
    sums = {name: np.concatenate(([0.0], np.cumsum(values))) for name, values in inputs.items()}
    for name, low, high, start, end, answer in records:
        cumulative = sums[name]
        candidates = {
            float(cumulative[a - EXACT_WINDOW + end + 1] - cumulative[a - EXACT_WINDOW + start])
            for a in range(low, high + 1, MIXED_BATCH)
        }
        if answer not in candidates:
            wrong += 1
    run.failed += wrong
    run.check("range_sums_exact", wrong == 0, f"{wrong} of {len(records)} range_sum answers wrong")


def _ladder_max_level(samples: Samples) -> int:
    samples.total("repro_qos_degradation_level")  # the layer must export its state
    reached = [
        DEGRADATION_LEVELS.index(s["labels"]["level"])
        for s in samples.select("repro_qos_transitions_total") if s["value"] > 0
    ]
    return max(reached, default=0)


def _mixed_layers(run, service, names, quantile, before, after, state, shed, level) -> None:
    m = run.metrics
    files = state["files"]
    _service_layers(run, before, after, state["wall"], state["points"])
    checkpoint = []
    for name in names:
        checkpoint.extend(
            service.registry.histogram("repro_stage_seconds", stage="checkpoint", stream=name).snapshot()
        )
    full = [size for file, size in files.items() if file.endswith(".snap")]
    delta = [size for file, size in files.items() if file.endswith(".delta")]
    m["snapshot.checkpoints"] = after.delta(before, "repro_stage_seconds", "count", stage="checkpoint")
    m["snapshot.full_writes"] = len(full)
    m["snapshot.delta_writes"] = len(delta)
    m["snapshot.checkpoint_p50_ms"] = 1e3 * _quantile(checkpoint, 0.5)
    m["snapshot.checkpoint_p90_ms"] = 1e3 * _quantile(checkpoint, 0.9)
    m["snapshot.full_bytes_mean"] = statistics.mean(full) if full else 0.0
    m["snapshot.delta_bytes_mean"] = statistics.mean(delta) if delta else 0.0
    admits = run.recorder.durations("qos.admit")
    m["qos.admit_p50_us"] = 1e6 * _quantile(admits, 0.5)
    m["qos.admit_busy_s"] = sum(admits)
    m["qos.shed_points"] = shed
    m["qos.throttled_batches"] = state["throttled"]
    m["qos.ladder_max_level"] = level
    m["sketches.gk_cells_max"] = max(
        len(service.histogram(name)["tuples"]) for name in quantile
    )


def _restores(run: Run, directory: Path, names, views: dict) -> None:
    """Restore the closed service repeatedly; each must equal the views."""
    took = []
    for attempt in range(max(2, round(RESTORES * min(1.0, run.scale)))):
        started = time.perf_counter()
        restored = StreamService.restore(directory, snapshot_base_every=SNAPSHOT_BASE_EVERY)
        try:
            restored.flush()
            took.append(time.perf_counter() - started)
            same = all(restored.histogram(name) == views[name] for name in names)
        finally:
            restored.close(checkpoint=False)
        run.attempted += 1
        run.check(f"restore_equal:{attempt}", same, "restored views equal the pre-close views")
    run.metrics["restore_s"] = statistics.median(took)


RUNNERS = {
    "window_rebuild": run_window_rebuild,
    "gk_fleet_threaded": lambda run: run_gk_fleet(run, sharded=False),
    "gk_fleet_sharded": lambda run: run_gk_fleet(run, sharded=True),
    "mixed_durable": run_mixed_durable,
}
