"""Service ingestion throughput and enqueue latency under concurrency.

Measures the serving layer (:mod:`repro.service`) end to end: one
producer thread per hosted stream pushes chunked points through the
bounded queues while the per-stream workers drain them, for fleets of
1 / 4 / 16 concurrent streams.  Reported per fleet size:

* aggregate ingest throughput (points/second, submit-to-drained);
* p50 / p99 enqueue latency (time a producer spent inside ``submit``);
* per-stage wall time (ingest / maintain / materialize) folded from the
  service's always-on ``repro_stage_seconds`` histograms -- which also
  makes this benchmark the regression guard for the observability
  layer's hot-path overhead;
* recovery time: a supervised stream is crashed mid-ingest with a seeded
  :class:`FaultInjector` and the crash-observed-to-healthy wall time is
  measured over several trials (the fault-tolerance subsystem's latency
  budget: backoff + snapshot load + replay);
* sharded scaling: the same 16-stream fleet pushed through a
  :class:`~repro.shard.ShardRouter` at each shard count in
  ``SHARD_COUNTS``, so the process tier's IPC overhead and scaling curve
  are recorded next to the threaded numbers they must beat;
* checkpoint cost: a 16-stream fleet of state-heavy sliding-window
  buffers is checkpointed in the shapes the service chooses by size
  (a full, then deltas while they weigh less than it) and against the
  format-2 JSON layout the store used to write, recording bytes per
  checkpoint (full, delta, amortized over a full-to-full cycle), checkpoint
  p50/p99 latency for both layouts, and cold-restore latency.

Standalone:  ``PYTHONPATH=src python benchmarks/bench_service_throughput.py``
writes ``BENCH_service.json`` in the current directory.

Regression gate:  ``... bench_service_throughput.py --check`` re-runs the
gated fleets (threaded 1 / 16 streams, sharded 16 streams at the largest
shard count) and exits non-zero when any is more than
``REGRESSION_TOLERANCE`` slower than the committed ``BENCH_service.json``.
It also re-runs the checkpoint suite and fails when the amortized binary
checkpoint stops being ``CHECKPOINT_BYTES_GATE`` times smaller than the
JSON equivalent, when its p99 stops beating JSON's, or when the
amortized bytes regress against the committed baseline.  CI runs this as
a non-blocking step and uploads both JSON files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.datasets import att_utilization_stream
from repro.service import FaultInjector, RestartPolicy, StreamService
from repro.shard import ShardRouter

STREAM_COUNTS = (1, 4, 16)
POINTS_PER_STREAM = 40_000
CHUNK = 512
BACKEND = "gk_quantiles"
PARAMS = {"epsilon": 0.05}
MAINTAIN_EVERY = 64
QUEUE_CAPACITY = 8_192

#: Shard counts swept for the 16-stream sharded scaling rows.
SHARD_COUNTS = (1, 2, 4)
SHARDED_STREAMS = 16

#: ``--check`` fails on a throughput drop beyond this fraction.
REGRESSION_TOLERANCE = 0.15

#: Checkpoint-cost suite: a fleet of sliding-window buffers (the most
#: state-heavy backend, i.e. the workload delta checkpoints target).
CHECKPOINT_STREAMS = 16
CHECKPOINT_BACKEND = "exact"
CHECKPOINT_PARAMS = {"window_size": 4096}
#: Barriers per full-to-full cycle the shape rule settles into here: a
#: 33.8 KB full outweighs seven 4.6 KB deltas but not eight.
CHECKPOINT_CYCLE = 8
CHECKPOINT_INTERVAL = 512  # points per stream between barriers
CHECKPOINT_CYCLES = 2  # full-to-full cycles driven
CHECKPOINT_JSON_TRIALS = 6  # timed format-2 JSON checkpoint passes

#: ``--check`` fails when amortized binary checkpoint bytes are not at
#: least this many times smaller than the JSON-equivalent checkpoint.
CHECKPOINT_BYTES_GATE = 5.0

#: The committed baseline the regression gate compares against.
DEFAULT_BASELINE = Path(__file__).resolve().parents[1] / "BENCH_service.json"


def synopsis_cells(synopsis) -> int | None:
    """Stored cells of a served synopsis -- the space half of the
    space/throughput trade-off, recorded next to points/s.

    GK summaries report their tuple count, histograms their buckets,
    the counting backends their bucket/table cells; synopses without a
    recognizable footprint report ``None`` rather than a guess.
    """
    for attribute in ("bucket_cells", "table_cells"):
        probe = getattr(synopsis, attribute, None)
        if callable(probe):
            return int(probe())
    size = getattr(synopsis, "summary_size", None)
    if size is not None:
        return int(size)
    try:
        return len(synopsis)
    except TypeError:
        return None


def run_fleet(num_streams: int) -> dict:
    """Ingest POINTS_PER_STREAM into each of ``num_streams`` streams."""
    stream = att_utilization_stream(POINTS_PER_STREAM, seed=7)
    with StreamService() as service:
        names = [f"s{i}" for i in range(num_streams)]
        for name in names:
            service.create_stream(
                name,
                backend=BACKEND,
                params=PARAMS,
                maintain_every=MAINTAIN_EVERY,
                queue_capacity=QUEUE_CAPACITY,
            )

        def produce(name: str) -> None:
            for start in range(0, POINTS_PER_STREAM, CHUNK):
                service.ingest(name, stream[start : start + CHUNK])

        producers = [
            threading.Thread(target=produce, args=(name,)) for name in names
        ]
        started = time.perf_counter()
        for producer in producers:
            producer.start()
        for producer in producers:
            producer.join()
        service.flush()
        elapsed = time.perf_counter() - started

        stats = [service.stats(name) for name in names]
        total_points = sum(s["ingested_points"] for s in stats)
        assert total_points == num_streams * POINTS_PER_STREAM
        footprints = [synopsis_cells(service.synopsis(name)) for name in names]
        footprints = [cells for cells in footprints if cells is not None]
        return {
            "streams": num_streams,
            "points_per_stream": POINTS_PER_STREAM,
            "total_points": total_points,
            "seconds": elapsed,
            "points_per_second": total_points / elapsed,
            "enqueue_p50_seconds": max(s["enqueue_p50_seconds"] for s in stats),
            "enqueue_p99_seconds": max(s["enqueue_p99_seconds"] for s in stats),
            "max_queue_depth": max(s["max_queue_depth"] for s in stats),
            "synopsis_cells_max": max(footprints, default=None),
            "stage_seconds": stage_summary(service),
        }


def run_sharded_fleet(num_streams: int, num_shards: int) -> dict:
    """The ``run_fleet`` workload through a ShardRouter process fleet.

    Identical stream specs, chunking and producer-thread pattern; the
    only variable is the tier, so the row is directly comparable to the
    threaded result at the same stream count.  Enqueue percentiles are
    the shard-internal worker numbers (time inside ``submit`` after the
    frame crossed the socket), the same quantity the threaded rows
    report.
    """
    stream = att_utilization_stream(POINTS_PER_STREAM, seed=7)
    with ShardRouter(num_shards=num_shards) as service:
        names = [f"s{i}" for i in range(num_streams)]
        for name in names:
            service.create_stream(
                name,
                backend=BACKEND,
                params=PARAMS,
                maintain_every=MAINTAIN_EVERY,
                queue_capacity=QUEUE_CAPACITY,
            )

        def produce(name: str) -> None:
            for start in range(0, POINTS_PER_STREAM, CHUNK):
                service.ingest(name, stream[start : start + CHUNK])

        producers = [
            threading.Thread(target=produce, args=(name,)) for name in names
        ]
        started = time.perf_counter()
        for producer in producers:
            producer.start()
        for producer in producers:
            producer.join()
        service.flush()
        elapsed = time.perf_counter() - started

        stats = [service.stats(name) for name in names]
        total_points = sum(s["ingested_points"] for s in stats)
        assert total_points == num_streams * POINTS_PER_STREAM
        return {
            "streams": num_streams,
            "shards": num_shards,
            "points_per_stream": POINTS_PER_STREAM,
            "total_points": total_points,
            "seconds": elapsed,
            "points_per_second": total_points / elapsed,
            "enqueue_p50_seconds": max(s["enqueue_p50_seconds"] for s in stats),
            "enqueue_p99_seconds": max(s["enqueue_p99_seconds"] for s in stats),
            "max_queue_depth": max(s["max_queue_depth"] for s in stats),
            "stage_seconds": stage_summary(service),
        }


def run_sharded_suite() -> dict:
    """16-stream sharded scaling rows, one per shard count."""
    rows = []
    for num_shards in SHARD_COUNTS:
        row = run_sharded_fleet(SHARDED_STREAMS, num_shards)
        rows.append(row)
        print(
            f"{row['streams']:>3} streams / {row['shards']} shard(s): "
            f"{row['points_per_second']:>12,.0f} points/s, "
            f"p99 enqueue {row['enqueue_p99_seconds'] * 1e6:8.1f} us"
        )
    return {
        "streams": SHARDED_STREAMS,
        "shard_counts": list(SHARD_COUNTS),
        "results": rows,
    }


def stage_summary(service) -> dict:
    """Per-stage latency totals aggregated over the fleet's streams.

    The always-on tracer already recorded every ingest / maintain /
    materialize duration into ``repro_stage_seconds``; this just folds
    the per-stream histograms into one count/sum plus the worst
    per-stream p50/p99 (a fleet is only as fast as its slowest stream).
    """
    summary: dict[str, dict] = {}
    for sample in service.metrics():
        if sample["name"] != "repro_stage_seconds":
            continue
        stage = sample["labels"]["stage"]
        entry = summary.setdefault(
            stage,
            {"count": 0, "sum_seconds": 0.0, "p50_seconds": 0.0,
             "p99_seconds": 0.0},
        )
        entry["count"] += sample["count"]
        entry["sum_seconds"] += sample["sum"]
        entry["p50_seconds"] = max(
            entry["p50_seconds"], sample["quantiles"]["0.5"]
        )
        entry["p99_seconds"] = max(
            entry["p99_seconds"], sample["quantiles"]["0.99"]
        )
    return summary


def _percentiles(samples: list[float]) -> tuple[float, float]:
    ordered = sorted(samples)
    p50 = ordered[len(ordered) // 2]
    p99 = ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))]
    return p50, p99


def _write_format2_json(directory: Path, name: str, seq: int, payload: dict) -> Path:
    """One format-2 JSON snapshot, laid out as the store used to write it.

    The body carries format/stream/seq/created_at and a sha256 over its
    canonical compact JSON; the file is indented, key-sorted, written to
    a temp file, fsynced and renamed into place, and the directory is
    fsynced.  The store only reads this layout now; the checkpoint
    suite keeps it as the JSON baseline.
    """
    body = {
        "format": 2,
        "stream": name,
        "seq": seq,
        "created_at": time.time(),
        **payload,
    }
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    body["checksum"] = "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()
    path = directory / f"{name}-{seq:08d}.json"
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write((json.dumps(body, indent=2, sort_keys=True) + "\n").encode())
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    if seq > 1:
        (directory / f"{name}-{seq - 1:08d}.json").unlink()
    return path


def run_checkpoint() -> dict:
    """Checkpoint bytes and latency: binary fulls and deltas vs JSON.

    A 16-stream fleet of ``CHECKPOINT_BACKEND`` streams is filled, then
    driven through ``CHECKPOINT_CYCLES`` full-to-full cycles of checkpoint
    barriers with ``CHECKPOINT_INTERVAL`` points per stream between
    them; every barrier's wall time and on-disk bytes are recorded.
    The JSON columns write the format-2 file the store used to persist
    (full ``state_dict`` + listified tail, one file per stream, see
    :func:`_write_format2_json`) into a temporary directory, so both
    layouts are measured on identical state in the same process.
    """
    stream = att_utilization_stream(
        CHECKPOINT_PARAMS["window_size"]
        + CHECKPOINT_INTERVAL * CHECKPOINT_CYCLE * CHECKPOINT_CYCLES,
        seed=7,
    )
    fill = CHECKPOINT_PARAMS["window_size"]
    names = [f"c{i}" for i in range(CHECKPOINT_STREAMS)]
    with tempfile.TemporaryDirectory() as snapshot_dir:
        service = StreamService(snapshot_dir)
        try:
            for name in names:
                service.create_stream(
                    name,
                    backend=CHECKPOINT_BACKEND,
                    params=CHECKPOINT_PARAMS,
                    maintain_every=MAINTAIN_EVERY,
                    queue_capacity=QUEUE_CAPACITY,
                )
                service.ingest(name, stream[:fill])
            service.flush()

            # -- format-2 JSON baseline: what the store used to write.
            json_seconds = []
            json_bytes = 0
            with tempfile.TemporaryDirectory() as json_dir:
                for trial in range(CHECKPOINT_JSON_TRIALS):
                    started = time.perf_counter()
                    paths = []
                    for name in names:
                        capture = service._workers[name].checkpoint_capture()
                        paths.append(
                            _write_format2_json(
                                Path(json_dir),
                                name,
                                trial + 1,
                                {
                                    "spec": service._specs[name].to_dict(),
                                    "arrivals": capture["arrivals"],
                                    "state": capture["state"],
                                    "tail": [b.tolist() for b in capture["tail"]],
                                },
                            )
                        )
                    json_seconds.append(time.perf_counter() - started)
                    json_bytes = sum(p.stat().st_size for p in paths)

            # -- binary fulls and deltas: drive whole cycles.
            barrier_seconds = []
            barrier_bytes = []
            full_bytes, delta_bytes = [], []
            fulls_per_barrier = []
            position = fill
            for _ in range(CHECKPOINT_CYCLE * CHECKPOINT_CYCLES):
                for name in names:
                    service.ingest(
                        name, stream[position : position + CHECKPOINT_INTERVAL]
                    )
                service.flush()
                position += CHECKPOINT_INTERVAL
                started = time.perf_counter()
                paths = service.checkpoint()
                barrier_seconds.append(time.perf_counter() - started)
                sizes = [Path(p).stat().st_size for p in paths]
                barrier_bytes.append(sum(sizes))
                for path, size in zip(paths, sizes):
                    (delta_bytes if path.endswith(".delta") else
                     full_bytes).append(size)
                fulls_per_barrier.append(
                    sum(not path.endswith(".delta") for path in paths)
                )
        finally:
            service.close(checkpoint=False)

        # The cycle the amortization assumes: per CHECKPOINT_CYCLE
        # barriers, one where every stream writes a full.
        cycle = fulls_per_barrier[-CHECKPOINT_CYCLE:]
        assert sorted(cycle) == [0] * (CHECKPOINT_CYCLE - 1) + [
            CHECKPOINT_STREAMS
        ], f"unexpected full/delta cycle {fulls_per_barrier}"

        # Amortized over the last complete cycle (the first full is a
        # cold write, every later cycle is steady state).
        steady = barrier_bytes[-CHECKPOINT_CYCLE:]
        amortized = sum(steady) / len(steady)

        restore_started = time.perf_counter()
        restored = StreamService.restore(snapshot_dir)
        try:
            restored.flush()
            restore_seconds = time.perf_counter() - restore_started
            assert restored.stats(names[0])["arrivals"] == position
        finally:
            restored.close(checkpoint=False)

    json_p50, json_p99 = _percentiles(json_seconds)
    bin_p50, bin_p99 = _percentiles(barrier_seconds)
    return {
        "streams": CHECKPOINT_STREAMS,
        "backend": CHECKPOINT_BACKEND,
        "params": CHECKPOINT_PARAMS,
        "base_every": CHECKPOINT_CYCLE,
        "interval_points": CHECKPOINT_INTERVAL,
        "json_bytes_per_checkpoint": json_bytes,
        "json_checkpoint_p50_seconds": json_p50,
        "json_checkpoint_p99_seconds": json_p99,
        "full_bytes_mean": sum(full_bytes) / len(full_bytes),
        "delta_bytes_mean": sum(delta_bytes) / len(delta_bytes),
        "amortized_bytes_per_checkpoint": amortized,
        "bytes_ratio_json_over_binary": json_bytes / amortized,
        "checkpoint_p50_seconds": bin_p50,
        "checkpoint_p99_seconds": bin_p99,
        "restore_seconds": restore_seconds,
    }


RECOVERY_TRIALS = 5
RECOVERY_POLICY = RestartPolicy(
    max_restarts=3, backoff_initial=0.01, backoff_factor=2.0, backoff_max=0.05
)


def run_recovery(trials: int = RECOVERY_TRIALS) -> dict:
    """Crash a supervised stream mid-ingest; time crash -> healthy.

    Each trial ingests one stream with a seeded crash somewhere in the
    second half, then polls ``health()`` tightly: the clock starts at the
    first non-healthy observation and stops at the first healthy one
    after a completed restart.
    """
    stream = att_utilization_stream(POINTS_PER_STREAM, seed=7)
    durations = []
    for trial in range(trials):
        with tempfile.TemporaryDirectory() as snapshot_dir:
            injector = FaultInjector(seed=trial)
            crash = POINTS_PER_STREAM // 2 + injector.crash_points(
                POINTS_PER_STREAM // 4, count=1
            )[0]
            injector.crash_at(crash, stream="r")
            service = StreamService(
                snapshot_dir,
                supervise=True,
                restart_policy=RECOVERY_POLICY,
                fault_injector=injector,
            )
            try:
                service.create_stream(
                    "r",
                    backend=BACKEND,
                    params=PARAMS,
                    maintain_every=MAINTAIN_EVERY,
                    queue_capacity=QUEUE_CAPACITY,
                    checkpoint_every=POINTS_PER_STREAM // 8,
                )

                def produce() -> None:
                    for start in range(0, POINTS_PER_STREAM, CHUNK):
                        service.ingest("r", stream[start : start + CHUNK])
                    service.flush("r")

                producer = threading.Thread(target=produce)
                producer.start()
                crashed_at = healthy_at = None
                deadline = time.perf_counter() + 60.0
                while time.perf_counter() < deadline:
                    health = service.health("r")
                    now = time.perf_counter()
                    if health["state"] != "healthy" and crashed_at is None:
                        crashed_at = now
                    if (
                        crashed_at is not None
                        and health["state"] == "healthy"
                        and health["restarts"] >= 1
                    ):
                        healthy_at = now
                        break
                    time.sleep(0.0005)
                producer.join()
                if crashed_at is None or healthy_at is None:
                    raise RuntimeError(
                        f"recovery trial {trial}: crash at arrival {crash} "
                        "was never observed to complete"
                    )
                durations.append(healthy_at - crashed_at)
            finally:
                service.close(checkpoint=False)
    return {
        "trials": trials,
        "policy": {
            "max_restarts": RECOVERY_POLICY.max_restarts,
            "backoff_initial": RECOVERY_POLICY.backoff_initial,
            "backoff_factor": RECOVERY_POLICY.backoff_factor,
            "backoff_max": RECOVERY_POLICY.backoff_max,
        },
        "checkpoint_every": POINTS_PER_STREAM // 8,
        "recovery_seconds_median": statistics.median(durations),
        "recovery_seconds_min": min(durations),
        "recovery_seconds_max": max(durations),
    }


def _previous_pps(baseline: dict) -> dict:
    """``{(streams, shards-or-None): points_per_second}`` from a payload."""
    previous: dict = {}
    for row in baseline.get("results", []):
        previous[(row["streams"], None)] = row["points_per_second"]
    for row in baseline.get("sharded", {}).get("results", []):
        previous[(row["streams"], row["shards"])] = row["points_per_second"]
    return previous


def main(output_path: str = "BENCH_service.json") -> dict:
    previous = {}
    merged_sections = {}
    if Path(output_path).exists():
        with open(output_path) as handle:
            committed = json.load(handle)
        previous = _previous_pps(committed)
        # bench_counting.py / bench_overload.py merge their (non-gated)
        # sections into the same file; a fresh service run must not
        # silently drop them.
        merged_sections = {
            key: committed[key]
            for key in ("counting", "overload")
            if key in committed
        }
    results = []
    for num_streams in STREAM_COUNTS:
        result = run_fleet(num_streams)
        results.append(result)
        print(
            f"{result['streams']:>3} streams: "
            f"{result['points_per_second']:>12,.0f} points/s, "
            f"p99 enqueue {result['enqueue_p99_seconds'] * 1e6:8.1f} us"
        )
        for stage, entry in sorted(result["stage_seconds"].items()):
            print(
                f"    {stage:<11} {entry['count']:>7} spans, "
                f"total {entry['sum_seconds']:7.3f} s, "
                f"p99 {entry['p99_seconds'] * 1e6:8.1f} us"
            )
    sharded = run_sharded_suite()
    recovery = run_recovery()
    print(
        f"recovery (crash -> healthy): "
        f"median {recovery['recovery_seconds_median'] * 1e3:.1f} ms, "
        f"max {recovery['recovery_seconds_max'] * 1e3:.1f} ms "
        f"over {recovery['trials']} trials"
    )
    checkpoint = run_checkpoint()
    print(
        f"checkpoint ({checkpoint['streams']} streams, "
        f"a full every {checkpoint['base_every']} barriers): "
        f"{checkpoint['amortized_bytes_per_checkpoint']:,.0f} B amortized "
        f"vs {checkpoint['json_bytes_per_checkpoint']:,} B JSON "
        f"({checkpoint['bytes_ratio_json_over_binary']:.1f}x smaller), "
        f"p99 {checkpoint['checkpoint_p99_seconds'] * 1e3:.1f} ms "
        f"vs JSON {checkpoint['json_checkpoint_p99_seconds'] * 1e3:.1f} ms, "
        f"restore {checkpoint['restore_seconds'] * 1e3:.1f} ms"
    )
    threaded_16 = next(
        r["points_per_second"] for r in results if r["streams"] == SHARDED_STREAMS
    )
    sharded_best = max(
        r["points_per_second"] for r in sharded["results"]
    )
    comparison = {
        "threaded_16_stream_pps": threaded_16,
        "sharded_16_stream_best_pps": sharded_best,
        "sharded_over_threaded": sharded_best / threaded_16,
    }
    prev_16 = previous.get((SHARDED_STREAMS, None))
    if prev_16:
        comparison["previous_committed_16_stream_pps"] = prev_16
        comparison["sharded_over_previous_committed"] = sharded_best / prev_16
        print(
            f"sharded best {sharded_best:,.0f} points/s = "
            f"{sharded_best / prev_16:.2f}x the previously committed "
            f"16-stream baseline ({prev_16:,.0f})"
        )
    payload = {
        "benchmark": "service_throughput",
        "backend": BACKEND,
        "params": PARAMS,
        "maintain_every": MAINTAIN_EVERY,
        "queue_capacity": QUEUE_CAPACITY,
        "chunk": CHUNK,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "results": results,
        "sharded": sharded,
        "comparison": comparison,
        "recovery": recovery,
        "checkpoint": checkpoint,
    }
    payload.update(merged_sections)
    with open(output_path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {output_path}")
    return payload


def check(baseline_path: str, output_path: str) -> int:
    """Re-run the gated fleets; non-zero on a >tolerance regression.

    Gated rows: threaded at 1 stream (single-stream latency path),
    threaded at 16 streams (aggregate), and -- once the committed
    baseline carries sharded rows -- the 16-stream sharded fleet at the
    largest shard count.  A fresh payload is always written to
    ``output_path`` so CI can upload the committed and fresh JSON side
    by side.
    """
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    previous = _previous_pps(baseline)
    fresh_rows = [run_fleet(1), run_fleet(SHARDED_STREAMS)]
    gate_shards = max(SHARD_COUNTS)
    if (SHARDED_STREAMS, gate_shards) in previous:
        fresh_rows.append(run_sharded_fleet(SHARDED_STREAMS, gate_shards))
    failures = []
    checks = []
    for row in fresh_rows:
        key = (row["streams"], row.get("shards"))
        base_pps = previous.get(key)
        label = f"{key[0]} streams" + (
            f" / {key[1]} shards" if key[1] else " (threaded)"
        )
        if base_pps is None:
            print(f"{label}: no committed baseline row, skipped")
            continue
        fresh_pps = row["points_per_second"]
        drop = (base_pps - fresh_pps) / base_pps
        verdict = "ok" if drop <= REGRESSION_TOLERANCE else "REGRESSION"
        checks.append(
            {
                "streams": key[0],
                "shards": key[1],
                "baseline_pps": base_pps,
                "fresh_pps": fresh_pps,
                "drop_fraction": drop,
                "verdict": verdict,
            }
        )
        print(
            f"{label}: {fresh_pps:>12,.0f} points/s vs committed "
            f"{base_pps:,.0f} ({-drop:+.1%}) -> {verdict}"
        )
        if verdict != "ok":
            failures.append(label)
    checkpoint = run_checkpoint()
    ratio = checkpoint["bytes_ratio_json_over_binary"]
    latency_ok = (
        checkpoint["checkpoint_p99_seconds"]
        < checkpoint["json_checkpoint_p99_seconds"]
    )
    verdict = "ok" if ratio >= CHECKPOINT_BYTES_GATE and latency_ok else (
        "REGRESSION"
    )
    checkpoint_check = {
        "amortized_bytes_per_checkpoint": checkpoint[
            "amortized_bytes_per_checkpoint"
        ],
        "json_bytes_per_checkpoint": checkpoint["json_bytes_per_checkpoint"],
        "bytes_ratio_json_over_binary": ratio,
        "bytes_gate": CHECKPOINT_BYTES_GATE,
        "checkpoint_p99_seconds": checkpoint["checkpoint_p99_seconds"],
        "json_checkpoint_p99_seconds": checkpoint[
            "json_checkpoint_p99_seconds"
        ],
        "verdict": verdict,
    }
    base_amortized = baseline.get("checkpoint", {}).get(
        "amortized_bytes_per_checkpoint"
    )
    if base_amortized:
        growth = (
            checkpoint["amortized_bytes_per_checkpoint"] - base_amortized
        ) / base_amortized
        checkpoint_check["baseline_amortized_bytes"] = base_amortized
        checkpoint_check["bytes_growth_fraction"] = growth
        if growth > REGRESSION_TOLERANCE:
            checkpoint_check["verdict"] = verdict = "REGRESSION"
    print(
        f"checkpoint bytes: {ratio:.1f}x smaller than JSON "
        f"(gate {CHECKPOINT_BYTES_GATE:.0f}x), p99 "
        f"{checkpoint['checkpoint_p99_seconds'] * 1e3:.1f} ms vs JSON "
        f"{checkpoint['json_checkpoint_p99_seconds'] * 1e3:.1f} ms "
        f"-> {verdict}"
    )
    if verdict != "ok":
        failures.append("checkpoint bytes")
    payload = {
        "benchmark": "service_throughput_check",
        "baseline": str(baseline_path),
        "tolerance": REGRESSION_TOLERANCE,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "checks": checks,
        "checkpoint": checkpoint_check,
        "passed": not failures,
    }
    with open(output_path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {output_path}")
    if failures:
        print(f"FAILED: throughput regression in {', '.join(failures)}")
        return 1
    print("all gated fleets within tolerance")
    return 0


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Service ingestion throughput benchmark and "
        "regression gate."
    )
    parser.add_argument(
        "output",
        nargs="?",
        default=None,
        help="result JSON path (default: BENCH_service.json, or "
        "BENCH_service_check.json with --check)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare the gated fleets against the committed baseline "
        "and exit non-zero on a regression",
    )
    parser.add_argument(
        "--baseline",
        default=str(DEFAULT_BASELINE),
        help="committed baseline for --check "
        "(default: the repo's BENCH_service.json)",
    )
    return parser.parse_args(argv)


if __name__ == "__main__":
    args = _parse_args(sys.argv[1:])
    if args.check:
        raise SystemExit(
            check(args.baseline, args.output or "BENCH_service_check.json")
        )
    main(args.output or "BENCH_service.json")
