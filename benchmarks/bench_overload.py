"""Mixed-priority overload storm: goodput, shed mass and latency by class.

Drives the threaded service with QoS enabled into a deliberate 2x
overload: a bronze (priority 2, sheddable) stream is offered twice the
gold (priority 0) volume while its worker is slowed by a seeded
:class:`FaultInjector`, so the degradation ladder must escalate.
Recorded per priority class:

* offered vs admitted points and the shed mass (every dropped point is
  accounted -- the sum must reconcile);
* goodput (admitted points/second over the storm);
* p50 / p99 enqueue latency (gold must stay flat while bronze saturates);
* the accuracy monitor's checks, unverified checks and violations: gold
  keeps its whole stream in the monitor, so every gold check is exact,
  and no stream may report a violation.

Plus the storm itself: worst ladder level reached, level transition
counts, and the time from end-of-storm to the ladder walking back to
``healthy``.

This is a capacity characterization, not a regression gate: the section
merges into the committed ``BENCH_service.json`` under ``"overload"``
(like ``bench_counting.py``'s section) and CI uploads it without
comparing.  It does assert what it records, though: the run exits
non-zero, writing nothing, when the ladder left ``healthy`` but no
level transition was counted, when a stream's offered points are not
its admitted plus its shed points, when the per-stream shed totals do
not sum to the controller's total, or when a stream reports an
accuracy violation.

Standalone:  ``PYTHONPATH=src python benchmarks/bench_overload.py``
"""

from __future__ import annotations

import json
import platform
import sys
import threading
import time
from pathlib import Path

from repro.datasets import att_utilization_stream
from repro.service import FaultInjector, QoSConfig, QoSController, StreamService
from repro.service.qos import DEGRADATION_LEVELS, TRANSITIONS_METRIC

GOLD_POINTS = 20_000
BRONZE_POINTS = 40_000  # 2x the gold offer, into a slowed worker
CHUNK = 256
BACKEND = "gk_quantiles"
PARAMS = {"epsilon": 0.05}
#: Gold's monitor keeps all of gold's points, so each of its checks is
#: exact; a check every 4,096 points keeps the audit's sorts out of the
#: storm.  Bronze's whole-stream oracle stops at 512 points.
GOLD_ACCURACY = {"window_size": GOLD_POINTS, "check_every": 4096}
BRONZE_ACCURACY = {"window_size": 512, "check_every": 256}

#: Seeded slowdown of the bronze worker: deterministic overload.
SLOW_SECONDS = 0.004
SLOW_TIMES = 400

QOS = QoSConfig(
    evaluate_every=1,
    cooldown=2,
    shed_fraction=0.5,
    throttle_fill=0.2,
    shed_fill=0.35,
    stale_fill=0.99,
    throttle_latency=10.0,
    shed_latency=20.0,
    stale_latency=30.0,
)

DEFAULT_OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_service.json"


def _priority_row(service, snapshot, name: str, offered: int,
                  seconds: float) -> dict:
    stats = service.stats(name)
    stream = snapshot["streams"][name]
    accuracy = service.accuracy(name)
    admitted = int(stats["arrivals"])
    return {
        "stream": name,
        "priority": stream["priority"],
        "sheddable": stream["sheddable"],
        "offered_points": offered,
        "admitted_points": admitted,
        "shed_points": stream["shed_points"],
        "goodput_points_per_second": admitted / seconds,
        "enqueue_p50_seconds": stats["enqueue_p50_seconds"],
        "enqueue_p99_seconds": stats["enqueue_p99_seconds"],
        "accuracy_checks": accuracy["checks"],
        "accuracy_unverified": accuracy["unverified"],
        "accuracy_violations": accuracy["violations"],
    }


def run_storm() -> dict:
    gold = att_utilization_stream(GOLD_POINTS, seed=7)
    bronze = att_utilization_stream(BRONZE_POINTS, seed=8)
    ctrl = QoSController(QOS)
    injector = FaultInjector().slow_ingest_at(
        1, SLOW_SECONDS, stream="bronze", times=SLOW_TIMES
    )
    with StreamService(qos=ctrl, fault_injector=injector) as service:
        service.create_stream(
            "gold", backend=BACKEND, params=PARAMS, maintain_every=64,
            priority=0, accuracy=dict(GOLD_ACCURACY),
        )
        service.create_stream(
            "bronze", backend=BACKEND, params=PARAMS, maintain_every=64,
            priority=2, queue_capacity=512, backpressure="drop_oldest",
            accuracy=dict(BRONZE_ACCURACY),
        )

        worst = [0]

        def produce_bronze() -> None:
            for start in range(0, BRONZE_POINTS, CHUNK):
                service.ingest("bronze", bronze[start : start + CHUNK])
                worst[0] = max(worst[0], ctrl.level)

        producer = threading.Thread(target=produce_bronze)
        started = time.perf_counter()
        producer.start()
        for start in range(0, GOLD_POINTS, CHUNK):
            service.ingest("gold", gold[start : start + CHUNK])
            worst[0] = max(worst[0], ctrl.level)
        producer.join()
        service.flush()
        storm_seconds = time.perf_counter() - started

        recovery_started = time.perf_counter()
        deadline = recovery_started + 30.0
        while time.perf_counter() < deadline:
            if service.qos()["level"] == "healthy":
                break
            time.sleep(0.01)
        recovery_seconds = time.perf_counter() - recovery_started

        snapshot = service.qos()
        transitions = {
            sample["labels"]["level"]: sample["value"]
            for sample in service.metrics()
            if sample["name"] == TRANSITIONS_METRIC
        }
        rows = {
            "gold": _priority_row(
                service, snapshot, "gold", GOLD_POINTS, storm_seconds
            ),
            "bronze": _priority_row(
                service, snapshot, "bronze", BRONZE_POINTS, storm_seconds
            ),
        }
        for row in rows.values():
            print(
                f"{row['stream']:>6} (priority {row['priority']}): "
                f"{row['goodput_points_per_second']:>11,.0f} points/s "
                f"goodput, shed {row['shed_points']:>6,} of "
                f"{row['offered_points']:,} offered, "
                f"p99 enqueue {row['enqueue_p99_seconds'] * 1e6:8.1f} us"
            )
        print(
            f"ladder peaked at {DEGRADATION_LEVELS[worst[0]]!r}, "
            f"back to healthy {recovery_seconds * 1e3:.0f} ms after the storm"
        )
        return {
            "storm_seconds": storm_seconds,
            "ladder_level_max": DEGRADATION_LEVELS[worst[0]],
            "ladder_transitions": transitions,
            "recovered_to_healthy_seconds": recovery_seconds,
            "final_level": snapshot["level"],
            "total_admitted_points": snapshot["admitted_points"],
            "total_shed_points": snapshot["shed_points"],
            "per_priority": rows,
        }


def invariant_failures(section: dict) -> list[str]:
    """What the recorded storm contradicts about itself (empty: nothing)."""
    failures = []
    if section["ladder_level_max"] != "healthy" and not section["ladder_transitions"]:
        failures.append(
            f"ladder reached {section['ladder_level_max']!r} but no level "
            "transition was counted"
        )
    rows = section["per_priority"].values()
    stream_shed = sum(row["shed_points"] for row in rows)
    if section["total_shed_points"] != stream_shed:
        failures.append(
            f"controller shed {section['total_shed_points']} points, its "
            f"streams {stream_shed}"
        )
    for row in rows:
        if row["offered_points"] != row["admitted_points"] + row["shed_points"]:
            failures.append(
                f"{row['stream']}: offered {row['offered_points']} points, "
                f"admitted {row['admitted_points']} and shed "
                f"{row['shed_points']}"
            )
        if row["accuracy_violations"]:
            failures.append(
                f"{row['stream']}: {row['accuracy_violations']} accuracy "
                "violations"
            )
    return failures


def main(output_path: str | Path = DEFAULT_OUTPUT) -> dict:
    section = {
        "backend": BACKEND,
        "params": PARAMS,
        "accuracy": {"gold": GOLD_ACCURACY, "bronze": BRONZE_ACCURACY},
        "chunk": CHUNK,
        "slow_seconds": SLOW_SECONDS,
        "slow_times": SLOW_TIMES,
        "qos": QOS.to_dict(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        **run_storm(),
    }
    failures = invariant_failures(section)
    if failures:
        raise SystemExit("overload storm invariants failed: " + "; ".join(failures))
    output_path = Path(output_path)
    payload = {}
    if output_path.exists():
        with open(output_path) as handle:
            payload = json.load(handle)
    payload["overload"] = section
    with open(output_path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"merged overload section into {output_path}")
    return section


if __name__ == "__main__":
    main(*sys.argv[1:])
