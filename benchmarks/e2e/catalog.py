"""Every metric the end-to-end benchmark reports, and how runs are compared.

One table (:data:`METRICS`) names each metric with its unit, direction,
regression bound and the workloads it is measured on.  ``BENCHMARK.json``
at the repository root lists the subset every run must report on its
last line (``in_contract``): end-to-end metrics measured on every workload, and
per-layer metrics measured on every workload or counted (a count reads 0
on a workload that lacks the layer; a time would be a fake constant).
``test_e2e_smoke.py`` keeps the two in agreement.

Bounds are relative to the baseline median unless ``bound_kind`` says
otherwise: ``"abs"`` is an absolute difference and ``"exact"`` demands
identical values (deterministic counts).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

WORKLOADS = ("window_rebuild", "gk_fleet_threaded", "gk_fleet_sharded", "mixed_durable")
WHY = {
    "window_rebuild": "the paper's fixed-window rebuild dominates; shows rebuild work that the GK workloads bypass",
    "gk_fleet_threaded": "cheap per-point work, so the service path dominates: queue hand-off, batching, materialize, counters",
    "gk_fleet_sharded": "same inputs through 2 shards; adds framing, socket send and shard apply, isolating the tier's cost",
    "mixed_durable": "open loop: writes beside queries, snapshots and QoS admission; measures freshness, not throughput",
}
GK = ("gk_fleet_threaded", "gk_fleet_sharded")
CLOSED_LOOP = ("window_rebuild",) + GK
ALL = WORKLOADS
WINDOW = ("window_rebuild",)
MIXED = ("mixed_durable",)
SHARDED = ("gk_fleet_sharded",)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" or "lower"
    kind: str  # "e2e" or "layer"
    workloads: tuple[str, ...]
    bound: float | None = None
    bound_kind: str = "rel"  # "rel", "abs" or "exact"
    moves: str = ""  # layer metrics: "<e2e metric>@<workload>, ..."
    in_contract: bool = False


def _e2e(name, unit, better, workloads, bound, bound_kind="rel", contract=False):
    return Metric(name, unit, better, "e2e", workloads, bound, bound_kind,
                  in_contract=contract)


def _layer(name, unit, better, workloads, moves, contract=True):
    return Metric(name, unit, better, "layer", workloads, moves=moves,
                  in_contract=contract)


_INGEST_GK = "ingest_pps@gk_fleet_threaded, ingest_pps@gk_fleet_sharded"
_SERVICE = "ingest_pps@gk_fleet_threaded, visible_p50_ms@mixed_durable, visible_p90_ms@mixed_durable"
_SNAPSHOT = "checkpoint_bytes_per_kpt@mixed_durable, visible_p90_ms@mixed_durable"

METRICS: tuple[Metric, ...] = (
    # -- end to end (untraced run) -------------------------------------
    # Timing bounds are max(5%, 3 IQR/median) over 10-seed sweeps, capped
    # at 0.25, the largest BENCHMARK.json allows.  A bound of None marks
    # a metric that varied by more than 10% between runs on the reference
    # box even at full length: it is reported, not gated (see README.md).
    _e2e("setup_s", "s", "lower", ALL, 0.25, contract=True),
    _e2e("ingest_pps", "pts/s", "higher", ALL, 0.25, contract=True),
    _e2e("peak_rss_mb", "MB", "lower", ALL, 0.05, contract=True),
    _e2e("visible_p50_ms", "ms", "lower", MIXED, None),
    _e2e("visible_p90_ms", "ms", "lower", MIXED, None),
    _e2e("visible_p99_ms", "ms", "lower", MIXED, None),
    _e2e("query_p50_us", "us", "lower", MIXED, None),
    _e2e("query_p90_us", "us", "lower", MIXED, None),
    _e2e("checkpoint_bytes_per_kpt", "B/kpt", "lower", MIXED, 0.05),
    _e2e("restore_s", "s", "lower", MIXED, None),
    _e2e("failed_frac", "frac", "lower", ALL, 0.0, "exact"),
    _e2e("sse_over_opt", "ratio", "lower", WINDOW, 0.01, "abs"),
    _e2e("rank_error_frac", "frac", "lower", GK + MIXED, 0.0, "exact"),
    # setup_s and the closed loops' ingest_pps are scaled to a fixed
    # reference pace (workloads._pace); these are the wall-clock values
    # and the host's pace, median over the run's calibrations.
    _e2e("setup_wall_s", "s", "lower", ALL, None),
    _e2e("ingest_wall_pps", "pts/s", "higher", ALL, None),
    _e2e("host_pace", "ratio", "lower", ALL, None),
    # -- repro.core ----------------------------------------------------
    _layer("core.rebuild_p50_ms", "ms", "lower", WINDOW, "ingest_pps@window_rebuild", False),
    _layer("core.rebuild_p95_ms", "ms", "lower", WINDOW, "ingest_pps@window_rebuild", False),
    _layer("core.busy_frac", "frac", "lower", WINDOW, "ingest_pps@window_rebuild"),
    _layer("core.rebuilds_per_kpt", "1/kpt", "lower", WINDOW, "ingest_pps@window_rebuild"),
    _layer("core.herror_evals_per_rebuild", "count", "lower", WINDOW, "ingest_pps@window_rebuild"),
    _layer("core.search_probes_per_rebuild", "count", "lower", WINDOW, "ingest_pps@window_rebuild"),
    _layer("core.extra_rebuilds", "count", "lower", WINDOW, "ingest_pps@window_rebuild"),
    # -- repro.runtime -------------------------------------------------
    _layer("runtime.ingest_busy_s", "s", "lower", ALL, _INGEST_GK),
    _layer("runtime.ingest_ns_per_pt", "ns", "lower", ALL, _INGEST_GK),
    _layer("runtime.direct_pps", "pts/s", "higher", ALL, _INGEST_GK),
    # -- repro.sketches ------------------------------------------------
    _layer("sketches.gk_cells_max", "count", "lower", GK + MIXED,
           "peak_rss_mb@gk_fleet_threaded, rank_error_frac@gk_fleet_threaded"),
    # -- repro.service -------------------------------------------------
    _layer("service.submit_p50_us", "us", "lower", ALL, _SERVICE),
    _layer("service.submit_p99_us", "us", "lower", ALL, _SERVICE),
    _layer("service.enqueue_wait_s", "s", "lower", ALL, _SERVICE),
    _layer("service.queue_depth_max", "count", "lower", ALL, _SERVICE),
    _layer("service.drain_cycles", "count", "lower", ALL, _SERVICE),
    _layer("service.batches_per_drain", "ratio", "higher", ALL, _SERVICE),
    _layer("service.materialize_busy_s", "s", "lower", ALL, _SERVICE),
    _layer("service.materialize_p50_us", "us", "lower", ALL, _SERVICE),
    _layer("service.worker_busy_frac", "frac", "lower", ALL, _SERVICE),
    _layer("service.flush_tail_s", "s", "lower", ALL, _SERVICE),
    # -- repro.service.snapshot ----------------------------------------
    _layer("snapshot.checkpoints", "count", "lower", MIXED, _SNAPSHOT),
    _layer("snapshot.full_writes", "count", "lower", MIXED, _SNAPSHOT),
    _layer("snapshot.delta_writes", "count", "lower", MIXED, _SNAPSHOT),
    _layer("snapshot.checkpoint_p50_ms", "ms", "lower", MIXED, _SNAPSHOT, False),
    _layer("snapshot.checkpoint_p90_ms", "ms", "lower", MIXED, _SNAPSHOT, False),
    _layer("snapshot.full_bytes_mean", "B", "lower", MIXED, _SNAPSHOT),
    _layer("snapshot.delta_bytes_mean", "B", "lower", MIXED, _SNAPSHOT),
    # -- repro.service.qos ---------------------------------------------
    _layer("qos.admit_p50_us", "us", "lower", MIXED, "visible_p50_ms@mixed_durable", False),
    _layer("qos.admit_busy_s", "s", "lower", MIXED, "visible_p50_ms@mixed_durable", False),
    _layer("qos.shed_points", "count", "lower", MIXED, "visible_p50_ms@mixed_durable"),
    _layer("qos.throttled_batches", "count", "lower", MIXED, "visible_p50_ms@mixed_durable"),
    _layer("qos.ladder_max_level", "count", "lower", MIXED, "visible_p50_ms@mixed_durable"),
    # -- repro.shard ---------------------------------------------------
    _layer("shard.route_p50_us", "us", "lower", SHARDED, "ingest_pps@gk_fleet_sharded", False),
    _layer("shard.route_p99_us", "us", "lower", SHARDED, "ingest_pps@gk_fleet_sharded", False),
    _layer("shard.send_p50_us", "us", "lower", SHARDED, "ingest_pps@gk_fleet_sharded", False),
    _layer("shard.send_p99_us", "us", "lower", SHARDED, "ingest_pps@gk_fleet_sharded", False),
    _layer("shard.frames", "count", "lower", SHARDED, "ingest_pps@gk_fleet_sharded"),
    _layer("shard.frame_bytes_per_pt", "B", "lower", SHARDED, "ingest_pps@gk_fleet_sharded"),
    _layer("shard.partition_skew", "ratio", "lower", SHARDED, "ingest_pps@gk_fleet_sharded"),
    _layer("shard.flush_tail_s", "s", "lower", SHARDED, "ingest_pps@gk_fleet_sharded", False),
    _layer("shard.apply_ingest_busy_s", "s", "lower", SHARDED, "ingest_pps@gk_fleet_sharded", False),
    _layer("shard.apply_materialize_busy_s", "s", "lower", SHARDED, "ingest_pps@gk_fleet_sharded", False),
    # -- repro.obs -----------------------------------------------------
    _layer("obs.trace_overhead_frac", "frac", "lower", ALL, "ingest_pps (traced vs untraced segments)"),
    _layer("obs.metrics_collect_ms", "ms", "lower", ALL, "none (read-side cost)"),
    # -- load generator ------------------------------------------------
    _layer("load.lateness_p90_ms", "ms", "lower", MIXED, "visible_p50_ms@mixed_durable", False),
    _layer("load.lateness_max_ms", "ms", "lower", MIXED, "visible_p90_ms@mixed_durable", False),
    _layer("load.producer_bench_frac", "frac", "lower", ALL, "none (must stay below 0.05)"),
)

BY_NAME = {metric.name: metric for metric in METRICS}
E2E = tuple(m for m in METRICS if m.kind == "e2e")
LAYER = tuple(m for m in METRICS if m.kind == "layer")


def applies(metric: Metric, workload: str) -> bool:
    return workload in metric.workloads


def contract_names(trace: bool) -> list[str]:
    """Metric names one run reports on its last line, in table order."""
    kind = "layer" if trace else "e2e"
    return [m.name for m in METRICS if m.kind == kind and m.in_contract]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(..., n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarise(values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _spread(summary: dict, kind: str) -> float:
    """IQR in the bound's own terms (relative or absolute)."""
    iqr = summary["q3"] - summary["q1"]
    if kind == "abs":
        return iqr
    scale = abs(summary["median"])
    return iqr / scale if scale else (0.0 if iqr == 0 else math.inf)


def verdict(metric: Metric, base: dict, change: dict, base_values, change_values) -> str:
    """Compare two summaries of one (workload, metric) pair.

    ``worse``/``better`` when the medians differ by more than the bound,
    ``same`` inside it, ``unresolved`` when either side's spread is wider
    than the bound -- unless every run of one side beats every run of
    the other, which settles the direction regardless of spread.
    """
    if metric.bound is None:
        return "info"
    if metric.bound_kind == "exact":
        return "same" if base["median"] == change["median"] else "changed"
    sign = 1.0 if metric.better == "higher" else -1.0
    delta = sign * (change["median"] - base["median"])
    if metric.bound_kind == "rel":
        scale = abs(base["median"])
        delta = delta / scale if scale else (0.0 if delta == 0 else math.copysign(math.inf, delta))
    spread = max(_spread(base, metric.bound_kind), _spread(change, metric.bound_kind))
    if spread > metric.bound:
        if all(sign * c > sign * b for c in change_values for b in base_values):
            return "better"
        if all(sign * c < sign * b for c in change_values for b in base_values):
            return "worse"
        return "unresolved"
    if delta < -metric.bound:
        return "worse"
    if delta > metric.bound:
        return "better"
    return "same"
