"""``python -m repro.service`` -- run a configured service from the shell.

Loads a TOML/JSON config (:mod:`repro.service.config`), starts the
threaded or sharded tier it describes, optionally drives seeded
synthetic traffic through every stream, and reports health, telemetry
and (on request) a certification verdict as JSON on stdout.  This is
the entry point the CI sharded smoke job uses, and the quickest way to
run the system outside tests and benchmarks::

    python -m repro.service config.toml --points 50000 --certify

Exit status is non-zero when any stream ends unhealthy or a requested
certification fails, so the command doubles as a deployment smoke
check.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace

import numpy as np

from .config import _open_tier, build_service, load_config
from .qos import QoSConfig, QuotaExceededError, TenantQuota


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Run a threaded or sharded synopsis service from a config.",
    )
    parser.add_argument("config", help="path to a .toml or .json service config")
    parser.add_argument(
        "--points",
        type=int,
        default=0,
        metavar="N",
        help="ingest N seeded synthetic points per stream (default: 0)",
    )
    parser.add_argument(
        "--chunk",
        type=int,
        default=512,
        metavar="C",
        help="ingest batch size (default: 512)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="synthetic traffic seed"
    )
    parser.add_argument(
        "--certify",
        action="store_true",
        help="run differential certification before shutdown",
    )
    parser.add_argument(
        "--checkpoint",
        action="store_true",
        help="take an explicit checkpoint before shutdown",
    )
    parser.add_argument(
        "--restore",
        action="store_true",
        help="restore every stream from the config's snapshot_dir "
        "instead of creating fresh ones",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="append the final metric samples to PATH as JSON lines",
    )
    parser.add_argument(
        "--qos-rate",
        type=float,
        default=None,
        metavar="R",
        help="enable QoS with a default per-tenant quota of R points/s "
        "(overrides the config's default quota)",
    )
    parser.add_argument(
        "--qos-burst",
        type=float,
        default=None,
        metavar="B",
        help="burst capacity for --qos-rate (default: 2*R)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the JSON report"
    )
    args = parser.parse_args(argv)
    if args.qos_burst is not None and args.qos_rate is None:
        parser.error("--qos-burst requires --qos-rate")
    return args


def _restore_service(config):
    """Rebuild the configured tier from its snapshot directory."""
    if config.snapshot_dir is None:
        raise SystemExit("--restore needs snapshot_dir in the config")
    return _open_tier(config, restore=True)


def _drive(service, streams, points, chunk, seed) -> dict:
    """Seeded synthetic traffic: integer-valued, domain-safe floats."""
    rng = np.random.default_rng(seed)
    started = time.perf_counter()
    total = 0
    throttled = 0
    for name in streams:
        remaining = points
        while remaining > 0:
            size = min(chunk, remaining)
            batch = np.floor(rng.random(size) * 100.0)
            try:
                total += service.ingest(name, batch)
            except QuotaExceededError as exc:
                # The driver is a well-behaved tenant: back off for the
                # advertised horizon and resend the same batch.
                throttled += 1
                time.sleep(exc.retry_after)
                continue
            remaining -= size
    service.flush()
    elapsed = time.perf_counter() - started
    return {
        "points": total,
        "seconds": elapsed,
        "points_per_second": total / elapsed if elapsed > 0 else None,
        "quota_backoffs": throttled,
    }


def main(argv=None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    config = load_config(args.config)
    if args.qos_rate is not None:
        burst = (
            args.qos_burst if args.qos_burst is not None else 2 * args.qos_rate
        )
        quota = TenantQuota(rate=args.qos_rate, burst=burst)
        qos = (
            replace(config.qos, default_quota=quota)
            if config.qos is not None
            else QoSConfig(default_quota=quota)
        )
        config = replace(config, qos=qos)
    report: dict = {"mode": config.mode, "streams": [n for n, _ in config.streams]}
    failed = False
    if args.restore:
        service = _restore_service(config)
        report["streams"] = sorted(service.streams())
        report["restored"] = True
    else:
        service = build_service(config)
    try:
        if args.points > 0:
            report["ingest"] = _drive(
                service, report["streams"], args.points, args.chunk, args.seed
            )
        health = service.health()
        report["health"] = health
        failed = any(
            record.get("state") != "healthy" for record in health.values()
        )
        report["stats"] = {}
        for name in report["streams"]:
            stats = service.stats(name)
            report["stats"][name] = {
                "arrivals": stats["arrivals"],
                "replay_points": stats["replay_points"],
            }
        if config.qos is not None:
            report["qos"] = service.qos()
        if args.certify:
            if config.mode == "sharded":
                verdict = service.certify()
                report["certify"] = {
                    "passed": verdict["passed"],
                    "placement": verdict["placement"]["passed"],
                }
            else:
                verdicts = {
                    name: service.certify(name)["passed"]
                    for name in report["streams"]
                }
                report["certify"] = {
                    "passed": all(verdicts.values()),
                    "streams": verdicts,
                }
            failed = failed or not report["certify"]["passed"]
        if args.checkpoint:
            report["checkpoint_paths"] = service.checkpoint()
        if args.metrics_out:
            service.export_metrics_jsonl(args.metrics_out)
    finally:
        service.close()
    report["passed"] = not failed
    if not args.quiet:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
