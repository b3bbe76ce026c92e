"""End-to-end benchmark of record: four workloads, checked, with a ledger.

One run (one workload, one seed) in this process::

    python benchmarks/e2e/run.py --workload window_rebuild --seed 1 --seconds 15 --trace 0

prints a metric table and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` whose metrics are the
end-to-end ones (``--trace 0``) or the per-layer ones (``--trace 1``)
listed in ``BENCHMARK.json``.  Any failed correctness check, or any
metric that is missing or not finite, exits non-zero.

Several runs, each in a fresh process, with a manifest and summary::

    python benchmarks/e2e/run.py --all --seed 1 [--trace] [--repeat N] --out DIR

writes ``DIR/manifest.json``, ``DIR/samples.jsonl`` (one record per run),
``DIR/summary.json`` (median and quartiles per workload and metric) and
``DIR/<workload>/seed-<S>/`` per run (``record.json``, plus
``spans.jsonl`` when traced).  Two such directories compare with::

    python benchmarks/e2e/run.py compare BASE CHANGE

See ``README.md`` beside this file for the workloads and metric glossary.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import catalog  # beside this file, so on the path when run as a script

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEFAULT_SECONDS = 15.0
CHILD_TIMEOUT = 900


def _import_program():
    """Put the repository's ``src/`` on the path; refuse to run without it."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"error: {ROOT / 'src' / 'repro'} not found; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    return workloads


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=catalog.WORKLOADS)
    target.add_argument("--all", action="store_true", help="every workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="length of the measured phase (sizes the fixed work)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="traced run: per-layer metrics instead of end-to-end ones")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds SEED..SEED+N-1")
    parser.add_argument("--out", type=Path, help="directory for manifest, samples, summary")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the work (the smoke test uses 0.02)")
    parser.add_argument("--alter-reference", action="store_true",
                        help="self-test: perturb one reference input point; the run must fail")
    parser.add_argument("--record", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeat < 1 or args.seconds <= 0 or args.scale <= 0:
        parser.error("--repeat, --seconds and --scale must be positive")
    return args


# ----------------------------------------------------------------------
# One run, in this process
# ----------------------------------------------------------------------


def _peak_rss_mb(children_at_start: int) -> float:
    """Peak RSS of this process plus that of its largest child.

    The children figure survives ``exec``, so it can already hold a
    launcher's helper processes (an interpreter shim); it counts only if
    a child of this run (a shard) pushed it higher.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if children <= children_at_start:
        children = 0
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + children) / 1024.0


def _validate(run) -> None:
    """Every metric that applies must be present and finite."""
    for metric in catalog.METRICS:
        wanted = catalog.applies(metric, run.workload) and (
            metric.kind == "e2e" or run.trace
        )
        value = run.metrics.get(metric.name)
        if wanted and value is None:
            run.check(f"metric_present:{metric.name}", False, "not measured")
    for name, value in run.metrics.items():
        if not math.isfinite(value):
            run.check(f"metric_finite:{name}", False, f"value {value!r}")


def _format(value: float) -> str:
    return f"{value:.6g}"


def _print_run(run, correct: bool) -> None:
    print(f"workload {run.workload}  seed {run.seed}  seconds {run.seconds:g}  "
          f"scale {run.scale:g}  trace {int(run.trace)}")
    kinds = ("e2e", "layer") if run.trace else ("e2e",)
    absent = []
    for metric in catalog.METRICS:
        if metric.kind not in kinds:
            continue
        if metric.name not in run.metrics:
            absent.append(metric.name)
            continue
        label = ("" if metric.kind == "layer"
                 else "  (not gated)" if metric.bound is None
                 else f"  (bound {metric.bound} {metric.bound_kind})")
        print(f"  {metric.name:<34} {_format(run.metrics[metric.name]):>14} {metric.unit}{label}")
    if absent:
        print(f"  not measured on this workload: {', '.join(absent)}")
    if run.waterfall is not None:
        parts = run.waterfall["parts_s"]
        busy = ", ".join(
            f"{name} {_format(run.metrics[name])}"
            for name in ("service.worker_busy_frac", "core.busy_frac")
            if name in run.metrics
        )
        print(f"  waterfall (traced segments): wall {run.waterfall['wall_s']:.4f} s = "
              + " + ".join(f"{k} {v:.4f}" for k, v in parts.items())
              + f"  (mismatch {run.waterfall['mismatch_frac']:.3%}); worker busy: {busy}")
    failed = [check for check in run.checks if not check[1]]
    print(f"  checks: {len(run.checks) - len(failed)}/{len(run.checks)} passed; "
          f"attempted {run.attempted}, failed {run.failed}; correct {correct}")
    for name, _, detail in failed:
        print(f"  FAILED {name}: {detail}", file=sys.stderr)


def run_once(args) -> int:
    children_at_start = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    workloads = _import_program()
    from ledger import MissingMetric

    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = workloads.Run(
        workload=args.workload, seed=args.seed, seconds=args.seconds, scale=args.scale,
        trace=bool(args.trace), alter_reference=args.alter_reference, workdir=workdir,
    )
    try:
        workloads.RUNNERS[args.workload](run)
    except MissingMetric as error:
        print(f"error: metric missing: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    run.metrics["peak_rss_mb"] = _peak_rss_mb(children_at_start)
    run.metrics["failed_frac"] = run.failed / run.attempted
    run.metrics["host_pace"] = statistics.median(run.paces)
    _validate(run)
    correct = all(ok for _, ok, _ in run.checks)
    _print_run(run, correct)
    if args.record is not None:
        args.record.mkdir(parents=True, exist_ok=True)
        record = {
            "workload": run.workload, "seed": run.seed, "seconds": run.seconds,
            "scale": run.scale, "trace": run.trace, "correct": correct,
            "attempted": run.attempted, "failed": run.failed, "metrics": run.metrics,
            "checks": run.checks, "waterfall": run.waterfall,
        }
        (args.record / "record.json").write_text(json.dumps(record, indent=1))
        if run.trace:
            run.recorder.write_jsonl(args.record / "spans.jsonl")
    names = catalog.contract_names(run.trace)
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": run.metrics.get(name, 0.0), "unit": catalog.BY_NAME[name].unit}
            for name in names
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# Several runs, each in a fresh process
# ----------------------------------------------------------------------


def _git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _manifest(args, seeds) -> dict:
    import numpy

    return {
        "command": sys.argv,
        "workloads": list(catalog.WORKLOADS) if args.all else [args.workload],
        "seeds": seeds,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": bool(args.trace),
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def run_many(args) -> int:
    out = args.out or ROOT / ".bench_work" / "out"
    out.mkdir(parents=True, exist_ok=True)
    seeds = [args.seed + r for r in range(args.repeat)]
    (out / "manifest.json").write_text(json.dumps(_manifest(args, seeds), indent=1))
    names = list(catalog.WORKLOADS) if args.all else [args.workload]
    records, status = [], 0
    for workload in names:
        for seed in seeds:
            folder = out / workload / f"seed-{seed}"
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--scale", str(args.scale),
                "--record", str(folder),
            ]
            if args.alter_reference:
                command.append("--alter-reference")
            child = subprocess.run(command, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
            sys.stdout.write("\n".join(child.stdout.splitlines()[:-1]) + "\n")
            sys.stderr.write(child.stderr)
            if child.returncode != 0:
                status = 1
                print(f"run {workload} seed {seed} exited {child.returncode}", file=sys.stderr)
            if (folder / "record.json").is_file():
                records.append(json.loads((folder / "record.json").read_text()))
    with open(out / "samples.jsonl", "w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    summary = _summary(records)
    (out / "summary.json").write_text(json.dumps(summary, indent=1))
    _print_summary(summary)
    return status


def _summary(records: list[dict]) -> dict:
    grouped: dict = {}
    for record in records:
        by_metric = grouped.setdefault(record["workload"], {})
        for name, value in record["metrics"].items():
            by_metric.setdefault(name, []).append(value)
    return {
        workload: {
            name: {**catalog.summarise(values), "values": values,
                   "unit": catalog.BY_NAME[name].unit if name in catalog.BY_NAME else ""}
            for name, values in metrics.items()
        }
        for workload, metrics in grouped.items()
    }


def _print_summary(summary: dict) -> None:
    for workload, metrics in summary.items():
        print(f"summary {workload}")
        for metric in catalog.METRICS:
            row = metrics.get(metric.name)
            if row is not None:
                print(f"  {metric.name:<34} {_format(row['median']):>14} {row['unit']:<6} "
                      f"[{_format(row['q1'])}, {_format(row['q3'])}] n={row['n']}")


# ----------------------------------------------------------------------
# compare BASE CHANGE
# ----------------------------------------------------------------------


def compare(base_dir: Path, change_dir: Path) -> int:
    base = json.loads((base_dir / "summary.json").read_text())
    change = json.loads((change_dir / "summary.json").read_text())
    regressed = False
    print(f"{'workload':<18} {'metric':<34} {'unit':<6} {'base [Q1,Q3]':>30} "
          f"{'change [Q1,Q3]':>30} {'diff':>8} {'bound':>6}  verdict")
    for workload in catalog.WORKLOADS:
        for metric in catalog.METRICS:
            a = base.get(workload, {}).get(metric.name)
            b = change.get(workload, {}).get(metric.name)
            if a is None or b is None:
                continue
            verdict = catalog.verdict(metric, a, b, a["values"], b["values"])
            regressed |= verdict in ("worse", "changed")
            diff = (b["median"] - a["median"]) / abs(a["median"]) if a["median"] else 0.0
            print(f"{workload:<18} {metric.name:<34} {metric.unit:<6} "
                  f"{_format(a['median']) + ' [' + _format(a['q1']) + ',' + _format(a['q3']) + ']':>30} "
                  f"{_format(b['median']) + ' [' + _format(b['q1']) + ',' + _format(b['q3']) + ']':>30} "
                  f"{diff:>+8.2%} {'' if metric.bound is None else metric.bound:>6}  {verdict}")
    return 1 if regressed else 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            sys.exit("usage: run.py compare BASE_DIR CHANGE_DIR")
        return compare(Path(argv[1]), Path(argv[2]))
    args = _parse(argv)
    # Turn SIGTERM into SystemExit, so the cleanup in finally blocks runs:
    # a run closes its service or router (and with it every shard), and
    # several runs kill the one in progress.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.all or args.repeat > 1 or args.out is not None:
        return run_many(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
