"""sitemapsync benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload burst|poll --seed N \\
        --seconds S --trace 0|1 [--size full|tiny]

The library is imported from the checkout's own ``src/``. The run measures
its workload for about ``--seconds`` (a poll run holds at least one whole
cycle of 100 windows), checks the mirror, and prints a human-readable report
followed, as the last line, by one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the library's public functions are wrapped with spans
(``tracer.py``), the metrics are the per-layer ones, and the spans are
written to ``.perfbench/trace-<workload>.jsonl``. Temporary trees live under
``.perfbench/`` in the checkout and are removed before exit. A failed
correctness check prints ``correct: false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def _percentile_or_none(values: list[float], q: int, min_beyond: int = 10):
    """The q-th percentile, only when at least ``min_beyond`` samples lie beyond it."""
    if len(values) * (100 - q) / 100 < min_beyond:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _rate(ops: list[tuple[int, float]]) -> float:
    """Items handled per second over all calls of one operation."""
    return sum(n for n, _ in ops) / sum(t for _, t in ops)


def end_to_end(samples) -> tuple[dict[str, float], dict]:
    """The end-to-end metrics, plus the figures printed beside them."""
    metrics = {
        "setup_s": statistics.median(samples.setup_s),
        "baseline_rps": _rate(samples.baseline),
        "sync_eps": samples.sync_entries / sum(samples.sync_s),
        "audit_fps": _rate(samples.audit),
        # The mean, not the median: on poll a publish costs more as the log
        # grows, so the median would be set by the middle windows alone,
        # a few seconds of the run.
        "publish_mean_ms": statistics.fmean(samples.publish_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    sync_ms = [s * 1e3 for s in samples.sync_s]
    extra = {
        "samples": {
            "setup_s": len(samples.setup_s),
            "baseline": len(samples.baseline),
            "sync": len(samples.sync_s),
            "audit": len(samples.audit),
            "publish": len(samples.publish_ms),
        },
        "sync_p50_ms": statistics.median(sync_ms),
        "sync_p90_ms": _percentile_or_none(sync_ms, 90),
        "publish_p50_ms": statistics.median(samples.publish_ms),
        "publish_p90_ms": _percentile_or_none(samples.publish_ms, 90),
        "fail_ratio": samples.failed / samples.attempted,
    }
    return metrics, extra


def environment(args, pool_size: int) -> dict:
    import requests

    commit = None
    if (ROOT / ".git").exists():  # a plain copy of the tree has no commit to report
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "requests": requests.__version__,
        "commit": commit,
        "seed": args.seed,
        "transfer_pool": pool_size,
        "network": "loopback",
        "workload": args.workload,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("burst", "poll"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "sitemapsync" / "__init__.py").is_file():
        print(f"perfbench: no sitemapsync sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer as tracing
    import workloads

    os.sched_setaffinity(0, workloads.CLIENT_CPUS)

    env = environment(args, workloads.POOL_SIZE)
    print("environment " + json.dumps(env, sort_keys=True))

    work = WORK_ROOT / f"work-{os.getpid()}"
    samples = workloads.Samples()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        tracer.install()
    size = workloads.SIZES[args.workload][args.size]
    deadline = time.perf_counter() + args.seconds
    try:
        workloads.WORKLOADS[args.workload](samples, size, args.seed, deadline, work)
    except Exception as exc:  # a failed check or a raised error: report it, never a number
        traceback.print_exc()
        raised = 0 if isinstance(exc, workloads.CheckFailed) else 1
        print(json.dumps({"correct": False, "attempted": max(samples.attempted, 1),
                          "failed": max(samples.failed + raised, 1), "metrics": {}}))
        return 1
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    metrics, extra = end_to_end(samples)
    print("details " + json.dumps(extra, sort_keys=True))
    kind = "end_to_end"
    if tracer is not None:
        print("traced_end_to_end " + json.dumps(metrics, sort_keys=True))
        tracer.write(WORK_ROOT / f"trace-{args.workload}.jsonl")
        metrics, kind = tracing.per_layer_metrics(tracer), "per_layer"
    units = metric_units(kind)
    if metrics.keys() != units.keys():
        print(f"metrics {sorted(metrics.keys() ^ units.keys())} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 2
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>16.4f} {units[name]}")
    print(json.dumps({
        "correct": True,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
