"""Record one trajectory point of the benchmark into ``perfbench/trajectory.json``.

Usage, from the root of a git checkout:

    python3 perfbench/record.py [--seeds 1-10] [--trace-seeds 1-3]

For every workload it runs ``run.py`` untraced once per seed and traced once
per trace seed, then appends a point holding, per workload: each end-to-end
metric's values, median, quartiles and spread (the distance between the
quartiles as a share of the median); the printed details (p90s, sample
counts, fail ratio); the median of each per-layer metric; and the tracing
overhead (traced minus untraced median, as a share of the untraced median,
over the trace seeds). It also checks the figures the ROADMAP predicts: the
download time on burst, the parse cost per entry on poll and the growth
of change-list documents per publish on poll.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from datetime import date
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    out = {"result": json.loads(lines[-1])}
    for line in lines:
        head, _, rest = line.partition(" ")
        if head in ("environment", "details", "traced_end_to_end"):
            out[head] = json.loads(rest)
    print(f"{workload} seed {seed} trace {trace}: ok", flush=True)
    return out


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def changelist_growth(trace_file: Path) -> dict:
    """Least-squares slope of change-list documents written per publish, in call order.

    Set-up publishes, made before any window has closed, write none and are left out.
    """
    docs = []
    with open(trace_file, encoding="utf-8") as fh:
        for line in fh:
            span = json.loads(line)
            if span["name"] == "source.publish_changelists" and span["attrs"]["docs"]:
                docs.append((span["start"], span["attrs"]["docs"]))
    ys = [d for _, d in sorted(docs)]
    xs = list(range(len(ys)))
    slope, intercept = statistics.linear_regression(xs, ys)
    return {"publishes": len(ys), "first": ys[:3], "last": ys[-3:], "slope_per_publish": slope,
            "intercept": intercept, "r": statistics.correlation(xs, ys)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seeds", default="1-3")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    point = {"date": date.today().isoformat(), "run_seconds": seconds,
             "seeds": args.seeds, "trace_seeds": args.trace_seeds, "workloads": {}}
    checks = {}
    for name in names:
        plain = {seed: run_once(name, seed, seconds, 0) for seed in seed_list(args.seeds)}
        traced = {seed: run_once(name, seed, seconds, 1) for seed in seed_list(args.trace_seeds)}
        point["environment"] = {k: v for k, v in next(iter(plain.values()))["environment"].items()
                                if k not in ("seed", "workload", "trace", "size")}
        e2e = {
            m["name"]: summary([r["result"]["metrics"][m["name"]]["value"] for r in plain.values()])
            for m in spec["end_to_end"]
        }
        layers = {m["name"]: statistics.median([r["result"]["metrics"][m["name"]]["value"]
                                                for r in traced.values()])
                  for m in spec["per_layer"]}
        overhead = {}
        for metric in e2e:
            base = statistics.median([plain[s]["result"]["metrics"][metric]["value"]
                                      for s in traced if s in plain] or e2e[metric]["values"])
            with_trace = statistics.median(
                [r["traced_end_to_end"][metric] for r in traced.values()]
            )
            overhead[metric] = (with_trace - base) / base
        point["workloads"][name] = {
            "end_to_end": e2e,
            "details": {str(seed): r["details"] for seed, r in plain.items()},
            "per_layer": layers,
            "tracing_overhead": overhead,
        }
        if name == "burst":
            checks["burst.transport.download_ms_p50"] = {
                "roadmap": "~45 ms per loopback download",
                "measured": layers["transport.download_ms_p50"],
            }
        if name == "poll":
            checks["poll.codec.parse_us_per_entry"] = {
                "roadmap": "about 37 us per entry (of a 50,000-entry list)",
                "measured": layers["codec.parse_us_per_entry"],
            }
            checks["poll.source.changelist_docs_per_publish"] = {
                "roadmap": "grows linearly with the log",
                "measured": layers["source.changelist_docs_per_publish"],
                "growth": changelist_growth(ROOT / ".perfbench" / "trace-poll.jsonl"),
            }
    point["roadmap_checks"] = checks

    out = HERE / "trajectory.json"
    history = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {"points": []}
    history["points"].append(point)
    out.write_text(json.dumps(history, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for name, data in point["workloads"].items():
        for metric, s in data["end_to_end"].items():
            print(f"{name:8} {metric:16} median {s['median']:12.4f} spread {s['spread']:.4f}"
                  f" overhead {data['tracing_overhead'][metric]:+.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
