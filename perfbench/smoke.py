"""Tiny-size smoke run of every workload; takes seconds and is not part of the test suite.

Usage, from the root of a checkout:

    python3 perfbench/smoke.py

For each workload in BENCHMARK.json it runs ``run.py --size tiny`` with
``--trace 0`` and ``--trace 1`` and checks that the run is correct and that
it emits every end-to-end (respectively per-layer) metric with its unit. It
also checks that ``plan.json`` ties every per-layer metric to end-to-end
metrics and workloads that exist, and that the benchmark refuses to run
in a directory holding only BENCHMARK.json and the benchmark's own files.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    kind = "per_layer" if trace else "end_to_end"
    proc = run(workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    ok = result.get("correct") is True and result.get("failed") == 0
    if not ok or result.get("attempted", 0) < 1:
        problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
    want = {m["name"]: m["unit"] for m in spec[kind]}
    got = result.get("metrics", {})
    if got.keys() != want.keys():
        differ = sorted(got.keys() ^ want.keys())
        problems.append(f"{where}: metrics differ from BENCHMARK.json: {differ}")
    for name, value in got.items():
        number = value.get("value")
        if value.get("unit") != want.get(name):
            problems.append(f"{where}: {name} has unit {value.get('unit')!r}, "
                            f"want {want.get(name)!r}")
        is_number = isinstance(number, (int, float)) and not isinstance(number, bool)
        if not is_number or not math.isfinite(number):
            problems.append(f"{where}: {name} is not a finite number: {number!r}")
    return problems


def check_plan(spec: dict) -> list[str]:
    plan = json.loads((HERE / "plan.json").read_text(encoding="utf-8"))
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    workloads = {w["name"] for w in spec["workloads"]}
    problems = []
    covered = set()
    for row in plan["predictions"]:
        covered.update(row["per_layer"])
        for name in row["per_layer"]:
            if name not in layers:
                problems.append(f"plan.json: unknown per-layer metric {name}")
        for name in row["moves"]:
            if name not in e2e:
                problems.append(f"plan.json: unknown end-to-end metric {name}")
        for name in row["on"]:
            if name not in workloads:
                problems.append(f"plan.json: unknown workload {name}")
    if layers - covered:
        problems.append(f"plan.json: no prediction for {sorted(layers - covered)}")
    if set(plan["why"]) != workloads:
        problems.append("plan.json: 'why' must name each workload once")
    return problems


def check_refuses_bare_directory() -> list[str]:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run("burst", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["benchmark ran in a directory without the program's sources"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_plan(spec) + check_refuses_bare_directory()
    for workload in spec["workloads"]:
        for trace in (0, 1):
            found = check_run(spec, workload["name"], trace)
            print(f"{workload['name']} --trace {trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
