#!/usr/bin/env python3
"""Fast self-test of the repository benchmark.

    python3 perfbench/smoke_test.py

Runs every workload at tiny sizes (--smoke), untraced and traced, and
checks that each run exits 0 with its correctness gates held, and that
its last line names exactly the metrics BENCHMARK.json declares, each
with the declared unit and a finite value. Then checks that the
benchmark fails, without printing a result, in a directory that holds
only BENCHMARK.json and perfbench/.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check_run(spec, workload, trace):
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        failed = [line for line in proc.stdout.splitlines()
                  if "FAILED" in line or "error" in line]
        sys.stdout.write("\n".join(failed) + "\n" + proc.stderr[-4000:])
        return [f"{where}: exit code {proc.returncode}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{where}: correct is not true")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted {result.get('attempted')}")
    if not isinstance(result.get("failed"), int):
        problems.append(f"{where}: failed {result.get('failed')}")
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    names = [m["name"] for m in declared]
    if sorted(metrics) != sorted(names):
        problems.append(f"{where}: metrics {sorted(set(metrics) ^ set(names))} "
                        "differ from BENCHMARK.json")
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {got.get('unit')}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {m['name']} value {value}")
    print(f"{where}: {len(metrics)} metrics, attempted "
          f"{result.get('attempted')}, {'ok' if not problems else 'FAILED'}")
    return problems


def check_lonely_directory():
    """Without the repository's sources the benchmark must fail."""
    lonely = ROOT / ".bench_build" / "lonely"
    shutil.rmtree(lonely, ignore_errors=True)
    lonely.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", lonely / "BENCHMARK.json")
    shutil.copytree(HERE, lonely / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run(lonely, "rca_log", 0)
    finally:
        shutil.rmtree(lonely, ignore_errors=True)
    printed_result = any(line.startswith("{\"correct\"")
                         for line in proc.stdout.splitlines())
    ok = proc.returncode != 0 and not printed_result
    print(f"lonely directory: exit {proc.returncode}, "
          f"{'ok' if ok else 'FAILED'}")
    return [] if ok else ["benchmark ran without the repository sources"]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            problems += check_run(spec, workload, trace)
    problems += check_lonely_directory()
    for p in problems:
        print("FAIL", p)
    print("smoke test", "passed" if not problems else "failed")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
