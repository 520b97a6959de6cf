#!/usr/bin/env python3
"""Toy-size smoke check of the benchmark; finishes in seconds.

    python3 perfbench/smoke.py

Runs every workload of ``run.py`` at ``--scale toy`` (2 baselines, 101
landmarks, a few calls per pass) with tracing off and on, and checks each
run's last output line: exactly the keys ``correct``, ``attempted``,
``failed`` and ``metrics``, no failed operation, and every metric
BENCHMARK.json names (``end_to_end`` with ``--trace 0``, ``per_layer`` with
``--trace 1``) present with its unit and a finite value, and no other
metric. Exits 1 on the first mismatch.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    # every workload run.py knows, including any not listed in BENCHMARK.json
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload,
                 "--seed", "1", "--seconds", "0.5", "--trace", str(trace),
                 "--scale", "toy"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                print(f"FAIL {label}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            problems = []
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"keys {sorted(result)}")
            if not (result.get("correct") is True and result.get("failed") == 0
                    and result.get("attempted", 0) >= 1):
                problems.append(f"correct={result.get('correct')} "
                                f"failed={result.get('failed')}")
            metrics = result.get("metrics", {})
            for name in sorted(set(metrics) ^ set(expected[trace])):
                state = "unexpected" if name in metrics else "missing"
                problems.append(f"metric {name} {state}")
            for name, unit in expected[trace].items():
                got = metrics.get(name)
                if got is None:
                    continue
                if got.get("unit") != unit:
                    problems.append(
                        f"{name} unit {got.get('unit')!r}, want {unit!r}")
                if not (isinstance(got.get("value"), (int, float))
                        and math.isfinite(got["value"])):
                    problems.append(f"{name} value {got.get('value')!r}")
            if problems:
                print(f"FAIL {label}: " + "; ".join(problems))
                return 1
            print(f"ok   {label}: {len(metrics)} metrics, "
                  f"{result['attempted']} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
