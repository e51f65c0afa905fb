"""Measure a baseline: run the benchmark over several seeds per workload.

    python3 perfbench/collect.py

For each workload: ten untraced runs with seeds 1..10, giving each
end-to-end metric's median, quartiles and spread (quartile distance over the
median, as ``statistics.quantiles(values, n=4)`` gives them); then two traced
runs with seed 1, whose computed counts must agree exactly. Writes the
machine facts and all of it to ``baseline.json``.
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_UNITS = ("count", "bytes", "ratio")
RUNS = 10


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    result = {
        "machine": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "numba": importlib.util.find_spec("numba") is not None,
            "gnu_time": shutil.which("time") is not None,
            "blas_threads": 1,
        },
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [bench(workload, seed, spec["run_seconds"], 0)
                for seed in range(1, RUNS + 1)]
        end_to_end = {name: summary([r["metrics"][name]["value"] for r in runs])
                      for name in bounds}
        traced = [bench(workload, 1, spec["run_seconds"], 1) for _ in range(2)]
        layers = [{k: v["value"] for k, v in t["metrics"].items()} for t in traced]
        counts = [{k: v for k, v in layer.items() if units[k] in COUNT_UNITS}
                  for layer in layers]
        result["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs + traced),
            "failed": sum(r["failed"] for r in runs + traced),
            "end_to_end": end_to_end,
            "per_layer": layers[0],
            "per_layer_second_run": layers[1],
            "counts_repeat": counts[0] == counts[1],
        }
        print(f"{workload}: failed {result['workloads'][workload]['failed']}, "
              f"counts repeat {counts[0] == counts[1]}", flush=True)
        for name, s in end_to_end.items():
            flag = "ok" if s["spread"] < bounds[name] / 3 else "WIDE"
            print(f"  {name:12s} median {s['median']:.6g} spread {s['spread']:.4f} "
                  f"(bound {bounds[name]}) {flag}", flush=True)
    out = HERE / "baseline.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
