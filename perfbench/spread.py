"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --workloads grid select corpus --seeds 1 2 3 4 5

For every workload and end-to-end metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
quartile distance as a share of the median, next to the metric's bound in
BENCHMARK.json.  A spread should stay below a third of its bound.  Every
run's final JSON line is kept in ``perfbench/_work/spread-<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="latest")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    runs: dict[str, list[dict]] = {}
    for workload in args.workloads:
        for seed in args.seeds:
            result = run_once(workload, seed, bench["run_seconds"], args.trace)
            runs.setdefault(workload, []).append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)

    out = HERE / "_work" / f"spread-{args.label}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(runs, indent=2, sort_keys=True) + "\n")

    print(f"{'workload':8} {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for workload, results in runs.items():
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name)
            print(f"{workload:8} {name:34} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.3f} {'' if bound is None else bound:>6}")


if __name__ == "__main__":
    main()
