"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                                  [--out perfbench/baselines/BENCH_x.json]

Each run is a separate process, one after another. For every workload and
metric the summary gives the median of the runs and the spread: the
distance between the first and third quartiles (``statistics.quantiles``
with n=4) as a share of the median. An end-to-end metric whose spread
exceeds a third of its bound in BENCHMARK.json is flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result, record) of one benchmark process."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    record = next(json.loads(line)["record"] for line in lines
                  if line.startswith('{"record"'))
    return json.loads(lines[-1]), record


def summarise(values: list[float]) -> dict:
    middle = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (middle,) * 3
    return {"median": middle, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / middle if middle else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default: every workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, metavar="PATH")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])

    report = {"trace": args.trace, "seconds": spec["run_seconds"],
              "seeds": args.seeds, "workloads": {}}
    flagged = 0
    for workload in workloads:
        runs = []
        for seed in args.seeds:
            result, record = run_once(workload, seed, spec["run_seconds"], args.trace)
            report["machine"] = record.pop("machine")
            record.pop("instances")
            runs.append({"seed": seed, "result": result, "record": record})
        names = runs[0]["result"]["metrics"]
        summary = {name: summarise([r["result"]["metrics"][name]["value"] for r in runs])
                   for name in names}
        report["workloads"][workload] = {"summary": summary, "runs": runs}
        print(f"== {workload}: correct {all(r['result']['correct'] for r in runs)}")
        for name, stats in summary.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and stats["spread"] > bound / 3:
                flag = f"  spread over a third of bound {bound}"
                flagged += 1
            print(f"  {name:32} median {stats['median']:14.6f} "
                  f"spread {stats['spread']:8.4f}{flag}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
