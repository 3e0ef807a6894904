"""Repeat run.py over seeds and summarise every metric per workload.

    python3 perfbench/record.py --seeds 1-10 --trace-seeds 1-2 --out perfbench/results/BENCH_<commit>.json

Reads the workloads and run length from BENCHMARK.json, runs each workload
with --trace 0 on every seed of --seeds and with --trace 1 on every seed of
--trace-seeds, one run after another, prints every metric
by name with its unit, and for each metric the median, the quartiles and the
spread (quartile distance over median). With --out it also writes all of
that, plus the machine stamp, as one JSON results file; a later change
compares its own file against it.
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

sys.path.insert(0, HERE)
from run import unit_of  # noqa: E402


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace-seeds", default=None,
                        help="seeds for the traced runs (default: none)")
    parser.add_argument("--out", default=None, help="write the results file here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    runs, summary = [], {}
    plan = [(0, seed_list(args.seeds))]
    if args.trace_seeds:
        plan.append((1, seed_list(args.trace_seeds)))
    for trace, seeds in plan:
        for workload in workloads:
            per_metric: dict[str, list[float]] = {}
            for seed in seeds:
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                     "--trace", str(trace)],
                    cwd=ROOT, capture_output=True, text=True)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stdout + proc.stderr)
                    return proc.returncode
                result = json.loads(proc.stdout.splitlines()[-1])
                detail_path = os.path.join(ROOT, ".bench_work",
                                           f"{workload}-{seed}-trace{trace}.json")
                with open(detail_path, encoding="utf-8") as fh:
                    detail = json.load(fh)
                metrics = detail["metrics"]
                runs.append({"workload": workload, "seed": seed, "trace": trace,
                             "result": result, "metrics": metrics,
                             "self_s": detail["self_s"], "stamp": detail["stamp"]})
                print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} "
                      + " ".join(f"{k}={v['value']:.6g}{v['unit']}"
                                 for k, v in result["metrics"].items()), flush=True)
                for name, value in metrics.items():
                    per_metric.setdefault(name, []).append(value)
            summary[f"{workload}/trace{trace}"] = {
                name: dict(summarise(values), unit=unit_of(name))
                for name, values in sorted(per_metric.items())}

    for key, metrics in summary.items():
        for name, s in metrics.items():
            print(f"{key} {name}: median {s['median']:.6g} {s['unit']} "
                  f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, spread {s['spread']:.3f})")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"schema_version": 1, "stamp": runs[0]["stamp"],
                       "run_seconds": bench["run_seconds"], "seeds": args.seeds,
                       "trace_seeds": args.trace_seeds,
                       "summary": summary, "runs": runs}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
