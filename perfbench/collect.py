"""Run the benchmark over several seeds and summarise each metric.

Usage (from the repository root):

    python3 perfbench/collect.py --seeds 1-10 [--workloads lsmc_oracle,tree_markov] [--trace 0] [--out FILE]

Runs `perfbench/run.py` once per (workload, seed), one after another, with
the run length from BENCHMARK.json, and reports per workload and metric the
median, the quartiles from statistics.quantiles(values, n=4) and the
interquartile range as a share of the median, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    report = {"run_seconds": bench["run_seconds"], "trace": args.trace, "seeds": args.seeds, "workloads": {}}
    for name in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if out.returncode != 0:
                print(f"{name} seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
                return 1
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["provenance"] = json.loads(lines[-2])["provenance"]
            runs.append(result)
            print(f"{name} seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            summary[metric] = {
                "unit": runs[0]["metrics"][metric]["unit"], "median": med, "q1": q1, "q3": q3,
                "iqr_share": (q3 - q1) / med if med else None, "bound": bounds.get(metric), "values": values,
            }
            share = f"{summary[metric]['iqr_share']:.4f}" if med else "n/a"
            print(f"  {name} {metric}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} iqr/median {share} "
                  f"bound {bounds.get(metric)}")
        report["workloads"][name] = {
            "correct": [r["correct"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "metrics": summary,
            "provenance": runs[0]["provenance"],
        }
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
