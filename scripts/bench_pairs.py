#!/usr/bin/env python3
"""Alternating parent/change pairs of one anadex_bench workload, folded into
one BENCH_*.json: per side the median and quartiles of every end-to-end
metric, the pairs each side won, the CPU steal of every run and the env
stamp the benchmark printed.

Usage:
    bench_pairs.py --parent DIR --change DIR --workload W [--pairs N]
                   [--seed S] [--seconds T] --out FILE

DIR is a checkout holding anadex_bench/ (each builds its own copy on its
first run). Pair i runs seed S + i; even pairs run the parent first, odd
pairs the change, so drift on a shared host hits both sides alike. Only
the standard library is used.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

LOWER_IS_BETTER = {"wall_s", "setup_s", "cpu_s", "peak_rss_mb", "front_area",
                   "job_turnaround_p50_s"}


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, str(root / "anadex_bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True, check=True).stdout.splitlines()
    result = json.loads(out[-1])
    steal = env = None
    for line in out:
        if line.startswith("workload ") and "cpu steal " in line:
            steal = line.split("cpu steal ", 1)[1].split()[0]
        if line.startswith("env "):
            env = json.loads(line[4:])
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "cpu_steal": steal, "env": env,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        pair = {side: run_side(getattr(args, side), args.workload, seed, args.seconds)
                for side in order}
        pairs.append(pair)
        print(f"pair {i + 1}/{args.pairs} seed {seed}: " + "  ".join(
            f"{side} wall_s {pair[side]['metrics']['wall_s']:.4g}" for side in order),
            file=sys.stderr, flush=True)

    metrics = {}
    for name in pairs[0]["parent"]["metrics"]:
        sides = {side: [p[side]["metrics"][name] for p in pairs] for side in ("parent", "change")}
        better = (lambda c, p: c < p) if name in LOWER_IS_BETTER else (lambda c, p: c > p)
        worse = (lambda c, p: c > p) if name in LOWER_IS_BETTER else (lambda c, p: c < p)
        metrics[name] = {
            "parent": spread(sides["parent"]),
            "change": spread(sides["change"]),
            "change_won": sum(better(c, p) for c, p in zip(sides["change"], sides["parent"])),
            "parent_won": sum(worse(c, p) for c, p in zip(sides["change"], sides["parent"])),
        }
    summary = {
        "bench": args.workload.replace("-", "_"),
        "command": f"python3 anadex_bench/run.py --workload {args.workload} "
                   f"--seed <{args.seed}..{args.seed + args.pairs - 1}> --seconds {args.seconds:g}",
        "pairs": args.pairs,
        "all_correct": all(p[s]["correct"] and p[s]["failed"] == 0
                           for p in pairs for s in ("parent", "change")),
        "env": pairs[0]["change"]["env"],
        "metrics": metrics,
        "runs": pairs,
    }
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
