#!/usr/bin/env python3
"""End-to-end benchmark of anadex: real explorations, timed and checked.

Usage, from the root of a checkout:

    python3 anadex_bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 anadex_bench/run.py --pin      # rewrite references.json (default seed)

The first call builds anadex_bench/ (the library, the CLI and the runner)
into .bench_build/anadex_bench. Every exploration then runs in a fresh
runner process under a watchdog, is checked against reference fronts, and
the last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (medians over the runs
made in --seconds); with --trace 1 they are the per-layer ones of a traced
run. README.md lists the workloads, the metrics and what each should move.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "anadex_bench"
RUNNER = BUILD_DIR / "anadex_bench_runner"
WORKER = BUILD_DIR / "anadex"  # the CLI; process-mode shard workers exec it
REFERENCES = BENCH_DIR / "references.json"

DEFAULT_SEED = 1
SETUP_PROBES = 9
MAX_PARALLEL_REFS = 4

# expected_s: typical wall time of one run on a 4-core x86-64 box; the
# watchdog kills a run after WATCHDOG_FACTOR times that (at least
# WATCHDOG_MIN_S). inputs: how many distinct seeded inputs one benchmark
# run covers; front_area averages over all of them, and the timed runs
# cycle through them, so a run's figures do not hinge on one search path.
WORKLOADS = {
    "mesacga-paper": {"expected_s": 2.5, "inputs": 8},
    "island-threads4": {"expected_s": 1.3, "inputs": 8},
    "island-shards4": {"expected_s": 1.0, "inputs": 8},
    "serve-screen": {"expected_s": 2.0, "inputs": 4},
}
WATCHDOG_FACTOR = 10
WATCHDOG_MIN_S = 20.0
REF_WATCHDOG_S = 60.0
SERVE_JOBS = 20

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("front_area", "0.1mW_pF"),
    ("job_turnaround_p50_s", "s"),
    ("ok_ops_ratio", "ratio"),
]

PER_LAYER = [
    ("problems.evals", "count"),
    ("problems.faults", "count"),
    ("problems.tt_pass_ratio", "ratio"),
    ("scint.corner_us_per_eval", "us"),
    ("yield.mc_calls", "count"),
    ("yield.mc_us_per_call", "us"),
    ("yield.mc_share", "ratio"),
    ("engine.batches", "count"),
    ("engine.busy_s", "s"),
    ("engine.queue_wait_s", "s"),
    ("engine.idle_s", "s"),
    ("engine.utilization", "ratio"),
    ("engine.lat_max_over_mean", "ratio"),
    ("engine.lane_groups", "count"),
    ("engine.lane_fallbacks", "count"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.distinct_evals", "count"),
    ("sacga.gen_self_s", "s"),
    ("moga.rank_us_per_gen", "us"),
    ("moga.variation_us_per_gen", "us"),
    ("robust.checkpoint_writes", "count"),
    ("robust.checkpoint_bytes", "bytes"),
    ("robust.checkpoint_write_s", "s"),
    ("robust.checkpoint_read_s", "s"),
    ("obs.trace_bytes", "bytes"),
    ("obs.trace_overhead_s", "s"),
    ("serve.slices", "count"),
    ("serve.preemptions", "count"),
    ("serve.slice_overhead_s", "s"),
    ("shard.epochs", "count"),
    ("shard.migrant_files", "count"),
    ("shard.migrant_bytes", "bytes"),
    ("shard.idle_s", "s"),
    ("shard.busy_s", "s"),
    ("shard.restarts", "count"),
    ("run.wall_untraced_s", "s"),
    ("run.wall_traced_s", "s"),
    ("run.setup_s", "s"),
    ("run.unaccounted_s", "s"),
]



def log(message):
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"error: anadex sources not found under {ROOT}; run from a full checkout")
        sys.exit(2)
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "anadex_bench_runner",
                  "anadex", "--parallel", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850).returncode:
            log("error: benchmark build failed: " + " ".join(cmd))
            sys.exit(2)


# ---------------------------------------------------------------------------
# Runner processes under a watchdog


class Proc:
    """One runner process in its own process group (shard workers included)."""

    live = set()  # started and not yet finished; killed if run.py exits early

    def __init__(self, args, timeout_s):
        self.args = [str(RUNNER), *args]
        self.deadline = time.monotonic() + timeout_s
        self.popen = subprocess.Popen(self.args, stdout=subprocess.PIPE,
                                      stderr=subprocess.PIPE, text=True,
                                      start_new_session=True)
        Proc.live.add(self)

    def finish(self):
        """Returns (result dict or None, failure reason or None)."""
        Proc.live.discard(self)
        try:
            out, err = self.popen.communicate(
                timeout=max(0.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            kill_group(self.popen.pid)
            self.popen.communicate()
            return None, "killed by the watchdog: " + " ".join(self.args[1:])
        finally:
            kill_group(self.popen.pid)
        if self.popen.returncode != 0:
            return None, (f"exit {self.popen.returncode}: " + " ".join(self.args[1:]) +
                          "\n" + err.strip()[-2000:])
        lines = out.strip().splitlines()
        try:
            return json.loads(lines[-1]), None
        except (IndexError, json.JSONDecodeError):
            return None, "no result line: " + " ".join(self.args[1:])


def group_running(pgid):
    """True while a member of process group `pgid` has not yet exited. Orphaned
    workers of a killed runner stay zombies until init reaps them, and
    killpg() still reaches zombies, so it cannot tell by itself."""
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid and fields[0] not in ("Z", "X"):
            return True
    return False


def kill_group(pgid):
    """Kills what is left of a process group and waits until it has exited."""
    for _ in range(500):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            return
        if not group_running(pgid):
            return
        time.sleep(0.01)


def run_one(args, timeout_s):
    return Proc(args, timeout_s).finish()


def run_parallel(arg_lists, timeout_s):
    results = []
    for start in range(0, len(arg_lists), MAX_PARALLEL_REFS):
        procs = [Proc(a, timeout_s) for a in arg_lists[start:start + MAX_PARALLEL_REFS]]
        results.extend(p.finish() for p in procs)
    return results


def cpu_ticks():
    """Aggregate (busy, steal) CPU ticks from /proc/stat, or None off Linux."""
    try:
        fields = [int(x) for x in Path("/proc/stat").read_text().split("\n")[0].split()[1:]]
    except (OSError, ValueError):
        return None
    return sum(fields) - fields[3] - fields[4], fields[7] if len(fields) > 7 else 0


def steal_share(before, after):
    """Share of CPU time the hypervisor took away while the runs were timed:
    printed with the results because it, not the code, moves them on a
    shared host."""
    if before is None or after is None or after[0] == before[0]:
        return None
    return (after[1] - before[1]) / (after[0] - before[0])


# ---------------------------------------------------------------------------
# Inputs and references


def input_seeds(seed, count):
    """The seeded inputs of one benchmark run: distinct per seed, fixed per seed."""
    return [seed * 1000 + k + 1 for k in range(count)]


def ref_key(workload):
    # Both island workloads share one reference, so they must agree.
    return "island" if workload.startswith("island-") else workload


def compute_refs(workload, seeds):
    """seed -> {front id -> front} through the scalar oracle, or None if it failed."""
    jobs = []
    for s in seeds:
        if workload == "serve-screen":
            step = SERVE_JOBS // MAX_PARALLEL_REFS
            jobs += [(s, ["ref", "--workload", workload, "--seed", s, "--jobs",
                          f"{b}:{b + step}"]) for b in range(0, SERVE_JOBS, step)]
        else:
            jobs.append((s, ["ref", "--workload", workload, "--seed", s]))
    refs = {s: {} for s in seeds}
    errors = []
    outcomes = run_parallel([[str(a) for a in args] for _, args in jobs], REF_WATCHDOG_S)
    for (s, _), (result, error) in zip(jobs, outcomes):
        if error:
            errors.append(error)
            refs[s] = None
        elif refs[s] is not None:
            refs[s].update({f["id"]: f for f in result["fronts"]})
    return refs, errors


def load_pinned(workload, seed):
    if seed != DEFAULT_SEED or not REFERENCES.is_file():
        return None
    pinned = json.loads(REFERENCES.read_text())
    return pinned.get(ref_key(workload))


def same_front(a, b):
    return (a["digest"] == b["digest"] and a["evals"] == b["evals"]
            and a["front_area"] == b["front_area"])


def check_fronts(fronts, ref, pinned):
    """Returns the ids of fronts that are unfinished or differ from a reference."""
    bad = []
    for f in fronts:
        expected = ref.get(f["id"]) if ref else None
        pin = pinned.get(f["id"]) if pinned is not None else None
        if (f["state"] != "done" or expected is None or not same_front(f, expected)
                or (pinned is not None and (pin is None or not same_front(f, pin)))):
            bad.append(f["id"])
    return bad


# ---------------------------------------------------------------------------
# Modes


def common_args(workload, seed, work):
    return ["--workload", workload, "--seed", str(seed), "--work", str(work),
            "--worker", str(WORKER)]


def measure(workload, seed, seconds, work):
    spec = WORKLOADS[workload]
    watchdog = max(WATCHDOG_MIN_S, WATCHDOG_FACTOR * spec["expected_s"])
    seeds = input_seeds(seed, spec["inputs"])
    refs, errors = compute_refs(workload, seeds)
    pinned = load_pinned(workload, seed)
    attempted = failed = 0
    wrong_output = False
    for error in errors:
        log("reference failed: " + error)
    attempted += len(errors)
    failed += len(errors)

    setups = []
    for i in range(SETUP_PROBES):
        result, error = run_one(["probe", *common_args(workload, seeds[i % len(seeds)],
                                                       work / f"probe{i}")], watchdog)
        if error:
            log("setup probe failed: " + error)
            attempted += 1
            failed += 1
        else:
            setups.append(result["setup_s"])

    runs = []
    ops_per_run = SERVE_JOBS if workload == "serve-screen" else 1
    steal_before = cpu_ticks()
    start = time.monotonic()
    i = 0
    while i == 0 or time.monotonic() - start < seconds:
        s = seeds[i % len(seeds)]
        result, error = run_one(["run", *common_args(workload, s, work / f"run{i}")], watchdog)
        shutil.rmtree(work / f"run{i}", ignore_errors=True)
        i += 1
        attempted += ops_per_run
        if error:
            log("run failed: " + error)
            failed += ops_per_run
            continue
        pin = pinned.get(str(s), {}) if pinned is not None else None
        bad = check_fronts(result["fronts"], refs.get(s), pin)
        if bad:
            log(f"output check failed for seed {s}: {', '.join(bad)}")
            wrong_output = True
            failed += len(bad)
        runs.append(result)

    steal = steal_share(steal_before, cpu_ticks())

    def med(values):
        return statistics.median(values) if values else 0.0

    # front_area covers every input of the run: the oracle's fronts, which the
    # timed runs must reproduce exactly.
    areas = [f["front_area"] for s in seeds for f in (refs.get(s) or {}).values()]
    metrics = {
        "wall_s": med([r["wall_s"] for r in runs]),
        "setup_s": med(setups),
        "cpu_s": med([r["cpu_s"] for r in runs]),
        "peak_rss_mb": med([r["peak_rss_mb"] for r in runs]),
        "front_area": statistics.fmean(areas) if areas else 0.0,
        "job_turnaround_p50_s": med([med(r["turnaround_s"]) for r in runs]),
        "ok_ops_ratio": (attempted - failed) / attempted if attempted else 0.0,
    }
    correct = bool(runs) and not wrong_output and all(refs.values())
    walls = sorted(r["wall_s"] for r in runs)
    samples = {"runs": len(runs), "setup probes": len(setups), "inputs": len(seeds),
               "wall min/max": f"{walls[0]:.4g}/{walls[-1]:.4g}" if walls else "-",
               "cpu steal": f"{steal:.1%}" if steal is not None else "n/a"}
    return correct, attempted, failed, metrics, samples


def measure_trace(workload, seed, seconds, work):
    s = input_seeds(seed, WORKLOADS[workload]["inputs"])[0]
    refs, errors = compute_refs(workload, [s])
    pinned = load_pinned(workload, seed)
    for error in errors:
        log("reference failed: " + error)
    result, error = run_one(["trace", *common_args(workload, s, work / "trace"),
                             "--seconds", str(seconds)], seconds + 120.0)
    if error:
        log("traced run failed: " + error)
        return False, 1 + len(errors), 1 + len(errors), {}, {}, []
    pin = pinned.get(str(s), {}) if pinned is not None else None
    bad = check_fronts(result["fronts"], refs.get(s), pin)
    if bad:
        log(f"output check failed for seed {s}: {', '.join(bad)}")
    attempted = len(result["fronts"]) + len(errors)
    failed = len(bad) + len(errors)
    correct = not bad and not errors
    return correct, attempted, failed, result["metrics"], {"inputs": 1}, result["rows"]


def print_report(workload, seed, env, metrics, samples, units, rows):
    print(f"workload {workload}  seed {seed}  "
          + "  ".join(f"{k} {v}" for k, v in samples.items()))
    print("env " + json.dumps(env, sort_keys=True))
    for name, unit in units:
        if name in metrics:
            print(f"  {name:<28} {metrics[name]:>16.6g} {unit}")
    if rows:
        print("wall-time layers of the traced run (seconds):")
        for row in rows:
            print(f"  {row:<28} {metrics.get(row, 0.0):>12.6f}")
        print(f"  {'= run.wall_traced_s':<28} {metrics['run.wall_traced_s']:>12.6f}")
        print(f"  {'- obs.trace_overhead_s':<28} {metrics['obs.trace_overhead_s']:>12.6f}")
        print(f"  {'= run.wall_untraced_s':<28} {metrics['run.wall_untraced_s']:>12.6f}")


def pin_references():
    pinned = {}
    for workload in ("mesacga-paper", "island-threads4", "serve-screen"):
        seeds = input_seeds(DEFAULT_SEED, WORKLOADS[workload]["inputs"])
        refs, errors = compute_refs(workload, seeds)
        if errors:
            for error in errors:
                log(error)
            sys.exit(1)
        pinned[ref_key(workload)] = {str(s): refs[s] for s in seeds}
    pinned["seed"] = DEFAULT_SEED
    REFERENCES.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    log(f"wrote {REFERENCES}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="recompute references.json for the default seed")
    args = parser.parse_args()
    if not args.pin and args.workload is None:
        parser.error("--workload is required")
    if not 0 <= args.seed < 2**40:
        parser.error("--seed must be in [0, 2^40)")

    build()
    if args.pin:
        pin_references()
        return 0

    work = BUILD_DIR / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        env, error = run_one(["env"], 60.0)
        if error:
            log("environment probe failed: " + error)
            return 1
        if args.trace:
            correct, attempted, failed, metrics, samples, rows = measure_trace(
                args.workload, args.seed, args.seconds, work)
            units = PER_LAYER
        else:
            correct, attempted, failed, metrics, samples = measure(
                args.workload, args.seed, args.seconds, work)
            units, rows = END_TO_END, []
    finally:
        for proc in list(Proc.live):
            kill_group(proc.popen.pid)
            proc.popen.wait()
        shutil.rmtree(work, ignore_errors=True)

    print_report(args.workload, args.seed, env, metrics, samples, units, rows)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
