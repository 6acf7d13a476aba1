"""The repository benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                      # every workload, untraced

Untraced (``--trace 0``) it repeats the workload, one fresh process per
repetition (``worker.py``), while ``--seconds`` last, and reports the
end-to-end metrics as medians over repetitions and requests.  Traced
(``--trace 1``) it runs one untraced repetition and two traced ones on the same
inputs; the traced ones must give identical work counts, and their per-layer
split is reported with the tracing overhead.  Every run writes its result to
``perfbench/out/``; the last line of standard output is the result as JSON.
See NOTES.md for the workloads, the metrics and the measured noise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("potts-prism", "grid-matchings", "cli-batch")
SETUP_SAMPLES = 7  # set-up is timed in every repetition, topped up by set-up-only processes
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "fpt_s": "s",
    "simple_dp_s": "s",
    "fptas_s": "s",
    "req_p50_ms": "ms",
    "req_p99_ms": "ms",
    "req_per_s": "1/s",
    "peak_rss_mb": "MB",
}
METHOD_METRICS = {"fpt": "fpt_s", "simple": "simple_dp_s", "fptas": "fptas_s"}

# per-layer metric -> (span name, column of the span table: 0 calls, 1 seconds, 2 self seconds)
SPAN_METRICS = {
    "sepdecomp.find_min_width.s": ("sepdecomp.find_min_width", 1),
    "sepdecomp.balanced_separator.self_s": ("sepdecomp.balanced_separator", 2),
    "sepdecomp.validate.s": ("sepdecomp.validate", 1),
    "exact.fpt_init.s": ("exact.fpt_init", 1),
    "exact.fpt_holant.self_s": ("exact.fpt_holant", 2),
    "exact.simple_dp.self_s": ("exact.simple_dp", 2),
    "symfun.pin.s": ("symfun.pin", 1),
    "symfun.peer_partition.s": ("symfun.peer_partition", 1),
    "graphcore.restrict_instance.self_s": ("graphcore.restrict_instance", 2),
    "approx.marginal.self_s": ("approx.marginal", 2),
    "approx.tractable_search.s": ("approx.tractable_search", 1),
    "instancefile.parse.s": ("instancefile.parse", 1),
    "cli.main.self_s": ("cli.main", 2),
}
# work counts two traced runs of the same inputs must reproduce exactly
WORK_COUNTS = (
    "exact.memo_entries", "exact.terms", "exact.z0_entries",
    "values.add", "values.mul", "values.sub", "values.div",
    "symfun.pin.calls", "sepdecomp.balanced_separator.calls",
)


def spawn(workload, seed, rep, *flags):
    """Run repetition ``rep`` in a worker process to completion and return its JSON report."""
    spawned_at = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--rep", str(rep), "--spawned-at", repr(spawned_at), *flags]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=env,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["wall_s"] = time.monotonic() - spawned_at
    return report


def repetitions(workload, seed, seconds):
    """Closed loop: start another repetition while one more still fits in ``seconds``."""
    start = time.monotonic()
    reps = [spawn(workload, seed, 0)]
    while time.monotonic() - start + statistics.median(r["wall_s"] for r in reps) <= seconds:
        reps.append(spawn(workload, seed, len(reps)))
    return reps


def setup_times(workload, seed, reps):
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, len(setups), "--setup-only")["setup_s"])
    return setups


def end_to_end(reps, setups):
    ops = [op for r in reps for op in r["ops"]]
    latencies = [op[1] for op in ops]
    metrics = {"setup_s": statistics.median(setups)}
    for kind, name in METHOD_METRICS.items():
        metrics[name] = statistics.median(op[1] for op in ops if op[0] == kind)
    metrics["req_p50_ms"] = 1000 * statistics.median(latencies)
    metrics["req_p99_ms"] = 1000 * statistics.quantiles(latencies, n=100, method="inclusive")[98]
    metrics["req_per_s"] = len(ops) / sum(latencies)
    metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in reps)
    samples = {"setup_s": len(setups), "req_p50_ms": len(ops), "req_p99_ms": len(ops),
               "req_per_s": len(ops), "peak_rss_mb": len(reps)}
    for kind, name in METHOD_METRICS.items():
        samples[name] = sum(op[0] == kind for op in ops)
    return metrics, samples


def per_layer(traced, untraced):
    first = traced[0]
    spans, counts = first["spans"], first["counts"]
    metrics = {f"{name}.calls": row[0] for name, row in spans.items()}
    for metric, (span, col) in SPAN_METRICS.items():
        metrics[metric] = statistics.median(t["spans"][span][col] for t in traced)
    metrics.update((k, v) for k, v in counts.items() if k != "cli.exit_other")
    metrics["trace.spans"] = first["span_count"]
    traced_s = statistics.median(sum(op[1] for op in t["ops"]) for t in traced)
    untraced_s = sum(op[1] for op in untraced["ops"])
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1
    return metrics


def unit_of(metric):
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric == "trace.overhead_frac":
        return "fraction"
    return "count"


def work_counts(report):
    calls = {f"{name}.calls": row[0] for name, row in report["spans"].items()}
    return {name: {**report["counts"], **calls}[name] for name in WORK_COUNTS}


def run(workload, seed, seconds, trace):
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}")
    problems = []
    if trace:
        untraced = spawn(workload, seed, 0)
        traced = [spawn(workload, seed, 0, "--trace", "--spans-out", stem + ".spans.csv.gz"),
                  spawn(workload, seed, 0, "--trace")]
        reps = [untraced] + traced
        metrics = per_layer(traced, untraced)
        samples = {}
        counts = [work_counts(t) for t in traced]
        if counts[0] != counts[1]:
            problems.append(f"work counts differ between two traced runs: {counts[0]} != {counts[1]}")
    else:
        reps = repetitions(workload, seed, seconds)
        metrics, samples = end_to_end(reps, setup_times(workload, seed, reps))
    ops = [op for r in reps for op in r["ops"]]
    failed = [op for op in ops if not op[2]]
    problems += [f"{op[0]} request failed: {op[3]}" for op in failed[:5]]
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "trace": trace, "result": result,
                   "samples": samples, "problems": problems,
                   "work_counts": [work_counts(t) for t in reps if "counts" in t],
                   "repetitions": reps}, fh, indent=1)
    print(f"{workload} seed={seed} trace={int(trace)}: {len(reps)} repetitions, "
          f"{len(ops)} requests, failed_frac {len(failed) / len(ops):.4g}")
    for name, m in result["metrics"].items():
        n = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}{n}")
    for p in problems:
        print(f"  PROBLEM: {p}", file=sys.stderr)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "holant", "__init__.py")):
        print(f"error: no engine source at {os.path.join(ROOT, 'src', 'holant')}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
