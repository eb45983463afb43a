"""Benchmark of the teleswitch package: one seeded workload per run.

    python3 perfbench/run.py --workload merit-scan|curves|oracle|all \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src`` directory. The run spawns fresh interpreters: a few that
only import the package and finish its lazy set-up (for ``setup_s``), then one
worker that runs the workload's passes for about S seconds, checks every
output against independent references and reports its own peak RSS.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics named in BENCHMARK.json, and the
full per-layer table and tracing overhead are printed above it. ``all`` runs
the three workloads in turn, each ending with its own JSON line. The exit code
is 1 when any correctness check fails and 2 when the package is missing.
See NOTES.md for the workloads and the metrics.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "_out"

WORKLOADS = ("merit-scan", "curves", "oracle")  # see workloads.build
# set-up-only interpreters spawned before and after the worker; with the
# worker's own set-up the median is over eight samples spread across the run
SETUP_SPAWNS = (4, 3)
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10  # a tail percentile needs at least this many samples above it
WORKER_GRACE_S = 150  # warm-up, checks and one overrunning pass


def tail(samples):
    """(percentile, value): the highest ladder percentile with MIN_BEYOND
    samples beyond it, by nearest rank; (None, None) when there are too few."""
    ordered = sorted(samples)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100 * len(ordered))
        if len(ordered) - rank >= MIN_BEYOND:
            return pct, ordered[rank - 1]
    return None, None


def spawn(args, timeout):
    env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), "--src", str(SRC), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(result, setup_samples):
    walls = result["pass_walls"]
    calls_ms = [1e3 * t for t in result["latencies"]]
    wall_pct, wall_tail = tail(walls)
    call_pct, call_tail = tail(calls_ms)
    if call_pct is None:  # fewer than 2 * MIN_BEYOND calls: fall back to the median
        call_pct, call_tail = 50.0, statistics.median(calls_ms)
    attempted, failed = result["attempted"], result["failed"]
    lines = [
        "times are in reference seconds: measured time x speed factor (see worker.py)",
        "speed factors of the passes: "
        + " ".join(f"{f:.3f}" for f in result["speed_factors"])
        + f"; measured median pass {statistics.median(result['raw_walls']):.4f} s",
        f"setup_s: median of {len(setup_samples)} fresh interpreters",
        f"wall_s: median over {len(walls)} passes"
        + (f", p{wall_pct:g} {wall_tail:.4f} s" if wall_pct else
           f"; no percentile has {MIN_BEYOND} passes beyond it"),
        f"call latency: {len(calls_ms)} calls, p50 and p{call_pct:g} reported",
        f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted} operations)",
    ]
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "ops_per_s": (result["ops_per_s"], "1/s"),
        "call_p50_ms": (statistics.median(calls_ms), "ms"),
        "call_tail_ms": (call_tail, "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    return lines, metrics


def per_layer(result):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    layers = result["layers"]
    lines = [f"{name} {m['value']:.6g} {m['unit']}" for name, m in layers.items()]
    lines.append(
        f"tracing overhead: traced pass {statistics.median(result['traced_walls']):.4f} s"
        f" - untraced pass {statistics.median(result['untraced_walls']):.4f} s"
        f" = {layers['trace.overhead_s']['value']:.4f} s")
    metrics = {}
    for entry in spec:
        m = layers[entry["name"]]
        if m["unit"] != entry["unit"]:
            raise RuntimeError(f"{entry['name']}: unit {m['unit']} != {entry['unit']}")
        metrics[entry["name"]] = (m["value"], m["unit"])
    return lines, metrics


def run(workload, seed, seconds, trace):
    """Runs one workload, prints its lines and JSON result; returns the exit code."""

    def setup_probes(count):
        return [spawn(["--setup-only"], timeout=60)["setup_s"]
                for _ in range(0 if trace else count)]

    setup_samples = setup_probes(SETUP_SPAWNS[0])
    result = spawn(
        ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--out-dir", str(OUT_DIR)],
        timeout=seconds + WORKER_GRACE_S,
    )
    setup_samples += [result["setup_s"]] + setup_probes(SETUP_SPAWNS[1])
    if trace:
        lines, metrics = per_layer(result)
    else:
        lines, metrics = end_to_end(result, setup_samples)
    for line in lines:
        print(f"{workload}: {line}")
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "teleswitch" / "__init__.py").is_file():
        print(f"perfbench: no teleswitch package under {SRC}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run(w, args.seed, args.seconds, args.trace) for w in workloads)


if __name__ == "__main__":
    sys.exit(main())
