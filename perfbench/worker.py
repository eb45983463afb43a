"""One fresh interpreter that sets the package up and runs a workload.

    python3 perfbench/worker.py --setup-only
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --out-dir DIR

Prints one JSON object on its last stdout line. The package must be importable
from the checkout's ``src`` directory (run.py sets PYTHONPATH).
"""
import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import tracer as tracing  # standard library only at import

# Other tenants of the shared machine slow every process on it by up to about
# 1.8x for seconds to minutes, and CPU time rises with wall time. So every
# reported time is rescaled by the speed of a fixed kernel, timed between calls
# in the same process: time * REFERENCE_KERNEL_S / (median kernel time). The
# kernel does the kind of work the package's hot paths do, with none of its code.
REFERENCE_KERNEL_S = 5.5e-3  # about the kernel's median on a quiet machine
CALIBRATION_INTERVAL_S = 0.2  # at most one kernel run per this much call time
MIN_PASSES = 2


def kernel_seconds():
    """Wall time of one run of the fixed speed-calibration kernel."""
    import numpy as np
    from numpy.polynomial import polynomial as P

    coeffs = np.array([1.0, -2.0, 0.5, 0.25, 0.1])
    small, large = np.linspace(0.0, 1 / 3, 9), np.linspace(0.0, 1 / 3, 3001)
    t0 = time.perf_counter()
    cells = []
    for i in range(300):
        peak = float(np.max(np.abs(P.polyval(small, coeffs))))
        cells.append(f"{peak * i:.12g}")
        row = {"i": i, "peak": peak}
        cells.append(float(np.asarray([row["i"], row["peak"]], dtype=float).sum()))
    for _ in range(4):
        values = P.polyval(large, coeffs).tolist()
        cells.append(sum(1 for a, b in zip(values, values[1:]) if a * b < 0))
    return time.perf_counter() - t0


def speed_factors(kernel, marks, window=2):
    """Scale from measured to reference seconds for each call.

    ``kernel`` holds kernel times in the order they were taken; call i ran
    after kernel[marks[i] - 1] and before kernel[marks[i]]. Each call uses the
    median of the ``window`` kernel runs on either side of it.
    """
    return [REFERENCE_KERNEL_S / statistics.median(kernel[max(0, j - window):j + window])
            for j in marks]


def lazy_setup(ts):
    """The package's lazy set-up: cold count-tensor and monomial builds."""
    for n in (2, 3, 4):
        ts.switch.branch_pair_weight_counts(n)
        ts.switch.pauli_basis_monomials(n)


def setup(trace, src):
    """Import the package and finish lazy set-up; returns (package, seconds, tracer)."""
    t0 = time.perf_counter()
    import teleswitch as ts
    import teleswitch.cli  # noqa: F401  (binds ts.cli)

    if not Path(ts.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"teleswitch imported from {ts.__file__}, not from {src}")
    tracer = None
    if trace:
        tracer = tracing.Tracer(ts)
        tracer.install()
        with tracer.phase("setup"):
            lazy_setup(ts)
        tracer.uninstall()
    else:
        lazy_setup(ts)
    return ts, time.perf_counter() - t0, tracer


def _digest(output):
    return hashlib.blake2b(repr(output).encode(), digest_size=16).hexdigest()


class Runner:
    """Runs passes of a workload's calls and keeps what the checks need."""

    def __init__(self, calls, tracer=None):
        self.calls = calls
        self.tracer = tracer
        self.first = None  # outputs of the first pass, checked in full
        self.digests = None
        self.failed = [0] * len(calls)  # per call, over all passes
        self.attempted = 0
        self.pass_walls = []  # reference seconds
        self.latencies = []  # reference seconds
        self.raw_walls = []  # measured seconds
        self.kernel = [kernel_seconds()]  # speed-calibration kernel times
        self.call_factors = []  # the last pass's, per call

    def run_pass(self, traced=False):
        """Runs one pass; returns its wall time in reference seconds."""
        outputs, latencies, marks = [], [], []
        since_kernel = 0.0
        for call in self.calls:
            t0 = time.perf_counter()
            try:
                if traced:
                    with self.tracer.span(f"bench.{call.kind}"):
                        result = call.run()
                else:
                    result = call.run()
                error = None
            except Exception as exc:  # a failed call counts its operations as failed
                result, error = None, exc
            dt = time.perf_counter() - t0
            latencies.append(dt)
            marks.append(len(self.kernel))
            outputs.append((result, error))
            since_kernel += dt
            if since_kernel >= CALIBRATION_INTERVAL_S:
                self.kernel.append(kernel_seconds())
                since_kernel = 0.0
        self.kernel.append(kernel_seconds())
        self.call_factors = speed_factors(self.kernel, marks)
        scaled = [dt * f for dt, f in zip(latencies, self.call_factors)]
        self.raw_walls.append(sum(latencies))
        self.latencies += scaled
        self.pass_walls.append(sum(scaled))
        # bookkeeping below stays outside the pass's wall time
        for i, (call, (result, error)) in enumerate(zip(self.calls, outputs)):
            self.attempted += call.ops
            if error is not None:
                print(f"call {call.kind} raised {error!r}", file=sys.stderr)
                self.failed[i] += call.ops
                outputs[i] = None
                continue
            outputs[i] = call.collect(result)
        digests = [None if out is None else _digest(out) for out in outputs]
        if self.first is None:
            self.first, self.digests = outputs, digests
        else:
            for i, (call, digest) in enumerate(zip(self.calls, digests)):
                if digest is not None and digest != self.digests[i]:
                    # every pass repeats the same inputs, so outputs must repeat
                    self.failed[i] += call.ops
        return self.pass_walls[-1]

    def check(self, rng):
        """Full correctness gate on the first pass's outputs."""
        per_call = []
        for call, output in zip(self.calls, self.first):
            if output is None:
                per_call.append(0)  # already counted when it raised
                continue
            try:
                bad = min(call.check(output, rng), call.ops)
            except Exception as exc:
                print(f"check of {call.kind} raised {exc!r}", file=sys.stderr)
                bad = call.ops
            if bad:
                print(f"check of {call.kind}: {bad} of {call.ops} operations wrong",
                      file=sys.stderr)
            per_call.append(bad)
        # a wrong first-pass output is wrong in every pass that repeated it
        passes = len(self.pass_walls)
        for i, (call, bad) in enumerate(zip(self.calls, per_call)):
            self.failed[i] = min(self.failed[i] + bad * passes, call.ops * passes)
        return sum(self.failed)


def run_workload(args):
    ts, setup_s, tracer = setup(args.trace, args.src)
    setup_factor = speed_factors([kernel_seconds() for _ in range(3)], [2])[0]

    import numpy as np

    import workloads

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    calls, warmup = workloads.build(args.workload, ts, args.seed, out_dir)
    for fn in warmup:
        fn()

    runner = Runner(calls, tracer)
    untraced, traced, traced_factors = [], [], []
    start = time.perf_counter()
    while True:
        if args.trace:
            # alternate untraced and traced passes; their difference is the overhead
            is_traced = len(traced) < len(untraced)
            if is_traced:
                tracer.install()
                with tracer.phase("pass"):
                    traced.append(runner.run_pass(traced=True))
                tracer.uninstall()
                traced_factors.append(runner.call_factors)
            else:
                untraced.append(runner.run_pass())
        else:
            runner.run_pass()
        elapsed = time.perf_counter() - start
        # two passes at least, and one of each kind when tracing, so that a
        # slow machine does not change how many calls the percentiles see
        done = len(runner.raw_walls) >= MIN_PASSES and (not args.trace or traced)
        if done and elapsed + statistics.median(runner.raw_walls) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = runner.check(np.random.default_rng([args.seed, 99]))
    result = {
        "workload": args.workload,
        "setup_s": setup_s * setup_factor,
        "raw_setup_s": setup_s,
        "pass_walls": runner.pass_walls,
        "raw_walls": runner.raw_walls,
        "speed_factors": [raw and ref / raw for ref, raw in
                          zip(runner.pass_walls, runner.raw_walls)],
        "latencies": runner.latencies,
        "attempted": runner.attempted,
        "failed": failed,
        # operations completed in a median pass; every pass makes the same calls
        "ops_per_s": (runner.attempted - failed) / len(runner.pass_walls)
        / statistics.median(runner.pass_walls),
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        import layers

        result["untraced_walls"] = untraced
        result["traced_walls"] = traced
        result["layers"] = layers.summarize(
            tracer, traced_factors, setup_factor,
            statistics.median(traced) - statistics.median(untraced))
        tracer.save(out_dir / f"spans-{args.workload}.npz")
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", default="src")
    parser.add_argument("--out-dir", default="perfbench/_out")
    args = parser.parse_args()
    if args.setup_only:
        _, setup_s, _ = setup(False, args.src)
        factor = speed_factors([kernel_seconds() for _ in range(3)], [2])[0]
        result = {"setup_s": setup_s * factor, "raw_setup_s": setup_s}
    else:
        result = run_workload(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
