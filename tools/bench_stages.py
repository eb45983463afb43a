"""Time the brute oracle, the count tensor, merit_grid and `verify` in process; write medians.

    python3 tools/bench_stages.py --out BENCH_<n>.json [--src LABEL=DIR ...]

Each --src names a package source directory (default: this checkout's src,
labelled "head"); give two to compare a change with its parent in one
session. Each of the ROUNDS rounds runs one fresh interpreter per source, in
alternating order, with BLAS pinned to one thread. The interpreter imports the
package from that directory, warms each stage up once and then times CALLS
calls of each stage:

- switch_two: two copies of one isotropic channel, one input;
- switch_n(2), switch_n(3), switch_n(4): the same channel, one input, the
  uniform control;
- counts(2), counts(3), counts(4): the cold count-tensor build and fold, with
  the caches of branch_pair_weight_counts, pauli_basis_monomials and
  _folded_counts cleared before each call;
- merit_grid(fom-scan): the default fom-scan grid at q = 0.5 (41 lambdas x
  180 phases of OutcomeFamily2, n = 2), built from the grid as the CLI does;
- merit_grid(three-path): the same default grid of OutcomeFamily3 against the
  uniform three-path control, the rows of the three-path phase scan (n = 3);
- merit_grid(n=4): 256 random (Haar control, Gaussian outcome) rows at n = 4;
- verify: verification.run_all's loop, with each check timed on its own.

A round reports the median of its CALLS calls per stage, and the file holds,
per source and stage, the median over rounds with the lowest and highest round
median. Times are wall seconds (time.perf_counter) on a shared machine;
compare sources from the same file only. Uses the standard library and numpy.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# fixed, so that every BENCH_*.json times the same run length
ROUNDS = 11
CALLS = 30


def _median_time(call):
    times = []
    for _ in range(CALLS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def worker():
    """One round in this interpreter: {stage: median s}, versions and flags."""
    import numpy as np
    from teleswitch import analysis, channels, cli, switch, verification

    ch = channels.isotropic_channel(0.2)
    rho = np.array([[0.7, 0.3 - 0.2j], [0.3 + 0.2j, 0.3]])
    control = switch.control_qubit(0.37)
    stages = {"switch_two": lambda: switch.switch_two(ch, ch, rho, control)}
    for n in (2, 3, 4):
        uniform = switch.uniform_control(n)
        stages[f"switch_n({n})"] = lambda n=n, c=uniform: switch.switch_n(ch, n, rho, c)

    def counts(n):
        for cached in (switch.branch_pair_weight_counts, switch.pauli_basis_monomials,
                       switch._folded_counts):
            cached.cache_clear()
        switch._folded_counts(n)

    for n in (2, 3, 4):
        stages[f"counts({n})"] = lambda n=n: counts(n)

    lams, phis = cli._scan_grids({})
    half, three = switch.control_qubit(0.5), switch.uniform_control(3)
    stages["merit_grid(fom-scan)"] = lambda: analysis.merit_grid(
        half, analysis.OutcomeFamily2.grid(lams, phis))
    stages["merit_grid(three-path)"] = lambda: analysis.merit_grid(
        three, analysis.OutcomeFamily3.grid(lams, phis))
    rng = np.random.default_rng(17)
    controls = [switch.ControlState(switch.haar_random_state(24, rng)) for _ in range(256)]
    outcomes = rng.standard_normal((256, 24)) + 1j * rng.standard_normal((256, 24))
    stages["merit_grid(n=4)"] = lambda: analysis.merit_grid(controls, outcomes, 4)

    def verify(spans):
        rng = np.random.default_rng(42)
        for check in verification.CHECKS:
            start = time.perf_counter()
            verification.run_check(check, rng, check.quick)
            spans.setdefault(check.name, []).append(time.perf_counter() - start)

    medians = {}
    for name, call in stages.items():
        call()
        medians[name] = _median_time(call)
    verify({})
    spans = {}
    medians["verify"] = _median_time(lambda: verify(spans))
    checks = {f"verify.{name}": statistics.median(times) for name, times in spans.items()}
    return {
        "stages": {**medians, **checks},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "bytecode_cache": not sys.dont_write_bytecode,
    }


def _round(src):
    env = {**os.environ, **PINNED, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, __file__, "--worker"],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", metavar="LABEL=DIR",
                        help="package source directory to time (repeatable)")
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        json.dump(worker(), sys.stdout)
        return 0
    if not args.out:
        parser.error("--out is required")
    specs = args.src or [f"head={ROOT / 'src'}"]
    if not all("=" in spec for spec in specs):
        parser.error("--src takes LABEL=DIR")
    sources = dict(spec.split("=", 1) for spec in specs)
    rounds = {label: [] for label in sources}
    for r in range(ROUNDS):
        order = list(sources.items())
        for label, src in order if r % 2 == 0 else order[::-1]:
            rounds[label].append(_round(str(Path(src).resolve())))
    runs = {}
    for label, results in rounds.items():
        stages = {}
        for name in results[0]["stages"]:
            values = [res["stages"][name] for res in results]
            stages[name] = {"median_s": statistics.median(values),
                            "min_s": min(values), "max_s": max(values)}
        runs[label] = {key: results[0][key] for key in ("python", "numpy", "bytecode_cache")}
        runs[label]["stages"] = stages
    report = {
        "tool": "tools/bench_stages.py",
        "rounds": ROUNDS,
        "calls_per_round": CALLS,
        "blas_threads": 1,
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count()},
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    for label, run in runs.items():
        for name, stage in run["stages"].items():
            print(f"{label:>8} {name:<48} {1e3 * stage['median_s']:9.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
