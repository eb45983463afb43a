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
  the caches of branch_pair_weight_counts, pauli_basis_monomials and the fold
  (sign_vector_counts and _gram_fold; _folded_counts in sources from before
  the Gram form) cleared before each call;
- merit_grid(fom-scan): the default fom-scan grid at q = 0.5 (41 lambdas x
  180 phases of OutcomeFamily2, n = 2), built from the grid as the CLI does;
- merit_grid(three-path): the same default grid of OutcomeFamily3 against the
  uniform three-path control, the rows of the three-path phase scan (n = 3);
- merit_grid(n=4): 256 random (Haar control, Gaussian outcome) rows at n = 4,
  the path count read from the 24-dimensional controls;
- weights(fom-scan), weights(three-path), weights(n=4): gamma -> (num, den)
  alone on the three grids above, gamma built once from the normalized rows;
- _root_real_parts(fom-scan), _root_real_parts(three-path): kink location
  alone on the two grids above: num - (2/3) den of every row, built once,
  solved _BLOCK_ROWS rows at a time as merit_grid's blocks are;
- degenerate column (three-path 1e-4): three-path's degenerate column at
  --p-step 1e-4 (3,335 points, the four caption alphas), from a mask computed
  once;
- _emit_tables(region-map, csv), _emit_tables(region-map, json): the tables
  of region-map at default flags, computed once, written by cli._emit_tables
  to --out files in a temporary directory, as CSV (two files) and as JSON;
- _emit_tables(region-map 1e-4, csv), _emit_tables(fidelity-curves 1e-4, csv):
  the same for region-map and fidelity-curves at --p-step 1e-4, as CSV;
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
import tempfile
import time
from pathlib import Path
from unittest import mock

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

    # sources from before the Gram form fold the counts in _folded_counts and
    # return W[g, k] from the weight stack, which _ratio_polynomials sums
    caches = [getattr(switch, name) for name in (
        "branch_pair_weight_counts", "pauli_basis_monomials", "sign_vector_counts", "_gram_fold",
        "_folded_counts") if hasattr(switch, name)]
    fold = getattr(switch, "_gram_fold", getattr(switch, "_folded_counts", None))

    def counts(n):
        for cached in caches:
            cached.cache_clear()
        fold(n)

    def ratio_polynomials(gamma):
        weights = switch.post_selected_weight_stack(gamma)
        if hasattr(analysis, "_ratio_polynomials"):
            return analysis._ratio_polynomials(weights)
        return weights

    for n in (2, 3, 4):
        stages[f"counts({n})"] = lambda n=n: counts(n)

    lams, phis = cli._scan_grids({})
    half, three = switch.control_qubit(0.5), switch.uniform_control(3)
    stages["merit_grid(fom-scan)"] = lambda: analysis.merit_grid(
        half, analysis.OutcomeFamily2.grid(lams, phis))
    stages["merit_grid(three-path)"] = lambda: analysis.merit_grid(
        three, analysis.OutcomeFamily3.grid(lams, phis))

    def gamma_of(controls, outcomes):
        amps, outcomes = analysis._rows(controls, outcomes)
        return amps * outcomes.conj()

    def kink_blocks(gamma):
        num, den = ratio_polynomials(gamma)
        g = num - analysis.CLASSICAL_THRESHOLD * den
        return [g[i:i + analysis._BLOCK_ROWS] for i in range(0, len(g), analysis._BLOCK_ROWS)]

    rng = np.random.default_rng(17)
    controls = [switch.ControlState(switch.haar_random_state(24, rng)) for _ in range(256)]
    outcomes = rng.standard_normal((256, 24)) + 1j * rng.standard_normal((256, 24))
    stages["merit_grid(n=4)"] = lambda: analysis.merit_grid(controls, outcomes)
    gammas = {"fom-scan": gamma_of(half, analysis.OutcomeFamily2.grid(lams, phis)),
              "three-path": gamma_of(three, analysis.OutcomeFamily3.grid(lams, phis)),
              "n=4": gamma_of(controls, outcomes)}
    for label, gamma in gammas.items():
        stages[f"weights({label})"] = lambda gamma=gamma: ratio_polynomials(gamma)
    for label in ("fom-scan", "three-path"):
        blocks = kink_blocks(gammas[label])
        stages[f"_root_real_parts({label})"] = lambda blocks=blocks: [
            analysis._root_real_parts(block) for block in blocks]

    fine = cli._p_grid({"p_min": 0.0, "p_max": 1 / 3, "p_step": 1e-4})
    labels = [a.label() for a in cli.CAPTION_ALPHAS]
    zero = analysis.alpha_fidelity_profile(cli.CAPTION_ALPHAS, fine)[1]

    def degenerate_column():
        if hasattr(cli, "_degenerate_column"):
            return cli._degenerate_column(labels, zero)
        # the mask-pattern form of sources from before the integer codes
        patterns, inverse = np.unique(zero.T, axis=0, return_inverse=True)
        names = np.array(labels)
        return np.array([";".join(names[flags]) for flags in patterns])[inverse.ravel()]

    stages["degenerate column (three-path 1e-4)"] = degenerate_column

    written = tempfile.TemporaryDirectory()
    for label, command, flags, fmts in [
        ("region-map", cli.cmd_region_map, {}, ("csv", "json")),
        ("region-map 1e-4", cli.cmd_region_map, {"p_step": 1e-4}, ("csv",)),
        ("fidelity-curves 1e-4", cli.cmd_fidelity_curves, {"p_step": 1e-4}, ("csv",)),
    ]:
        emitted = []
        with mock.patch.object(cli, "_emit_tables", lambda *args: emitted.append(args)):
            command({**cli.DEFAULTS, **flags})
        cfg, *args = emitted[0]
        for fmt in fmts:
            out = {**cfg, "format": fmt, "out": str(Path(written.name, f"{len(stages)}.{fmt}"))}
            stages[f"_emit_tables({label}, {fmt})"] = (
                lambda out=out, args=args: cli._emit_tables(out, *args))

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
    written.cleanup()
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
