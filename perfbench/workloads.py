"""The three seeded workloads: the calls of one pass and their correctness gates.

A workload is a closed loop with one client: each call into the package starts
when the previous one has returned. Every pass of a run makes the same calls
with the same inputs, which are drawn from the run's seed. Each call knows how
many operations it should produce and how to check them against
``reference``; the checks run after the timed passes.
"""
import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import reference as ref

P_STEPS = (1e-3, 1e-4)

# the CLI's default fom-scan grid: 41 lambdas by 180 phases
SCAN_LAMBDAS = np.linspace(0.0, 2.0, 41)
SCAN_PHIS = np.arange(0.0, 2 * math.pi, math.pi / 90)


class Call:
    """One timed call into the package.

    run() makes the call; collect() turns its result into the stored output
    outside the timed region; check(output, rng) returns the number of failed
    operations out of ``ops``.
    """

    def __init__(self, kind, run, ops, check, collect=None):
        self.kind = kind
        self.run = run
        self.ops = ops
        self.check = check
        self.collect = collect or (lambda result: result)


def _cli(ts, argv):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = ts.cli.main(list(argv))
        return code, buf.getvalue()

    return run


def _num(x):
    return f"{x:.6g}"


def _table(output, columns, rows):
    """Parsed rows, or None when the call failed or the table has the wrong shape."""
    code, text = output
    header, body = ref.parse_csv(text)
    if code != 0 or header != columns or len(body) != rows:
        return None
    return body


# --------------------------------------------------------------------------
# merit-scan: the figure-of-merit grids users run
# --------------------------------------------------------------------------


def _check_merit_rows(ts, body, rows, control, vector, n, key_cols, rng, samples):
    """Sampled K values against brute-recovered merits; returns failures."""
    failed = 0
    for i in rng.choice(len(body), size=min(samples, len(body)), replace=False):
        keys = [float(body[i][c]) for c in key_cols]
        k_ref = ref.brute_merit(ts, control, vector(*rows[i]), n)
        if not all(ref.close(a, b, 1e-9) for a, b in zip(keys, rows[i])):
            failed += 1
        elif not ref.close(body[i][-1], k_ref, ref.MERIT_TOL):
            failed += 1
    return failed


def merit_scan(ts, seed):
    rng = np.random.default_rng([seed, 0])
    q = round(float(rng.uniform(0.05, 0.95)), 4)
    lams3 = [round(float(x), 4) for x in rng.uniform(0.0, 2.0, 6)]
    q_opt = round(float(rng.uniform(0.05, 0.95)), 4)
    opt_lams = sorted(round(float(x), 4) for x in rng.uniform(0.0, 2.0, 6))
    opt_phis = sorted(round(float(x), 4) for x in rng.uniform(0.0, 2 * math.pi, 30))

    calls = []
    # the default 41 x 180 grid, one CLI call per lambda row: the same K values
    # and code path as one default call, in calls short enough that the speed
    # calibration between calls follows the machine's load
    for lam in SCAN_LAMBDAS:
        def row_check(output, crng, lam=float(lam)):
            body = _table(output, ["lambda", "phi", "K"], len(SCAN_PHIS))
            if body is None:
                return len(SCAN_PHIS)
            rows = [(lam, float(phi)) for phi in SCAN_PHIS]
            control = ref.qubit_control(ts, q)
            return _check_merit_rows(ts, body, rows, control, ref.outcome2, 2, (0, 1),
                                     crng, 1)

        calls.append(Call("fom-scan", _cli(ts, ["fom-scan", "--q", _num(q),
                                                "--lambda", repr(float(lam))]),
                          len(SCAN_PHIS), row_check))

    def fallback_check(output, crng):
        # control |1> and outcome |0>: the outcome never fires, so every row
        # takes the complement outcome and equals the no-switch K2
        body = _table(output, ["lambda", "phi", "K"], len(SCAN_PHIS))
        if body is None:
            return len(SCAN_PHIS)
        k2 = ref.k2_exact()
        return sum(
            not (ref.close(row[0], 0.0, 0) and ref.close(row[1], phi, 1e-9)
                 and ref.close(row[2], k2, ref.MERIT_TOL))
            for row, phi in zip(body, SCAN_PHIS)
        )

    calls.append(Call("fom-scan-fallback",
                      _cli(ts, ["fom-scan", "--q", "0", "--lambda", "0"]),
                      len(SCAN_PHIS), fallback_check))

    for lam in lams3:
        def phase_check(output, crng, lam=lam):
            body = _table(output, ["phi", "lambda", "K"], len(SCAN_PHIS))
            if body is None:
                return len(SCAN_PHIS)
            rows = [(float(phi), lam) for phi in SCAN_PHIS]
            control = ref.uniform_control(ts, 3)
            return _check_merit_rows(
                ts, body, rows, control, lambda phi, lam: ref.outcome3(lam, phi), 3,
                (0, 1), crng, 1)

        calls.append(Call("three-path-scan",
                          _cli(ts, ["three-path", "--lambda", _num(lam)]),
                          len(SCAN_PHIS), phase_check))

    tradeoff_qs = np.linspace(0.5, 1.0, 21)
    labels = ("plus", "minus", "0", "1")
    label_vectors = {"plus": [1, 1], "minus": [1, -1], "0": [1, 0], "1": [0, 1]}

    def tradeoff_check(output, crng):
        rows = len(tradeoff_qs) * len(labels)
        body = _table(output, ["q", "K_total", "K", "outcome_label"], rows)
        if body is None:
            return rows
        failed = 0
        for i in crng.choice(rows, size=4, replace=False):
            q_i, label = float(tradeoff_qs[i // 4]), labels[i % 4]
            row = body[i]
            ok = ref.close(row[0], q_i, 1e-11) and row[3] == label
            ok = ok and ref.close(row[1], ref.brute_joint_merit(ts, q_i), ref.MERIT_TOL)
            k_ref = ref.brute_merit(ts, ref.qubit_control(ts, q_i),
                                    ref.unit(label_vectors[label]), 2)
            failed += not (ok and ref.close(row[2], k_ref, ref.MERIT_TOL))
        return failed

    calls.append(Call("tradeoff", _cli(ts, ["tradeoff"]), 84, tradeoff_check))

    coherence_qs = np.linspace(1.0, 0.5, 41)

    def coherence_check(output, crng):
        body = _table(output, ["coherence", "K_optimal"], len(coherence_qs))
        if body is None:
            return len(coherence_qs)
        failed = sum(
            not ref.close(row[0], 2 * math.sqrt(q_i * (1 - q_i)), 1e-11)
            for row, q_i in zip(body, coherence_qs)
        )
        for i in crng.choice(len(body), size=3, replace=False):
            k_ref = ref.brute_merit(ts, ref.qubit_control(ts, float(coherence_qs[i])),
                                    ref.unit([1, 1]), 2)
            failed += not ref.close(body[i][1], k_ref, ref.MERIT_TOL)
        return failed

    calls.append(Call("coherence-scan", _cli(ts, ["coherence-scan"]), 41, coherence_check))

    def optimize():
        control = ts.switch.control_qubit(q_opt)
        return ts.analysis.optimize_outcome(control, ts.analysis.OutcomeFamily2,
                                            opt_lams, opt_phis)

    def optimize_check(output, crng):
        (lam, phi), k = output
        control = ref.qubit_control(ts, q_opt)
        if lam not in opt_lams or phi not in opt_phis:
            return 1
        if not ref.close(k, ref.brute_merit(ts, control, ref.outcome2(lam, phi), 2),
                         ref.MERIT_TOL):
            return 1
        others = [ref.brute_merit(ts, control, ref.outcome2(opt_lams[i], opt_phis[j]), 2)
                  for i, j in zip(crng.integers(0, 6, 3), crng.integers(0, 30, 3))]
        return int(any(k < other - ref.MERIT_TOL for other in others))

    calls.append(Call("optimize-outcome", optimize, len(opt_lams) * len(opt_phis),
                      optimize_check))

    warmup = [
        _cli(ts, ["fom-scan", "--q", "0.5", "--lambda", "1", "--phi", "1"]),
        _cli(ts, ["three-path", "--lambda", "1", "--phi", "1"]),
        _cli(ts, ["coherence-scan"]),
    ]
    return calls, warmup


# --------------------------------------------------------------------------
# curves: many short table calls, no quadrature
# --------------------------------------------------------------------------


def _steps(rng, count, fine):
    """p-steps for ``count`` calls, exactly ``fine`` of them at 1e-4."""
    steps = np.full(count, P_STEPS[0])
    steps[rng.choice(count, size=fine, replace=False)] = P_STEPS[1]
    return [float(s) for s in steps]


def _fidelity_curves_call(ts, q, lam, phi, step):
    ps = ref.p_grid(step)
    columns = ["p", "F1", "F2", "F_switch_custom", "classical_threshold"]
    argv = ["fidelity-curves", "--q", _num(q), "--outcome", "custom",
            "--lambda", _num(lam), "--phi", _num(phi), "--p-step", f"{step:g}"]

    def check(output, crng):
        body = _table(output, columns, len(ps))
        if body is None:
            return len(ps)
        bad = set()
        for i, (row, p) in enumerate(zip(body, ps)):
            if not (ref.close(row[0], p, 1e-12) and ref.close(row[1], ref.f1(p), 1e-11)
                    and ref.close(row[2], ref.f2(p), 1e-11)
                    and ref.close(row[4], ref.THRESHOLD, 1e-11)):
                bad.add(i)
        control = ref.qubit_control(ts, float(_num(q)))
        vector = ref.outcome2(float(_num(lam)), float(_num(phi)))
        for i in crng.choice(np.arange(1, len(ps)), size=3, replace=False):
            f_ref, _ = ref.brute_fidelity(ts, control, vector, 2, ps[i])
            if not ref.close(body[i][3], f_ref, ref.FIDELITY_TOL):
                bad.add(int(i))
        return len(bad)

    return Call("fidelity-curves", _cli(ts, argv), len(ps), check)


def _alpha_label(alpha):
    return "(" + ",".join(f"{a:g}" for a in alpha) + ")"


def _alpha_profile_call(ts, alpha, step):
    ps = ref.p_grid(step)
    columns = ["p", f"F{_alpha_label(alpha)}", "F3_no_switch", "degenerate"]
    # "--alpha=" keeps argparse from reading a leading "-1" as a flag
    argv = ["three-path", "--alpha=" + ",".join(f"{a:g}" for a in alpha),
            "--p-step", f"{step:g}"]
    alternating = tuple(alpha) == (-1.0, -1.0, -1.0)

    def check(output, crng):
        body = _table(output, columns, len(ps))
        if body is None:
            return len(ps)
        bad = set()
        regular = []
        for i, (row, p) in enumerate(zip(body, ps)):
            ok = ref.close(row[0], p, 1e-12) and ref.close(row[2], ref.f3(p), 1e-11)
            if row[3]:
                # documented convention: where the outcome never fires the
                # row reports the no-switch triple-channel fidelity
                ok = ok and row[3] == _alpha_label(alpha) and row[1] == row[2]
            else:
                regular.append(i)
                if alternating:
                    ok = ok and ref.close(row[1], ref.f_alternating(p), 1e-11)
            if not ok:
                bad.add(i)
        if not alternating and regular:
            i = int(crng.choice(regular))
            f_ref, _ = ref.brute_fidelity(ts, ref.uniform_control(ts, 3),
                                          ref.alpha_outcome(*alpha), 3, ps[i])
            if not ref.close(body[i][1], f_ref, ref.FIDELITY_TOL):
                bad.add(i)
        return len(bad)

    return Call("three-path-alpha", _cli(ts, argv), len(ps), check)


def _region_map_call(ts, step, path):
    ps = ref.p_grid(step)
    mus = np.linspace(0.0, 0.5, 101)
    qs = np.linspace(0.0, 1.0, 51)
    surface = path.with_name(f"{path.stem}_surface{path.suffix}")
    argv = ["region-map", "--p-step", f"{step:g}", "--out", str(path)]

    def collect(result):
        code, _ = result
        if code != 0:
            return code, "", ""
        return code, path.read_text(), surface.read_text()

    def check(output, crng):
        code, main_text, surface_text = output
        header, regions = ref.parse_csv(main_text)
        s_header, cells = ref.parse_csv(surface_text)
        total = len(mus) + len(qs) * len(ps)
        if (code != 0 or header != ["mu", "p_lo", "p_hi", "region2_exists"]
                or s_header != ["p", "q", "F"] or len(regions) != len(mus)
                or len(cells) != len(qs) * len(ps)):
            return total
        failed = 0
        plus = ref.unit([1, 1])
        for i in crng.choice(len(mus), size=3, replace=False):
            mu, (_, p_lo, p_hi, exists) = float(mus[i]), regions[i]
            control = ref.qubit_control(ts, (1 + math.sqrt(max(1 - 4 * mu * mu, 0.0))) / 2)
            ok = ref.close(regions[i][0], mu, 1e-11)
            ok = ok and ref.close(ref.brute_fidelity(ts, control, plus, 2, float(p_lo))[0],
                                  ref.THRESHOLD, ref.MERIT_TOL)
            inside = float(p_hi) < 1 / 3 - 1e-12
            ok = ok and exists == ("true" if inside else "false")
            if inside:
                ok = ok and ref.close(
                    ref.brute_fidelity(ts, control, plus, 2, float(p_hi))[0],
                    ref.THRESHOLD, ref.MERIT_TOL)
            failed += not ok
        for i in crng.choice(len(cells), size=5, replace=False):
            p, q = ps[i % len(ps)], qs[i // len(ps)]
            row = cells[i]
            ok = ref.close(row[0], p, 1e-12) and ref.close(row[1], q, 1e-12)
            f_ref, _ = ref.brute_fidelity(ts, ref.qubit_control(ts, float(q)), plus, 2, p)
            failed += not (ok and ref.close(row[2], f_ref, ref.FIDELITY_TOL))
        return failed

    return Call("region-map", _cli(ts, argv), len(mus) + len(qs) * len(ps), check, collect)


def curves(ts, seed, workdir):
    # a third of the fidelity-curves and alpha-profile calls, and one region-map
    # call in ten, use the fine p-step; the fixed mix keeps the call-latency
    # percentiles inside one group of calls from seed to seed
    rng = np.random.default_rng([seed, 1])
    calls = []
    for i, step in enumerate(_steps(rng, 45, 15)):
        q = 0.0 if i == 0 else round(float(rng.uniform(0.0, 1.0)), 4)
        lam = round(float(rng.uniform(0.1, 2.0)), 4)
        phi = round(float(rng.uniform(0.0, 2 * math.pi)), 4)
        calls.append(_fidelity_curves_call(ts, q, lam, phi, step))
    for i, step in enumerate(_steps(rng, 45, 15)):
        if i % 12 == 0:
            alpha = (-1.0, -1.0, -1.0)
        else:
            alpha = tuple(round(float(a), 3) for a in rng.uniform(-1.5, 1.5, 3))
        calls.append(_alpha_profile_call(ts, alpha, step))
    for i, step in enumerate(_steps(rng, 10, 1)):
        calls.append(_region_map_call(ts, step, workdir / f"region-map-{i}.csv"))
    order = rng.permutation(len(calls))
    calls = [calls[i] for i in order]
    warmup = [
        _cli(ts, ["fidelity-curves"]),
        _cli(ts, ["three-path", "--alpha=-1,-1,-1"]),
        _cli(ts, ["region-map", "--out", str(workdir / "warmup.csv")]),
    ]
    return calls, warmup


# --------------------------------------------------------------------------
# oracle: brute Kraus route against the polynomial route
# --------------------------------------------------------------------------


def _haar(rng, dim):
    return ref.unit(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


def _oracle_call(ts, kind, n, p, control_amplitudes, outcome, psi):
    rho = np.outer(psi, psi.conj())

    def run():
        control = ts.switch.ControlState(control_amplitudes)
        channel = ts.channels.isotropic_channel(p)
        if kind == "switch_two":
            joint = ts.switch.switch_two(channel, channel, rho, control)
        else:
            joint = ts.switch.switch_n(channel, n, rho, control)
        selected = ts.switch.post_select(joint, outcome)
        f_brute = ts.channels.qubit_fidelity(rho, selected.state)
        f_poly = float(ts.analysis.fidelity_profile(control, outcome, [p], n)[0])
        return f_brute, f_poly

    def check(output, crng):
        f_brute, f_poly = output
        return int(not ref.close(f_brute, f_poly, ref.FIDELITY_TOL))

    return Call(f"{kind}.n{n}", run, 1, check)


def oracle(ts, seed):
    rng = np.random.default_rng([seed, 2])
    calls = []
    # the counts put the median call inside the switch_n(3) checks and p95
    # inside the switch_n(4) checks, whatever order the seed gives
    for kind, n, count in (("switch_two", 2, 6), ("switch_n", 2, 6),
                           ("switch_n", 3, 12), ("switch_n", 4, 6)):
        d = math.factorial(n)
        for _ in range(count):
            p = float(rng.uniform(0.005, 1 / 3))
            calls.append(_oracle_call(ts, kind, n, p, _haar(rng, d), _haar(rng, d),
                                      _haar(rng, 2)))

    def verify_check(output, crng):
        code, text = output
        try:
            report = json.loads(text)
        except ValueError:
            return 1
        return int(code != 0 or report.get("failed") != 0)

    calls.append(Call("verify", _cli(ts, ["verify"]), 1, verify_check))
    order = rng.permutation(len(calls))
    calls = [calls[i] for i in order]
    warmup = [calls[0].run, _cli(ts, ["verify"])]
    return calls, warmup


def build(workload, ts, seed, workdir):
    """(calls of one pass, warm-up callables) for a workload."""
    if workload == "merit-scan":
        return merit_scan(ts, seed)
    if workload == "curves":
        return curves(ts, seed, Path(workdir))
    if workload == "oracle":
        return oracle(ts, seed)
    raise ValueError(f"unknown workload {workload!r}")
