"""Command-line front end emitting figure data as CSV or JSON.

Subcommands mirror the analysis surface: fidelity-curves, region-map,
fom-scan, tradeoff, coherence-scan, three-path, and verify. Outputs are
deterministic given the flags and seed; floats are printed with 12
significant digits.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 numerical
failure (an outcome that never fires).
"""
import argparse
import contextlib
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, channels, switch, verification

DEFAULTS = {
    "q": 0.5,
    "p_min": 0.0,
    "p_max": 1 / 3,
    "p_step": 0.001,
    "seed": 42,
    "format": "csv",
    "paths": 3,
    "outcome": "plus",
}

# every key a flag or config file sets; "lambda" and dashed spellings in a
# config file are normalized first
CONFIG_KEYS = (*DEFAULTS, "lam", "phi", "alpha", "out")

# keys that must hold finite numbers; "lam" is set by --lambda
FLOAT_KEYS = ("q", "p_min", "p_max", "p_step", "lam", "phi")

# keys that must hold integers
INT_KEYS = ("seed", "paths")

# largest p grid any subcommand builds
MAX_P_POINTS = 100_000

# rows formatted and written at a time: formatting whole columns at once holds
# the text of every cell and raised the peak RSS of a long-running process
CSV_BLOCK_ROWS = 4096

OUTCOME_VECTORS = {
    "plus": np.array([1.0, 1.0]) / math.sqrt(2),
    "minus": np.array([1.0, -1.0]) / math.sqrt(2),
    "0": np.array([1.0, 0.0]),
    "1": np.array([0.0, 1.0]),
}

# allowed values of the flags that take a fixed set, for flags and config alike
CHOICES = {"outcome": (*OUTCOME_VECTORS, "custom"), "format": ("csv", "json")}

CAPTION_ALPHAS = (
    analysis.AlphaOutcome(1, 1, 1),
    analysis.AlphaOutcome(0, 0, 0),
    analysis.AlphaOutcome(-1, -1, 0),
    analysis.AlphaOutcome(-1, -1, -1),
)


class UsageError(ValueError):
    """Bad flag combination or out-of-domain parameter."""


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _cells(column):
    """One column as text: floats at 12 significant digits, booleans as true/false."""
    if column.dtype.kind == "f":
        return [f"{v:.12g}" for v in column.tolist()]
    if column.dtype.kind == "b":
        return ["true" if v else "false" for v in column.tolist()]
    return column.tolist()


def _json_value(value):
    return float(f"{value:.12g}") if isinstance(value, float) else value


def _output(path, newline=None):
    """The file at path opened for writing, or stdout when there is no path."""
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", newline=newline)
    except OSError as exc:
        raise UsageError(f"cannot write output file: {exc}") from None


def _write_csv(path, names, values):
    with _output(path, newline="") as handle:
        writer = csv.writer(handle, lineterminator="\r\n")
        writer.writerow(names)
        for start in range(0, len(values[0]), CSV_BLOCK_ROWS):
            cells = [_cells(column[start:start + CSV_BLOCK_ROWS]) for column in values]
            writer.writerows(zip(*cells))


def _write_json(path, payload):
    with _output(path) as handle:
        handle.write(json.dumps(payload, indent=2) + "\n")


def _emit_tables(cfg, command, params, tables):
    """Write tables given as columns.

    tables: list of (suffix, column names, column values), where the values
    are one equal-length 1-D array per name and suffix '' names the main
    table. A CSV table is formatted and written CSV_BLOCK_ROWS rows at a time;
    JSON rows are built from the columns.
    """
    if cfg["format"] == "json":
        payload = {
            "command": command,
            "params": {k: _json_value(v) for k, v in params.items()},
            "tables": {
                suffix or "main": {
                    "columns": list(names),
                    "rows": list(zip(*([_json_value(v) for v in c.tolist()] for c in values))),
                }
                for suffix, names, values in tables
            },
        }
        _write_json(cfg.get("out"), payload)
        return
    out = cfg.get("out")
    if len(tables) > 1 and not out:
        raise UsageError("this command writes multiple CSV tables; --out is required")
    for suffix, names, values in tables:
        if out:
            base = Path(out)
            path = base if not suffix else base.with_name(f"{base.stem}_{suffix}{base.suffix}")
        else:
            path = None
        _write_csv(path, names, values)


def _p_grid(cfg):
    p_min, p_max, p_step = cfg["p_min"], cfg["p_max"], cfg["p_step"]
    if not 0.0 <= p_min <= p_max <= 1 / 3 + 1e-12:
        raise UsageError(f"p range [{p_min}, {p_max}] must sit inside [0, 1/3]")
    if p_step <= 0:
        raise UsageError("p-step must be positive")
    points = (p_max - p_min) / p_step + 1
    if points > MAX_P_POINTS:
        raise UsageError(f"p grid of {points:.3g} points exceeds the cap of {MAX_P_POINTS}")
    grid = np.arange(p_min, p_max + p_step / 2, p_step)
    if grid.size == 0 or grid[-1] < p_max - 1e-12:
        grid = np.append(grid, p_max)
    # + 0.0 turns the -0.0 of --p-min -0 into 0.0 and leaves every other p alone
    return np.minimum(grid, 1 / 3) + 0.0


def _outcome_vector(cfg):
    label = cfg["outcome"]
    if label == "custom":
        lam = cfg.get("lam")
        phi = cfg.get("phi")
        if lam is None or phi is None:
            raise UsageError("outcome 'custom' needs --lambda and --phi")
        return analysis.OutcomeFamily2(lam, phi).vector(), "custom"
    return OUTCOME_VECTORS[label], label


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_fidelity_curves(cfg):
    q = cfg["q"]
    if not 0.0 <= q <= 1.0:
        raise UsageError(f"q={q} outside [0, 1]")
    outcome, label = _outcome_vector(cfg)
    ps = _p_grid(cfg)
    fs = analysis.fidelity_profile(switch.control_qubit(q), outcome, ps, 2)
    f1, f2 = channels.no_switch_fidelity(ps, 1), channels.no_switch_fidelity(ps, 2)
    values = [ps, f1, f2, fs, np.full(len(ps), 2 / 3)]
    names = ["p", "F1", "F2", f"F_switch_{label}", "classical_threshold"]
    _emit_tables(cfg, "fidelity-curves", {"q": q, "outcome": label}, [("", names, values)])


def cmd_region_map(cfg):
    mus = np.linspace(0.0, 0.5, 101)
    regions = [analysis.advantage_regions(mu) for mu in mus]
    bounds = np.array([(r.p_lo, r.p_hi) for r in regions]).T
    exists = np.array([r.region2_exists for r in regions])
    ps = _p_grid(cfg)
    qs = np.linspace(0.0, 1.0, 51)
    # q-major: one fidelity column per q
    fs = np.concatenate([
        analysis.fidelity_profile(switch.control_qubit(q), OUTCOME_VECTORS["plus"], ps, 2)
        for q in qs
    ])
    tables = [
        ("", ["mu", "p_lo", "p_hi", "region2_exists"], [mus, *bounds, exists]),
        ("surface", ["p", "q", "F"], [np.tile(ps, len(qs)), np.repeat(qs, len(ps)), fs]),
    ]
    _emit_tables(cfg, "region-map", {"p_step": cfg["p_step"]}, tables)


def _scan_grids(cfg):
    lams = [cfg["lam"]] if cfg.get("lam") is not None else np.linspace(0.0, 2.0, 41)
    phis = [cfg["phi"]] if cfg.get("phi") is not None else np.arange(0.0, 2 * math.pi, math.pi / 90)
    return np.asarray(lams, dtype=float), np.asarray(phis, dtype=float)


def cmd_fom_scan(cfg):
    control = switch.control_qubit(cfg["q"])
    lams, phis = _scan_grids(cfg)
    ks = analysis.merit_grid(control, analysis.OutcomeFamily2.grid(lams, phis))
    # lambda-major, like the grid
    values = [np.repeat(lams, len(phis)), np.tile(phis, len(lams)), ks]
    _emit_tables(cfg, "fom-scan", {"q": cfg["q"]}, [("", ["lambda", "phi", "K"], values)])


def cmd_tradeoff(cfg):
    qs = np.linspace(0.5, 1.0, 21)
    controls = [switch.control_qubit(q) for q in qs]
    # q-major, then one row per outcome label
    labels = list(OUTCOME_VECTORS)
    k_totals = np.repeat([analysis.k_total(control) for control in controls], len(labels))
    ks = np.stack([analysis.merit_grid(controls, m) for m in OUTCOME_VECTORS.values()], axis=1)
    values = [np.repeat(qs, len(labels)), k_totals, ks.ravel(), np.tile(labels, len(qs))]
    _emit_tables(cfg, "tradeoff", {}, [("", ["q", "K_total", "K", "outcome_label"], values)])


def cmd_coherence_scan(cfg):
    controls = [switch.control_qubit(q) for q in np.linspace(1.0, 0.5, 41)]
    coherence = np.array([analysis.l1_coherence(c.amplitudes) for c in controls])
    ks = analysis.merit_grid(controls, OUTCOME_VECTORS["plus"])
    tables = [("", ["coherence", "K_optimal"], [coherence, ks])]
    _emit_tables(cfg, "coherence-scan", {"outcome": "plus"}, tables)


def cmd_three_path(cfg):
    if cfg["paths"] != 3:
        raise UsageError("three-path requires --paths 3")
    control = switch.uniform_control(3)
    if cfg.get("lam") is not None or cfg.get("phi") is not None:
        lams, phis = _scan_grids(cfg)
        ks = analysis.merit_grid(control, analysis.OutcomeFamily3.grid(lams, phis))
        # phi-major: the transpose of the lambda-major grid
        ks = ks.reshape(len(lams), len(phis)).T.ravel()
        values = [np.repeat(phis, len(lams)), np.tile(lams, len(phis)), ks]
        tables = [("", ["phi", "lambda", "K"], values)]
        _emit_tables(cfg, "three-path", {"mode": "phase-scan"}, tables)
        return
    alphas = (analysis.AlphaOutcome(*cfg["alpha"]),) if cfg.get("alpha") else CAPTION_ALPHAS
    ps = _p_grid(cfg)
    profiles = [analysis.alpha_fidelity_profile(a, ps) for a in alphas]
    labels = [a.label() for a in alphas]
    # per p, the labels of the profiles flagged degenerate there
    degenerate = np.array([";".join(lb for lb, pt in zip(labels, points) if pt.degenerate)
                           for points in zip(*profiles)])
    fidelities = [np.array([pt.fidelity for pt in points]) for points in profiles]
    names = ["p", *(f"F{label}" for label in labels), "F3_no_switch", "degenerate"]
    values = [ps, *fidelities, channels.no_switch_fidelity(ps, 3), degenerate]
    _emit_tables(cfg, "three-path", {"mode": "alpha-profile"}, [("", names, values)])


def cmd_verify(cfg):
    results = verification.run_all(cfg["seed"])
    payload = {
        "command": "verify",
        "seed": cfg["seed"],
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
        "passed": sum(r.passed for r in results),
        "failed": sum(not r.passed for r in results),
    }
    out = cfg.get("out")
    _write_json(out, payload)
    if out:
        for line in verification.report_lines(results):
            print(line)
    return 0 if all(r.passed for r in results) else 2


COMMANDS = {
    "fidelity-curves": cmd_fidelity_curves,
    "region-map": cmd_region_map,
    "fom-scan": cmd_fom_scan,
    "tradeoff": cmd_tradeoff,
    "coherence-scan": cmd_coherence_scan,
    "three-path": cmd_three_path,
    "verify": cmd_verify,
}


def _alpha_tuple(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("alpha needs exactly three comma-separated values")
    try:
        return tuple(float(x) for x in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser():
    parser = _Parser(
        prog="teleswitch",
        description="Teleportation fidelity data for Pauli channels in a quantum switch.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"{name} data")
        p.add_argument("--q", type=float, default=None, help="control weight q in [0, 1]")
        p.add_argument("--p-min", dest="p_min", type=float, default=None)
        p.add_argument("--p-max", dest="p_max", type=float, default=None)
        p.add_argument("--p-step", dest="p_step", type=float, default=None)
        p.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="outcome family weight (>= 0)")
        p.add_argument("--phi", type=float, default=None, help="outcome family phase")
        p.add_argument("--alpha", type=_alpha_tuple, default=None,
                       help="three-path odd-permutation coefficients a1,a2,a3")
        p.add_argument("--paths", type=int, default=None, help="number of channel copies")
        p.add_argument("--outcome", choices=CHOICES["outcome"], default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None, help="output file path")
        p.add_argument("--format", choices=CHOICES["format"], default=None)
        p.add_argument("--config", type=str, default=None,
                       help="JSON file of defaults, overridden by flags")
    return parser


def resolve_config(args):
    """Merge precedence: command-line flags > config file > built-in defaults."""
    cfg = dict(DEFAULTS)
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file: {exc}") from None
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold a JSON object")
        for key, value in loaded.items():
            name = key.replace("-", "_")
            name = "lam" if name == "lambda" else name
            if name not in CONFIG_KEYS:
                raise UsageError(f"unknown config key {key!r}")
            cfg[name] = value
    for key in CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    for key in FLOAT_KEYS:
        if cfg.get(key) is not None and not _finite_number(cfg[key]):
            name = "lambda" if key == "lam" else key
            raise UsageError(f"{name} must be a finite number, got {cfg[key]!r}")
    for key in INT_KEYS:
        if isinstance(cfg[key], bool) or not isinstance(cfg[key], int):
            raise UsageError(f"{key} must be an integer, got {cfg[key]!r}")
    for key, allowed in CHOICES.items():
        if cfg[key] not in allowed:
            raise UsageError(f"{key} must be one of {', '.join(allowed)}, got {cfg[key]!r}")
    if cfg.get("out") is not None and not isinstance(cfg["out"], str):
        raise UsageError(f"out must be a path string, got {cfg['out']!r}")
    alpha = cfg.get("alpha")
    if alpha is not None and not (isinstance(alpha, (list, tuple)) and len(alpha) == 3
                                  and all(map(_finite_number, alpha))):
        raise UsageError(f"alpha must be three finite numbers, got {alpha!r}")
    return cfg


def _finite_number(value):
    return isinstance(value, (int, float)) and math.isfinite(value)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = resolve_config(args)
        code = COMMANDS[args.command](cfg)
        return 0 if code is None else code
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    except (switch.DegenerateOutcomeError, FloatingPointError) as exc:
        print(f"teleswitch: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (UsageError, ValueError) as exc:
        print(f"teleswitch: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
