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
import functools
import io
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, channels, linalg, switch

DEFAULTS = {
    "q": 0.5,
    "p_min": 0.0,
    "p_max": 1 / 3,
    "p_step": 0.001,
    "seed": 42,
    "format": "csv",
    "outcome": "plus",
}

# keys that must hold finite numbers; "lam" is set by --lambda
FLOAT_KEYS = ("q", "p_min", "p_max", "p_step", "lam", "phi")

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

    # a subcommand reports an argument it does not take, under a usage line of the ones it does
    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras

    # argparse drops an OSError from writing help, so a lost help text would
    # exit 0; help to stdout goes through _output and exits 1 instead
    def print_help(self, file=None):
        if file is not None:
            return super().print_help(file)
        with _output() as (handle,):
            handle.write(self.format_help())


def _quoted(text):
    """text as one CSV cell: quoted, with inner quotes doubled, if it holds , " CR or LF."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _cells(column):
    """One column as %-format arguments: floats as floats, booleans as true/false,
    anything else as its CSV cell text, quoted once per distinct value."""
    if column.dtype.kind == "f":
        return column.tolist()
    if column.dtype.kind == "b":
        return ["true" if v else "false" for v in column.tolist()]
    values = column.tolist()
    text = {v: _quoted(str(v)) for v in set(values)}
    return [text[v] for v in values]


def _json_value(value):
    return float(f"{value:.12g}") if isinstance(value, float) else value


@contextlib.contextmanager
def _output(paths=()):
    """A handle on each of paths, every file opened for writing before the body
    runs, or [stdout] for no paths; an OSError on any of them is a UsageError.

    A failure in an open, a write, a close or the body removes the regular
    files opened: through a symlink the link's target, and the link stays; a
    device such as /dev/full is not a regular file and stays.
    """
    if not paths:
        try:
            yield [sys.stdout]
            sys.stdout.flush()
        except OSError as exc:
            # the unwritten buffer goes to os.devnull, so the interpreter's
            # flush at exit cannot fail a second time; a stream without a
            # file descriptor has no such flush
            with contextlib.suppress(io.UnsupportedOperation):
                stdout = sys.stdout.fileno()
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, stdout)
                os.close(devnull)
            raise UsageError(f"cannot write to stdout: {exc}") from None
        return
    handles = []
    try:
        with contextlib.ExitStack() as stack:
            for path in paths:
                handles.append(stack.enter_context(open(path, "w", newline="")))
            yield handles
    except BaseException as exc:
        for written in map(os.path.realpath, paths[:len(handles)]):
            if os.path.isfile(written):
                with contextlib.suppress(OSError):
                    os.remove(written)
        if isinstance(exc, OSError):
            raise UsageError(f"cannot write output file: {exc}") from None
        raise


def _write_csv(handle, names, values):
    # the columns broadcast to one (blocks, rows) shape, where blocks of one row
    # each are one block; a block's row format holds %.12g for a float column
    # and %s for any other, so CSV_BLOCK_ROWS rows of a block are one % call
    columns = [np.atleast_2d(column) for column in values]
    blocks, rows = np.broadcast_shapes((1, 1), *(column.shape for column in columns))
    if rows == 1:
        columns = [column.reshape(1, -1) for column in columns]
        blocks, rows = 1, blocks
    fields = []  # per column: its text in the row format, per block or for every block
    parts = []  # per column formatted cell by cell: its cells, per block or for every block
    for column in columns:
        spec = "%.12g" if column.dtype.kind == "f" else "%s"
        if column.shape[1] == 1:
            # constant along the rows: literal text, formatted once per block
            fields.append([(spec % v).replace("%", "%%") for v in _cells(column[:, 0])])
        elif len(column) < blocks:
            # shared by every block: its cells formatted once per table
            fields.append(["%s"])
            parts.append([[spec % v for v in _cells(column[0])]])
        else:
            fields.append([spec])
            parts.append(column)
    handle.write(",".join(map(_quoted, names)) + "\r\n")
    for block in range(blocks):
        row = ",".join([field[block % len(field)] for field in fields]) + "\r\n"
        sources = [part[block % len(part)] for part in parts]
        for start in range(0, rows, CSV_BLOCK_ROWS):
            stop = min(start + CSV_BLOCK_ROWS, rows)
            cells = [source[start:stop] if isinstance(source, list)
                     else _cells(source[start:stop]) for source in sources]
            handle.write(row * (stop - start) % tuple(itertools.chain.from_iterable(zip(*cells))))


def _write_json(handle, payload):
    handle.write(json.dumps(payload, indent=2) + "\n")


def _emit_tables(cfg, command, params, tables):
    """Write tables given as columns.

    tables: list of (suffix, column names, column values), where the values
    are one array per name and suffix '' names the main table. A table's
    columns broadcast to one (blocks, rows) shape, its rows running block by
    block; a 1-D column is one block. So a column constant along the rows is
    (blocks, 1) or 0-d, and a column every block shares is (rows,) or
    (1, rows): each such cell is formatted once, not once per row. A CSV table
    is written one file per table, CSV_BLOCK_ROWS rows of a block at a time;
    JSON rows are built from the broadcast columns, into one file.
    """
    out = cfg.get("out")
    # Path(out) would drop the slash and write a file where a directory was named
    if out and out.endswith(("/", os.sep)):
        raise UsageError(f"out must name a file, got {out!r}")
    if cfg["format"] == "json":
        payload = {
            "command": command,
            "params": {k: _json_value(v) for k, v in params.items()},
            "tables": {
                suffix or "main": {
                    "columns": list(names),
                    "rows": list(zip(*([_json_value(v) for v in c.ravel().tolist()]
                                       for c in np.broadcast_arrays(*values)))),
                }
                for suffix, names, values in tables
            },
        }
        paths, writes = [out], [functools.partial(_write_json, payload=payload)]
    else:
        if len(tables) > 1 and not out:
            raise UsageError("this command writes multiple CSV tables; --out is required")
        base = Path(out or "")
        if len(tables) > 1 and not base.name:
            raise UsageError(f"out must name a file, got {out!r}")
        paths = [base.with_name(f"{base.stem}_{suffix}{base.suffix}") if suffix else base
                 for suffix, _, _ in tables]
        writes = [functools.partial(_write_csv, names=names, values=values)
                  for _, names, values in tables]
    with _output(paths if out else ()) as handles:
        for handle, write in zip(handles, writes):
            write(handle)


def _p_grid(cfg):
    p_min, p_max, p_step = cfg["p_min"], cfg["p_max"], cfg["p_step"]
    if not 0.0 <= p_min <= p_max <= channels.P_MAX:
        raise UsageError(f"p range [{p_min}, {p_max}] must sit inside [0, 1/3]")
    if p_step <= 0:
        raise UsageError("p-step must be positive")
    points = (p_max - p_min) / p_step + 1
    if points > MAX_P_POINTS:
        raise UsageError(f"p grid of {points:.3g} points exceeds the cap of {MAX_P_POINTS}")
    grid = np.arange(p_min, p_max + p_step / 2, p_step)
    if grid.size == 0 or grid[-1] < p_max - linalg.RANGE_SLACK:
        grid = np.append(grid, p_max)
    # + 0.0 turns the -0.0 of --p-min -0 into 0.0 and leaves every other p alone
    return np.minimum(grid, 1 / 3) + 0.0


def _outcome_vector(cfg):
    label = cfg["outcome"]
    if label == "custom":
        return analysis.OutcomeFamily2(cfg["lam"], cfg["phi"]).vector(), label
    return OUTCOME_VECTORS[label], label


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_fidelity_curves(cfg):
    control = switch.control_qubit(cfg["q"])
    outcome, label = _outcome_vector(cfg)
    ps = _p_grid(cfg)
    fs = analysis.fidelity_profile(control, outcome, ps)
    f1, f2 = channels.no_switch_fidelity(ps, 1), channels.no_switch_fidelity(ps, 2)
    values = [ps, f1, f2, fs, np.array(2 / 3)]
    names = ["p", "F1", "F2", f"F_switch_{label}", "classical_threshold"]
    _emit_tables(cfg, "fidelity-curves", {"q": cfg["q"], "outcome": label}, [("", names, values)])


def _qubit_controls(qs):
    """(G, 2) amplitudes (sqrt(q), sqrt(1 - q)) of control_qubit(q) for each q of a grid."""
    return np.sqrt(np.stack([qs, 1 - qs], axis=1))


def cmd_region_map(cfg):
    mus = np.linspace(0.0, 0.5, 101)
    regions = [analysis.advantage_regions(mu) for mu in mus]
    bounds = np.array([(r.p_lo, r.p_hi) for r in regions]).T
    exists = np.array([r.region2_exists for r in regions])
    ps = _p_grid(cfg)
    qs = np.linspace(0.0, 1.0, 51)
    # q-major: one fidelity row per q
    fs = analysis.curve_grid(_qubit_controls(qs), OUTCOME_VECTORS["plus"], ps)[0]
    tables = [
        ("", ["mu", "p_lo", "p_hi", "region2_exists"], [mus, *bounds, exists]),
        ("surface", ["p", "q", "F"], [ps, qs[:, None], fs]),
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
    values = [lams[:, None], phis, ks.reshape(len(lams), len(phis))]
    _emit_tables(cfg, "fom-scan", {"q": cfg["q"]}, [("", ["lambda", "phi", "K"], values)])


def cmd_tradeoff(cfg):
    qs = np.linspace(0.5, 1.0, 21)
    controls = _qubit_controls(qs)
    # q-major, then one row per outcome label
    labels = list(OUTCOME_VECTORS)
    rows = np.repeat(controls, len(labels), axis=0)
    ks = analysis.merit_grid(rows, np.tile(list(OUTCOME_VECTORS.values()), (len(qs), 1)))
    k_totals = analysis.k_total_grid(controls)[:, None]
    values = [qs[:, None], k_totals, ks.reshape(len(qs), len(labels)), np.array(labels)]
    _emit_tables(cfg, "tradeoff", {}, [("", ["q", "K_total", "K", "outcome_label"], values)])


def cmd_coherence_scan(cfg):
    controls = _qubit_controls(np.linspace(1.0, 0.5, 41))
    coherence = analysis.l1_coherence(controls)
    ks = analysis.merit_grid(controls, OUTCOME_VECTORS["plus"])
    tables = [("", ["coherence", "K_optimal"], [coherence, ks])]
    _emit_tables(cfg, "coherence-scan", {"outcome": "plus"}, tables)


def _degenerate_column(labels, zero):
    """Per p, the labels of the profiles flagged degenerate there, joined by ';'.

    zero is the (len(labels), P) mask. Each p's mask column becomes one integer
    code, a bit per profile, and each distinct code is joined once.
    """
    bits = 1 << np.arange(len(labels))
    codes, inverse = np.unique(bits @ zero, return_inverse=True)
    joined = [";".join(label for label, bit in zip(labels, bits) if code & bit) for code in codes]
    return np.array(joined)[inverse]


def cmd_three_path(cfg):
    if cfg.get("lam") is not None or cfg.get("phi") is not None:
        lams, phis = _scan_grids(cfg)
        ks = analysis.merit_grid(switch.uniform_control(3), analysis.OutcomeFamily3.grid(lams, phis))
        # phi-major: the transpose of the lambda-major grid
        values = [phis[:, None], lams, ks.reshape(len(lams), len(phis)).T]
        tables = [("", ["phi", "lambda", "K"], values)]
        _emit_tables(cfg, "three-path", {"mode": "phase-scan"}, tables)
        return
    alphas = (analysis.AlphaOutcome(*cfg["alpha"]),) if cfg.get("alpha") else CAPTION_ALPHAS
    ps = _p_grid(cfg)
    fs, zero = analysis.alpha_fidelity_profile(alphas, ps)
    labels = [a.label() for a in alphas]
    names = ["p", *(f"F{label}" for label in labels), "F3_no_switch", "degenerate"]
    values = [ps, *fs, channels.no_switch_fidelity(ps, 3), _degenerate_column(labels, zero)]
    _emit_tables(cfg, "three-path", {"mode": "alpha-profile"}, [("", names, values)])


def cmd_verify(cfg):
    # imported here, since no other command needs the checks
    from . import verification

    out = cfg.get("out")
    # the output is opened first, so an unwritable path fails before the checks
    # run; the report is flushed before its lines go to stdout, and lines that
    # cannot reach stdout void the report file
    with _output([out] if out else ()) as (handle,):
        results = verification.run_all(cfg["seed"])
        payload = {
            "command": "verify",
            "seed": cfg["seed"],
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail,
                 "deviations": r.deviations, "tolerances": r.tolerances} for r in results
            ],
            "passed": sum(r.passed for r in results),
            "failed": sum(not r.passed for r in results),
        }
        _write_json(handle, payload)
        if out:
            handle.flush()
            with _output() as (stdout,):
                stdout.writelines(f"{line}\n" for line in verification.report_lines(results))
    return 0 if all(r.passed for r in results) else 2


# each subcommand's function and the config keys it reads: they are its only
# flags besides --config and the only keys its config file may set, so a key
# the command would ignore exits 1
COMMANDS = {
    "fidelity-curves": (cmd_fidelity_curves, ("q", "p_min", "p_max", "p_step", "lam", "phi",
                                              "outcome", "out", "format")),
    "region-map": (cmd_region_map, ("p_min", "p_max", "p_step", "out", "format")),
    "fom-scan": (cmd_fom_scan, ("q", "lam", "phi", "out", "format")),
    "tradeoff": (cmd_tradeoff, ("out", "format")),
    "coherence-scan": (cmd_coherence_scan, ("out", "format")),
    "three-path": (cmd_three_path, ("p_min", "p_max", "p_step", "lam", "phi", "alpha",
                                    "out", "format")),
    "verify": (cmd_verify, ("seed", "out")),
}


def _alpha_tuple(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("alpha needs exactly three comma-separated values")
    try:
        return tuple(float(x) for x in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# the flag of each config key and of --config: its name and add_argument keywords
_FLAGS = {
    "q": ("--q", {"type": float, "help": "control weight q in [0, 1]"}),
    "p_min": ("--p-min", {"type": float}),
    "p_max": ("--p-max", {"type": float}),
    "p_step": ("--p-step", {"type": float}),
    "lam": ("--lambda", {"type": float, "help": "outcome family weight (>= 0)"}),
    "phi": ("--phi", {"type": float, "help": "outcome family phase"}),
    "alpha": ("--alpha", {"type": _alpha_tuple,
                          "help": "three-path odd-permutation coefficients a1,a2,a3"}),
    "outcome": ("--outcome", {"choices": CHOICES["outcome"]}),
    "seed": ("--seed", {"type": int}),
    "out": ("--out", {"help": "output file path"}),
    "format": ("--format", {"choices": CHOICES["format"]}),
    "config": ("--config", {"help": "JSON file of defaults, overridden by flags"}),
}


@functools.cache
def build_parser():
    """The teleswitch parser, built on first use and shared by every later main call."""
    parser = _Parser(
        prog="teleswitch",
        description="Teleportation fidelity data for Pauli channels in a quantum switch.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys) in COMMANDS.items():
        command = sub.add_parser(name, help=f"{name} data")
        for key in (*keys, "config"):
            flag, options = _FLAGS[key]
            command.add_argument(flag, dest=key, **options)
    return parser


def resolve_config(args):
    """The command's config keys, each from its flag, else the config file, else DEFAULTS."""
    keys = COMMANDS[args.command][1]
    given = {}  # the keys a flag or the config file sets
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file: {exc}") from None
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold a JSON object")
        for key, value in loaded.items():
            name = {"lambda": "lam"}.get(key, key.replace("-", "_"))
            if name not in keys:
                raise UsageError(f"unknown config key {key!r}")
            given[name] = value
    given.update((key, getattr(args, key)) for key in keys if getattr(args, key) is not None)
    cfg = {**{key: DEFAULTS.get(key) for key in keys}, **given}
    for key in FLOAT_KEYS:
        # null leaves a key unset only where it has no default
        if key in cfg and not _finite_number(cfg[key]) and (
                cfg[key] is not None or key in DEFAULTS):
            name = "lambda" if key == "lam" else key
            raise UsageError(f"{name} must be a finite number, got {cfg[key]!r}")
    if "seed" in cfg:
        seed = cfg["seed"]
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise UsageError(f"seed must be an integer, got {seed!r}")
        if seed < 0:
            raise UsageError(f"seed must be a non-negative integer, got {seed}")
    for key, allowed in CHOICES.items():
        if key in cfg and cfg[key] not in allowed:
            raise UsageError(f"{key} must be one of {', '.join(allowed)}, got {cfg[key]!r}")
    if cfg.get("out") is not None and not isinstance(cfg["out"], str):
        raise UsageError(f"out must be a path string, got {cfg['out']!r}")
    alpha = cfg.get("alpha")
    if alpha is not None and not (isinstance(alpha, (list, tuple)) and len(alpha) == 3
                                  and all(map(_finite_number, alpha))):
        raise UsageError(f"alpha must be three finite numbers, got {alpha!r}")
    # two modes leave keys of their command unread
    mode, unread = None, ()
    if args.command == "three-path" and (cfg["lam"] is not None or cfg["phi"] is not None):
        mode, unread = "the phase scan of --lambda/--phi", ("alpha", "p_min", "p_max", "p_step")
    elif args.command == "fidelity-curves" and cfg["outcome"] != "custom":
        mode, unread = f"--outcome {cfg['outcome']}", ("lam", "phi")
    elif args.command == "fidelity-curves" and (cfg["lam"] is None or cfg["phi"] is None):
        raise UsageError("outcome 'custom' needs --lambda and --phi")
    unread = [_FLAGS[key][0] for key in unread if given.get(key) is not None]
    if unread:
        raise UsageError(f"{mode} does not read {', '.join(unread)}")
    return cfg


def _finite_number(value):
    # JSON true/false are Python bools, which are ints; they are not numbers here
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        cfg = resolve_config(args)
        code = COMMANDS[args.command][0](cfg)
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
