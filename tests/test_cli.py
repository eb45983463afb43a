import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from teleswitch import analysis, cli, switch, verification


def run_cli(args):
    return cli.main(args)


def test_fidelity_curves_stdout_csv(capsys):
    assert run_cli(["fidelity-curves", "--p-step", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "\r\n" in out
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["p", "F1", "F2", "F_switch_plus", "classical_threshold"]
    first = rows[1]
    assert [float(x) for x in first] == pytest.approx([0.0, 1.0, 1.0, 1.0, 2 / 3])
    last = rows[-1]
    assert float(last[0]) == pytest.approx(1 / 3)
    assert float(last[3]) == pytest.approx(1.0, abs=1e-10)


def test_fidelity_curves_threshold_row(tmp_path):
    out = tmp_path / "fc.csv"
    assert run_cli([
        "fidelity-curves",
        "--p-min", "0.105662", "--p-max", "0.105662", "--p-step", "1",
        "--out", str(out),
    ]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    f2 = float(rows[1][2])
    assert abs(f2 - 2 / 3) < 1e-6


def test_fidelity_curves_json_roundtrip(tmp_path):
    out = tmp_path / "fc.json"
    assert run_cli(["fidelity-curves", "--p-step", "0.1", "--format", "json",
                    "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["command"] == "fidelity-curves"
    assert payload["params"]["q"] == 0.5
    table = payload["tables"]["main"]
    assert table["columns"][0] == "p"
    assert table["rows"][0][1] == 1.0


def test_fidelity_curves_outcome_flag(capsys):
    assert run_cli(["fidelity-curves", "--p-step", "0.2", "--outcome", "minus"]) == 0
    out = capsys.readouterr().out
    header = out.splitlines()[0].split(",")
    assert header[3] == "F_switch_minus"


def test_output_is_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        assert run_cli(["fidelity-curves", "--p-step", "0.01", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bad_range_is_usage_error(capsys):
    assert run_cli(["fidelity-curves", "--p-min", "0.5"]) == 1
    assert run_cli(["fidelity-curves", "--p-step", "-1"]) == 1
    assert run_cli(["fidelity-curves", "--q", "2"]) == 1
    capsys.readouterr()


def test_unknown_flag_and_command_exit_one(capsys):
    assert run_cli(["fidelity-curves", "--bogus"]) == 1
    assert run_cli(["not-a-command"]) == 1
    capsys.readouterr()


def test_silent_outcome_is_numerical_failure(capsys):
    assert run_cli(["fidelity-curves", "--q", "1", "--outcome", "1",
                    "--p-step", "0.1"]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err


def test_region_map_requires_out_for_csv(capsys):
    assert run_cli(["region-map"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("out", [".", "/"])
def test_region_map_out_without_a_file_name_is_usage_error(out, capsys):
    # the surface table's file name is derived from the --out file name
    assert run_cli(["region-map", "--out", out]) == 1
    assert capsys.readouterr().err == f"teleswitch: error: out must name a file, got {out!r}\n"


def test_region_map_writes_two_tables(tmp_path, monkeypatch):
    emitted = {}

    def capture(cfg, command, params, tables):
        emitted.update((suffix, _raveled(values)) for suffix, _, values in tables)
        emit(cfg, command, params, tables)

    emit = cli._emit_tables
    monkeypatch.setattr(cli, "_emit_tables", capture)
    out = tmp_path / "rm.csv"
    assert run_cli(["region-map", "--p-step", "0.1", "--out", str(out)]) == 0
    main_rows = list(csv.reader(out.read_text().splitlines()))
    assert main_rows[0] == ["mu", "p_lo", "p_hi", "region2_exists"]
    by_mu = {float(r[0]): r for r in main_rows[1:]}
    assert by_mu[0.0][3] == "false"
    assert by_mu[0.5][3] == "true"
    surface = (tmp_path / "rm_surface.csv").read_text().splitlines()
    assert surface[0].split(",") == ["p", "q", "F"]
    assert len(surface) == 1 + 51 * 5
    # the surface comes from the polynomial route; the paper's closed form checks it
    for p, q, f in zip(*emitted["surface"]):
        assert abs(f - analysis.switched_fidelity(analysis.SwitchParams(p, q))) < 1e-13


def _raveled(values):
    """A table's broadcast columns as equal-length 1-D columns, rows in the order written."""
    return [column.ravel() for column in np.broadcast_arrays(*values)]


def _fmt(value):
    """The cell formatter of the row-by-row CSV writer, kept as the reference."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{value:.12g}"
    return str(value)


def _row_writer_bytes(names, values):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(names)
    for row in zip(*values):
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue().encode()


@pytest.mark.parametrize("argv", [
    ["fidelity-curves"],
    ["fom-scan", "--lambda", "1"],
    ["tradeoff"],
    ["coherence-scan"],
    ["three-path"],
    ["region-map"],
])
def test_block_writer_matches_row_writer(argv, tmp_path, monkeypatch):
    emitted = []

    def capture(cfg, command, params, tables):
        emitted.extend(tables)
        emit(cfg, command, params, tables)

    emit = cli._emit_tables
    monkeypatch.setattr(cli, "_emit_tables", capture)
    out = tmp_path / "t.csv"
    assert run_cli([*argv, "--out", str(out)]) == 0
    for suffix, names, values in emitted:
        path = tmp_path / f"t_{suffix}.csv" if suffix else out
        assert path.read_bytes() == _row_writer_bytes(names, _raveled(values))
    if argv[0] == "region-map":
        # one block of p per q, with p shared and q constant along each block
        assert [v.shape for v in emitted[1][2]] == [(335,), (51, 1), (51, 335)]
    if argv[0] == "three-path":
        assert b'"F(-1,-1,-1)"' in out.read_bytes()


# strings whose CSV cell tests the quoting rule: separators, quotes, line breaks,
# spaces, format characters and non-ASCII text
TRICKY_CELLS = [
    "", "a,b", 'say "hi"', '"', "a\nb", "a\rb", "a\r\nb", " lead", "trail ",
    "50%", "%s", "a;b", "a\tb", "ψ ≥ ½", "(-1,-1,-1)",
]


@pytest.mark.parametrize("text", TRICKY_CELLS)
def test_quoted_matches_csv_writer_cell(text):
    buf = io.StringIO(newline="")
    # a second field, so an empty first one is written as a plain empty cell
    csv.writer(buf, lineterminator="\r\n").writerow([text, "end"])
    assert cli._quoted(text) == buf.getvalue().removesuffix(",end\r\n")


def _synthetic_table(rows):
    rng = np.random.default_rng(rows)
    special = [0.0, -0.0, 5e-324, 1e16, 1 / 3, math.inf, -math.inf, math.nan]
    floats = np.resize(np.concatenate([special, rng.uniform(-1, 1, rows)]), rows)
    strings = np.resize(np.array(["plain", *TRICKY_CELLS]), rows)
    names = ["p", "flag,kind", "count", "label", "50% mark"]
    values = [floats, np.arange(rows) % 3 == 0, np.arange(rows) - 7, strings, -floats]
    return names, values


def _broadcast_table(rows):
    """Blocks of rows: a per-block literal with format characters, a 0-d cell,
    a column every block shares and full (blocks, rows) columns."""
    _, values = _synthetic_table(rows)
    labels = np.array(["50%", "%s", 'say "hi"', "a,b"])[:, None]
    cells = np.stack([values[0], -values[0], values[0][::-1], np.roll(values[0], 1)])
    return (["label", "third", "p", "F", "F > 0"],
            [labels, np.array(1 / 3), values[0], cells, cells > 0])


@pytest.mark.parametrize("rows", [1, 2 * cli.CSV_BLOCK_ROWS, 2 * cli.CSV_BLOCK_ROWS + 1])
def test_block_writer_matches_row_writer_on_a_synthetic_table(rows, tmp_path):
    for names, values in (_synthetic_table(rows), _broadcast_table(rows)):
        out = tmp_path / "t.csv"
        with open(out, "w", newline="") as handle:
            cli._write_csv(handle, names, values)
        assert out.read_bytes() == _row_writer_bytes(names, _raveled(values))


def test_three_path_degenerate_column_joins_flagged_labels_per_p(tmp_path, monkeypatch):
    # per p: no profile flagged, one, two at once; patterns repeat across p
    flagged = [(), (3,), (0, 3), (1,), (), (0, 3), (1, 2), (3,)]
    profile = analysis.alpha_fidelity_profile

    def crafted(alphas, ps):
        fs, _ = profile(alphas, ps)
        zero = np.zeros((len(alphas), len(ps)), dtype=bool)
        for j, rows in enumerate(flagged):
            zero[list(rows), j] = True
        return fs, zero

    emitted = []

    def capture(cfg, command, params, tables):
        emitted.extend(tables)
        emit(cfg, command, params, tables)

    emit = cli._emit_tables
    monkeypatch.setattr(cli.analysis, "alpha_fidelity_profile", crafted)
    monkeypatch.setattr(cli, "_emit_tables", capture)
    out = tmp_path / "t.csv"
    assert run_cli(["three-path", "--p-step", "0.05", "--out", str(out)]) == 0
    [(_, names, values)] = emitted
    assert len(values[0]) == len(flagged)
    labels = [a.label() for a in cli.CAPTION_ALPHAS]
    reference = [";".join(labels[i] for i in rows) for rows in flagged]
    assert values[-1].tolist() == reference
    text = out.read_bytes()
    assert text == _row_writer_bytes(names, [*values[:-1], np.array(reference)])
    assert b',"(-1,-1,-1)"\r\n' in text and b',"(1,1,1);(-1,-1,-1)"\r\n' in text


@pytest.mark.parametrize("command", ["fidelity-curves", "three-path", "region-map"])
def test_negative_zero_p_min_prints_zero(command, tmp_path):
    out = tmp_path / "t.csv"
    assert run_cli([command, "--p-min", "-0", "--p-step", "0.1", "--out", str(out)]) == 0
    table = tmp_path / "t_surface.csv" if command == "region-map" else out
    ps = [row[0] for row in csv.reader(table.read_text().splitlines()[1:])]
    assert ps[0] == "0" and "-0" not in ps


def test_scan_axes_print_as_floats(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda": 10**13, "phi": 0}))
    assert run_cli(["fom-scan", "--config", str(cfg)]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[1][:2] == ["1e+13", "0"]


# a full device: a large table fails in a write, a small one when the file closes
_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


@pytest.mark.parametrize("argv, target", [
    (["fidelity-curves"], "missing/x.csv"),
    (["region-map"], "."),
    (["fom-scan", "--lambda", "1", "--format", "json"], "missing/x.json"),
    (["verify"], "missing/x.json"),
    pytest.param(["fidelity-curves"], "/dev/full", marks=_full),
    pytest.param(["fom-scan", "--lambda", "1", "--phi", "1"], "/dev/full", marks=_full),
    pytest.param(["fom-scan", "--lambda", "1", "--format", "json"], "/dev/full", marks=_full),
    pytest.param(["verify"], "/dev/full", marks=_full),
])
def test_unwritable_out_exits_one(argv, target, tmp_path, capsys):
    assert run_cli([*argv, "--out", str(tmp_path / target)]) == 1
    out, err = capsys.readouterr()
    # verify prints its report lines only after the report is written
    assert out == ""
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert err.startswith("teleswitch: error: cannot write output file")


@pytest.mark.parametrize("surface", [
    "directory",
    pytest.param("full", marks=_full),
])
def test_region_map_that_cannot_write_a_table_leaves_no_file(surface, tmp_path, capsys):
    # every table is opened before the first is written: a surface path that
    # cannot be opened (a directory) or written (a link to a full device)
    # removes the main table, and the directory and the link stay
    table = tmp_path / "r_surface.csv"
    if surface == "directory":
        table.mkdir()
    else:
        table.symlink_to("/dev/full")
    out = tmp_path / "r.csv"
    assert run_cli(["region-map", "--out", str(out)]) == 1
    assert not out.exists()
    assert table.is_dir() if surface == "directory" else table.is_symlink()
    err = capsys.readouterr().err
    assert err.startswith("teleswitch: error: cannot write output file")
    assert len(err.strip().splitlines()) == 1


@_full
@pytest.mark.parametrize("linked", [False, True])
def test_verify_out_with_full_stdout_leaves_no_file(linked, monkeypatch, tmp_path, capsys):
    # the report file is complete before the lines to stdout fail; the failed
    # command removes it, through a symlinked --out the link's target, and
    # leaves the link
    written = tmp_path / "r.json"
    out = tmp_path / "link.json" if linked else written
    if linked:
        written.write_text("old\n")
        out.symlink_to(written)
    with open("/dev/full", "w") as full:
        monkeypatch.setattr(sys, "stdout", full)
        assert run_cli(["verify", "--out", str(out)]) == 1
    assert not written.exists()
    assert out.is_symlink() == linked
    err = capsys.readouterr().err
    assert err.startswith("teleswitch: error: cannot write to stdout")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv, limit", [
    (["fom-scan", "--lambda", "1", "--format", "json", "--out", "t.json"], 4096),
    # the main table fits under the limit and the surface table does not
    (["region-map", "--out", "t.csv"], 65536),
    (["verify", "--out", "t.json"], 4096),
])
def test_out_past_the_file_size_limit_leaves_no_file(argv, limit, tmp_path):
    # only the child gets the limit; the interpreter ignores SIGXFSZ, so a
    # write past it fails with EFBIG after part of the file is on disk
    resource = pytest.importorskip("resource")

    def limit_file_size():
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

    proc = _run_child(argv, capture_output=True, cwd=tmp_path, preexec_fn=limit_file_size)
    assert proc.returncode == 1
    assert proc.stderr.startswith("teleswitch: error: cannot write output file")
    assert "Traceback" not in proc.stderr and len(proc.stderr.strip().splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_merit_commands_of_two_and_three_paths_never_call_eigvals(monkeypatch, capsys):
    # their kinks are quadratic and cubic roots, found in closed form
    def refuse(*args, **kwargs):
        raise AssertionError("eigvals called")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    for argv in (["fom-scan"], ["three-path", "--lambda", "1"], ["tradeoff"], ["coherence-scan"]):
        assert run_cli(argv) == 0, argv
    capsys.readouterr()
    lams, phis = [0.0, 0.5, 1.0, 2.0], np.linspace(0.0, 2 * math.pi, 9)
    for control, family in ((switch.control_qubit(0.3), analysis.OutcomeFamily2),
                            (switch.uniform_control(3), analysis.OutcomeFamily3)):
        analysis.optimize_outcome(control, family, lams, phis)
    # four paths still take the batched eigenvalue call
    with pytest.raises(AssertionError, match="eigvals called"):
        analysis.merit_grid(switch.uniform_control(4), np.ones(24))


def test_only_verify_imports_the_checks():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys, teleswitch.cli; print('teleswitch.verification' in sys.modules); "
            "import teleswitch; print(teleswitch.run_all is teleswitch.verification.run_all, "
            "teleswitch.CheckResult is teleswitch.verification.CheckResult)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.split() == ["False", "True", "True"]
    import teleswitch
    with pytest.raises(AttributeError, match="no attribute 'run_al'"):
        teleswitch.run_al


def test_verify_checks_the_out_path_before_running(monkeypatch, tmp_path, capsys):
    calls = []
    monkeypatch.setattr(verification, "run_all", lambda seed: calls.append(seed) or [])
    assert run_cli(["verify", "--out", str(tmp_path / "missing" / "x.json")]) == 1
    assert calls == []
    assert capsys.readouterr().err.startswith("teleswitch: error: cannot write output file")


@_full
@pytest.mark.parametrize("argv", [
    ["fidelity-curves"], ["verify"], ["verify", "--out", "r.json"],
    ["--help"], ["fom-scan", "--help"],
])
def test_full_stdout_exits_one(argv, tmp_path):
    # the interpreter's own flush of stdout at exit must not fail a second time
    with open("/dev/full", "w") as full:
        proc = _run_child(argv, stdout=full, stderr=subprocess.PIPE, cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("teleswitch: error: cannot write to stdout")
    assert len(proc.stderr.strip().splitlines()) == 1


class _UnwritableStdout(io.StringIO):
    def write(self, text):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("argv", [["--help"], ["fom-scan", "--help"]])
def test_help_to_unwritable_stdout_exits_one(argv, monkeypatch, capsys):
    # argparse itself drops the OSError and exits 0
    monkeypatch.setattr(sys, "stdout", _UnwritableStdout())
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err == "teleswitch: error: cannot write to stdout: [Errno 28] No space left on device\n"


def test_negative_seed_exits_one_before_any_output(tmp_path, capsys):
    out = tmp_path / "r.json"
    cfg = tmp_path / "c.json"
    cfg.write_text('{"seed": -1}')
    for argv in (["--seed", "-1"], ["--config", str(cfg)]):
        assert run_cli(["verify", *argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "teleswitch: error: seed must be a non-negative integer, got -1\n"
        assert not out.exists()


def test_region_map_json_single_payload(tmp_path):
    out = tmp_path / "rm.json"
    assert run_cli(["region-map", "--p-step", "0.1", "--format", "json",
                    "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload["tables"]) == {"main", "surface"}


def test_fom_scan_single_point(capsys):
    assert run_cli(["fom-scan", "--lambda", "1", "--phi", "0"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == ["lambda", "phi", "K"]
    assert len(rows) == 2
    assert float(rows[1][2]) == pytest.approx(0.023914668763221, abs=1e-9)


def test_tradeoff_converges_at_definite_order(capsys):
    assert run_cli(["tradeoff"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == ["q", "K_total", "K", "outcome_label"]
    at_one = [r for r in rows[1:] if float(r[0]) == 1.0]
    assert len(at_one) == 4
    ks = {float(r[2]) for r in at_one}
    kts = {float(r[1]) for r in at_one}
    assert max(ks) - min(ks) < 1e-9
    assert max(kts) - min(kts) < 1e-9


def test_coherence_scan_endpoints(capsys):
    assert run_cli(["coherence-scan"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == ["coherence", "K_optimal"]
    first, last = rows[1], rows[-1]
    assert float(first[0]) == pytest.approx(0.0)
    assert float(first[1]) == pytest.approx(0.016038, abs=1e-6)
    assert float(last[0]) == pytest.approx(1.0)
    assert float(last[1]) == pytest.approx(0.023914668763221, abs=1e-9)


def test_degenerate_column_codes_match_the_mask_pattern_form():
    # four profiles flagged at different points, in every combination
    labels = [a.label() for a in cli.CAPTION_ALPHAS]
    zero = np.random.default_rng(26).random((4, 300)) < 0.4
    assert len(np.unique(zero.T, axis=0)) == 16
    patterns, inverse = np.unique(zero.T, axis=0, return_inverse=True)
    expected = np.array([";".join(np.array(labels)[flags]) for flags in patterns])[inverse.ravel()]
    assert np.array_equal(cli._degenerate_column(labels, zero), expected)
    assert cli._degenerate_column(labels[:1], zero[:1]).tolist() == [
        labels[0] if flag else "" for flag in zero[0]]


def test_three_path_profile_columns_and_degenerate_flag(capsys):
    assert run_cli(["three-path", "--p-step", "0.1"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == [
        "p", "F(1,1,1)", "F(0,0,0)", "F(-1,-1,0)", "F(-1,-1,-1)",
        "F3_no_switch", "degenerate",
    ]
    assert rows[1][0] == "0"
    assert rows[1][6] == "(-1,-1,-1)"
    assert float(rows[1][4]) == pytest.approx(1.0)
    last = rows[-1]
    assert float(last[4]) == pytest.approx(1.0, abs=1e-9)
    assert float(last[5]) == pytest.approx(13 / 27, abs=1e-9)


def test_three_path_alpha_flag(capsys):
    assert run_cli(["three-path", "--alpha", "0,0,0", "--p-step", "0.1"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0][:2] == ["p", "F(0,0,0)"]
    assert run_cli(["three-path", "--alpha", "1,2"]) == 1


def test_three_path_phase_scan(capsys):
    phi = math.pi / 12
    assert run_cli(["three-path", "--lambda", "1", "--phi", str(phi)]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == ["phi", "lambda", "K"]
    assert len(rows) == 2
    assert float(rows[1][2]) > analysis.no_switch_merit(3)


def test_three_path_rejects_other_path_counts(capsys):
    # three-path is fixed at three paths, so --paths is no flag at all
    for count in ("2", "3"):
        assert run_cli(["three-path", "--paths", count]) == 1
        assert f"unrecognized arguments: --paths {count}" in capsys.readouterr().err


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": 1.0, "p-step": 0.2}))
    assert run_cli(["fidelity-curves", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(out.splitlines()))
    # q=1 from config: switch column equals F2 column
    for row in rows[1:]:
        assert float(row[3]) == pytest.approx(float(row[2]), abs=1e-12)
    assert run_cli(["fidelity-curves", "--config", str(cfg), "--q", "0.5",
                    "--p-max", "0.25", "--p-min", "0.25"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert float(rows[1][3]) == pytest.approx(0.6, abs=1e-12)


def test_config_file_errors(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run_cli(["fidelity-curves", "--config", str(missing)]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert run_cli(["fidelity-curves", "--config", str(bad)]) == 1
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"pstep": 0.1}))
    assert run_cli(["fidelity-curves", "--config", str(unknown)]) == 1
    assert "unknown config key 'pstep'" in capsys.readouterr().err
    # values of the wrong type or outside a flag's choices
    for command, payload in (("verify", {"seed": "x"}), ("verify", {"seed": True}),
                             ("three-path", {"paths": 3.0}),
                             ("three-path", {"paths": 3}),
                             ("fidelity-curves", {"outcome": "bogus"}),
                             ("fidelity-curves", {"out": 5}),
                             ("fidelity-curves", {"format": "xml"}),
                             # JSON booleans are not numbers
                             ("fidelity-curves", {"q": True}),
                             ("fidelity-curves", {"p_step": True}),
                             ("fom-scan", {"lambda": True, "phi": 0}),
                             ("three-path", {"alpha": [1, False, 1]}),
                             # null for a key that has a default
                             ("fom-scan", {"q": None, "lambda": 1, "phi": 1}),
                             ("region-map", {"p_step": None})):
        typed = tmp_path / "typed.json"
        typed.write_text(json.dumps(payload))
        assert run_cli([command, "--config", str(typed)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert next(iter(payload)) in err


@pytest.mark.parametrize("argv", [
    ["fom-scan", "--lambda", "nan", "--phi", "0"],
    ["fom-scan", "--q", "0.5", "--phi", "inf"],
    ["three-path", "--alpha=nan,0,0"],
    ["three-path", "--lambda=-inf"],
    ["fidelity-curves", "--q", "nan"],
    ["fidelity-curves", "--p-min", "nan"],
    ["fidelity-curves", "--p-max", "inf"],
    ["fidelity-curves", "--p-step", "nan"],
    # finite flags whose outcome norm overflows
    ["fom-scan", "--lambda", "1e200", "--phi", "0"],
    ["fidelity-curves", "--outcome", "custom", "--lambda", "1e200", "--phi", "0"],
    ["three-path", "--alpha=1e308,1e308,1e308"],
])
def test_non_finite_values_exit_one(argv, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(argv) == 1
    assert caught == []
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "finite" in err and len(err.strip().splitlines()) == 1


def test_non_finite_config_values_exit_one(tmp_path, capsys):
    for payload in ({"lambda": float("nan"), "phi": 0.0}, {"alpha": [1, float("inf"), 0]},
                    {"q": "half"}):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        command = "three-path" if "alpha" in payload else "fom-scan"
        assert run_cli([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and "finite" in err


@pytest.mark.parametrize("command", ["fidelity-curves", "three-path", "region-map"])
def test_p_grid_above_cap_exits_one(command, tmp_path, capsys):
    argv = [command, "--p-step", "1e-13", "--out", str(tmp_path / "grid.csv")]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "exceeds the cap" in err


def test_readme_examples_run(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Examples:", 1)[1].split("```")[1]
    commands = [line.split("#")[0] for line in block.splitlines()
                if line.startswith("teleswitch ")]
    assert len(commands) >= 5
    for line in commands:
        argv = shlex.split(line)[1:]
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = str(tmp_path / argv[i])
        assert run_cli(argv) == 0, line
    capsys.readouterr()


def test_readme_quickstart_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert "0.625" in capsys.readouterr().out.splitlines()


def test_verify_reports_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert run_cli(["verify", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["failed"] == 0
    assert [c["name"] for c in payload["checks"]] == [c.name for c in verification.CHECKS]
    for check in payload["checks"]:
        devs, tols = check["deviations"], check["tolerances"]
        assert devs.keys() == tols.keys() and devs
        assert all(devs[k] < tols[k] for k in devs), check["name"]
    lines = capsys.readouterr().out.splitlines()
    assert all(line.startswith("[PASS]") for line in lines if line)


def test_verify_is_byte_identical_across_runs(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert run_cli(["verify", "--seed", "7", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_failure_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(
        verification,
        "run_all",
        lambda seed: [verification.CheckResult("forced", False, "synthetic")],
    )
    assert run_cli(["verify"]) == 2
    capsys.readouterr()


def _run_child(argv, **kwargs):
    """The CLI in a child interpreter that imports the package from where this process found it."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "teleswitch.cli", *argv], text=True,
                          env={**os.environ, "PYTHONPATH": path}, **kwargs)


def test_console_script_is_installed():
    proc = _run_child(["fidelity-curves", "--p-step", "0.2"], capture_output=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("p,F1,F2")


# --------------------------------------------------------------------------
# one parser serves every main call in a process
# --------------------------------------------------------------------------


def test_scan_flags_do_not_carry_over_to_the_next_call(capsys):
    assert run_cli(["fom-scan", "--q", "0.2", "--lambda", "1", "--phi", "0"]) == 0
    first = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert run_cli(["fom-scan", "--lambda", "1"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))[1:]
    assert len(rows) == 180
    phis = np.arange(0.0, 2 * math.pi, math.pi / 90)
    assert [row[1] for row in rows] == [f"{phi:.12g}" for phi in phis]
    k_half = analysis.merit_grid(switch.control_qubit(0.5),
                                 analysis.OutcomeFamily2.grid([1.0], [0.0]))[0]
    assert rows[0][2] == f"{k_half:.12g}" != first[1][2]


def test_custom_outcome_needs_phi_after_a_call_that_set_it(capsys):
    assert run_cli(["fidelity-curves", "--outcome", "custom", "--lambda", "1", "--phi", "1",
                    "--p-step", "0.1"]) == 0
    capsys.readouterr()
    assert run_cli(["fidelity-curves", "--outcome", "custom", "--lambda", "1"]) == 1
    err = capsys.readouterr().err
    assert err == "teleswitch: error: outcome 'custom' needs --lambda and --phi\n"


def test_json_format_does_not_carry_over_to_the_next_call(capsys):
    assert run_cli(["fom-scan", "--lambda", "1", "--phi", "0", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["command"] == "fom-scan"
    assert run_cli(["fom-scan", "--lambda", "1", "--phi", "0"]) == 0
    assert capsys.readouterr().out.startswith("lambda,phi,K\r\n")


# each command's flags, in help-screen order
COMMAND_OPTIONS = {
    "fidelity-curves": ["--q", "--p-min", "--p-max", "--p-step", "--lambda", "--phi",
                        "--outcome", "--out", "--format", "--config"],
    "region-map": ["--p-min", "--p-max", "--p-step", "--out", "--format", "--config"],
    "fom-scan": ["--q", "--lambda", "--phi", "--out", "--format", "--config"],
    "tradeoff": ["--out", "--format", "--config"],
    "coherence-scan": ["--out", "--format", "--config"],
    "three-path": ["--p-min", "--p-max", "--p-step", "--lambda", "--phi", "--alpha",
                   "--out", "--format", "--config"],
    "verify": ["--seed", "--out", "--config"],
}


def test_help_screens_repeat_and_list_each_commands_own_options(capsys):
    assert list(cli.COMMANDS) == list(COMMAND_OPTIONS)
    for argv in [["--help"], *([name, "--help"] for name in COMMAND_OPTIONS)]:
        screens = []
        for _ in range(2):
            assert run_cli(argv) == 0
            screens.append(capsys.readouterr().out)
        assert screens[0] == screens[1], argv
        if len(argv) == 2:
            assert screens[0].startswith(f"usage: teleswitch {argv[0]} [-h]")
            assert re.findall(r"^  (--[\w-]+)", screens[0], re.M) == COMMAND_OPTIONS[argv[0]]


# per command, a flag it does not read and a config key it does not read
IGNORED = {
    "fidelity-curves": (["--seed", "1"], {"alpha": [1, 1, 1]}),
    "region-map": (["--lambda", "2"], {"q": 0.3}),
    "fom-scan": (["--p-step", "0.2"], {"outcome": "minus"}),
    "tradeoff": (["--q", "0.3"], {"p-step": 0.1}),
    "coherence-scan": (["--p-step", "0.1"], {"lambda": 1}),
    "three-path": (["--outcome", "plus"], {"seed": 1}),
    "verify": (["--format", "json"], {"alpha": [1, 1, 1]}),
}


@pytest.mark.parametrize("command, kind", [(c, k) for c in IGNORED for k in ("flag", "key")])
def test_a_flag_or_config_key_the_command_does_not_read_exits_one(command, kind, tmp_path,
                                                                   capsys):
    flag, payload = IGNORED[command]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / "out.csv"
    extra = flag if kind == "flag" else ["--config", str(cfg)]
    assert run_cli([command, *extra, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    if kind == "flag":
        # the command's own parser reports it, under a usage line of the flags it does take
        assert captured.err.startswith(f"usage: teleswitch {command} [-h]")
        assert captured.err.endswith(
            f"teleswitch {command}: error: unrecognized arguments: {' '.join(flag)}\n")
    else:
        assert captured.err == f"teleswitch: error: unknown config key {next(iter(payload))!r}\n"
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("argv, config, clash", [
    (["three-path", "--lambda", "1", "--alpha=1,1,1", "--p-step", "0.2"], {},
     "the phase scan of --lambda/--phi does not read --alpha, --p-step"),
    (["three-path", "--phi", "0.5", "--p-max", "0.2"], {},
     "the phase scan of --lambda/--phi does not read --p-max"),
    (["three-path", "--lambda", "1"], {"p_min": 0.1}, "the phase scan of --lambda/--phi does not read --p-min"),
    (["fidelity-curves", "--lambda", "0.7", "--phi", "2"], {},
     "--outcome plus does not read --lambda, --phi"),
    (["fidelity-curves", "--outcome", "minus"], {"phi": 1}, "--outcome minus does not read --phi"),
])
def test_a_flag_the_mode_of_the_command_does_not_read_exits_one(argv, config, clash, tmp_path,
                                                                capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run_cli([*argv, "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == f"teleswitch: error: {clash}\n"
    assert list(tmp_path.iterdir()) == [cfg]


def test_null_for_a_key_without_a_default_leaves_it_unset(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": None, "p_step": 0.2}))
    assert run_cli(["three-path", "--config", str(cfg), "--out", str(tmp_path / "a.csv")]) == 0
    cfg.write_text(json.dumps({"alpha": None, "lambda": 1, "phi": 0}))
    assert run_cli(["three-path", "--config", str(cfg), "--out", str(tmp_path / "b.csv")]) == 0
