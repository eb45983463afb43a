import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from teleswitch import analysis, cli, verification


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


def test_region_map_writes_two_tables(tmp_path, monkeypatch):
    emitted = {}

    def capture(cfg, command, params, tables):
        emitted.update((suffix, values) for suffix, _, values in tables)
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
        assert path.read_bytes() == _row_writer_bytes(names, values)
    if argv[0] == "region-map":
        # several full blocks and a partial last one
        rows = len(emitted[1][2][0])
        assert rows == 51 * 335
        assert rows > 2 * cli.CSV_BLOCK_ROWS and rows % cli.CSV_BLOCK_ROWS
    if argv[0] == "three-path":
        assert b'"F(-1,-1,-1)"' in out.read_bytes()


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


@pytest.mark.parametrize("argv, target", [
    (["fidelity-curves"], "missing/x.csv"),
    (["region-map"], "."),
    (["fom-scan", "--lambda", "1", "--format", "json"], "missing/x.json"),
    (["verify"], "missing/x.json"),
])
def test_unwritable_out_exits_one(argv, target, tmp_path, capsys):
    assert run_cli([*argv, "--out", str(tmp_path / target)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert err.startswith("teleswitch: error: cannot write output file")


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
    assert run_cli(["three-path", "--paths", "2"]) == 1
    capsys.readouterr()


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
                             ("fidelity-curves", {"outcome": "bogus"}),
                             ("fidelity-curves", {"out": 5}),
                             ("fidelity-curves", {"format": "xml"})):
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
])
def test_non_finite_values_exit_one(argv, capsys):
    assert run_cli(argv) == 1
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


def test_verify_reports_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert run_cli(["verify", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["failed"] == 0
    assert len(payload["checks"]) >= 12
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
        cli.verification,
        "run_all",
        lambda seed: [verification.CheckResult("forced", False, "synthetic")],
    )
    assert run_cli(["verify"]) == 2
    capsys.readouterr()


def test_console_script_is_installed():
    # the child imports the package from where this process found it
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "teleswitch.cli", "fidelity-curves", "--p-step", "0.2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("p,F1,F2")
