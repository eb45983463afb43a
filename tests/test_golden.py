"""Golden output corpus: the SHA-256 of every byte a fixed list of CLI commands writes.

tests/golden.json maps each command to its exit code and the hashes of its
stdout, its stderr and each file it writes. A change that moves any output on
purpose rewrites the file with

    PYTHONPATH=src python tests/test_golden.py

and names every changed entry in CHANGES.md; the script prints each entry it
added, removed or changed. A hash is exact: a change in summation order that
moves one printed digit fails the test, and so may a different Python or numpy
version (the file records the ones it was made with).
"""
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from teleswitch import cli

GOLDEN = Path(__file__).with_name("golden.json")

# config files the commands below read, written into the working directory first
CONFIGS = {
    "missing-brace.json": '{"q": 0.5',
    "list.json": "[1, 2]",
    "unknown-key.json": '{"pstep": 0.1}',
    "paths.json": '{"paths": 3.0}',
    "bool-seed.json": '{"seed": true}',
    "bool-q.json": '{"q": true}',
    "null-q.json": '{"q": null}',
}

COMMANDS = [
    # every subcommand at default flags, in CSV and in JSON
    ["fidelity-curves"],
    ["fidelity-curves", "--format", "json"],
    ["region-map", "--out", "region.csv"],
    ["region-map", "--format", "json"],
    ["fom-scan"],
    ["fom-scan", "--format", "json"],
    ["tradeoff"],
    ["tradeoff", "--format", "json"],
    ["coherence-scan"],
    ["coherence-scan", "--format", "json"],
    ["three-path"],
    ["three-path", "--format", "json"],
    ["verify"],
    ["verify", "--out", "report.json"],
    # a JSON table written to a file
    ["region-map", "--format", "json", "--out", "region.json"],
    ["fom-scan", "--lambda", "1", "--format", "json", "--out", "fom.json"],
    # edge cases
    ["fidelity-curves", "--outcome", "minus"],
    ["fidelity-curves", "--outcome", "custom", "--lambda", "0.7", "--phi", "2.1", "--q", "0.3"],
    ["fidelity-curves", "--p-min", "-0", "--p-step", "0.1"],
    ["three-path", "--alpha=-1,-1,-1"],
    # a fine grid next to the alternating outcome's one 0/0 point, p = 0
    ["three-path", "--alpha=-1,-1,-1", "--p-max", "1e-5", "--p-step", "1e-6"],
    ["three-path", "--lambda", "1"],
    ["fom-scan", "--q", "0", "--lambda", "0"],
    # help screens
    ["--help"],
    *([name, "--help"] for name in cli.COMMANDS),
    # exit 3: an outcome that never fires
    ["fidelity-curves", "--q", "1", "--outcome", "1"],
    ["fidelity-curves", "--q", "1", "--outcome", "1", "--out", "c.csv"],
    # exit 1: one input for each kind of usage error
    [],
    ["three-path", "--paths", "2"],
    ["fidelity-curves", "--outcome", "bogus"],
    ["fidelity-curves", "--q", "abc"],
    ["fidelity-curves", "--q", "1.5"],
    ["fidelity-curves", "--p-max", "0.5"],
    ["fidelity-curves", "--p-step", "0"],
    ["fidelity-curves", "--p-step", "1e-9"],
    ["fidelity-curves", "--outcome", "custom"],
    ["fom-scan", "--lambda", "nan"],
    ["fom-scan", "--lambda", "1e200"],
    ["three-path", "--alpha", "1,2"],
    ["verify", "--seed", "-1"],
    ["region-map"],
    ["region-map", "--out", "."],
    ["region-map", "--out", "d/"],
    ["fidelity-curves", "--out", "e/"],
    ["fidelity-curves", "--out", "missing-dir/curves.csv"],
    ["fidelity-curves", "--config", "absent.json"],
    *(["fidelity-curves", "--config", name] for name in CONFIGS),
    ["verify", "--config", "bool-seed.json"],
    # a flag the command does not read
    ["tradeoff", "--q", "0.3"],
    ["coherence-scan", "--p-step", "0.1"],
    ["verify", "--alpha=1,1,1"],
    ["region-map", "--lambda", "2", "--out", "x.csv"],
    ["fom-scan", "--p-step", "0.2"],
    ["verify", "--format", "json"],
    # a flag the command's mode does not read
    ["three-path", "--lambda", "1", "--alpha=1,1,1", "--p-step", "0.2"],
    ["three-path", "--phi", "0.5", "--p-max", "0.2"],
    ["fidelity-curves", "--lambda", "0.7", "--phi", "2"],
]


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _run(argv):
    """{exit, stdout, stderr, files} of one in-process run in the current directory."""
    before = set(os.listdir())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    files = {name: _sha(Path(name).read_bytes()) for name in sorted(set(os.listdir()) - before)}
    return {"exit": code, "stdout": _sha(out.getvalue().encode()),
            "stderr": _sha(err.getvalue().encode()), "files": files}


def run_corpus():
    """The corpus entry of every command, each run in a fresh working directory.

    argparse wraps its usage and help lines to the terminal width it reads from
    COLUMNS, so the width is fixed here.
    """
    cwd = os.getcwd()
    entries = {}
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        for i, argv in enumerate(COMMANDS):
            work = Path(tmp, str(i))
            work.mkdir()
            for name, text in CONFIGS.items():
                (work / name).write_text(text)
            os.chdir(work)
            try:
                entries[" ".join(argv)] = _run(argv)
            finally:
                os.chdir(cwd)
    return entries


def _versions():
    return {"python": platform.python_version(), "numpy": np.__version__}


def test_cli_outputs_match_the_golden_corpus():
    golden = json.loads(GOLDEN.read_text())
    got, now = run_corpus(), _versions()
    changed = sorted(k for k in golden["commands"].keys() | got.keys()
                     if golden["commands"].get(k) != got.get(k))
    assert not changed, (
        f"CLI output differs from {GOLDEN.name} for {changed}; the corpus was recorded "
        f"with Python {golden['python']} and numpy {golden['numpy']}, this run has "
        f"Python {now['python']} and numpy {now['numpy']}")


def _report(old, new):
    """One line per entry added, removed or changed between two corpora, changes with their fields."""
    for key in sorted(old.keys() | new.keys()):
        command = f"teleswitch {key}".rstrip()
        if key not in old:
            yield f"added: {command}"
        elif key not in new:
            yield f"removed: {command}"
        elif old[key] != new[key]:
            fields = [f for f in new[key] if old[key].get(f) != new[key][f]]
            yield f"changed: {command} ({', '.join(fields)})"


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text())["commands"]
    new = run_corpus()
    GOLDEN.write_text(json.dumps({**_versions(), "commands": new}, indent=1) + "\n")
    for line in _report(old, new):
        print(line)
    print(f"wrote {len(COMMANDS)} entries to {GOLDEN}", file=sys.stderr)
