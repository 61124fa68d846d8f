"""A cold command imports only what it needs.

Each subcommand runs as `python -X dev -W error -m avnsim` with the modules
in BLOCKED set to None in sys.modules, by a sitecustomize module put first
on PYTHONPATH, so that importing any of them raises ImportError.  Each run
must exit 0 and print its committed document byte for byte, and each JSON
command must run the code of exactly the avnsim modules RUNS lists for it.  This file
imports neither numpy nor hypothesis, so CI runs it on an interpreter
without numpy too, where `site` has not already imported typing.
"""

import os
import subprocess
import sys

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")
DATA = os.path.join(TESTS, "data")

# numpy and dataclasses belong to the dense path; argparse, with the gettext
# and locale it imports, to the old parser; typing and numbers to annotations
# and to the numeric ABCs, which only a numpy scalar needs; the csv format
# needs no csv module, since none of its fields can need quoting; json only
# reads a config and escapes a string that is not printable ASCII, and no
# command needs re, since the symbols and the negative numbers of the
# grammar are read with string methods
BLOCKED = ("numpy", "dataclasses", "argparse", "gettext", "locale", "typing", "numbers", "csv", "json", "re")

COMMANDS = [
    ("predict.json", ["predict"]),
    ("predict.csv", ["predict", "--format", "csv"]),
    ("simulate.json", ["simulate", "--seed", "0"]),
    ("simulate.csv", ["simulate", "--seed", "0", "--format", "csv"]),
    ("lhv.json", ["lhv"]),
    ("reproduce.json", ["reproduce-paper", "--seed", "0"]),
]


def run_blocked(site_dir, *args):
    """`python -X dev -W error <args>` with BLOCKED unimportable; site_dir receives the sitecustomize."""
    with open(os.path.join(site_dir, "sitecustomize.py"), "w", encoding="utf-8") as fh:
        fh.write(f"import sys\nsys.modules.update(dict.fromkeys({BLOCKED!r}))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(site_dir), SRC]))
    return subprocess.run([sys.executable, "-X", "dev", "-W", "error", *args], capture_output=True, env=env)


@pytest.mark.parametrize("name, args", COMMANDS, ids=[args[0] if name.endswith(".json") else name for name, args in COMMANDS])
def test_command_runs_without_the_blocked_modules(name, args, tmp_path):
    proc = run_blocked(tmp_path, "-m", "avnsim", *args)
    assert (proc.returncode, proc.stderr) == (0, b"")
    with open(os.path.join(DATA, name), "rb") as fh:
        assert proc.stdout == fh.read()


JSON_COMMANDS = [(name, args) for name, args in COMMANDS if name.endswith(".json")]
# the avnsim modules whose code each JSON command runs; every other module is
# registered by avnsim's __init__ but never loaded, so never compiled
RUNS = {
    "predict": ["_frame", "_records", "_tables", "cli"],
    "simulate": ["_frame", "_records", "_sampler", "_tables", "cli"],
    "lhv": ["_tables", "cli", "lhv"],
    "reproduce-paper": ["_frame", "_records", "_sampler", "_tables", "cli", "reference"],
}
# cli.main on the arguments, the document to --out; then the modules whose
# code ran, which the lazy loader leaves as plain modules, sorted
LOADED = """\
import sys, types
from avnsim import cli
code = cli.main(sys.argv[1:])
print(*sorted(n[7:] for n, m in sys.modules.items() if n.startswith("avnsim.") and type(m) is types.ModuleType))
raise SystemExit(code)
"""


@pytest.mark.parametrize("name, args", JSON_COMMANDS, ids=[args[0] for _, args in JSON_COMMANDS])
def test_a_json_command_runs_only_its_own_modules(name, args, tmp_path):
    out = tmp_path / name
    proc = run_blocked(tmp_path, "-c", LOADED, *args, "--out", str(out))
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.decode().split() == RUNS[args[0]]
    with open(os.path.join(DATA, name), "rb") as fh:
        assert out.read_bytes() == fh.read()


@pytest.mark.parametrize("module", BLOCKED)
def test_the_guard_blocks_each_module(module, tmp_path):
    proc = run_blocked(tmp_path, "-c", f"import {module}")
    assert proc.returncode == 1
    assert f"import of {module} halted".encode() in proc.stderr
