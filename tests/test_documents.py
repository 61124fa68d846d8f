"""The committed simulate and reproduce-paper documents, reproduced through cli.main.

The documents under tests/data were written by `python -m avnsim`.  The
commands that print them run in the standard library alone (the Pauli
frame and the port of numpy's sampler, with every float sum taken left to
right), so they must match byte for byte on every platform.

tests/data/documents.json is the wider corpus: one entry per command line,
with the config it reads on stdin (`--config -`), the sha256 of what it
prints and its exit code, rejected configs included.
"""

import hashlib
import io
import json
import os
import sys

import pytest

from avnsim.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")

_PAIR_RATE_2 = os.path.join(DATA, "pair_rate_2.config.json")
DOCUMENTS = [
    ("simulate.json", ["simulate", "--seed", "0", "--format", "json"]),
    ("simulate.csv", ["simulate", "--seed", "0", "--format", "csv"]),
    ("simulate.txt", ["simulate", "--seed", "0", "--format", "text"]),
    ("simulate_pair_rate_2.json", ["simulate", "--config", _PAIR_RATE_2, "--seed", "0", "--format", "json"]),
    ("reproduce.json", ["reproduce-paper", "--seed", "0", "--format", "json"]),
    ("reproduce.txt", ["reproduce-paper", "--seed", "0", "--format", "text"]),
]


@pytest.mark.parametrize("name, args", DOCUMENTS, ids=[f"{name}-exact" for name, _ in DOCUMENTS])
def test_cli_reproduces_the_committed_document(name, args, capsys):
    assert main(args) == 0
    got = capsys.readouterr().out
    with open(os.path.join(DATA, name), encoding="utf-8", newline="") as fh:
        want = fh.read()
    assert got == want


def test_the_pair_rate_2_document_has_empty_rows():
    with open(os.path.join(DATA, "simulate_pair_rate_2.json"), encoding="utf-8") as fh:
        rows = json.load(fh)["correlations"]
    assert any(row["n"] == 0 and row["E"] is None for row in rows)


with open(os.path.join(DATA, "documents.json"), encoding="utf-8") as _fh:
    CORPUS = json.load(_fh)


@pytest.mark.parametrize("entry", CORPUS, ids=[entry["name"] for entry in CORPUS])
def test_cli_prints_the_corpus_document(entry, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("" if entry["config"] is None else json.dumps(entry["config"])))
    code = main(entry["argv"])
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == (entry["stdout_sha256"], entry["exit_code"])
