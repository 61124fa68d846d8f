"""The eleven committed documents of all four subcommands, reproduced through cli.main.

The documents under tests/data were written by `python -m avnsim`.  The
commands that print them run in the standard library alone (the Pauli
frame and the port of numpy's sampler, with every float sum taken left to
right), so they must match byte for byte on every platform.  This file
imports no numpy, so CI runs it on an interpreter without numpy too.

tests/data/documents.json is the wider corpus: one entry per command line,
with the config it reads on stdin (`--config -`), the sha256 of what it
prints and its exit code, rejected configs included.

Each document is printed a second time with builtins.sum replaced by a
compensated one (math.fsum on floats), which changes the last bit of many
float sums, as the compensated sum() of Python 3.12 and later changes
some: the bytes must not change, so no float sum behind them is left to
the interpreter's sum().
"""

import builtins
import hashlib
import io
import json
import math
import os
import sys
from functools import lru_cache

import pytest

from avnsim import reference
from avnsim.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")

_PAIR_RATE_2 = os.path.join(DATA, "pair_rate_2.config.json")
DOCUMENTS = [
    ("predict.json", ["predict", "--format", "json"]),
    ("predict.csv", ["predict", "--format", "csv"]),
    ("predict.txt", ["predict", "--format", "text"]),
    ("lhv.json", ["lhv", "--format", "json"]),
    ("lhv.txt", ["lhv", "--format", "text"]),
    ("simulate.json", ["simulate", "--seed", "0", "--format", "json"]),
    ("simulate.csv", ["simulate", "--seed", "0", "--format", "csv"]),
    ("simulate.txt", ["simulate", "--seed", "0", "--format", "text"]),
    ("simulate_pair_rate_2.json", ["simulate", "--config", _PAIR_RATE_2, "--seed", "0", "--format", "json"]),
    ("reproduce.json", ["reproduce-paper", "--seed", "0", "--format", "json"]),
    ("reproduce.txt", ["reproduce-paper", "--seed", "0", "--format", "text"]),
]


_BUILTIN_SUM = builtins.sum


def _compensated_sum(values, /, start=0):
    """sum() with floats added by math.fsum, ints exactly, anything else as builtins.sum adds it."""
    values = [start, *values]
    if all(isinstance(v, (int, float)) for v in values) and not all(isinstance(v, int) for v in values):
        return math.fsum(values)
    return _BUILTIN_SUM(values[1:], values[0])


def _sum_variants(cases, ids):
    """Each case twice: with builtins.sum, then with a compensated sum in its place."""
    return [pytest.param(*case, compensated, id=f"{case_id}-compensated-sum" if compensated else case_id)
            for compensated in (False, True) for case, case_id in zip(cases, ids)]


def _use_sum(compensated, monkeypatch):
    if compensated:
        monkeypatch.setattr(builtins, "sum", _compensated_sum)
        # the fit behind reproduce-paper is cached: fit again under this sum, into a cache of its own
        monkeypatch.setattr(reference, "fitted_noise", lru_cache(maxsize=1)(reference.fitted_noise.__wrapped__))


@pytest.mark.parametrize("name, args, compensated", _sum_variants(DOCUMENTS, [f"{name}-exact" for name, _ in DOCUMENTS]))
def test_cli_reproduces_the_committed_document(name, args, compensated, capsys, monkeypatch):
    _use_sum(compensated, monkeypatch)
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


@pytest.mark.parametrize("entry, compensated", _sum_variants([(entry,) for entry in CORPUS], [entry["name"] for entry in CORPUS]))
def test_cli_prints_the_corpus_document(entry, compensated, capsys, monkeypatch):
    _use_sum(compensated, monkeypatch)
    monkeypatch.setattr(sys, "stdin", io.StringIO("" if entry["config"] is None else json.dumps(entry["config"])))
    try:
        code = main(entry["argv"])
    except SystemExit as exc:  # a usage error, as `python -m avnsim` exits with it
        code = exc.code
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == (entry["stdout_sha256"], entry["exit_code"])


def test_reproduce_paper_prints_the_same_json_under_a_compensated_sum(capsys, monkeypatch):
    def documents():
        return [(main(["reproduce-paper", "--seed", str(seed), "--format", "json"]), capsys.readouterr().out) for seed in range(64)]

    plain = documents()
    _use_sum(True, monkeypatch)
    assert documents() == plain
