"""The committed simulate and reproduce-paper documents, reproduced through cli.main.

The documents under tests/data were written by `python -m avnsim` on the
numpy version and machine recorded in golden_platform.json.  There they
must match byte for byte; elsewhere a different BLAS or numpy may move
the last digit of a float, so the parsed documents are compared instead:
ints, strings and nulls exactly, floats within 1e-12.
"""

import json
import math
import os
import platform
import re

import numpy as np
import pytest

from avnsim.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")

with open(os.path.join(DATA, "golden_platform.json"), encoding="utf-8") as _fh:
    _PLATFORM = json.load(_fh)
MODE = "exact" if (np.__version__, platform.machine()) == (_PLATFORM["numpy"], _PLATFORM["machine"]) else "parsed"

_PAIR_RATE_2 = os.path.join(DATA, "pair_rate_2.config.json")
DOCUMENTS = [
    ("simulate.json", ["simulate", "--seed", "0", "--format", "json"]),
    ("simulate.csv", ["simulate", "--seed", "0", "--format", "csv"]),
    ("simulate.txt", ["simulate", "--seed", "0", "--format", "text"]),
    ("simulate_pair_rate_2.json", ["simulate", "--config", _PAIR_RATE_2, "--seed", "0", "--format", "json"]),
    ("reproduce.json", ["reproduce-paper", "--seed", "0", "--format", "json"]),
    ("reproduce.txt", ["reproduce-paper", "--seed", "0", "--format", "text"]),
]


def _tokens(text):
    # csv and text documents: each run of non-space, non-comma characters
    return [_scalar(tok) for tok in re.split(r"[\s,]+", text) if tok]


def _scalar(tok):
    for kind in (int, float):
        try:
            return kind(tok)
        except ValueError:
            pass
    return tok


def _assert_close(got, want, where="$"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float) or isinstance(got, float):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert got == want or abs(got - want) <= 1e-12 or (math.isnan(got) and math.isnan(want)), where
    else:  # int, str, bool and None: exactly
        assert type(got) is type(want) and got == want, where


@pytest.mark.parametrize("name, args", DOCUMENTS, ids=[f"{name}-{MODE}" for name, _ in DOCUMENTS])
def test_cli_reproduces_the_committed_document(name, args, capsys):
    assert main(args) == 0
    got = capsys.readouterr().out
    with open(os.path.join(DATA, name), encoding="utf-8", newline="") as fh:
        want = fh.read()
    if MODE == "exact":
        assert got == want
    elif name.endswith(".json"):
        _assert_close(json.loads(got), json.loads(want))
    else:
        _assert_close(_tokens(got), _tokens(want))


def test_the_pair_rate_2_document_has_empty_rows():
    with open(os.path.join(DATA, "simulate_pair_rate_2.json"), encoding="utf-8") as fh:
        rows = json.load(fh)["correlations"]
    assert any(row["n"] == 0 and row["E"] is None for row in rows)
