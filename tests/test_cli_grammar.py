"""The command-line grammar: README's "Command line" block, read by argparse's rules.

This file imports neither numpy nor hypothesis, so CI runs it on an
interpreter without numpy too.
"""

import io
import json
import os
import sys

import pytest

from avnsim.cli import USAGE, _parse_args, main

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def readme_usage_block():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("## Command line"):]
    return section.split("```\n")[1]


def run(argv, capsys):
    """main(argv)'s exit code, stdout and stderr; a SystemExit counts as its code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_usage_is_the_readme_block():
    assert USAGE == readme_usage_block()


@pytest.mark.parametrize(
    "argv",
    [
        ["predict", "--format", "text"],
        ["predict", "--format=text"],
        ["predict", "--form", "text"],
        ["predict", "--f=text"],
        ["predict", "--format", "csv", "--format", "text"],
        ["predict", "--config", "-", "--format", "text"],
        ["predict", "--c=-", "--seed", "3", "--format", "text"],
    ],
)
def test_value_forms_prefixes_and_repeats_read_alike(argv, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("{}"))
    assert run(argv, capsys) == run(["predict", "--format", "text"], capsys)


def test_the_last_seed_wins(capsys):
    code, out, err = run(["simulate", "--seed", "5", "--se=7"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["rng"]["seed"] == 7


def test_parse_args_reads_a_negative_number_as_a_value():
    args = _parse_args(["reproduce-paper", "--seed", "-1", "--out", "-"])
    assert args == {"command": "reproduce-paper", "config": None, "seed": -1, "format": None, "out": "-"}


@pytest.mark.parametrize("argv", [["simulate", "--seed", "-1"], ["simulate", "--seed=-1"]])
def test_a_negative_seed_reaches_the_seed_check(argv, capsys):
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == "avnsim: error: seed -1 is outside [0, 2**64)\n"


@pytest.mark.parametrize(
    "argv",
    [["-h"], ["--help"], ["lhv", "-h"], ["predict", "--seed", "1", "--help"], ["reproduce-paper", "--he"]],
)
def test_help_prints_the_usage_block_and_exits_0(argv, capsys):
    assert run(argv, capsys) == (0, readme_usage_block(), "")


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "missing command"),
        (["frob"], "unknown command 'frob'"),
        (["--seed", "1", "predict"], "unknown command '--seed'"),
        (["predict", "--bogus"], "unrecognized arguments: --bogus"),
        (["predict", "extra"], "unrecognized arguments: extra"),
        (["predict", "--"], "unrecognized arguments: --"),
        (["lhv", "--seed", "1"], "unrecognized arguments: --seed"),
        (["reproduce-paper", "--config", "-"], "unrecognized arguments: --config"),
        (["predict", "--out"], "argument --out: expected one argument"),
        (["predict", "--config", "--seed", "1"], "argument --config: expected one argument"),
        (["simulate", "--seed", "-x"], "argument --seed: expected one argument"),
        (["simulate", "--seed", "one"], "argument --seed: invalid int value: 'one'"),
        (["simulate", "--seed=1.5"], "argument --seed: invalid int value: '1.5'"),
        (["lhv", "--format", "yaml"], "argument --format: invalid choice: 'yaml' (choose from 'json', 'csv', 'text')"),
    ],
)
def test_usage_errors_exit_2_on_stderr_alone(argv, message, capsys):
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("usage: avnsim ")
    assert err.endswith(f"\navnsim: error: {message}\n")


def test_a_usage_error_raises_system_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lhv", "--out"])
    assert exc.value.code == 2


def test_a_usage_error_shows_the_command_line_or_all_four(capsys):
    assert run(["lhv", "--bogus"], capsys)[2].splitlines()[0] == "usage: " + USAGE.splitlines()[2]
    assert len(run(["frob"], capsys)[2].splitlines()) == 5
