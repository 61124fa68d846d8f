"""Config numbers that no float can hold: exit 2 with a message, not a traceback.

JSON integers are unbounded, and float() of one beyond about 1.8e308
raises OverflowError.  Each numeric config field must turn that into the
usage error "<field> must be a number in float range", which shows the
first 40 characters of the value.

This file imports neither numpy nor hypothesis, so the numpy-free CI job
runs it on every interpreter.
"""

import io
import json
import sys

import pytest

from avnsim.cli import main

HUGE = 10**400  # 401 digits, beyond the largest double

FIELDS = {
    "noise.pol_visibility": {"noise": {"pol_visibility": HUGE}},
    "source.phi": {"source": {"phi": HUGE}},
    "schedule.overrides.ZZ.duration": {"schedule": {"overrides": {"ZZ": {"duration": HUGE}}}},
}


@pytest.mark.parametrize("command", ["predict", "simulate"])
@pytest.mark.parametrize("field", FIELDS)
def test_an_integer_beyond_float_range_exits_2_naming_its_field(field, command, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(FIELDS[field])))
    assert main([command, "--config", "-"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"avnsim: error: {field} must be a number in float range, got 1{'0' * 39}\n"


def test_a_large_integer_inside_float_range_reaches_the_fields_own_check(capsys, monkeypatch):
    # 10**40 converts to a float, so the visibility's [0, 1] check refuses it
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"noise": {"pol_visibility": 10**40}})))
    assert main(["predict", "--config", "-"]) == 2
    assert capsys.readouterr() == ("", "avnsim: error: noise.pol_visibility must lie in [0, 1], got 1e+40\n")
