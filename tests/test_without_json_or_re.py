"""The string methods that stand in for json and re on the command path.

cli quotes a printable-ASCII string itself and calls json.dumps only for
any other string, reads a negative number with str.isdecimal, and _tables
splits the twelve symbols at their Pauli letters, so a cold command
imports neither json nor re.  Each stand-in is held here to the call it
replaced.  This file imports neither numpy nor hypothesis, so CI runs it
on an interpreter without numpy too.
"""

import json
import os
import random
import re
import sys

import pytest

from avnsim._tables import SYMBOLS, _split_symbol
from avnsim.cli import _negative_number, to_json

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# the two regular expressions that _tables and cli used
FACTOR = re.compile(r"([zx])([AB])('?)")
NEGATIVE_NUMBER = re.compile(r"-(\d+|\d*\.\d+)?")


def assert_quoted_as_json(s):
    assert to_json(s) == json.dumps(s), repr(s)
    assert to_json({s: [s]}) == json.dumps({s: [s]}, indent=2), repr(s)


def test_every_ascii_character_and_pair_is_quoted_as_json():
    ascii_chars = [chr(c) for c in range(128)]
    for a in ["", *ascii_chars]:
        for b in ascii_chars:
            assert to_json(a + b) == json.dumps(a + b), repr(a + b)
    for a in ascii_chars:
        assert_quoted_as_json(a)


def _strings(value):
    """Every string in a parsed JSON value, keys included."""
    if isinstance(value, str):
        yield value
    elif isinstance(value, dict):
        for k, v in value.items():
            yield k
            yield from _strings(v)
    elif isinstance(value, list):
        for v in value:
            yield from _strings(v)


def _golden_strings():
    """The strings of every golden and of the corpus (documents.json): each JSON file's
    keys and values, and each line and comma-separated field of the csv and text goldens."""
    found = set()
    for name in sorted(os.listdir(DATA)):
        with open(os.path.join(DATA, name), encoding="utf-8") as fh:
            text = fh.read()
        if name.endswith(".json"):
            found.update(_strings(json.loads(text)))
        else:
            for line in text.splitlines():
                found.add(line)
                found.update(line.split(","))
    return sorted(found)


def test_every_string_of_the_goldens_and_the_corpus_is_quoted_as_json():
    strings = _golden_strings()
    assert {"ZZ'-Z-Z'", "argmax_assignments", "predict-default-json", "--config"} <= set(strings)
    for s in strings:
        assert_quoted_as_json(s)


def test_seeded_random_text_is_quoted_as_json():
    rng = random.Random(40)
    pools = [
        [chr(c) for c in range(0x20, 0x7F)],
        ['"', "\\", "/", "'"],
        [chr(c) for c in [*range(0x20), 0x7F]],
        ["\x80", "\xa0", "\xe9", "\u2028", "\u2029", "\u20ac", "\ufeff", "\uffff"],
        ["\U0001F600", "\U00010000", "\U0010FFFF"],
        ["\ud800", "\udbff", "\udc00", "\udfff"],
    ]
    for _ in range(5000):
        s = "".join(rng.choice(rng.choice(pools)) for _ in range(rng.randint(0, 12)))
        assert_quoted_as_json(s)


def test_the_symbols_split_as_the_factor_expression_finds():
    for symbol in SYMBOLS:
        assert _split_symbol(symbol) == FACTOR.findall(symbol), symbol
    rng = random.Random(41)
    factors = [p + q + r for p in "zx" for q in "AB" for r in ("", "'")]
    for _ in range(2000):
        symbol = "".join(rng.choices(factors, k=rng.randint(1, 5)))
        assert _split_symbol(symbol) == FACTOR.findall(symbol), symbol


@pytest.mark.parametrize("token", ["-", "--", "-.5", "-1.", "-1e3", "-١٢", "-½", "-0", "-1.5", "-.", "-..5", "-1.2.3", "- 1", "-1\n"])
def test_a_negative_number_is_what_argparse_matches(token):
    assert _negative_number(token) == bool(NEGATIVE_NUMBER.fullmatch(token))


def test_every_character_and_generated_tokens_read_as_the_expression_does():
    for c in map(chr, range(sys.maxunicode + 1)):
        token = "-" + c
        assert _negative_number(token) == bool(NEGATIVE_NUMBER.fullmatch(token)), repr(token)
    rng = random.Random(42)
    alphabet = ["-", ".", "0", "7", "9", "e", "+", " ", "\n", "a", "١", "٢", "½", "²", "𝟘", "๓"]
    for _ in range(20000):
        token = "-" + "".join(rng.choices(alphabet, k=rng.randint(0, 6)))
        assert _negative_number(token) == bool(NEGATIVE_NUMBER.fullmatch(token)), repr(token)
