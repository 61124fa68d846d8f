"""The frame's support rule against the formula it replaced, without numpy.

_frame reads a Born row from the words whose X-mask is in _LIVE_X, the
masks that carry a source slot onto a source slot: every other word has
expectation 0 on the source.  The formula below is the one _frame used
before, kept verbatim: every word evaluated with a zero amplitude outside
the slots, and each bin the signed sum of all 16 subset words.  The rule
is exact because each dead word comes out +0.0 there and each bin's sum
starts with the identity term, which is about 1, so no partial sum is
-0.0 and adding +-0.0 moves no bit.

This file imports neither numpy nor hypothesis, so the numpy-free CI job
runs it on every interpreter.
"""

import cmath
import math
import operator
import random

from avnsim import _frame
from avnsim._records import NoiseModel, SourceConfig, _distributions, _exact_report, _left_sum
from avnsim._tables import CORRELATIONS, _PATH, _POL, _SOURCE_SLOTS

_I_POWER = (1, 1j, -1, -1j)
_BIN_SIGNS = tuple(tuple(-1.0 if (m & b).bit_count() % 2 else 1.0 for m in range(16)) for b in range(16))


def _formula_expectation(source, noise):
    phase = cmath.exp(1j * (source.phi + noise.phase_offset))
    psi = dict(zip(_SOURCE_SLOTS, (0.5, -0.5 * phase, -0.5, 0.5 * phase)))
    w = noise.white_noise_weight

    def expect(p):
        x, z, k = p
        pure = _left_sum([psi.get(b ^ x, 0.0).conjugate() * amp * (-1) ** (z & b).bit_count() for b, amp in psi.items()])
        damp = (1.0 - w) * noise.pol_visibility ** (x & _POL).bit_count() * noise.path_visibility ** (x & _PATH).bit_count()
        return damp * (_I_POWER[k] * pure).real + (w * _I_POWER[k].real if x == z == 0 else 0.0)

    return expect


def _formula_rows(expect, rows):
    table = []
    for k in rows:
        subsets = [expect(p) for p in _frame._ROW_SUBSET_WORDS[k]]
        table.append([_left_sum(map(operator.mul, signs, subsets)) / 16 for signs in _BIN_SIGNS])
    return _distributions(table)


def _formula_predict(expect):
    values = [expect(p) for p in _frame._CORRELATION_WORDS]
    bell = _left_sum([corr.sign * e for corr, e in zip(CORRELATIONS, values)])
    (hist,) = _formula_rows(expect, [len(CORRELATIONS) - 1])
    return _exact_report(values, bell, hist)


def _is_plus_zero(e):
    return e == 0.0 and math.copysign(1.0, e) == 1.0


def _configs(count):
    """Seeded configs: each weight 0, 1 or uniform, and phases well beyond +-pi."""
    rng = random.Random(32)

    def weight():
        return rng.choice((0.0, 1.0, rng.random(), rng.random()))

    for _ in range(count):
        yield SourceConfig(rng.uniform(-20.0, 20.0)), NoiseModel(weight(), weight(), weight(), rng.uniform(-20.0, 20.0))


def test_each_live_mask_maps_the_source_slots_onto_themselves_and_no_other_mask_meets_them():
    slots = set(_SOURCE_SLOTS)
    for x in range(16):
        image = {b ^ x for b in slots}
        assert (image == slots) == (x in _frame._LIVE_X), x
        assert (image == slots) or image.isdisjoint(slots), x


def test_born_rows_and_predict_equal_the_full_formula_to_the_bit():
    for source, noise in _configs(1000):
        expect = _formula_expectation(source, noise)
        assert repr(_frame.born_rows(source, noise)) == repr(_formula_rows(expect, range(len(CORRELATIONS)))), (source, noise)
        assert repr(_frame.predict(source, noise)) == repr(_formula_predict(expect)), (source, noise)


def test_every_word_with_a_dead_x_mask_is_plus_zero_under_the_full_formula():
    dead = [(x, z, k) for x in range(16) if x not in _frame._LIVE_X for z in range(16) for k in range(4)]
    assert len(dead) == 768
    for source, noise in _configs(300):
        expect, frame = _formula_expectation(source, noise), _frame._expectation(source, noise)
        for p in dead:
            assert _is_plus_zero(expect(p)) and _is_plus_zero(frame(p)), (source, noise, p)
