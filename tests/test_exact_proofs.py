"""Both sides of the all-versus-nothing argument as exact integer proofs, without numpy.

The quantum side: on the ideal state, 4 E of each of the nine correlation
words is the Gaussian integer 4 sign, and the frame's expectation is that
integer state on all 1,024 Pauli words (16 X-masks, 16 Z-masks, four
phases), so _frame's zero rule for the X-masks outside _LIVE_X is checked
exactly on every word.  The words one setting pair reads commute.

The local-realist side: the certificate's histogram is the closed form
of its GF(2) system, 16 C(9, 9 - k) for odd 9 - k, from rank 8 and sign
weight 5, so no assignment meets all nine constraints.

This file imports neither numpy nor hypothesis, so the numpy-free CI job
runs it on every interpreter.
"""

import math

import pytest

from avnsim import _frame, lhv
from avnsim._records import NoiseModel, SourceConfig
from avnsim._tables import CORRELATION_IDS, CORRELATIONS
from avnsim.lhv import CONSTRAINTS, SYMBOLS, avn_audit, certificate

# the ideal state's amplitudes on |HRVL>, |HLVR>, |VRHL>, |VLHR>, doubled
# to integers, and i^k as a Gaussian integer (real, imaginary)
_TWO_PSI = {3: 1, 6: -1, 9: -1, 12: 1}
_GAUSSIAN_I_POWER = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _four_e(word) -> tuple[int, int]:
    """4 <psi|i^k X^x Z^z|psi> as a Gaussian integer: sum_b conj(2psi(b^x)) 2psi(b) (-1)^|z&b| i^k."""
    x, z, k = word
    total = sum(_TWO_PSI.get(b ^ x, 0) * amp * (-1) ** (z & b).bit_count() for b, amp in _TWO_PSI.items())
    re, im = _GAUSSIAN_I_POWER[k]
    return total * re, total * im


def test_all_nine_correlations_hold_exactly_on_the_ideal_state():
    # the QM side of the all-versus-nothing argument in integers: 4E = 4 sign,
    # with no imaginary part, for every correlation word at once
    assert [_four_e(w) for w in _frame._CORRELATION_WORDS] == [(4 * corr.sign, 0) for corr in CORRELATIONS]


def test_the_frames_ideal_state_is_the_integer_state_on_every_word():
    expect = _frame._expectation(SourceConfig(), NoiseModel())
    for x in range(16):
        for z in range(16):
            for k in range(4):
                assert 4.0 * expect((x, z, k)) == _four_e((x, z, k))[0], (x, z, k)


@pytest.mark.parametrize("idx, corr_id", list(enumerate(CORRELATION_IDS)))
def test_the_words_read_in_one_setting_pair_commute(idx, corr_id):
    # even symplectic product |x1 & z2| + |z1 & x2|: the four generators and
    # the correlation word they read are measured together
    words = [_frame.word(g) for g in _frame._generators(CORRELATIONS[idx])] + [_frame._CORRELATION_WORDS[idx]]
    for x1, z1, _ in words:
        for x2, z2, _ in words:
            assert ((x1 & z2).bit_count() + (z1 & x2).bit_count()) % 2 == 0, corr_id


def test_histogram_against_rank_argument():
    # independent oracle: over GF(2) the nine constraints are linear in
    # the sign exponents; their only dependency is the full sum, so a
    # pattern satisfying exactly k constraints is consistent iff k is
    # even, and each consistent pattern has 2^(12-8) solutions
    expected = tuple(
        16 * math.comb(9, k) if k % 2 == 0 else 0 for k in range(10)
    )
    assert avn_audit().histogram == expected


def test_certificate_histogram_is_the_closed_form_of_the_encoded_system():
    # every symbol sits in two constraints, so each flip word has weight
    # 2 and their span holds only even-weight words; at rank n - 1 it is
    # all of them, so the violated sets (the sign word plus the span) are
    # exactly the words of the sign word's parity, each reached by
    # 2^(12 - rank) assignments
    sign, flips = lhv._encode(CONSTRAINTS)
    n = len(CONSTRAINTS)
    assert {flip.bit_count() for flip in flips} == {2}
    rank = _gf2_rank(flips)
    assert rank == n - 1 == 8
    assert sign.bit_count() == 5
    closed = [
        2 ** (len(SYMBOLS) - rank) * math.comb(n, n - k) if (n - k) % 2 == sign.bit_count() % 2 else 0
        for k in range(n + 1)
    ]
    assert closed == [16, 0, 576, 0, 2016, 0, 1344, 0, 144, 0]
    assert certificate()["histogram_by_satisfied_count"] == closed


def _gf2_rank(words):
    """Rank over GF(2) of integers read as bit vectors, by elimination on the lowest set bit."""
    rows, rank = list(words), 0
    while rows:
        pivot = rows.pop()
        if pivot:
            rank += 1
            low = pivot & -pivot
            rows = [row ^ pivot if row & low else row for row in rows]
    return rank
