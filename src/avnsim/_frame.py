"""Exact predictions in the Pauli frame, in the standard library alone.

Each of the twelve SYMBOLS is a four-qubit Pauli word (x, z, k), the
operator i^k X^x Z^z, where x and z are masks over the basis-index bits
(pol_A the most significant, as in qstate.INDEX_BITS).  Words compose as

    (x1, z1, k1)(x2, z2, k2) = (x1 ^ x2, z1 ^ z2, k1 + k2 + 2|z1 & x2| mod 4).

The noise channel of source.apply_noise scales each word on its own:

    Tr(rho P) = (1 - w) vp^|x & pol| vq^|x & path| <psi_d|P|psi_d> + w [P = I],

where psi_d is the ideal state with the phase offset on path_A.  The M
histogram follows from the four setting-c generators G_i, which are the
M correlation's factors in readout-bit order:

    p(b) = 2^-4 sum_S (prod_{i in S} b_i) E(prod_{i in S} G_i).

The dense path, experiment.predict_exact(source.apply_noise(...)), is
this module's oracle in the tests.
"""

from __future__ import annotations

import cmath
import re
from functools import reduce

from ._records import CorrelationEstimate, ExperimentReport, NoiseModel, SourceConfig, _sigma_violation
from ._tables import CORRELATION_BY_ID, CORRELATIONS, SYMBOLS

Word = tuple[int, int, int]

IDENTITY: Word = (0, 0, 0)
# index bit of each [AB]'? slot, and the polarization and path masks
_SLOT_BIT = {("A", ""): 8, ("A", "'"): 4, ("B", ""): 2, ("B", "'"): 1}
_POL, _PATH = 0b1010, 0b0101
_I_POWER = (1, 1j, -1, -1j)


def compose(p: Word, q: Word) -> Word:
    """The word of the operator product p @ q."""
    return p[0] ^ q[0], p[1] ^ q[1], (p[2] + q[2] + 2 * (p[1] & q[0]).bit_count()) % 4


def word(symbol: str) -> Word:
    """The word of one of the twelve SYMBOLS, its factors multiplied left to right."""
    if symbol not in SYMBOLS:
        raise KeyError(f"unknown observable symbol {symbol!r}")
    out = IDENTITY
    for pauli, party, prime in re.findall(r"([zx])([AB])('?)", symbol):
        bit = _SLOT_BIT[party, prime]
        out = compose(out, (bit, 0, 0) if pauli == "x" else (0, bit, 0))
    return out


def _product(symbols) -> Word:
    return reduce(compose, map(word, symbols), IDENTITY)


_CORRELATION_WORDS = tuple(_product(symbol for _, symbol in corr.factors) for corr in CORRELATIONS)
_M_GENERATORS = tuple(symbol for _, symbol in CORRELATION_BY_ID["M"].factors)
# generator i reads index bit 3 - i, so subset mask m holds G_i when bit 3 - i is set
_M_SUBSET_WORDS = tuple(
    _product(g for i, g in enumerate(_M_GENERATORS) if mask >> (3 - i) & 1) for mask in range(16)
)


def predict(source: SourceConfig, noise: NoiseModel) -> ExperimentReport:
    """predict_exact(apply_noise(build_psi(source), noise)) in closed form, equal to rounding."""
    phase = cmath.exp(1j * (source.phi + noise.phase_offset))
    # |HRVL>, |HLVR>, |VRHL>, |VLHR>; the path phase sits on path_A = 1
    psi = {3: 0.5, 6: -0.5 * phase, 9: -0.5, 12: 0.5 * phase}
    w = noise.white_noise_weight

    def expect(p: Word) -> float:
        x, z, k = p
        pure = sum(psi.get(b ^ x, 0.0).conjugate() * amp * (-1) ** (z & b).bit_count() for b, amp in psi.items())
        damp = (1.0 - w) * noise.pol_visibility ** (x & _POL).bit_count() * noise.path_visibility ** (x & _PATH).bit_count()
        return damp * (_I_POWER[k] * pure).real + (w * _I_POWER[k].real if x == z == 0 else 0.0)

    values = [expect(p) for p in _CORRELATION_WORDS]
    bell = sum(corr.sign * e for corr, e in zip(CORRELATIONS, values))
    subsets = [expect(p) for p in _M_SUBSET_WORDS]
    hist = []
    for b in range(16):
        p = sum((-1) ** (mask & b).bit_count() * e for mask, e in enumerate(subsets)) / 16
        hist.append(p if p > 0.0 else 0.0)
    # the M statistic is the product of all four readout bits
    fidelity = sum(p for b, p in enumerate(hist) if b.bit_count() % 2)
    return ExperimentReport(
        estimates=tuple(CorrelationEstimate(corr.id, e, 0.0, 0) for corr, e in zip(CORRELATIONS, values)),
        bell_value=bell,
        bell_stderr=0.0,
        sigma_violation=_sigma_violation(bell, 0.0),
        m_fidelity=fidelity,
        m_histogram=tuple(hist),
        seed=None,
        schedule=None,
    )
