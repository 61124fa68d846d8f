"""The parties, the twelve local symbols, the six device settings and the
nine perfect correlations, as plain tables, the readout table derived
from them, and the tolerance ladder.

This module imports nothing outside the standard library, so the
local-realism certificate (lhv) and the Pauli-frame CLI path (_frame)
load without numpy.  qstate, observables and lhv import these names from
here, so each is one object whichever module it is read from.

Each setting reads its two generators on its party's two readout bits,
Alice's bits first.  The four bits (bit1_A, bit2_A, bit1_B, bit2_B) are
the bits 8, 4, 2, 1 of an outcome index, bit +1 mapping to 0, as in
qstate.INDEX_BITS.  A correlation's statistic is the product of its
factors' bits: -1 exactly on the outcomes whose bits in its mask have
odd parity, its odd bins.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple


# tolerance ladder: algebraic identities vs derived spectral checks
ATOL_ALGEBRA = 1e-12
ATOL_SPECTRAL = 1e-10
ATOL_INPUT = 1e-9


class Party(Enum):
    ALICE = "Alice"
    BOB = "Bob"


class Setting(Enum):
    A = "a"
    B = "b"
    C = "c"


# z, x on polarization and z', x' on path, then the one-photon products
# that setting c reads as single variables; lhv enumerates in this order
SYMBOLS: tuple[str, ...] = (
    "zA",
    "xA",
    "zA'",
    "xA'",
    "zAzA'",
    "xAxA'",
    "zB",
    "xB",
    "zB'",
    "xB'",
    "zBxB'",
    "xBzB'",
)


# generator1, generator2, product for every (party, setting); a setting
# reads its two generators on the party's two readout bits, in this order
CONTEXT_SYMBOLS: dict[tuple[Party, Setting], tuple[str, str, str]] = {
    (Party.ALICE, Setting.A): ("zA'", "xA", "xAzA'"),
    (Party.ALICE, Setting.B): ("zA", "xA'", "zAxA'"),
    (Party.ALICE, Setting.C): ("zAzA'", "xAxA'", "zAzA'xAxA'"),
    (Party.BOB, Setting.A): ("zB", "zB'", "zBzB'"),
    (Party.BOB, Setting.B): ("xB", "xB'", "xBxB'"),
    (Party.BOB, Setting.C): ("zBxB'", "xBzB'", "zBxB'xBzB'"),
}


class Correlation(NamedTuple):
    """One of the nine perfect-correlation relations.

    sign is the predicted eigenvalue of the operator product on the ideal
    state; factors lists the locally measured symbols whose readout bits
    multiply to the correlation statistic.
    """

    id: str
    sign: int
    factors: tuple[tuple[Party, str], ...]


CORRELATIONS: tuple[Correlation, ...] = (
    Correlation("ZZ", -1, ((Party.ALICE, "zA"), (Party.BOB, "zB"))),
    Correlation("Z'Z'", -1, ((Party.ALICE, "zA'"), (Party.BOB, "zB'"))),
    Correlation("XX", -1, ((Party.ALICE, "xA"), (Party.BOB, "xB"))),
    Correlation("X'X'", -1, ((Party.ALICE, "xA'"), (Party.BOB, "xB'"))),
    Correlation("ZZ'-Z-Z'", +1, ((Party.ALICE, "zAzA'"), (Party.BOB, "zB"), (Party.BOB, "zB'"))),
    Correlation("XX'-X-X'", +1, ((Party.ALICE, "xAxA'"), (Party.BOB, "xB"), (Party.BOB, "xB'"))),
    Correlation("Z-X'-ZX'", +1, ((Party.ALICE, "zA"), (Party.ALICE, "xA'"), (Party.BOB, "zBxB'"))),
    Correlation("X-Z'-XZ'", +1, ((Party.ALICE, "xA"), (Party.ALICE, "zA'"), (Party.BOB, "xBzB'"))),
    Correlation(
        "M",
        -1,
        (
            (Party.ALICE, "zAzA'"),
            (Party.ALICE, "xAxA'"),
            (Party.BOB, "zBxB'"),
            (Party.BOB, "xBzB'"),
        ),
    ),
)

CORRELATION_IDS: tuple[str, ...] = tuple(c.id for c in CORRELATIONS)
CORRELATION_BY_ID: dict[str, Correlation] = {c.id: c for c in CORRELATIONS}


# (party, generator symbol) -> (setting, readout column), column c being outcome-index bit 8 >> c
_READOUT: dict[tuple[Party, str], tuple[Setting, int]] = {
    (party, symbol): (setting, (0 if party is Party.ALICE else 2) + bit)
    for (party, setting), symbols in CONTEXT_SYMBOLS.items()
    for bit, symbol in enumerate(symbols[:2])
}


def _index_bits(factors) -> int:
    """The outcome-index bits that read the given (party, generator symbol) factors."""
    return sum(8 >> _READOUT[factor][1] for factor in factors)


def _setting_pair(corr: Correlation) -> tuple[Setting, Setting]:
    """Alice's and Bob's settings that read corr's factors: the one pair that measures it."""
    settings = {factor[0]: _READOUT[factor][0] for factor in corr.factors}
    return settings[Party.ALICE], settings[Party.BOB]


# per correlation in CORRELATIONS order: the index bits of its factors
_STATISTIC_MASKS: tuple[int, ...] = tuple(_index_bits(corr.factors) for corr in CORRELATIONS)
# per correlation id: the outcome indices where its statistic is -1, ascending
_ODD_BINS: dict[str, tuple[int, ...]] = {
    corr.id: tuple(b for b in range(16) if (b & mask).bit_count() % 2)
    for corr, mask in zip(CORRELATIONS, _STATISTIC_MASKS)
}
