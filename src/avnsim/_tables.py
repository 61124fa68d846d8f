"""The basis layout, the parties, the twelve local symbols, the six device
settings and their detection devices (_DEVICES, read by apparatus), and
the nine perfect correlations, as plain tables, the readout table derived
from them, and the tolerance ladder.

This module imports nothing outside the standard library, so the
local-realism certificate (lhv) and the Pauli-frame CLI path (_frame)
load without numpy.  qstate, observables and lhv import these names from
here, so each is one object whichever module it is read from.

The basis layout is stated here alone, for the dense path (qstate,
source) and the frame (_frame): the qubits (pol_A, path_A, pol_B,
path_B), H = R = 0 and V = L = 1, sit on the weights 8, 4, 2, 1 of a
basis index, and an outcome index puts the readout bits (bit1_A, bit2_A,
bit1_B, bit2_B) on the same weights, bit +1 mapping to 0.  Each setting
reads its two generators on its party's two readout bits, Alice's bits
first.  A correlation's statistic is the product of its factors' bits:
-1 exactly on the outcomes whose bits in its mask have odd parity, its
odd bins.
"""

from collections import namedtuple
from enum import Enum


# tolerance ladder: algebraic identities vs derived spectral checks
ATOL_ALGEBRA = 1e-12
ATOL_SPECTRAL = 1e-10
ATOL_INPUT = 1e-9


class Party(Enum):
    ALICE = "Alice"
    BOB = "Bob"


class Dof(Enum):
    POL = "polarization"
    PATH = "path"


# the four qubits in tensor order and the weight of each in a basis index;
# readout column i sits on the i-th weight of an outcome index
_QUBITS = ((Party.ALICE, Dof.POL), (Party.ALICE, Dof.PATH), (Party.BOB, Dof.POL), (Party.BOB, Dof.PATH))
_WEIGHTS = (8, 4, 2, 1)
_QUBIT_WEIGHT = dict(zip(_QUBITS, _WEIGHTS))
# the polarization and path masks, and row i the bits of index i in _QUBITS order
_POL, _PATH = (sum(w for (_, d), w in _QUBIT_WEIGHT.items() if d is dof) for dof in (Dof.POL, Dof.PATH))
_INDEX_BITS = tuple(tuple(i // w % 2 for w in _WEIGHTS) for i in range(16))
# the indices of the source's kets |HRVL>, |HLVR>, |VRHL>, |VLHR>
_SOURCE_SLOTS = tuple(sum(w for c, w in zip(ket, _WEIGHTS) if c in "VL") for ket in ("HRVL", "HLVR", "VRHL", "VLHR"))


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


def _split_symbol(symbol: str) -> list[tuple[str, str, str]]:
    """The (pauli, party, prime) strings of each [zx][AB]'? factor of symbol, left to right:
    every factor starts at its z or x."""
    for pauli in "zx":
        symbol = symbol.replace(pauli, " " + pauli)
    return [(factor[0], factor[1], factor[2:]) for factor in symbol.split()]


# each symbol's factors left to right, (pauli, qubit): a factor [zx][AB]'? is
# that party's Pauli Z or X on polarization, or on path when primed
_FACTORS = {
    symbol: tuple((pauli, (Party.ALICE if party == "A" else Party.BOB, Dof.PATH if prime else Dof.POL))
                  for pauli, party, prime in _split_symbol(symbol))
    for symbol in SYMBOLS
}


def _factors(symbol: str) -> tuple[tuple[str, tuple[Party, Dof]], ...]:
    """The parsed factors of one of the twelve SYMBOLS."""
    if symbol not in _FACTORS:
        raise KeyError(f"unknown observable symbol {symbol!r}")
    return _FACTORS[symbol]


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


# the six detection devices, one row per (party, setting): the optical elements
# in the order the photon meets them, then for generator1 and for generator2 the
# detector bit that reads it (the analyzer bit reads pol, the exit-port bit path)
# and the sign of that bit's 0 outcome.  An element is a beam splitter ("bs", the
# qubit it acts on), a half-wave plate on pol ("hwp", its fast axis in degrees)
# or the polarizing beam splitter that merges the two paths ("pbs", None)
_DEVICES = {
    (Party.ALICE, Setting.A): ((("bs", Dof.POL),), (Dof.PATH, +1), (Dof.POL, +1)),
    (Party.ALICE, Setting.B): ((("bs", Dof.PATH),), (Dof.POL, +1), (Dof.PATH, +1)),
    # port R'' collects H-from-L and V-from-R, both zAzA' = -1; the horizontal-axis
    # HWP flips the sign of V, which lands the xAxA' = +1 eigenstates on the "-"
    # analyzer output
    (Party.ALICE, Setting.C): ((("hwp", 0), ("pbs", None), ("bs", Dof.POL)), (Dof.PATH, -1), (Dof.POL, -1)),
    (Party.BOB, Setting.A): ((), (Dof.POL, +1), (Dof.PATH, +1)),
    (Party.BOB, Setting.B): ((("bs", Dof.POL), ("bs", Dof.PATH)), (Dof.POL, +1), (Dof.PATH, +1)),
    # the 22.5-degree HWP routes the xBzB' eigenstates to definite ports, xBzB' = -1
    # to R'', while the analyzer reads zBxB' on the merged beam
    (Party.BOB, Setting.C): ((("hwp", 22.5), ("pbs", None), ("bs", Dof.POL)), (Dof.POL, +1), (Dof.PATH, -1)),
}


# one of the nine perfect-correlation relations: sign is the predicted eigenvalue of the operator
# product on the ideal state, factors the local (party, symbol) readouts whose bits multiply to its statistic
Correlation = namedtuple("Correlation", "id sign factors")


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


# (party, generator symbol) -> (setting, readout column), column c on outcome-index weight _WEIGHTS[c]
_READOUT: dict[tuple[Party, str], tuple[Setting, int]] = {
    (party, symbol): (setting, (0 if party is Party.ALICE else 2) + bit)
    for (party, setting), symbols in CONTEXT_SYMBOLS.items()
    for bit, symbol in enumerate(symbols[:2])
}


def _index_bits(factors) -> int:
    """The outcome-index bits that read the given (party, generator symbol) factors."""
    return sum(_WEIGHTS[_READOUT[factor][1]] for factor in factors)


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
