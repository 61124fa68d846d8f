"""The parties, the twelve local symbols and the nine perfect correlations, as plain tables.

This module imports nothing outside the standard library, so the
local-realism certificate (lhv) loads without numpy.  qstate,
observables and lhv import these names from here, so each is one object
whichever module it is read from.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Party(Enum):
    ALICE = "Alice"
    BOB = "Bob"


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


@dataclass(frozen=True)
class Correlation:
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
