"""Local observable groups, the nine correlation operators and the Bell sum.

Each party measures dichotomic observables built from two Pauli-type
operators per degree of freedom: z, x act on polarization (H/V and +/-
bases) and z', x' act on path (R/L and +/- bases).  The observables are
arranged in three fixed device settings per party; a setting exposes two
commuting generators that are read out together, plus their product.

The symbol strings defined here ("zA", "xA'", "zBxB'", ...) are the single
naming scheme shared with the hidden-variable audit and the counting
simulation, so constraint tables and event schemas line up everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .qstate import (
    ATOL_ALGEBRA,
    DIM,
    ConsistencyError,
    Dof,
    Party,
    SubsystemSlot,
    PAULI_X,
    PAULI_Z,
    commutator_norm,
    expectation,
    is_dichotomic,
    lift_local,
)


class Setting(Enum):
    A = "a"
    B = "b"
    C = "c"


# generator1, generator2, product for every (party, setting)
CONTEXT_SYMBOLS: dict[tuple[Party, Setting], tuple[str, str, str]] = {
    (Party.ALICE, Setting.A): ("zA'", "xA", "xAzA'"),
    (Party.ALICE, Setting.B): ("zA", "xA'", "zAxA'"),
    (Party.ALICE, Setting.C): ("zAzA'", "xAxA'", "zAzA'xAxA'"),
    (Party.BOB, Setting.A): ("zB", "zB'", "zBzB'"),
    (Party.BOB, Setting.B): ("xB", "xB'", "xBxB'"),
    (Party.BOB, Setting.C): ("zBxB'", "xBzB'", "zBxB'xBzB'"),
}


@lru_cache(maxsize=None)
def _single_observables() -> dict[str, np.ndarray]:
    z_a = lift_local(PAULI_Z, SubsystemSlot(Party.ALICE, Dof.POL))
    x_a = lift_local(PAULI_X, SubsystemSlot(Party.ALICE, Dof.POL))
    zp_a = lift_local(PAULI_Z, SubsystemSlot(Party.ALICE, Dof.PATH))
    xp_a = lift_local(PAULI_X, SubsystemSlot(Party.ALICE, Dof.PATH))
    z_b = lift_local(PAULI_Z, SubsystemSlot(Party.BOB, Dof.POL))
    x_b = lift_local(PAULI_X, SubsystemSlot(Party.BOB, Dof.POL))
    zp_b = lift_local(PAULI_Z, SubsystemSlot(Party.BOB, Dof.PATH))
    xp_b = lift_local(PAULI_X, SubsystemSlot(Party.BOB, Dof.PATH))
    table = {
        "zA": z_a,
        "xA": x_a,
        "zA'": zp_a,
        "xA'": xp_a,
        "zB": z_b,
        "xB": x_b,
        "zB'": zp_b,
        "xB'": xp_b,
        # one-photon products measured as single variables in setting c
        "zAzA'": z_a @ zp_a,
        "xAxA'": x_a @ xp_a,
        "zBxB'": z_b @ xp_b,
        "xBzB'": x_b @ zp_b,
    }
    for m in table.values():
        m.setflags(write=False)
    return table


def local_observable(symbol: str) -> np.ndarray:
    """The 16x16 operator for one local symbol (treat as read-only)."""
    table = _single_observables()
    if symbol not in table:
        raise KeyError(f"unknown observable symbol {symbol!r}")
    return table[symbol]


@dataclass(frozen=True)
class MeasurementContext:
    """One party's device setting: two commuting generators and their product."""

    party: Party
    setting: Setting
    generator1: np.ndarray
    generator2: np.ndarray
    product: np.ndarray
    labels: tuple[str, str, str]

    def bit_position(self, symbol: str) -> int:
        """0 for generator1, 1 for generator2, 2 for the derived product."""
        return self.labels.index(symbol)


@lru_cache(maxsize=None)
def context(party: Party, setting: Setting) -> MeasurementContext:
    labels = CONTEXT_SYMBOLS[(party, setting)]
    g1 = local_observable(labels[0])
    g2 = local_observable(labels[1])
    if commutator_norm(g1, g2) > ATOL_ALGEBRA:
        raise ConsistencyError(f"context generators {labels[0]}, {labels[1]} do not commute")
    product = g1 @ g2
    for g in (g1, g2, product):
        if not is_dichotomic(g):
            raise ConsistencyError(f"context member of {party.value}/{setting.value} is not dichotomic")
    product.setflags(write=False)
    return MeasurementContext(party, setting, g1, g2, product, labels)


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


def _as_correlation(corr: Correlation | str) -> Correlation:
    if isinstance(corr, Correlation):
        return corr
    if corr not in CORRELATION_BY_ID:
        raise KeyError(f"unknown correlation id {corr!r}")
    return CORRELATION_BY_ID[corr]


@lru_cache(maxsize=None)
def _correlation_operator_by_id(corr_id: str) -> np.ndarray:
    corr = CORRELATION_BY_ID[corr_id]
    op = np.eye(DIM, dtype=complex)
    for _, symbol in corr.factors:
        op = op @ local_observable(symbol)
    # all factors live on distinct slots or commute inside one context,
    # so the written order is immaterial; assert rather than assume
    rev = np.eye(DIM, dtype=complex)
    for _, symbol in reversed(corr.factors):
        rev = rev @ local_observable(symbol)
    if float(np.max(np.abs(op - rev))) > ATOL_ALGEBRA:
        raise ConsistencyError(f"factors of {corr_id!r} do not commute")
    op.setflags(write=False)
    return op


def correlation_operator(corr: Correlation | str) -> np.ndarray:
    """The 16x16 product of the correlation's local factors (read-only)."""
    return _correlation_operator_by_id(_as_correlation(corr).id)


@lru_cache(maxsize=None)
def bell_operator() -> np.ndarray:
    """Signed sum of the nine correlation operators (read-only)."""
    op = np.zeros((DIM, DIM), dtype=complex)
    for corr in CORRELATIONS:
        op = op + corr.sign * correlation_operator(corr)
    op.setflags(write=False)
    return op


@dataclass(frozen=True)
class EigenRelationRow:
    id: str
    value: float
    predicted: int
    eigen_residual: float
    passed: bool


def verify_eigenrelations(state: np.ndarray, atol: float = 1e-10) -> list[EigenRelationRow]:
    """Check the nine predicted eigenvalue relations on a state.

    A row passes when the expectation value matches the predicted sign and
    the state is an actual eigenvector (residual norm below tolerance).
    """
    rows = []
    for corr in CORRELATIONS:
        op = correlation_operator(corr)
        value = expectation(op, state)
        residual = float(np.linalg.norm(op @ state - corr.sign * state))
        passed = abs(value - corr.sign) < atol and residual < atol
        rows.append(EigenRelationRow(corr.id, value, corr.sign, residual, passed))
    return rows
