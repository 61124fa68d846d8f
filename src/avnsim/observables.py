"""Local observable groups, the nine correlation operators and the Bell sum.

Each party measures dichotomic observables built from two Pauli-type
operators per degree of freedom: z, x act on polarization (H/V and +/-
bases) and z', x' act on path (R/L and +/- bases).  The observables are
arranged in three fixed device settings per party; a setting exposes two
commuting generators that are read out together, plus their product.

The symbol strings ("zA", "xA'", "zBxB'", ...) are the single naming
scheme shared with the hidden-variable audit and the counting simulation,
so constraint tables and event schemas line up everywhere: each local
operator is built from its name, parsed once in _tables.  The twelve
SYMBOLS and the nine correlations that name them, the settings and each
setting's symbols live in the numpy-free _tables module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from ._tables import (  # the plain tables, re-exported, and the symbol parser live in the numpy-free _tables
    CONTEXT_SYMBOLS,
    CORRELATION_BY_ID,
    CORRELATION_IDS,
    CORRELATIONS,
    SYMBOLS,
    Correlation,
    Setting,
    _factors,
)
from .qstate import (
    ATOL_ALGEBRA,
    ATOL_SPECTRAL,
    DIM,
    ConsistencyError,
    Party,
    SubsystemSlot,
    PAULI_X,
    PAULI_Z,
    assert_density_shape,
    assert_observable,
    commutator_norm,
    expectation,
    is_dichotomic,
    lift_local,
)


_PAULI = {"z": PAULI_Z, "x": PAULI_X}


@lru_cache(maxsize=None)
def local_observable(symbol: str) -> np.ndarray:
    """The 16x16 operator for one of the twelve SYMBOLS (read-only).

    Each factor, parsed in _tables, is that party's Pauli Z or X on
    polarization, or on path when primed, multiplied left to right; the
    four one-photon products are single variables of setting c.
    """
    op = reduce(np.matmul, (lift_local(_PAULI[pauli], SubsystemSlot(*qubit)) for pauli, qubit in _factors(symbol)))
    op.setflags(write=False)
    return op


@dataclass(frozen=True)
class MeasurementContext:
    """One party's device setting: two commuting generators and their product."""

    party: Party
    setting: Setting
    generator1: np.ndarray
    generator2: np.ndarray
    product: np.ndarray
    labels: tuple[str, str, str]


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


@lru_cache(maxsize=None)
def correlation_operators() -> np.ndarray:
    """The nine correlation operators as one (9, 16, 16) stack in CORRELATIONS order (read-only)."""
    ops = []
    for corr in CORRELATIONS:
        op = np.eye(DIM, dtype=complex)
        for _, symbol in corr.factors:
            op = op @ local_observable(symbol)
        # all factors live on distinct slots or commute inside one context,
        # so the written order is immaterial; assert rather than assume
        rev = np.eye(DIM, dtype=complex)
        for _, symbol in reversed(corr.factors):
            rev = rev @ local_observable(symbol)
        if float(np.max(np.abs(op - rev))) > ATOL_ALGEBRA:
            raise ConsistencyError(f"factors of {corr.id!r} do not commute")
        ops.append(assert_observable(op))
    stack = np.array(ops)
    stack.setflags(write=False)
    return stack


def correlation_operator(corr: Correlation | str) -> np.ndarray:
    """One correlation's row of correlation_operators() (read-only)."""
    corr_id = corr.id if isinstance(corr, Correlation) else corr
    if corr_id not in CORRELATION_BY_ID:
        raise KeyError(f"unknown correlation id {corr_id!r}")
    return correlation_operators()[CORRELATION_IDS.index(corr_id)]


@lru_cache(maxsize=None)
def bell_operator() -> np.ndarray:
    """Signed sum of the nine correlation operators (read-only)."""
    op = np.zeros((DIM, DIM), dtype=complex)
    for corr, row in zip(CORRELATIONS, correlation_operators()):
        op = op + corr.sign * row
    assert_observable(op)
    op.setflags(write=False)
    return op


def correlation_expectations(rho: np.ndarray) -> np.ndarray:
    """The nine trace(rho @ op) in CORRELATIONS order, checked real within tolerance.

    The operators were checked Hermitian when built, so only rho's shape
    is checked here, and all nine are contracted at once.
    """
    values = np.einsum("kij,ji->k", correlation_operators(), assert_density_shape(rho))
    imag = float(np.max(np.abs(values.imag)))
    if imag > ATOL_ALGEBRA:
        raise ConsistencyError(f"mixed expectation has imaginary part {imag:.3e}")
    return values.real


@dataclass(frozen=True)
class EigenRelationRow:
    id: str
    value: float
    predicted: int
    eigen_residual: float
    passed: bool


def verify_eigenrelations(state: np.ndarray, atol: float = ATOL_SPECTRAL) -> list[EigenRelationRow]:
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
