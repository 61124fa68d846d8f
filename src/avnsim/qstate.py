"""Exact linear algebra on the 16-dimensional two-photon Hilbert space.

The space is pol_A (x) path_A (x) pol_B (x) path_B, each factor a qubit.
Basis conventions are fixed once, globally, in the standard-library
_tables, which states the computational index: H=0 / V=1 for
polarization, R=0 / L=1 for path, pol_A the most significant bit.
INDEX_BITS below is that layout as a read-only numpy table, and a
slot's axis is its place in _tables' qubit order.  Nothing here is
sparse or clever, the dimension is tiny and clarity wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._tables import _INDEX_BITS, _QUBITS, ATOL_ALGEBRA, ATOL_INPUT, ATOL_SPECTRAL, Dof, Party

DIM = 16

# row i holds the four bits of basis index i, columns (pol_A, path_A, pol_B, path_B)
INDEX_BITS = np.array(_INDEX_BITS)
INDEX_BITS.setflags(write=False)

class ConsistencyError(RuntimeError):
    """An internal numerical identity failed beyond tolerance."""


@dataclass(frozen=True)
class SubsystemSlot:
    """One of the four qubit factors: (party, degree of freedom)."""

    party: Party
    dof: Dof

    @property
    def axis(self) -> int:
        return _QUBITS.index((self.party, self.dof))


# single-qubit kets in the fixed bases
KET_H = np.array([1.0, 0.0], dtype=complex)
KET_V = np.array([0.0, 1.0], dtype=complex)
KET_R = np.array([1.0, 0.0], dtype=complex)
KET_L = np.array([0.0, 1.0], dtype=complex)
KET_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
KET_MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)

ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

for _m in (KET_H, KET_V, KET_R, KET_L, KET_PLUS, KET_MINUS, ID2, PAULI_X, PAULI_Y, PAULI_Z):
    _m.setflags(write=False)


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def _norm(psi: np.ndarray) -> float:
    """The 2-norm of a complex vector, bit for bit as np.linalg.norm computes it, without its wrapper."""
    re, im = psi.real, psi.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def assert_state(psi: np.ndarray, atol: float = ATOL_INPUT) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (DIM,):
        raise ValueError(f"state vector must have shape ({DIM},), got {psi.shape}")
    if not np.isfinite(psi.view(float)).all():
        raise ValueError("state vector has non-finite amplitudes")
    norm = _norm(psi)
    if abs(norm - 1.0) > atol:
        raise ValueError(f"state vector not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
    return psi


def assert_observable(obs: np.ndarray, atol: float = ATOL_ALGEBRA) -> np.ndarray:
    obs = np.asarray(obs, dtype=complex)
    if obs.shape != (DIM, DIM):
        raise ValueError(f"observable must be {DIM}x{DIM}, got {obs.shape}")
    dev = float(np.max(np.abs(obs - dagger(obs))))
    if dev > atol:
        raise ValueError(f"observable not Hermitian: max deviation {dev:.3e}")
    return obs


def assert_density_shape(rho: np.ndarray) -> np.ndarray:
    """rho as a complex array in C order, checked only for its 16x16 shape."""
    rho = np.ascontiguousarray(rho, dtype=complex)  # an einsum's sum order follows rho's memory layout
    if rho.shape != (DIM, DIM):
        raise ValueError(f"density matrix must be {DIM}x{DIM}")
    return rho


def assert_density_matrix(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (DIM, DIM):
        raise ValueError(f"density matrix must be {DIM}x{DIM}, got {rho.shape}")
    herm_dev = float(np.max(np.abs(rho - dagger(rho))))
    if herm_dev > ATOL_ALGEBRA:
        raise ValueError(f"density matrix not Hermitian: max deviation {herm_dev:.3e}")
    tr_dev = abs(complex(np.trace(rho)) - 1.0)
    if tr_dev > ATOL_ALGEBRA:
        raise ValueError(f"density matrix trace differs from 1 by {tr_dev:.3e}")
    evals = np.linalg.eigvalsh(rho)
    if float(evals.min()) < -ATOL_SPECTRAL:
        raise ValueError(f"density matrix not PSD: min eigenvalue {float(evals.min()):.3e}")
    return rho


def is_dichotomic(obs: np.ndarray, atol: float = ATOL_SPECTRAL) -> bool:
    """True when obs squares to the identity (eigenvalues all +-1)."""
    return float(np.max(np.abs(obs @ obs - np.eye(DIM)))) < atol


def tensor4(pol_a: np.ndarray, path_a: np.ndarray, pol_b: np.ndarray, path_b: np.ndarray) -> np.ndarray:
    """Product state of four normalized single-qubit factors.

    Factor order matches the global index convention (pol_A most
    significant).  The result is renormalized so downstream tolerance
    checks see exactly unit norm.
    """
    factors = []
    for name, f in (("pol_a", pol_a), ("path_a", path_a), ("pol_b", pol_b), ("path_b", path_b)):
        f = np.asarray(f, dtype=complex)
        if f.shape != (2,):
            raise ValueError(f"{name} must be a 2-component vector")
        if abs(float(np.linalg.norm(f)) - 1.0) > ATOL_INPUT:
            raise ValueError(f"{name} is not normalized")
        factors.append(f)
    psi = factors[0]
    for f in factors[1:]:
        psi = np.kron(psi, f)
    return psi / np.linalg.norm(psi)


def lift_local(op2: np.ndarray, slot: SubsystemSlot) -> np.ndarray:
    """Embed a 2x2 Hermitian operator in the 16-dim space at one slot."""
    op2 = np.asarray(op2, dtype=complex)
    if op2.shape != (2, 2):
        raise ValueError("local operator must be 2x2")
    if float(np.max(np.abs(op2 - dagger(op2)))) > ATOL_ALGEBRA:
        raise ValueError("local operator must be Hermitian")
    parts = [ID2, ID2, ID2, ID2]
    parts[slot.axis] = op2
    out = parts[0]
    for p in parts[1:]:
        out = np.kron(out, p)
    return out


def expectation(obs: np.ndarray, state: np.ndarray) -> float:
    """<state|obs|state> for a Hermitian obs; the imaginary residue must vanish."""
    obs = assert_observable(obs)
    state = assert_state(state)
    val = complex(np.vdot(state, obs @ state))
    if abs(val.imag) > ATOL_ALGEBRA:
        raise ConsistencyError(f"expectation value has imaginary part {val.imag:.3e}")
    return float(val.real)


def mixed_expectation(obs: np.ndarray, rho: np.ndarray) -> float:
    """trace(rho @ obs) for any operator obs, checked Hermitian, and checked real within tolerance."""
    obs = assert_observable(obs)
    val = complex(np.einsum("ij,ji->", assert_density_shape(rho), obs))
    if abs(val.imag) > ATOL_ALGEBRA:
        raise ConsistencyError(f"mixed expectation has imaginary part {val.imag:.3e}")
    return float(val.real)


def commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    """Largest entry magnitude of a@b - b@a."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return float(np.max(np.abs(a @ b - b @ a)))
