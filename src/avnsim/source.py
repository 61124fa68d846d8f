"""Doubly entangled pair source with a parameterized imperfection model.

The ideal source emits

    (1/2) * (|HV> - |VH>) (x) (|RL> - e^{i phi} |LR>)

i.e. a polarization singlet times a path singlet with adjustable path
phase phi.  Real sources miss this in a few distinct ways: imperfect
down-conversion (modeled as a white-noise admixture), limited
interference visibility at the polarizing and non-polarizing beam
splitters (modeled as independent polarization/path dephasing), and a
misadjusted phase (modeled as an additive path-phase offset).  The fit
calibrates the knobs to the eight measured non-M rows, which fix only
s = 1 - w, a = vp**2 and b = vq**2 * cos(delta); it reports the canonical
model (delta = 0 or pi, vq = sqrt(|b|)), and degenerate means s = 0.

The CLI reads the same state and channel in closed form, as Pauli-word
expectations (_frame), without numpy; this dense path is its oracle in
the tests and the library path for an arbitrary state.  SourceConfig and
NoiseModel live in the numpy-free _records, and the fit (fit_noise,
FitResult) in _frame, which computes its residual from the frame
correlations; all are re-exported here.
"""

from __future__ import annotations

import numpy as np

from . import qstate
from ._frame import FitResult, fit_noise  # re-exported: the fit reads the numpy-free frame
from ._records import NoiseModel, SourceConfig
from ._tables import _PATH, _POL, _QUBIT_WEIGHT, _SOURCE_SLOTS, Dof, Party
from .observables import correlation_expectations
from .qstate import ATOL_ALGEBRA, DIM

_SLOTS = np.array(_SOURCE_SLOTS)
_SLOTS.setflags(write=False)


def build_psi(config: SourceConfig | float | None = None) -> np.ndarray:
    """The doubly entangled state for a given path phase.

    Accepts a SourceConfig or a bare phase in radians; defaults to phi=0.
    """
    if config is None:
        config = SourceConfig()
    elif isinstance(config, (int, float)):
        config = SourceConfig(float(config))
    phase = np.exp(1j * config.phi)
    psi = np.zeros(DIM, dtype=complex)
    psi[_SLOTS] = 0.5 * np.array([1.0, -phase, -1.0, phase])
    return psi / qstate._norm(psi)


# per-photon dephasing masks: the number of polarization bits, and of path
# bits, in which row and column index differ; each entry, 0, 1 or 2, indexes
# a visibility's power table in apply_noise
_POL_MISMATCH, _PATH_MISMATCH = (
    np.array([[((i ^ j) & mask).bit_count() for j in range(DIM)] for i in range(DIM)]) for mask in (_POL, _PATH)
)
_EXPONENTS = np.arange(3)
# the white-noise state I/16 and Alice's path bit, complex as the products
# they enter are, so that no call casts them
_WHITE = np.eye(DIM, dtype=complex) / DIM
_ALICE_PATH = np.array([i & _QUBIT_WEIGHT[Party.ALICE, Dof.PATH] != 0 for i in range(DIM)], dtype=complex)
for _table in (_POL_MISMATCH, _PATH_MISMATCH, _EXPONENTS, _WHITE, _ALICE_PATH):
    _table.setflags(write=False)


def apply_noise(state: np.ndarray, model: NoiseModel) -> np.ndarray:
    """Degrade a pure state into a mixed one.

    The channel first shifts the path phase, then scales polarization and
    path coherences by the respective visibilities (per photon, so a fully
    flipped coherence is scaled twice), and finally mixes in white noise:

        rho = (1 - w) * D(|psi><psi|) + w * I/16

    The dephasing mask is a positive-semidefinite kernel, so the output is
    a density matrix; a property test checks that, not this function.  Its
    trace is (1 - w) |psi|^2 + w, so |psi|^2 is held to tolerance at entry.

    The masks, the exponents 0, 1, 2, I/16 and the path bit are read-only
    module tables, so a call builds none of them.  Each visibility's
    powers come from numpy's power ufunc on the three exponents, which
    gives v ** k bit for bit as v ** mask does entry by entry; Python's
    float ** rounds the last bit differently for some v, so the table is
    not built with it.
    """
    psi = qstate.assert_state(state, atol=ATOL_ALGEBRA / 2)
    # phase on Alice's path qubit, as a matrix product: the elementwise
    # form rounds differently in the last digit of some documents
    phase = np.zeros((DIM, DIM), dtype=complex)
    phase.flat[:: DIM + 1] = np.exp(1j * model.phase_offset * _ALICE_PATH)
    psi = phase @ psi
    pol = model.pol_visibility ** _EXPONENTS
    path = model.path_visibility ** _EXPONENTS
    # np.outer(psi, psi.conj()) is this broadcast multiply
    rho = pol[_POL_MISMATCH] * path[_PATH_MISMATCH] * (psi[:, None] * psi.conj())
    w = model.white_noise_weight
    rho *= 1.0 - w
    rho += w * _WHITE
    return rho


def predicted_correlations(model: NoiseModel, phi: float = 0.0) -> np.ndarray:
    """The nine correlation expectations of the noisy source."""
    return correlation_expectations(apply_noise(build_psi(phi), model))
