"""Linear-optics detection models for the three device settings.

Each party owns three devices, one per setting:

  a: no path interference; the photon's path is read directly (R/L) and
     its polarization is analyzed behind polarizers, in the +/- basis on
     Alice's side and in H/V on Bob's.
  b: the two paths interfere on a beam splitter mapping R -> |+>_path and
     L -> |->_path, so the exit port reads x'; polarization is analyzed
     in the complementary basis (H/V for Alice, +/- for Bob).
  c: each path passes a half-wave plate (axis horizontal for Alice, at
     22.5 degrees for Bob, i.e. H -> |+>_pol, V -> |->_pol), then the two
     paths merge on a polarizing beam splitter that transmits H and
     reflects V.  An H photon from the L path and a V photon from the R
     path leave through the same port (R''), so the port reads the
     combined polarization-path variable; analyzing the merged beam in
     the +/- polarization basis erases the which-path information and
     reads the second combined variable.

The devices are described once, in the table _DEVICES of _tables.  A
DetectionModel is four projectors labeled by two signed bits, one bit per
context generator.  Sign conventions introduced by the Jones matrices
(the horizontal-axis half-wave plate flips the sign of V) are absorbed
into the table's readout signs, exactly as a lab calibration would; the
equivalence with ideal projective measurement of the context is then
proved in integers (tests/test_exact_proofs.py) and checked in floats
(apparatus_vs_projective), not assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from ._tables import _DEVICES, Dof
from .observables import Setting, context
from .qstate import DIM, ID2, KET_MINUS, KET_PLUS, Party, dagger
from .source import NoiseModel, apply_noise, build_psi


def bs_transform() -> np.ndarray:
    """Beam splitter on the path qubit: R -> |+>_path, L -> |->_path.

    Real Hadamard form, hence self-inverse; physical reflection phases are
    absorbed into the port labels.  On the polarization qubit the same
    matrix maps the +/- analyzer basis onto H/V.
    """
    return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)


def hwp_transform(angle: float) -> np.ndarray:
    """Jones matrix of a half-wave plate with fast axis at `angle`."""
    if not math.isfinite(angle):
        raise ValueError("half-wave plate angle must be finite")
    c = math.cos(2.0 * angle)
    s = math.sin(2.0 * angle)
    return np.array([[c, s], [s, -c]], dtype=complex)


def polarizer_projector(angle: float) -> np.ndarray:
    """Rank-1 projector onto linear polarization at `angle` from H."""
    if not math.isfinite(angle):
        raise ValueError("polarizer angle must be finite")
    v = np.array([math.cos(angle), math.sin(angle)], dtype=complex)
    return np.outer(v, v.conj())


def pbs_merge() -> np.ndarray:
    """Polarizing beam splitter on one party's (pol x path) pair.

    Transmits H and reflects V, so the two input paths merge into two
    output ports with |H,R> -> |H,L''>, |H,L> -> |H,R''>, |V,R> -> |V,R''>
    and |V,L> -> |V,L''> (port index 0 = R'', 1 = L'').
    """
    u = np.zeros((4, 4), dtype=complex)
    u[1, 0] = 1.0  # H from R -> L''
    u[0, 1] = 1.0  # H from L -> R''
    u[2, 2] = 1.0  # V from R -> R''
    u[3, 3] = 1.0  # V from L -> L''
    return u


@dataclass(frozen=True)
class OutcomeChannel:
    bit1: int
    bit2: int
    projector: np.ndarray


@dataclass(frozen=True)
class DetectionModel:
    party: Party
    setting: Setting
    outcomes: tuple[OutcomeChannel, ...]

    def marginal_probability(self, state: np.ndarray, bit1: int | None = None, bit2: int | None = None) -> float:
        """Probability of the given bit value(s) on a pure input state."""
        p = 0.0
        for ch in self.outcomes:
            if bit1 is not None and ch.bit1 != bit1:
                continue
            if bit2 is not None and ch.bit2 != bit2:
                continue
            p += float(np.real(np.vdot(state, ch.projector @ state)))
        return p


def _element(kind: str, arg) -> np.ndarray:
    """The 4x4 (pol x path) matrix of one optical element of a _DEVICES row."""
    if kind == "pbs":
        return pbs_merge()
    if kind == "hwp":
        return np.kron(hwp_transform(math.radians(arg)), ID2)
    return np.kron(ID2, bs_transform()) if arg is Dof.PATH else np.kron(bs_transform(), ID2)


@lru_cache(maxsize=None)
def build_apparatus(party: Party, setting: Setting) -> DetectionModel:
    """Detection model of the device in the _DEVICES row of (party, setting), projectors lifted to 16 dim.

    The unitary, the row's elements with the first one met rightmost, maps
    (pol x path) to the detector basis |p q>: analyzer bit p, exit-port bit q.
    """
    elements, *readouts = _DEVICES[party, setting]
    eye = np.eye(4, dtype=complex)
    unitary = reduce(np.matmul, [_element(*element) for element in reversed(elements)] or [eye])
    outcomes = []
    for d, det in enumerate(eye):
        proj4 = dagger(unitary) @ np.outer(det, det.conj()) @ unitary
        proj16 = np.kron(proj4, eye) if party is Party.ALICE else np.kron(eye, proj4)
        proj16.setflags(write=False)
        bits = {Dof.POL: d >> 1, Dof.PATH: d & 1}
        bit1, bit2 = (sign * (-1) ** bits[dof] for dof, sign in readouts)
        outcomes.append(OutcomeChannel(bit1, bit2, proj16))
    outcomes.sort(key=lambda ch: (-ch.bit1, -ch.bit2))
    return DetectionModel(party, setting, tuple(outcomes))


def apparatus_vs_projective(party: Party, setting: Setting) -> float:
    """Worst-case deviation of the device from ideal projective readout.

    Compares every outcome projector against the joint eigenprojector of
    the context generators, (I + b1*G1)/2 @ (I + b2*G2)/2.
    """
    model = build_apparatus(party, setting)
    ctx = context(party, setting)
    eye = np.eye(DIM, dtype=complex)
    worst = 0.0
    for ch in model.outcomes:
        ideal = (eye + ch.bit1 * ctx.generator1) @ (eye + ch.bit2 * ctx.generator2) / 4.0
        worst = max(worst, float(np.max(np.abs(ch.projector - ideal))))
    return worst


_PORT_KETS = {"+": KET_PLUS, "-": KET_MINUS}

DEFAULT_FRINGE_ANGLES = (math.pi / 4.0, -math.pi / 4.0)
DEFAULT_FRINGE_PORTS = ("+", "-")


def phase_fringe(
    phi_values,
    polarizer_angles: tuple[float, float] = DEFAULT_FRINGE_ANGLES,
    ports: tuple[str, str] = DEFAULT_FRINGE_PORTS,
    noise: NoiseModel | None = None,
) -> np.ndarray:
    """Twofold coincidence probability versus the source path phase.

    Both photons interfere their paths on beam splitters and are detected
    at the chosen output ports behind polarizers at the given angles.  For
    the default configuration (polarizers at +45/-45 degrees, opposite
    ports) the fringe is (1 + cos(phi))/8: maximal at phi = 0, which is
    exactly the criterion used to lock the source phase.  Polarizers both
    at +45 degrees sit on a zero of the polarization singlet, giving a
    flat null fringe.
    """
    alpha, beta = polarizer_angles
    for port in ports:
        if port not in _PORT_KETS:
            raise ValueError(f"unknown beam splitter port {port!r}; expected '+' or '-'")
    proj = np.array([1.0])
    for factor in (
        polarizer_projector(alpha),
        np.outer(_PORT_KETS[ports[0]], _PORT_KETS[ports[0]].conj()),
        polarizer_projector(beta),
        np.outer(_PORT_KETS[ports[1]], _PORT_KETS[ports[1]].conj()),
    ):
        proj = np.kron(proj, factor)
    out = []
    for phi in np.atleast_1d(np.asarray(phi_values, dtype=float)):
        psi = build_psi(float(phi))
        if noise is None:
            p = float(np.real(np.vdot(psi, proj @ psi)))
        else:
            rho = apply_noise(psi, noise)
            p = float(np.real(np.einsum("ij,ji->", rho, proj)))
        out.append(max(p, 0.0))
    return np.array(out)


def fringe_visibility(probabilities) -> float:
    """(max - min) / (max + min) of a sampled fringe."""
    p = np.asarray(probabilities, dtype=float)
    hi, lo = float(p.max()), float(p.min())
    if hi + lo == 0.0:
        return 0.0
    return (hi - lo) / (hi + lo)
