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

A DetectionModel is four projectors labeled by two signed bits, one bit
per context generator.  Sign conventions introduced by the Jones matrices
(the horizontal-axis half-wave plate flips the sign of V) are absorbed
into the outcome labeling, exactly as a lab calibration would; the
equivalence with ideal projective measurement of the context is then an
independent numerical check, not an assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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


def _device_recipe(party: Party, setting: Setting):
    """4x4 device unitary and detector-bit labelers.

    The unitary maps the incoming (pol x path) state to the detector
    basis: pol bit p = analyzer output, path bit q = exit port.  The two
    labelers turn (p, q) into the signed readouts of generator1 and
    generator2 of the matching context.
    """
    if setting is Setting.A:
        if party is Party.ALICE:
            # read path directly (z'), analyze polarization at +/-45 (x)
            unitary = np.kron(bs_transform(), ID2)
            bit1 = lambda p, q: +1 if q == 0 else -1  # z'A from the path
            bit2 = lambda p, q: +1 if p == 0 else -1  # xA from the analyzer
        else:
            # read both path (z') and polarization (z) in the native bases
            unitary = np.kron(ID2, ID2)
            bit1 = lambda p, q: +1 if p == 0 else -1  # zB
            bit2 = lambda p, q: +1 if q == 0 else -1  # zB'
    elif setting is Setting.B:
        if party is Party.ALICE:
            # beam splitter reads x', polarization analyzed in H/V (z)
            unitary = np.kron(ID2, bs_transform())
            bit1 = lambda p, q: +1 if p == 0 else -1  # zA
            bit2 = lambda p, q: +1 if q == 0 else -1  # xA' from the port
        else:
            unitary = np.kron(bs_transform(), bs_transform())
            bit1 = lambda p, q: +1 if p == 0 else -1  # xB
            bit2 = lambda p, q: +1 if q == 0 else -1  # xB'
    else:
        hwp_angle = 0.0 if party is Party.ALICE else math.pi / 8.0
        hwp = hwp_transform(hwp_angle)
        unitary = np.kron(bs_transform(), ID2) @ pbs_merge() @ np.kron(hwp, ID2)
        if party is Party.ALICE:
            # port R'' collects H-from-L and V-from-R, both zAzA' = -1;
            # the horizontal-axis HWP flips the sign of V, which lands the
            # xAxA' = +1 eigenstates on the "-" analyzer output
            bit1 = lambda p, q: -1 if q == 0 else +1  # zAzA' from the port
            bit2 = lambda p, q: -1 if p == 0 else +1  # xAxA' from the analyzer
        else:
            # the 22.5-degree HWPs route the xBzB' eigenstates to definite
            # ports while the analyzer reads zBxB' on the merged beam
            bit1 = lambda p, q: +1 if p == 0 else -1  # zBxB' from the analyzer
            bit2 = lambda p, q: -1 if q == 0 else +1  # xBzB' from the port
    return unitary, bit1, bit2


@lru_cache(maxsize=None)
def build_apparatus(party: Party, setting: Setting) -> DetectionModel:
    """Detection model of the physical device, projectors lifted to 16 dim."""
    unitary, bit1_of, bit2_of = _device_recipe(party, setting)
    outcomes = []
    for p in (0, 1):
        for q in (0, 1):
            det = np.zeros(4, dtype=complex)
            det[2 * p + q] = 1.0
            proj4 = dagger(unitary) @ np.outer(det, det.conj()) @ unitary
            if party is Party.ALICE:
                proj16 = np.kron(proj4, np.eye(4, dtype=complex))
            else:
                proj16 = np.kron(np.eye(4, dtype=complex), proj4)
            proj16.setflags(write=False)
            outcomes.append(OutcomeChannel(bit1_of(p, q), bit2_of(p, q), proj16))
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
