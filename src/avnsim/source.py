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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qstate
from .observables import CORRELATIONS, correlation_operator
from .qstate import DIM, INDEX_BITS, assert_density_matrix, mixed_expectation


def _canonical_phase(phi: float, where: str) -> float:
    """Map a finite angle into [-pi, pi); where names the field in the error."""
    if not math.isfinite(phi):
        raise ValueError(f"{where} must be finite, got {phi}")
    return float((phi + math.pi) % (2.0 * math.pi) - math.pi)


def _config_block(d, where: str, known) -> dict:
    """Check that a config block is a JSON object with only known fields."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a JSON object, got {d!r:.40}")
    unknown = set(d) - set(known)
    if unknown:
        raise ValueError(f"unknown {where} fields: {sorted(unknown)}")
    return d


def _config_float(value, where: str) -> float:
    """A JSON number (not a boolean or string) as a float; where names the field."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"{where} must be a number in float range, got {value!r:.40}")


@dataclass(frozen=True)
class SourceConfig:
    phi: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "phi", _canonical_phase(self.phi, "source.phi"))

    def to_dict(self) -> dict:
        return {"phi": self.phi}

    @classmethod
    def from_dict(cls, d: dict) -> "SourceConfig":
        _config_block(d, "source", {"phi"})
        return cls(phi=_config_float(d.get("phi", 0.0), "source.phi"))


@dataclass(frozen=True)
class NoiseModel:
    white_noise_weight: float = 0.0
    pol_visibility: float = 1.0
    path_visibility: float = 1.0
    phase_offset: float = 0.0

    def __post_init__(self):
        for name in ("white_noise_weight", "pol_visibility", "path_visibility"):
            v = float(getattr(self, name))
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"noise.{name} must lie in [0, 1], got {v}")
            object.__setattr__(self, name, v)
        object.__setattr__(self, "phase_offset", _canonical_phase(float(self.phase_offset), "noise.phase_offset"))

    def to_dict(self) -> dict:
        return {
            "white_noise_weight": self.white_noise_weight,
            "pol_visibility": self.pol_visibility,
            "path_visibility": self.path_visibility,
            "phase_offset": self.phase_offset,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NoiseModel":
        _config_block(d, "noise", cls.__dataclass_fields__)
        return cls(**{k: _config_float(v, f"noise.{k}") for k, v in d.items()})


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
    # |HRVL>, |HLVR>, |VRHL>, |VLHR> sit at indices 3, 6, 9 and 12
    psi[[3, 6, 9, 12]] = 0.5 * np.array([1.0, -phase, -1.0, phase])
    return psi / np.linalg.norm(psi)


def _mismatch(columns) -> np.ndarray:
    """Number of the given index bits in which row index and column index differ."""
    return (INDEX_BITS[:, None, columns] != INDEX_BITS[None, :, columns]).sum(axis=2)


# per-photon dephasing masks: polarization bits (0, 2) and path bits (1, 3)
_POL_MISMATCH = _mismatch([0, 2])
_PATH_MISMATCH = _mismatch([1, 3])
_POL_MISMATCH.setflags(write=False)
_PATH_MISMATCH.setflags(write=False)


def apply_noise(state: np.ndarray, model: NoiseModel) -> np.ndarray:
    """Degrade a pure state into a mixed one.

    The channel first shifts the path phase, then scales polarization and
    path coherences by the respective visibilities (per photon, so a fully
    flipped coherence is scaled twice), and finally mixes in white noise:

        rho = (1 - w) * D(|psi><psi|) + w * I/16

    The dephasing mask is a positive-semidefinite kernel, so the output is
    always a valid density matrix.
    """
    psi = qstate.assert_state(state)
    # phase on Alice's path qubit (index bit 1), as a matrix product: the
    # elementwise form rounds differently in the last digit of some documents
    psi = np.diag(np.exp(1j * model.phase_offset * INDEX_BITS[:, 1])) @ psi
    rho = np.outer(psi, psi.conj())
    damp = (model.pol_visibility ** _POL_MISMATCH) * (model.path_visibility ** _PATH_MISMATCH)
    w = model.white_noise_weight
    rho = (1.0 - w) * (damp * rho) + w * np.eye(DIM) / DIM
    return assert_density_matrix(rho)


@dataclass(frozen=True)
class FitResult:
    model: NoiseModel
    residual: float
    degenerate: bool = False


# the fit stops once no variable moves by more than _FIT_TOL in a step
_FIT_TOL = 1e-15
_FIT_MAX_STEPS = 10_000


def predicted_correlations(model: NoiseModel, phi: float = 0.0) -> np.ndarray:
    """The nine correlation expectations of the noisy source."""
    rho = apply_noise(build_psi(phi), model)
    return np.array([mixed_expectation(correlation_operator(c), rho) for c in CORRELATIONS])


def fit_noise(targets) -> FitResult:
    """Least-squares calibration of the noise model against measured values.

    targets are the measured correlation values in canonical order; either
    the eight non-M values or all nine (the M entry is then ignored).  At
    phi = 0 the eight rows fix only s = 1 - w, a = vp**2 and
    b = vq**2 * cos(delta):

        ZZ = Z'Z' = -s      XX = -s*a          X'X' = -s*b
        ZZ'-Z-Z' = s        XX'-X-X' = s*a*b   Z-X'-ZX' = s*b
        X-Z'-XZ' = s*a

    Each is linear once the other two are fixed, so the fit cycles through
    the three clipped one-variable least-squares solutions from (1, 1, 1).
    It reports the canonical model w = 1 - s, vp = sqrt(a), vq = sqrt(|b|),
    delta = 0 (b >= 0) or pi (b < 0); degenerate means s = 0, pure white
    noise with a and b undetermined.  The residual is evaluated once, on
    the density matrix of the reported model.
    """
    targets = np.asarray([float(t) for t in targets], dtype=float)
    if targets.shape[0] not in (8, 9):
        raise ValueError("expected 8 or 9 target correlation values")
    if not np.all(np.abs(targets) <= 1.0 + 1e-12):
        raise ValueError("correlation targets must lie in [-1, 1]")
    zz, zz2, xx, xx2, zz_mix, xx_mix, zx, xz = targets[:8].tolist()

    s, a, b = 1.0, 1.0, 1.0
    for _ in range(_FIT_MAX_STEPS):
        # c.t / |c|^2 for the row coefficients c = (-1, -1, -a, -b, 1, ab, b, a)
        ct = -zz - zz2 - a * xx - b * xx2 + zz_mix + a * b * xx_mix + b * zx + a * xz
        s_new = min(max(ct / ((2.0 + a * a) * (2.0 + b * b) - 1.0), 0.0), 1.0)
        if s_new == 0.0:
            break
        a_new = min(max((xz - xx + b * xx_mix) / (s_new * (2.0 + b * b)), 0.0), 1.0)
        b_new = min(max((zx - xx2 + a_new * xx_mix) / (s_new * (2.0 + a_new * a_new)), -1.0), 1.0)
        step = max(abs(s_new - s), abs(a_new - a), abs(b_new - b))
        s, a, b = s_new, a_new, b_new
        if step <= _FIT_TOL:
            break

    degenerate = s_new == 0.0
    if degenerate:
        model = NoiseModel(white_noise_weight=1.0)
    else:
        model = NoiseModel(1.0 - s, math.sqrt(a), math.sqrt(abs(b)), 0.0 if b >= 0.0 else math.pi)
    dev = predicted_correlations(model)[:8] - targets[:8]
    return FitResult(model=model, residual=float(np.dot(dev, dev)), degenerate=degenerate)
