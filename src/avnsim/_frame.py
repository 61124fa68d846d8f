"""Exact predictions, Born tables and counting runs in the Pauli frame, in the standard library alone.

Each of the twelve SYMBOLS is a four-qubit Pauli word (x, z, k), the
operator i^k X^x Z^z, where x and z are masks over the basis-index bits
of the layout in _tables (pol_A the most significant).  Words compose as

    (x1, z1, k1)(x2, z2, k2) = (x1 ^ x2, z1 ^ z2, k1 + k2 + 2|z1 & x2| mod 4).

The noise channel of source.apply_noise scales each word on its own:

    Tr(rho P) = (1 - w) vp^|x & pol| vq^|x & path| <psi_d|P|psi_d> + w [P = I],

where psi_d is the ideal state with the phase offset on path_A.  It sits
on the four source slots of _tables, a coset of the X-masks _LIVE_X =
{0, 5, 10, 15}, so <psi_d|P|psi_d> is 0 unless x is in _LIVE_X.  Each
correlation is read in one setting pair, whose four readout generators
G_i (Alice's two, then Bob's, as CONTEXT_SYMBOLS lists them) give the 16
outcome probabilities of its Born row, summed over the non-zero words:

    p(b) = 2^-4 sum_S (prod_{i in S} b_i) E(prod_{i in S} G_i).

This holds because each device is the ideal projective readout of its
setting, which tests/test_exact_proofs.py proves in integers from the
device table of _tables; the setting pair and the bit order are read from
the readout table of _tables.  predict prints the M row;
simulate draws from all nine through _sampler, so `avnsim simulate` and
`reproduce-paper` run without numpy.  Both hand their numbers to _records,
which builds the report as the dense path does (experiment.predict_exact
and run_schedule on source.apply_noise), this module's oracle in tests.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from functools import reduce

from . import _sampler
from ._records import ExperimentReport, NoiseModel, Schedule, SourceConfig, check_seed
from ._records import _distributions, _exact_report, _left_sum, _sampled_report
from ._tables import ATOL_ALGEBRA, CONTEXT_SYMBOLS, CORRELATIONS, Party, _factors, _setting_pair
from ._tables import _PATH, _POL, _QUBIT_WEIGHT, _SOURCE_SLOTS, _WEIGHTS  # the basis layout

Word = tuple[int, int, int]

IDENTITY: Word = (0, 0, 0)
_I_POWER = (1, 1j, -1, -1j)
_BINS = 16
_LIVE_X = frozenset(a ^ b for a in _SOURCE_SLOTS for b in _SOURCE_SLOTS)


def compose(p: Word, q: Word) -> Word:
    """The word of the operator product p @ q."""
    return p[0] ^ q[0], p[1] ^ q[1], (p[2] + q[2] + 2 * (p[1] & q[0]).bit_count()) % 4


def word(symbol: str) -> Word:
    """The word of one of the twelve SYMBOLS, its factors multiplied left to right."""
    out = IDENTITY
    for pauli, qubit in _factors(symbol):
        bit = _QUBIT_WEIGHT[qubit]
        out = compose(out, (bit, 0, 0) if pauli == "x" else (0, bit, 0))
    return out


def _generators(corr) -> tuple[str, ...]:
    """The four readout generators of the setting pair that measures corr, in readout-bit order."""
    alice, bob = _setting_pair(corr)
    return CONTEXT_SYMBOLS[Party.ALICE, alice][:2] + CONTEXT_SYMBOLS[Party.BOB, bob][:2]


_CORRELATION_WORDS = tuple(reduce(compose, (word(symbol) for _, symbol in corr.factors), IDENTITY) for corr in CORRELATIONS)
# generator i reads readout column i, so subset mask m holds G_i when m has that column's weight
_ROW_SUBSET_WORDS = tuple(
    tuple(reduce(compose, (g for i, g in enumerate(gens) if mask & _WEIGHTS[i]), IDENTITY) for mask in range(_BINS))
    for gens in (tuple(map(word, _generators(corr))) for corr in CORRELATIONS)
)


def _expectation(source: SourceConfig, noise: NoiseModel):
    """Tr(rho P) of a word P on the noisy source, as a function of P."""
    phase = cmath.exp(1j * (source.phi + noise.phase_offset))
    # |HRVL>, |HLVR>, |VRHL>, |VLHR>; the path phase sits on path_A = 1
    psi = dict(zip(_SOURCE_SLOTS, (0.5, -0.5 * phase, -0.5, 0.5 * phase)))
    w = noise.white_noise_weight

    def expect(p: Word) -> float:
        x, z, k = p
        if x not in _LIVE_X:
            return 0.0
        pure = _left_sum([psi[b ^ x].conjugate() * amp * (-1) ** (z & b).bit_count() for b, amp in psi.items()])
        damp = (1.0 - w) * noise.pol_visibility ** (x & _POL).bit_count() * noise.path_visibility ** (x & _PATH).bit_count()
        return damp * (_I_POWER[k] * pure).real + (w * _I_POWER[k].real if x == z == 0 else 0.0)

    return expect


def _born_rows(expect, rows) -> list[list[float]]:
    """The 16-bin Born rows of the given correlation indices, checked and clipped by _records._distributions."""
    # sign (-1)^|m & b|; skipping zero terms moves no bit, as each sum starts at the identity's ~1
    nonzero = [[(m, e) for m, e in enumerate(map(expect, _ROW_SUBSET_WORDS[k])) if e] for k in rows]
    table = [[_left_sum([-e if (m & b).bit_count() % 2 else e for m, e in terms]) / 16 for b in range(_BINS)] for terms in nonzero]
    return _distributions(table)


def born_rows(source: SourceConfig, noise: NoiseModel) -> list[list[float]]:
    """The nine outcome distributions in CORRELATIONS order, as run_schedule checks them."""
    return _born_rows(_expectation(source, noise), range(len(CORRELATIONS)))


def predict(source: SourceConfig, noise: NoiseModel) -> ExperimentReport:
    """predict_exact(apply_noise(build_psi(source), noise)) in closed form, equal to rounding."""
    expect = _expectation(source, noise)
    values = [expect(p) for p in _CORRELATION_WORDS]
    bell = _left_sum([corr.sign * e for corr, e in zip(CORRELATIONS, values)])
    (hist,) = _born_rows(expect, [len(CORRELATIONS) - 1])
    return _exact_report(values, bell, hist)


def simulate(source: SourceConfig, noise: NoiseModel, schedule: Schedule, seed: int) -> ExperimentReport:
    """experiment.run_schedule on the frame's Born rows, drawn by numpy's algorithms in _sampler:
    a Poisson number of events and their counts from each correlation's (seed, index) Philox stream.
    The seed is checked once, before any draw."""
    key = check_seed(seed)
    rows = []
    for idx, (corr, dist) in enumerate(zip(CORRELATIONS, born_rows(source, noise))):
        bits = _sampler.Philox(key, idx)
        n = _sampler.poisson(bits, schedule.mean_counts(corr.id))
        rows.append(_sampler.multinomial(bits, n, _sampler.normalise(dist)))
    return _sampled_report(rows, schedule, seed)


FitResult = namedtuple("FitResult", "model residual degenerate", defaults=(False,))


# the fit stops once no variable moves by more than _FIT_TOL in a step
_FIT_TOL = 1e-15
_FIT_MAX_STEPS = 10_000


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
    the frame correlations of the reported model.
    """
    targets = [float(t) for t in targets]
    if len(targets) not in (8, 9):
        raise ValueError("expected 8 or 9 target correlation values")
    if not all(abs(t) <= 1.0 + ATOL_ALGEBRA for t in targets):
        raise ValueError("correlation targets must lie in [-1, 1]")
    zz, zz2, xx, xx2, zz_mix, xx_mix, zx, xz = targets[:8]

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
    residual = _left_sum([(est.E - t) * (est.E - t) for est, t in zip(predict(SourceConfig(), model).estimates, targets[:8])])
    return FitResult(model=model, residual=residual, degenerate=degenerate)
