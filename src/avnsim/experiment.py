"""Monte Carlo coincidence counting over the two-party detection models.

Each setting reads its two generator symbols on the party's two readout
bits.  The readout table of _tables records each symbol's setting and
bit, and every correlation names generators only, so its setting pair
and the outcomes where its statistic (the product of its factors' bits)
is -1, its odd bins, are both read from there.  A joint outcome index
places the readout bits (bit1_A, bit2_A, bit1_B, bit2_B) on the weights
of the basis layout in _tables, bit +1 mapping to 0, so OUTCOME_BITS is
read from qstate.INDEX_BITS.

A run draws a Poisson number n of pairs per correlation and samples the
16 outcome counts; _records scores the nine count rows, E = [C(+1) -
C(-1)]/n in exact integers with standard error sqrt((1 - E^2)/n).  Each
correlation draws from its own Philox stream keyed by (seed, correlation
index), so reports are bit-reproducible in any order.  A stream is named
by its key alone, so each thread keeps one Generator on one Philox and
re-keys it, with plain ints for the state words, before each
correlation.  The nine Born rows, normalised by one division, are one
gather of rho's entries at the non-zero entries of the pairs' projectors
(onto stabilizer states on 2 or 8 basis states) and one ufunc
multiply-add, each row summed in entry order and the rows added in order
from +0: the full einsum's order, so its bits, as a skipped product with
an exact 0 adds +-0 (rho is checked finite first) and no sign of a zero
outlasts the +0 start.  An np.errstate block keeps the einsum's silence
on overflow and underflow.  Every path reads rho in C order, since an
einsum's sum order follows memory layout.  predict_exact is one full
einsum.

This is the library path for an arbitrary density matrix, and the dense
oracle in the tests.  `avnsim simulate` and `reproduce-paper` read the
Born rows in closed form from _frame and draw them with _sampler, the
standard-library port of numpy's Philox, Poisson and multinomial, so
they never import numpy.  The two paths give the same counts wherever
their tables agree to the last bit.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._records import (  # re-exported: the report records live in the numpy-free _records
    DEFAULT_DURATION,
    DEFAULT_PAIR_RATE,
    POISSON_LAM_MAX,
    RNG_ALGORITHM,
    CorrelationEstimate,
    ExperimentReport,
    Schedule,
    _distributions,
    _estimate,
    _exact_report,
    _peak,
    _sampled_report,
    check_seed,
)
from ._tables import _ODD_BINS, _setting_pair
from .observables import (
    CORRELATIONS,
    CORRELATION_BY_ID,
    Correlation,
    Setting,
    bell_operator,
    correlation_operators,
)
from .apparatus import build_apparatus
from .qstate import ATOL_ALGEBRA, ATOL_SPECTRAL, DIM, INDEX_BITS, ConsistencyError, Party, assert_density_shape


@dataclass(frozen=True)
class ContextPair:
    alice: Setting
    bob: Setting


@lru_cache(maxsize=None)
def context_pair(corr_id: str) -> ContextPair:
    """The unique device-setting pair in which a correlation is measurable."""
    alice, bob = _setting_pair(CORRELATION_BY_ID[corr_id])
    return ContextPair(alice=alice, bob=bob)


# signed readout bits per outcome index, columns (bit1_A, bit2_A, bit1_B, bit2_B)
OUTCOME_BITS = 1 - 2 * INDEX_BITS
OUTCOME_BITS.setflags(write=False)


@lru_cache(maxsize=None)
def _joint_projectors(alice: Setting, bob: Setting) -> np.ndarray:
    """(16, 16, 16) stack of joint outcome projectors for a setting pair.

    build_apparatus sorts each party's outcomes by (bit1, bit2) with +1
    first, so Alice-major order is the outcome index order.
    """
    model_a = build_apparatus(Party.ALICE, alice)
    model_b = build_apparatus(Party.BOB, bob)
    stack = np.array([a.projector @ b.projector for a in model_a.outcomes for b in model_b.outcomes])
    stack.setflags(write=False)
    return stack


@lru_cache(maxsize=None)
def _statistic_signs(corr_id: str) -> np.ndarray:
    """Per-outcome value (+-1) of a correlation's bit-product statistic."""
    signs = np.ones(DIM, dtype=int)
    signs[list(_ODD_BINS[corr_id])] = -1
    signs.setflags(write=False)
    return signs


@lru_cache(maxsize=None)
def _born_stack() -> np.ndarray:
    """(9, 16, 16, 16) stack of the nine pairs' joint projectors, in CORRELATIONS order."""
    pairs = [context_pair(corr.id) for corr in CORRELATIONS]
    stack = np.array([_joint_projectors.__wrapped__(pair.alice, pair.bob) for pair in pairs])
    stack.setflags(write=False)
    return stack


@lru_cache(maxsize=None)
def _born_support() -> tuple[np.ndarray, np.ndarray]:
    """The Born stack's non-zero entries and their flat rho indices as (entry, row, projector) tables,
    rows and entries in increasing (i, j) order, padded with 0j at index 0; read-only."""
    flat = _born_stack.__wrapped__().reshape(-1, DIM, DIM)
    width = int((flat != 0).sum(axis=-1).max())
    vals = np.zeros((width, width, len(flat)), dtype=complex)
    index = np.zeros(vals.shape, dtype=np.intp)
    for k, proj in enumerate(flat):
        for r, i in enumerate(np.flatnonzero(proj.any(axis=1))):
            j = np.flatnonzero(proj[i])
            vals[: len(j), r, k], index[: len(j), r, k] = proj[i, j], j * DIM + i  # entry (i, j) meets rho[j, i]
    for table in (vals, index):
        table.setflags(write=False)
    return vals, index


@lru_cache(maxsize=None)
def _exact_stack() -> np.ndarray:
    """(26, 16, 16) stack of the nine correlation operators, the Bell operator and the M pair's 16 projectors."""
    m = context_pair("M")
    stack = np.concatenate([correlation_operators(), bell_operator()[None], _joint_projectors(m.alice, m.bob)])
    stack.setflags(write=False)
    return stack


def _probabilities(p: np.ndarray) -> np.ndarray:
    """Check (..., 16) Born weights row by row and return them real, clipped at 0."""
    if float(abs(p.imag).max()) > ATOL_SPECTRAL:
        raise ValueError("outcome probabilities acquired an imaginary part")
    p = p.real
    if float(p.min()) < -ATOL_SPECTRAL:
        raise ValueError(f"negative outcome probability {float(p.min()):.3e}")
    if float(abs(p.sum(-1) - 1.0).max()) > ATOL_SPECTRAL:
        raise ValueError("outcome probabilities do not sum to 1")
    return p.clip(0.0, None)


def outcome_distribution(rho: np.ndarray, pair: ContextPair) -> np.ndarray:
    """Born-rule probabilities of the 16 joint outcomes for a setting pair."""
    return _probabilities(np.einsum("oij,ji->o", _joint_projectors(pair.alice, pair.bob), assert_density_shape(rho)))


@dataclass(frozen=True)
class CountTable:
    counts: tuple[int, ...]
    total: int

    def __post_init__(self):
        if len(self.counts) != DIM:
            raise ValueError(f"count table needs {DIM} bins")
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be non-negative")
        # summed as Python integers: numpy fixed-width counts wrap on overflow
        if sum(int(c) if isinstance(c, numbers.Integral) else c for c in self.counts) != self.total:
            raise ValueError("counts do not sum to total")


def _rekey(bits: np.random.Philox, key: int, stream_index: int) -> None:
    """Set bits to the start of the (key, stream index) stream: counter 0, empty buffer; key already checked.
    The setter casts each plain int word to uint64, as a uint64 array holds it."""
    bits.state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": (key, stream_index)},
                  "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


# each thread's Generator for run_schedule and sample_events, built on the thread's first draw
_THREAD = threading.local()


def _thread_rng() -> np.random.Generator:
    """This thread's one Generator; each caller re-keys it before it draws."""
    rng = getattr(_THREAD, "rng", None)
    if rng is None:
        rng = _THREAD.rng = np.random.Generator(np.random.Philox())
    return rng


def _draw_counts(rng: np.random.Generator, dist: np.ndarray, n: int) -> CountTable:
    """Counts of n events over the 16 outcomes, dist normalised; all 0 when n is 0."""
    return CountTable(tuple(rng.multinomial(n, dist / dist.sum()).tolist()), int(n))


def sample_events(dist, n: int, seed: int) -> CountTable:
    """Multinomial sample of n events, deterministic for a given seed."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"sample size n must be a non-negative integer, got {n!r:.40}")
    p = np.asarray(dist, dtype=float)
    weights = p.shape == (DIM,) and np.isfinite(p).all() and p.min() >= 0.0
    if not (weights and 0.0 < sum(p.tolist()) < math.inf):  # a Python sum overflows without a warning
        raise ValueError(f"dist must be {DIM} finite, non-negative weights with a positive finite sum")
    rng = _thread_rng()
    _rekey(rng.bit_generator, check_seed(seed), 0)
    return _draw_counts(rng, p, n)


def estimate_correlation(table: CountTable, corr: Correlation | str) -> CorrelationEstimate:
    """Counting estimator and binomial standard error for one correlation."""
    corr_id = corr.id if isinstance(corr, Correlation) else corr
    if corr_id not in CORRELATION_BY_ID:
        raise KeyError(f"unknown correlation id {corr_id!r}")
    if table.total <= 0:
        raise ValueError(f"correlation {corr_id!r} undefined: no events counted")
    for c in table.counts:
        if isinstance(c, bool) or not isinstance(c, numbers.Integral):
            raise ValueError(f"counts must be integers, got {type(c).__name__} values")
    # scored as Python integers: numpy fixed-width counts wrap or round
    return _estimate(corr_id, [int(c) for c in table.counts], int(table.total))


def _born_table(rho: np.ndarray) -> np.ndarray:
    """The nine outcome distributions of a finite rho in CORRELATIONS order: the stacked einsum's bits, and its
    silence on overflow and underflow, from one gather and one multiply-add over the non-zero entries alone;
    checked as one table and normalised by one division, each row as d / d.sum()."""
    rho = assert_density_shape(rho)
    if not np.isfinite(rho).all():  # a skipped 0 * inf or 0 * NaN would leave some rows finite
        raise ValueError("outcome probabilities are not finite")
    vals, index = _born_support()
    with np.errstate(all="ignore"):  # einsum's silence: a bare ufunc warns, or raises under a caller's errstate
        rows = (vals * rho.ravel()[index]).sum(0)  # einsum's product, each row summed in entry order
        table = np.add.reduce(rows, axis=0, initial=0.0)  # the rows in order from +0, so +-0 rows add alike
    dists = _probabilities(table.reshape(len(CORRELATIONS), DIM))
    dists = dists / dists.sum(axis=1, keepdims=True)
    if not np.isfinite(dists).all():  # NaN passes every comparison in _probabilities
        raise ValueError("outcome probabilities are not finite")
    return dists


def run_schedule(rho: np.ndarray, schedule: Schedule, seed: int) -> ExperimentReport:
    """Sample all nine correlations and aggregate the Bell statistics.

    Event counts are Poisson around rate*duration; each correlation uses
    its own (seed, index) Philox stream, drawn by this thread's one
    Generator re-keyed to it, so identical inputs give bit-identical
    reports regardless of evaluation order or thread.  A correlation that
    draws no events reports E and stderr as NaN, and so do the Bell
    value, its stderr and sigma (any row) and the M fidelity and histogram
    (the M row).  The state is checked, then the seed, before any draw.
    """
    dists = _born_table(rho)
    key = check_seed(seed)
    rng = _thread_rng()
    bits = rng.bit_generator
    rows = []
    for idx, (corr, dist) in enumerate(zip(CORRELATIONS, dists)):
        _rekey(bits, key, idx)
        rows.append(rng.multinomial(rng.poisson(schedule.mean_counts(corr.id)), dist).tolist())
    return _sampled_report(rows, schedule, seed)


def predict_exact(rho: np.ndarray) -> ExperimentReport:
    """Analytic report (expectation values, not counts) from one contraction with _exact_stack,
    checked as correlation_expectations, mixed_expectation and _probabilities check, in order."""
    values = np.einsum("kij,ji->k", _exact_stack(), assert_density_shape(rho))
    real, imag = values.real.tolist(), values.imag.tolist()
    for part in (_peak([abs(v) for v in imag[:9]]), imag[9]):
        if abs(part) > ATOL_ALGEBRA:
            raise ConsistencyError(f"mixed expectation has imaginary part {part:.3e}")
    if _peak([abs(v) for v in imag[10:]]) > ATOL_SPECTRAL:
        raise ValueError("outcome probabilities acquired an imaginary part")
    return _exact_report(real[:9], real[9], *_distributions([real[10:]]))
