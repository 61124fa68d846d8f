"""Monte Carlo coincidence counting over the two-party detection models.

Each of the nine correlations is measured in one fixed pair of device
settings.  A run draws a Poisson number of pairs per correlation, samples
joint two-bit x two-bit outcomes from the Born-rule distribution, and
forms the counting estimator

    E(p) = [C(p=+1) - C(p=-1)] / [C(p=+1) + C(p=-1)]

with the binomial standard error sqrt((1 - E^2)/n).  Joint outcomes are
indexed by (bit1_A, bit2_A, bit1_B, bit2_B) like the basis in
qstate.INDEX_BITS, with bit +1 mapping to 0, so

    outcome index = 8*i(bit1_A) + 4*i(bit2_A) + 2*i(bit1_B) + i(bit2_B).

Randomness comes from the counter-based Philox generator; every
correlation derives its own stream from (seed, correlation index), so
reports do not depend on execution order and are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping

import numpy as np

from .observables import (
    CORRELATIONS,
    CORRELATION_BY_ID,
    Correlation,
    Setting,
    bell_operator,
    context,
    correlation_operator,
    CONTEXT_SYMBOLS,
)
from .apparatus import build_apparatus
from .qstate import DIM, INDEX_BITS, Party, mixed_expectation
from .source import _config_block, _config_float

RNG_ALGORITHM = "philox4x64"

DEFAULT_PAIR_RATE = 3.2e4
DEFAULT_DURATION = 1.0
# largest Poisson mean numpy's generator accepts ("lam value too large" above it)
POISSON_LAM_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


@dataclass(frozen=True)
class ContextPair:
    alice: Setting
    bob: Setting


def _setting_containing(party: Party, symbol: str) -> Setting:
    hits = [s for s in Setting if symbol in CONTEXT_SYMBOLS[(party, s)]]
    if len(hits) != 1:
        raise ValueError(f"symbol {symbol!r} is not readable in a unique {party.value} setting")
    return hits[0]


@lru_cache(maxsize=None)
def context_pair(corr_id: str) -> ContextPair:
    """The unique device-setting pair in which a correlation is measurable."""
    corr = CORRELATION_BY_ID[corr_id]
    settings: dict[Party, Setting] = {}
    for party, symbol in corr.factors:
        s = _setting_containing(party, symbol)
        if settings.setdefault(party, s) is not s:
            raise ValueError(f"correlation {corr_id!r} mixes settings for {party.value}")
    return ContextPair(alice=settings[Party.ALICE], bob=settings[Party.BOB])


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
    corr = CORRELATION_BY_ID[corr_id]
    pair = context_pair(corr_id)
    signs = np.ones(DIM, dtype=int)
    for party, symbol in corr.factors:
        setting = pair.alice if party is Party.ALICE else pair.bob
        pos = context(party, setting).bit_position(symbol)
        base = 0 if party is Party.ALICE else 2
        if pos == 2:  # derived product, multiply both readout bits
            signs = signs * OUTCOME_BITS[:, base] * OUTCOME_BITS[:, base + 1]
        else:
            signs = signs * OUTCOME_BITS[:, base + pos]
    signs.setflags(write=False)
    return signs


def outcome_distribution(rho: np.ndarray, pair: ContextPair) -> np.ndarray:
    """Born-rule probabilities of the 16 joint outcomes for a setting pair."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (DIM, DIM):
        raise ValueError(f"density matrix must be {DIM}x{DIM}")
    stack = _joint_projectors(pair.alice, pair.bob)
    p = np.einsum("oij,ji->o", stack, rho)
    if float(np.max(np.abs(p.imag))) > 1e-10:
        raise ValueError("outcome probabilities acquired an imaginary part")
    p = p.real
    if float(p.min()) < -1e-10:
        raise ValueError(f"negative outcome probability {float(p.min()):.3e}")
    if abs(float(p.sum()) - 1.0) > 1e-10:
        raise ValueError("outcome probabilities do not sum to 1")
    return np.clip(p, 0.0, None)


@dataclass(frozen=True)
class CountTable:
    counts: tuple[int, ...]
    total: int

    def __post_init__(self):
        if len(self.counts) != DIM:
            raise ValueError(f"count table needs {DIM} bins")
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be non-negative")
        if sum(self.counts) != self.total:
            raise ValueError("counts do not sum to total")


def check_seed(seed: int) -> int:
    """Reject a seed the 64-bit Philox key cannot hold, rather than wrap it."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed {seed} is outside [0, 2**64)")
    return seed


def _stream(seed: int, stream_index: int) -> np.random.Generator:
    key = np.array([check_seed(seed), stream_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draw_counts(rng: np.random.Generator, dist: np.ndarray, n: int) -> CountTable:
    p = np.clip(np.asarray(dist, dtype=float), 0.0, None)
    p = p / p.sum()
    counts = rng.multinomial(n, p) if n > 0 else np.zeros(DIM, dtype=int)
    return CountTable(tuple(int(c) for c in counts), int(n))


def sample_events(dist, n: int, seed: int) -> CountTable:
    """Multinomial sample of n events, deterministic for a given seed."""
    if n < 0:
        raise ValueError("sample size must be non-negative")
    return _draw_counts(_stream(seed, 0), np.asarray(dist, dtype=float), n)


@dataclass(frozen=True)
class CorrelationEstimate:
    id: str
    E: float
    stderr: float
    n: int


def estimate_correlation(table: CountTable, corr: Correlation | str) -> CorrelationEstimate:
    """Counting estimator and binomial standard error for one correlation."""
    corr_id = corr.id if isinstance(corr, Correlation) else corr
    if corr_id not in CORRELATION_BY_ID:
        raise KeyError(f"unknown correlation id {corr_id!r}")
    if table.total <= 0:
        raise ValueError(f"correlation {corr_id!r} undefined: no events counted")
    signs = _statistic_signs(corr_id)
    counts = np.asarray(table.counts, dtype=float)
    c_plus = float(counts[signs > 0].sum())
    c_minus = float(counts[signs < 0].sum())
    e = (c_plus - c_minus) / table.total
    stderr = math.sqrt(max(1.0 - e * e, 0.0) / table.total)
    return CorrelationEstimate(corr_id, e, stderr, table.total)


@dataclass(frozen=True)
class Schedule:
    """Pairs per second and collection time, with per-correlation overrides."""

    pair_rate: float = DEFAULT_PAIR_RATE
    duration: float = DEFAULT_DURATION
    overrides: Mapping[str, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self):
        entries = {"schedule": (self.pair_rate, self.duration)}
        for corr_id, entry in self.overrides.items():
            if corr_id not in CORRELATION_BY_ID:
                raise ValueError(f"override for unknown correlation {corr_id!r}")
            entries[f"override for {corr_id!r}"] = entry
        for where, (rate, duration) in entries.items():
            for name, value in (("pair_rate", rate), ("duration", duration)):
                if not 0.0 < value < math.inf:
                    raise ValueError(f"{where}: {name} must be positive and finite, got {value}")
            if rate * duration > POISSON_LAM_MAX:
                raise ValueError(f"{where}: pair_rate * duration = {rate * duration:g} exceeds the Poisson limit {POISSON_LAM_MAX:g}")

    def mean_counts(self, corr_id: str) -> float:
        rate, duration = self.overrides.get(corr_id, (self.pair_rate, self.duration))
        return rate * duration

    def to_dict(self) -> dict:
        return {
            "pair_rate": self.pair_rate,
            "duration": self.duration,
            "overrides": {
                k: {"pair_rate": r, "duration": d} for k, (r, d) in sorted(self.overrides.items())
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Schedule":
        _config_block(d, "schedule", {"pair_rate", "duration", "overrides"})
        rate = _config_float(d.get("pair_rate", DEFAULT_PAIR_RATE), "schedule.pair_rate")
        duration = _config_float(d.get("duration", DEFAULT_DURATION), "schedule.duration")
        overrides = {}
        entries = _config_block(d.get("overrides", {}), "schedule.overrides", CORRELATION_BY_ID)
        for corr_id, entry in entries.items():
            where = f"schedule.overrides.{corr_id}"
            _config_block(entry, where, {"pair_rate", "duration"})
            overrides[corr_id] = (
                _config_float(entry.get("pair_rate", rate), f"{where}.pair_rate"),
                _config_float(entry.get("duration", duration), f"{where}.duration"),
            )
        return cls(pair_rate=rate, duration=duration, overrides=overrides)


@dataclass(frozen=True)
class ExperimentReport:
    estimates: tuple[CorrelationEstimate, ...]
    bell_value: float
    bell_stderr: float
    sigma_violation: float
    m_fidelity: float
    m_histogram: tuple[float, ...]
    seed: int | None
    schedule: Schedule | None
    mode: str
    rng_algorithm: str | None

    def estimate(self, corr_id: str) -> CorrelationEstimate:
        for est in self.estimates:
            if est.id == corr_id:
                return est
        raise KeyError(corr_id)

    def to_dict(self) -> dict:
        doc: dict = {"mode": self.mode}
        if self.mode == "sampled":
            doc["rng"] = {"algorithm": self.rng_algorithm, "seed": self.seed}
            doc["schedule"] = self.schedule.to_dict() if self.schedule is not None else None
        doc["correlations"] = [
            {
                "id": est.id,
                "sign": CORRELATION_BY_ID[est.id].sign,
                "E": est.E,
                "stderr": est.stderr,
                "n": est.n,
            }
            for est in self.estimates
        ]
        doc["bell_value"] = self.bell_value
        doc["bell_stderr"] = self.bell_stderr
        doc["sigma_violation"] = self.sigma_violation
        doc["m_fidelity"] = self.m_fidelity
        doc["m_histogram"] = list(self.m_histogram)
        return doc


def _sigma_violation(bell: float, stderr: float) -> float:
    """Standard errors by which bell exceeds the local-realistic bound 7."""
    if stderr > 0.0:
        return (bell - 7.0) / stderr
    return math.inf if bell > 7.0 else (-math.inf if bell < 7.0 else math.nan)


def _aggregate(estimates: list[CorrelationEstimate]) -> tuple[float, float, float]:
    bell = sum(c.sign * est.E for c, est in zip(CORRELATIONS, estimates))
    stderr = math.sqrt(sum(est.stderr ** 2 for est in estimates))
    return bell, stderr, _sigma_violation(bell, stderr)


def run_schedule(rho: np.ndarray, schedule: Schedule, seed: int) -> ExperimentReport:
    """Sample all nine correlations and aggregate the Bell statistics.

    Event counts are Poisson around rate*duration; each correlation uses
    its own (seed, index) Philox stream, so identical inputs give
    bit-identical reports regardless of evaluation order.
    """
    estimates = []
    m_histogram: tuple[float, ...] | None = None
    m_fidelity = math.nan
    for idx, corr in enumerate(CORRELATIONS):
        rng = _stream(seed, idx)
        n = int(rng.poisson(schedule.mean_counts(corr.id)))
        dist = outcome_distribution(rho, context_pair(corr.id))
        table = _draw_counts(rng, dist, n)
        estimates.append(estimate_correlation(table, corr))
        if corr.id == "M":
            counts = np.asarray(table.counts, dtype=float)
            m_histogram = tuple(counts / table.total)
            signs = _statistic_signs("M")
            m_fidelity = float(counts[signs < 0].sum() / table.total)
    bell, stderr, sigma = _aggregate(estimates)
    return ExperimentReport(
        estimates=tuple(estimates),
        bell_value=bell,
        bell_stderr=stderr,
        sigma_violation=sigma,
        m_fidelity=m_fidelity,
        m_histogram=m_histogram,
        seed=seed,
        schedule=schedule,
        mode="sampled",
        rng_algorithm=RNG_ALGORITHM,
    )


def predict_exact(rho: np.ndarray) -> ExperimentReport:
    """Analytic report: expectation values instead of sampled counts."""
    estimates = [
        CorrelationEstimate(corr.id, mixed_expectation(correlation_operator(corr), rho), 0.0, 0)
        for corr in CORRELATIONS
    ]
    bell = mixed_expectation(bell_operator(), rho)
    hist = outcome_distribution(rho, context_pair("M"))
    signs = _statistic_signs("M")
    fidelity = float(hist[signs < 0].sum())
    return ExperimentReport(
        estimates=tuple(estimates),
        bell_value=bell,
        bell_stderr=0.0,
        sigma_violation=_sigma_violation(bell, 0.0),
        m_fidelity=fidelity,
        m_histogram=tuple(float(x) for x in hist),
        seed=None,
        schedule=None,
        mode="exact",
        rng_algorithm=None,
    )
