"""Run configuration and report records, in the standard library alone.

The config blocks (source, noise, schedule, seed) are parsed and checked
here.  An ExperimentReport is built here, once for both the dense path
(experiment) and the Pauli frame (_frame): a sampled one from a run's
nine rows of counts, an exact one from the nine values, the Bell value
and the M row.  It is rendered into its document here too, so the
commands build their config and their report without numpy.  source
and experiment re-export these names, so each is one object whichever
module it is read from.
"""

import math
import operator
from collections import namedtuple
from collections.abc import Mapping

from ._tables import _ODD_BINS, ATOL_SPECTRAL, CORRELATION_BY_ID, CORRELATIONS

RNG_ALGORITHM = "philox4x64"

DEFAULT_PAIR_RATE = 3.2e4
DEFAULT_DURATION = 1.0
# largest Poisson mean numpy's generator accepts ("lam value too large" above
# it): int64 max - sqrt(int64 max) * 10, evaluated in float64
POISSON_LAM_MAX = 9.223372006484771e18


def _canonical_phase(phi: float, where: str) -> float:
    """Map a finite angle into [-pi, pi); where names the field in the error."""
    if not math.isfinite(phi):
        raise ValueError(f"{where} must be finite, got {phi}")
    phi = float((phi + math.pi) % (2.0 * math.pi) - math.pi)
    # just below -pi, phi + pi rounds the modulus up to 2 pi
    return -math.pi if phi == math.pi else phi


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


class _Checked(tuple):
    """Base of the records whose __new__ checks and canonicalises the fields.

    _make, and so _replace, checks too.  pickle and copy restore the stored
    fields without checking them again.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return tuple.__new__, (type(self), tuple(self))


class SourceConfig(_Checked, namedtuple("SourceConfig", "phi")):
    __slots__ = ()

    def __new__(cls, phi: float = 0.0):
        return super().__new__(cls, _canonical_phase(phi, "source.phi"))

    def to_dict(self) -> dict:
        return self._asdict()

    @classmethod
    def from_dict(cls, d: dict) -> "SourceConfig":
        _config_block(d, "source", {"phi"})
        return cls(phi=_config_float(d.get("phi", 0.0), "source.phi"))


class NoiseModel(_Checked, namedtuple("NoiseModel", "white_noise_weight pol_visibility path_visibility phase_offset")):
    __slots__ = ()

    def __new__(
        cls,
        white_noise_weight: float = 0.0,
        pol_visibility: float = 1.0,
        path_visibility: float = 1.0,
        phase_offset: float = 0.0,
    ):
        weights = []
        for name, value in (
            ("white_noise_weight", white_noise_weight),
            ("pol_visibility", pol_visibility),
            ("path_visibility", path_visibility),
        ):
            v = float(value)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"noise.{name} must lie in [0, 1], got {v}")
            weights.append(v)
        return super().__new__(cls, *weights, _canonical_phase(float(phase_offset), "noise.phase_offset"))

    def to_dict(self) -> dict:
        return self._asdict()

    @classmethod
    def from_dict(cls, d: dict) -> "NoiseModel":
        _config_block(d, "noise", cls._fields)
        return cls(**{k: _config_float(v, f"noise.{k}") for k, v in d.items()})


def check_seed(seed: int) -> int:
    """The seed as an int; reject a non-integer (a bool or a float would alias
    another seed's stream) and a seed the 64-bit Philox key cannot hold."""
    if type(seed) is not int:
        import numbers  # only a seed of another type, such as a numpy integer, needs the ABCs
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
            raise ValueError(f"seed must be an integer, got {seed!r:.40}")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed {seed} is outside [0, 2**64)")
    return int(seed)


CorrelationEstimate = namedtuple("CorrelationEstimate", "id E stderr n")


class Schedule(_Checked, namedtuple("Schedule", "pair_rate duration overrides")):
    """Pairs per second and collection time, with per-correlation overrides.

    overrides maps a correlation id to its (pair_rate, duration); each
    Schedule built without it gets a fresh empty dict.
    """

    __slots__ = ()

    def __new__(
        cls,
        pair_rate: float = DEFAULT_PAIR_RATE,
        duration: float = DEFAULT_DURATION,
        overrides: Mapping[str, tuple[float, float]] | None = None,
    ):
        if overrides is None:
            overrides = {}
        entries = {"schedule": (pair_rate, duration)}
        for corr_id, entry in overrides.items():
            if corr_id not in CORRELATION_BY_ID:
                raise ValueError(f"override for unknown correlation {corr_id!r}")
            entries[f"override for {corr_id!r}"] = entry
        for where, (rate, time) in entries.items():
            for name, value in (("pair_rate", rate), ("duration", time)):
                if not 0.0 < value < math.inf:
                    raise ValueError(f"{where}: {name} must be positive and finite, got {value}")
            if rate * time > POISSON_LAM_MAX:
                raise ValueError(f"{where}: pair_rate * duration = {rate * time:g} exceeds the Poisson limit {POISSON_LAM_MAX:g}")
        return super().__new__(cls, pair_rate, duration, overrides)

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


# seed and schedule are both None for an exact report; to_dict derives the mode from them
class ExperimentReport(namedtuple("ExperimentReport", "estimates bell_value bell_stderr sigma_violation m_fidelity m_histogram seed schedule")):
    __slots__ = ()

    def estimate(self, corr_id: str) -> CorrelationEstimate:
        for est in self.estimates:
            if est.id == corr_id:
                return est
        raise KeyError(corr_id)

    def to_dict(self) -> dict:
        doc: dict = {"mode": "exact"}
        if self.schedule is not None:
            doc["mode"] = "sampled"
            doc["rng"] = {"algorithm": RNG_ALGORITHM, "seed": self.seed}
            doc["schedule"] = self.schedule.to_dict()
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


def _left_sum(values):
    """values added left to right from 0, as builtin sum() adds them through Python 3.11.

    From 3.12 on, sum() compensates float round-off (Neumaier 1974), and one
    ulp of a Born bin moves the draws, so every float sum behind a document
    runs through here: the documents are then the same bytes on every Python.
    ints stay exact ints, and +inf with -inf gives NaN, as in sum(), where
    math.fsum raises.  The loop is reduce(operator.add, values, 0), and
    faster on the short rows it adds.
    """
    total = 0
    for v in values:
        total += v
    return total


# each correlation's eight odd bins of a 16-bin row, read in _ODD_BINS order by one call
_ODD_ENTRIES = {corr_id: operator.itemgetter(*bins) for corr_id, bins in _ODD_BINS.items()}


def _estimate(corr_id: str, counts, n: int) -> CorrelationEstimate:
    """E = [C(+1) - C(-1)]/n = (n - 2 C(-1))/n and its binomial stderr, over integer counts of n > 0 events."""
    return _scored(corr_id, sum(_ODD_ENTRIES[corr_id](counts)), n)


def _scored(corr_id: str, odd: int, n: int) -> CorrelationEstimate:
    """The estimate of n > 0 events of which odd fell in the correlation's odd bins, made by tuple.__new__."""
    e = (n - 2 * odd) / n
    return tuple.__new__(CorrelationEstimate, (corr_id, e, math.sqrt(max(1.0 - e * e, 0.0) / n), n))


def _sampled_report(rows, schedule: Schedule, seed: int) -> ExperimentReport:
    """The report of a counting run from its nine 16-bin rows of integer counts, in CORRELATIONS order.

    A row that counted no events reports E and stderr as NaN, and so do
    the Bell value, its stderr and sigma (any such row) and the M fidelity
    and histogram (the M row): null in the documents.
    """
    estimates = []
    m_fidelity, m_histogram = math.nan, (math.nan,) * 16
    for corr, counts in zip(CORRELATIONS, rows):
        n = sum(counts)
        if n == 0:
            estimates.append(tuple.__new__(CorrelationEstimate, (corr.id, math.nan, math.nan, 0)))
            continue
        odd = sum(_ODD_ENTRIES[corr.id](counts))
        estimates.append(_scored(corr.id, odd, n))
        if corr.id == "M":
            m_fidelity = odd / n
            m_histogram = tuple([c / n for c in counts])
    bell = _left_sum([corr.sign * est.E for corr, est in zip(CORRELATIONS, estimates)])
    stderr = math.sqrt(_left_sum([est.stderr ** 2 for est in estimates]))
    sigma = _sigma_violation(bell, stderr)
    return ExperimentReport(tuple(estimates), bell, stderr, sigma, m_fidelity, m_histogram, seed, schedule)


def _peak(values: list[float]) -> float:
    """The largest of values, or NaN when one of them is NaN, as numpy's max."""
    return math.nan if any(map(math.isnan, values)) else max(values)


def _distributions(table) -> list[list[float]]:
    """16-bin rows checked and clipped at 0 as experiment._probabilities does a numpy table."""
    low = -_peak([-p for row in table for p in row])
    if low < -ATOL_SPECTRAL:
        raise ValueError(f"negative outcome probability {low:.3e}")
    if _peak([abs(_left_sum(row) - 1.0) for row in table]) > ATOL_SPECTRAL:
        raise ValueError("outcome probabilities do not sum to 1")
    return [[0.0 if p <= 0.0 else p for p in row] for row in table]


def _exact_report(values, bell: float, m_row) -> ExperimentReport:
    """The exact report from the nine values in CORRELATIONS order, the Bell value and the M row's 16 probabilities.

    Each record is made by tuple.__new__, which the records' generated
    __new__ calls too, without the one Python call per record through it.
    """
    estimates = tuple([tuple.__new__(CorrelationEstimate, (corr.id, e, 0.0, 0)) for corr, e in zip(CORRELATIONS, values)])
    fidelity = _left_sum(_ODD_ENTRIES["M"](m_row))
    return tuple.__new__(ExperimentReport, (estimates, bell, 0.0, _sigma_violation(bell, 0.0), fidelity, tuple(m_row), None, None))


def _sigma_violation(bell: float, stderr: float) -> float:
    """Standard errors by which bell exceeds the local-realistic bound 7."""
    if stderr > 0.0:
        return (bell - 7.0) / stderr
    return math.inf if bell > 7.0 else (-math.inf if bell < 7.0 else math.nan)
