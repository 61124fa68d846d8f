"""Published reference values of the tabletop experiment, plus the
arithmetic identities that tie them together.

The source emitted about 3.2e4 doubly entangled pairs per second and each
correlation was collected for one second.  The observed Bell sum
8.56904 +- 0.00533 exceeds the local-realistic bound 7 by about 294
standard deviations; the per-correlation sample sizes implied by the
binomial error model are consistent with the quoted rate for all rows
except Z'Z', which is flagged rather than forced.
"""

from __future__ import annotations

import math
from functools import lru_cache

from ._frame import FitResult, fit_noise
from ._records import Schedule, _left_sum
from ._tables import CORRELATION_IDS

# measured correlation values (E, standard error), canonical non-M order
MEASURED_CORRELATIONS: dict[str, tuple[float, float]] = {
    "ZZ": (-0.98526, 0.00094),
    "Z'Z'": (-0.99571, 0.00032),
    "XX": (-0.98572, 0.00092),
    "X'X'": (-0.92999, 0.00200),
    "ZZ'-Z-Z'": (0.98538, 0.00094),
    "XX'-X-X'": (0.88037, 0.00296),
    "Z-X'-ZX'": (0.90254, 0.00269),
    "X-Z'-XZ'": (0.98560, 0.00092),
}

BELL_VALUE = 8.56904
BELL_STDERR = 0.00533
QUOTED_SIGMA = 294.0
QUOTED_FIDELITY = 0.96
QUOTED_VISIBILITY = 0.95
PAIR_RATE = 3.2e4
COLLECTION_SECONDS = 1.0

# sample-size band consistent with the quoted rate and collection time
IMPLIED_N_BAND = (2.5e4, 4.0e4)


def measured_targets() -> tuple[float, ...]:
    """The eight non-M correlation values in canonical order."""
    return tuple(MEASURED_CORRELATIONS[cid][0] for cid in CORRELATION_IDS[:8])


def non_m_magnitude_sum() -> float:
    return _left_sum([abs(e) for e, _ in MEASURED_CORRELATIONS.values()])


def derived_m_value() -> float:
    """E(M) implied by the quoted Bell value and the eight measured rows."""
    return -(BELL_VALUE - non_m_magnitude_sum())


def derived_m_stderr() -> float:
    """Standard error of the M row implied by quadrature error combination."""
    var = BELL_STDERR ** 2 - _left_sum([de ** 2 for _, de in MEASURED_CORRELATIONS.values()])
    return math.sqrt(var)


def derived_m_fidelity() -> float:
    """Fraction of M-experiment events on the quantum-predicted outcomes."""
    return (1.0 - derived_m_value()) / 2.0


def mean_absolute_correlation() -> float:
    """Average |E| over all nine correlations (the quoted visibility)."""
    return BELL_VALUE / 9.0


def sigma_ratio() -> float:
    """Violation of the local-realistic bound in standard deviations."""
    return (BELL_VALUE - 7.0) / BELL_STDERR


def implied_sample_size(e: float, stderr: float) -> float:
    """Events needed for a binomial error of `stderr` at correlation `e`."""
    return (1.0 - e * e) / (stderr * stderr)


def implied_sample_sizes() -> dict[str, float]:
    return {cid: implied_sample_size(e, de) for cid, (e, de) in MEASURED_CORRELATIONS.items()}


def flagged_sample_size_rows() -> list[str]:
    """Rows whose implied sample size falls outside the quoted-rate band."""
    lo, hi = IMPLIED_N_BAND
    return [cid for cid, n in implied_sample_sizes().items() if not (lo <= n <= hi)]


def matched_schedule() -> Schedule:
    """Schedule whose mean counts reproduce the implied per-row sample sizes.

    The M row has no quoted error bar, so it runs at the plain quoted rate
    for one second.
    """
    overrides = {cid: (n, 1.0) for cid, n in implied_sample_sizes().items()}
    return Schedule(pair_rate=PAIR_RATE, duration=COLLECTION_SECONDS, overrides=overrides)


@lru_cache(maxsize=1)
def fitted_noise() -> FitResult:
    """Noise model calibrated to the eight measured correlations (cached)."""
    return fit_noise(measured_targets())
