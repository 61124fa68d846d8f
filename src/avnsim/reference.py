"""Published reference values of the tabletop experiment, plus the
arithmetic identities that tie them together.

The source emitted about 3.2e4 doubly entangled pairs per second and each
correlation was collected for one second.  The observed Bell sum
8.56904 +- 0.00533 exceeds the local-realistic bound 7 by about 294
standard deviations; the per-correlation sample sizes implied by the
binomial error model are consistent with the quoted rate for all rows
except Z'Z', which is flagged rather than forced.
"""

import math
from functools import lru_cache

from ._frame import FitResult, fit_noise, predict, simulate
from ._records import NoiseModel, Schedule, SourceConfig, _left_sum
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

# reproduction floor of the calibrated four-parameter noise model
E_ROW_MODEL_TOLERANCE = 0.025


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


# the comparison's columns, one record per row
_ROW_KEYS = ("name", "paper", "derived_from_paper", "exact_qm", "simulated", "tolerance", "pass")


def _reproduce_document(seed: int) -> dict:
    """reproduce-paper's comparison of the published values with the exact and the
    simulated ones, the simulation drawn from the given (checked) seed."""
    fit = fitted_noise()
    phi0 = SourceConfig()
    exact_fitted = predict(phi0, fit.model)
    exact_ideal = predict(phi0, NoiseModel())
    simulated = simulate(phi0, fit.model, matched_schedule(), seed)

    # the four-parameter noise model reproduces the measured table with a
    # structural residual of up to ~0.021 per row (it ties E(X'X') to
    # E(Z-X'-ZX') exactly), so E rows pass at that model floor plus a
    # sampling margin rather than at pure counting precision; E(M) is
    # judged against the value derived from the paper
    def e_row(cid, paper, derived):
        est = simulated.estimate(cid)
        tol = E_ROW_MODEL_TOLERANCE + 3.0 * est.stderr
        target = paper if derived is None else derived
        return f"E({cid})", paper, derived, exact_ideal.estimate(cid).E, est.E, tol, abs(est.E - target) <= tol

    rows = [e_row(cid, e_meas, None) for cid, (e_meas, _) in MEASURED_CORRELATIONS.items()]
    rows.append(e_row("M", None, derived_m_value()))
    # m_fidelity is (1 - E(M))/2, so it is judged by the E(M) row's rule at half scale
    tol_fid = rows[-1][_ROW_KEYS.index("tolerance")] / 2.0
    sigma_derived = sigma_ratio()
    fid_derived = derived_m_fidelity()
    vis_derived = mean_absolute_correlation()
    vis_sim = _left_sum([abs(est.E) for est in simulated.estimates]) / 9.0
    rows += [
        ("bell_value", BELL_VALUE, None, exact_ideal.bell_value, simulated.bell_value, 0.05,
         abs(simulated.bell_value - BELL_VALUE) <= 0.05),
        ("sigma_violation", QUOTED_SIGMA, sigma_derived, None, simulated.sigma_violation, None,
         abs(sigma_derived - QUOTED_SIGMA) <= 1.0 and abs(simulated.sigma_violation - QUOTED_SIGMA) <= 0.2 * QUOTED_SIGMA),
        ("m_fidelity", QUOTED_FIDELITY, fid_derived, exact_ideal.m_fidelity, simulated.m_fidelity, tol_fid,
         abs(fid_derived - QUOTED_FIDELITY) <= 0.005 and abs(simulated.m_fidelity - fid_derived) <= tol_fid),
        ("visibility", QUOTED_VISIBILITY, vis_derived, 1.0, vis_sim, None,
         abs(vis_derived - QUOTED_VISIBILITY) <= 0.005 and abs(vis_sim - vis_derived) <= 0.005),
    ]
    rows = [dict(zip(_ROW_KEYS, row)) for row in rows]
    return {
        "seed": seed,
        "fitted_noise": fit.model.to_dict(),
        "fit_residual": fit.residual,
        "exact_bell_of_fitted_model": exact_fitted.bell_value,
        "rows": rows,
        "all_pass": all(row["pass"] for row in rows),
    }
