"""The error bars of reproduce-paper's counting run, without numpy.

Calibration gate on the error bars behind the paper's 294 sigma: over 400
seeded runs of the Pauli frame (_frame.simulate, the run behind `avnsim
reproduce-paper`) on the fitted model and the matched schedule, the share
of |z| <= 1, z = (E_sim - E_exact) / stderr, must lie within four binomial
standard deviations of the normal 68.27%, pooled over the nine rows and
again for the Bell value.  The exact values are _frame.predict's.

tests/test_experiment.py holds the same gate for the dense run_schedule;
this file imports neither numpy nor hypothesis, so the numpy-free CI job
runs it, and its one test takes no argument, so a script can call it on
an interpreter without pytest.
"""

import math

from avnsim import _frame, reference
from avnsim._records import SourceConfig

RUNS = 400


def test_error_bars_of_the_frame_run_cover_the_frame_prediction_one_sigma_of_the_time():
    model = reference.fitted_noise().model
    schedule = reference.matched_schedule()
    exact = _frame.predict(SourceConfig(), model)
    row_z, bell_z = [], []
    for seed in range(RUNS):
        report = _frame.simulate(SourceConfig(), model, schedule, seed)
        row_z += [(est.E - ex.E) / est.stderr for est, ex in zip(report.estimates, exact.estimates)]
        bell_z.append((report.bell_value - exact.bell_value) / report.bell_stderr)
    p = math.erf(1.0 / math.sqrt(2.0))
    for z in (row_z, bell_z):
        share = sum(abs(x) <= 1.0 for x in z) / len(z)
        assert abs(share - p) <= 4.0 * math.sqrt(p * (1.0 - p) / len(z)), share
