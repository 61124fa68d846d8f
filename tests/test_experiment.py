import math

import numpy as np
import pytest

from avnsim.experiment import (
    POISSON_LAM_MAX,
    ContextPair,
    CountTable,
    Schedule,
    context_pair,
    estimate_correlation,
    outcome_distribution,
    predict_exact,
    run_schedule,
    sample_events,
    OUTCOME_BITS,
    _joint_projectors,
)
from avnsim.apparatus import build_apparatus
from avnsim.observables import CORRELATIONS, CORRELATION_IDS, Setting
from avnsim.qstate import DIM, Party, mixed_expectation
from avnsim.source import NoiseModel, apply_noise, build_psi
from avnsim import reference

PSI = build_psi(0.0)
RHO_IDEAL = np.outer(PSI, PSI.conj())


def noisy_rho():
    return apply_noise(PSI, NoiseModel(0.05, 0.95, 0.9, 0.1))


class TestContextPairs:
    def test_fixed_pair_table(self):
        expected = {
            "ZZ": ("b", "a"),
            "Z'Z'": ("a", "a"),
            "XX": ("a", "b"),
            "X'X'": ("b", "b"),
            "ZZ'-Z-Z'": ("c", "a"),
            "XX'-X-X'": ("c", "b"),
            "Z-X'-ZX'": ("b", "c"),
            "X-Z'-XZ'": ("a", "c"),
            "M": ("c", "c"),
        }
        for cid, (alice, bob) in expected.items():
            pair = context_pair(cid)
            assert (pair.alice.value, pair.bob.value) == (alice, bob)


class TestOutcomeDistribution:
    def test_ideal_state_in_cc_context(self):
        dist = outcome_distribution(RHO_IDEAL, context_pair("M"))
        products = OUTCOME_BITS.prod(axis=1)
        assert np.allclose(dist[products < 0], 1.0 / 8.0, atol=1e-12)
        assert np.allclose(dist[products > 0], 0.0, atol=1e-12)

    def test_zz_statistic_in_ba_context(self):
        dist = outcome_distribution(RHO_IDEAL, context_pair("ZZ"))
        stat = OUTCOME_BITS[:, 0] * OUTCOME_BITS[:, 2]  # bit1_A * bit1_B
        assert float((dist * stat).sum()) == pytest.approx(-1.0, abs=1e-12)

    def test_maximally_mixed_is_uniform(self):
        for pair in (context_pair("ZZ"), context_pair("M"), ContextPair(Setting.A, Setting.C)):
            dist = outcome_distribution(np.eye(DIM) / DIM, pair)
            assert np.allclose(dist, 1.0 / 16.0, atol=1e-12)


@pytest.mark.parametrize("alice", list(Setting))
@pytest.mark.parametrize("bob", list(Setting))
def test_joint_projectors_equal_the_loop_placing_each_product_by_its_signed_bits(alice, bob):
    stack = np.zeros((DIM, DIM, DIM), dtype=complex)
    for ch_a in build_apparatus(Party.ALICE, alice).outcomes:
        for ch_b in build_apparatus(Party.BOB, bob).outcomes:
            idx = 0
            for bit in (ch_a.bit1, ch_a.bit2, ch_b.bit1, ch_b.bit2):
                idx = 2 * idx + (0 if bit > 0 else 1)
            stack[idx] = ch_a.projector @ ch_b.projector
    assert _joint_projectors(alice, bob).tobytes() == stack.tobytes()


class TestSampleEvents:
    def test_zero_events(self):
        table = sample_events(np.full(16, 1 / 16), 0, seed=1)
        assert table.total == 0
        assert all(c == 0 for c in table.counts)

    def test_point_mass(self):
        dist = np.zeros(16)
        dist[5] = 1.0
        table = sample_events(dist, 1000, seed=2)
        assert table.counts[5] == 1000
        assert table.total == 1000

    def test_uniform_concentration(self):
        n = 10**6
        table = sample_events(np.full(16, 1 / 16), n, seed=3)
        sigma = math.sqrt(n * (1 / 16) * (15 / 16))
        assert all(abs(c - n / 16) < 5 * sigma for c in table.counts)

    def test_deterministic_given_seed(self):
        dist = np.full(16, 1 / 16)
        assert sample_events(dist, 5000, seed=9).counts == sample_events(dist, 5000, seed=9).counts
        assert sample_events(dist, 5000, seed=9).counts != sample_events(dist, 5000, seed=10).counts

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            sample_events(np.full(16, 1 / 16), -1, seed=0)

    def test_rejects_seeds_outside_64_bits_instead_of_wrapping(self):
        dist = np.full(16, 1 / 16)
        assert sample_events(dist, 10, seed=2**64 - 1).total == 10
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match=str(seed)):
                sample_events(dist, 10, seed=seed)


class TestEstimateCorrelation:
    def test_concentrated_table(self):
        counts = [0] * 16
        stat = OUTCOME_BITS[:, 0] * OUTCOME_BITS[:, 2]
        for idx in np.nonzero(stat < 0)[0]:
            counts[idx] = 250
        est = estimate_correlation(CountTable(tuple(counts), 2000), "ZZ")
        assert est.E == -1.0
        assert est.stderr == 0.0

    def test_symmetric_counts(self):
        counts = [0] * 16
        stat = OUTCOME_BITS[:, 0] * OUTCOME_BITS[:, 2]
        counts[int(np.nonzero(stat > 0)[0][0])] = 500
        counts[int(np.nonzero(stat < 0)[0][0])] = 500
        est = estimate_correlation(CountTable(tuple(counts), 1000), "ZZ")
        assert est.E == 0.0
        assert est.stderr == pytest.approx(1.0 / math.sqrt(1000))

    def test_published_row_implies_the_quoted_rate(self):
        # (1 - E^2)/stderr^2 for the first measured row lands close to the
        # 3.2e4 pairs collected in one second
        e, de = reference.MEASURED_CORRELATIONS["ZZ"]
        implied = (1 - e * e) / (de * de)
        assert implied == pytest.approx(33116, rel=2e-4)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="no events"):
            estimate_correlation(CountTable(tuple([0] * 16), 0), "ZZ")


class TestSchedule:
    def test_defaults(self):
        sched = Schedule()
        assert sched.mean_counts("ZZ") == pytest.approx(3.2e4)

    def test_overrides(self):
        sched = Schedule(overrides={"Z'Z'": (8.4e4, 1.0)})
        assert sched.mean_counts("Z'Z'") == pytest.approx(8.4e4)
        assert sched.mean_counts("ZZ") == pytest.approx(3.2e4)

    def test_round_trip(self):
        sched = Schedule(pair_rate=1000.0, duration=2.0, overrides={"M": (500.0, 1.0)})
        assert Schedule.from_dict(sched.to_dict()) == sched

    def test_validation(self):
        with pytest.raises(ValueError):
            Schedule(pair_rate=0.0)
        with pytest.raises(ValueError):
            Schedule(overrides={"nope": (1.0, 1.0)})

    @pytest.mark.parametrize("rate", [math.inf, 1e300])
    def test_rejects_a_mean_numpy_cannot_draw(self, rate):
        with pytest.raises(ValueError, match="pair_rate"):
            Schedule(pair_rate=rate)
        with pytest.raises(ValueError, match="override for 'ZZ'.*pair_rate"):
            Schedule(overrides={"ZZ": (rate, 1.0)})
        with pytest.raises(ValueError, match="duration"):
            Schedule(duration=math.inf)

    def test_the_poisson_limit_itself_is_drawable(self):
        report = run_schedule(RHO_IDEAL, Schedule(pair_rate=POISSON_LAM_MAX, duration=1.0), seed=0)
        assert report.estimate("ZZ").E == -1.0


class TestRunSchedule:
    def test_ideal_state_statistics(self):
        report = run_schedule(RHO_IDEAL, Schedule(), seed=11)
        assert [est.id for est in report.estimates] == list(CORRELATION_IDS)
        for est in report.estimates:
            assert abs(est.E) >= 0.99
            assert est.stderr <= 0.01
        spread = 3.0 * max(report.bell_stderr, 1e-6)
        assert abs(report.bell_value - 9.0) <= spread
        assert report.m_fidelity == pytest.approx(1.0)

    def test_determinism(self):
        rho = noisy_rho()
        sched = Schedule()
        a = run_schedule(rho, sched, seed=123)
        b = run_schedule(rho, sched, seed=123)
        assert a == b
        assert a.to_dict() == b.to_dict()

    def test_bell_value_identity(self):
        report = run_schedule(noisy_rho(), Schedule(), seed=7)
        recomputed = sum(c.sign * est.E for c, est in zip(CORRELATIONS, report.estimates))
        assert report.bell_value == recomputed
        assert report.bell_stderr == math.sqrt(sum(est.stderr**2 for est in report.estimates))

    def test_sampled_converges_to_exact(self):
        # property check: at n = 1e6 the sampled estimator sits within five
        # binomial standard errors of the analytic value in >= 99% of seeds
        rho = noisy_rho()
        exact = predict_exact(rho)
        sched = Schedule(pair_rate=1e6, duration=1.0)
        n = 10**6
        good = 0
        for seed in range(100):
            report = run_schedule(rho, sched, seed=seed)
            ok = True
            for est, exact_est in zip(report.estimates, exact.estimates):
                bound = 5.0 * math.sqrt((1.0 - exact_est.E**2) / n)
                ok = ok and abs(est.E - exact_est.E) <= max(bound, 1e-9)
            good += ok
        assert good >= 99


class TestPredictExact:
    def test_ideal_state(self):
        report = predict_exact(RHO_IDEAL)
        assert [est.E for est in report.estimates] == pytest.approx(
            [-1, -1, -1, -1, 1, 1, 1, 1, -1], abs=1e-12
        )
        assert report.bell_value == pytest.approx(9.0, abs=1e-12)
        assert report.bell_stderr == 0.0
        assert report.m_fidelity == pytest.approx(1.0, abs=1e-12)

    def test_white_noise_crossing(self):
        rho = apply_noise(PSI, NoiseModel(white_noise_weight=2.0 / 9.0))
        report = predict_exact(rho)
        assert report.bell_value == pytest.approx(7.0, abs=1e-10)

    def test_maximally_mixed(self):
        report = predict_exact(np.eye(DIM) / DIM)
        assert all(est.E == pytest.approx(0.0, abs=1e-12) for est in report.estimates)
        assert report.bell_value == pytest.approx(0.0, abs=1e-12)

    def test_matches_operator_expectations(self):
        rho = noisy_rho()
        report = predict_exact(rho)
        from avnsim.observables import correlation_operator

        for corr, est in zip(CORRELATIONS, report.estimates):
            assert est.E == pytest.approx(mixed_expectation(correlation_operator(corr), rho), abs=1e-12)


class TestPublishedArithmetic:
    def test_magnitude_sum_of_the_eight_rows(self):
        assert reference.non_m_magnitude_sum() == pytest.approx(7.65057, abs=1e-9)

    def test_derived_m_value_and_fidelity(self):
        assert reference.derived_m_value() == pytest.approx(-0.91847, abs=1e-9)
        assert reference.derived_m_fidelity() == pytest.approx(0.9592, abs=5e-5)

    def test_mean_absolute_correlation(self):
        assert reference.mean_absolute_correlation() == pytest.approx(0.952116, abs=1e-6)

    def test_sigma_ratio(self):
        assert reference.sigma_ratio() == pytest.approx(294.4, abs=0.1)

    def test_quadrature_error_combination_is_consistent(self):
        # the remaining variance after subtracting the eight quoted error
        # bars leaves a plausible binomial error bar for the M row
        de_m = reference.derived_m_stderr()
        implied_n = reference.implied_sample_size(reference.derived_m_value(), de_m)
        assert 2.5e4 <= implied_n <= 4.0e4


class TestFittedModelReproduction:
    def test_fitted_model_fidelity_floor(self):
        # the calibrated model's exact M fidelity sits at (1 + s*a*b)/2 of
        # the least-squares optimum, about 0.948; sampled runs scatter
        # around it within binomial noise
        rho = apply_noise(PSI, reference.fitted_noise().model)
        exact = predict_exact(rho)
        assert exact.m_fidelity == pytest.approx(0.9477, abs=2e-3)
        report = run_schedule(rho, reference.matched_schedule(), seed=17)
        n = report.estimate("M").n
        spread = 5.0 * math.sqrt(exact.m_fidelity * (1 - exact.m_fidelity) / n)
        assert abs(report.m_fidelity - exact.m_fidelity) <= spread

    def test_fitted_model_bell_value(self):
        rho = apply_noise(PSI, reference.fitted_noise().model)
        assert abs(predict_exact(rho).bell_value - reference.BELL_VALUE) <= 0.05
