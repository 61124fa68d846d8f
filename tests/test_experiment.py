import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avnsim.experiment import (
    POISSON_LAM_MAX,
    ContextPair,
    CorrelationEstimate,
    CountTable,
    Schedule,
    context_pair,
    estimate_correlation,
    outcome_distribution,
    predict_exact,
    run_schedule,
    sample_events,
    OUTCOME_BITS,
    _draw_counts,
    _joint_projectors,
    _statistic_signs,
    _stream,
)
from avnsim._records import _estimate
from avnsim._tables import _READOUT
from avnsim.apparatus import build_apparatus
from avnsim.observables import (
    CONTEXT_SYMBOLS,
    CORRELATIONS,
    CORRELATION_IDS,
    Setting,
    bell_operator,
    correlation_operator,
)
from avnsim.qstate import DIM, Party, mixed_expectation
from avnsim.source import NoiseModel, SourceConfig, apply_noise, build_psi
from avnsim import _frame, reference

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


_UNIT = st.floats(0.0, 1.0)
_ANGLE = st.floats(-math.pi, math.pi)


@settings(max_examples=60, deadline=None)
@given(phi=_ANGLE, w=_UNIT, vp=_UNIT, vq=_UNIT, delta=_ANGLE)
def test_apparatus_statistics_equal_the_operator_expectations_on_mixed_states(phi, w, vp, vq, delta):
    # ties the device projectors to the correlation operators away from the pure state
    rho = apply_noise(build_psi(SourceConfig(phi)), NoiseModel(w, vp, vq, delta))
    for alice in Setting:
        for bob in Setting:
            p = outcome_distribution(rho, ContextPair(alice, bob))
            assert p.min() >= 0.0
            assert abs(p.sum() - 1.0) <= 1e-12
    exact = predict_exact(rho)
    for cid in CORRELATION_IDS:
        p = outcome_distribution(rho, context_pair(cid))
        assert abs(float(_statistic_signs(cid) @ p) - exact.estimate(cid).E) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(phi=_ANGLE.filter(lambda phi: phi != 0.0), w=_UNIT, vp=_UNIT, vq=_UNIT, delta=_ANGLE)
def test_predict_exact_equals_the_reduced_closed_form_away_from_phi_zero(phi, w, vp, vq, delta):
    # independent of the density-matrix code: s = 1 - w, a = vp^2, b = vq^2 cos(phi + delta)
    s, a, b = 1.0 - w, vp**2, vq**2 * math.cos(phi + delta)
    closed_form = {
        "ZZ": -s, "Z'Z'": -s, "XX": -s * a, "X'X'": -s * b, "ZZ'-Z-Z'": s,
        "XX'-X-X'": s * a * b, "Z-X'-ZX'": s * b, "X-Z'-XZ'": s * a, "M": -s * a * b,
    }
    exact = predict_exact(apply_noise(build_psi(SourceConfig(phi)), NoiseModel(w, vp, vq, delta)))
    assert sorted(closed_form) == sorted(CORRELATION_IDS)
    for cid, value in closed_form.items():
        assert abs(exact.estimate(cid).E - value) <= 1e-12, cid


@pytest.mark.parametrize("sampler", ["library", "cli"])
def test_error_bars_cover_the_exact_values_one_sigma_of_the_time(sampler):
    # calibration gate on the error bars behind the paper's 294 sigma: over
    # 400 seeded runs of the fitted state on the matched schedule, the share
    # of |z| <= 1, z = (E_sim - E_exact) / stderr, must lie within four
    # binomial standard deviations of the normal 68.27%, pooled over the
    # nine rows and again for the Bell value; for run_schedule on the dense
    # state (library) and for the Pauli-frame run of reproduce-paper (cli)
    model = reference.fitted_noise().model
    rho = apply_noise(PSI, model)
    exact = predict_exact(rho)
    schedule = reference.matched_schedule()
    if sampler == "library":
        run = lambda seed: run_schedule(rho, schedule, seed)  # noqa: E731
    else:
        run = lambda seed: _frame.simulate(SourceConfig(), model, schedule, seed)  # noqa: E731
    row_z, bell_z = [], []
    for seed in range(400):
        report = run(seed)
        row_z += [(est.E - ex.E) / est.stderr for est, ex in zip(report.estimates, exact.estimates)]
        bell_z.append((report.bell_value - exact.bell_value) / report.bell_stderr)
    p = math.erf(1.0 / math.sqrt(2.0))
    for z in (row_z, bell_z):
        share = sum(abs(x) <= 1.0 for x in z) / len(z)
        assert abs(share - p) <= 4.0 * math.sqrt(p * (1.0 - p) / len(z)), share


@settings(max_examples=60, deadline=None)
@given(phi=_ANGLE, w=_UNIT, vp=_UNIT, vq=_UNIT, delta=_ANGLE)
def test_predict_exact_equals_the_per_operator_expectations_exactly(phi, w, vp, vq, delta):
    # the stacked contraction must give the same bits as one checked trace per operator
    rho = apply_noise(build_psi(SourceConfig(phi)), NoiseModel(w, vp, vq, delta))
    exact = predict_exact(rho)
    for corr, est in zip(CORRELATIONS, exact.estimates):
        assert est.E == mixed_expectation(correlation_operator(corr), rho), corr.id
    assert exact.bell_value == mixed_expectation(bell_operator(), rho)


@pytest.mark.parametrize("seed", [0, 1, 7, 123])
@pytest.mark.parametrize("pair_rate", [2.0, 3.2e4])
def test_run_schedule_equals_a_per_row_reference_loop(seed, pair_rate):
    # each row drawn from its own stream and its own checked distribution
    rho = noisy_rho()
    schedule = Schedule(pair_rate=pair_rate)
    report = run_schedule(rho, schedule, seed)
    for idx, corr in enumerate(CORRELATIONS):
        rng = _stream(seed, idx)
        n = int(rng.poisson(schedule.mean_counts(corr.id)))
        est = report.estimates[idx]
        if n == 0:
            assert (est.n, math.isnan(est.E), math.isnan(est.stderr)) == (0, True, True)
            continue
        table = _draw_counts(rng, outcome_distribution(rho, context_pair(corr.id)), n)
        assert est == estimate_correlation(table, corr)
        if corr.id == "M":
            assert report.m_histogram == tuple(np.asarray(table.counts, dtype=float) / n)


@pytest.mark.parametrize("shape", [(4, 4), (16,), (16, 16, 1)])
def test_a_misshapen_density_matrix_is_rejected_with_one_message(shape):
    rho = np.zeros(shape)
    with pytest.raises(ValueError, match=r"^density matrix must be 16x16$"):
        predict_exact(rho)
    with pytest.raises(ValueError, match=r"^density matrix must be 16x16$"):
        run_schedule(rho, Schedule(), 0)


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

    @pytest.mark.parametrize(
        "dist",
        [
            np.zeros(16),
            np.r_[np.nan, np.full(15, 1 / 15)],
            np.full(15, 1 / 15),
            np.r_[-0.1, np.full(15, 1.1 / 15)],
            np.r_[np.inf, np.zeros(15)],
            np.full(16, 1e308),
        ],
        ids=["all_zero", "nan", "fifteen_bins", "negative", "inf", "sum_overflows"],
    )
    def test_rejects_a_dist_that_is_not_sixteen_weights(self, dist):
        with pytest.raises(ValueError, match="^dist "):
            sample_events(dist, 10, seed=0)

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


def test_each_generator_symbol_is_read_in_exactly_one_setting_of_its_party():
    # the readout table is a function of the symbol, and every correlation
    # reads each party's factors in one setting
    for party in Party:
        generators = [sym for setting in Setting for sym in CONTEXT_SYMBOLS[(party, setting)][:2]]
        assert len(set(generators)) == len(generators) == 6
    assert len(_READOUT) == 12
    for corr in CORRELATIONS:
        for party in Party:
            settings_read = {_READOUT[factor][0] for factor in corr.factors if factor[0] is party}
            assert len(settings_read) == 1, (corr.id, party)
    for (party, setting), symbols in CONTEXT_SYMBOLS.items():
        base = 0 if party is Party.ALICE else 2
        assert [_READOUT[party, sym] for sym in symbols[:2]] == [(setting, base), (setting, base + 1)]


def _float_mask_estimate(corr_id, counts, n):
    # the estimator as it was written before the integer dot product
    signs = _statistic_signs(corr_id)
    counts = np.asarray(counts, dtype=float)
    e = (float(counts[signs > 0].sum()) - float(counts[signs < 0].sum())) / n
    return CorrelationEstimate(corr_id, e, math.sqrt(max(1.0 - e * e, 0.0) / n), n)


@settings(max_examples=300, deadline=None)
@given(
    cid=st.sampled_from(CORRELATION_IDS),
    counts=st.lists(st.integers(0, 10**6 // DIM), min_size=DIM, max_size=DIM).filter(any),
)
def test_the_integer_estimator_equals_the_float_mask_formula(cid, counts):
    n = sum(counts)
    expected = _float_mask_estimate(cid, counts, n)
    assert _estimate(cid, np.array(counts), n) == expected
    assert estimate_correlation(CountTable(tuple(counts), n), cid) == expected


def test_the_integer_estimator_equals_the_float_mask_formula_on_multinomial_tables():
    rng = np.random.default_rng(5)
    for n in (1, 2, 17, 10**3, 10**5, 10**6):
        for cid in CORRELATION_IDS:
            counts = rng.multinomial(n, rng.dirichlet(np.ones(DIM)))
            assert _estimate(cid, counts, n) == _float_mask_estimate(cid, counts, n)


@pytest.mark.parametrize("seed", [0, 1, 7, 123, 4242])
@pytest.mark.parametrize("pair_rate", [2.0, 3.2e4])
def test_run_schedule_m_fidelity_is_the_count_of_odd_outcomes_over_n(seed, pair_rate):
    rho = noisy_rho()
    schedule = Schedule(pair_rate=pair_rate)
    report = run_schedule(rho, schedule, seed)
    idx = CORRELATION_IDS.index("M")
    rng = _stream(seed, idx)
    n = int(rng.poisson(schedule.mean_counts("M")))
    if n == 0:
        assert math.isnan(report.m_fidelity)
        return
    table = _draw_counts(rng, outcome_distribution(rho, context_pair("M")), n)
    c_minus = sum(c for c, bits in zip(table.counts, OUTCOME_BITS.tolist()) if math.prod(bits) < 0)
    assert report.m_fidelity == c_minus / n


def test_estimate_correlation_rejects_counts_that_are_not_integers():
    with pytest.raises(ValueError, match="integers"):
        estimate_correlation(CountTable((0.5,) * DIM, 8), "ZZ")
    assert estimate_correlation(CountTable((np.int64(1),) * DIM, DIM), "ZZ").E == 0.0


@pytest.mark.parametrize("n", [2.5, 2.0, True, "3", None])
def test_sample_events_rejects_a_size_that_is_not_an_integer(n):
    with pytest.raises(ValueError, match=r"sample size n "):
        sample_events(np.full(DIM, 1 / DIM), n, seed=0)


def test_sample_events_accepts_a_numpy_integer_size():
    assert sample_events(np.full(DIM, 1 / DIM), np.int64(10), seed=0).total == 10


def test_the_report_document_derives_its_mode_from_the_schedule():
    exact = predict_exact(RHO_IDEAL)
    assert (exact.seed, exact.schedule) == (None, None)
    assert list(exact.to_dict())[:2] == ["mode", "correlations"]
    assert exact.to_dict()["mode"] == "exact"
    sampled = run_schedule(RHO_IDEAL, Schedule(), seed=5).to_dict()
    assert list(sampled)[:4] == ["mode", "rng", "schedule", "correlations"]
    assert (sampled["mode"], sampled["rng"]) == ("sampled", {"algorithm": "philox4x64", "seed": 5})


def _zz_table(plus, minus, dtype=int):
    # plus events in a bin where the ZZ statistic is +1, minus in a -1 bin
    signs = _statistic_signs("ZZ")
    counts = [dtype(0)] * DIM
    counts[int(np.flatnonzero(signs > 0)[0])] = dtype(plus)
    counts[int(np.flatnonzero(signs < 0)[0])] = dtype(minus)
    return CountTable(tuple(counts), plus + minus)


@pytest.mark.parametrize("dtype", [int, np.uint64, np.int64])
def test_estimate_correlation_scores_counts_above_2_53_exactly(dtype):
    # a float64 dot product rounds 2**60 + 1 to 2**60 and scores E = 0
    est = estimate_correlation(_zz_table(2**60 + 1, 2**60, dtype), "ZZ")
    assert est.E == 1 / (2**61 + 1)
    assert est.n == 2**61 + 1


def test_estimate_correlation_scores_python_counts_of_2_64_and_more():
    est = estimate_correlation(_zz_table(2**64, 2**64 + 3), "ZZ")
    assert est.E == -3 / (2**65 + 3)


@pytest.mark.parametrize(
    "counts",
    [(True,) * DIM, (np.True_,) * DIM, (1,) * (DIM - 1) + (True,), (np.float64(1.0),) * DIM],
    ids=["bool", "numpy-bool", "one-bool", "numpy-float"],
)
def test_estimate_correlation_rejects_boolean_and_float_counts(counts):
    with pytest.raises(ValueError, match="counts must be integers"):
        estimate_correlation(CountTable(counts, sum(counts)), "ZZ")


@pytest.mark.parametrize(
    "counts, total, message",
    [
        ((1,) * (DIM - 1), DIM - 1, f"needs {DIM} bins"),
        ((-1, 2) + (0,) * (DIM - 2), 1, "non-negative"),
        ((1,) * DIM, DIM - 1, "do not sum to total"),
    ],
    ids=["bins", "negative", "sum"],
)
def test_count_table_rejects_each_defect(counts, total, message):
    with pytest.raises(ValueError, match=message):
        CountTable(counts, total)


@pytest.mark.parametrize(
    "big",
    [(np.uint64(2**63),) * 2, (np.int64(2**62),) * 4],
    ids=["uint64", "int64"],
)
def test_count_table_sums_fixed_width_counts_without_wrapping(big):
    # summed in their own dtype these wrap to 0 at 2**64
    counts = big + (0,) * (DIM - len(big))
    assert CountTable(counts, 2**64).total == 2**64
    with pytest.raises(ValueError, match="do not sum to total"):
        CountTable(counts, 0)


def test_poisson_limit_is_numpys_largest_mean():
    imax = np.iinfo(np.int64).max
    assert POISSON_LAM_MAX == float(imax - np.sqrt(imax) * 10)


# (I + t ZZ)/16 has Born weight (1 + t s)/16 on a ZZ-pair outcome of statistic s
@pytest.mark.parametrize(
    "rho, message",
    [
        (np.eye(DIM) / DIM + 1e-6j * correlation_operator("ZZ"), "acquired an imaginary part"),
        ((np.eye(DIM) + 3 * correlation_operator("ZZ")) / DIM, "negative outcome probability -1.250e-01"),
        (2 * np.eye(DIM) / DIM, "do not sum to 1"),
    ],
    ids=["imaginary", "negative", "sum"],
)
def test_outcome_distribution_rejects_each_defect(rho, message):
    with pytest.raises(ValueError, match=message):
        outcome_distribution(rho, context_pair("ZZ"))
