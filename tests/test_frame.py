import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avnsim import _frame, _tables, reference
from avnsim.experiment import _born_stack, _joint_projectors, _probabilities, _statistic_signs, context_pair, predict_exact, run_schedule
from avnsim.observables import CORRELATION_IDS, SYMBOLS, correlation_operators, local_observable
from avnsim.qstate import DIM
from avnsim.source import NoiseModel, SourceConfig, apply_noise, build_psi


def expand(word) -> np.ndarray:
    """The 16x16 matrix of i^k X^x Z^z: column b holds i^k (-1)^|z & b| at row b ^ x."""
    x, z, k = word
    op = np.zeros((DIM, DIM), dtype=complex)
    for b in range(DIM):
        op[b ^ x, b] = 1j**k * (-1) ** (z & b).bit_count()
    return op


@pytest.mark.parametrize("symbol", SYMBOLS)
def test_each_symbol_word_expands_to_its_local_observable_exactly(symbol):
    assert np.array_equal(expand(_frame.word(symbol)), local_observable(symbol))


def test_each_correlation_word_expands_to_its_operator_exactly():
    for word, op in zip(_frame._CORRELATION_WORDS, correlation_operators()):
        assert np.array_equal(expand(word), op)


def test_composed_words_expand_to_the_matrix_product():
    words = [_frame.word(s) for s in SYMBOLS] + [(5, 9, 1), (15, 15, 3)]
    for p in words:
        for q in words:
            assert np.array_equal(expand(_frame.compose(p, q)), expand(p) @ expand(q))


@pytest.mark.parametrize("idx, corr_id", list(enumerate(CORRELATION_IDS)))
def test_each_row_bin_formula_gives_the_devices_outcome_projectors(idx, corr_id):
    # p(b) = Tr(rho P_b) for every rho, so the signed sums of subset words are the projectors
    pair = context_pair(corr_id)
    for b, projector in enumerate(_joint_projectors(pair.alice, pair.bob)):
        frame = sum((-1) ** (mask & b).bit_count() * expand(w) for mask, w in enumerate(_frame._ROW_SUBSET_WORDS[idx])) / 16
        assert np.max(np.abs(frame - projector)) <= 1e-12


@pytest.mark.parametrize("idx, corr_id", list(enumerate(CORRELATION_IDS)))
def test_each_row_statistic_is_its_correlation_word_and_the_dense_signs(idx, corr_id):
    mask = _tables._STATISTIC_MASKS[idx]
    assert _frame._ROW_SUBSET_WORDS[idx][mask] == _frame._CORRELATION_WORDS[idx]
    assert [(-1) ** (b & mask).bit_count() for b in range(DIM)] == _statistic_signs(corr_id).tolist()


def test_unknown_symbol_is_rejected():
    with pytest.raises(KeyError):
        _frame.word("yA")


def _floats(report):
    return [est.E for est in report.estimates] + [report.bell_value, report.m_fidelity, *report.m_histogram]


@settings(max_examples=300, deadline=None)
@given(
    phi=st.floats(-10.0, 10.0),
    w=st.floats(0.0, 1.0),
    vp=st.floats(0.0, 1.0),
    vq=st.floats(0.0, 1.0),
    delta=st.floats(-10.0, 10.0),
)
def test_frame_matches_the_dense_prediction_over_the_whole_model_range(phi, w, vp, vq, delta):
    source, noise = SourceConfig(phi), NoiseModel(w, vp, vq, delta)
    frame = _frame.predict(source, noise)
    dense = predict_exact(apply_noise(build_psi(source), noise))
    assert [est.id for est in frame.estimates] == [est.id for est in dense.estimates]
    assert [(est.stderr, est.n) for est in frame.estimates] == [(0.0, 0)] * 9
    assert np.max(np.abs(np.subtract(_floats(frame), _floats(dense)))) <= 1e-14
    assert min(frame.m_histogram) >= 0.0


def test_default_config_gives_exact_eighths_and_the_quantum_bell_value():
    report = _frame.predict(SourceConfig(), NoiseModel())
    assert sorted(set(report.m_histogram)) == [0.0, 0.125]
    assert (report.bell_value, report.m_fidelity) == (9.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(
    phi=st.floats(-10.0, 10.0),
    w=st.floats(0.0, 1.0),
    vp=st.floats(0.0, 1.0),
    vq=st.floats(0.0, 1.0),
    delta=st.floats(-10.0, 10.0),
)
def test_each_frame_born_row_matches_the_dense_table_over_the_whole_model_range(phi, w, vp, vq, delta):
    # the frame's nine rows against the checked, clipped stacked contraction run_schedule draws from
    source, noise = SourceConfig(phi), NoiseModel(w, vp, vq, delta)
    rho = apply_noise(build_psi(source), noise)
    dense = _probabilities(np.einsum("koij,ji->ko", _born_stack(), rho))
    frame = np.array(_frame.born_rows(source, noise))
    assert frame.shape == dense.shape
    assert np.max(np.abs(frame - dense)) <= 2e-16
    assert frame.min() >= 0.0
    assert frame[-1].tolist() == list(_frame.predict(source, noise).m_histogram)


def test_born_rows_reject_a_table_that_is_not_a_distribution():
    expect = _frame._expectation(SourceConfig(), NoiseModel())
    # tripled correlations still sum to 1 but overshoot the zero bins; a
    # doubled identity term doubles the sum
    with pytest.raises(ValueError, match="negative outcome probability"):
        _frame._born_rows(lambda p: 3.0 * expect(p) if p != _frame.IDENTITY else 1.0, range(9))
    with pytest.raises(ValueError, match="do not sum to 1"):
        _frame._born_rows(lambda p: 2.0 if p == _frame.IDENTITY else expect(p), range(9))


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_the_frame_run_of_the_fitted_model_counts_what_run_schedule_counts(seed):
    # on reproduce-paper's model and schedule the two tables draw the same
    # counts, so its simulated column is that of the dense library run
    model, schedule = reference.fitted_noise().model, reference.matched_schedule()
    frame = _frame.simulate(SourceConfig(), model, schedule, seed)
    dense = run_schedule(apply_noise(build_psi(0.0), model), schedule, seed)
    assert frame == dense
