import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avnsim import _frame
from avnsim.experiment import _joint_projectors, context_pair, predict_exact
from avnsim.observables import SYMBOLS, correlation_operators, local_observable
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


def test_m_bin_formula_gives_the_devices_outcome_projectors():
    # p(b) = Tr(rho P_b) for every rho, so the signed sums of subset words are the projectors
    pair = context_pair("M")
    for b, projector in enumerate(_joint_projectors(pair.alice, pair.bob)):
        frame = sum((-1) ** (mask & b).bit_count() * expand(w) for mask, w in enumerate(_frame._M_SUBSET_WORDS)) / 16
        assert np.max(np.abs(frame - projector)) <= 1e-12


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
