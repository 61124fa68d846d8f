import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from avnsim.observables import CORRELATIONS, bell_operator, correlation_operator
from avnsim.qstate import DIM, INDEX_BITS, KET_H, KET_L, KET_R, KET_V, assert_state, mixed_expectation, tensor4
from avnsim.source import (
    NoiseModel,
    SourceConfig,
    apply_noise,
    build_psi,
    fit_noise,
    predicted_correlations,
)
from avnsim import reference


class TestBuildPsi:
    def test_amplitudes_at_phi_zero(self):
        psi = build_psi(0.0)
        assert psi[3] == pytest.approx(0.5)
        assert psi[12] == pytest.approx(0.5)
        assert psi[6] == pytest.approx(-0.5)
        assert psi[9] == pytest.approx(-0.5)
        others = [i for i in range(DIM) if i not in (3, 6, 9, 12)]
        assert np.max(np.abs(psi[others])) == 0.0

    def test_phi_pi_against_term_by_term_tensor_oracle(self):
        phi = math.pi
        phase = np.exp(1j * phi)
        oracle = 0.5 * (
            tensor4(KET_H, KET_R, KET_V, KET_L)
            - phase * tensor4(KET_H, KET_L, KET_V, KET_R)
            - tensor4(KET_V, KET_R, KET_H, KET_L)
            + phase * tensor4(KET_V, KET_L, KET_H, KET_R)
        )
        psi = build_psi(phi)
        assert np.max(np.abs(psi - oracle)) < 1e-15
        # the e^{i phi} terms flip sign at phi = pi
        assert psi[6] == pytest.approx(+0.5)
        assert psi[12] == pytest.approx(-0.5)

    @pytest.mark.parametrize(
        "phi",
        [0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi, 1e-3]
        + [float(x) for x in np.random.default_rng(5).uniform(-2 * math.pi, 2 * math.pi, 20)],
    )
    def test_four_amplitudes_equal_the_normalised_four_ket_sum_bitwise(self, phi):
        phase = np.exp(1j * SourceConfig(phi).phi)
        oracle = 0.5 * (
            tensor4(KET_H, KET_R, KET_V, KET_L)
            - phase * tensor4(KET_H, KET_L, KET_V, KET_R)
            - tensor4(KET_V, KET_R, KET_H, KET_L)
            + phase * tensor4(KET_V, KET_L, KET_H, KET_R)
        )
        assert build_psi(phi).tobytes() == (oracle / np.linalg.norm(oracle)).tobytes()

    def test_path_zz_anticorrelation_is_phase_independent(self):
        op = correlation_operator("Z'Z'")
        for phi in (-2.9, -1.0, 0.3, 1.7, 3.1):
            psi = build_psi(phi)
            assert np.vdot(psi, op @ psi).real == pytest.approx(-1.0, abs=1e-12)

    def test_eigenvector_of_all_nine_relations_at_phi_zero(self):
        psi = build_psi(SourceConfig(0.0))
        for corr in CORRELATIONS:
            op = correlation_operator(corr)
            assert abs(np.vdot(psi, op @ psi).real - corr.sign) < 1e-12
            assert np.linalg.norm(op @ psi - corr.sign * psi) < 1e-12

    def test_phase_canonicalization(self):
        assert SourceConfig(2 * math.pi).phi == pytest.approx(0.0)
        assert SourceConfig(3 * math.pi).phi == pytest.approx(-math.pi)
        with pytest.raises(ValueError):
            SourceConfig(math.inf)


class TestApplyNoise:
    def test_identity_noise_returns_pure_projector(self):
        psi = build_psi(0.0)
        rho = apply_noise(psi, NoiseModel())
        assert np.max(np.abs(rho - np.outer(psi, psi.conj()))) < 1e-15

    def test_full_white_noise_is_maximally_mixed(self):
        rho = apply_noise(build_psi(0.0), NoiseModel(white_noise_weight=1.0))
        assert np.max(np.abs(rho - np.eye(DIM) / DIM)) < 1e-15
        for corr in CORRELATIONS:
            assert mixed_expectation(correlation_operator(corr), rho) == pytest.approx(0.0, abs=1e-12)

    def test_bell_crosses_lr_bound_at_two_ninths(self):
        rho = apply_noise(build_psi(0.0), NoiseModel(white_noise_weight=2.0 / 9.0))
        # oracle: direct trace at w = 2/9; the Bell sum scales as 9(1-w)
        assert np.trace(rho @ bell_operator()).real == pytest.approx(7.0, abs=1e-10)
        assert mixed_expectation(bell_operator(), rho) == pytest.approx(7.0, abs=1e-10)

    def test_output_is_valid_density_matrix_for_random_parameters(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            model = NoiseModel(
                white_noise_weight=rng.uniform(0, 1),
                pol_visibility=rng.uniform(0, 1),
                path_visibility=rng.uniform(0, 1),
                phase_offset=rng.uniform(-math.pi, math.pi),
            )
            rho = apply_noise(build_psi(rng.uniform(-math.pi, math.pi)), model)
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_bell_value_monotone_in_white_noise(self):
        rng = np.random.default_rng(5)
        psi = build_psi(0.0)
        for _ in range(5):
            vp, vq = rng.uniform(0, 1, size=2)
            delta = rng.uniform(-math.pi, math.pi)
            values = [
                mixed_expectation(
                    bell_operator(), apply_noise(psi, NoiseModel(w, vp, vq, delta))
                )
                for w in np.linspace(0.0, 1.0, 11)
            ]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_phase_offset_shifts_the_path_phase(self):
        shifted = apply_noise(build_psi(0.3), NoiseModel(phase_offset=0.4))
        direct = apply_noise(build_psi(0.7), NoiseModel())
        assert np.max(np.abs(shifted - direct)) < 1e-12

    def test_out_of_range_parameters_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(white_noise_weight=1.2)
        with pytest.raises(ValueError):
            NoiseModel(pol_visibility=-0.1)
        with pytest.raises(ValueError):
            NoiseModel(phase_offset=math.nan)


class TestFitNoise:
    def test_ideal_targets_are_a_fixed_point(self):
        result = fit_noise([c.sign for c in CORRELATIONS[:8]])
        assert result.residual < 1e-9
        assert not result.degenerate
        assert result.model.white_noise_weight == pytest.approx(0.0, abs=1e-6)
        assert result.model.pol_visibility == pytest.approx(1.0, abs=1e-6)
        assert result.model.path_visibility == pytest.approx(1.0, abs=1e-6)

    def test_half_scaled_targets_fit_pure_white_noise(self):
        # oracle: exhaustive scan over w at visibilities 1 has its zero at
        # w = 0.5 because every correlation operator is traceless, so the
        # admixture rescales all nine expectations by exactly (1 - w)
        targets = [0.5 * c.sign for c in CORRELATIONS[:8]]
        grid = np.linspace(0.0, 1.0, 1001)
        resid = [
            sum(
                ((1 - w) * c.sign - t) ** 2
                for c, t in zip(CORRELATIONS[:8], targets)
            )
            for w in grid
        ]
        assert grid[int(np.argmin(resid))] == pytest.approx(0.5, abs=1e-3)
        result = fit_noise(targets)
        assert result.residual < 1e-9
        assert result.model.white_noise_weight == pytest.approx(0.5, abs=1e-6)

    def test_measured_targets_reach_the_least_squares_floor(self):
        result = reference.fitted_noise()
        assert not result.degenerate
        # oracle: alternating closed-form least squares in the reduced
        # variables s = 1-w, a = vp^2, b = vq^2 cos(delta)
        t = np.asarray(reference.measured_targets())

        def model_curve(s, a, b):
            return np.array([-s, -s, -s * a, -s * b, s, s * a * b, s * b, s * a])

        s, a, b = 0.99, 1.0, 0.9
        for _ in range(500):
            c = np.array([-1, -1, -a, -b, 1, a * b, b, a])
            s = float(c @ t / (c @ c))
            a = (-s * t[2] + s * b * t[5] + s * t[7]) / (s * s * (2 + b * b))
            b = (-s * t[3] + s * a * t[5] + s * t[6]) / (s * s * (2 + a * a))
        floor = float(np.sum((model_curve(s, a, b) - t) ** 2))
        assert result.residual == pytest.approx(floor, abs=1e-7)
        predictions = predicted_correlations(result.model)[:8]
        # the four-parameter model cannot do better than ~0.021 on the
        # X'X' row; assert the fit sits at the floor, not at a fake zero
        assert np.max(np.abs(predictions - t)) < 0.025
        assert np.max(np.abs(predictions - t)) == pytest.approx(
            np.max(np.abs(model_curve(s, a, b) - t)), abs=1e-3
        )

    def test_degenerate_targets_return_full_white_noise_with_flag(self):
        result = fit_noise([0.0] * 8)
        assert result.degenerate
        assert result.model.white_noise_weight == 1.0
        assert result.residual == 0.0

    def test_measured_residual_is_no_worse_than_the_grid_search_fit(self):
        # 9.454274659510875e-4 is the residual the former 1,089-point grid plus
        # coordinate-descent fit reached on the measured table
        result = reference.fitted_noise()
        assert result.residual <= 9.454274659510875e-4
        assert result.model.phase_offset == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        s=st.floats(0.0, 1.0),
        a=st.floats(0.0, 1.0),
        b=st.floats(-1.0, 1.0),
        delta_scale=st.floats(0.0, 1.0),
    )
    def test_fit_reproduces_the_rows_of_any_model_through_the_density_matrix(self, s, a, b, delta_scale):
        # any (vq, delta) with vq^2 cos(delta) = b gives the same rows; pick one
        # off the canonical ray so the fit has to find a different representative
        vq2 = abs(b) + (1.0 - abs(b)) * delta_scale
        delta = math.acos(b / vq2) if vq2 > 0.0 else 0.0
        model = NoiseModel(1.0 - s, math.sqrt(a), math.sqrt(vq2), delta)
        targets = predicted_correlations(model)[:8]
        result = fit_noise(targets)
        assert result.model.phase_offset in (0.0, -math.pi)
        rho = apply_noise(build_psi(0.0), result.model)
        refit = [mixed_expectation(correlation_operator(c), rho) for c in CORRELATIONS[:8]]
        assert np.max(np.abs(np.array(refit) - targets)) <= 1e-12
        if result.degenerate:
            assert result.model.white_noise_weight == 1.0

    @pytest.mark.parametrize("scale", [1.0, 0.3])
    def test_sign_flipped_targets_force_s_zero(self, scale):
        result = fit_noise([-scale * c.sign for c in CORRELATIONS[:8]])
        assert result.degenerate
        assert result.model.white_noise_weight == 1.0
        assert result.residual == pytest.approx(8 * scale**2, abs=1e-12)

    def test_rejects_nan_targets(self):
        with pytest.raises(ValueError):
            fit_noise([math.nan] + [0.0] * 7)

    def test_refit_on_own_predictions_does_not_regress(self):
        first = reference.fitted_noise()
        refit = fit_noise(predicted_correlations(first.model)[:8])
        assert refit.residual <= first.residual + 1e-9

    def test_accepts_nine_targets_and_ignores_m(self):
        targets9 = list(reference.measured_targets()) + [reference.derived_m_value()]
        result = fit_noise(targets9)
        assert result.residual == pytest.approx(reference.fitted_noise().residual, abs=1e-12)

    def test_rejects_bad_targets(self):
        with pytest.raises(ValueError):
            fit_noise([0.5] * 7)
        with pytest.raises(ValueError):
            fit_noise([1.5] + [0.0] * 7)


@settings(max_examples=100, deadline=None)
@given(
    phi=st.floats(-10.0, 10.0),
    w=st.floats(0.0, 1.0),
    vp=st.floats(0.0, 1.0),
    vq=st.floats(0.0, 1.0),
    delta=st.floats(-10.0, 10.0),
)
def test_source_config_and_noise_model_survive_a_dict_round_trip(phi, w, vp, vq, delta):
    config = SourceConfig(phi)
    assert SourceConfig.from_dict(config.to_dict()) == config
    model = NoiseModel(w, vp, vq, delta)
    assert NoiseModel.from_dict(model.to_dict()) == model


def test_noise_model_dict_round_trip():
    model = NoiseModel(0.1, 0.9, 0.8, -0.3)
    assert NoiseModel.from_dict(model.to_dict()) == model
    with pytest.raises(ValueError):
        NoiseModel.from_dict({"visibility": 1.0})


def test_apply_noise_rejects_a_state_whose_squared_norm_misses_one_at_entry():
    # the output trace is (1 - w)|psi|^2 + w, so the state is held to the trace tolerance
    with pytest.raises(ValueError, match=r"^state vector not normalized"):
        apply_noise(build_psi(0.3) * (1 + 1e-10), NoiseModel())
    with pytest.raises(ValueError, match=r"^state vector not normalized"):
        apply_noise(build_psi(0.3) * (1 + 1e-10), NoiseModel(white_noise_weight=0.5))
    assert apply_noise(build_psi(0.3) * (1 + 4e-13), NoiseModel()).shape == (DIM, DIM)


_AMPLITUDES = st.lists(st.floats(-1.0, 1.0), min_size=2 * DIM, max_size=2 * DIM).filter(
    lambda parts: math.fsum(x * x for x in parts) > 1e-6
)


@settings(max_examples=200, deadline=None)
@given(
    parts=_AMPLITUDES,
    w=st.floats(0.0, 1.0),
    vp=st.floats(0.0, 1.0),
    vq=st.floats(0.0, 1.0),
    delta=st.floats(-math.pi, math.pi),
)
def test_apply_noise_output_is_a_density_matrix_over_the_whole_model_range(parts, w, vp, vq, delta):
    # checked here, outside apply_noise, so that its closing runtime check can go
    psi = np.array(parts[:DIM]) + 1j * np.array(parts[DIM:])
    rho = apply_noise(psi / np.linalg.norm(psi), NoiseModel(w, vp, vq, delta))
    assert float(np.max(np.abs(rho - rho.conj().T))) <= 1e-12
    assert abs(complex(np.trace(rho)) - 1.0) <= 1e-12
    assert float(np.linalg.eigvalsh(rho).min()) >= -1e-12


def _reference_psi(phi):
    """The source state by direct numpy calls: a list index and np.linalg.norm."""
    phase = np.exp(1j * SourceConfig(phi).phi)
    psi = np.zeros(DIM, dtype=complex)
    psi[[3, 6, 9, 12]] = 0.5 * np.array([1.0, -phase, -1.0, phase])
    return psi / np.linalg.norm(psi)


def _reference_noise(psi, model):
    """The noise channel by direct numpy calls: np.diag, np.outer, v ** mask
    over the whole mismatch masks and a fresh identity."""
    pol = (INDEX_BITS[:, None, [0, 2]] != INDEX_BITS[None, :, [0, 2]]).sum(axis=2)
    path = (INDEX_BITS[:, None, [1, 3]] != INDEX_BITS[None, :, [1, 3]]).sum(axis=2)
    psi = np.diag(np.exp(1j * model.phase_offset * INDEX_BITS[:, 1])) @ psi
    rho = np.outer(psi, psi.conj())
    damp = (model.pol_visibility ** pol) * (model.path_visibility ** path)
    w = model.white_noise_weight
    return (1.0 - w) * (damp * rho) + w * np.eye(DIM) / DIM


_BELOW_MINUS_PI = math.nextafter(-math.pi, -math.inf)


@settings(max_examples=300, deadline=None)
@given(
    parts=_AMPLITUDES,
    phi=st.floats(-10.0, 10.0),
    w=st.floats(0.0, 1.0),
    vp=st.floats(0.0, 1.0),
    vq=st.floats(0.0, 1.0),
    delta=st.floats(-10.0, 10.0),
)
@example(parts=[1.0] * (2 * DIM), phi=0.3, w=0.0, vp=0.0, vq=0.0, delta=math.pi)
@example(parts=[1.0] * (2 * DIM), phi=-0.3, w=1.0, vp=1.0, vq=1.0, delta=-math.pi)
@example(parts=[-1.0] * (2 * DIM), phi=math.pi, w=0.0, vp=1.0, vq=0.0, delta=_BELOW_MINUS_PI)
@example(parts=[-1.0] * (2 * DIM), phi=_BELOW_MINUS_PI, w=1.0, vp=0.0, vq=1.0, delta=0.0)
def test_state_and_channel_equal_the_reference_arithmetic_bit_for_bit(parts, phi, w, vp, vq, delta):
    # the power table, the constant tables and the inline norm must round as
    # the direct forms do, on whatever loops numpy dispatches to
    psi = build_psi(phi)
    assert psi.tobytes() == _reference_psi(phi).tobytes()
    model = NoiseModel(w, vp, vq, delta)
    state = np.array(parts[:DIM]) + 1j * np.array(parts[DIM:])
    for pure in (psi, state / np.linalg.norm(state)):
        assert apply_noise(pure, model).tobytes() == _reference_noise(pure, model).tobytes()


_MISNORMALIZED = [build_psi(0.3) * (1 + 3e-9), np.ones(DIM), build_psi(-2.0) * 0.5j]


@pytest.mark.parametrize("check", [assert_state, lambda psi: apply_noise(psi, NoiseModel())], ids=["assert_state", "apply_noise"])
@pytest.mark.parametrize(
    "psi, message",
    [
        (np.where(np.arange(DIM) == 5, np.nan, 0.25), "state vector has non-finite amplitudes"),
        (np.full(DIM, 0.25 + 1j * np.inf), "state vector has non-finite amplitudes"),
        (np.full(15, 0.25), f"state vector must have shape ({DIM},), got (15,)"),
        (np.eye(4) / 2, f"state vector must have shape ({DIM},), got (4, 4)"),
    ]
    + [(psi, f"state vector not normalized: |norm - 1| = {abs(np.linalg.norm(psi) - 1.0):.3e}") for psi in _MISNORMALIZED],
    ids=["nan", "inf-imaginary", "shape-15", "shape-4x4", "misnormalized-3e-9", "misnormalized-4", "misnormalized-half"],
)
def test_a_bad_state_is_rejected_with_its_exact_message(check, psi, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check(psi)
