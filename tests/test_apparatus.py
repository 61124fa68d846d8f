import itertools
import math
from functools import reduce

import numpy as np
import pytest

from avnsim._tables import Dof
from avnsim.apparatus import (
    DEFAULT_FRINGE_ANGLES,
    _element,
    apparatus_vs_projective,
    bs_transform,
    build_apparatus,
    fringe_visibility,
    hwp_transform,
    pbs_merge,
    phase_fringe,
    polarizer_projector,
)
from avnsim.observables import Setting, context
from avnsim.qstate import (
    DIM,
    ID2,
    KET_H,
    KET_L,
    KET_PLUS,
    KET_R,
    KET_V,
    PAULI_X,
    PAULI_Z,
    Party,
    tensor4,
)
from avnsim.source import NoiseModel, build_psi

import test_exact_proofs as proofs  # the integer gate rules of the device proof

ALL_DEVICES = [(party, setting) for party in Party for setting in Setting]


class TestElements:
    def test_bs_maps_r_to_plus(self):
        u = bs_transform()
        assert np.allclose(u @ KET_R, KET_PLUS)
        assert np.allclose(u @ KET_PLUS, KET_R)  # real Hadamard is self-inverse
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12

    def test_hwp_at_zero_keeps_populations(self):
        j = hwp_transform(0.0)
        assert np.allclose(j, np.diag([1.0, -1.0]))
        assert np.allclose(np.abs(j @ KET_H) ** 2, np.abs(KET_H) ** 2)
        assert np.allclose(np.abs(j @ KET_V) ** 2, np.abs(KET_V) ** 2)

    def test_hwp_at_22p5_degrees_maps_h_to_plus(self):
        j = hwp_transform(math.pi / 8.0)
        assert np.allclose(j @ KET_H, KET_PLUS)
        assert np.allclose(j @ KET_V, np.array([1.0, -1.0]) / math.sqrt(2.0))

    def test_hwp_squares_to_identity(self):
        rng = np.random.default_rng(2)
        for theta in rng.uniform(-math.pi, math.pi, size=10):
            j = hwp_transform(theta)
            assert np.max(np.abs(j @ j - np.eye(2))) < 1e-12

    def test_polarizer_is_rank_one_projector(self):
        p = polarizer_projector(0.7)
        assert np.max(np.abs(p @ p - p)) < 1e-12
        assert np.linalg.matrix_rank(p) == 1

    def test_pbs_is_unitary_permutation(self):
        u = pbs_merge()
        assert np.max(np.abs(u @ u.conj().T - np.eye(4))) == 0.0


# the matrices of the exact proof's gates on one party's (pol, path) pair; the CNOT's control is pol
_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
_CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
_GATES = {
    ("H", Dof.POL): np.kron(_H, ID2),
    ("H", Dof.PATH): np.kron(ID2, _H),
    ("Z", Dof.POL): np.kron(PAULI_Z, ID2),
    ("X", Dof.POL): np.kron(PAULI_X, ID2),
    ("CNOT", Dof.POL): _CNOT,
}


def _alice_word(p):
    """The 4x4 matrix of a word i^k X^x Z^z on Alice's qubits, pol on index bit 8 and path on 4."""
    x, z, k = p
    pol, path = (np.linalg.matrix_power(PAULI_X, x >> b & 1) @ np.linalg.matrix_power(PAULI_Z, z >> b & 1) for b in (3, 2))
    return 1j**k * np.kron(pol, path)


class TestElementsAreTheExactProofsGates:
    # tests/test_exact_proofs.py conjugates words through each device's gates
    # in integers; these tie its rules and gates to the matrices the devices use

    def test_beam_splitter_is_h_bit_for_bit(self):
        assert bs_transform().tobytes() == _H.tobytes()

    def test_hwp_at_zero_is_z_bit_for_bit(self):
        assert hwp_transform(0.0).tobytes() == PAULI_Z.tobytes()

    def test_hwp_at_22p5_degrees_is_h_within_one_ulp(self):
        assert np.all(np.abs(hwp_transform(math.pi / 8.0) - _H) <= np.spacing(np.abs(_H)))

    def test_pbs_merge_is_x_cnot_x_bit_for_bit(self):
        x_pol = _GATES["X", Dof.POL]
        assert pbs_merge().tobytes() == (x_pol @ _CNOT @ x_pol).tobytes()

    @pytest.mark.parametrize("element", list(proofs._ELEMENT_GATES), ids=repr)
    def test_each_element_matrix_is_the_product_of_its_gates(self, element):
        gates = reduce(np.matmul, [_GATES[gate] for gate in proofs._ELEMENT_GATES[element]])
        assert np.all(np.abs(_element(*element) - gates) <= np.spacing(1.0) / 2)

    @pytest.mark.parametrize("gate", list(_GATES), ids=repr)
    def test_each_gate_rule_is_the_conjugation_by_its_matrix(self, gate):
        g = _GATES[gate]
        for p in itertools.product(range(0, 16, 4), range(0, 16, 4), range(4)):
            assert np.allclose(g @ _alice_word(p) @ g, _alice_word(proofs._conjugate(p, gate, Party.ALICE)), rtol=0, atol=1e-15), p


class TestDetectionModels:
    @pytest.mark.parametrize("party, setting", [(Party.ALICE, "a"), ("Alice", Setting.A)])
    def test_a_key_outside_the_enums_is_refused(self, party, setting):
        # only a (Party, Setting) pair names a device, never a look-alike string
        with pytest.raises(KeyError):
            build_apparatus(party, setting)

    @pytest.mark.parametrize("party,setting", ALL_DEVICES)
    def test_projectors_complete_and_orthogonal(self, party, setting):
        model = build_apparatus(party, setting)
        assert len(model.outcomes) == 4
        assert sorted((ch.bit1, ch.bit2) for ch in model.outcomes) == [
            (-1, -1),
            (-1, 1),
            (1, -1),
            (1, 1),
        ]
        total = sum(ch.projector for ch in model.outcomes)
        assert np.max(np.abs(total - np.eye(DIM))) < 1e-12
        for i, ch_i in enumerate(model.outcomes):
            for ch_j in model.outcomes[i + 1 :]:
                assert np.max(np.abs(ch_i.projector @ ch_j.projector)) < 1e-10

    @pytest.mark.parametrize("party,setting", ALL_DEVICES)
    def test_equivalent_to_ideal_projective_measurement(self, party, setting):
        assert apparatus_vs_projective(party, setting) < 1e-10

    def test_bob_a_is_projective_to_rounding(self):
        # both generators are diagonal in the computational basis
        assert apparatus_vs_projective(Party.BOB, Setting.A) < 1e-12

    @pytest.mark.parametrize("party,setting", [(Party.ALICE, Setting.C), (Party.BOB, Setting.C)])
    def test_against_simultaneous_diagonalization_oracle(self, party, setting):
        # oracle: eigendecompose G1 + 3*G2; the four joint sectors have the
        # distinct eigenvalues s1 + 3*s2 and their eigenvector groups give
        # the ideal projectors independently of the device construction
        ctx = context(party, setting)
        combined = ctx.generator1 + 3.0 * ctx.generator2
        evals, evecs = np.linalg.eigh(combined)
        model = build_apparatus(party, setting)
        for ch in model.outcomes:
            target = ch.bit1 + 3.0 * ch.bit2
            cols = evecs[:, np.abs(evals - target) < 1e-8]
            assert cols.shape[1] == 4
            ideal = cols @ cols.conj().T
            assert np.max(np.abs(ch.projector - ideal)) < 1e-10

    def test_alice_c_walkthrough_h_from_l_path(self):
        # an H photon in the L path exits the merging port deterministically
        # with the combined readout zAzA' = -1
        model = build_apparatus(Party.ALICE, Setting.C)
        state = tensor4(KET_H, KET_L, KET_H, KET_R)
        assert model.marginal_probability(state, bit1=-1) == pytest.approx(1.0, abs=1e-12)

    def test_alice_c_walkthrough_v_from_r_path(self):
        model = build_apparatus(Party.ALICE, Setting.C)
        state = tensor4(KET_V, KET_R, KET_H, KET_R)
        assert model.marginal_probability(state, bit1=-1) == pytest.approx(1.0, abs=1e-12)

    def test_bob_b_plus_path_gives_definite_port(self):
        model = build_apparatus(Party.BOB, Setting.B)
        state = tensor4(KET_H, KET_R, KET_V, KET_PLUS)
        assert model.marginal_probability(state, bit2=+1) == pytest.approx(1.0, abs=1e-12)


class TestPhaseFringe:
    def test_default_configuration_peaks_at_zero_phase(self):
        phis = np.linspace(-math.pi, math.pi, 81)
        fringe = phase_fringe(phis)
        assert phis[int(np.argmax(fringe))] == pytest.approx(0.0, abs=1e-12)

    def test_matches_closed_form_oracle(self):
        # oracle: direct Born rule gives sin^2(beta-alpha)/2 * (1+cos phi)/4
        phis = np.linspace(-math.pi, math.pi, 41)
        alpha, beta = DEFAULT_FRINGE_ANGLES
        expected = (math.sin(beta - alpha) ** 2 / 2.0) * (1.0 + np.cos(phis)) / 4.0
        assert np.max(np.abs(phase_fringe(phis) - expected)) < 1e-12

    def test_minimum_at_pi_is_exactly_dark(self):
        assert phase_fringe([math.pi])[0] == pytest.approx(0.0, abs=1e-12)

    def test_parallel_polarizers_sit_on_singlet_zero(self):
        phis = np.linspace(-math.pi, math.pi, 21)
        fringe = phase_fringe(phis, polarizer_angles=(math.pi / 4.0, math.pi / 4.0))
        assert np.max(fringe) < 1e-12

    def test_ideal_visibility_is_unity(self):
        phis = np.linspace(-math.pi, math.pi, 81)
        assert fringe_visibility(phase_fringe(phis)) == pytest.approx(1.0, abs=1e-10)

    def test_visibility_degrades_with_path_dephasing(self):
        # per-photon dephasing scales the two-photon interference term by
        # the squared visibility; white noise lowers it further
        phis = np.linspace(-math.pi, math.pi, 81)
        for vq in (0.9, 0.7, 0.4):
            fringe = phase_fringe(phis, noise=NoiseModel(path_visibility=vq))
            assert fringe_visibility(fringe) == pytest.approx(vq**2, abs=1e-10)
        noisy = phase_fringe(phis, noise=NoiseModel(white_noise_weight=0.2, path_visibility=0.7))
        assert fringe_visibility(noisy) < 0.7**2

    def test_same_port_pair_flips_the_fringe(self):
        phis = np.linspace(-math.pi, math.pi, 41)
        flipped = phase_fringe(phis, ports=("+", "+"))
        expected = (1.0 - np.cos(phis)) / 8.0
        assert np.max(np.abs(flipped - expected)) < 1e-12

    def test_rejects_unknown_port(self):
        with pytest.raises(ValueError):
            phase_fringe([0.0], ports=("up", "-"))


def test_detection_models_reproduce_all_nine_perfect_correlations():
    # outcome statistics derived from the physical devices agree with the
    # predicted signs; this closes the loop between apparatus and theory
    from avnsim.experiment import _statistic_signs, context_pair, outcome_distribution
    from avnsim.observables import CORRELATIONS

    psi = build_psi(0.0)
    rho = np.outer(psi, psi.conj())
    for corr in CORRELATIONS:
        dist = outcome_distribution(rho, context_pair(corr.id))
        e = float((dist * _statistic_signs(corr.id)).sum())
        assert e == pytest.approx(corr.sign, abs=1e-10)
