import itertools

import numpy as np
import pytest

from avnsim.cli import _bin_label
from avnsim.experiment import OUTCOME_BITS
from avnsim.qstate import (
    DIM,
    INDEX_BITS,
    ConsistencyError,
    Dof,
    Party,
    SubsystemSlot,
    KET_H,
    KET_L,
    KET_PLUS,
    KET_R,
    KET_V,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    assert_density_matrix,
    assert_state,
    commutator_norm,
    expectation,
    lift_local,
    mixed_expectation,
    tensor4,
)
from avnsim.observables import bell_operator, correlation_operator, local_observable
from avnsim.source import NoiseModel, apply_noise, build_psi

ALICE_POL = SubsystemSlot(Party.ALICE, Dof.POL)
ALICE_PATH = SubsystemSlot(Party.ALICE, Dof.PATH)
BOB_POL = SubsystemSlot(Party.BOB, Dof.POL)
BOB_PATH = SubsystemSlot(Party.BOB, Dof.PATH)


def random_state(rng):
    v = rng.normal(size=DIM) + 1j * rng.normal(size=DIM)
    return v / np.linalg.norm(v)


class TestTensor4:
    def test_all_zero_basis(self):
        psi = tensor4(KET_H, KET_R, KET_H, KET_R)
        expected = np.zeros(DIM)
        expected[0] = 1.0
        assert np.allclose(psi, expected, atol=1e-15)

    def test_all_one_basis(self):
        psi = tensor4(KET_V, KET_L, KET_V, KET_L)
        expected = np.zeros(DIM)
        expected[15] = 1.0
        assert np.allclose(psi, expected, atol=1e-15)

    def test_single_superposition_factor(self):
        psi = tensor4(KET_PLUS, KET_R, KET_H, KET_R)
        assert psi[0] == pytest.approx(1 / np.sqrt(2))
        assert psi[8] == pytest.approx(1 / np.sqrt(2))
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_unnormalized_factor(self):
        with pytest.raises(ValueError, match="not normalized"):
            tensor4(2.0 * KET_H, KET_R, KET_H, KET_R)


class TestIndexBits:
    def test_each_product_ket_sits_at_the_row_with_its_bits(self):
        kets = ((KET_H, KET_V), (KET_R, KET_L), (KET_H, KET_V), (KET_R, KET_L))
        for bits in itertools.product((0, 1), repeat=4):
            psi = tensor4(*(pair[b] for pair, b in zip(kets, bits)))
            (hit,) = np.flatnonzero(psi)
            assert psi[hit] == 1.0
            assert tuple(INDEX_BITS[hit]) == bits

    def test_outcome_bits_and_histogram_labels_read_the_table(self):
        assert np.array_equal(OUTCOME_BITS, 1 - 2 * INDEX_BITS)
        for i in range(DIM):
            assert _bin_label(i) == "".join("+" if b > 0 else "-" for b in OUTCOME_BITS[i])


class TestLiftLocal:
    def test_pauli_z_on_alice_pol_is_msb_diagonal(self):
        lifted = lift_local(PAULI_Z, ALICE_POL)
        expected = np.diag([1.0] * 8 + [-1.0] * 8)
        assert np.allclose(lifted, expected, atol=1e-15)

    def test_identity_lifts_to_identity(self):
        for slot in (ALICE_POL, ALICE_PATH, BOB_POL, BOB_PATH):
            assert np.allclose(lift_local(np.eye(2), slot), np.eye(DIM))

    def test_disjoint_slots_commute(self):
        a = lift_local(PAULI_Z, ALICE_POL)
        b = lift_local(PAULI_X, BOB_PATH)
        assert commutator_norm(a, b) == 0.0

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            lift_local(np.array([[0.0, 1.0], [0.0, 0.0]]), ALICE_POL)

    def test_every_lifted_pauli_squares_to_identity(self):
        for pauli in (PAULI_X, PAULI_Y, PAULI_Z):
            for slot in (ALICE_POL, ALICE_PATH, BOB_POL, BOB_PATH):
                lifted = lift_local(pauli, slot)
                assert np.max(np.abs(lifted @ lifted - np.eye(DIM))) < 1e-12

    def test_all_distinct_slot_pairs_commute(self):
        rng = np.random.default_rng(11)
        slots = (ALICE_POL, ALICE_PATH, BOB_POL, BOB_PATH)
        for _ in range(20):
            m1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            m2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            h1, h2 = (m1 + m1.conj().T) / 2, (m2 + m2.conj().T) / 2
            i, j = rng.choice(4, size=2, replace=False)
            assert commutator_norm(lift_local(h1, slots[i]), lift_local(h2, slots[j])) < 1e-14


class TestExpectation:
    def test_zz_on_entangled_state(self):
        op = local_observable("zA") @ local_observable("zB")
        assert expectation(op, build_psi(0.0)) == pytest.approx(-1.0, abs=1e-12)

    def test_identity_on_any_state(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            assert expectation(np.eye(DIM), random_state(rng)) == pytest.approx(1.0, abs=1e-12)

    def test_m_product_on_entangled_state(self):
        m = (
            local_observable("zAzA'")
            @ local_observable("xAxA'")
            @ local_observable("zBxB'")
            @ local_observable("xBzB'")
        )
        assert expectation(m, build_psi(0.0)) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_mixed_expectation_on_random_inputs(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = rng.normal(size=(DIM, DIM)) + 1j * rng.normal(size=(DIM, DIM))
            obs = (m + m.conj().T) / 2
            psi = random_state(rng)
            rho = np.outer(psi, psi.conj())
            assert expectation(obs, psi) == pytest.approx(mixed_expectation(obs, rho), abs=1e-12)


class TestMixedExpectation:
    def test_dichotomic_on_maximally_mixed(self):
        for symbol in ("zA", "xB'", "zAzA'", "xBzB'"):
            assert mixed_expectation(local_observable(symbol), np.eye(DIM) / DIM) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_bell_operator_on_pure_state(self):
        psi = build_psi(0.0)
        rho = np.outer(psi, psi.conj())
        assert mixed_expectation(bell_operator(), rho) == pytest.approx(9.0, abs=1e-12)

    def test_linearity_on_noisy_mixture(self):
        psi = build_psi(0.0)
        rho = 0.8 * np.outer(psi, psi.conj()) + 0.2 * np.eye(DIM) / DIM
        # oracle: direct 16x16 trace of the product
        direct = np.trace(rho @ bell_operator()).real
        assert direct == pytest.approx(7.2, abs=1e-12)
        assert mixed_expectation(bell_operator(), rho) == pytest.approx(direct, abs=1e-12)


class TestCommutatorNorm:
    def test_commuting_pair_within_one_party(self):
        assert commutator_norm(local_observable("zAzA'"), local_observable("xAxA'")) == 0.0

    def test_anticommuting_pauli_pair(self):
        assert commutator_norm(local_observable("zA"), local_observable("xA")) == pytest.approx(2.0)

    def test_bob_c_generators_commute(self):
        # oracle: direct matrix computation
        a = local_observable("zBxB'")
        b = local_observable("xBzB'")
        assert np.max(np.abs(a @ b - b @ a)) < 1e-14
        assert commutator_norm(a, b) < 1e-14


def test_norm_preserved_under_observable_products():
    rng = np.random.default_rng(19)
    symbols = ("zA", "xA", "zA'", "xA'", "zB", "xB", "zB'", "xB'", "zAzA'", "xBzB'")
    for _ in range(25):
        psi = random_state(rng)
        for symbol in rng.choice(symbols, size=4):
            psi = local_observable(symbol) @ psi
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


def test_expectation_rejects_non_hermitian():
    skew = np.zeros((DIM, DIM), dtype=complex)
    skew[0, 1] = 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        expectation(skew, build_psi(0.0))


def test_expectation_rejects_unnormalized_state():
    with pytest.raises(ValueError, match="not normalized"):
        expectation(np.eye(DIM), np.ones(DIM))


def test_mixed_expectation_flags_imaginary_residue():
    # a non-Hermitian "density matrix" leaks an imaginary trace, which the
    # internal consistency check must refuse to discard silently
    rho_bad = np.zeros((DIM, DIM), dtype=complex)
    rho_bad[0, 0] = 1.0
    rho_bad[0, 1] = 1.0j
    obs = lift_local(PAULI_X, SubsystemSlot(Party.BOB, Dof.PATH))
    with pytest.raises(ConsistencyError, match="imaginary"):
        mixed_expectation(obs, rho_bad)


# (I + t ZZ)/16 is Hermitian with unit trace; its eigenvalues are (1 +- t)/16
_ZZ = correlation_operator("ZZ")


@pytest.mark.parametrize(
    "rho, message",
    [
        (np.eye(4) / 4, r"^density matrix must be 16x16, got \(4, 4\)$"),
        (np.eye(DIM) / DIM + 1e-6j * _ZZ, "not Hermitian"),
        (2 * np.eye(DIM) / DIM, "trace differs from 1"),
        ((np.eye(DIM) + 3 * _ZZ) / DIM, "not PSD: min eigenvalue -1.250e-01"),
    ],
    ids=["shape", "hermitian", "trace", "psd"],
)
def test_assert_density_matrix_rejects_each_defect(rho, message):
    with pytest.raises(ValueError, match=message):
        assert_density_matrix(rho)


@pytest.mark.parametrize("noise", [NoiseModel(), NoiseModel(0.05, 0.95, 0.9, 0.1)], ids=["ideal", "noisy"])
def test_assert_density_matrix_returns_a_valid_state(noise):
    rho = apply_noise(build_psi(0.0), noise)
    assert np.array_equal(assert_density_matrix(rho), rho)


@pytest.mark.parametrize(
    "psi, message",
    [
        (np.ones(4) / 2, r"^state vector must have shape \(16,\), got \(4,\)$"),
        (np.full(DIM, np.nan), "non-finite amplitudes"),
        (np.full(DIM, np.inf * 1j), "non-finite amplitudes"),
    ],
    ids=["shape", "nan", "inf-imaginary"],
)
def test_assert_state_rejects_each_defect(psi, message):
    with pytest.raises(ValueError, match=message):
        assert_state(psi)
