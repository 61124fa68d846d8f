import numpy as np
import pytest

from avnsim import lhv
from avnsim._tables import SYMBOLS

from avnsim.observables import (
    CORRELATIONS,
    CORRELATION_BY_ID,
    CORRELATION_IDS,
    Setting,
    bell_operator,
    context,
    correlation_expectations,
    correlation_operator,
    correlation_operators,
    local_observable,
    verify_eigenrelations,
)
from avnsim.qstate import (
    DIM,
    ConsistencyError,
    Dof,
    KET_H,
    KET_L,
    KET_R,
    KET_V,
    PAULI_X,
    PAULI_Z,
    Party,
    SubsystemSlot,
    commutator_norm,
    expectation,
    is_dichotomic,
    lift_local,
    tensor4,
)
from avnsim.source import build_psi

PSI = build_psi(0.0)


class TestContexts:
    def test_alice_c_generators(self):
        ctx = context(Party.ALICE, Setting.C)
        assert ctx.labels == ("zAzA'", "xAxA'", "zAzA'xAxA'")
        assert np.allclose(ctx.generator1, local_observable("zA") @ local_observable("zA'"))
        assert np.allclose(ctx.generator2, local_observable("xA") @ local_observable("xA'"))
        assert commutator_norm(ctx.generator1, ctx.generator2) == 0.0

    def test_bob_a_product_is_diagonal(self):
        ctx = context(Party.BOB, Setting.A)
        product = ctx.product
        assert np.max(np.abs(product - np.diag(np.diag(product)))) == 0.0
        # zB * zB' on the basis: sign (+1)^... follows the index convention
        diag = np.diag(product).real
        expected = [(1 - 2 * ((i >> 1) & 1)) * (1 - 2 * (i & 1)) for i in range(DIM)]
        assert np.allclose(diag, expected)

    def test_bob_c_generators_square_to_identity(self):
        ctx = context(Party.BOB, Setting.C)
        for g in (ctx.generator1, ctx.generator2, ctx.product):
            assert np.max(np.abs(g @ g - np.eye(DIM))) < 1e-12

    def test_products_commute_both_ways(self):
        for party in Party:
            for setting in Setting:
                ctx = context(party, setting)
                forward = ctx.generator1 @ ctx.generator2
                backward = ctx.generator2 @ ctx.generator1
                assert np.max(np.abs(forward - ctx.product)) < 1e-12
                assert np.max(np.abs(backward - ctx.product)) < 1e-12


class TestCorrelationOperators:
    def test_zz_expectation(self):
        assert expectation(correlation_operator("ZZ"), PSI) == pytest.approx(-1.0, abs=1e-12)

    def test_xpxp_expectation(self):
        assert expectation(correlation_operator("X'X'"), PSI) == pytest.approx(-1.0, abs=1e-12)

    def test_m_expectation(self):
        assert expectation(correlation_operator("M"), PSI) == pytest.approx(-1.0, abs=1e-12)

    def test_every_correlation_operator_is_dichotomic(self):
        for corr in CORRELATIONS:
            assert is_dichotomic(correlation_operator(corr))

    def test_product_of_eight_non_m_operators_equals_minus_m(self):
        # the algebraic heart of the contradiction: the eight non-M
        # operators multiply to -M, yet all nine share the +/-1 eigenstate
        product = np.eye(DIM, dtype=complex)
        for corr in CORRELATIONS[:8]:
            product = product @ correlation_operator(corr)
        assert np.max(np.abs(product + correlation_operator("M"))) < 1e-12
        assert np.linalg.norm(product @ PSI - PSI) < 1e-12
        assert np.linalg.norm(correlation_operator("M") @ PSI + PSI) < 1e-12

    def test_stack_is_the_nine_operators_read_only(self):
        stack = correlation_operators()
        assert stack.shape == (len(CORRELATIONS), DIM, DIM)
        assert not stack.flags.writeable
        for k, corr in enumerate(CORRELATIONS):
            assert stack[k].tobytes() == correlation_operator(corr).tobytes()

    def test_expectations_check_the_shape_and_the_imaginary_part(self):
        with pytest.raises(ValueError, match=r"^density matrix must be 16x16$"):
            correlation_expectations(np.eye(4))
        # an anti-Hermitian admixture of ZZ gives trace(rho @ ZZ) an imaginary part
        with pytest.raises(ConsistencyError, match="imaginary part"):
            correlation_expectations(np.eye(DIM) / DIM + 1e-6j * correlation_operator("ZZ"))


class TestBellOperator:
    def test_expectation_on_ideal_state(self):
        assert expectation(bell_operator(), PSI) == pytest.approx(9.0, abs=1e-12)

    def test_maximally_mixed_gives_zero(self):
        assert np.trace(bell_operator()).real == pytest.approx(0.0, abs=1e-12)

    def test_spectrum_and_top_eigenvector(self):
        # oracle: dense eigendecomposition of the 16x16 operator
        evals, evecs = np.linalg.eigh(bell_operator())
        assert evals.min() >= -9.0 - 1e-10
        assert evals.max() == pytest.approx(9.0, abs=1e-10)
        overlap = abs(np.vdot(PSI, evecs[:, -1]))
        assert overlap > 1.0 - 1e-10


class TestVerifyEigenrelations:
    def test_ideal_state_passes_all_nine(self):
        rows = verify_eigenrelations(PSI)
        assert len(rows) == 9
        assert [r.id for r in rows] == list(CORRELATION_IDS)
        assert all(r.passed for r in rows)
        assert all(abs(r.value - r.predicted) < 1e-12 for r in rows)

    def test_phi_pi_fails_exactly_the_phase_sensitive_rows(self):
        rows = verify_eigenrelations(build_psi(np.pi))
        failed = {r.id for r in rows if not r.passed}
        # oracle: direct expectation computation at phi = pi; every row
        # whose operator contains a single x'x' path factor flips sign
        assert failed == {"X'X'", "XX'-X-X'", "Z-X'-ZX'", "M"}
        xpxp = next(r for r in rows if r.id == "X'X'")
        assert xpxp.value == pytest.approx(+1.0, abs=1e-12)
        assert xpxp.predicted == -1

    def test_product_state_passes_zz_but_fails_xx(self):
        state = tensor4(KET_H, KET_R, KET_V, KET_L)
        rows = {r.id: r for r in verify_eigenrelations(state)}
        assert rows["ZZ"].passed and rows["ZZ"].value == pytest.approx(-1.0)
        assert not rows["XX"].passed
        assert rows["XX"].value == pytest.approx(0.0, abs=1e-12)


def test_correlation_table_signs():
    signs = [CORRELATION_BY_ID[cid].sign for cid in CORRELATION_IDS]
    assert signs == [-1, -1, -1, -1, 1, 1, 1, 1, -1]


def test_unknown_correlation_id_rejected():
    with pytest.raises(KeyError):
        correlation_operator("YY")


def _hand_made_observables():
    # the twelve operators written out one by one, as the package once did
    z_a = lift_local(PAULI_Z, SubsystemSlot(Party.ALICE, Dof.POL))
    x_a = lift_local(PAULI_X, SubsystemSlot(Party.ALICE, Dof.POL))
    zp_a = lift_local(PAULI_Z, SubsystemSlot(Party.ALICE, Dof.PATH))
    xp_a = lift_local(PAULI_X, SubsystemSlot(Party.ALICE, Dof.PATH))
    z_b = lift_local(PAULI_Z, SubsystemSlot(Party.BOB, Dof.POL))
    x_b = lift_local(PAULI_X, SubsystemSlot(Party.BOB, Dof.POL))
    zp_b = lift_local(PAULI_Z, SubsystemSlot(Party.BOB, Dof.PATH))
    xp_b = lift_local(PAULI_X, SubsystemSlot(Party.BOB, Dof.PATH))
    return {
        "zA": z_a,
        "xA": x_a,
        "zA'": zp_a,
        "xA'": xp_a,
        "zB": z_b,
        "xB": x_b,
        "zB'": zp_b,
        "xB'": xp_b,
        "zAzA'": z_a @ zp_a,
        "xAxA'": x_a @ xp_a,
        "zBxB'": z_b @ xp_b,
        "xBzB'": x_b @ zp_b,
    }


def test_each_local_observable_is_built_from_its_symbol_byte_for_byte():
    table = _hand_made_observables()
    assert set(table) == set(SYMBOLS)
    for symbol in SYMBOLS:
        op = local_observable(symbol)
        assert not op.flags.writeable
        assert op.tobytes() == table[symbol].tobytes(), symbol


@pytest.mark.parametrize("symbol", ["zAzA'xAxA'", "yA"])
def test_a_name_outside_the_twelve_symbols_is_unknown(symbol):
    with pytest.raises(KeyError, match="unknown observable symbol"):
        local_observable(symbol)


def test_the_symbols_are_one_table_for_lhv_and_observables():
    assert lhv.SYMBOLS is SYMBOLS
