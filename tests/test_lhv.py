import random

import numpy as np
import pytest

from avnsim import lhv
from avnsim.observables import local_observable
from avnsim.lhv import (
    CONSTRAINTS,
    SYMBOLS,
    Constraint,
    assignment_from_dict,
    avn_audit,
    bell_quantity,
    certificate,
    check_constraints,
    enumerate_assignments,
    lr_bound,
    lr_m_histogram,
    non_m_satisfying_assignments,
    parity_witness,
    value_of,
    with_flipped_sign,
    without_constraint,
)

# frozen regression constants, produced by this module's own enumeration on
# first run and cross-checked by the rank argument in tests/test_exact_proofs.py
HISTOGRAM = (16, 0, 576, 0, 2016, 0, 1344, 0, 144, 0)
ASSIGNMENTS_AT_MAX = 144


def eval_constraint(assignment, symbols, required):
    p = 1
    for s in symbols:
        p *= assignment[SYMBOLS.index(s)]
    return p == required


class TestEnumeration:
    def test_yields_4096_unique_assignments(self):
        seen = set(enumerate_assignments())
        assert len(seen) == 4096

    def test_first_assignment_is_all_plus_one(self):
        assert next(iter(enumerate_assignments())) == (1,) * 12

    def test_values_are_plus_minus_one(self):
        for a in enumerate_assignments():
            assert all(v in (-1, 1) for v in a)
            break


class TestCheckConstraints:
    def test_all_plus_one_assignment(self):
        report = check_constraints((1,) * 12)
        assert report.satisfied == (False, False, False, False, True, True, True, True, False)
        assert report.satisfied_count == 4

    def test_listed_assignment_against_independent_evaluation(self):
        # evaluated symbol by symbol, independently of the module tables
        values = {
            "zA": +1, "zB": -1, "zA'": +1, "zB'": -1,
            "xA": +1, "xB": -1, "xA'": +1, "xB'": -1,
            "zAzA'": +1, "xAxA'": +1, "zBxB'": -1, "xBzB'": -1,
        }
        a = assignment_from_dict(values)
        expected = [eval_constraint(a, c.symbols, c.required) for c in CONSTRAINTS]
        report = check_constraints(a)
        assert report.satisfied == tuple(expected)
        # anticorrelated singles satisfy 1-4 and force 5-6, but the negative
        # product entries break 7-8 and the parity constraint: count is 6
        assert report.satisfied_count == 6

    def test_a_maximal_assignment_exists(self):
        values = {
            "zA": +1, "zB": -1, "zA'": +1, "zB'": -1,
            "xA": +1, "xB": -1, "xA'": +1, "xB'": -1,
            "zAzA'": +1, "xAxA'": +1, "zBxB'": +1, "xBzB'": +1,
        }
        report = check_constraints(assignment_from_dict(values))
        assert report.satisfied_count == 8
        assert report.satisfied[8] is False  # only the parity constraint fails

    def test_no_assignment_satisfies_more_than_eight(self):
        assert all(check_constraints(a).satisfied_count <= 8 for a in enumerate_assignments())


class TestAvnAudit:
    def test_counts(self):
        audit = avn_audit()
        assert audit.all_nine_count == 0
        assert audit.max_satisfied == 8
        assert audit.assignments_at_max == ASSIGNMENTS_AT_MAX
        assert audit.histogram == HISTOGRAM
        assert sum(audit.histogram) == 4096


class TestLrBound:
    def test_max_is_seven(self):
        assert lr_bound().max_value == 7

    def test_min_by_enumeration(self):
        # flipping the four product symbols of the all-plus assignment
        # violates all nine constraints at once, so the enumerated minimum
        # is -9 (every term of the Bell quantity contributes -1)
        worst = {s: 1 for s in SYMBOLS}
        for s in ("zAzA'", "xAxA'", "zBxB'", "xBzB'"):
            worst[s] = -1
        assert bell_quantity(assignment_from_dict(worst)) == -9
        assert lr_bound().min_value == -9

    def test_every_argmax_satisfies_eight(self):
        bound = lr_bound()
        assert len(bound.argmax_assignments) == ASSIGNMENTS_AT_MAX
        for a in bound.argmax_assignments:
            assert check_constraints(a).satisfied_count == 8

    def test_bell_identity_for_all_assignments(self):
        for a in enumerate_assignments():
            assert bell_quantity(a) == 2 * check_constraints(a).satisfied_count - 9


class TestParityWitness:
    def test_true_for_the_nine_constraints(self):
        assert parity_witness() is True

    def test_flipping_the_ninth_sign_dissolves_the_contradiction(self):
        modified = with_flipped_sign(9)
        assert parity_witness(modified) is False
        audit = avn_audit(modified)
        assert audit.all_nine_count == 16
        assert audit.max_satisfied == 9

    def test_removing_any_constraint_admits_solutions(self):
        for k in range(1, 10):
            reduced = without_constraint(k)
            assert parity_witness(reduced) is False
            audit = avn_audit(reduced)
            assert audit.max_satisfied == len(reduced)
            assert audit.all_nine_count == 16  # count of assignments meeting all 8

    def test_contradiction_with_a_symbol_seen_once(self):
        # zA = +1 and zA = -1 already clash; xA appears once, so a parity
        # count over all symbols misses it
        system = (Constraint(1, ("zA",), 1), Constraint(2, ("zA",), -1), Constraint(3, ("xA",), 1))
        assert avn_audit(system).all_nine_count == 0
        assert parity_witness(system) is True

    def test_agrees_with_enumeration_on_random_systems(self):
        rng = random.Random(20260)
        outcomes = set()
        for _ in range(300):
            system = tuple(
                Constraint(k, tuple(rng.sample(SYMBOLS, rng.randint(1, 4))), rng.choice((1, -1)))
                for k in range(1, rng.randint(2, 14))
            )
            contradictory = avn_audit(system).all_nine_count == 0
            assert parity_witness(system) is contradictory, system
            outcomes.add(contradictory)
        assert outcomes == {True, False}


class TestLrMHistogram:
    def test_sixteen_admissible_assignments(self):
        admissible = non_m_satisfying_assignments()
        assert len(admissible) == 16
        for a in admissible:
            prod = 1
            for s in ("zAzA'", "xAxA'", "zBxB'", "xBzB'"):
                prod *= value_of(a, s)
            assert prod == +1

    def test_uniform_on_even_product_outcomes(self):
        hist = np.asarray(lr_m_histogram())
        bits = np.array([[1 - 2 * ((i >> b) & 1) for b in (3, 2, 1, 0)] for i in range(16)])
        products = bits.prod(axis=1)
        assert np.allclose(hist[products > 0], 1.0 / 8.0)
        assert np.allclose(hist[products < 0], 0.0)
        assert hist.sum() == pytest.approx(1.0)


def test_certificate_document():
    cert = certificate()
    assert cert["ok"] is True
    assert cert["all_nine_count"] == 0
    assert cert["max_satisfied"] == 8
    assert cert["lr_bound"]["max_value"] == 7
    assert cert["lr_bound"]["argmax_count"] == ASSIGNMENTS_AT_MAX
    assert sum(cert["histogram_by_satisfied_count"]) == 4096
    assert len(cert["constraints"]) == 9


def test_bell_identity_check_fails_on_a_misordered_table(monkeypatch):
    # doubling from the first symbol instead of the last files each violated
    # set under the wrong assignment; the check recomputes the maximisers'
    # products symbol by symbol, so it must notice
    def misordered(constraints):
        sign, flips = lhv._encode(constraints)
        rows = [sign]
        for flip in flips:
            rows += [r ^ flip for r in rows]
        return rows

    monkeypatch.setattr(lhv, "_violations", misordered)
    assert certificate()["checks"]["bell_identity_2k_minus_9"] is False


def test_assignment_from_dict_validation():
    with pytest.raises(ValueError):
        assignment_from_dict({s: 1 for s in SYMBOLS[:-1]})
    bad = {s: 1 for s in SYMBOLS}
    bad["zA"] = 2
    with pytest.raises(ValueError):
        assignment_from_dict(bad)


def _loop_reference(constraints):
    """The per-assignment loops the product table replaced."""
    histogram = [0] * (len(constraints) + 1)
    values = {}
    for a in enumerate_assignments():
        histogram[check_constraints(a, constraints).satisfied_count] += 1
        values[a] = bell_quantity(a, constraints)
    best = max(values.values())
    argmax = tuple(a for a, v in values.items() if v == best)
    return tuple(histogram), best, min(values.values()), argmax


@pytest.mark.parametrize(
    "constraints",
    [CONSTRAINTS, with_flipped_sign(9)] + [without_constraint(k) for k in range(1, 10)],
    ids=["nine", "flipped_9"] + [f"without_{k}" for k in range(1, 10)],
)
def test_product_table_equals_the_assignment_loop(constraints):
    histogram, best, worst, argmax = _loop_reference(constraints)
    assert avn_audit(constraints).histogram == histogram
    bound = lr_bound(constraints)
    assert (bound.max_value, bound.min_value) == (best, worst)
    assert bound.argmax_assignments == argmax


def test_product_table_equals_the_assignment_loop_with_repeated_or_no_symbols():
    # a symbol listed twice cancels, since its value squares to +1
    rng = random.Random(8)
    systems = [(), (Constraint(1, ("zA", "zA"), -1),)]
    for _ in range(8):
        systems.append(tuple(
            Constraint(k, tuple(rng.choices(SYMBOLS[:4], k=rng.randint(2, 5))), rng.choice((1, -1)))
            for k in range(1, 5)
        ))
    for system in systems:
        histogram, best, worst, argmax = _loop_reference(system)
        assert avn_audit(system).histogram == histogram, system
        bound = lr_bound(system)
        assert (bound.max_value, bound.min_value, bound.argmax_assignments) == (best, worst, argmax), system


def test_non_m_assignments_equal_the_assignment_loop():
    non_m = without_constraint(9)
    expected = tuple(
        a for a in enumerate_assignments() if check_constraints(a, non_m).satisfied_count == 8
    )
    assert non_m_satisfying_assignments() == expected


def test_symbols_are_the_constraint_symbols_and_local_observables():
    assert set(SYMBOLS) == {s for c in CONSTRAINTS for s in c.symbols}
    for s in SYMBOLS:
        assert local_observable(s).shape == (16, 16)


def test_the_certificate_builds_the_table_once(monkeypatch):
    # one _encode for the shared table and one for the parity witness; a
    # second certificate reuses the table and encodes only for the witness
    calls = []
    encode = lhv._encode

    def counted(constraints):
        calls.append(len(constraints))
        return encode(constraints)

    monkeypatch.setattr(lhv, "_encode", counted)
    lhv._doubled.cache_clear()
    first = certificate()
    assert len(calls) == 2
    assert certificate() == first
    assert len(calls) == 3


def test_lists_give_the_same_results_as_tuples():
    listed = list(CONSTRAINTS)
    list_symbols = [Constraint(c.index, list(c.symbols), c.required) for c in CONSTRAINTS]
    a = next(iter(enumerate_assignments()))
    for system in (listed, list_symbols):
        assert avn_audit(system) == avn_audit(CONSTRAINTS)
        assert lr_bound(system) == lr_bound(CONSTRAINTS)
        assert parity_witness(system) == parity_witness(CONSTRAINTS)
        assert check_constraints(a, system) == check_constraints(a, CONSTRAINTS)
        assert bell_quantity(a, system) == bell_quantity(a, CONSTRAINTS)
        assert avn_audit(with_flipped_sign(9, system)) == avn_audit(with_flipped_sign(9))
        assert lr_bound(without_constraint(4, system)) == lr_bound(without_constraint(4))


def test_alternating_systems_read_their_own_tables():
    flipped = with_flipped_sign(9)
    counts = []
    for _ in range(5):
        counts += [avn_audit().all_nine_count, avn_audit(flipped).all_nine_count]
    assert counts == [0, 16] * 5


@pytest.mark.parametrize("k", [0, 10])
@pytest.mark.parametrize("derive", [with_flipped_sign, without_constraint], ids=lambda f: f.__name__)
def test_an_unknown_constraint_index_is_refused(derive, k):
    with pytest.raises(ValueError, match=f"index {k}"):
        derive(k)


def _with_symbol_renamed(old, new):
    return tuple(Constraint(c.index, tuple(new if s == old else s for s in c.symbols), c.required) for c in CONSTRAINTS)


@pytest.mark.parametrize("read", [avn_audit, lr_bound, parity_witness], ids=lambda f: f.__name__)
def test_a_symbol_outside_symbols_is_refused(read):
    # an unknown symbol has no flip word, so it would act as a constant +1
    # that no assignment flips: each encoded reader must refuse the system,
    # as check_constraints and bell_quantity do
    typo = _with_symbol_renamed("zA", "zA_typo")
    with pytest.raises(KeyError, match="unknown observable symbol 'zA_typo'"):
        read(typo)
    a = next(iter(enumerate_assignments()))
    with pytest.raises(KeyError):
        check_constraints(a, typo)
    with pytest.raises(KeyError):
        bell_quantity(a, typo)
    assert read(CONSTRAINTS) == read()
