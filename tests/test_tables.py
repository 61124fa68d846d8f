"""The basis layout and the symbol grammar that _tables states once for both paths."""

import pytest

from avnsim import _frame, _tables
from avnsim.observables import SYMBOLS, local_observable
from avnsim.qstate import Dof, Party


@pytest.mark.parametrize("symbol", SYMBOLS)
def test_each_symbols_parsed_factors_join_back_into_the_symbol(symbol):
    letter = {Party.ALICE: "A", Party.BOB: "B"}
    prime = {Dof.POL: "", Dof.PATH: "'"}
    factors = _tables._factors(symbol)
    assert "".join(pauli + letter[party] + prime[dof] for pauli, (party, dof) in factors) == symbol


@pytest.mark.parametrize("symbol", ["zC", "zA''", "zAzB", "", "ZA"])
def test_both_paths_reject_an_unknown_symbol_with_the_same_key_error(symbol):
    with pytest.raises(KeyError) as frame_error:
        _frame.word(symbol)
    with pytest.raises(KeyError) as dense_error:
        local_observable(symbol)
    assert str(frame_error.value) == str(dense_error.value) == repr(f"unknown observable symbol {symbol!r}")


def test_the_source_slots_are_the_indices_of_its_four_kets():
    H = R = 0
    V = L = 1

    def index(pol_a, path_a, pol_b, path_b):
        return 8 * pol_a + 4 * path_a + 2 * pol_b + path_b

    kets = [index(H, R, V, L), index(H, L, V, R), index(V, R, H, L), index(V, L, H, R)]
    assert _tables._SOURCE_SLOTS == tuple(kets) == (3, 6, 9, 12)
    assert (_tables._POL, _tables._PATH) == (0b1010, 0b0101)
