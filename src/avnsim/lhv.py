"""Exhaustive audit of deterministic local-element-of-reality assignments.

The twelve local SYMBOLS, read from _tables and enumerated in their
order, carry pre-assigned values +-1.  Crucially, the product variables
(zAzA', xAxA', zBxB', xBzB') are independent symbols: nowhere is
m(zAzA') = m(zA) * m(zA') assumed, because each product is read out by
its own device and never together with its factors.  Reproducing
the nine perfect quantum correlations forces nine multiplicative
constraints on the twelve values, read from the nine CORRELATIONS
(factor symbols and predicted sign).  This module records, for each of
the 2^12 assignments, the set of constraints it violates, as one table
of bit sets per constraint system, built once and read by the audit,
the bound and the LR histogram alike; the audit and the bound share one
count of each row's violations.  It certifies that the system is
contradictory by a GF(2) rank test (every symbol appears an even number
of times across the nine left-hand sides, so their product is +1, while
the required signs multiply to -1: no assignment meets all nine, so no
set is empty).  An assignment violating |V| of n constraints meets
k = n - |V| of them and scores n - 2|V| on the Bell quantity.

Everything here is exact integer arithmetic in plain Python; no floating
point touches the certificate, and the module does not import numpy.
"""

import functools
import itertools
from collections import Counter, namedtuple
from collections.abc import Iterator, Sequence

from ._tables import CORRELATION_IDS, CORRELATIONS, SYMBOLS, _index_bits

_SYMBOL_INDEX = {s: i for i, s in enumerate(SYMBOLS)}

Assignment = tuple[int, ...]


Constraint = namedtuple("Constraint", "index symbols required")


# constraint k demands that correlation k's factors multiply to its sign
CONSTRAINTS: tuple[Constraint, ...] = tuple(
    Constraint(k, tuple(symbol for _, symbol in corr.factors), corr.sign)
    for k, corr in enumerate(CORRELATIONS, start=1)
)
_M = CORRELATION_IDS.index("M")


def with_flipped_sign(k: int, constraints: Sequence[Constraint] = CONSTRAINTS) -> tuple[Constraint, ...]:
    """The same system with constraint k's required sign negated."""
    if all(c.index != k for c in constraints):
        raise ValueError(f"no constraint has index {k}")
    return tuple(
        Constraint(c.index, c.symbols, -c.required) if c.index == k else c for c in constraints
    )


def without_constraint(k: int, constraints: Sequence[Constraint] = CONSTRAINTS) -> tuple[Constraint, ...]:
    """The system with constraint k removed."""
    if all(c.index != k for c in constraints):
        raise ValueError(f"no constraint has index {k}")
    return tuple(c for c in constraints if c.index != k)


def assignment_from_dict(values: dict[str, int]) -> Assignment:
    if set(values) != set(SYMBOLS):
        missing = set(SYMBOLS) - set(values)
        extra = set(values) - set(SYMBOLS)
        raise ValueError(f"assignment symbols mismatch (missing {sorted(missing)}, extra {sorted(extra)})")
    out = tuple(int(values[s]) for s in SYMBOLS)
    if any(v not in (-1, 1) for v in out):
        raise ValueError("assignment values must be +-1")
    return out


def value_of(assignment: Assignment, symbol: str) -> int:
    return assignment[_SYMBOL_INDEX[symbol]]


def enumerate_assignments() -> Iterator[Assignment]:
    """All 4096 assignments, lexicographic with +1 before -1 per symbol."""
    return itertools.product((1, -1), repeat=len(SYMBOLS))


def _encode(constraints: Sequence[Constraint]) -> tuple[int, tuple[int, ...]]:
    """The system over GF(2): its sign word and one flip word per symbol.

    Bit k of the sign word is set when constraint k requires -1: it is the
    violated set of the all-+1 assignment.  Bit k of a symbol's flip word
    is set when the symbol is a factor of constraint k an odd number of
    times (a symbol listed twice cancels), so negating it toggles those.
    A symbol outside SYMBOLS would have no flip word, so it is refused.
    """
    unknown = [s for c in constraints for s in c.symbols if s not in _SYMBOL_INDEX]
    if unknown:
        raise KeyError(f"unknown observable symbol {unknown[0]!r}")
    sign = sum(1 << k for k, c in enumerate(constraints) if c.required == -1)
    flips = tuple(sum(c.symbols.count(s) % 2 << k for k, c in enumerate(constraints)) for s in SYMBOLS)
    return sign, flips


def _violations(constraints: Sequence[Constraint]) -> tuple[int, ...]:
    """Violated-constraint set of every assignment, in enumerate_assignments() order.

    Bit k of an entry is set when that assignment violates constraint k.
    Starting from the all-+1 assignment, each symbol from the last to the
    first doubles the list, toggling its flip word on the new half.  The
    last system's table is kept, keyed on a hashable copy of the system.
    """
    return _doubled(tuple(Constraint(c.index, tuple(c.symbols), c.required) for c in constraints))


@functools.lru_cache(maxsize=1)
def _doubled(constraints: tuple[Constraint, ...]) -> tuple[int, ...]:
    sign, flips = _encode(constraints)
    rows = [sign]
    for flip in reversed(flips):
        rows += [r ^ flip for r in rows]
    return tuple(rows)


_SIGN = {"0": 1, "1": -1}


def _assignment(row: int) -> Assignment:
    """Row `row` of enumerate_assignments(): symbol 0 is the most significant bit, 1 means -1."""
    return tuple(map(_SIGN.__getitem__, format(row, f"0{len(SYMBOLS)}b")))


def _scored(assignment: Assignment, constraints: Sequence[Constraint]) -> tuple[tuple[bool, ...], int]:
    """Which constraints the assignment meets, and its Bell quantity, from one
    product of the factors' values per constraint, recomputed symbol by symbol."""
    flags, bell = [], 0
    for c in constraints:
        p = 1
        for s in c.symbols:
            p *= assignment[_SYMBOL_INDEX[s]]
        flags.append(p == c.required)
        bell += c.required * p
    return tuple(flags), bell


ConstraintReport = namedtuple("ConstraintReport", "satisfied satisfied_count")


def check_constraints(assignment: Assignment, constraints: Sequence[Constraint] = CONSTRAINTS) -> ConstraintReport:
    flags, _ = _scored(assignment, constraints)
    return ConstraintReport(flags, sum(flags))


def bell_quantity(assignment: Assignment, constraints: Sequence[Constraint] = CONSTRAINTS) -> int:
    """Signed sum of the constraint products; +1 per satisfied, -1 per violated."""
    return _scored(assignment, constraints)[1]


AvnAudit = namedtuple("AvnAudit", "all_nine_count max_satisfied assignments_at_max histogram")  # histogram by satisfied_count
LrBound = namedtuple("LrBound", "max_value min_value argmax_assignments")


def _audit_and_bound(constraints: Sequence[Constraint]) -> tuple[AvnAudit, LrBound]:
    """Both summaries of the violated-set table, from one count of each row's violations."""
    n = len(constraints)
    sizes = list(map(int.bit_count, _violations(constraints)))
    by_size = Counter(sizes)
    histogram = tuple(by_size[n - k] for k in range(n + 1))
    met = [k for k, count in enumerate(histogram) if count]  # the satisfied counts that occur, ascending
    best, worst = met[-1], met[0]
    row = -1  # the rows that meet `best`, found in order by the list's own search
    argmax = [row := sizes.index(n - best, row + 1) for _ in range(histogram[best])]
    audit = AvnAudit(all_nine_count=histogram[n], max_satisfied=best, assignments_at_max=histogram[best], histogram=histogram)
    return audit, LrBound(max_value=2 * best - n, min_value=2 * worst - n, argmax_assignments=tuple(map(_assignment, argmax)))


def avn_audit(constraints: Sequence[Constraint] = CONSTRAINTS) -> AvnAudit:
    """Full-enumeration summary of how many constraints each assignment meets."""
    return _audit_and_bound(constraints)[0]


def lr_bound(constraints: Sequence[Constraint] = CONSTRAINTS) -> LrBound:
    """Extremes of the Bell quantity over all deterministic assignments."""
    return _audit_and_bound(constraints)[1]


def parity_witness(constraints: Sequence[Constraint] = CONSTRAINTS) -> bool:
    """True when the constraint system is algebraically contradictory.

    Writing each value as (-1)^bit, the system is A x = b over GF(2) with
    the flip words as the columns of A and the sign word as b.  It has no
    solution, i.e. rank [A|b] > rank A, exactly when the sign word is not
    in the span of the flip words: it does not reduce to 0 below.
    """
    sign, flips = _encode(constraints)
    basis: dict[int, int] = {}  # leading bit -> flip word reduced by the earlier ones
    for word in (*flips, sign):
        while word and word.bit_length() - 1 in basis:
            word ^= basis[word.bit_length() - 1]
        if word:
            basis[word.bit_length() - 1] = word
    return word != 0  # the sign word, reduced: not 0 means outside the span


def non_m_satisfying_assignments() -> tuple[Assignment, ...]:
    """Assignments reproducing the eight non-M perfect correlations: no violation but M's."""
    others = ~(1 << _M)
    rows = _violations(CONSTRAINTS)
    return tuple(_assignment(row) for row, violated in enumerate(rows) if not violated & others)


def lr_m_histogram() -> tuple[float, ...]:
    """Predicted distribution of the four setting-c readouts under LR.

    Local realism committed to the eight non-M correlations pins the
    admissible assignments; their (zAzA', xAxA', zBxB', xBzB') tuples give
    the 16-bin histogram, each bin the readout bits (_tables) of the
    symbols valued -1.  The support sits entirely on even-product
    outcomes, the exact complement of the quantum prediction.
    """
    admissible = non_m_satisfying_assignments()
    counts = [0] * 16
    for a in admissible:
        counts[_index_bits(f for f in CORRELATIONS[_M].factors if value_of(a, f[1]) < 0)] += 1
    return tuple(c / len(admissible) for c in counts)


def certificate() -> dict:
    """Machine-readable contradiction certificate for the CLI."""
    audit, bound = _audit_and_bound(CONSTRAINTS)
    witness = parity_witness()
    # recomputed symbol by symbol, not read from the violated-set table, on
    # each published maximiser: Bell = 2k - 9 = the bound
    identity_ok = all(
        bell == 2 * sum(flags) - 9 == bound.max_value
        for flags, bell in (_scored(a, CONSTRAINTS) for a in bound.argmax_assignments)
    )
    checks = {
        "no_assignment_satisfies_all_nine": audit.all_nine_count == 0,
        "max_satisfied_is_eight": audit.max_satisfied == 8,
        "lr_bound_is_seven": bound.max_value == 7,
        "parity_witness": witness,
        "bell_identity_2k_minus_9": identity_ok,
    }
    return {
        "constraints": [
            {"index": c.index, "symbols": list(c.symbols), "required_sign": c.required}
            for c in CONSTRAINTS
        ],
        "assignment_count": 2 ** len(SYMBOLS),
        "all_nine_count": audit.all_nine_count,
        "max_satisfied": audit.max_satisfied,
        "assignments_at_max": audit.assignments_at_max,
        "histogram_by_satisfied_count": list(audit.histogram),
        "lr_bound": {
            "max_value": bound.max_value,
            "min_value": bound.min_value,
            "argmax_count": len(bound.argmax_assignments),
            "argmax_assignments": [list(a) for a in bound.argmax_assignments],
        },
        "parity_witness": witness,
        "lr_m_histogram": list(lr_m_histogram()),
        "checks": checks,
        "ok": all(checks.values()),
    }
