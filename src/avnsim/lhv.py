"""Exhaustive audit of deterministic local-element-of-reality assignments.

Twelve local variables carry pre-assigned values +-1.  Crucially, the
product variables (zAzA', xAxA', zBxB', xBzB') are independent symbols:
nowhere is m(zAzA') = m(zA) * m(zA') assumed, because each product is read
out by its own device and never together with its factors.  Reproducing
the nine perfect quantum correlations forces nine multiplicative
constraints on the twelve values, read from observables.CORRELATIONS
(factor symbols and predicted sign); this module audits all 2^12
assignments through one exact int8 table of constraint products and
certifies that the constraint system is contradictory by a GF(2) rank
test (every symbol appears an even number of times across the nine
left-hand sides, so their product is +1, while the required signs
multiply to -1: no assignment meets all nine).

Everything here is exact integer arithmetic; no floating point touches
the certificate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .observables import CORRELATION_IDS, CORRELATIONS

SYMBOLS: tuple[str, ...] = (
    "zA",
    "xA",
    "zA'",
    "xA'",
    "zAzA'",
    "xAxA'",
    "zB",
    "xB",
    "zB'",
    "xB'",
    "zBxB'",
    "xBzB'",
)

_SYMBOL_INDEX = {s: i for i, s in enumerate(SYMBOLS)}

Assignment = tuple[int, ...]


@dataclass(frozen=True)
class Constraint:
    index: int
    symbols: tuple[str, ...]
    required: int


# constraint k demands that correlation k's factors multiply to its sign
CONSTRAINTS: tuple[Constraint, ...] = tuple(
    Constraint(k, tuple(symbol for _, symbol in corr.factors), corr.sign)
    for k, corr in enumerate(CORRELATIONS, start=1)
)
_M_CONSTRAINT = CONSTRAINTS[CORRELATION_IDS.index("M")]
_M_SYMBOLS = _M_CONSTRAINT.symbols


def with_flipped_sign(k: int, constraints: Sequence[Constraint] = CONSTRAINTS) -> tuple[Constraint, ...]:
    """The same system with constraint k's required sign negated."""
    return tuple(
        Constraint(c.index, c.symbols, -c.required) if c.index == k else c for c in constraints
    )


def without_constraint(k: int, constraints: Sequence[Constraint] = CONSTRAINTS) -> tuple[Constraint, ...]:
    """The system with constraint k removed."""
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


@lru_cache(maxsize=None)
def _sign_matrix() -> np.ndarray:
    """Read-only int8 (4096, 12) matrix of all assignments, rows in enumerate_assignments() order."""
    shifts = np.arange(len(SYMBOLS) - 1, -1, -1, dtype=np.int16)
    bits = (np.arange(2 ** len(SYMBOLS), dtype=np.int16)[:, None] >> shifts) & 1
    signs = (1 - 2 * bits).astype(np.int8)
    signs.setflags(write=False)
    return signs


def _audit_table(constraints: Sequence[Constraint]) -> tuple[np.ndarray, np.ndarray]:
    """Satisfied count and Bell quantity of every assignment, in _sign_matrix() row order.

    The (4096, n) table of constraint products is int8, which is exact:
    every entry is a product of +-1 values.
    """
    signs = _sign_matrix()
    products = np.ones((len(signs), len(constraints)), dtype=np.int8)
    for k, c in enumerate(constraints):
        products[:, k] = signs[:, [_SYMBOL_INDEX[s] for s in c.symbols]].prod(axis=1, dtype=np.int8)
    required = np.array([c.required for c in constraints], dtype=np.int8)
    return (products == required).sum(axis=1), (products * required).sum(axis=1)


def _constraint_product(assignment: Assignment, constraint: Constraint) -> int:
    p = 1
    for s in constraint.symbols:
        p *= assignment[_SYMBOL_INDEX[s]]
    return p


@dataclass(frozen=True)
class ConstraintReport:
    satisfied: tuple[bool, ...]
    satisfied_count: int


def check_constraints(assignment: Assignment, constraints: Sequence[Constraint] = CONSTRAINTS) -> ConstraintReport:
    flags = tuple(_constraint_product(assignment, c) == c.required for c in constraints)
    return ConstraintReport(flags, sum(flags))


def bell_quantity(assignment: Assignment, constraints: Sequence[Constraint] = CONSTRAINTS) -> int:
    """Signed sum of the constraint products; +1 per satisfied, -1 per violated."""
    return sum(c.required * _constraint_product(assignment, c) for c in constraints)


@dataclass(frozen=True)
class AvnAudit:
    all_nine_count: int
    max_satisfied: int
    assignments_at_max: int
    histogram: tuple[int, ...]  # indexed by satisfied_count


def avn_audit(constraints: Sequence[Constraint] = CONSTRAINTS) -> AvnAudit:
    """Full-enumeration summary of how many constraints each assignment meets."""
    n = len(constraints)
    histogram = np.bincount(_audit_table(constraints)[0], minlength=n + 1).tolist()
    max_satisfied = max(k for k, count in enumerate(histogram) if count > 0)
    return AvnAudit(
        all_nine_count=histogram[n],
        max_satisfied=max_satisfied,
        assignments_at_max=histogram[max_satisfied],
        histogram=tuple(histogram),
    )


@dataclass(frozen=True)
class LrBound:
    max_value: int
    min_value: int
    argmax_assignments: tuple[Assignment, ...]


def lr_bound(constraints: Sequence[Constraint] = CONSTRAINTS) -> LrBound:
    """Extremes of the Bell quantity over all deterministic assignments."""
    values = _audit_table(constraints)[1]
    best = int(values.max())
    argmax = tuple(map(tuple, _sign_matrix()[values == best].tolist()))
    return LrBound(max_value=best, min_value=int(values.min()), argmax_assignments=argmax)


def parity_witness(constraints: Sequence[Constraint] = CONSTRAINTS) -> bool:
    """True when the constraint system is algebraically contradictory.

    Writing each value as (-1)^bit, constraint k is the GF(2) equation
    "the bits of its symbols sum to its sign bit".  Gaussian elimination
    over the rows [A|b] finds a row reduced to 0 = 1 exactly when
    rank [A|b] > rank A, i.e. when no assignment satisfies every row.
    """
    sign_bit = 1 << len(SYMBOLS)
    lhs = sign_bit - 1
    pivots: dict[int, int] = {}  # leading symbol bit -> reduced row
    for c in constraints:
        row = sign_bit if c.required == -1 else 0
        for s in c.symbols:
            row ^= 1 << _SYMBOL_INDEX[s]
        while row & lhs:
            lead = (row & lhs).bit_length() - 1
            if lead not in pivots:
                pivots[lead] = row
                break
            row ^= pivots[lead]
        if row == sign_bit:  # reduced to 0 = 1
            return True
    return False


def non_m_satisfying_assignments() -> tuple[Assignment, ...]:
    """Assignments reproducing the eight non-M perfect correlations."""
    non_m = without_constraint(_M_CONSTRAINT.index)
    admissible = _audit_table(non_m)[0] == len(non_m)
    return tuple(map(tuple, _sign_matrix()[admissible].tolist()))


def lr_m_histogram() -> tuple[float, ...]:
    """Predicted distribution of the four setting-c readouts under LR.

    Local realism committed to the eight non-M correlations pins the
    admissible assignments; their (zAzA', xAxA', zBxB', xBzB') tuples give
    the 16-bin histogram (bit +1 maps to 0, same indexing as the counting
    module).  The support sits entirely on even-product outcomes, the
    exact complement of the quantum prediction.
    """
    admissible = np.array(non_m_satisfying_assignments())
    minus = admissible[:, [_SYMBOL_INDEX[s] for s in _M_SYMBOLS]] < 0
    counts = np.bincount(minus @ np.array([8, 4, 2, 1]), minlength=16).tolist()
    return tuple(c / len(admissible) for c in counts)


def certificate() -> dict:
    """Machine-readable contradiction certificate for the CLI."""
    audit = avn_audit()
    bound = lr_bound()
    witness = parity_witness()
    satisfied, values = _audit_table(CONSTRAINTS)
    identity_ok = bool(np.array_equal(values, 2 * satisfied - 9))
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
