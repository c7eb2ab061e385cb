"""Per-element reference for the formula characterisations.

This is the library's earlier, element-at-a-time implementation of the
omega powers and of formula_characterizations: one power sequence per
element and one Python call per (x, y) pair.  It is kept only so tests can
check the whole-array version against it, witnesses included.
"""

from __future__ import annotations

from dataclasses import dataclass

from semigroup_match import (
    CharacterizationReport,
    ClauseResult,
    MulTable,
    classify,
    inverse_matrix,
    verify_matching,
)


@dataclass(frozen=True)
class OmegaData:
    """The idempotent power a^omega and its companion a^(omega-1).

    omega_minus_one is a^k for the least positive k with a^(k+1) = a^omega.
    index and period describe the eventual cycle of the power sequence:
    a^(index + period) = a^index with both minimal.
    """

    omega: int
    omega_minus_one: int
    index: int
    period: int


def omega_data(table: MulTable, a: int) -> OmegaData:
    """Index, period, and the omega / omega-minus-one powers of a.

    a^omega is a^m for the least multiple m of the period with m >= index;
    a^(omega-1) is a^(m-1), except for an idempotent (m = 1) where it is a
    itself: the least positive power whose product with a gives a^omega.
    """
    n = table.n
    prod = table.product
    seq = [a]
    pos = {a: 1}
    x = a
    for k in range(2, n + 2):
        x = int(prod[x, a])
        if x in pos:
            index = pos[x]
            period = k - pos[x]
            break
        seq.append(x)
        pos[x] = k
    else:
        raise RuntimeError("power sequence failed to cycle")
    m = ((index + period - 1) // period) * period
    omega = seq[m - 1]
    k = max(m - 1, 1)
    omega_minus_one = seq[k - 1]
    return OmegaData(omega=omega, omega_minus_one=omega_minus_one, index=index, period=period)


def power_by_loop(table: MulTable, a: int, k: int) -> int:
    """a^k for k >= 1, one factor of a at a time."""
    x = a
    for _ in range(k - 1):
        x = table.mul(x, a)
    return x


def _map_matches(table: MulTable, f):
    check = verify_matching(table, f)
    if check.ok:
        return True, None
    return False, (check.element,) if check.element is not None else None


def _two_variable_check(table: MulTable, formula):
    """Evaluate f_y(x) = formula(x, y); demand y-independence plus a matching.

    Returns (ok, witness) where a y-dependence witness is the pair (x, y)
    whose value first differs from the y = 0 map.
    """
    n = table.n
    base = [formula(x, 0) for x in range(n)]
    for y in range(1, n):
        for x in range(n):
            if formula(x, y) != base[x]:
                return False, (x, y)
    return _map_matches(table, base)


def reference_characterizations(table: MulTable, k=None) -> CharacterizationReport:
    """formula_characterizations, one element and one (x, y) pair at a time."""
    n = table.n
    mul = table.mul
    flags = classify(table)
    om = [omega_data(table, a) for a in range(n)]
    omega = [d.omega for d in om]
    om1 = [d.omega_minus_one for d in om]
    v = inverse_matrix(table)
    clauses = []

    left, witness = _map_matches(table, om1)
    clauses.append(ClauseResult("completely_regular", left, flags.completely_regular, witness))

    left, witness = _two_variable_check(
        table, lambda x, y: mul(om1[x], omega[mul(mul(x, y), x)])
    )
    clauses.append(ClauseResult("completely_simple", left, flags.completely_simple, witness))

    left, witness = _two_variable_check(
        table, lambda x, y: mul(mul(omega[y], om1[x]), omega[y])
    )
    clauses.append(ClauseResult("group", left, flags.group, witness))

    if k is not None:
        if k < 1:
            raise ValueError("power identity needs k >= 1")
        powers = [power_by_loop(table, x, k) for x in range(n)]
        left, witness = _map_matches(table, powers)
        right = all(power_by_loop(table, x, k + 2) == x for x in range(n))
        clauses.append(ClauseResult(f"power_identity_k{k}", left, right, witness))

    for name, holds in (("rectangular_band", v.all(axis=1)), ("self_inverse", v.diagonal())):
        left = bool(holds.all())
        witness = None if left else (int(holds.argmin()),)
        clauses.append(ClauseResult(name, left, getattr(flags, name), witness))

    return CharacterizationReport(clauses=tuple(clauses))
