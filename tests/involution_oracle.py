"""Backtracking search for involution matchings: a small-input test oracle.

This is the exhaustive search the library used before Edmonds' blossom
algorithm replaced it.  Tests cross-check the two on small tables; the
search is exponential, so keep its inputs small.
"""

from __future__ import annotations

from dataclasses import dataclass

from semigroup_match import Matching, MulTable, inverse_sets


@dataclass(frozen=True)
class OracleExhausted:
    """The whole search tree was explored without finding a matching."""

    nodes: int


def involution_oracle(table: MulTable):
    """Matching (provenance "brute_force_involution") or OracleExhausted.

    An involution matching is a perfect matching of the graph joining
    mutually inverse elements, with fixed points allowed at a = a^3.
    Elements are processed in order of fewest inverses; assignments keep a
    live count of remaining candidates per element and backtrack as soon as
    one hits zero.  Recursion depth grows with the table, which must stay
    well under the interpreter's recursion limit.
    """
    n = table.n
    v = inverse_sets(table)
    if any(not v[a] for a in range(n)):
        return OracleExhausted(nodes=0)
    order = sorted(range(n), key=lambda a: (len(v[a]), a))
    neighbors = [tuple(sorted(b for b in v[a] if b != a)) for a in range(n)]
    loop = [a in v[a] for a in range(n)]
    avail = [len(neighbors[a]) + (1 if loop[a] else 0) for a in range(n)]
    partner = [-1] * n
    nodes = 0

    def mark(x):
        ok = True
        for y in neighbors[x]:
            avail[y] -= 1
            if partner[y] == -1 and avail[y] == 0:
                ok = False
        return ok

    def unmark(x):
        for y in neighbors[x]:
            avail[y] += 1

    def extend(pos):
        nonlocal nodes
        while pos < n and partner[order[pos]] != -1:
            pos += 1
        if pos == n:
            return True
        nodes += 1
        a = order[pos]
        if loop[a]:
            partner[a] = a
            if mark(a) and extend(pos + 1):
                return True
            unmark(a)
            partner[a] = -1
        for b in neighbors[a]:
            if partner[b] != -1:
                continue
            partner[a] = b
            partner[b] = a
            ok = mark(a)
            ok = mark(b) and ok
            if ok and extend(pos + 1):
                return True
            unmark(b)
            unmark(a)
            partner[a] = -1
            partner[b] = -1
        return False

    if extend(0):
        return Matching(f=tuple(partner), kind="involution", provenance="brute_force_involution")
    return OracleExhausted(nodes=nodes)
