"""Whole-forest references for the blossom route of find_involution_matching.

matching._Blossom relabels only the members of the blossoms a contraction
merges, the doubled adjacency comes from one np.flatnonzero of V, with each
cross edge placed before the rows are sliced, the barrier's components are
found by a walk over copy 0 of those lists, and verify_barrier reads every
component in one labelled pass over their members, which both accepts a
barrier and names its first fault.  The versions here do the same work the
direct way: one np.flatnonzero per row, a rescan of the whole forest on
every contraction, one numpy row operation per vertex of a component, and
one check per component in listed order, which src/ has no copy of.
They take the same search path, so tests demand equal matchings, A-sets,
node counts, barriers and verdicts, reasons and elements.
"""

from __future__ import annotations

import operator
from collections import deque

import numpy as np

from semigroup_match import VerifyResult, inverse_matrix


def doubled_adjacency(v) -> list:
    """Two copies of the mutual-inverse graph, vertex a + c*n in copy c, with
    a -- a+n listed first for every a in V(a)."""
    n = len(v)
    adj = []
    for c in (0, 1):
        for a in range(n):
            nbrs = (np.flatnonzero(v[a]) + c * n).tolist()
            if v[a, a]:
                nbrs.remove(a + c * n)
                nbrs.insert(0, a + (1 - c) * n)
            adj.append(nbrs)
    return adj


class ReferenceBlossom:
    """Edmonds' cardinality matching, relabelling base[] over the whole forest
    on every contraction; nodes counts the vertices taken off the queues."""

    def __init__(self, adj):
        self.adj = adj
        self.match = [-1] * len(adj)
        self.nodes = 0

    def grow(self, roots):
        adj, match = self.adj, self.match
        size = len(adj)
        base = list(range(size))
        parent = [-1] * size
        outer = [False] * size
        for r in roots:
            outer[r] = True
        queue = deque(roots)
        forest = list(roots)

        def lca(a, b):
            path = set()
            while True:
                a = base[a]
                path.add(a)
                if match[a] == -1:
                    break
                a = parent[match[a]]
            while True:
                b = base[b]
                if b in path:
                    return b
                if match[b] == -1:
                    raise RuntimeError("augmenting path between two trees of a maximum matching")
                b = parent[match[b]]

        def mark_path(x, b, child, bases):
            while base[x] != b:
                bases.add(base[x])
                bases.add(base[match[x]])
                parent[x] = child
                child = match[x]
                x = parent[match[x]]

        while queue:
            x = queue.popleft()
            self.nodes += 1
            for y in adj[x]:
                if base[x] == base[y] or match[x] == y:
                    continue
                if outer[y]:
                    b = lca(x, y)
                    bases = set()
                    mark_path(x, b, y, bases)
                    mark_path(y, b, x, bases)
                    for z in forest:
                        if base[z] in bases:
                            base[z] = b
                            if not outer[z]:
                                outer[z] = True
                                queue.append(z)
                elif parent[y] == -1:
                    parent[y] = x
                    if match[y] == -1:
                        return y, parent, outer
                    outer[match[y]] = True
                    queue.append(match[y])
                    forest += (y, match[y])
        return -1, parent, outer

    def augment(self, end, parent):
        match = self.match
        while end != -1:
            x = parent[end]
            nxt = match[x]
            match[end] = x
            match[x] = end
            end = nxt

    def maximize(self):
        match = self.match
        for x, nbrs in enumerate(self.adj):
            if match[x] == -1:
                for y in nbrs:
                    if match[y] == -1:
                        match[x] = y
                        match[y] = x
                        break
        for r, nbrs in enumerate(self.adj):
            if match[r] == -1 and nbrs:
                end, parent, _ = self.grow([r])
                if end != -1:
                    self.augment(end, parent)

    def inner_vertices(self):
        exposed = [x for x, m in enumerate(self.match) if m == -1]
        end, parent, outer = self.grow(exposed)
        if end != -1:
            raise RuntimeError("augmenting path left after maximum matching")
        return [x for x in range(len(parent)) if parent[x] != -1 and not outer[x]]


def odd_loop_free_components(v, removed) -> tuple:
    """Odd components of the mutual-inverse graph minus removed that hold no
    element a in V(a), each sorted, in order of least element."""
    seen = np.zeros(len(v), dtype=bool)
    seen[list(removed)] = True
    comps = []
    for a in range(len(v)):
        if seen[a]:
            continue
        seen[a] = True
        comp = [a]
        for x in comp:
            fresh = np.flatnonzero(v[x] & ~seen)
            seen[fresh] = True
            comp += fresh.tolist()
        if len(comp) % 2 == 1 and not v[comp, comp].any():
            comps.append(tuple(sorted(comp)))
    return tuple(comps)


def verify_barrier(table, barrier) -> VerifyResult:
    """The first violation of barrier's checks, component by component: a
    component's entries are integers, then elements, then disjoint from X
    and the earlier components and unrepeated, then odd in number, then,
    elements ascending, each not in V(a) and with no inverse outside the
    component and X.  The count of components is checked last."""
    n = table.n
    v = inverse_matrix(table)
    try:
        elements = [operator.index(x) for x in barrier.elements]
    except TypeError:
        return VerifyResult(False, "barrier element not an integer", None)
    xs = set(elements)
    if len(xs) != len(elements) or any(not 0 <= x < n for x in xs):
        return VerifyResult(False, "barrier is not a set of elements", None)
    seen = set(xs)
    for comp in barrier.odd_components:
        try:
            comp = [operator.index(a) for a in comp]
        except TypeError:
            return VerifyResult(False, "component element not an integer", None)
        members = set(comp)
        if any(not 0 <= a < n for a in members):
            return VerifyResult(False, "component element out of range", None)
        if len(members) != len(comp) or not seen.isdisjoint(members):
            return VerifyResult(False, "components overlap", min(members & seen, default=None))
        seen |= members
        if len(members) % 2 == 0:
            return VerifyResult(False, "component of even size", min(members, default=None))
        ms = np.array(sorted(members), dtype=np.intp)
        outside = np.ones(n, dtype=bool)
        outside[ms] = False
        outside[elements] = False
        loop = v[ms, ms]
        bad = loop | (v[ms] & outside).any(axis=1)
        if bad.any():
            first = int(bad.argmax())
            reason = ("component element is its own inverse" if loop[first]
                      else "component has an inverse outside the barrier")
            return VerifyResult(False, reason, int(ms[first]))
    if len(barrier.odd_components) <= len(xs):
        return VerifyResult(False, "no more odd components than barrier elements", None)
    return VerifyResult(True, None, None)
