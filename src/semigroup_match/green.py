"""Green's relations, egg-box pictures, and omega powers.

R-classes are the strongly connected components of the right Cayley graph
(edges a -> ab), L-classes those of the left graph, H their common
refinement, and D the join of R and L.  All class ids follow first-seen
element order so output is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .table import MulTable


@dataclass(frozen=True)
class EggBox:
    """Grid view of one D-class: rows are R-classes, columns L-classes.

    grid[r][l] is the tuple of elements in the H-class at that cell; every
    cell of a D-class is non-empty.
    """

    d_class: int
    r_ids: tuple
    l_ids: tuple
    grid: tuple


@dataclass(frozen=True)
class GreenStructure:
    n: int
    r_class: tuple
    l_class: tuple
    h_class: tuple
    d_class: tuple
    r_classes: tuple
    l_classes: tuple
    h_classes: tuple
    d_classes: tuple
    egg_boxes: tuple


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


def _sccs(n: int, neighbors) -> list:
    """Tarjan strongly connected components, iterative, in component lists."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comps = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, iter(neighbors(root)))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(neighbors(w))))
                    advanced = True
                    break
                if on_stack[w]:
                    if index[w] < low[v]:
                        low[v] = index[w]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


def _relabel(n: int, comps) -> tuple:
    """Assign component ids in first-seen element order."""
    comp_of = [0] * n
    for cid, comp in enumerate(comps):
        for x in comp:
            comp_of[x] = cid
    seen = {}
    out = [0] * n
    for x in range(n):
        c = comp_of[x]
        if c not in seen:
            seen[c] = len(seen)
        out[x] = seen[c]
    return tuple(out)


def _members(labels) -> tuple:
    k = max(labels) + 1
    buckets = [[] for _ in range(k)]
    for x, c in enumerate(labels):
        buckets[c].append(x)
    return tuple(tuple(b) for b in buckets)


def green_classes(table: MulTable) -> GreenStructure:
    """Compute all of Green's relations for the table (cached on the table)."""
    cached = table._cache.get("green")
    if cached is not None:
        return cached
    n = table.n
    prod = table.product
    right_nbrs = [np.unique(prod[a]).tolist() for a in range(n)]
    left_nbrs = [np.unique(prod[:, a]).tolist() for a in range(n)]
    r_class = _relabel(n, _sccs(n, lambda a: right_nbrs[a]))
    l_class = _relabel(n, _sccs(n, lambda a: left_nbrs[a]))

    # H: common refinement of R and L
    pairs = {}
    h_class = []
    for a in range(n):
        key = (r_class[a], l_class[a])
        if key not in pairs:
            pairs[key] = len(pairs)
        h_class.append(pairs[key])
    h_class = tuple(h_class)

    # D: smallest equivalence containing R and L, via union-find
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    for members in _members(r_class):
        for x in members[1:]:
            union(members[0], x)
    for members in _members(l_class):
        for x in members[1:]:
            union(members[0], x)
    seen = {}
    d_class = []
    for a in range(n):
        root = find(a)
        if root not in seen:
            seen[root] = len(seen)
        d_class.append(seen[root])
    d_class = tuple(d_class)

    d_members = _members(d_class)
    egg_boxes = []
    for d, members in enumerate(d_members):
        r_ids = []
        l_ids = []
        for x in members:
            if r_class[x] not in r_ids:
                r_ids.append(r_class[x])
            if l_class[x] not in l_ids:
                l_ids.append(l_class[x])
        cells = {}
        for x in members:
            cells.setdefault((r_class[x], l_class[x]), []).append(x)
        grid = tuple(
            tuple(tuple(cells.get((r, l), ())) for l in l_ids) for r in r_ids
        )
        egg_boxes.append(EggBox(d, tuple(r_ids), tuple(l_ids), grid))

    result = GreenStructure(
        n=n,
        r_class=r_class,
        l_class=l_class,
        h_class=h_class,
        d_class=d_class,
        r_classes=_members(r_class),
        l_classes=_members(l_class),
        h_classes=_members(h_class),
        d_classes=d_members,
        egg_boxes=tuple(egg_boxes),
    )
    table._cache["green"] = result
    return result


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

