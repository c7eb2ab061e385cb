"""Shared fixture builders for the test suite.

Everything here is small enough to brute-force, so tests can freeze
exact expected values next to the construction that produced them.
"""

from __future__ import annotations

import itertools
import sys

import numpy as np

from semigroup_match import (
    BoolStructureMatrix,
    MulTable,
    direct_product,
    full_transformation,
    inverse_matrix,
    rectangular_band,
    rees_matrix,
)


def cyclic(k: int) -> MulTable:
    """Cyclic group of order k; element i stands for g^i."""
    return MulTable([[(a + b) % k for b in range(k)] for a in range(k)])


def symmetric3() -> MulTable:
    """The symmetric group S_3 on the permutations of (0, 1, 2) in lexicographic order.

    The product fg maps x to g(f(x)); element 0 is the identity.
    """
    perms = list(itertools.permutations(range(3)))
    index = {f: a for a, f in enumerate(perms)}
    return MulTable([[index[tuple(g[f[x]] for x in range(3))] for g in perms] for f in perms])


def klein() -> MulTable:
    """The exponent-2 group of order 4."""
    return direct_product(cyclic(2), cyclic(2))


def monogenic(index: int, period: int) -> MulTable:
    """Single-generator semigroup with the given index and period.

    Element e stands for a^(e+1); exponents at or beyond the index wrap
    into the kernel, so there are index + period - 1 elements in all.
    """
    n = index + period - 1

    def reduce_exp(e: int) -> int:
        if e <= n:
            return e
        return ((e - index) % period) + index

    return MulTable([[reduce_exp(a + b + 2) - 1 for b in range(n)] for a in range(n)])


def null_semigroup(n: int) -> MulTable:
    """Every product is the element 0."""
    return MulTable([[0] * n for _ in range(n)])


def left_zero(n: int) -> MulTable:
    return MulTable([[a] * n for a in range(n)])


def right_zero(n: int) -> MulTable:
    return MulTable([list(range(n)) for _ in range(n)])


def chain_semilattice(n: int) -> MulTable:
    """Totally ordered semilattice: a*b = min(a, b)."""
    return MulTable([[min(a, b) for b in range(n)] for a in range(n)])


def adjoin_zero(table: MulTable) -> MulTable:
    """Same semigroup with a fresh zero element appended at index n."""
    n = table.n
    rows = [[table.mul(a, b) for b in range(n)] + [n] for a in range(n)]
    rows.append([n] * (n + 1))
    return MulTable(rows)


def adjoin_identity(table: MulTable) -> MulTable:
    """Same semigroup with a fresh identity element appended at index n."""
    n = table.n
    rows = [[table.mul(a, b) for b in range(n)] + [a] for a in range(n)]
    rows.append(list(range(n)) + [n])
    return MulTable(rows)


def band7() -> MulTable:
    """Seven-element combinatorial orthodox semigroup whose Hall condition fails.

    Two egg-box rows, three columns, idempotents in cells (2,1), (1,2),
    (1,3); the two non-idempotents (2,2) and (2,3) share the single
    inverse (1,1).
    """
    p = BoolStructureMatrix(((False, True), (True, False), (True, False)))
    return rees_matrix(p)


def brandt(n: int) -> MulTable:
    """Combinatorial Brandt semigroup: identity structure matrix plus zero."""
    p = BoolStructureMatrix(tuple(tuple(i == j for j in range(n)) for i in range(n)))
    return rees_matrix(p)


def five_unique() -> MulTable:
    """Five-element non-inverse semigroup with exactly one permutation matching."""
    p = BoolStructureMatrix(((True, True), (False, True)))
    return rees_matrix(p)


def block_diag_matrix(blocks: list[tuple[int, int]]) -> BoolStructureMatrix:
    """Structure matrix with all-true diagonal blocks, all-false elsewhere.

    Block t spans m_t egg-box rows and n_t egg-box columns, so the
    resulting semigroup's maximal rectangular subbands have exactly the
    requested (m_t, n_t) shapes.
    """
    i_block = [t for t, (m, _) in enumerate(blocks) for _ in range(m)]
    lam_block = [t for t, (_, n) in enumerate(blocks) for _ in range(n)]
    entries = tuple(
        tuple(i_block[i] == lam_block[lam] for i in range(len(i_block)))
        for lam in range(len(lam_block))
    )
    return BoolStructureMatrix(entries)


def block_band(blocks: list[tuple[int, int]]) -> MulTable:
    return rees_matrix(block_diag_matrix(blocks))


def t_n(n: int) -> MulTable:
    return full_transformation(n, max_size=n ** n)


# The involution search on T_3 found this map; frozen as a regression
# fixture, not a claim that it is the only one.
T3_INVOLUTION = (
    0, 6, 2, 3, 4, 5, 1, 7, 8, 9, 10, 11, 18, 13, 14, 19, 16, 20,
    12, 15, 17, 21, 24, 23, 22, 25, 26,
)


def small_corpus() -> list[tuple[str, MulTable]]:
    """At least 30 fixtures with at most 10 elements, regular and not."""
    items = [
        ("trivial", cyclic(1)),
        ("c2", cyclic(2)),
        ("c3", cyclic(3)),
        ("c4", cyclic(4)),
        ("c6", cyclic(6)),
        ("klein", klein()),
        ("c3xc3", direct_product(cyclic(3), cyclic(3))),
        ("left_zero2", left_zero(2)),
        ("left_zero3", left_zero(3)),
        ("right_zero2", right_zero(2)),
        ("right_zero4", right_zero(4)),
        ("rect22", rectangular_band(2, 2)),
        ("rect23", rectangular_band(2, 3)),
        ("rect32", rectangular_band(3, 2)),
        ("chain2", chain_semilattice(2)),
        ("chain4", chain_semilattice(4)),
        ("null2", null_semigroup(2)),
        ("null4", null_semigroup(4)),
        ("mono_2_1", monogenic(2, 1)),
        ("mono_3_2", monogenic(3, 2)),
        ("mono_2_3", monogenic(2, 3)),
        ("mono_4_2", monogenic(4, 2)),
        ("brandt2", brandt(2)),
        ("five_unique", five_unique()),
        ("band7", band7()),
        ("c2_zero", adjoin_zero(cyclic(2))),
        ("c3_zero", adjoin_zero(cyclic(3))),
        ("rect22_zero", adjoin_zero(rectangular_band(2, 2))),
        ("left_zero3_zero", adjoin_zero(left_zero(3))),
        ("rect22_one", adjoin_identity(rectangular_band(2, 2))),
        ("t2", t_n(2)),
        ("c2_x_rect12", direct_product(cyclic(2), rectangular_band(1, 2))),
        ("c2_x_rect21", direct_product(cyclic(2), rectangular_band(2, 1))),
        ("rees_lower", rees_matrix(BoolStructureMatrix(((True, False), (True, True))))),
        ("rees_2x3", rees_matrix(BoolStructureMatrix(((True, True, False), (False, True, True))))),
        ("block_band_sim", block_band([(1, 1), (2, 2)])),
    ]
    assert len(items) >= 30
    assert all(table.n <= 10 for _, table in items)
    return items


def orthodox_matching_corpus() -> list[tuple[str, MulTable]]:
    """Orthodox instances that admit an involution matching.

    Mixes groups, bands, semilattices, inverse semigroups, and
    block-diagonal Rees constructions with similar blocks.
    """
    items = [
        ("trivial", cyclic(1)),
        ("c2", cyclic(2)),
        ("c3", cyclic(3)),
        ("c4", cyclic(4)),
        ("c5", cyclic(5)),
        ("c6", cyclic(6)),
        ("klein", klein()),
        ("rect12", rectangular_band(1, 2)),
        ("rect21", rectangular_band(2, 1)),
        ("rect22", rectangular_band(2, 2)),
        ("rect23", rectangular_band(2, 3)),
        ("rect32", rectangular_band(3, 2)),
        ("rect33", rectangular_band(3, 3)),
        ("chain2", chain_semilattice(2)),
        ("chain3", chain_semilattice(3)),
        ("chain4", chain_semilattice(4)),
        ("brandt2", brandt(2)),
        ("brandt3", brandt(3)),
        ("c2_zero", adjoin_zero(cyclic(2))),
        ("c3_zero", adjoin_zero(cyclic(3))),
        ("rect22_zero", adjoin_zero(rectangular_band(2, 2))),
        ("rect22_one", adjoin_identity(rectangular_band(2, 2))),
        ("c2_x_rect12", direct_product(cyclic(2), rectangular_band(1, 2))),
        ("c2_x_rect21", direct_product(cyclic(2), rectangular_band(2, 1))),
        ("block_band_sim", block_band([(1, 1), (2, 2)])),
        ("block_band_2412", block_band([(2, 4), (1, 2)])),
    ]
    assert len(items) >= 20
    return items


def big_corpus() -> list[tuple[str, MulTable]]:
    """Larger fixtures for scale and structure checks."""
    return [
        ("t3", t_n(3)),
        ("t4", t_n(4)),
        ("band7_sq", direct_product(band7(), band7())),
        ("block_band_2412", block_band([(2, 4), (1, 2)])),
    ]


def full_corpus() -> list[tuple[str, MulTable]]:
    """Small corpus, the orthodox suite, and the big fixtures, deduplicated."""
    items: list[tuple[str, MulTable]] = []
    seen: set[str] = set()
    for name, table in small_corpus() + orthodox_matching_corpus() + big_corpus():
        if name not in seen:
            seen.add(name)
            items.append((name, table))
    return items


def rees_over_group(group: MulTable, p) -> MulTable:
    """Rees matrix semigroup M0(G; I, Λ; P) over a group table, with the zero last.

    p[lam][i] is an element of G, or None for the zero of G⁰.  With k = |G|,
    element (i k + g) |Λ| + lam is (i, g, lam), and
    (i, g, lam)(j, h, mu) = (i, g p[lam][j] h, mu) when p[lam][j] is not
    None, the zero otherwise.
    """
    gp, k = group.product, group.n
    rows, cols = len(p), len(p[0])
    zero = cols * k * rows
    i, g, lam = np.unravel_index(np.arange(zero), (cols, k, rows))
    sandwich = np.array([[-1 if x is None else x for x in row] for row in p], dtype=np.intp)
    mid = sandwich[lam[:, None], i[None, :]]           # p[lam(a)][i(b)]
    value = gp[gp[g[:, None], np.maximum(mid, 0)], g[None, :]]
    prod = np.full((zero + 1, zero + 1), zero, dtype=np.intp)
    prod[:zero, :zero] = np.where(mid >= 0, (i[:, None] * k + value) * rows + lam[None, :], zero)
    return MulTable(prod)


def random_sandwich(seed: int, group: MulTable, rows: int, cols: int, density: float) -> list:
    """A seeded rows x cols sandwich matrix over G⁰ with a group element in every row and column."""
    rng = np.random.default_rng(seed)
    p = rng.random((rows, cols)) < density
    p[np.arange(rows), rng.integers(cols, size=rows)] = True
    p[rng.integers(rows, size=cols), np.arange(cols)] = True
    values = rng.integers(group.n, size=(rows, cols))
    return [[int(v) if keep else None for v, keep in zip(vr, pr)] for vr, pr in zip(values, p)]


def random_rees(seed: int, rows: int, cols: int, density: float) -> MulTable:
    """Rees semigroup of a seeded random structure matrix with a one in every row and column."""
    rng = np.random.default_rng(seed)
    p = rng.random((rows, cols)) < density
    p[np.arange(rows), rng.integers(cols, size=rows)] = True
    p[rng.integers(rows, size=cols), np.arange(cols)] = True
    return rees_matrix(BoolStructureMatrix(p.tolist()))


# (seed, rows, cols, density) of random_rees fixtures: none of them is orthodox
RANDOM_REES = [(seed, 9 + seed % 4, 9 + (seed // 4) % 4, 0.2 + 0.25 * seed / 19)
               for seed in range(20)] + [(20, 20, 20, 0.3)]

# Rees matrix semigroups over C_3, C_4 and S_3 with seeded sandwich
# matrices over G⁰: completely 0-simple, 19 to 49 elements; none of them is
# orthodox, and only rees_s3_3x2 has no permutation matching
REES_OVER_GROUP = [
    (f"rees_{name}_{rows}x{cols}", rees_over_group(group, random_sandwich(seed, group, rows, cols, 0.5)))
    for seed, (name, group, rows, cols) in enumerate([
        ("c3", cyclic(3), 2, 3), ("c3", cyclic(3), 4, 4), ("c4", cyclic(4), 3, 3),
        ("s3", symmetric3(), 2, 2), ("s3", symmetric3(), 3, 2)])]


def all_semigroups(n: int) -> list:
    """Every associative table on the elements 0..n-1, as n x n intp arrays.

    The cells are filled in row-major order, each value in ascending order,
    and a value is kept only if every triple (x, y, z) whose four products
    xy, (xy)z, yz and x(yz) are all set agrees; a complete table then
    passes every triple.  The counts for n = 1, 2, 3, 4 are 1, 8, 113 and
    3492 (OEIS A023814).
    """
    t = [[-1] * n for _ in range(n)]

    def agrees(x, y, z):
        xy, yz = t[x][y], t[y][z]
        if xy < 0 or yz < 0:
            return True
        left, right = t[xy][z], t[x][yz]
        return left < 0 or right < 0 or left == right

    def cell_agrees(a, b):
        # the triples that read the cell (a, b) as xy, yz, (xy)z or x(yz)
        return (all(agrees(a, b, z) and agrees(z, a, b) for z in range(n))
                and all(agrees(x, y, b) for x in range(n) for y in range(n) if t[x][y] == a)
                and all(agrees(a, y, z) for y in range(n) for z in range(n) if t[y][z] == b))

    tables = []
    cells = [(a, b) for a in range(n) for b in range(n)]
    stack = [0]                       # stack[c]: the next value to try in cells[c]
    while stack:
        c = len(stack) - 1
        a, b = cells[c]
        v = stack[c]
        if v == n:
            t[a][b] = -1
            stack.pop()
            continue
        stack[c] = v + 1
        t[a][b] = v
        if cell_agrees(a, b):
            if c + 1 == len(cells):
                tables.append(np.array(t, dtype=np.intp))
            else:
                stack.append(0)
    return tables


def one_entry_mutations(product):
    """Every table that differs from product in exactly one entry."""
    n = product.shape[0]
    for a in range(n):
        for b in range(n):
            for v in range(n):
                if v != product[a, b]:
                    q = product.copy()
                    q[a, b] = v
                    yield q


def renumbered(product, seed):
    """product with element a renamed perm[a], perm drawn from seed."""
    perm = np.random.default_rng(seed).permutation(product.shape[0])
    renamed = np.empty_like(product)
    renamed[perm[:, None], perm[None, :]] = perm[product]
    return renamed


def placements(product):
    """product renumbered by three rotations and two random permutations.

    A rotation a -> a + s (mod n) moves the last element, a Rees
    semigroup's zero, to s - 1: it stays last, goes first, or to the middle.
    """
    n = product.shape[0]
    for shift in sorted({0, 1, n // 2}):
        rotated = np.empty_like(product)
        perm = (np.arange(n) + shift) % n
        rotated[perm[:, None], perm[None, :]] = perm[product]
        yield rotated
    for seed in range(2):
        yield renumbered(product, seed)


def inverses_of_set(table: MulTable, elements) -> set:
    """V(A) = union of V(a) over a in A, read off the rows of inverse_matrix."""
    rows = inverse_matrix(table)[list(elements)]
    return set(np.flatnonzero(rows.any(axis=0)).tolist())


def frame_depth() -> int:
    """Number of Python frames on the caller's stack, for recursion-limit tests."""
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth
