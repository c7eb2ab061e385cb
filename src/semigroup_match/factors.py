"""Band quotients of D-classes, their block structure, and principal factors.

Collapsing each H-class of a regular D-class to a point gives a rectangular
band with zero whose idempotent cells split into maximal rectangular blocks;
the block sizes decide whether a permutation matching can exist.
d_class_band reads the band off S's Green arrays; h_quotient_band reads the
same band off a principal factor (the class plus a fresh zero absorbing
every product that escapes the class), for reports and cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotOrthodoxError, NotRegularDClassError
from .green import _ids, green_arrays
from .table import MulTable, _first_equal, _storage_dtype, _transposed


@dataclass(frozen=True)
class PrincipalFactor:
    """One D-class with an adjoined zero.

    element_map[i] is the original element behind factor element i; the
    zero (always the last index) has no preimage.
    """

    d_class: int
    table: MulTable
    element_map: tuple
    zero: int


def _fresh_zero_name(taken) -> str:
    name = "0"
    while name in taken:
        name += "'"
    return name


def principal_factor(table: MulTable, d: int) -> PrincipalFactor:
    """D-class d with a fresh zero that absorbs every product leaving the class."""
    ids = green_arrays(table).members(d)
    k = len(ids)
    dtype = _storage_dtype(k + 1)
    index_of = np.full(table.n, k, dtype=dtype)     # position in the class, the zero outside it
    index_of[ids] = np.arange(k)
    fprod = np.full((k + 1, k + 1), k, dtype=dtype)
    # 256 rows at a time, so no second k x k array is made, and MulTable
    # keeps the read-only result, in its storage dtype, instead of copying it
    inner = fprod[:k, :k]
    for start in range(0, k, 256):
        inner[start:start + 256] = index_of[table.product[ids[start:start + 256, None], ids]]
    fprod.setflags(write=False)
    members = ids.tolist()
    member_names = [table.element_name(a) for a in members]
    names = member_names + [_fresh_zero_name(set(member_names))]
    return PrincipalFactor(
        d_class=d, table=MulTable(fprod, names), element_map=tuple(members), zero=k
    )


def principal_factors(table: MulTable) -> tuple:
    """Principal factor of every D-class, in D-class id order."""
    return tuple(principal_factor(table, d) for d in range(green_arrays(table).d_count))


class ZeroRectBand:
    """Rectangular band with zero: the H-quotient of a regular D-class.

    Cells are pairs (i, lam) with i an R-class position and lam an L-class
    position in the D-class's egg box, numbered i*n + lam.  p[lam, i] (a
    read-only bool array) marks the cells that hold an idempotent, and row
    i*n + lam of the read-only array cells lists the elements of H-class
    (i, lam) ascending; every H-class of a D-class has the same size.
    """

    __slots__ = ("p", "cells", "m", "n")

    def __init__(self, p: np.ndarray, cells: np.ndarray):
        self.p = p
        self.cells = cells
        self.n, self.m = p.shape

    @property
    def zero(self) -> int:
        return self.m * self.n

    def coords(self, idx: int) -> tuple:
        return divmod(idx, self.n)

    def __repr__(self):
        return f"ZeroRectBand(m={self.m}, n={self.n})"


def d_class_band(table: MulTable, d: int, element_map=None) -> ZeroRectBand:
    """Collapse each H-class of D-class d of table to a cell (i, lam).

    The egg box is read off green_arrays(table).  A cell is marked in p when
    one of its elements is idempotent in table, read off the table's
    diagonal in one gather.  cells holds the class's elements, renamed
    through element_map when given.
    """
    g = green_arrays(table)
    cells = g.cells(d)
    p = (table.product.diagonal()[cells] == cells).any(axis=1).reshape(g.rows[d], g.cols[d]).T
    if element_map is not None:
        cells = np.asarray(element_map, dtype=np.intp)[cells]
    p.setflags(write=False)
    cells.setflags(write=False)
    return ZeroRectBand(p, cells)


def h_quotient_band(pf: PrincipalFactor) -> ZeroRectBand:
    """Collapse each H-class of the factor's nonzero part to a point.

    The quotient of a regular principal factor is a rectangular band with
    zero whose structure matrix records which cells hold an idempotent.
    Raises NotRegularDClassError when the class has no idempotent: its
    factor is null, so the band of factor element 0 has no marked cell.
    """
    t = pf.table
    d_class = green_arrays(t).d_class
    band = d_class_band(t, int(d_class[0]), pf.element_map)
    if not band.p.any():
        raise NotRegularDClassError(
            f"D-class {pf.d_class} holds no idempotent; it has no band quotient"
        )
    if (d_class[:pf.zero] != d_class[0]).any():
        raise RuntimeError("regular principal factor must be 0-simple")
    return band


@dataclass(frozen=True, eq=False)
class BandDecomposition:
    """The maximal rectangular blocks of a ZeroRectBand, as two label arrays.

    row_block[i] and col_block[lam] (read-only intp arrays) are the block
    covering R-position i and L-position lam; blocks are numbered by their
    least row.  r_order and l_order list positions block by block, ascending
    within each, the order that displays the blocks diagonally.
    """

    row_block: np.ndarray
    col_block: np.ndarray

    def block_sizes(self) -> tuple:
        """(m, n) of every block, in block order."""
        return tuple(zip(np.bincount(self.row_block).tolist(),
                         np.bincount(self.col_block).tolist()))

    @property
    def r_order(self) -> np.ndarray:
        return np.argsort(self.row_block, kind="stable")

    @property
    def l_order(self) -> np.ndarray:
        return np.argsort(self.col_block, kind="stable")

    def surplus(self) -> np.ndarray:
        """The band's m x n bool array of surplus cells.

        With block t of shape m_t x n_t, cell (i, lam) of row block a and
        column block b has surplus when m_a * n_b > m_b * n_a.  Every block
        has a row and a column, so the block shapes are pairwise proportional
        exactly when no cell has surplus.
        """
        ms, ns = np.bincount(self.row_block), np.bincount(self.col_block)
        a, b = self.row_block[:, None], self.col_block
        return ms[a] * ns[b] > ms[b] * ns[a]


def maximal_rect_subbands(zband: ZeroRectBand) -> BandDecomposition:
    """Partition the nonzero idempotent cells into maximal rectangular blocks.

    Requires the idempotent cells to be closed under products, P P^T P <= P
    for the structure matrix P (the orthodox condition at this level);
    otherwise NotOrthodoxError carries the first offending pair in pair-index
    order.  Closure makes every connected component of marked cells a full
    rectangle, so rows with equal marks share a block, numbered first-seen
    like any class, and each column lies in the block of its first marked row.
    """
    p = zband.p   # p[lam, i]: cell (i, lam) is idempotent
    # (i, lam)(k, mu) = (i, mu) when p[lam, k], and (i, mu) is idempotent when p[mu, i];
    # bad[lam, i]: (i, lam) times some idempotent escapes.  P P^T ~P is associated
    # so that the square middle factor has the smaller side of P.
    if p.shape[0] < p.shape[1]:
        bad = p & ((p @ p.T) @ ~p)
    else:
        escape = p.T @ ~p        # escape[k, i]: some idempotent (k, mu) has (i, mu) not
        bad = p & (p @ escape)
    if bad.any():
        e = int(bad.T.argmax())  # flat indices of (i, lam) arrays are pair indices
        i, lam = zband.coords(e)
        hits = p.T & p[lam][:, None] & ~p[:, i]      # hits[k, mu]: (k, mu) takes (i, lam) out
        raise NotOrthodoxError((e, int(hits.argmax())))
    row_block = _ids(_first_equal(_transposed(p)))
    col_block = row_block[p.argmax(axis=1)]
    row_block.setflags(write=False)
    col_block.setflags(write=False)
    return BandDecomposition(row_block, col_block)


def _partner_cells(dec: BandDecomposition):
    """m x n arrays rows, cols: cell (i, lam) pairs with (rows[i, lam], cols[i, lam]).

    For i in row block a and lam in column block b, (i, lam) is cell k of
    block (a, b) in row-major order and pairs with cell k of block (b, a):
    an involution on cells when the block shapes are proportional.
    """
    ms, ns = np.bincount(dec.row_block), np.bincount(dec.col_block)
    r_order, l_order = dec.r_order, dec.l_order
    r_start, l_start = np.cumsum(ms) - ms, np.cumsum(ns) - ns   # block offsets in the orders
    a, b = dec.row_block, dec.col_block
    r_pos = np.argsort(r_order) - r_start[a]                   # place within the block
    l_pos = np.argsort(l_order) - l_start[b]
    r, c = np.divmod(r_pos[:, None] * ns[b] + l_pos, ns[a][:, None])
    return r_order[r_start[b] + r], l_order[l_start[a][:, None] + c]


@dataclass(frozen=True)
class SimilarityVerdict:
    """Whether all blocks have proportional shapes (m_i * n_j == m_j * n_i)."""

    pairwise_similar: bool
    witness: tuple | None


def similarity_check(dec: BandDecomposition) -> SimilarityVerdict:
    """Cross-multiplied shape comparison over all block pairs, first failure wins."""
    sizes = dec.block_sizes()
    for i in range(len(sizes)):
        for j in range(i + 1, len(sizes)):
            if sizes[i][0] * sizes[j][1] != sizes[j][0] * sizes[i][1]:
                return SimilarityVerdict(pairwise_similar=False, witness=(i, j))
    return SimilarityVerdict(pairwise_similar=True, witness=None)
