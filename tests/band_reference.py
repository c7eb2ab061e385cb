"""Cell-by-cell references for the block geometry of a band with zero.

maximal_rect_subbands checks closure with two boolean matrix products on
the structure matrix, and the structural route pairs cells through
factors._partner_cells.  The versions here work one pair of cells at a
time: a |cells| x |cells| table of which products stay nonzero, and one
block lookup per cell.  Tests check the library against them.
block_coordinates reads each element's (row block, column block) pair off
the band's cells, and pair_index numbers a cell as the band does.
"""

from __future__ import annotations

import numpy as np

from semigroup_match import BandDecomposition, NotOrthodoxError, Subband


def pair_index(band, i: int, lam: int) -> int:
    """The number i*n + lam of cell (i, lam), the inverse of band.coords."""
    return i * band.n + lam


def meets_decomposition(zband) -> BandDecomposition:
    """maximal_rect_subbands through the pairwise "meets" table of idempotent cells.

    meets[e, f] says the product of cells e and f is nonzero; it must then
    be idempotent, which is meets[f, e].  The first idempotent pair (e, f)
    in pair-index order that breaks this is the NotOrthodoxError witness.
    """
    p = zband.p                                 # p[lam, i]
    cells = np.argwhere(p.T)                    # idempotent (i, lam), pair-index order
    rows, cols = cells[:, 0], cells[:, 1]
    # (i, lam)(k, mu) = (i, mu) when p[lam, k], and (i, mu) is idempotent when p[mu, i]
    meets = p[np.ix_(cols, rows)]
    bad = meets & ~meets.T
    first = int(bad.argmax())
    if bad.flat[first]:
        e, f = divmod(first, len(cells))
        raise NotOrthodoxError((int(pair_index(zband, *cells[e])),
                                int(pair_index(zband, *cells[f]))))
    subbands = []
    row_block = [-1] * zband.m
    col_block = [-1] * zband.n
    for i in range(zband.m):
        if row_block[i] != -1:
            continue
        l_indices = tuple(int(lam) for lam in np.flatnonzero(p[:, i]))
        r_indices = tuple(int(k) for k in np.flatnonzero(p[l_indices[0]]))
        for k in r_indices:
            row_block[k] = len(subbands)
        for lam in l_indices:
            col_block[lam] = len(subbands)
        subbands.append(Subband(r_indices=r_indices, l_indices=l_indices,
                                m=len(r_indices), n=len(l_indices)))
    return BandDecomposition(
        subbands=tuple(subbands),
        r_order=tuple(i for s in subbands for i in s.r_indices),
        l_order=tuple(lam for s in subbands for lam in s.l_indices),
        row_block=tuple(row_block),
        col_block=tuple(col_block),
    )


def block_coordinates(zband, dec: BandDecomposition) -> dict:
    """Every element of the band's cells mapped to its (row block, column block)."""
    coords = {}
    for c, row in enumerate(zband.cells.tolist()):
        i, lam = zband.coords(c)
        for a in row:
            coords[a] = (dec.row_block[i], dec.col_block[lam])
    return coords


def swapped_cell(dec: BandDecomposition, i: int, lam: int) -> tuple:
    """Cell (i, lam) of row block a and column block b pairs with the cell at
    the same pair-index position among those of row block b and column block a.
    """
    src = dec.subbands[dec.row_block[i]]
    dst = dec.subbands[dec.col_block[lam]]
    k = src.r_indices.index(i) * dst.n + dst.l_indices.index(lam)
    r, c = divmod(k, src.n)
    return dst.r_indices[r], src.l_indices[c]
