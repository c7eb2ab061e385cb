"""Cell-by-cell references for the block geometry of a band with zero.

maximal_rect_subbands checks closure with two boolean matrix products on
the structure matrix, and the structural route pairs cells through
factors._partner_cells.  The versions here work one pair of cells at a
time: a |cells| x |cells| table of which products stay nonzero, and one
block lookup per cell.  Tests check the library against them.
block_coordinates reads each element's (row block, column block) pair off
the band's cells, and pair_index numbers a cell as the band does.
Decompositions are compared as label lists (block_labels), or as the
NotOrthodoxError witness (labels_or_witness).
"""

from __future__ import annotations

import numpy as np

from semigroup_match import BandDecomposition, NotOrthodoxError, maximal_rect_subbands


def pair_index(band, i: int, lam: int) -> int:
    """The number i*n + lam of cell (i, lam), the inverse of band.coords."""
    return i * band.n + lam


def block_labels(dec: BandDecomposition) -> tuple:
    """dec's row_block and col_block as two lists, the form the references return."""
    return dec.row_block.tolist(), dec.col_block.tolist()


def labels_or_witness(read_labels, zband):
    """read_labels(zband), or the witness of the NotOrthodoxError it raises."""
    try:
        return read_labels(zband)
    except NotOrthodoxError as exc:
        return exc.witness


def library_labels(zband) -> tuple:
    """maximal_rect_subbands' labels, as block_labels lists."""
    return block_labels(maximal_rect_subbands(zband))


def meets_decomposition(zband) -> tuple:
    """maximal_rect_subbands' labels through the pairwise "meets" table of idempotent cells.

    meets[e, f] says the product of cells e and f is nonzero; it must then
    be idempotent, which is meets[f, e].  The first idempotent pair (e, f)
    in pair-index order that breaks this is the NotOrthodoxError witness.
    Otherwise the lists row_block and col_block come back, each block
    numbered by its least row and read off that row's marks.
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
    blocks = 0
    row_block = [-1] * zband.m
    col_block = [-1] * zband.n
    for i in range(zband.m):
        if row_block[i] != -1:
            continue
        l_indices = np.flatnonzero(p[:, i]).tolist()
        for k in np.flatnonzero(p[l_indices[0]]).tolist():
            row_block[k] = blocks
        for lam in l_indices:
            col_block[lam] = blocks
        blocks += 1
    return row_block, col_block


def block_coordinates(zband, dec: BandDecomposition) -> dict:
    """Every element of the band's cells mapped to its (row block, column block)."""
    row_block, col_block = block_labels(dec)
    coords = {}
    for c, row in enumerate(zband.cells.tolist()):
        i, lam = zband.coords(c)
        for a in row:
            coords[a] = (row_block[i], col_block[lam])
    return coords


def swapped_cell(dec: BandDecomposition, i: int, lam: int) -> tuple:
    """Cell (i, lam) of row block a and column block b pairs with the cell at
    the same pair-index position among those of row block b and column block a.
    """
    row_block, col_block = block_labels(dec)
    a, b = row_block[i], col_block[lam]
    a_rows, b_rows = ([k for k, t in enumerate(row_block) if t == s] for s in (a, b))
    a_cols, b_cols = ([mu for mu, t in enumerate(col_block) if t == s] for s in (a, b))
    k = a_rows.index(i) * len(b_cols) + b_cols.index(lam)
    r, c = divmod(k, len(a_cols))
    return b_rows[r], a_cols[c]
