"""Block geometry read off the structure matrix, against cell-by-cell references.

maximal_rect_subbands must give the same block labels, or the same
NotOrthodoxError witness, as the pairwise scan in band_reference, with
orders and sizes read off those labels and surplus cells exactly when
similarity_check finds two blocks not proportional; the partner cells must
be the reference's swapped cells and pair the cells off in an involution;
the structural route must still refuse a cell that does not hold exactly
one inverse.
"""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semigroup_match import (
    BoolStructureMatrix,
    LiftFailureError,
    NotOrthodoxError,
    NotRegularMatrixError,
    ZeroRectBand,
    decide_orthodox_matching,
    direct_product,
    green_classes,
    inverse_matrix,
    maximal_rect_subbands,
    rectangular_band,
    similarity_check,
)
from semigroup_match import matching as matching_mod
from semigroup_match.factors import _partner_cells

from band_reference import block_labels, labels_or_witness, meets_decomposition, swapped_cell
from corpus import cyclic


def zero_rect_band(entries) -> ZeroRectBand:
    """The band with structure matrix entries[lam][i]; cell (i, lam) holds its pair index."""
    p = np.array(BoolStructureMatrix(entries).entries)
    return ZeroRectBand(p, np.arange(p.size)[:, None])


def check_against_references(entries):
    zband = zero_rect_band(entries)
    ref = labels_or_witness(meets_decomposition, zband)
    try:
        got = maximal_rect_subbands(zband)
    except NotOrthodoxError as exc:
        assert exc.witness == ref, entries
        return
    assert block_labels(got) == ref, entries
    row_block, col_block = ref
    blocks = range(max(row_block) + 1)
    assert got.block_sizes() == tuple((row_block.count(t), col_block.count(t)) for t in blocks)
    assert got.r_order.tolist() == sorted(range(zband.m), key=row_block.__getitem__)
    assert got.l_order.tolist() == sorted(range(zband.n), key=col_block.__getitem__)
    similar = similarity_check(got).pairwise_similar
    assert similar == (not got.surplus().any()), entries
    if not similar:
        return
    rows, cols = _partner_cells(got)
    assert rows.shape == cols.shape == (zband.m, zband.n)
    want = [[swapped_cell(got, i, lam) for lam in range(zband.n)] for i in range(zband.m)]
    assert np.array_equal(np.stack([rows, cols], axis=-1), want)
    # an involution on cells
    assert (rows[rows, cols] == np.arange(zband.m)[:, None]).all()
    assert (cols[rows, cols] == np.arange(zband.n)).all()


def regular_matrices(m: int, n: int):
    """Every n x m 0/1 matrix with no all-false row or column."""
    for bits in itertools.product((False, True), repeat=m * n):
        entries = [bits[lam * m:(lam + 1) * m] for lam in range(n)]
        try:
            BoolStructureMatrix(entries)
        except NotRegularMatrixError:
            continue
        yield entries


@pytest.mark.parametrize(
    "m,n", [(m, n) for m in range(1, 5) for n in range(1, 5) if m * n <= 12]
)
def test_every_small_matrix_matches_references(m, n):
    for entries in regular_matrices(m, n):
        check_against_references(entries)


@st.composite
def structure_matrices(draw):
    """Regular 0/1 matrices up to 8x8: diagonal blocks with a few flipped cells, or noise."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        k = draw(st.integers(1, min(m, n)))

        def deal(count):   # every block gets at least one position
            rest = draw(st.lists(st.integers(0, k - 1), min_size=count - k, max_size=count - k))
            return draw(st.permutations(list(range(k)) + rest))

        row_block, col_block = deal(m), deal(n)
        entries = [[row_block[i] == col_block[lam] for i in range(m)] for lam in range(n)]
        flips = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)), max_size=2))
        for lam, i in flips:
            entries[lam][i] = not entries[lam][i]
    else:
        entries = draw(st.lists(st.lists(st.booleans(), min_size=m, max_size=m),
                                min_size=n, max_size=n))
    assume(all(any(row) for row in entries) and all(any(col) for col in zip(*entries)))
    return entries


@settings(max_examples=300)
@given(structure_matrices())
def test_random_matrices_match_references(entries):
    check_against_references(entries)


@st.composite
def proportional_block_matrices(draw):
    """Matrices up to 8x8 whose blocks have shapes (r s, c s), rows and columns shuffled."""
    r, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    scales = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)
                  .filter(lambda ss: max(r, c) * sum(ss) <= 8))
    row_block = draw(st.permutations([t for t, s in enumerate(scales) for _ in range(r * s)]))
    col_block = draw(st.permutations([t for t, s in enumerate(scales) for _ in range(c * s)]))
    return [[a == b for a in row_block] for b in col_block]


@settings(max_examples=150)
@given(proportional_block_matrices())
def test_proportional_blocks_pair_off(entries):
    assert similarity_check(maximal_rect_subbands(zero_rect_band(entries))).pairwise_similar
    check_against_references(entries)


def test_closure_check_builds_no_cell_table():
    # 2304 cells: a |cells| x |cells| bool table alone would take 5.3 MB
    zband = zero_rect_band([[True] * 48] * 48)
    tracemalloc.start()
    try:
        dec = maximal_rect_subbands(zband)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dec.block_sizes() == ((48, 48),)
    assert peak < 1_000_000


@pytest.mark.parametrize("rows,cols", [(1, 4096), (4096, 1)])
def test_closure_check_on_thin_matrices(rows, cols):
    # P is 1 x 4096 for the left-zero band rectangular_band(4096, 1); a 4096 x 4096
    # middle factor in P P^T ~P would take 16.8 MB
    zband = zero_rect_band([[True] * cols] * rows)
    tracemalloc.start()
    try:
        dec = maximal_rect_subbands(zband)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dec.block_sizes() == ((cols, rows),)
    assert peak < 1_000_000


def test_lift_failure_names_first_element_in_cell_order(monkeypatch):
    # C_3 x (2x2 band): one D-class, four cells of three elements, each cell its own partner
    table = direct_product(cyclic(3), rectangular_band(2, 2))
    f = decide_orthodox_matching(table).f
    grid = green_classes(table).egg_boxes[0].grid
    x, y = grid[0][0][1], grid[0][1][0]       # cell 0's second element, cell 1's first
    assert y < x
    v = inverse_matrix(table).copy()
    v[x, f[x]] = v[y, f[y]] = False           # no inverse left in either image cell
    monkeypatch.setattr(matching_mod, "inverse_matrix", lambda t: v)
    with pytest.raises(LiftFailureError, match=f"element {x} has 0 inverses in the image cell"):
        decide_orthodox_matching(table)
    v[x, f[x]] = v[y, f[y]] = True
    v[y, grid[0][1][1]] = True                # a second inverse in y's image cell
    with pytest.raises(LiftFailureError, match=f"element {y} has 2 inverses in the image cell"):
        decide_orthodox_matching(table)
