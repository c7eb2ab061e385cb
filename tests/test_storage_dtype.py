"""The product is stored once, in the narrowest unsigned dtype, and read right.

MulTable stores its product as a read-only C-ordered array of
np.min_scalar_type(n - 1): uint8 up to 256 elements, uint16 up to 65536.
The builders and parse_table make it in that dtype from the start, so
MulTable keeps their array.  uint8 and uint16 wrap without warning, so
every index or value worked out from the entries must be worked out in
intp; the tables at the dtype boundaries (255, 256 and 257 elements) and
the direct products whose factors are uint8 but whose product is not would
show a wrapped index as wrong Green's relations, a wrong inverse relation
or a table that is not the product of its factors.  inverse_matrix reads
(ab)a at (ab)*n + a of the flattened product a block of rows at a time, so
it is also checked with blocks small enough that every table spans several.
"""

from __future__ import annotations

import numpy as np
import pytest

from semigroup_match import (
    BoolStructureMatrix,
    HallCertificate,
    Matching,
    MulTable,
    TutteBarrier,
    decide,
    direct_product,
    full_transformation,
    green_arrays,
    inverse_matrix,
    is_orthodox,
    parse_table,
    principal_factor,
    rectangular_band,
    rees_matrix,
    render_table,
    verify_barrier,
    verify_matching,
)
from semigroup_match import structure
from semigroup_match.green import _rees_minima, _scatter_minima
from semigroup_match.table import DEFAULT_SIZE_CAP, _read_table

from corpus import brandt, cyclic, full_corpus, t_n


def check_storage(table: MulTable, name=""):
    p = table.product
    assert p.dtype == np.min_scalar_type(table.n - 1), name
    assert p.flags.c_contiguous, name
    assert not p.flags.writeable, name


def _matrix(rows: int, cols: int) -> BoolStructureMatrix:
    """A rows x cols 0/1 matrix with a 1 in every row and column, and some 0s."""
    return BoolStructureMatrix(tuple(tuple((i + lam) % 3 != 1 or i == lam for i in range(cols))
                                     for lam in range(rows)))


# (name, builder): the package's own constructors, at and around the
# uint8/uint16 boundary; a Rees semigroup of rows x cols has rows*cols + 1
# elements
BUILDERS = [
    ("band 15x17 (255)", lambda: rectangular_band(15, 17)),
    ("band 16x16 (256)", lambda: rectangular_band(16, 16)),
    ("right zero 257", lambda: rectangular_band(1, 257)),
    ("rees 2x127 (255)", lambda: rees_matrix(_matrix(2, 127))),
    ("rees 5x51 (256)", lambda: rees_matrix(_matrix(5, 51))),
    ("brandt 16 (257)", lambda: brandt(16)),
    ("T_3 (27)", lambda: full_transformation(3)),
    ("T_4 (256)", lambda: full_transformation(4)),
    ("C_2 x band 16x8 (256)", lambda: direct_product(cyclic(2), rectangular_band(16, 8))),
    ("T_3 x C_10 (270)", lambda: direct_product(t_n(3), cyclic(10))),
    ("one element x right zero 256", lambda: direct_product(cyclic(1), rectangular_band(1, 256))),
]


@pytest.mark.parametrize("name,build", BUILDERS, ids=[name for name, _ in BUILDERS])
def test_builders_store_the_narrow_dtype(name, build):
    table = build()
    check_storage(table, name)
    # the text round trip reads the same entries into the same dtype
    parsed = parse_table(render_table(table))
    check_storage(parsed, name)
    assert np.array_equal(parsed.product, table.product), name


@pytest.mark.parametrize("build,d", [(lambda: brandt(16), 0), (lambda: brandt(16), 1),
                                     (lambda: direct_product(rectangular_band(16, 16), cyclic(2)), 0)],
                         ids=["brandt16 nonzero", "brandt16 zero", "band16x16xC2"])
def test_principal_factor_stores_the_narrow_dtype(build, d):
    # brandt(16)'s nonzero class has 256 elements, so its factor 257
    check_storage(principal_factor(build(), d).table)


def test_direct_product_is_the_product_of_its_factors():
    # T_3 x C_10: uint8 factors, a uint16 product whose entries reach 269
    s, t = t_n(3), cyclic(10)
    table = direct_product(s, t)
    want = [[s.mul(a // 10, b // 10) * 10 + t.mul(a % 10, b % 10) for b in range(270)]
            for a in range(270)]
    assert table.product.tolist() == want


INPUTS = [
    ("intp", lambda p: p.astype(np.intp)),
    ("int64", lambda p: p.astype(np.int64)),
    ("int32 read-only", lambda p: _read_only(p.astype(np.int32))),
    ("writeable narrow", np.array),
    ("fortran", np.asfortranarray),
    ("transposed", np.transpose),
    ("list", lambda p: p.tolist()),
]


def _read_only(arr):
    arr.setflags(write=False)
    return arr


@pytest.mark.parametrize("kind,make", INPUTS, ids=[kind for kind, _ in INPUTS])
@pytest.mark.parametrize("n", [27, 256, 257])
def test_multable_narrows_any_input(kind, make, n):
    # T_3's transposed table is its opposite semigroup, also associative
    base = {27: t_n(3), 256: rectangular_band(16, 16), 257: brandt(16)}[n].product
    given = make(base)
    table = MulTable(given)
    check_storage(table, kind)
    assert table.product is not given
    want = base.T if kind == "transposed" else base
    assert np.array_equal(table.product, want)


@pytest.mark.parametrize("text", [
    render_table(rectangular_band(16, 16)),           # the byte pass
    "2\n+0 1\n1 0\n",                                 # the per-row int() loop
], ids=["byte pass", "int loop"])
def test_parsed_array_is_kept(text):
    names, product = _read_table(text, DEFAULT_SIZE_CAP)
    assert MulTable(product, names).product is product
    assert parse_table(text).product.dtype == product.dtype


# tables at the dtype boundary, and direct products of uint8 factors whose
# own product is uint16
BOUNDARY = [
    ("band 15x17 (255)", lambda: rectangular_band(15, 17)),
    ("band 16x16 (256)", lambda: rectangular_band(16, 16)),
    ("right zero 257", lambda: rectangular_band(1, 257)),
    ("rees 5x51 (256)", lambda: rees_matrix(_matrix(5, 51))),
    ("brandt 16 (257)", lambda: brandt(16)),
    ("T_3 x C_10 (270)", lambda: direct_product(t_n(3), cyclic(10))),
    ("band 16x16 x C_2 (512)", lambda: direct_product(rectangular_band(16, 16), cyclic(2))),
]


def definition_inverses(table: MulTable) -> np.ndarray:
    """V[a, b]: aba = a and bab = b, read off the table in intp."""
    q = table.product.astype(np.intp)
    ar = np.arange(table.n)
    aba = q[q, ar[:, None]]                 # aba[a, b] = (ab)a
    bab = q[q.T, ar]                        # bab[a, b] = (ba)b
    return (aba == ar[:, None]) & (bab == ar)


def check_answer(table: MulTable, res, v: np.ndarray, involution: bool):
    if isinstance(res, Matching):
        f = np.array(res.f)
        assert sorted(res.f) == list(range(table.n))
        assert v[np.arange(table.n), f].all()
        assert verify_matching(table, res.f, require_involution=involution).ok
        if involution:
            assert np.array_equal(f[f], np.arange(table.n))
    elif isinstance(res, HallCertificate):
        assert not involution
        image = np.flatnonzero(v[list(res.violating_set)].any(axis=0)).tolist()
        assert list(res.image) == image
        assert len(res.violating_set) > len(image)
    else:
        assert involution and isinstance(res, TutteBarrier)
        assert verify_barrier(table, res).ok


@pytest.mark.parametrize("name,build", BOUNDARY, ids=[name for name, _ in BOUNDARY])
def test_boundary_tables_read_right(name, build):
    # imported here: test_green builds direct products at import, so a
    # wrapped product would stop this module's collection, not fail its tests
    from test_green import check_against_oracle

    table = build()
    check_storage(table, name)
    check_against_oracle(table, name)
    if table.rees_form is not None:
        for got, want in zip(_rees_minima(table), _scatter_minima(table)):
            assert np.array_equal(got, want), name
    v = definition_inverses(table)
    assert np.array_equal(inverse_matrix(table), v), name
    methods = ["auto", "hall"] + (["orthodox"] if is_orthodox(table) else [])
    for method in methods:
        check_answer(table, decide(table, method=method), v, involution=False)
    check_answer(table, decide(table, involution=True), v, involution=True)
    assert green_arrays(table).r_class.dtype == np.intp


# each corpus table afresh, so that its inverse relation is not yet cached
BLOCK_TABLES = BOUNDARY + [(name, lambda t=table: MulTable(t.product))
                           for name, table in full_corpus()]


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("name,build", BLOCK_TABLES, ids=[name for name, _ in BLOCK_TABLES])
def test_inverse_matrix_in_row_blocks(monkeypatch, name, build, rows):
    table = build()
    # inverse_matrix takes _ASSOC_CHUNK_CELLS // (8 n) rows per block
    monkeypatch.setattr(structure, "_ASSOC_CHUNK_CELLS", 8 * table.n * rows)
    assert np.array_equal(inverse_matrix(table), definition_inverses(table)), name
