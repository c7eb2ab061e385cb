from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

from semigroup_match import (
    BoolStructureMatrix,
    CapExceededError,
    EntryRangeError,
    MulTable,
    NotAssociativeError,
    NotRegularMatrixError,
    TableFormatError,
    classify,
    direct_product,
    full_transformation,
    gamma_structure,
    green_classes,
    idempotents,
    inverse_matrix,
    inverse_sets,
    orthodoxy_witness,
    parse_table,
    rectangular_band,
    rees_matrix,
    render_table,
)

from semigroup_match import table as table_mod

from corpus import band7, cyclic, full_corpus, small_corpus, t_n


class TestMulTable:
    def test_basic_construction(self):
        t = cyclic(3)
        assert t.n == 3
        assert len(t) == 3
        assert t.mul(1, 2) == 0
        assert t.names is None
        assert t.element_name(2) == "2"

    def test_product_array_is_frozen(self):
        t = cyclic(3)
        with pytest.raises(ValueError):
            t.product[0, 0] = 1

    def test_power(self):
        t = cyclic(6)
        assert t.power(1, 1) == 1
        assert t.power(1, 5) == 5
        assert t.power(1, 6) == 0
        with pytest.raises(ValueError):
            t.power(1, 0)
        # square-and-multiply: k need not be small
        assert t.power(1, 10**12) == 10**12 % 6
        assert t.power(5, 10**12 + 1) == 5 * (10**12 + 1) % 6

    def test_power_matches_repeated_products(self):
        for _, t in small_corpus():
            for a in range(t.n):
                x = a
                for k in range(1, 2 * t.n + 2):
                    assert t.power(a, k) == x
                    x = t.mul(x, a)

    def test_rejects_non_square(self):
        with pytest.raises(TableFormatError):
            MulTable([[0, 0], [0, 0], [0, 0]])

    @pytest.mark.parametrize("rows", [
        [[0.7]],
        [[0, 1.9], [1, 0.2]],
        [["0", "1"], ["1", "0"]],
        [[0, 1], [1]],
        [[None]],
    ])
    def test_rejects_non_integer_entries(self, rows):
        with pytest.raises(TableFormatError):
            MulTable(rows)

    def test_rejects_empty(self):
        with pytest.raises(TableFormatError):
            MulTable(np.empty((0, 0), dtype=int))

    def test_rejects_out_of_range_entry(self):
        with pytest.raises(EntryRangeError, match=r"product\[0\]\[1\] = 2"):
            MulTable([[0, 2], [0, 0]])

    def test_rejects_non_associative_with_witness(self):
        rows = [[1, 2, 0], [0, 0, 0], [0, 0, 0]]
        with pytest.raises(NotAssociativeError) as exc:
            MulTable(rows)
        assert exc.value.witness == (0, 0, 0)
        assert "(0,0,0)" in str(exc.value).replace(" ", "")

    def test_rejects_bad_names(self):
        with pytest.raises(TableFormatError):
            MulTable([[0]], names=["a", "b"])
        with pytest.raises(TableFormatError):
            MulTable([[0, 1], [1, 0]], names=["x", "x"])
        with pytest.raises(TableFormatError):
            MulTable([[0, 1], [1, 0]], names=["x", "a b"])
        with pytest.raises(TableFormatError):
            MulTable([[0, 1], [1, 0]], names=["x", ""])

    @pytest.mark.parametrize("layout", [np.asfortranarray, np.transpose],
                             ids=["fortran", "transposed"])
    def test_product_is_c_ordered(self, layout):
        # T_3's transposed table is its opposite semigroup, also associative
        given = layout(t_n(3).product)
        assert not given.flags.c_contiguous
        t = MulTable(given)
        assert t.product.flags.c_contiguous
        assert t == MulTable(np.ascontiguousarray(given))

    def test_keeps_an_owned_read_only_array_in_the_storage_dtype(self):
        # T_3 has 27 elements, so its product is stored as uint8
        given = np.array(t_n(3).product, dtype=np.uint8)
        given.setflags(write=False)
        assert MulTable(given).product is given
        # an owned read-only intp array is copied into the storage dtype
        wide = np.array(t_n(3).product, dtype=np.intp)
        wide.setflags(write=False)
        kept = MulTable(wide).product
        assert kept is not wide
        assert kept.dtype == np.uint8 and not kept.flags.writeable
        assert np.array_equal(kept, wide)

    def test_copies_a_writeable_array(self):
        given = np.array(t_n(3).product)
        t = MulTable(given)
        assert t.product is not given
        assert given.flags.writeable
        given[0, 0] = 1
        assert np.array_equal(t.product, t_n(3).product)

    def test_copies_a_read_only_view(self):
        # whatever owns the data could still write to it
        base = np.array(t_n(3).product)
        view = base.view()
        view.setflags(write=False)
        t = MulTable(view)
        assert t.product is not view
        base[0, 0] = 1
        assert np.array_equal(t.product, t_n(3).product)

    def test_parse_holds_the_table_once(self):
        # the 16 x 16 band, 256 elements: its product is uint8, n^2 bytes,
        # and reading and verifying it peaks below one n x n intp array; so
        # do its copies with CRLF line ends, with tabs, and with comment and
        # blank lines, whose blocks are rebuilt without them
        text = render_table(rectangular_band(16, 16))
        n = 256
        lines = text.splitlines()
        commented = lines[:1] + ["# a comment", ""]
        for i, line in enumerate(lines[1:]):
            commented += [line, f"  # row {i}", "\t"] if i % 3 == 0 else [line]
        copies = {
            "plain": text,
            "crlf": text.replace("\n", "\r\n"),
            "tabs": text.replace(" ", "\t"),
            "commented": "\n".join(commented) + "\n",
        }
        for name, copy in copies.items():
            tracemalloc.start()
            try:
                parse_table(copy)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < n * n * 8, name

    def test_equality(self):
        assert cyclic(3) == cyclic(3)
        assert cyclic(3) != cyclic(4)
        assert rectangular_band(2, 2) != MulTable(rectangular_band(2, 2).product)

    def test_associativity_of_every_fixture(self):
        # MulTable construction checks associativity by Light's test;
        # re-verify a few triples by hand on a bigger instance.
        t = full_transformation(3)
        p = t.product
        trip = [(0, 13, 26), (26, 13, 0), (25, 25, 25)]
        for a, b, c in trip:
            assert p[p[a, b], c] == p[a, p[b, c]]


# every function whose result is cached on the table, with its cache key
DERIVED = [
    (green_classes, "green"),
    (idempotents, "idempotents"),
    (inverse_matrix, "inverse_matrix"),
    (inverse_sets, "inverse_sets"),
    (gamma_structure, "gamma"),
    (orthodoxy_witness, "orthodoxy_witness"),
    (classify, "classify"),
]


@pytest.mark.parametrize("fn,key", DERIVED, ids=[key for _, key in DERIVED])
def test_derived_results_are_cached(fn, key):
    # band7 is orthodox, so orthodoxy_witness caches its None result too
    table = band7()
    first = fn(table)
    assert table._cache[key] is first
    assert fn(table) is first
    if fn is orthodoxy_witness:
        assert first is None


class TestParseRender:
    def test_parse_minimal(self):
        t = parse_table("1\n0\n")
        assert t.n == 1

    def test_parse_with_comments_and_names(self):
        text = "# a comment\n# names: e g\n2\n0 1\n1 0\n"
        t = parse_table(text)
        assert t.names == ("e", "g")
        assert t.mul(1, 1) == 0

    def test_round_trip_every_fixture(self):
        for name, t in small_corpus():
            assert parse_table(render_table(t)) == t, name

    @pytest.mark.parametrize("name,table", full_corpus())
    def test_render_matches_per_entry_loop(self, name, table):
        lines = [] if table.names is None else ["# names: " + " ".join(table.names)]
        lines.append(str(table.n))
        for a in range(table.n):
            lines.append(" ".join(str(int(x)) for x in table.product[a]))
        assert render_table(table) == "\n".join(lines) + "\n"

    def test_render_exact_format(self):
        t = rectangular_band(1, 2)
        expected = "# names: (1,1) (1,2)\n2\n0 1\n0 1\n"
        assert render_table(t) == expected

    def test_parse_errors(self):
        with pytest.raises(TableFormatError, match="no data lines"):
            parse_table("# nothing here\n")
        with pytest.raises(TableFormatError, match="element count"):
            parse_table("1 2\n0 0\n")
        with pytest.raises(TableFormatError, match="not an integer"):
            parse_table("x\n0\n")
        with pytest.raises(TableFormatError, match="must be positive"):
            parse_table("0\n")
        with pytest.raises(TableFormatError, match="expected 2 table rows"):
            parse_table("2\n0 1\n")
        with pytest.raises(TableFormatError, match="row 1: expected 2 entries"):
            parse_table("2\n0 1\n0\n")
        with pytest.raises(TableFormatError, match="row 0: non-integer"):
            parse_table("2\n0 z\n1 0\n")

    def test_parse_size_cap(self):
        # the count alone decides: no row is read before the cap check
        with pytest.raises(CapExceededError, match="5001 elements, cap is 5000"):
            parse_table("5001\n")
        with pytest.raises(CapExceededError, match="cap is 2"):
            parse_table("3\n0 0 0\n0 0 0\n0 0 0\n", max_size=2)
        with pytest.raises(TableFormatError, match="expected 5001 table rows"):
            parse_table("5001\n", max_size=5001)
        assert parse_table("3\n0 0 0\n0 0 0\n0 0 0\n", max_size=3).n == 3


class TestStructureMatrix:
    def test_shape_and_entries(self):
        p = BoolStructureMatrix(((1, 0), (1, 1)))
        assert p.rows == 2 and p.cols == 2
        assert p.entries == ((True, False), (True, True))

    def test_rejects_all_false_row(self):
        with pytest.raises(NotRegularMatrixError, match="row 1"):
            BoolStructureMatrix(((True, True), (False, False)))

    def test_rejects_all_false_column(self):
        with pytest.raises(NotRegularMatrixError, match="column 0"):
            BoolStructureMatrix(((False, True), (False, True)))

    def test_rejects_ragged(self):
        with pytest.raises(TableFormatError):
            BoolStructureMatrix(((True,), (True, True)))


class TestReesMatrix:
    def test_band7_layout(self):
        t = band7()
        assert t.n == 7
        assert t.names == ("(1,1)", "(1,2)", "(1,3)", "(2,1)", "(2,2)", "(2,3)", "0")
        # zero absorbs
        assert all(t.mul(a, 6) == 6 and t.mul(6, a) == 6 for a in range(7))

    def test_idempotent_cells_match_structure_matrix(self):
        p = BoolStructureMatrix(((False, True), (True, False), (True, False)))
        t = rees_matrix(p)
        rows = p.rows
        for i in range(p.cols):
            for lam in range(rows):
                a = i * rows + lam
                assert (t.mul(a, a) == a) == p.entries[lam][i]
        zero = p.cols * rows
        assert t.mul(zero, zero) == zero

    def test_product_rule(self):
        p = BoolStructureMatrix(((True, True), (False, True)))
        t = rees_matrix(p)
        rows = p.rows
        zero = p.cols * rows
        for i in range(p.cols):
            for lam in range(rows):
                for k in range(p.cols):
                    for mu in range(rows):
                        got = t.mul(i * rows + lam, k * rows + mu)
                        want = i * rows + mu if p.entries[lam][k] else zero
                        assert got == want


def rees_reference(p: BoolStructureMatrix) -> np.ndarray:
    """The Rees product filled in cell by cell: (i, lam)(k, mu) = (i, mu)
    at index i*rows + mu when p[lam][k], else the zero (last index)."""
    rows, cols = p.rows, p.cols
    zero = cols * rows
    prod = np.full((zero + 1, zero + 1), zero, dtype=np.intp)
    for i in range(cols):
        for lam in range(rows):
            for k in range(cols):
                if p.entries[lam][k]:
                    for mu in range(rows):
                        prod[i * rows + lam, k * rows + mu] = i * rows + mu
    return prod


class TestReesAgainstReference:
    def test_random_matrices(self):
        rng = np.random.default_rng(2026)
        for _ in range(50):
            rows, cols = (int(x) for x in rng.integers(1, 8, size=2))
            entries = rng.random((rows, cols)) < rng.uniform(0.2, 0.8)
            # one mark per row and per column keeps the matrix regular
            entries[np.arange(rows), np.arange(rows) % cols] = True
            entries[np.arange(cols) % rows, np.arange(cols)] = True
            p = BoolStructureMatrix(entries.tolist())
            assert np.array_equal(rees_matrix(p).product, rees_reference(p)), entries

    def test_corpus_matrices(self):
        for entries in [((True,),), ((True, False), (True, True)),
                        ((True, True, False), (False, True, True))]:
            p = BoolStructureMatrix(entries)
            assert np.array_equal(rees_matrix(p).product, rees_reference(p))


class TestRectangularBand:
    def test_defining_identity(self):
        for m, n in [(2, 3), (3, 2), (1, 4)]:
            t = rectangular_band(m, n)
            for a in range(t.n):
                for b in range(t.n):
                    assert t.mul(t.mul(a, b), a) == a

    def test_names(self):
        t = rectangular_band(2, 2)
        assert t.names == ("(1,1)", "(1,2)", "(2,1)", "(2,2)")

    def test_rejects_degenerate(self):
        with pytest.raises(TableFormatError):
            rectangular_band(0, 3)


class TestFullTransformation:
    def test_t2_idempotent_count(self):
        t = full_transformation(2)
        assert t.n == 4
        assert self._recount_idempotents(2) == 3
        assert sum(1 for a in range(t.n) if t.mul(a, a) == a) == 3

    def test_t3_idempotent_count(self):
        t = full_transformation(3)
        assert t.n == 27
        assert self._recount_idempotents(3) == 10
        assert sum(1 for a in range(t.n) if t.mul(a, a) == a) == 10

    @staticmethod
    def _recount_idempotents(n: int) -> int:
        # independent recount straight from the maps, bypassing the table
        count = 0
        for f in itertools.product(range(n), repeat=n):
            if all(f[f[x]] == f[x] for x in range(n)):
                count += 1
        return count

    def test_composition_is_left_to_right(self):
        t = full_transformation(2)
        names = t.names
        i_00 = names.index("00")
        i_11 = names.index("11")
        # constants compose like a right-zero semigroup
        assert t.mul(i_00, i_11) == i_11
        assert t.mul(i_11, i_00) == i_00

    def test_identity_name(self):
        t = full_transformation(3)
        ident = t.names.index("012")
        assert all(t.mul(ident, a) == a and t.mul(a, ident) == a for a in range(t.n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_against_composition_loop(self, n):
        maps = list(itertools.product(range(n), repeat=n))
        index = {f: i for i, f in enumerate(maps)}
        want = [[index[tuple(g[x] for x in f)] for g in maps] for f in maps]
        t = full_transformation(n, max_size=n ** n)
        assert np.array_equal(t.product, want)
        assert t.names == tuple("".join(map(str, f)) for f in maps)

    def test_product_peaks_under_three_products(self, monkeypatch):
        # the product is summed one digit of the numeral at a time, so
        # besides itself at most one size x size digit array is live, never
        # a size x size x n gather
        monkeypatch.setattr(table_mod, "MulTable", lambda prod, names: prod)
        tracemalloc.start()
        try:
            prod = full_transformation(4, max_size=256)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert prod.shape == (256, 256)
        assert peak < 3 * prod.nbytes

    def test_element_cap(self):
        with pytest.raises(CapExceededError,
                           match="^full transformation semigroup has 46656 elements, cap is 5000$"):
            full_transformation(6)
        assert full_transformation(2, max_size=4).n == 4
        with pytest.raises(CapExceededError, match="has 4 elements, cap is 3$"):
            full_transformation(2, max_size=3)

    def test_t5_under_the_default_cap(self):
        t = full_transformation(5)
        assert t.n == 3125
        ident = t.names.index("01234")
        assert np.array_equal(t.product[ident], np.arange(t.n))
        assert np.array_equal(t.product[:, ident], np.arange(t.n))


class TestDirectProduct:
    def test_rect_product_is_rect_band(self):
        # 2x1 times 1x3 gives a 6-element rectangular band: every element
        # is an inverse of every other, exactly as in rectangular_band(2,3)
        t = direct_product(rectangular_band(2, 1), rectangular_band(1, 3))
        assert t.n == 6
        v = inverse_sets(t)
        full = frozenset(range(6))
        assert all(v[a] == full for a in range(6))
        ref = rectangular_band(2, 3)
        assert all(inverse_sets(ref)[a] == full for a in range(6))

    def test_names_only_when_both_named(self):
        named = direct_product(rectangular_band(1, 2), rectangular_band(2, 1))
        assert named.names == ("((1,1),(1,1))", "((1,1),(2,1))", "((1,2),(1,1))", "((1,2),(2,1))")
        anon = direct_product(cyclic(2), rectangular_band(1, 2))
        assert anon.names is None

    def test_size_cap(self):
        with pytest.raises(CapExceededError):
            direct_product(cyclic(10), cyclic(10), max_size=50)

    def test_componentwise(self):
        s, t = cyclic(2), cyclic(3)
        p = direct_product(s, t)
        for a, b in itertools.product(range(s.n), range(t.n)):
            for c, d in itertools.product(range(s.n), range(t.n)):
                got = p.mul(a * t.n + b, c * t.n + d)
                assert got == s.mul(a, c) * t.n + t.mul(b, d)
