from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from semigroup_match import (
    BoolStructureMatrix,
    MulTable,
    NotOrthodoxError,
    NotRegularDClassError,
    classify,
    green_classes,
    h_quotient_band,
    idempotents,
    inverse_sets,
    maximal_rect_subbands,
    principal_factor,
    principal_factors,
    rees_matrix,
    similarity_check,
)

from band_reference import block_coordinates, block_labels, pair_index

from corpus import (
    band7,
    block_band,
    brandt,
    five_unique,
    full_corpus,
    inverses_of_set,
    monogenic,
    small_corpus,
)


class TestPrincipalFactors:
    def test_band7_top_factor_is_itself(self):
        # the nonzero D-class plus a zero reproduces the original table
        pf = principal_factors(band7())
        assert len(pf) == 2
        top = pf[0]
        assert top.element_map == (0, 1, 2, 3, 4, 5)
        assert top.zero == 6
        assert top.table == band7()

    def test_band7_zero_factor(self):
        bottom = principal_factors(band7())[1]
        assert bottom.element_map == (6,)
        assert bottom.zero == 1
        assert bottom.table == MulTable([[0, 1], [1, 1]], names=("0", "0'"))

    @pytest.mark.parametrize("name,table", small_corpus())
    def test_products_collapse_outside_the_class(self, name, table):
        g = green_classes(table)
        for pf in principal_factors(table):
            members = set(pf.element_map)
            assert pf.zero == len(pf.element_map)
            assert pf.element_map == tuple(sorted(members))
            back = {x: i for i, x in enumerate(pf.element_map)}
            t = pf.table
            for i, x in enumerate(pf.element_map):
                for j, y in enumerate(pf.element_map):
                    xy = table.mul(x, y)
                    want = back[xy] if xy in members else pf.zero
                    assert t.mul(i, j) == want, name
            assert all(t.mul(a, pf.zero) == pf.zero for a in range(t.n)), name
        ids = [pf.d_class for pf in principal_factors(table)]
        assert ids == sorted(set(range(len(g.d_classes)))), name

    def test_large_factor_holds_its_table_once(self):
        # B(40): one D-class of 1600 elements, gathered in blocks of 256
        # rows, the last one short; the factor is the table itself.  Its
        # (k + 1) x (k + 1) uint16 table is kept by MulTable, not copied, and
        # no second one is made on the way
        table = brandt(40)
        g = green_classes(table)
        (d,) = [d for d, members in enumerate(g.d_classes) if len(members) == 1600]
        tracemalloc.start()
        try:
            pf = principal_factor(table, d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(pf.table.product, table.product)
        assert peak < 2 * 1601 * 1601 * 8


class TestHQuotient:
    def test_band7_quotient(self):
        top = principal_factors(band7())[0]
        band = h_quotient_band(top)
        assert (band.m, band.n) == (2, 3)
        assert band.p.tolist() == [[False, True], [True, False], [True, False]]
        assert not band.p.flags.writeable
        # cell (i, lam) is row i*3 + lam
        assert band.cells.tolist() == [[0], [1], [2], [3], [4], [5]]
        assert not band.cells.flags.writeable
        assert band.zero == 6
        assert rees_matrix(BoolStructureMatrix(band.p)) == band7()

    def test_pair_index_coords_round_trip(self):
        top = principal_factors(band7())[0]
        band = h_quotient_band(top)
        for i in range(band.m):
            for lam in range(band.n):
                assert band.coords(pair_index(band, i, lam)) == (i, lam)

    def test_no_idempotent_raises(self):
        table = monogenic(2, 1)
        top = principal_factors(table)[0]
        assert top.element_map == (0,)
        with pytest.raises(NotRegularDClassError, match="no band quotient"):
            h_quotient_band(top)
        # the factor of a class without an idempotent is null, not 0-simple:
        # the regularity check must come first on every such class
        for name, table in full_corpus():
            e = set(idempotents(table))
            for pf in principal_factors(table):
                if not e.intersection(pf.element_map):
                    with pytest.raises(NotRegularDClassError, match="no band quotient"):
                        h_quotient_band(pf)

    def test_group_collapses_to_point(self):
        from corpus import cyclic

        top = principal_factors(cyclic(6))[0]
        band = h_quotient_band(top)
        assert (band.m, band.n) == (1, 1)
        assert band.cells.tolist() == [[0, 1, 2, 3, 4, 5]]

    @pytest.mark.parametrize("name,table", small_corpus())
    def test_cells_mark_idempotent_h_classes(self, name, table):
        e = set(idempotents(table))
        for pf in principal_factors(table):
            if not any(x in e for x in pf.element_map):
                continue
            band = h_quotient_band(pf)
            assert sorted(band.cells.ravel().tolist()) == list(pf.element_map), name
            for c, xs in enumerate(band.cells.tolist()):
                i, lam = band.coords(c)
                has_idem = any(x in e for x in xs)
                assert band.p[lam, i] == has_idem, name


class TestSubbands:
    def test_band7_blocks(self):
        band = h_quotient_band(principal_factors(band7())[0])
        dec = maximal_rect_subbands(band)
        assert dec.block_sizes() == ((1, 2), (1, 1))
        assert block_labels(dec) == ([0, 1], [1, 0, 0])
        assert dec.r_order.tolist() == [0, 1]
        assert dec.l_order.tolist() == [1, 2, 0]
        # cells (1, 1) and (1, 2) lie in row block 1 (1x1) and column block 0
        # (1x2): 1 * 2 > 1 * 1, so they hold the certificate's elements 4 and 5
        assert dec.surplus().tolist() == [[False, False, False], [False, True, True]]
        assert not dec.row_block.flags.writeable and not dec.col_block.flags.writeable

    def test_band7_phi(self):
        band = h_quotient_band(principal_factors(band7())[0])
        dec = maximal_rect_subbands(band)
        phi = block_coordinates(band, dec)
        assert phi == {
            0: (0, 1), 1: (0, 0), 2: (0, 0),
            3: (1, 1), 4: (1, 0), 5: (1, 0),
        }
        # the non-idempotent (2,2) sits at block coordinate (2,1) and has
        # exactly m_1 * n_2 = 1 inverse
        assert phi[4] == (1, 0)
        sizes = dec.block_sizes()
        i, j = phi[4]
        v = inverse_sets(band7())
        assert len(v[4]) == sizes[j][0] * sizes[i][1] == 1

    def test_band7_not_similar(self):
        band = h_quotient_band(principal_factors(band7())[0])
        verdict = similarity_check(maximal_rect_subbands(band))
        assert not verdict.pairwise_similar
        assert verdict.witness == (0, 1)

    def test_block_construction_round_trips(self):
        # all-true 4x2 and 2x1 diagonal blocks give subbands 2x4 and 1x2,
        # which are similar because 2*2 == 1*4
        table = block_band([(2, 4), (1, 2)])
        band = h_quotient_band(principal_factors(table)[0])
        dec = maximal_rect_subbands(band)
        assert dec.block_sizes() == ((2, 4), (1, 2))
        assert similarity_check(dec).pairwise_similar

    def test_inverse_blocks_are_all_singletons(self):
        band = h_quotient_band(principal_factors(brandt(2))[0])
        dec = maximal_rect_subbands(band)
        assert dec.block_sizes() == ((1, 1), (1, 1))
        assert similarity_check(dec).pairwise_similar

    def test_not_orthodox_cells(self):
        band = h_quotient_band(principal_factors(five_unique())[0])
        with pytest.raises(NotOrthodoxError) as exc:
            maximal_rect_subbands(band)
        assert exc.value.witness == (0, 3)


class TestDecompositionInvariants:
    @pytest.mark.parametrize("name,table", full_corpus())
    def test_block_laws_on_orthodox_fixtures(self, name, table):
        if not classify(table).orthodox:
            return
        e = set(idempotents(table))
        v = inverse_sets(table)
        for pf in principal_factors(table):
            if not any(x in e for x in pf.element_map):
                continue
            band = h_quotient_band(pf)
            # orthodoxy is inherited: idempotents of the band are closed
            bt = rees_matrix(BoolStructureMatrix(band.p))
            be = set(idempotents(bt))
            assert all(bt.mul(x, y) in be for x in be for y in be), name
            dec = maximal_rect_subbands(band)
            sizes = dec.block_sizes()
            # phi covers the class; idempotents land on the diagonal
            phi = block_coordinates(band, dec)
            assert set(phi) == set(pf.element_map), name
            for x in pf.element_map:
                i, j = phi[x]
                if x in e:
                    assert i == j, name
                assert len(v[x]) == sizes[j][0] * sizes[i][1], name
            # the (i,j) blocks partition the class and invert blockwise
            blocks = {}
            for x, ij in phi.items():
                blocks.setdefault(ij, set()).add(x)
            count = len(sizes)
            for i in range(count):
                for j in range(count):
                    got = blocks.get((i, j), set())
                    assert inverses_of_set(table, got) == frozenset(
                        blocks.get((j, i), set())
                    ), name

    @pytest.mark.parametrize("name,table", full_corpus())
    def test_diagonal_reordering(self, name, table):
        if not classify(table).orthodox:
            return
        e = set(idempotents(table))
        for pf in principal_factors(table):
            if not any(x in e for x in pf.element_map):
                continue
            band = h_quotient_band(pf)
            dec = maximal_rect_subbands(band)
            for i in range(band.m):
                for lam in range(band.n):
                    if band.p[lam, i]:
                        assert dec.row_block[i] == dec.col_block[lam], name
