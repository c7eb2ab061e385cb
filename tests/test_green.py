from __future__ import annotations

import dataclasses
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semigroup_match import (
    MulTable,
    classify,
    d_class_band,
    green_arrays,
    green_classes,
    idempotents,
    rectangular_band,
)
from semigroup_match import green as green_mod
from semigroup_match.green import _rees_minima, _scatter_minima, omega_powers

from characterization_reference import omega_data
from corpus import (
    RANDOM_REES,
    adjoin_identity,
    band7,
    brandt,
    cyclic,
    full_corpus,
    monogenic,
    null_semigroup,
    placements,
    random_rees,
    rees_over_group,
    t_n,
)
from test_matching import block_rees_draws


def brute_green(table):
    """Naive ideal-equality Green classes, the reference for green_classes.

    aRb iff aS^1 = bS^1, aLb iff S^1a = S^1b, H = R meet L, and D is the
    smallest equivalence containing R and L, found by union-find rather
    than through D = R o L.
    """
    n = table.n
    p = table.product
    r_key = [frozenset({a} | {int(p[a, x]) for x in range(n)}) for a in range(n)]
    l_key = [frozenset({a} | {int(p[x, a]) for x in range(n)}) for a in range(n)]
    h_key = [(r_key[a], l_key[a]) for a in range(n)]

    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    groups = {}
    for a in range(n):
        groups.setdefault(("R", r_key[a]), []).append(a)
        groups.setdefault(("L", l_key[a]), []).append(a)
    for members in groups.values():
        for b in members[1:]:
            parent[find(b)] = find(members[0])

    def partition(keys):
        buckets = {}
        for a in range(n):
            buckets.setdefault(keys[a], []).append(a)
        return {frozenset(m) for m in buckets.values()}

    d_parts = {}
    for a in range(n):
        d_parts.setdefault(find(a), []).append(a)
    return (
        partition(r_key),
        partition(l_key),
        partition(h_key),
        {frozenset(m) for m in d_parts.values()},
    )


def as_sets(classes):
    return {frozenset(c) for c in classes}


def check_against_oracle(table, name=""):
    g = green_classes(table)
    r, l, h, d = brute_green(table)
    assert as_sets(g.r_classes) == r, name
    assert as_sets(g.l_classes) == l, name
    assert as_sets(g.h_classes) == h, name
    assert as_sets(g.d_classes) == d, name


def check_first_seen_ids(g, name=""):
    for classes, labels in (
        (g.r_classes, g.r_class),
        (g.l_classes, g.l_class),
        (g.h_classes, g.h_class),
        (g.d_classes, g.d_class),
    ):
        firsts = [min(c) for c in classes]
        assert firsts == sorted(firsts), name
        for cid, members in enumerate(classes):
            assert all(labels[a] == cid for a in members), name


def check_grids_partition(g, name=""):
    for box in g.egg_boxes:
        seen = [a for row in box.grid for cell in row for a in cell]
        assert sorted(seen) == sorted(g.d_classes[box.d_class]), name
        for row in box.grid:
            for cell in row:
                assert len(cell) >= 1, name


class TestAgainstIdealOracle:
    @pytest.mark.parametrize("name,table", full_corpus())
    def test_full_corpus(self, name, table):
        check_against_oracle(table, name)


class TestFrozenStructure:
    def test_band7_counts_and_classes(self):
        g = green_classes(band7())
        assert len(g.r_classes) == 3
        assert len(g.l_classes) == 4
        assert len(g.h_classes) == 7
        assert len(g.d_classes) == 2
        assert tuple(g.d_class) == (0, 0, 0, 0, 0, 0, 1)
        assert g.r_classes[0] == (0, 1, 2)
        assert g.r_classes[1] == (3, 4, 5)
        assert g.l_classes[:3] == ((0, 3), (1, 4), (2, 5))

    def test_band7_egg_box(self):
        g = green_classes(band7())
        box = g.egg_boxes[0]
        assert box.r_ids == (0, 1)
        assert box.l_ids == (0, 1, 2)
        assert box.grid == (((0,), (1,), (2,)), ((3,), (4,), (5,)))
        tail = g.egg_boxes[1]
        assert tail.grid == (((6,),),)

    def test_group_is_single_class(self):
        g = green_classes(cyclic(6))
        assert len(g.d_classes) == 1
        assert len(g.h_classes) == 1
        assert g.h_classes[0] == tuple(range(6))

    def test_t3_d_class_sizes(self):
        g = green_classes(t_n(3))
        sizes = sorted(len(d) for d in g.d_classes)
        # rank-1 constants, rank-2 maps, rank-3 permutations
        assert sizes == [3, 6, 18]

    def test_ids_in_first_seen_order(self):
        for name, table in full_corpus():
            check_first_seen_ids(green_classes(table), name)


class TestEggBoxes:
    @pytest.mark.parametrize("name,table", full_corpus())
    def test_regular_d_class_rows_and_columns_hold_idempotents(self, name, table):
        g = green_classes(table)
        e = set(idempotents(table))
        for box in g.egg_boxes:
            members = g.d_classes[box.d_class]
            if not any(a in e for a in members):
                continue
            for row in box.grid:
                assert any(a in e for cell in row for a in cell), name
            for col in zip(*box.grid):
                assert any(a in e for cell in col for a in cell), name

    @pytest.mark.parametrize("name,table", full_corpus())
    def test_grid_partitions_the_d_class(self, name, table):
        check_grids_partition(green_classes(table), name)


@st.composite
def transformation_subsemigroups(draw):
    """Subsemigroup of T_k (k <= 4) generated by 1-3 maps, randomly relabelled.

    Maps compose left to right, (xy)(i) = y(x(i)).  Such semigroups have
    non-regular D-classes and D-classes that are not R u L.
    """
    k = draw(st.integers(1, 4))
    a_map = st.tuples(*[st.integers(0, k - 1)] * k)
    gens = draw(st.lists(a_map, min_size=1, max_size=3, unique=True))

    def mul(x, y):
        return tuple(y[x[i]] for i in range(k))

    elems = list(gens)
    index = {x: i for i, x in enumerate(elems)}
    # elems grows while it is walked, so every pair of elements is multiplied
    for pos, x in enumerate(elems):
        for y in elems[:pos + 1]:
            for z in (mul(x, y), mul(y, x)):
                if z not in index:
                    index[z] = len(elems)
                    elems.append(z)
    m = len(elems)
    perm = draw(st.permutations(range(m)))
    rows = [[0] * m for _ in range(m)]
    for a, x in enumerate(elems):
        for b, y in enumerate(elems):
            rows[perm[a]][perm[b]] = perm[index[mul(x, y)]]
    return MulTable(rows)


class TestTransformationSubsemigroups:
    @settings(max_examples=300)
    @given(transformation_subsemigroups())
    def test_green_classes_match_oracle(self, table):
        check_against_oracle(table)
        g = green_classes(table)
        check_first_seen_ids(g)
        check_grids_partition(g)


def check_row_blocks(table, rows, name=""):
    """green_classes of a fresh copy of table, its ideals scattered `rows`
    rows at a time, against the one-block result and the ideal oracle."""
    fresh = MulTable(table.product)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(green_mod, "_ASSOC_CHUNK_CELLS", 8 * table.n * rows)
        got = green_classes(fresh)
    want = green_classes(table)
    for field in dataclasses.fields(want):
        assert getattr(got, field.name) == getattr(want, field.name), (name, rows, field.name)
    check_against_oracle(fresh, name)


class TestRowBlocks:
    """green_classes scatters the ideals a block of rows at a time.  At the
    module's constant a block is smaller than the table only above 512
    elements, so these tests shrink it to a few rows."""

    @pytest.mark.parametrize("rows", [1, 3, 17])
    @pytest.mark.parametrize("name,table", full_corpus())
    def test_full_corpus(self, name, table, rows):
        check_row_blocks(table, rows, name)

    @settings(max_examples=100)
    @given(transformation_subsemigroups(), st.sampled_from((1, 3, 17)))
    def test_transformation_subsemigroups(self, table, rows):
        check_row_blocks(table, rows)


def _power_sequence(table, a):
    """a, a^2, ... up to the first repeat, and the index and period of a."""
    seq = [a]
    seen = {a: 1}
    while True:
        nxt = table.mul(seq[-1], a)
        if nxt in seen:
            return seq, seen[nxt], len(seq) + 1 - seen[nxt]
        seq.append(nxt)
        seen[nxt] = len(seq)


class TestOmega:
    def test_c6_generator(self):
        omega, om1 = omega_powers(cyclic(6))
        assert omega[1] == 0
        assert om1[1] == 5

    def test_two_step_aperiodic(self):
        # a^2 = a^3 != a: omega is a^2 and a itself is the last pre-omega power
        omega, om1 = omega_powers(monogenic(2, 1))
        assert omega[0] == 1
        assert om1[0] == 0

    def test_idempotent_element(self):
        omega, om1 = omega_powers(cyclic(1))
        assert omega.tolist() == [0] and om1.tolist() == [0]

    def test_vectors_are_read_only(self):
        for vec in omega_powers(cyclic(3)):
            assert vec.dtype == np.intp and not vec.flags.writeable

    @pytest.mark.parametrize("name,table", full_corpus())
    def test_against_power_sequence(self, name, table):
        omega, om1 = omega_powers(table)
        for a in range(table.n):
            seq, index, period = _power_sequence(table, a)
            # omega is the idempotent power, inside the cycle part
            m = ((index + period - 1) // period) * period
            assert m >= index
            assert omega[a] == seq[m - 1], name
            assert table.mul(omega[a], omega[a]) == omega[a]
            # no earlier power is idempotent
            assert all(table.mul(x, x) != x for x in seq[:m - 1]), name
            # omega_minus_one uses the least k >= 1 with a^(k+1) = omega
            k = next(
                k for k in range(1, m + period + 1)
                if table.power(a, k + 1) == omega[a]
            )
            assert om1[a] == table.power(a, k), name
            assert table.mul(om1[a], a) == omega[a]

    @pytest.mark.parametrize("name,table", full_corpus())
    def test_reference_agrees(self, name, table):
        omega, om1 = omega_powers(table)
        for a in range(table.n):
            od = omega_data(table, a)
            _, index, period = _power_sequence(table, a)
            assert (od.index, od.period) == (index, period), name
            assert (od.omega, od.omega_minus_one) == (omega[a], om1[a]), name


class TestCombinatorial:
    def test_flags(self):
        assert classify(band7()).combinatorial
        assert not classify(cyclic(6)).combinatorial
        assert classify(monogenic(3, 1)).combinatorial
        assert not classify(t_n(3)).combinatorial


class TestArrays:
    def test_cached_and_read_only(self):
        table = band7()
        g = green_arrays(table)
        assert table._cache["green_arrays"] is g
        assert green_arrays(table) is g
        for a in (g.r_class, g.l_class, g.h_class, g.d_class, g.order, g.d_start,
                  g.rows, g.cols, g.cells(0)):
            assert not a.flags.writeable

    def test_band7_layout(self):
        g = green_arrays(band7())
        assert (g.r_count, g.l_count, g.h_count, g.d_count) == (3, 4, 7, 2)
        assert g.order.tolist() == list(range(7))
        assert g.d_start.tolist() == [0, 6, 7]
        assert (g.rows.tolist(), g.cols.tolist()) == ([2, 1], [3, 1])
        assert g.cells(0).tolist() == [[0], [1], [2], [3], [4], [5]]

    @pytest.mark.parametrize("name,table", full_corpus())
    def test_d_class_band_is_the_egg_box_band(self, name, table):
        for box in green_classes(table).egg_boxes:
            m, n = len(box.r_ids), len(box.l_ids)
            cells = np.array(box.grid, dtype=np.intp).reshape(m * n, -1)
            p = (table.product.diagonal()[cells] == cells).any(axis=1).reshape(m, n).T
            got = d_class_band(table, box.d_class)
            assert np.array_equal(got.p, p), name
            assert np.array_equal(got.cells, cells), name
            assert not got.p.flags.writeable and not got.cells.flags.writeable, name


def _rees_of(p) -> MulTable:
    """M0(I, Λ; P) of any 0/1 matrix p[λ][i], regular or not, with the zero last.

    Element i |Λ| + λ is (i, λ), as in rees_matrix, which takes only
    regular matrices.
    """
    p = np.array(p, dtype=bool)
    k, m = p.shape
    zero = m * k
    i, lam = np.divmod(np.arange(zero), k)
    prod = np.full((zero + 1, zero + 1), zero, dtype=np.intp)
    prod[:zero, :zero] = np.where(p[lam[:, None], i[None, :]], i[:, None] * k + lam[None, :], zero)
    return MulTable(prod)


def _check_rees_form(table, name=""):
    """The table's ReesForm describes its product, and Green's relations read
    off it are the scatters' and the ideal oracle's.

    A form without a zero is a rectangular band: P is all ones and the grid
    holds every element."""
    form = table.rees_form
    cell, p, z = form.cell, form.p, form.zero
    assert not cell.flags.writeable and not p.flags.writeable, name
    assert z is not None or p.all(), name
    zero = [] if z is None else [z]
    assert sorted(cell.ravel().tolist() + zero) == list(range(table.n)), name
    # (i, λ)(j, μ) = (i, μ) when p[λ, j], and z otherwise
    want = np.where(p[None, :, :, None], cell[:, None, None, :], -1 if z is None else z)  # [i, λ, j, μ]
    assert np.array_equal(table.product[cell[:, :, None, None], cell[None, None, :, :]], want), name
    for got, scattered in zip(_rees_minima(table), _scatter_minima(table)):
        assert np.array_equal(got, scattered), name
    check_against_oracle(table, name)


# Rees semigroups over the trivial group above order 4, each with a ReesForm
REES_TABLES = ([(f"rees{args[0]}", random_rees(*args)) for args in RANDOM_REES]
               + [(f"brandt{k}", brandt(k)) for k in (2, 3, 5, 16)]
               + [(f"block_rees{draw}", t) for draw, t in enumerate(block_rees_draws())
                  if t.rees_form is not None and t.n > 4])


class TestReesForm:
    """Tables that the associativity check proves to be M0(I, Λ; P) keep that
    ReesForm, and green_arrays reads R, L and H off it (_rees_minima) instead
    of scattering the ideals (_scatter_minima)."""

    @pytest.mark.parametrize("name,table", REES_TABLES, ids=[name for name, _ in REES_TABLES])
    def test_minima_agree_with_the_scatters_and_the_oracle(self, name, table):
        # the zero first, in the middle and last, and two random numberings
        for k, product in enumerate(placements(table.product)):
            placed = MulTable(product)
            assert placed.rees_form is not None, (name, k)
            _check_rees_form(placed, (name, k))

    @pytest.mark.parametrize("m,k", [(1, 2), (1, 5), (2, 1), (5, 1), (2, 3), (3, 3), (4, 4)])
    def test_rectangular_bands_in_every_numbering(self, m, k):
        # M(1; I, Λ) has no zero and P all ones: R is "same row", L "same
        # column", and green_arrays never scatters the ideals
        for j, product in enumerate(placements(rectangular_band(m, k).product)):
            placed = MulTable(product)
            assert placed.rees_form is not None and placed.rees_form.zero is None, (m, k, j)
            assert placed.rees_form.cell.shape == (m, k), (m, k, j)
            _check_rees_form(placed, (m, k, j))
            with mock.patch.object(green_mod, "_scatter_minima") as scatter:
                g = green_arrays(placed)
            scatter.assert_not_called()
            assert (g.r_count, g.l_count, g.h_count, g.d_count) == (m, k, m * k, 1)

    def test_the_rees_tables_are_many(self):
        # most block Rees draws that are not products have the form
        assert len(REES_TABLES) >= 100

    def test_the_null_semigroup_of_order_two_has_a_zero_sandwich_matrix(self):
        # the one non-regular P the certificate accepts: a a = z, so a is
        # alone in its R- and L-class
        table = null_semigroup(2)
        assert table.rees_form.p.tolist() == [[False]]
        _check_rees_form(table, "null2")
        assert green_arrays(table).d_count == 2

    def test_every_sandwich_matrix_up_to_3x3(self):
        # of the 682 0/1 matrices with at most 3 rows and 3 columns, the
        # certificate holds on the 327 regular ones and on [[0]] alone: a
        # zero row or column of any other puts two elements in one label
        certified = 0
        for rows, cols in itertools.product((1, 2, 3), repeat=2):
            for bits in itertools.product((False, True), repeat=rows * cols):
                p = np.array(bits).reshape(rows, cols)
                regular = bool(p.any(axis=0).all() and p.any(axis=1).all())
                table = _rees_of(p)
                assert (table.rees_form is not None) == (regular or p.tolist() == [[False]]), p.tolist()
                if table.rees_form is not None:
                    certified += 1
                    _check_rees_form(table, p.tolist())
        assert certified == 328

    def test_band7_is_a_rees_semigroup(self):
        # M0 of a 3 x 2 sandwich matrix: its six nonzero elements are one D-class
        table = band7()
        assert table.rees_form.cell.shape == (2, 3)
        _check_rees_form(table, "band7")

    @pytest.mark.parametrize("name,table", [
        ("rees_c3", rees_over_group(cyclic(3), [[0, 1], [None, 2]])),
        ("t3", t_n(3)),
        ("band7_one", adjoin_identity(band7())),
    ])
    def test_other_tables_carry_no_certificate(self, name, table):
        assert table.rees_form is None
        check_against_oracle(table, name)

    def test_no_square_array_for_a_rees_table(self):
        # the scatters hold two n x n bool arrays; read off the 27 x 37 grid
        # of this 1000-element table, Green's relations take O(n) bytes
        table = random_rees(27, 27, 37, 0.3)
        assert table.n == 1000 and table.rees_form is not None
        tracemalloc.start()
        try:
            green_arrays(table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < table.n ** 2
