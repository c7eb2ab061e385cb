"""The associativity check against the n^3 sweep of associativity_reference.

MulTable sweeps the row/column quotient of the table, after checking a
generating set where that is cheaper, so every NotAssociativeError must
carry the same lexicographically first bad triple as the n^3 sweep, also
when the first failure comes late.  Generators with small ideals are
checked through Sg and gS (_factored_check), one generator at a time.  A
False from that check only sends Light's test to the full sweep, which
finds the same witness, so the check is also compared with its
definition, (xg)y = x(gy) for every x of xs and y of ys, for each
generator alone and for the whole set.  The tests after those force that
route and check it against the sweep, calling Light's test
(_light_witness) directly, since _associativity_witness certifies the
tables of the form M0(I, Λ; P) and the rectangular bands before it;
Rees matrix semigroups over C_3, C_4 and S_3 are the completely 0-simple
tables the route exists for.  The tests at the end check that
certificate, _rees_form: it holds on Rees semigroups over the trivial
group, with a zero or without one (the rectangular bands), whatever
their numbering, on no other semigroup, and on no table with a failing
triple.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semigroup_match import (
    BoolStructureMatrix,
    MulTable,
    NotAssociativeError,
    d_class_band,
    direct_product,
    full_transformation,
    green_arrays,
    green_classes,
    inverse_matrix,
    rectangular_band,
    rees_matrix,
)
from semigroup_match import table as table_mod
from semigroup_match.factors import principal_factor
from semigroup_match.structure import idempotents
from semigroup_match.table import (
    _associativity_witness,
    _factored_check,
    _first_equal,
    _generators,
    _ideal_profile,
    _light_sets,
    _light_witness,
    _narrow,
    _rees_form,
    _transposed,
)

from associativity_reference import full_witness, round_robin_generators
from corpus import (
    RANDOM_REES,
    REES_OVER_GROUP,
    adjoin_identity,
    adjoin_zero,
    all_semigroups,
    block_band,
    brandt,
    chain_semilattice,
    cyclic,
    full_corpus,
    left_zero,
    null_semigroup,
    one_entry_mutations,
    placements,
    random_rees,
    renumbered,
    right_zero,
    symmetric3,
    t_n,
)

CORPUS = full_corpus()
SMALL = [(name, t) for name, t in CORPUS if t.n <= 12]
TINY = [(name, t) for name, t in SMALL if t.n <= 6]


def _band_factor():
    """Principal factor of the 2 x 3 band's D-class in the band with a zero."""
    s = adjoin_zero(rectangular_band(2, 3))
    (d,) = [d for d, members in enumerate(green_classes(s).d_classes) if len(members) == 6]
    return principal_factor(s, d).table


# tables whose rows or columns repeat, so Light's test runs on a quotient
QUOTIENT = [
    ("left_zero5", left_zero(5)),
    ("right_zero5", right_zero(5)),
    ("null5", null_semigroup(5)),
    ("rect23", rectangular_band(2, 3)),
    ("rect32", rectangular_band(3, 2)),
    ("rect22_x_c2", direct_product(rectangular_band(2, 2), cyclic(2))),
    ("block_band_12_21", block_band([(1, 2), (2, 1)])),
    ("rect23_zero_factor", _band_factor()),
]


def _closure(product, gens) -> set:
    """Elements reached from gens by right multiplication, one at a time."""
    reached = set(int(g) for g in gens)
    queue = list(reached)
    while queue:
        x = queue.pop()
        for g in gens:
            y = int(product[x, g])
            if y not in reached:
                reached.add(y)
                queue.append(y)
    return reached


def generators(product):
    """table._generators given the profile that _light_sets passes it."""
    return _generators(product, _ideal_profile(product, _transposed(product)))


def _check_generators(product):
    n = product.shape[0]
    gens = generators(product)
    assert len(set(gens.tolist())) == len(gens)
    assert set(range(n)) - set(product.ravel().tolist()) <= set(gens.tolist())
    assert _closure(product, gens) == set(range(n))


@pytest.mark.parametrize("name,table", CORPUS, ids=[name for name, _ in CORPUS])
def test_corpus_tables_agree_with_the_sweep(name, table):
    assert _associativity_witness(table.product) is None
    assert full_witness(table.product) is None
    _check_generators(table.product)


@pytest.mark.parametrize("name,table", SMALL + QUOTIENT, ids=[name for name, _ in SMALL + QUOTIENT])
def test_every_one_entry_mutation_gets_the_sweep_witness(name, table):
    for q in one_entry_mutations(table.product):
        witness = full_witness(q)
        assert _associativity_witness(q) == witness
        if witness is None:
            MulTable(q)
        else:
            with pytest.raises(NotAssociativeError) as exc:
                MulTable(q)
            assert exc.value.witness == witness


@pytest.mark.parametrize("cells", [1, 3, 17, 40])
def test_small_chunks_cross_boundaries(monkeypatch, cells):
    # 1 and 17 split the x-rows; 40 batches up to 2 generators per step.
    # The quotient tables check |xs| x |gens| x |ys| cells: 3 splits the
    # 3 x 6 x 2 check of the 3 x 2 band one x and one generator at a time,
    # and the 5 x 5 x 1 check of left_zero5 into x-blocks of 3 and 2
    monkeypatch.setattr(table_mod, "_ASSOC_CHUNK_CELLS", cells)
    for _, table in TINY + QUOTIENT[:5]:
        assert _associativity_witness(table.product) is None
        for q in one_entry_mutations(table.product):
            assert _associativity_witness(q) == full_witness(q)


def _near_band(k):
    """The k x k rectangular band with product[k^2 - 1][0] = 0.

    The new entry keeps the column of the old one, (k - 1) k, so only the
    triples with ab = k^2 - 1 fail, the first of them near the end of the
    sweep: a is the least element of the last row but one.
    """
    product = rectangular_band(k, k).product.copy()
    product[-1, 0] = 0
    return product


@pytest.mark.parametrize("k", range(2, 33))
def test_near_band_gets_its_late_witness(k):
    product = _near_band(k)
    want = ((k - 1) * k, k - 1, 0)
    if k <= 12:
        assert full_witness(product) == want
    with pytest.raises(NotAssociativeError) as exc:
        MulTable(product)
    assert exc.value.witness == want
    # blocks of 1, 3 and 17 x over every (row, column) class
    _, _, ys, _, classes = _light_sets(product)
    for per_block in (1, 3, 17):
        with mock.patch.object(table_mod, "_ASSOC_CHUNK_CELLS", per_block * len(classes) * len(ys)):
            assert _associativity_witness(product) == want


@st.composite
def random_tables(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    entries = draw(st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n))
    return np.array(entries, dtype=np.intp).reshape(n, n)


@given(random_tables())
def test_random_tables_get_the_sweep_witness(product):
    assert _associativity_witness(product) == full_witness(product)
    _check_generators(product)


@st.composite
def tables_with_repeats(draw):
    """A random table with some rows, then some columns, copied onto others."""
    product = draw(random_tables())
    n = product.shape[0]
    moves = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n)
    for src, dst in draw(moves):
        product[dst] = product[src]
    for src, dst in draw(moves):
        product[:, dst] = product[:, src]
    return product


@given(tables_with_repeats())
def test_repeated_rows_and_columns_get_the_sweep_witness(product):
    assert _associativity_witness(product) == full_witness(product)
    _check_light_sets(product)


@pytest.mark.parametrize("n", [2, 64])
def test_null_semigroup_and_left_zero_band_verify(n):
    # S^2 = {0} in the null semigroup, so all other elements are generators;
    # the left-zero band satisfies xy = x, so no element reaches another
    null = null_semigroup(n).product
    assert generators(null).tolist() == list(range(1, n))
    assert _associativity_witness(null) is None
    band = left_zero(n).product
    assert generators(band).tolist() == list(range(n))
    assert _associativity_witness(band) is None


@pytest.mark.parametrize("cells", [1, 200, 1 << 21])
def test_ideal_profile_matches_the_definition(monkeypatch, cells):
    # 200 cells split the tables of 6 to 12 elements into blocks of 2 to 4
    # rows, the last block short for some of them
    monkeypatch.setattr(table_mod, "_ASSOC_CHUNK_CELLS", cells)
    for _, table in SMALL:
        p = table.product
        rows = [set(p[a].tolist()) for a in range(table.n)]
        cols = [set(p[:, a].tolist()) for a in range(table.n)]
        size, row_min, col_min, in_square = _ideal_profile(p, _transposed(p))
        assert size.tolist() == [len(r) + len(c) for r, c in zip(rows, cols)]
        assert row_min.tolist() == [min(r) for r in rows]
        assert col_min.tolist() == [min(c) for c in cols]
        assert np.flatnonzero(in_square).tolist() == sorted(set().union(*rows))


@pytest.mark.parametrize("rows,cols", [(1, 9), (9, 1), (2, 7), (7, 2), (5, 5), (4, 13), (32, 32)])
def test_rectangular_band_gets_its_rank(rows, cols):
    # while both remain, each pick takes a new R-class and a new L-class;
    # after that each takes one of those left, so the count is the rank
    for seed in range(3):
        product = renumbered(rectangular_band(rows, cols).product, seed)
        assert len(generators(product)) == max(rows, cols)
        _check_generators(product)


def test_full_transformation_gets_few_generators():
    # T_4 has rank 3; index order alone took 36
    product = full_transformation(4).product
    assert len(generators(product)) <= 6
    _check_generators(product)


# tables whose generators are pinned to the round-robin reference, built on
# demand: full_corpus() holds T_4, and T_5 takes about a second to build
PINNED = ([(name, lambda t=t: t) for name, t in CORPUS]
          + [(f"rees{args[0]}", lambda a=args: random_rees(*a)) for args in RANDOM_REES[:20]]
          + [("t5", lambda: t_n(5)),
             ("rect44_x_c4", lambda: direct_product(rectangular_band(4, 4), cyclic(4)))])


@pytest.mark.parametrize("name,build", PINNED, ids=[name for name, _ in PINNED])
def test_generators_match_the_round_robin_reference(name, build):
    # the closure multiplies queue[:i] by each new generator's column; without
    # that back-fill the reached sets differ, and so do the picks on t4 and others
    product = build().product
    assert generators(product).tolist() == round_robin_generators(product).tolist()


def _check_light_sets(product):
    """_light_sets against its definition, read off Python lists."""
    n = product.shape[0]
    rows = [tuple(product[a].tolist()) for a in range(n)]
    cols = [tuple(product[:, a].tolist()) for a in range(n)]
    want_xs = [a for a in range(n) if rows[a] not in rows[:a]]
    want_ys = [a for a in range(n) if cols[a] not in cols[:a]]
    pairs = list(zip(rows, cols))
    classes = [a for a in range(n) if pairs[a] not in pairs[:a]]
    xs, gens, ys, _, least = _light_sets(product)
    assert xs.tolist() == want_xs
    assert ys.tolist() == want_ys
    assert least.tolist() == classes
    if len(want_xs) * len(classes) * len(want_ys) <= 2 * n * n:
        assert gens.tolist() == classes
    else:
        # the first generator of each (row, column) class, in generator order
        order = generators(product).tolist()
        assert gens.tolist() == [g for k, g in enumerate(order)
                                 if pairs[g] not in [pairs[h] for h in order[:k]]]


def test_first_equal_matches_the_definition():
    # product rows and columns, bool rows of the inverse matrix (gamma_structure's
    # V classes) and the transposed structure matrix of every D-class's band
    # (maximal_rect_subbands' row blocks), 1 x 4 and 4 x 1 among them
    thin = [("rect14", rectangular_band(1, 4)), ("rect41", rectangular_band(4, 1))]
    for _, table in SMALL + QUOTIENT + thin:
        bands = [_transposed(d_class_band(table, d).p) for d in range(green_arrays(table).d_count)]
        for lines in [table.product, np.ascontiguousarray(table.product.T),
                      inverse_matrix(table)] + bands:
            rows = lines.tolist()
            assert _first_equal(lines).tolist() == [rows.index(r) for r in rows]


def test_first_equal_reads_views_in_any_order():
    # a transposed view's rows are not contiguous, so no void view of them
    # exists; the answer must be the C-ordered copy's
    for _, table in SMALL[:10] + [("rect41", rectangular_band(4, 1))]:
        for lines in [table.product.T, inverse_matrix(table).T, table.product[:, ::-1]]:
            assert _first_equal(lines).tolist() == _first_equal(np.ascontiguousarray(lines)).tolist()
    p = d_class_band(rectangular_band(2, 3), 0).p
    assert _first_equal(p.T).tolist() == _first_equal(_transposed(p)).tolist()


def test_one_class_per_distinct_row_and_column():
    # the null semigroup has one row, one column and so one class; the
    # left-zero band's rows are constant at the element, so all differ,
    # and every column is the identity map
    xs, gens, ys, _, _ = _light_sets(null_semigroup(64).product)
    assert (xs.tolist(), gens.tolist(), ys.tolist()) == ([0], [0], [0])
    xs, gens, ys, _, _ = _light_sets(left_zero(64).product)
    assert (xs.tolist(), gens.tolist(), ys.tolist()) == (list(range(64)), list(range(64)), [0])


@pytest.mark.parametrize("name,table", CORPUS + QUOTIENT, ids=[name for name, _ in CORPUS + QUOTIENT])
def test_light_sets_match_the_definition(name, table):
    _check_light_sets(table.product)


@pytest.mark.parametrize("rows,cols", [(1, 64), (64, 1), (8, 8), (4, 16), (13, 5)])
def test_rectangular_band_checks_n_squared_cells(rows, cols):
    # k rows, l columns and every element its own class: k * n * l = n^2
    n = rows * cols
    product = renumbered(rectangular_band(rows, cols).product, 0)
    xs, gens, ys, _, _ = _light_sets(product)
    assert (len(xs), len(gens), len(ys)) == (rows, n, cols)


# --- Light's condition through Sg and gS ------------------------------------


@contextlib.contextmanager
def _factored_calls(**constants):
    """The sizes of the nonempty generator sets _factored_check is called on.

    Light's test calls it whenever _light_sets bounds the generators, with
    no generator when none has a small enough ideal.  constants override
    table's module constants meanwhile; with _FACTORED_RATIO at 0, every
    generator that _light_sets bounds is checked through Sg and gS.
    """
    calls = []
    real = table_mod._factored_check

    def spy(x_rows, y_cols, gens):
        if len(gens):
            calls.append(len(gens))
        return real(x_rows, y_cols, gens)

    with mock.patch.multiple(table_mod, _factored_check=spy, **constants):
        yield calls


FACTORED_EVERYWHERE = {"_FACTORED_RATIO": 0}


def _sampled_mutations(product, count, seed):
    """count tables that each differ from product in one seeded entry.

    Every other one changes a random entry to a random value; the rest set
    a product equal to the most frequent entry (the zero of a Rees
    semigroup) to its left or right factor.  Several of those break only
    condition (A) of _factored_check: with a random entry, (A) alone catches
    about one mutation in a hundred.
    """
    n = product.shape[0]
    rng = np.random.default_rng(seed)
    collapsed = np.argwhere(product == np.bincount(product.ravel()).argmax())
    for i in range(count):
        q = product.copy()
        if i % 2:
            a, b = collapsed[rng.integers(len(collapsed))]
            q[a, b] = a if rng.integers(2) else b
        else:
            a, b = rng.integers(n, size=2)
            q[a, b] = (q[a, b] + rng.integers(1, n)) % n
        yield q


def _check_factored_route(q):
    """q gets the sweep's witness from Light's test, every bounded generator checked through Sg and gS.

    Light's test is called directly: _associativity_witness answers the
    unmutated Rees tables with _rees_form and never reaches it.
    """
    with _factored_calls(**FACTORED_EVERYWHERE) as calls:
        assert _light_witness(_narrow(q)) == full_witness(q)
    return bool(calls)


def _rees_times_group():
    return direct_product(random_rees(3, 4, 5, 0.4), cyclic(3))


# 12 mutations of each of the first 20 RANDOM_REES draws, 60 of a Rees
# semigroup times C_3 and 20 of each Rees semigroup over a group
MUTATED = ([(f"rees{args[0]}", lambda a=args: random_rees(*a), 12) for args in RANDOM_REES[:20]]
           + [("rees3_4x5_x_c3", _rees_times_group, 60)]
           + [(name, lambda t=t: t, 20) for name, t in REES_OVER_GROUP])


@pytest.mark.parametrize("name,build,count", MUTATED, ids=[name for name, _, _ in MUTATED])
def test_factored_route_gets_the_sweep_witness_on_mutations(name, build, count):
    product = build().product
    assert _check_factored_route(product)
    for q in _sampled_mutations(product, count, seed=product.shape[0]):
        assert _check_factored_route(q)


# the n <= 12 corpus tables whose generators _light_sets bounds, and a
# Rees semigroup times C_2; some of their mutations break only (A)
BOUNDED = ([(name, t) for name, t in SMALL if _light_sets(t.product)[3] is not None]
           + [("five_unique_x_c2", direct_product(dict(CORPUS)["five_unique"], cyclic(2)))])


@pytest.mark.parametrize("name,table", BOUNDED, ids=[name for name, _ in BOUNDED])
def test_every_one_entry_mutation_gets_the_sweep_witness_through_sg_and_gs(name, table):
    taken = 0
    for q in one_entry_mutations(table.product):
        taken += _check_factored_route(q)
    assert taken


@st.composite
def mutated_rees(draw):
    """A random Rees semigroup, times C_k for k <= 3, with one entry changed."""
    rows, cols = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    cells = draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))
    p = np.array(cells, dtype=bool).reshape(rows, cols)
    # a one in every row and every column
    p[np.arange(rows), np.arange(rows) % cols] = True
    p[np.arange(cols) % rows, np.arange(cols)] = True
    table = rees_matrix(BoolStructureMatrix(p.tolist()))
    k = draw(st.integers(1, 3))
    if k > 1:
        table = direct_product(table, cyclic(k))
    product = table.product.copy()
    n = table.n
    a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if product[a, b] in product[-1] and draw(st.booleans()):
        # a product in the kernel, the last row's values, set to a factor
        product[a, b] = draw(st.sampled_from([a, b]))
    else:
        product[a, b] = (product[a, b] + draw(st.integers(1, n - 1))) % n
    return product


@given(mutated_rees())
def test_random_mutated_rees_get_the_sweep_witness_through_sg_and_gs(product):
    bounded = _light_sets(product)[3] is not None
    assert _check_factored_route(product) == bounded


@pytest.mark.parametrize("cells", [1, 3, 17, 40, 700])
def test_factored_chunks_cross_boundaries(cells):
    # _ASSOC_CHUNK_CELLS does not split _factored_check, which takes one
    # generator at a time; it splits _ideal_profile's blocks of rows and
    # the sweep over every class that a False from the check starts: up to
    # 40 cells sweep one x at a time, up to 17 one class at a time, and 700
    # takes 5 to 7 x of these 10- and 13-element tables, or 13 classes of
    # the 63-element one, at once
    tables = [brandt(3), random_rees(4, 3, 4, 0.5), _rees_times_group()]
    with mock.patch.object(table_mod, "_ASSOC_CHUNK_CELLS", cells):
        for table in tables:
            assert _check_factored_route(table.product)
            for q in _sampled_mutations(table.product, 20, seed=cells):
                assert _check_factored_route(q)


def test_natural_choice_on_mutations_of_a_large_rees_semigroup():
    # at the module's own constants, RANDOM_REES[20] (401 elements) takes
    # the factored route for all 20 generators
    product = random_rees(*RANDOM_REES[20]).product
    for q in [product, *_sampled_mutations(product, 8, seed=20)]:
        with _factored_calls() as calls:
            assert _light_witness(_narrow(q)) == full_witness(q)
        assert calls and calls[0] >= 19


def _check_factored_definition(product):
    """_factored_check holds for a set of generators exactly when (xg)y = x(gy) for all of them.

    x runs over xs and y over ys of _light_sets, and the definition is read
    off product itself; each element is checked alone, then gens together.
    """
    n = product.shape[0]
    compact = _narrow(product)
    xs, gens, ys, _, _ = _light_sets(compact)
    x_rows, y_cols = compact[xs], compact[:, ys]
    holds = [np.array_equal(product[product[xs, g]][:, ys], product[xs][:, product[g, ys]])
             for g in range(n)]
    for g in range(n):
        assert _factored_check(x_rows, y_cols, np.array([g])) == holds[g], g
    assert _factored_check(x_rows, y_cols, gens) == all(holds[g] for g in gens.tolist())
    return holds


ORDER3 = [p for n in (1, 2, 3) for p in all_semigroups(n)]


@st.composite
def associative_tables(draw):
    """The direct product of two semigroups of order at most 3, renumbered."""
    s, t = (MulTable(draw(st.sampled_from(ORDER3))) for _ in range(2))
    return renumbered(direct_product(s, t).product, draw(st.integers(0, 2**32 - 1)))


@given(st.one_of(tables_with_repeats(), associative_tables()))
def test_factored_check_matches_the_definition_on_random_tables(product):
    _check_factored_definition(product)


@pytest.mark.parametrize("name,table", BOUNDED + REES_OVER_GROUP, ids=[name for name, _ in BOUNDED + REES_OVER_GROUP])
def test_factored_check_matches_the_definition(name, table):
    # the tables are associative; for some elements g of the mutations of
    # every table but the groups, (A) fails and (B) holds, or the reverse
    assert all(_check_factored_definition(table.product))
    for q in _sampled_mutations(table.product, 20, seed=table.n):
        _check_factored_definition(q)


# which tables take the factored route in Light's test at the module's own
# constants, and which of them _rees_form certifies first
ROUTES = [
    ("rees20", lambda: random_rees(*RANDOM_REES[20]), True, True),
    ("brandt16", lambda: brandt(16), True, True),
    ("rees7_x_c3", lambda: direct_product(random_rees(*RANDOM_REES[7]), cyclic(3)), True, False),
    ("rees7", lambda: random_rees(*RANDOM_REES[7]), True, True),
    ("band64x64", lambda: rectangular_band(64, 64), False, True),
    ("left_zero2048", lambda: left_zero(2048), False, True),
    ("null64", lambda: null_semigroup(64), False, False),
    ("t4", lambda: t_n(4), False, False),
]


@pytest.mark.parametrize("name,build,factored,rees", ROUTES, ids=[name for name, _, _, _ in ROUTES])
def test_factored_route_is_taken_where_ideals_are_small(name, build, factored, rees):
    # bands, left-zero bands and null semigroups check every (row, column)
    # class directly; T_n's generators have ideals too large; 0-simple Rees
    # semigroups take it from about 90 elements up
    product = build().product
    with _factored_calls() as calls:
        assert _light_witness(_narrow(product)) is None
    assert bool(calls) == factored


@pytest.mark.parametrize("name,build,factored,rees", ROUTES, ids=[name for name, _, _, _ in ROUTES])
def test_light_test_runs_where_the_rees_form_does_not_hold(name, build, factored, rees):
    # Rees semigroups over the trivial group, rectangular bands among them,
    # are certified before Light's test; over C_3, for T_n and for tables
    # with a null part, it runs
    product = build().product
    assert (_rees_form(_narrow(product)) is not None) == rees
    with mock.patch.object(table_mod, "_light_witness", wraps=table_mod._light_witness) as light:
        assert _associativity_witness(product) is None
    assert light.called != rees


# --- The Rees certificate ---------------------------------------------------


def _certified(product) -> bool:
    return _rees_form(_narrow(product)) is not None


def _combinatorial_factors():
    """Principal factors of the combinatorial regular D-classes of full_corpus()."""
    factors = []
    for name, table in CORPUS:
        g = green_classes(table)
        idems = set(idempotents(table))
        for d, members in enumerate(g.d_classes):
            if idems & set(members) and all(len(g.h_classes[g.h_class[a]]) == 1 for a in members):
                factors.append((f"{name}_d{d}", principal_factor(table, d).table))
    return factors


def _rees256():
    """A 15 x 17 Rees semigroup: 256 elements, so its narrow table is uint8."""
    return random_rees(256, 17, 15, 0.4)


# rectangular bands, Rees semigroups over the trivial group without a zero:
# one element per cell of the grid, whatever their numbering
RECTANGULAR_BANDS = ([(f"rect1x{k}", rectangular_band(1, k)) for k in (2, 3, 5)]
                     + [(f"rect{k}x1", rectangular_band(k, 1)) for k in (2, 3, 5)]
                     + [("rect23", rectangular_band(2, 3)), ("rect33", rectangular_band(3, 3)),
                        ("rect44", rectangular_band(4, 4)), ("rect16x16", rectangular_band(16, 16))])

# 0-simple Rees semigroups over the trivial group: the zero and one element
# per cell of the grid, whatever their numbering; and the rectangular bands
REES_SHAPED = ([(f"rees{args[0]}", lambda a=args: random_rees(*a)) for args in RANDOM_REES]
               + [(f"brandt{k}", lambda k=k: brandt(k)) for k in (1, 2, 3, 8)]
               + [("block_band_12_21_33", lambda: block_band([(1, 2), (2, 1), (3, 3)])),
                  ("block_band_2412", lambda: block_band([(2, 4), (1, 2)])),
                  ("rect11_zero", lambda: adjoin_zero(rectangular_band(1, 1))),
                  ("rect23_zero", lambda: adjoin_zero(rectangular_band(2, 3))),
                  ("rect51_zero", lambda: adjoin_zero(rectangular_band(5, 1))),
                  ("rees256", _rees256)]
               + [(name, lambda t=t: t) for name, t in _combinatorial_factors()]
               + [(name, lambda t=t: t) for name, t in RECTANGULAR_BANDS])


@pytest.mark.parametrize("name,build", REES_SHAPED, ids=[name for name, _ in REES_SHAPED])
def test_rees_form_certifies_rees_semigroups_with_the_zero_anywhere(name, build):
    product = build().product
    for relabelled in placements(product):
        assert _certified(relabelled)
        with mock.patch.object(table_mod, "_light_witness") as light:
            assert _associativity_witness(relabelled) is None
        light.assert_not_called()


def test_rees_form_reads_a_uint8_table_with_element_255():
    # the zero sits at 255, then at 0, where 255 is an ordinary element: the
    # cyclic order after the zero needs no sentinel past 255
    product = _rees256().product
    assert _narrow(product).dtype == np.uint8
    placed = list(placements(product))
    assert [int(np.bincount(q.ravel()).argmax()) for q in placed[:2]] == [255, 0]
    assert all(_certified(q) for q in placed)


def test_the_combinatorial_factors_are_many():
    # every D-class of a band, a Brandt semigroup or a block-diagonal Rees
    # semigroup is combinatorial and regular
    assert len(_combinatorial_factors()) >= 40


# associative tables the certificate must leave to Light's test: a
# nontrivial group (band x C_k, groups, Rees over a group), a null part
# (n - 1 elements in one cell), T_n, or a band that is not rectangular
NOT_REES = [
    ("null3", null_semigroup(3)),
    ("null64", null_semigroup(64)),
    ("t2", t_n(2)),
    ("t3", t_n(3)),
    ("t4", t_n(4)),
    ("rees0_x_c2", direct_product(random_rees(*RANDOM_REES[0]), cyclic(2))),
    ("brandt3_x_c3", direct_product(brandt(3), cyclic(3))),
    ("rect23_x_c3", direct_product(rectangular_band(2, 3), cyclic(3))),
    ("rect22_x_c2", direct_product(rectangular_band(2, 2), cyclic(2))),
    ("left_zero3_x_c2", direct_product(left_zero(3), cyclic(2))),
    ("right_zero2_x_c3", direct_product(right_zero(2), cyclic(3))),
    ("c2", cyclic(2)),
    ("c4", cyclic(4)),
    ("s3", symmetric3()),
    ("left_zero2_x_chain2", direct_product(left_zero(2), chain_semilattice(2))),
    ("left_zero2_one", adjoin_identity(left_zero(2))),
    ("c2_zero", adjoin_zero(cyclic(2))),
    ("chain4", dict(CORPUS)["chain4"]),
    ("rect22_one", dict(CORPUS)["rect22_one"]),
    ("brandt3_one", adjoin_identity(brandt(3))),
    ("brandt3_zero", adjoin_zero(brandt(3))),
] + REES_OVER_GROUP


@pytest.mark.parametrize("name,table", NOT_REES, ids=[name for name, _ in NOT_REES])
def test_rees_form_rejects_other_semigroups(name, table):
    for relabelled in placements(table.product):
        assert not _certified(relabelled)
        assert _associativity_witness(relabelled) is None


# associative tables with neither a two-sided zero nor an idempotent diagonal
NO_ZERO_NOR_BAND = [("t3", t_n(3)), ("t4", t_n(4)), ("c4", cyclic(4)), ("s3", symmetric3()),
                    ("rect23_x_c3", direct_product(rectangular_band(2, 3), cyclic(3))),
                    ("rees0_x_c2", direct_product(random_rees(*RANDOM_REES[0]), cyclic(2)))]


@pytest.mark.parametrize("name,table", NO_ZERO_NOR_BAND + [("rect44", rectangular_band(4, 4))],
                         ids=[name for name, _ in NO_ZERO_NOR_BAND] + ["rect44"])
def test_rees_form_reads_no_block_of_rows_without_a_zero_or_a_band(name, table):
    # the zero probe and the diagonal are O(n) reads; the label pass slices
    # blocks of rows, and only the band gets that far
    sliced = []

    class Reads(np.ndarray):
        def __getitem__(self, key):
            if isinstance(key, slice):
                sliced.append(key)
            return super().__getitem__(key)

    form = _rees_form(_narrow(table.product).view(Reads))
    assert (form is not None) == bool(sliced) == (name == "rect44")


def test_rees_form_is_sound_on_every_small_semigroup_and_mutation():
    # every table of order at most 3, its one-entry mutations, and a seeded
    # 5000 of the 167,616 one-entry mutations of order 4: a certified table
    # has no failing triple
    tables = {n: all_semigroups(n) for n in range(1, 5)}
    small = [q for n in (1, 2, 3) for p in tables[n] for q in [p, *one_entry_mutations(p)]]
    picks = np.random.default_rng(167616).choice(3492 * 48, size=5000, replace=False)
    sampled = []
    for k in picks.tolist():
        t, r = divmod(k, 48)
        (a, b), shift = divmod(r // 3, 4), r % 3 + 1
        q = tables[4][t].copy()
        q[a, b] = (q[a, b] + shift) % 4
        sampled.append(q)
    certified = 0
    for q in small + sampled:
        if _certified(q):
            certified += 1
            assert full_witness(q) is None, q.tolist()
    assert len(small) == 2188 and certified


# small Rees semigroups whose mutations come closest to the form
REES_MUTATED = [("brandt3", brandt(3)), ("five_unique", dict(CORPUS)["five_unique"]),
                ("band7", dict(CORPUS)["band7"]), ("rect23_zero", adjoin_zero(rectangular_band(2, 3))),
                ("block_band_sim", dict(CORPUS)["block_band_sim"]),
                ("rect22", rectangular_band(2, 2)), ("rect23", rectangular_band(2, 3)),
                ("rect33", rectangular_band(3, 3)), ("left_zero4", left_zero(4)),
                ("right_zero4", right_zero(4))]


@pytest.mark.parametrize("cells", [1, 7, 1 << 21])
@pytest.mark.parametrize("name,table", REES_MUTATED, ids=[name for name, _ in REES_MUTATED])
def test_rees_form_is_sound_on_mutations_of_rees_semigroups(monkeypatch, name, table, cells):
    # 1 and 7 cells give one row per block, the default one block
    monkeypatch.setattr(table_mod, "_ASSOC_CHUNK_CELLS", cells)
    for relabelled in placements(table.product):
        assert _certified(relabelled)
        for q in one_entry_mutations(relabelled):
            if _certified(q):
                assert full_witness(q) is None, q.tolist()


def _twin_with_a_hole(product, h, s, v):
    """product with element h made a twin of s and every product that was h set to v.

    h takes s's row and column, so the labels fill every cell of the grid
    but h's, and s's cell holds two elements.
    """
    q = product.copy()
    q[q == h] = v
    q[h] = q[s]
    q[:, h] = q[:, s]
    return q


TWINNED = [("rect22_zero", adjoin_zero(rectangular_band(2, 2))), ("brandt2", brandt(2)),
           ("rect23_zero", adjoin_zero(rectangular_band(2, 3))),
           ("rect22", rectangular_band(2, 2)), ("rect23", rectangular_band(2, 3))]


@pytest.mark.parametrize("name,table", TWINNED, ids=[name for name, _ in TWINNED])
def test_rees_form_is_sound_on_twins_with_a_hole(name, table):
    # the grid holds its elements only when every cell holds exactly one;
    # whatever an empty cell is read as, a hole with its products set to
    # that value must not be certified when the table is not associative;
    # h and s run over the elements of the grid, every element of a band
    n = table.n
    grid = sorted(table.rees_form.cell.ravel().tolist())
    failing = 0
    for h in grid:
        for s in grid:
            if s != h:
                for v in range(n):
                    q = _twin_with_a_hole(table.product, h, s, v)
                    witness = full_witness(q)
                    failing += witness is not None
                    assert not (_certified(q) and witness is not None), q.tolist()
    assert failing
