"""Light's associativity test against the full n^3 sweep.

MulTable decides associativity by checking a generating set and runs the
full sweep only when that check fails, so every NotAssociativeError must
carry the same lexicographically first bad triple as the sweep.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semigroup_match import (
    MulTable,
    NotAssociativeError,
    full_transformation,
    rectangular_band,
)
from semigroup_match import table as table_mod
from semigroup_match.table import (
    _associativity_witness,
    _distinct_generators,
    _full_witness,
    _generators,
    _ideal_profile,
)

from corpus import full_corpus, left_zero, null_semigroup

CORPUS = full_corpus()
SMALL = [(name, t) for name, t in CORPUS if t.n <= 12]
TINY = [(name, t) for name, t in SMALL if t.n <= 6]


def _mutations(product):
    """Every table that differs from product in exactly one entry."""
    n = product.shape[0]
    for a in range(n):
        for b in range(n):
            for v in range(n):
                if v != product[a, b]:
                    q = product.copy()
                    q[a, b] = v
                    yield q


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


def _check_generators(product):
    n = product.shape[0]
    gens = _generators(product)
    assert len(set(gens.tolist())) == len(gens)
    assert set(range(n)) - set(product.ravel().tolist()) <= set(gens.tolist())
    assert _closure(product, gens) == set(range(n))


@pytest.mark.parametrize("name,table", CORPUS, ids=[name for name, _ in CORPUS])
def test_corpus_tables_agree_with_the_sweep(name, table):
    assert _associativity_witness(table.product) is None
    assert _full_witness(table.product) is None
    _check_generators(table.product)


@pytest.mark.parametrize("name,table", SMALL, ids=[name for name, _ in SMALL])
def test_every_one_entry_mutation_gets_the_sweep_witness(name, table):
    for q in _mutations(table.product):
        witness = _full_witness(q)
        assert _associativity_witness(q) == witness
        if witness is None:
            MulTable(q)
        else:
            with pytest.raises(NotAssociativeError) as exc:
                MulTable(q)
            assert exc.value.witness == witness


@pytest.mark.parametrize("cells", [1, 17, 40])
def test_small_chunks_cross_boundaries(monkeypatch, cells):
    # 1 and 17 split the x-rows; 40 batches up to 2 generators per step
    monkeypatch.setattr(table_mod, "_ASSOC_CHUNK_CELLS", cells)
    for _, table in TINY:
        assert _associativity_witness(table.product) is None
        for q in _mutations(table.product):
            assert _associativity_witness(q) == _full_witness(q)


@st.composite
def random_tables(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    entries = draw(st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n))
    return np.array(entries, dtype=np.intp).reshape(n, n)


@given(random_tables())
def test_random_tables_get_the_sweep_witness(product):
    assert _associativity_witness(product) == _full_witness(product)
    _check_generators(product)


@pytest.mark.parametrize("n", [2, 64])
def test_null_semigroup_and_left_zero_band_verify(n):
    # S^2 = {0} in the null semigroup, so all other elements are generators;
    # the left-zero band satisfies xy = x, so no element reaches another
    null = null_semigroup(n).product
    assert _generators(null).tolist() == list(range(1, n))
    assert _associativity_witness(null) is None
    band = left_zero(n).product
    assert _generators(band).tolist() == list(range(n))
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
        size, row_min, col_min, in_square = _ideal_profile(p)
        assert size.tolist() == [len(r) + len(c) for r, c in zip(rows, cols)]
        assert row_min.tolist() == [min(r) for r in rows]
        assert col_min.tolist() == [min(c) for c in cols]
        assert np.flatnonzero(in_square).tolist() == sorted(set().union(*rows))


def _relabelled(product, seed):
    """product with element a renamed perm[a], perm drawn from seed."""
    perm = np.random.default_rng(seed).permutation(product.shape[0])
    relabelled = np.empty_like(product)
    relabelled[perm[:, None], perm[None, :]] = perm[product]
    return relabelled


@pytest.mark.parametrize("rows,cols", [(1, 9), (9, 1), (2, 7), (7, 2), (5, 5), (4, 13), (32, 32)])
def test_rectangular_band_gets_its_rank(rows, cols):
    # while both remain, each pick takes a new R-class and a new L-class;
    # after that each takes one of those left, so the count is the rank
    for seed in range(3):
        product = _relabelled(rectangular_band(rows, cols).product, seed)
        assert len(_generators(product)) == max(rows, cols)
        _check_generators(product)


def test_full_transformation_gets_few_generators():
    # T_4 has rank 3; index order alone took 36
    product = full_transformation(4).product
    assert len(_generators(product)) <= 6
    _check_generators(product)


def _checked_generators(monkeypatch, product) -> list:
    """The generators _associativity_witness checks on product."""
    checked = []

    def recording(compact, gens):
        kept = _distinct_generators(compact, gens)
        checked.append(kept.tolist())
        return kept

    monkeypatch.setattr(table_mod, "_distinct_generators", recording)
    assert _associativity_witness(product) is None
    (gens,) = checked
    return gens


def test_one_generator_per_distinct_row_and_column(monkeypatch):
    # every generator of the null semigroup has an all-zero row and column;
    # the left-zero band's rows are constant at the generator, so all differ
    assert _checked_generators(monkeypatch, null_semigroup(64).product) == [1]
    assert _checked_generators(monkeypatch, left_zero(64).product) == list(range(64))


@pytest.mark.parametrize("name,table", CORPUS, ids=[name for name, _ in CORPUS])
def test_distinct_generators_keep_first_of_each_pair(name, table):
    p = table.product
    gens = _generators(p).tolist()
    kept = _distinct_generators(p, np.array(gens, dtype=np.intp)).tolist()
    pairs = [(p[g].tolist(), p[:, g].tolist()) for g in gens]
    want = [g for k, g in enumerate(gens) if pairs[k] not in pairs[:k]]
    assert kept == want
