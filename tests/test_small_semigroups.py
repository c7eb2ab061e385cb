"""Every semigroup table of order at most 4, and its one-entry mutations.

corpus.all_semigroups builds the complete corpus by search, not from
fixtures, and its counts are checked against OEIS A023814.  On it the
bipartite route must agree with the subset enumeration of Hall's
condition, the structural route with the bipartite one on orthodox input,
Edmonds' blossom with the backtracking oracle, Green's relations with the
ideal oracle and the formula characterizations with their one-pair-at-a-time
reference; on its one-entry mutations Light's test must find the n^3
sweep's witness.
"""

from __future__ import annotations

import numpy as np
import pytest

from semigroup_match import (
    Matching,
    MulTable,
    TutteBarrier,
    classify,
    decide_orthodox_matching,
    find_involution_matching,
    find_permutation_matching,
    formula_characterizations,
    green_arrays,
    green_classes,
    hall_brute_force,
    verify_barrier,
)
from semigroup_match.table import _associativity_witness

from associativity_reference import full_witness
from characterization_reference import reference_characterizations
from corpus import all_semigroups, one_entry_mutations
from involution_oracle import involution_oracle
from test_green import brute_green

TABLES = {n: all_semigroups(n) for n in range(1, 5)}


def test_counts_match_oeis_a023814():
    assert [len(TABLES[n]) for n in range(1, 5)] == [1, 8, 113, 3492]


@pytest.mark.parametrize("n", range(1, 5))
def test_bipartite_route_agrees_with_the_subset_enumeration(n):
    for product in TABLES[n]:
        table = MulTable(product)
        fast = find_permutation_matching(table)
        assert isinstance(fast, Matching) == (hall_brute_force(table) is None), product.tolist()


def test_every_mutation_up_to_order_3_gets_the_sweep_witness():
    mutations = [q for n in (1, 2, 3) for product in TABLES[n]
                 for q in one_entry_mutations(product)]
    assert len(mutations) == 2066
    for q in mutations:
        assert _associativity_witness(q) == full_witness(q), q.tolist()


def test_sampled_mutations_of_order_4_get_the_sweep_witness():
    rng = np.random.default_rng(4)
    tables = TABLES[4]
    for _ in range(2000):
        q = tables[rng.integers(len(tables))].copy()
        a, b = rng.integers(4, size=2)
        q[a, b] = (q[a, b] + rng.integers(1, 4)) % 4
        assert _associativity_witness(q) == full_witness(q), q.tolist()


def test_sampled_mutations_of_order_4_monoids_get_the_sweep_witness():
    # tables with a row equal to arange, a left identity as in every monoid,
    # so no two columns are equal; their one-entry mutations, 3 values in
    # each of 16 cells, are numbered table-major
    monoids = [p for p in TABLES[4] if (p == np.arange(4)).all(axis=1).any()]
    assert len(monoids) == 1157
    picks = np.random.default_rng(1157).choice(len(monoids) * 48, size=5000, replace=False)
    for k in picks.tolist():
        t, r = divmod(k, 48)
        (a, b), shift = divmod(r // 3, 4), r % 3 + 1
        q = monoids[t].copy()
        q[a, b] = (q[a, b] + shift) % 4
        assert _associativity_witness(q) == full_witness(q), q.tolist()


def test_structural_route_agrees_with_hopcroft_karp_on_orthodox_tables():
    # every orthodox table of order at most 4 has a matching, so this checks
    # the "yes" answers and their lifted matchings; the "no"s need more
    # elements (the Rees semigroups of tests/test_acceptance.py)
    orthodox = 0
    for n in range(1, 5):
        for product in TABLES[n]:
            table = MulTable(product)
            if classify(table).orthodox:
                orthodox += 1
                bipartite = isinstance(find_permutation_matching(table), Matching)
                assert isinstance(decide_orthodox_matching(table), Matching) == bipartite, product.tolist()
    assert orthodox == 1001


@pytest.mark.parametrize("n", range(1, 5))
def test_blossom_agrees_with_the_oracle(n):
    for product in TABLES[n]:
        table = MulTable(product)
        res = find_involution_matching(table)
        if not isinstance(res, Matching):
            assert isinstance(res, TutteBarrier)
            assert verify_barrier(table, res).ok, product.tolist()
        assert isinstance(res, Matching) == isinstance(involution_oracle(table), Matching), product.tolist()


def _partition(labels) -> set:
    return {frozenset(np.flatnonzero(labels == c).tolist()) for c in range(labels.max() + 1)}


def test_green_arrays_and_tuples_agree_with_the_ideal_oracle():
    for n in range(1, 5):
        for product in TABLES[n]:
            table = MulTable(product)
            g, tuples = green_arrays(table), green_classes(table)
            r, l, h, d = brute_green(table)
            assert [_partition(g.r_class), _partition(g.l_class),
                    _partition(g.h_class), _partition(g.d_class)] == [r, l, h, d], product.tolist()
            assert (g.r_count, g.l_count, g.h_count, g.d_count) == tuple(map(len, (r, l, h, d)))
            assert [{frozenset(c) for c in classes} for classes in
                    (tuples.r_classes, tuples.l_classes, tuples.h_classes, tuples.d_classes)
                    ] == [r, l, h, d], product.tolist()
            assert (tuples.r_class, tuples.l_class, tuples.h_class, tuples.d_class) == tuple(
                tuple(ids.tolist()) for ids in (g.r_class, g.l_class, g.h_class, g.d_class))
            for box in tuples.egg_boxes:
                m, k = len(box.r_ids), len(box.l_ids)
                assert (g.rows[box.d_class], g.cols[box.d_class]) == (m, k)
                assert np.array_equal(g.cells(box.d_class),
                                      np.array(box.grid).reshape(m * k, -1)), product.tolist()
                assert g.members(box.d_class).tolist() == list(tuples.d_classes[box.d_class])

            # the flags classify reads off Green's relations, from the oracle's partitions
            h_of = {a: c for c in h for a in c}
            square = table.product.diagonal().tolist()
            completely_regular = all(square[a] in h_of[a] for a in range(n))
            flags = classify(table)
            assert (flags.completely_regular, flags.completely_simple, flags.combinatorial,
                    flags.group) == (completely_regular, completely_regular and len(d) == 1,
                                     len(h) == n, len(h) == 1), product.tolist()


def test_formula_characterizations_agree_with_the_reference():
    for n in range(1, 5):
        for product in TABLES[n]:
            table = MulTable(product)
            assert formula_characterizations(table) == reference_characterizations(table), \
                product.tolist()
