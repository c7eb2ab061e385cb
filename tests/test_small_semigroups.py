"""Every semigroup table of order at most 4, and its one-entry mutations.

corpus.all_semigroups builds the complete corpus by search, not from
fixtures, and its counts are checked against OEIS A023814.  On it the
bipartite route must agree with the subset enumeration of Hall's
condition, and on its one-entry mutations Light's test must find the
n^3 sweep's witness.
"""

from __future__ import annotations

import numpy as np
import pytest

from semigroup_match import Matching, MulTable, find_permutation_matching, hall_brute_force
from semigroup_match.table import _associativity_witness

from associativity_reference import full_witness
from corpus import all_semigroups, one_entry_mutations

TABLES = {n: all_semigroups(n) for n in range(1, 5)}


def test_counts_match_oeis_a023814():
    assert [len(TABLES[n]) for n in range(1, 5)] == [1, 8, 113, 3492]


@pytest.mark.parametrize("n", range(1, 5))
def test_bipartite_route_agrees_with_the_subset_enumeration(n):
    for product in TABLES[n]:
        table = MulTable(product)
        fast = find_permutation_matching(table)
        assert isinstance(fast, Matching) == hall_brute_force(table).holds, product.tolist()


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
