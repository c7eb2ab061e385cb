"""The structure-matrix census: complete by Burnside's count, and every
regular matrix's Rees semigroup checked across the routes.

For each shape m x n (1 <= m <= 4, m <= n <= 5) the census must hold as many
classes as Burnside's lemma counts.  For every class with no zero row or
column, P and its transpose each give a Rees semigroup M0(I, Λ; P): 1988 of
them, 104 orthodox, 60 of those with no permutation matching.  On each,
the block labels of every D-class's band must equal the pairwise reference
in band_reference (or both raise the same NotOrthodoxError pair), the
structural route must give Hopcroft-Karp's verdict and certificate,
Hopcroft-Karp must return what the list-based reference in hall_reference
returns, and it must find a matching exactly when the blossom finds an
involution one.
"""

from __future__ import annotations

import pytest

from semigroup_match import (
    BoolStructureMatrix,
    Matching,
    d_class_band,
    decide_orthodox_matching,
    find_involution_matching,
    find_permutation_matching,
    green_arrays,
    is_orthodox,
    rees_matrix,
)

from band_reference import labels_or_witness, library_labels, meets_decomposition
from census import burnside, classes, regular_matrices
from hall_reference import reference_permutation_matching

SHAPES = [(m, n) for m in range(1, 5) for n in range(m, 6)]

# (Rees semigroups, orthodox ones, orthodox ones with no matching) per shape
CENSUS_COUNTS = {
    (1, 1): (2, 2, 0), (1, 2): (2, 2, 0), (1, 3): (2, 2, 0), (1, 4): (2, 2, 0),
    (1, 5): (2, 2, 0), (2, 2): (6, 4, 0), (2, 3): (10, 4, 2), (2, 4): (16, 6, 2),
    (2, 5): (22, 6, 4), (3, 3): (34, 8, 2), (3, 4): (84, 10, 8), (3, 5): (182, 14, 12),
    (4, 4): (358, 18, 8), (4, 5): (1266, 24, 22),
}


@pytest.mark.parametrize("m,n", SHAPES)
def test_classes_are_counted_by_burnside(m, n):
    assert len(classes(m, n)) == burnside(m, n)


@pytest.mark.parametrize("m,n", SHAPES)
def test_census_routes_agree(m, n):
    counts = [0, 0, 0]
    for k, p in enumerate(regular_matrices(m, n)):
        for side, q in (("P", p), ("P^T", p.T)):
            name = f"{m}x{n} class {k} {side}"
            table = rees_matrix(BoolStructureMatrix(q.tolist()))
            counts[0] += 1
            for d in range(green_arrays(table).d_count):
                band = d_class_band(table, d)
                assert (labels_or_witness(library_labels, band)
                        == labels_or_witness(meets_decomposition, band)), name
            hall = find_permutation_matching(table)
            assert hall == reference_permutation_matching(table), name
            assert isinstance(hall, Matching) == isinstance(find_involution_matching(table),
                                                            Matching), name
            if not is_orthodox(table):
                continue
            counts[1] += 1
            structural = decide_orthodox_matching(table)
            if isinstance(hall, Matching):
                assert isinstance(structural, Matching), name
            else:
                counts[2] += 1
                assert structural == hall, name
    assert tuple(counts) == CENSUS_COUNTS[(m, n)]
