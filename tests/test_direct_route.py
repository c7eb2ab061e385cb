"""The structural route on S's own egg box against the principal-factor route.

The reference route builds each D-class's principal factor, its band
quotient table and a V-class involution of that table, then lifts it back;
the direct route reads everything off S.  Both must give the same bands,
blocks and matchings, and the direct route's "no" builds no table and runs
no Hopcroft-Karp.
"""

from __future__ import annotations

import numpy as np
import pytest

from semigroup_match import (
    BoolStructureMatrix,
    Matching,
    MulTable,
    NotOrthodoxError,
    classify,
    d_class_band,
    decide,
    decide_orthodox_matching,
    direct_product,
    green_classes,
    h_quotient_band,
    idempotents,
    inverse_sets,
    lift_band_matching,
    orthodox_involution,
    principal_factors,
    rectangular_band,
    rees_matrix,
)
from semigroup_match import factors as factors_mod
from semigroup_match import matching as matching_mod
from semigroup_match import table as table_mod

from band_reference import labels_or_witness, library_labels, pair_index
from corpus import block_band, brandt, cyclic, full_corpus


def reference_subbands(zband) -> tuple:
    """Block labels read from the band's own table: idempotent closure, then inverse sets.

    Returns the lists row_block and col_block, blocks numbered in the order
    their first idempotent cell comes.
    """
    t = rees_matrix(BoolStructureMatrix(zband.p))
    zero = zband.zero
    idems = [e for e in idempotents(t) if e != zero]
    idem_or_zero = set(idems) | {zero}
    for e in idems:
        for f in idems:
            if t.mul(e, f) not in idem_or_zero:
                raise NotOrthodoxError((e, f))
    v = inverse_sets(t)
    row_block = [0] * zband.m
    col_block = [0] * zband.n
    blocks = 0
    assigned = set()
    for e in idems:
        if e in assigned:
            continue
        members = tuple(sorted(v[e]))
        r_indices = tuple(sorted({zband.coords(x)[0] for x in members}))
        l_indices = tuple(sorted({zband.coords(x)[1] for x in members}))
        # the block is the full rectangle r_indices x l_indices
        assert members == tuple(pair_index(zband, i, lam) for i in r_indices for lam in l_indices)
        for i in r_indices:
            row_block[i] = blocks
        for lam in l_indices:
            col_block[lam] = blocks
        blocks += 1
        assigned.update(members)
    return row_block, col_block


def reference_matching(table: MulTable) -> tuple:
    """Involution matching assembled through principal factors and band tables."""
    f = [-1] * table.n
    for pf in principal_factors(table):
        band = h_quotient_band(pf)
        band_matching = orthodox_involution(rees_matrix(BoolStructureMatrix(band.p)))
        assert isinstance(band_matching, Matching)
        lifted = lift_band_matching(pf, band, band_matching)
        for x in range(pf.zero):
            f[pf.element_map[x]] = pf.element_map[lifted.f[x]]
    return tuple(f)


# full_corpus includes the whole orthodox matching corpus
@pytest.mark.parametrize("name,table", full_corpus())
def test_egg_box_band_matches_principal_factor_band(name, table):
    g = green_classes(table)
    idems = set(idempotents(table))
    for pf, box in zip(principal_factors(table), g.egg_boxes):
        if not idems.intersection(g.d_classes[pf.d_class]):
            continue
        direct = d_class_band(table, box.d_class)
        ref = h_quotient_band(pf)
        assert (direct.m, direct.n) == (ref.m, ref.n), name
        assert np.array_equal(direct.p, ref.p), name
        assert np.array_equal(direct.cells, ref.cells), name
        assert (labels_or_witness(library_labels, direct)
                == labels_or_witness(reference_subbands, ref)), name


@pytest.mark.parametrize("name,table", full_corpus())
def test_direct_matching_matches_factor_lift(name, table):
    if not classify(table).orthodox:
        return
    decision = decide_orthodox_matching(table)
    if not isinstance(decision, Matching):
        return
    assert decision.f == reference_matching(table), name


@pytest.mark.parametrize(
    "table,exists",
    [(rectangular_band(16, 16), True), (brandt(16), True),
     (block_band([(2, 4), (3, 3)]), False),
     (direct_product(block_band([(2, 4), (3, 3)]), cyclic(3)), False)],
    ids=["rect16x16", "b16", "blocks2x4+3x3", "blocks2x4+3x3xC3"],
)
def test_direct_route_builds_no_tables(monkeypatch, table, exists):
    built = []
    init = MulTable.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("the direct route must not call this")

    monkeypatch.setattr(MulTable, "__init__", counting_init)
    for mod, name in [(factors_mod, "principal_factors"), (matching_mod, "rees_matrix"),
                      (table_mod, "rees_matrix"), (matching_mod, "orthodox_involution"),
                      (matching_mod, "lift_band_matching"),
                      (matching_mod, "find_permutation_matching"),
                      (factors_mod, "similarity_check")]:
        monkeypatch.setattr(mod, name, forbidden)
    # the route reads its answer off the surplus cells, not off similarity_check
    monkeypatch.setattr(matching_mod, "similarity_check", forbidden, raising=False)
    decision = decide_orthodox_matching(table)
    assert isinstance(decision, Matching) == exists
    assert decide(table) == decision
    assert built == []
