from __future__ import annotations

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semigroup_match import (
    BoolStructureMatrix,
    Matching,
    NotRegularMatrixError,
    classify,
    count_permutation_matchings,
    decide_orthodox_matching,
    direct_product,
    find_involution_matching,
    find_permutation_matching,
    gamma_structure,
    green_classes,
    hall_brute_force,
    idempotents,
    inverse_sets,
    orthodox_involution,
    rectangular_band,
    rees_matrix,
    verify_matching,
)

from semigroup_match.green import omega_powers

from characterization_reference import omega_data
from corpus import full_corpus, inverses_of_set, monogenic, small_corpus
# imported here, not inside the test: importing test_green's @given tests
# while a @given test runs fails Hypothesis's nested-given health check
from test_green import as_sets, brute_green

ORTHODOX = [(name, t) for name, t in full_corpus() if classify(t).orthodox]


class TestOrthodoxStructureLaws:
    @pytest.mark.parametrize("name,table", ORTHODOX)
    def test_inverses_of_idempotents_are_the_idempotents(self, name, table):
        e = frozenset(idempotents(table))
        assert inverses_of_set(table, e) == e

    @pytest.mark.parametrize("name,table", ORTHODOX)
    def test_v_sets_partition(self, name, table):
        v = inverse_sets(table)
        distinct = {v[a] for a in range(table.n)}
        seen = set()
        for s in distinct:
            assert not (seen & s), name
            seen |= s
        assert seen == set(range(table.n)), name

    @pytest.mark.parametrize("name,table", ORTHODOX)
    def test_class_dichotomy(self, name, table):
        v = inverse_sets(table)
        g = gamma_structure(table)
        for a in range(table.n):
            clazz = frozenset(g.class_list[g.gamma_class[a]])
            hits = clazz & v[a]
            assert not hits or clazz == v[a], name
            cubes_back = table.power(a, 3) == a
            assert (clazz == v[a]) == cubes_back, name

    @pytest.mark.parametrize("name,table", ORTHODOX)
    def test_involution_pairs_classes(self, name, table):
        v = inverse_sets(table)
        g = gamma_structure(table)
        inv = g.v_involution
        assert inv is not None, name
        assert [inv[inv[c]] for c in range(len(inv))] == list(range(len(inv))), name
        for c, members in enumerate(g.class_list):
            image = frozenset(g.class_list[inv[c]])
            for a in members:
                assert v[a] == image, name
            # applying V twice returns to the class itself
            assert inverses_of_set(table, inverses_of_set(table, members)) == frozenset(
                members
            ), name
        off_fixed = [c for c in range(len(inv)) if inv[c] != c]
        assert len(off_fixed) % 2 == 0, name

    @pytest.mark.parametrize("name,table", ORTHODOX)
    def test_gamma_is_a_congruence(self, name, table):
        g = gamma_structure(table)
        cls = g.gamma_class
        for a in range(table.n):
            for b in range(table.n):
                if cls[a] != cls[b]:
                    continue
                for c in range(table.n):
                    assert cls[table.mul(a, c)] == cls[table.mul(b, c)], name
                    assert cls[table.mul(c, a)] == cls[table.mul(c, b)], name


class TestMatchingRouteAgreement:
    @pytest.mark.parametrize("name,table", ORTHODOX)
    def test_three_orthodox_routes_agree(self, name, table):
        dec = decide_orthodox_matching(table)
        fast = find_permutation_matching(table)
        gamma = orthodox_involution(table)
        exists = isinstance(dec, Matching)
        assert exists == isinstance(fast, Matching), name
        assert exists == isinstance(gamma, Matching), name
        if exists:
            assert verify_matching(table, dec.f, require_involution=True).ok
            assert verify_matching(table, gamma.f, require_involution=True).ok

    @pytest.mark.parametrize("name,table", ORTHODOX)
    def test_assembled_matching_preserves_h(self, name, table):
        dec = decide_orthodox_matching(table)
        if not isinstance(dec, Matching):
            return
        g = green_classes(table)
        f = dec.f
        for a in range(table.n):
            for b in range(table.n):
                if g.h_class[a] == g.h_class[b]:
                    assert g.h_class[f[a]] == g.h_class[f[b]], name

    @pytest.mark.parametrize("name,table", ORTHODOX)
    def test_matchings_stay_in_d_classes(self, name, table):
        dec = decide_orthodox_matching(table)
        if not isinstance(dec, Matching):
            return
        g = green_classes(table)
        for a, b in enumerate(dec.f):
            assert g.d_class[a] == g.d_class[b], name

    @pytest.mark.parametrize("name,table", ORTHODOX)
    def test_two_matchings_unless_inverse(self, name, table):
        if table.n > 20:
            return
        flags = classify(table)
        res = count_permutation_matchings(table, limit=2)
        if flags.inverse:
            assert (res.count, res.exact) == (1, True), name
        elif isinstance(decide_orthodox_matching(table), Matching):
            assert res.count >= 2, name

    @pytest.mark.parametrize("name,table", small_corpus())
    def test_involution_search_consistent_with_hall(self, name, table):
        res = find_involution_matching(table)
        if isinstance(res, Matching):
            assert hall_brute_force(table) is None, name
        # a definitive no from the involution search says nothing about
        # permutation matchings in general, so no converse check here

    @pytest.mark.parametrize("name,table", ORTHODOX)
    def test_involution_search_agrees_on_orthodox(self, name, table):
        # for orthodox input, involution existence and permutation
        # existence coincide, and the blossom route must see it
        if table.n > 20:
            return
        res = find_involution_matching(table)
        dec = decide_orthodox_matching(table)
        assert isinstance(res, Matching) == isinstance(dec, Matching), name


class TestVerifierIsDefinitionExact:
    @pytest.mark.parametrize("name,table", small_corpus())
    def test_all_permutations_on_tiny_fixtures(self, name, table):
        if table.n > 4:
            return
        v = inverse_sets(table)
        for f in itertools.permutations(range(table.n)):
            want = all(f[a] in v[a] for a in range(table.n))
            assert verify_matching(table, f).ok == want, name
            want_inv = want and all(f[f[a]] == a for a in range(table.n))
            assert verify_matching(table, f, require_involution=True).ok == want_inv, name


class TestRectangularBands:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_everything_is_mutually_inverse(self, m, n):
        t = rectangular_band(m, n)
        v = inverse_sets(t)
        full = frozenset(range(t.n))
        assert all(v[a] == full for a in range(t.n))
        g = gamma_structure(t)
        assert g.class_list == (tuple(range(t.n)),)
        assert classify(t).rectangular_band
        dec = decide_orthodox_matching(t)
        assert isinstance(dec, Matching) and dec.f == tuple(range(t.n))


class TestMonogenic:
    @pytest.mark.parametrize("index", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("period", [1, 2, 3, 4, 5, 6])
    def test_omega_and_matching(self, index, period):
        t = monogenic(index, period)
        # element e is a^(e+1); a^m, the least multiple of the period past
        # the index, is the first idempotent power
        m = -(-index // period) * period
        omega, om1 = omega_powers(t)
        assert omega[0] == m - 1
        assert om1[0] == max(m - 2, 0)
        assert t.mul(omega[0], omega[0]) == omega[0]
        od = omega_data(t, 0)
        assert (od.index, od.period) == (index, period)
        flags = classify(t)
        assert flags.regular == (index == 1)
        assert flags.group == (index == 1)
        out = find_permutation_matching(t)
        assert isinstance(out, Matching) == (index == 1)
        if index > 1:
            assert hall_brute_force(t) is not None


@st.composite
def regular_bool_matrix(draw):
    rows = draw(st.integers(min_value=1, max_value=4))
    cols = draw(st.integers(min_value=1, max_value=4))
    entries = tuple(
        tuple(draw(st.booleans()) for _ in range(cols)) for _ in range(rows)
    )
    assume(all(any(r) for r in entries))
    assume(all(any(r[i] for r in entries) for i in range(cols)))
    return entries


class TestRandomizedAgreement:
    @settings(max_examples=120)
    @given(regular_bool_matrix())
    def test_rees_hall_routes_agree(self, entries):
        table = rees_matrix(BoolStructureMatrix(entries))
        brute = hall_brute_force(table)
        fast = find_permutation_matching(table)
        assert (brute is None) == isinstance(fast, Matching)
        if classify(table).orthodox:
            assert isinstance(decide_orthodox_matching(table), Matching) == (brute is None)

    @settings(max_examples=60)
    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
    )
    def test_product_green_classes_match_ideal_oracle(self, i, p, j, q):
        t = direct_product(monogenic(i, p), monogenic(j, q))
        assume(t.n <= 30)
        g = green_classes(t)
        r, l, h, d = brute_green(t)
        assert as_sets(g.r_classes) == r
        assert as_sets(g.l_classes) == l
        assert as_sets(g.h_classes) == h
        assert as_sets(g.d_classes) == d
        v = inverse_sets(t)
        for a in range(t.n):
            for b in v[a]:
                assert a in v[b]

    @settings(max_examples=80)
    @given(st.data())
    def test_verify_rejects_arbitrary_permutations(self, data):
        tables = small_corpus()
        name, table = data.draw(st.sampled_from(tables))
        f = data.draw(st.permutations(range(table.n)))
        v = inverse_sets(table)
        want = all(f[a] in v[a] for a in range(table.n))
        assert verify_matching(table, tuple(f)).ok == want


class TestStructureMatrixRegularity:
    def test_all_false_rows_rejected_everywhere(self):
        for rows, cols in itertools.product(range(1, 4), range(1, 4)):
            entries = [[True] * cols for _ in range(rows)]
            entries[rows - 1] = [False] * cols
            with pytest.raises(NotRegularMatrixError):
                BoolStructureMatrix(entries)
