from __future__ import annotations

import pytest

from semigroup_match import (
    NotRegularError,
    classify,
    find_inverse_square,
    gamma_structure,
    green_classes,
    idempotents,
    inverse_sets,
    orthodoxy_witness,
    rectangular_band,
)

from corpus import (
    adjoin_zero,
    band7,
    brandt,
    chain_semilattice,
    cyclic,
    five_unique,
    full_corpus,
    inverses_of_set,
    klein,
    monogenic,
    null_semigroup,
    small_corpus,
    t_n,
)


class TestIdempotents:
    def test_frozen_counts(self):
        assert idempotents(band7()) == (1, 2, 3, 6)
        assert len(idempotents(t_n(2))) == 3
        assert len(idempotents(t_n(3))) == 10
        assert idempotents(cyclic(6)) == (0,)

    def test_definition(self):
        for name, table in small_corpus():
            e = set(idempotents(table))
            for a in range(table.n):
                assert (table.mul(a, a) == a) == (a in e), name


class TestInverseSets:
    def test_band7_frozen(self):
        v = inverse_sets(band7())
        expected = {
            0: {4, 5},
            1: {1, 2},
            2: {1, 2},
            3: {3},
            4: {0},
            5: {0},
            6: {6},
        }
        assert {a: set(v[a]) for a in range(7)} == expected

    def test_five_unique_frozen(self):
        v = inverse_sets(five_unique())
        expected = {0: {0, 2}, 1: {2}, 2: {0, 1, 2, 3}, 3: {2, 3}, 4: {4}}
        assert {a: set(v[a]) for a in range(5)} == expected

    @pytest.mark.parametrize("name,table", small_corpus())
    def test_symmetry_and_definition(self, name, table):
        v = inverse_sets(table)
        for a in range(table.n):
            for b in range(table.n):
                member = (
                    table.mul(table.mul(a, b), a) == a
                    and table.mul(table.mul(b, a), b) == b
                )
                assert (b in v[a]) == member, name
                assert (b in v[a]) == (a in v[b]), name

    def test_accessors(self):
        table = band7()
        assert inverse_sets(table)[0] == frozenset({4, 5})
        assert inverses_of_set(table, [4, 5]) == frozenset({0})
        assert inverses_of_set(table, []) == frozenset()


class TestGamma:
    def test_band7_frozen(self):
        g = gamma_structure(band7())
        assert g.class_list == ((0,), (1, 2), (3,), (4, 5), (6,))
        assert g.gamma_class == (0, 1, 1, 2, 3, 3, 4)
        assert g.v_involution == (3, 1, 2, 0, 4)
        assert g.fixed_classes() == (1, 2, 4)
        assert g.gamma_classes() == 5

    def test_involution_absent_when_not_orthodox(self):
        g = gamma_structure(five_unique())
        assert g.v_involution is None
        assert g.fixed_classes() == ()
        # classes still group by V-set equality
        assert g.class_list == ((0,), (1,), (2,), (3,), (4,))

    def test_group_classes_are_singletons(self):
        g = gamma_structure(cyclic(6))
        assert g.class_list == tuple((a,) for a in range(6))
        assert g.v_involution == (0, 5, 4, 3, 2, 1)

    def test_band_is_single_fixed_class(self):
        g = gamma_structure(rectangular_band(2, 3))
        assert g.class_list == (tuple(range(6)),)
        assert g.v_involution == (0,)

    def test_not_regular(self):
        with pytest.raises(NotRegularError) as exc:
            gamma_structure(null_semigroup(2))
        assert exc.value.witness == 1
        with pytest.raises(NotRegularError):
            gamma_structure(monogenic(2, 1))


class TestOrthodoxyWitness:
    def test_frozen(self):
        assert orthodoxy_witness(band7()) is None
        assert orthodoxy_witness(five_unique()) == (0, 3)
        assert orthodoxy_witness(cyclic(4)) is None

    @pytest.mark.parametrize("name,table", small_corpus())
    def test_definition(self, name, table):
        w = orthodoxy_witness(table)
        e = set(idempotents(table))
        if w is None:
            for x in e:
                for y in e:
                    assert table.mul(x, y) in e, name
        else:
            x, y = w
            assert x in e and y in e and table.mul(x, y) not in e, name


class TestClassify:
    def test_band7(self):
        f = classify(band7())
        assert f.regular and f.orthodox and f.combinatorial and f.has_zero
        assert not f.inverse and not f.band and not f.rectangular_band
        assert not f.completely_regular and not f.completely_simple
        assert not f.group and not f.self_inverse

    def test_group_flags(self):
        f = classify(cyclic(6))
        assert f.group and f.regular and f.orthodox and f.inverse
        assert f.completely_regular and f.completely_simple
        assert not f.combinatorial and not f.self_inverse and not f.has_zero

    def test_klein_is_self_inverse(self):
        f = classify(klein())
        assert f.group and f.self_inverse

    def test_rectangular_band_flags(self):
        f = classify(rectangular_band(2, 2))
        assert f.band and f.rectangular_band and f.completely_simple
        assert f.completely_regular and f.self_inverse and f.combinatorial
        assert f.orthodox and not f.inverse and not f.group

    def test_semilattice_flags(self):
        f = classify(chain_semilattice(3))
        assert f.band and f.inverse and f.combinatorial and f.completely_regular
        assert not f.rectangular_band and not f.completely_simple
        assert f.has_zero  # the bottom of the chain absorbs

    def test_five_unique_flags(self):
        f = classify(five_unique())
        assert f.regular and not f.orthodox and f.combinatorial and f.has_zero
        assert not f.inverse

    def test_t3_flags(self):
        f = classify(t_n(3))
        assert f.regular and not f.orthodox and not f.inverse
        assert not f.completely_regular and not f.combinatorial

    def test_non_regular(self):
        f = classify(null_semigroup(3))
        assert not f.regular and not f.orthodox and not f.inverse
        assert f.has_zero and f.combinatorial

    def test_inverse_examples(self):
        assert classify(brandt(2)).inverse
        assert classify(adjoin_zero(cyclic(3))).inverse
        assert classify(adjoin_zero(cyclic(3))).completely_regular

    @pytest.mark.parametrize("name,table", full_corpus())
    def test_flag_implications(self, name, table):
        f = classify(table)
        if f.group:
            assert f.inverse and f.completely_simple
        if f.inverse:
            assert f.orthodox
        if f.orthodox:
            assert f.regular
        if f.rectangular_band:
            assert f.band and f.completely_simple
        if f.band:
            assert f.completely_regular
        if f.completely_simple:
            assert f.completely_regular
        if f.completely_regular:
            assert f.regular
        if f.self_inverse:
            assert f.regular

    @pytest.mark.parametrize("name,table", full_corpus())
    def test_flags_match_the_definitions(self, name, table):
        # the per-element readings of the array tests in classify
        f = classify(table)
        prod, n = table.product, table.n
        h_class = green_classes(table).h_class
        band = all(prod[a, a] == a for a in range(n))
        assert f.band == band
        assert f.rectangular_band == (band and all(
            prod[prod[a, b], a] == a for a in range(n) for b in range(n)))
        assert f.completely_regular == all(
            h_class[a] == h_class[prod[a, a]] for a in range(n))
        assert f.self_inverse == all(prod[prod[a, a], a] == a for a in range(n))
        assert f.has_zero == any(
            (prod[z] == z).all() and (prod[:, z] == z).all() for z in range(n))


class TestInverseSquare:
    def test_five_unique_frozen(self):
        # the idempotent (2,1) is a second inverse of the non-idempotent (1,2)
        w = find_inverse_square(five_unique())
        assert (w.e, w.a, w.f, w.g) == (2, 1, 3, 0)

    def test_inverse_semigroups_have_none(self):
        assert find_inverse_square(brandt(2)) is None
        assert find_inverse_square(chain_semilattice(4)) is None
        assert find_inverse_square(cyclic(6)) is None

    def test_not_regular_has_none(self):
        assert find_inverse_square(null_semigroup(2)) is None

    def test_t3_frozen(self):
        w = find_inverse_square(t_n(3))
        assert (w.e, w.a, w.f, w.g) == (2, 17, 14, 8)

    @pytest.mark.parametrize("name,table", small_corpus())
    def test_configuration_properties(self, name, table):
        w = find_inverse_square(table)
        if w is None:
            return
        e, a, f, g = w.e, w.a, w.f, w.g
        idem = set(idempotents(table))
        assert e in idem and f in idem and g in idem and a not in idem, name
        assert a in inverse_sets(table)[e], name
        assert table.mul(e, a) == f and table.mul(a, e) == g, name
        assert table.mul(g, f) == a, name
        gr = green_classes(table)
        # a R g L e R f L a closes the square
        assert gr.r_class[a] == gr.r_class[g], name
        assert gr.l_class[g] == gr.l_class[e], name
        assert gr.r_class[e] == gr.r_class[f], name
        assert gr.l_class[f] == gr.l_class[a], name
