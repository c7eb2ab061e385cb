from __future__ import annotations

import inspect
import math
import sys

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semigroup_match import (
    BoolStructureMatrix,
    CapExceededError,
    HallCertificate,
    LiftFailureError,
    Matching,
    MulTable,
    NotAssociativeError,
    NotOrthodoxError,
    TutteBarrier,
    VerifyResult,
    classify,
    count_permutation_matchings,
    d_class_band,
    decide,
    decide_orthodox_matching,
    direct_product,
    find_involution_matching,
    find_permutation_matching,
    formula_characterizations,
    green_classes,
    h_quotient_band,
    hall_brute_force,
    inverse_matrix,
    inverse_sets,
    is_orthodox,
    lift_band_matching,
    maximal_rect_subbands,
    orthodox_involution,
    principal_factors,
    rectangular_band,
    rees_matrix,
    similarity_check,
    verify_barrier,
    verify_matching,
)

from semigroup_match import matching as matching_mod

from characterization_reference import reference_characterizations
from hall_reference import reference_permutation_matching
from corpus import (
    RANDOM_REES,
    REES_OVER_GROUP,
    T3_INVOLUTION,
    all_semigroups,
    band7,
    block_band,
    block_diag_matrix,
    brandt,
    chain_semilattice,
    cyclic,
    five_unique,
    frame_depth,
    full_corpus,
    inverses_of_set,
    klein,
    left_zero,
    monogenic,
    null_semigroup,
    one_entry_mutations,
    random_rees,
    small_corpus,
    t_n,
)
from involution_oracle import OracleExhausted, involution_oracle


class TestVerify:
    def test_identity_on_band(self):
        t = rectangular_band(2, 3)
        assert verify_matching(t, tuple(range(6)), require_involution=True).ok

    def test_inversion_on_group(self):
        t = cyclic(3)
        assert verify_matching(t, (0, 2, 1), require_involution=True).ok

    def test_identity_on_group_fails(self):
        # g is not its own inverse in C3
        res = verify_matching(t := cyclic(3), (0, 1, 2))
        assert not res.ok
        assert res.reason == "image not an inverse"
        assert res.element == 1
        assert 1 not in inverse_sets(t)[1]

    def test_wrong_length(self):
        res = verify_matching(cyclic(3), (0, 1))
        assert (res.ok, res.reason) == (False, "wrong length")

    def test_image_out_of_range(self):
        res = verify_matching(cyclic(3), (0, 5, 1))
        assert (res.ok, res.reason, res.element) == (False, "image out of range", 1)

    def test_not_injective(self):
        t = rectangular_band(2, 2)
        res = verify_matching(t, (0, 0, 2, 3))
        assert (res.ok, res.reason, res.element) == (False, "not injective", 1)

    @pytest.mark.parametrize("f,element", [
        ([0.5, 1.7], 0),
        ((0, 1.0), 1),
        ((0, "1"), 1),
        ((None, 1), 0),
    ])
    def test_image_not_an_integer(self, f, element):
        res = verify_matching(cyclic(2), f)
        assert (res.ok, res.reason, res.element) == (False, "image not an integer", element)

    def test_numpy_integers_are_integers(self):
        assert verify_matching(cyclic(3), np.array([0, 2, 1], dtype=np.uint8)).ok

    def test_not_an_involution(self):
        # a 3-cycle on a rectangular band is a matching but no involution
        t = rectangular_band(1, 3)
        assert verify_matching(t, (1, 2, 0)).ok
        res = verify_matching(t, (1, 2, 0), require_involution=True)
        assert (res.ok, res.reason, res.element) == (False, "not an involution", 0)


class TestHopcroftKarp:
    def test_band7_certificate(self):
        cert = find_permutation_matching(band7())
        assert isinstance(cert, HallCertificate)
        assert cert.violating_set == (4, 5)
        assert cert.image == (0,)

    def test_five_unique(self):
        m = find_permutation_matching(five_unique())
        assert isinstance(m, Matching)
        assert m.f == (0, 2, 1, 3, 4)
        assert m.kind == "permutation"
        assert m.provenance == "hall_bipartite"

    def test_empty_inverse_set_gives_singleton_certificate(self):
        cert = find_permutation_matching(null_semigroup(2))
        assert isinstance(cert, HallCertificate)
        assert cert.violating_set == (1,)
        assert cert.image == ()

    def test_t3_has_a_matching(self):
        m = find_permutation_matching(t_n(3))
        assert isinstance(m, Matching)
        assert verify_matching(t_n(3), m.f).ok

    @pytest.mark.parametrize("name,table", full_corpus())
    def test_results_verify_or_certify(self, name, table):
        out = find_permutation_matching(table)
        v = inverse_sets(table)
        if isinstance(out, Matching):
            assert verify_matching(table, out.f).ok, name
        else:
            want = set()
            for a in out.violating_set:
                want |= set(v[a])
            assert set(out.image) == want, name
            assert len(out.violating_set) > len(out.image), name


def _konig_deficiency(table):
    """n minus the size of networkx's maximum matching of the element-inverse graph."""
    lefts = [("a", a) for a in range(table.n)]
    g = nx.Graph()
    g.add_nodes_from(lefts)
    g.add_nodes_from(("v", b) for b in range(table.n))
    rows, cols = np.nonzero(inverse_matrix(table))
    g.add_edges_from((("a", a), ("v", b)) for a, b in zip(rows.tolist(), cols.tolist()))
    return table.n - len(nx.bipartite.maximum_matching(g, top_nodes=lefts)) // 2


def check_pinned(table, name=""):
    """find_permutation_matching equals the reference route, and a certificate
    from the search exceeds its image by König's count of unmatched elements."""
    out = find_permutation_matching(table)
    assert out == reference_permutation_matching(table), name
    if isinstance(out, HallCertificate):
        assert set(out.image) == inverses_of_set(table, out.violating_set), name
        regular = inverse_matrix(table).any(axis=1)
        if regular.all():
            assert len(out.violating_set) - len(out.image) == _konig_deficiency(table), name
        else:
            assert out == HallCertificate((int(regular.argmin()),), ()), name


NON_PROPORTIONAL_BLOCKS = [[(2, 4), (3, 3)], [(3, 3), (4, 2)], [(2, 4), (4, 2)],
                           [(2, 4), (3, 3), (4, 2)]]


def _pin_tables():
    tables = full_corpus() + REES_OVER_GROUP + [
        (f"rees{seed}", random_rees(seed, rows, cols, density))
        for seed, rows, cols, density in RANDOM_REES
    ]
    for blocks in NON_PROPORTIONAL_BLOCKS:
        name = "blocks_" + "_".join(f"{m}x{k}" for m, k in blocks)
        tables.append((name, block_band(blocks)))
        tables.append((name + "_x_c3", direct_product(block_band(blocks), cyclic(3))))
    return tables + [(f"null{n}", null_semigroup(n)) for n in (1, 2, 3, 5, 8)]


PIN_TABLES = _pin_tables()

# sizes at the byte and word edges of the row bitmasks
BIT_BOUNDARY_SIZES = (1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 255, 256, 257)


def _near_square(m):
    """(rows, cols) with rows * cols = m, rows the largest divisor up to sqrt(m)."""
    rows = max(d for d in range(1, math.isqrt(m) + 1) if m % d == 0)
    return rows, m // rows


def _bit_boundary_tables():
    """For each size n in BIT_BOUNDARY_SIZES: the null semigroup, the
    left-zero band, a rectangular band, two random Rees semigroups of a
    rows x cols matrix with rows * cols + 1 = n, the Rees semigroup of the
    non-proportional blocks 1 x (cols - 1) and (rows - 1) x 1 where both
    fit, and a random Rees semigroup times C_k for each k in 2..5 dividing
    n."""
    tables = []
    for n in BIT_BOUNDARY_SIZES:
        rows, cols = _near_square(n)
        tables += [(f"null{n}", null_semigroup(n)), (f"left_zero{n}", left_zero(n)),
                   (f"rect{rows}x{cols}", rectangular_band(rows, cols))]
        if n > 1:
            rows, cols = _near_square(n - 1)
            tables += [(f"rees{rows}x{cols}_d{density}", random_rees(n, rows, cols, density))
                       for density in (0.1, 0.3)]
            if rows > 1:
                tables.append((f"blocks_1x{cols - 1}_{rows - 1}x1",
                               block_band([(1, cols - 1), (rows - 1, 1)])))
        for k in range(2, 6):
            if n % k == 0 and n // k > 1:
                rows, cols = _near_square(n // k - 1)
                tables.append((f"rees{rows}x{cols}_x_c{k}",
                               direct_product(random_rees(n + k, rows, cols, 0.2), cyclic(k))))
    return tables


BIT_BOUNDARY_TABLES = _bit_boundary_tables()


@st.composite
def regular_rees(draw):
    """Rees semigroup of a random structure matrix of at most 16 x 16 with a
    one in every row and column, times C_k for k up to 3 (k = 1: the
    semigroup itself)."""
    table = random_rees(draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 16)),
                        draw(st.integers(1, 16)), draw(st.sampled_from((0.1, 0.25, 0.5))))
    k = draw(st.integers(1, 3))
    return table if k == 1 else direct_product(table, cyclic(k))


class TestPinnedToReference:
    """The bipartite route returns what the frame-stack reference returns."""

    @pytest.mark.parametrize("name,table", PIN_TABLES, ids=[name for name, _ in PIN_TABLES])
    def test_listed_tables(self, name, table):
        check_pinned(table, name)

    def test_listed_tables_reach_every_kind_of_answer(self):
        outs = [find_permutation_matching(table) for _, table in PIN_TABLES]
        certs = [c for c in outs if isinstance(c, HallCertificate)]
        assert any(isinstance(m, Matching) for m in outs)
        assert any(c.image == () for c in certs)
        # certificates from the search with more than one unmatched element
        assert any(len(c.violating_set) - len(c.image) > 1 for c in certs if c.image)

    def test_rees_over_group_reaches_both_answers(self):
        # none is orthodox, so Hopcroft-Karp answers each; over S_3 one is a "no"
        assert not any(is_orthodox(table) for _, table in REES_OVER_GROUP)
        noes = [name for name, table in REES_OVER_GROUP
                if isinstance(find_permutation_matching(table), HallCertificate)]
        assert noes == ["rees_s3_3x2"]

    @settings(max_examples=150)
    @given(regular_rees())
    def test_random_rees(self, table):
        check_pinned(table)

    def test_certificate_builder_demands_a_violation(self):
        with pytest.raises(RuntimeError, match="does not violate"):
            matching_mod._hall_certificate(cyclic(3), (0, 1))


class TestBitBoundaries:
    """Row bitmasks one bit either side of every byte and word edge."""

    @pytest.mark.parametrize("name,table", BIT_BOUNDARY_TABLES,
                             ids=[name for name, _ in BIT_BOUNDARY_TABLES])
    def test_pinned_to_reference(self, name, table):
        assert table.n in BIT_BOUNDARY_SIZES, name
        check_pinned(table, name)

    def test_tables_reach_every_kind_of_answer(self):
        outs = {n: [] for n in BIT_BOUNDARY_SIZES}
        for _, table in BIT_BOUNDARY_TABLES:
            outs[table.n].append(find_permutation_matching(table))
        assert all(any(isinstance(m, Matching) for m in ms) for ms in outs.values())
        # certificates from the search, not from an element with no inverse,
        # at every size but 1, 8 and 128, where n - 1 is 0 or prime and no
        # two blocks fit
        searched = {n for n, ms in outs.items()
                    if any(isinstance(c, HallCertificate) and c.image for c in ms)}
        assert searched >= set(BIT_BOUNDARY_SIZES) - {1, 8, 128}

    @pytest.mark.parametrize("cols", BIT_BOUNDARY_SIZES)
    def test_row_masks_hold_the_rows(self, cols):
        v = np.random.default_rng(cols).random((6, cols)) < 0.5
        v[0] = False
        v[1] = True
        masks = matching_mod._row_masks(v)
        assert [[mask >> b & 1 == 1 for b in range(cols)] for mask in masks] == v.tolist()
        assert all(mask >> cols == 0 for mask in masks)


class TestHallBruteForce:
    def test_band7_minimal_witness(self):
        res = hall_brute_force(band7())
        assert res == HallCertificate(violating_set=(4, 5), image=(0,))

    def test_holds_on_matchable_fixtures(self):
        for table in (five_unique(), cyclic(6), brandt(2), rectangular_band(2, 2)):
            assert hall_brute_force(table) is None

    def test_size_cap(self):
        with pytest.raises(CapExceededError,
                           match="^subset enumeration over 27 elements exceeds the cap of 20$"):
            hall_brute_force(t_n(3))

    @pytest.mark.parametrize("name,table", small_corpus())
    def test_agrees_with_bipartite_matching(self, name, table):
        # the decision route and the subset route must coincide
        brute = hall_brute_force(table)
        fast = find_permutation_matching(table)
        assert (brute is None) == isinstance(fast, Matching), name
        if brute is not None:
            v = inverse_sets(table)
            covered = set()
            for a in brute.violating_set:
                covered |= set(v[a])
            assert len(covered) < len(brute.violating_set), name


class TestOrthodoxInvolution:
    def test_group_inversion(self):
        m = orthodox_involution(cyclic(6))
        assert isinstance(m, Matching)
        assert m.f == (0, 5, 4, 3, 2, 1)
        assert m.kind == "involution"
        assert m.provenance == "gamma_class_pairing"

    def test_band_identity(self):
        m = orthodox_involution(rectangular_band(2, 2))
        assert isinstance(m, Matching)
        assert m.f == (0, 1, 2, 3)

    def test_inverse_semigroup(self):
        m = orthodox_involution(brandt(2))
        assert isinstance(m, Matching)
        assert m.f == (0, 2, 1, 3, 4)

    def test_band7_size_mismatch(self):
        res = orthodox_involution(band7())
        assert res == HallCertificate(violating_set=(4, 5), image=(0,))

    def test_rejects_non_orthodox(self):
        with pytest.raises(NotOrthodoxError) as exc:
            orthodox_involution(five_unique())
        assert exc.value.witness == (0, 3)

    def test_rejects_non_regular(self):
        with pytest.raises(NotOrthodoxError, match="element 1 has no inverse"):
            orthodox_involution(null_semigroup(2))


class TestDecideOrthodox:
    def test_band7_no(self):
        dec = decide_orthodox_matching(band7())
        assert isinstance(dec, HallCertificate)
        assert dec == find_permutation_matching(band7())
        verdicts = [similarity_check(maximal_rect_subbands(d_class_band(band7(), box.d_class)))
                    for box in green_classes(band7()).egg_boxes]
        assert len(verdicts) == 2
        assert not verdicts[0].pairwise_similar
        assert verdicts[0].witness == (0, 1)
        assert verdicts[1].pairwise_similar

    def test_completely_simple_non_combinatorial(self):
        from semigroup_match import direct_product

        table = direct_product(cyclic(2), rectangular_band(1, 2))
        dec = decide_orthodox_matching(table)
        assert isinstance(dec, Matching)
        assert dec.f == (0, 1, 2, 3)
        assert dec.kind == "involution"
        assert dec.provenance == "band_lift"

    def test_similar_blocks_yield_involution(self):
        table = block_band([(2, 4), (1, 2)])
        dec = decide_orthodox_matching(table)
        assert isinstance(dec, Matching)
        assert verify_matching(table, dec.f, require_involution=True).ok

    def test_rejects_non_orthodox(self):
        with pytest.raises(NotOrthodoxError):
            decide_orthodox_matching(t_n(3))


def shuffled_block_rees(rng, blocks: int, side: int) -> MulTable:
    """Rees semigroup of a block-diagonal 0/1 matrix, 1..blocks blocks with
    1..side rows and columns each, its rows and columns shuffled."""
    shapes = [tuple(rng.integers(1, side + 1, size=2).tolist())
              for _ in range(rng.integers(1, blocks + 1))]
    p = np.array(block_diag_matrix(shapes).entries)
    p = p[rng.permutation(p.shape[0])][:, rng.permutation(p.shape[1])]
    return rees_matrix(BoolStructureMatrix(p))


def block_rees_draws():
    """400 seeded orthodox tables: shuffled block Rees semigroups, some of
    them times a cyclic group, some products of two smaller ones."""
    rng = np.random.default_rng(21)
    for draw in range(400):
        table = shuffled_block_rees(rng, 3, 4)
        if draw % 4 == 1:
            table = direct_product(table, cyclic(2 + draw % 8 // 4))
        elif draw % 4 == 2:
            table = direct_product(shuffled_block_rees(rng, 2, 2), shuffled_block_rees(rng, 2, 2))
        yield table


def test_structural_certificate_is_hopcroft_karps():
    # Hopcroft-Karp's certificate is the set of elements some maximum
    # matching leaves unmatched; the structural route reads it off the
    # blocks, so the two must be equal, not only both "no"
    noes = 0
    for draw, table in enumerate(block_rees_draws()):
        dec = decide_orthodox_matching(table)
        hk = find_permutation_matching(table)
        if isinstance(dec, Matching):
            assert isinstance(hk, Matching), draw
        else:
            assert dec == hk, draw
            noes += 1
    assert noes >= 240


def test_structural_route_is_decide_and_similarity_check():
    # the route returns what decide returns, unwrapped, and its surplus
    # cells find a "no" exactly where some D-class has blocks of shapes
    # that are not proportional; band7_sq's surplus lies in more than one
    # D-class, and its certificate must take them all
    tables = [t for _, t in full_corpus() if classify(t).orthodox] + list(block_rees_draws())
    for k, table in enumerate(tables):
        dec = decide_orthodox_matching(table)
        assert dec == decide(table), k
        similar = all(similarity_check(maximal_rect_subbands(d_class_band(table, box.d_class)))
                      .pairwise_similar for box in green_classes(table).egg_boxes)
        assert isinstance(dec, Matching) == similar, k
        if isinstance(dec, HallCertificate):
            assert dec == find_permutation_matching(table), k


def test_class_pairing_certificate_is_the_other_routes():
    # the inverse graph of an orthodox S is a disjoint union of complete
    # bipartite graphs K(class, partner); in K(p, q) with p > q some maximum
    # matching misses each left vertex, with p <= q none does, so the
    # V-class pairing's certificate, every class larger than its partner,
    # is the one the structural route and Hopcroft-Karp give; in 178 of the
    # "no"s it takes more than one class
    tables = ([t for _, t in full_corpus()] + list(block_rees_draws())
              + [MulTable(p) for n in range(1, 5) for p in all_semigroups(n)])
    orthodox = noes = several = 0
    for k, table in enumerate(tables):
        if not is_orthodox(table):
            continue
        orthodox += 1
        pairing, auto, hk = orthodox_involution(table), decide(table), find_permutation_matching(table)
        if isinstance(pairing, Matching):
            assert isinstance(auto, Matching) and isinstance(hk, Matching), k
            continue
        assert pairing == auto == hk, k
        noes += 1
        v = inverse_sets(table)
        several += len({v[a] for a in pairing.violating_set}) > 1
    assert (orthodox, noes, several) == (1436, 244, 178)


class TestLift:
    def test_rejects_invalid_band_matching(self):
        pf = principal_factors(band7())[0]
        band = h_quotient_band(pf)
        bogus = Matching(f=tuple(range(7)), kind="involution", provenance="test")
        # the identity is not a matching of this band: (1,1) is not
        # idempotent, so it is not its own inverse
        with pytest.raises(LiftFailureError, match="band matching invalid"):
            lift_band_matching(pf, band, bogus)

    def test_lift_of_band_involution(self):
        from semigroup_match import direct_product

        table = direct_product(cyclic(2), rectangular_band(1, 2))
        pf = principal_factors(table)[0]
        band = h_quotient_band(pf)
        bm = orthodox_involution(rees_matrix(BoolStructureMatrix(band.p)))
        lifted = lift_band_matching(pf, band, bm)
        assert lifted.provenance == "band_lift"
        assert verify_matching(pf.table, lifted.f).ok
        assert lifted.f[pf.zero] == pf.zero


class TestReturnedMatchingsAreVerified:
    @pytest.mark.parametrize("find", [find_permutation_matching, find_involution_matching])
    def test_failed_verification_raises(self, monkeypatch, find):
        monkeypatch.setattr(
            "semigroup_match.matching.verify_matching",
            lambda *args, **kwargs: VerifyResult(False, "rejected", 0),
        )
        with pytest.raises(RuntimeError):
            find(cyclic(3))

    def test_failed_barrier_verification_raises(self, monkeypatch):
        monkeypatch.setattr(
            "semigroup_match.matching.verify_barrier",
            lambda *args, **kwargs: VerifyResult(False, "rejected", None),
        )
        with pytest.raises(RuntimeError):
            find_involution_matching(band7())


class TestDecide:
    @pytest.mark.parametrize("method", ["auto", "hall", "orthodox", "brute"])
    def test_routes_agree_on_existence(self, method):
        assert isinstance(decide(block_band([(2, 4), (1, 2)]), method=method), Matching)
        assert isinstance(decide(band7(), method=method), HallCertificate)

    def test_brute_certificate_is_the_least_violating_subset(self):
        assert decide(band7(), method="brute") == HallCertificate((4, 5), (0,))
        assert decide(null_semigroup(3), method="brute") == HallCertificate((1,), ())

    def test_non_orthodox_involution_searches(self):
        res = decide(t_n(3), involution=True)
        assert isinstance(res, Matching) and res.is_involution_map()
        assert isinstance(decide(null_semigroup(2), involution=True), TutteBarrier)

    @pytest.mark.parametrize("method", ["hall", "brute", "nope"])
    def test_rejects_bad_method(self, method):
        with pytest.raises(ValueError):
            decide(cyclic(2), method=method, involution=method != "nope")


# full_corpus() holds T_3 and T_4; the Rees semigroups are regular, not orthodox
ROUTE_TABLES = full_corpus() + [
    (f"rees{seed}", random_rees(seed, rows, cols, density))
    for seed, rows, cols, density in RANDOM_REES[:20]
]
NON_ORTHODOX = [(name, table) for name, table in ROUTE_TABLES if not is_orthodox(table)]


class TestRoute:
    @pytest.mark.parametrize("name,table", ROUTE_TABLES, ids=[name for name, _ in ROUTE_TABLES])
    def test_is_orthodox_is_the_classification_flag(self, name, table):
        fresh = MulTable(table.product)
        assert is_orthodox(fresh) is classify(fresh).orthodox
        if name.startswith("rees"):
            assert not is_orthodox(fresh)

    @pytest.mark.parametrize("name,table", NON_ORTHODOX, ids=[name for name, _ in NON_ORTHODOX])
    def test_non_orthodox_route_skips_the_classification(self, name, table):
        # auto reads only the inverse relation and the orthodoxy witness
        fresh = MulTable(table.product)
        assert decide(fresh) == decide(table, method="hall")
        assert decide(fresh, involution=True) == find_involution_matching(table)
        assert "green" not in fresh._cache
        assert "classify" not in fresh._cache


class TestInvolutionSearch:
    def test_five_unique_finds_the_swap(self):
        res = find_involution_matching(five_unique())
        assert isinstance(res, Matching)
        assert res.f == (0, 2, 1, 3, 4)
        assert res.kind == "involution"
        assert res.provenance == "blossom"
        assert involution_oracle(five_unique()).f == res.f

    def test_band7_exhausts_quickly(self):
        # a barrier is a complete answer; the oracle's node count is frozen
        res = find_involution_matching(band7())
        assert isinstance(res, TutteBarrier)
        assert verify_barrier(band7(), res).ok
        assert involution_oracle(band7()) == OracleExhausted(nodes=2)

    def test_non_regular_is_definitive(self):
        res = find_involution_matching(null_semigroup(3))
        assert (res.elements, res.odd_components) == ((), ((1,), (2,)))
        assert verify_barrier(null_semigroup(3), res).ok
        assert involution_oracle(null_semigroup(3)) == OracleExhausted(nodes=0)

    def test_t3_regression(self):
        res = find_involution_matching(t_n(3))
        assert isinstance(res, Matching)
        assert res.f == T3_INVOLUTION
        assert verify_matching(t_n(3), res.f, require_involution=True).ok

    def test_cap(self):
        # no size cap bounds the polynomial route any more
        res = decide(t_n(3), involution=True, cap=10)
        assert isinstance(res, Matching)
        assert verify_matching(t_n(3), res.f, require_involution=True).ok

    def test_budget_exhaustion_is_flagged(self):
        # no route is time-limited: the answer on T_3 is always definitive
        assert "budget_ms" not in inspect.signature(find_involution_matching).parameters
        assert "budget_ms" not in inspect.signature(decide).parameters
        res = find_involution_matching(t_n(3))
        assert isinstance(res, Matching)
        assert verify_matching(t_n(3), res.f, require_involution=True).ok

    @pytest.mark.parametrize("name,table", small_corpus())
    def test_found_involutions_verify(self, name, table):
        res = find_involution_matching(table)
        if isinstance(res, Matching):
            assert verify_matching(table, res.f, require_involution=True).ok, name
        else:
            assert verify_barrier(table, res).ok, name


class TestCounting:
    def test_exact_counts(self):
        res = count_permutation_matchings(five_unique())
        assert (res.count, res.exact) == (1, True)
        assert count_permutation_matchings(cyclic(6)).count == 1
        assert count_permutation_matchings(brandt(2)).count == 1
        assert count_permutation_matchings(rectangular_band(2, 2)).count == 24
        assert count_permutation_matchings(rectangular_band(2, 3)).count == 720

    def test_zero_when_hall_fails(self):
        res = count_permutation_matchings(band7())
        assert res.count == 0 and res.exact

    def test_limit_cuts_off(self):
        res = count_permutation_matchings(rectangular_band(2, 2), limit=10)
        assert res.count == 10 and not res.exact

    @pytest.mark.parametrize("limit", [0, -3])
    def test_limit_below_one_is_refused(self, limit):
        # the true count is 24; a limit of 0 or less used to stop at the first
        with pytest.raises(ValueError, match="limit >= 1"):
            count_permutation_matchings(rectangular_band(2, 2), limit=limit)

    def test_limit_not_reached_stays_exact(self):
        res = count_permutation_matchings(brandt(2), limit=2)
        assert res.count == 1 and res.exact

    def test_size_cap(self):
        with pytest.raises(CapExceededError,
                           match="^matching count over 27 elements exceeds the cap of 20$"):
            count_permutation_matchings(t_n(3))

    def test_depth_is_not_bounded_by_the_recursion_limit(self):
        """One branch per element: 306 levels run under a limit 150 frames
        above the caller's depth."""
        table = rectangular_band(17, 18)
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(frame_depth() + 150)
        try:
            res = count_permutation_matchings(table, limit=1, max_size=table.n)
        finally:
            sys.setrecursionlimit(saved)
        assert (res.count, res.exact) == (1, False)

    @pytest.mark.parametrize("name,table", small_corpus())
    def test_positive_iff_matching_exists(self, name, table):
        res = count_permutation_matchings(table)
        fast = find_permutation_matching(table)
        assert (res.count > 0) == isinstance(fast, Matching), name


class TestFormulaCharacterizations:
    def test_clause_names_and_order(self):
        rep = formula_characterizations(cyclic(2), k=1)
        assert [c.name for c in rep.clauses] == [
            "completely_regular",
            "completely_simple",
            "group",
            "power_identity_k1",
            "rectangular_band",
            "self_inverse",
        ]

    def test_klein_satisfies_k1(self):
        rep = formula_characterizations(klein(), k=1)
        clause = rep.clause("power_identity_k1")
        assert clause.left and clause.right and clause.agree

    def test_c3_fails_k1_on_both_sides(self):
        rep = formula_characterizations(cyclic(3), k=1)
        clause = rep.clause("power_identity_k1")
        assert not clause.left and not clause.right and clause.agree

    def test_group_clause(self):
        rep = formula_characterizations(cyclic(6))
        assert rep.clause("group").left and rep.clause("group").right
        rep = formula_characterizations(chain_semilattice(3))
        assert not rep.clause("group").left and not rep.clause("group").right

    def test_rectangular_band_clause(self):
        rep = formula_characterizations(rectangular_band(2, 3))
        clause = rep.clause("rectangular_band")
        assert clause.left and clause.right
        assert rep.clause("completely_simple").left
        assert not rep.clause("group").left

    def test_completely_regular_clause(self):
        assert formula_characterizations(chain_semilattice(4)).clause("completely_regular").left
        rep = formula_characterizations(band7())
        clause = rep.clause("completely_regular")
        assert not clause.left and not clause.right

    def test_unknown_clause_raises(self):
        with pytest.raises(KeyError):
            formula_characterizations(cyclic(2)).clause("nope")

    def test_k_validation(self):
        with pytest.raises(ValueError):
            formula_characterizations(cyclic(2), k=0)

    @pytest.mark.parametrize("name,table", full_corpus())
    def test_all_clauses_agree_everywhere(self, name, table):
        rep = formula_characterizations(table, k=1)
        assert rep.all_agree(), (name, [(c.name, c.left, c.right) for c in rep.clauses])

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_power_clause_agrees_for_small_k(self, k):
        for name, table in small_corpus():
            rep = formula_characterizations(table, k=k)
            assert rep.clause(f"power_identity_k{k}").agree, (name, k)


def _associative_mutations():
    """Every one-entry mutation of a small-corpus table that MulTable accepts."""
    tables = []
    for name, table in small_corpus():
        for q in one_entry_mutations(table.product):
            try:
                tables.append((name, MulTable(q)))
            except NotAssociativeError:
                pass
    return tables


MUTATIONS = _associative_mutations()


class TestCharacterizationsAgainstReference:
    """The whole-array clauses equal the per-element reference, witnesses included."""

    @pytest.mark.parametrize("k", [None, 1, 2, 3])
    @pytest.mark.parametrize("name,table", full_corpus())
    def test_corpus(self, name, table, k):
        rep = formula_characterizations(table, k=k)
        assert rep == reference_characterizations(table, k=k), name
        for c in rep.clauses:
            assert type(c.left) is bool and type(c.right) is bool, (name, c)
            assert c.witness is None or all(type(w) is int for w in c.witness), (name, c)

    @pytest.mark.parametrize("cells", [1, 3, 17, 1 << 21])
    def test_one_entry_mutations(self, monkeypatch, cells):
        # small blocks of y put the first mismatch in a later block
        monkeypatch.setattr(matching_mod, "_ASSOC_CHUNK_CELLS", cells)
        assert len(MUTATIONS) > 30
        for name, table in MUTATIONS:
            for k in (None, 1, 2, 3):
                rep = formula_characterizations(table, k=k)
                assert rep == reference_characterizations(table, k=k), (name, k, table.product)

    def test_mutations_reach_every_witness_kind(self):
        # the mutations give y-dependence witnesses past y = 1 and past x = 0
        pairs = [
            c.witness
            for _, table in MUTATIONS
            for c in formula_characterizations(table).clauses
            if c.witness is not None and len(c.witness) == 2
        ]
        assert any(y > 1 for _, y in pairs)
        assert any(x > 0 for x, _ in pairs)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 12])
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 10, 11, 10**6 - 1, 10**12, 10**12 - 1])
    def test_power_identity_on_cyclic_groups(self, m, k):
        # x = x^(k+2) on C_m exactly when m divides k + 1
        clause = formula_characterizations(cyclic(m), k=k).clause(f"power_identity_k{k}")
        holds = (k + 1) % m == 0
        assert clause.left == holds and clause.right == holds, (m, k)


class TestMatchingsStayInDClasses:
    @pytest.mark.parametrize("name,table", small_corpus())
    def test_images_stay_in_the_d_class(self, name, table):
        out = find_permutation_matching(table)
        if not isinstance(out, Matching):
            return
        g = green_classes(table)
        for a, b in enumerate(out.f):
            assert g.d_class[a] == g.d_class[b], name


class TestMonogenicNeverRegularUnlessGroup:
    def test_index_two_has_no_matching(self):
        out = find_permutation_matching(monogenic(2, 3))
        assert isinstance(out, HallCertificate)
