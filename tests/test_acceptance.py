"""Acceptance gate: one test per release criterion.

Each test re-derives its expected values through an independent route
(exhaustive enumeration, brute-force subset checks, or frozen fixtures)
rather than trusting the code under test, and the timed criteria use
wall-clock bounds.  Run with -v for a pass/fail line per criterion.
"""

from __future__ import annotations

import itertools
import time

from semigroup_match import (
    BoolStructureMatrix,
    Matching,
    classify,
    count_permutation_matchings,
    decide_orthodox_matching,
    find_involution_matching,
    find_permutation_matching,
    formula_characterizations,
    gamma_structure,
    green_classes,
    h_quotient_band,
    hall_brute_force,
    idempotents,
    inverse_sets,
    maximal_rect_subbands,
    orthodox_involution,
    principal_factors,
    rees_matrix,
    render_table,
    verify_matching,
)
from semigroup_match.cli import main

from band_reference import block_coordinates

from corpus import (
    T3_INVOLUTION,
    band7,
    brandt,
    cyclic,
    five_unique,
    full_corpus,
    inverses_of_set,
    klein,
    orthodox_matching_corpus,
    rectangular_band,
    small_corpus,
    t_n,
)


def test_criterion_1_hall_failure_fixture(tmp_path, capsys):
    """The 7-element counterexample is refused with a certificate, fast."""
    mat = tmp_path / "hall_failure.mat"
    mat.write_text("3 2\n0 1\n1 0\n1 0\n", encoding="utf-8")
    tbl = tmp_path / "hall_failure.tbl"
    assert main(["gen", "rees", str(mat), str(tbl)]) == 0
    capsys.readouterr()

    started = time.perf_counter()
    code = main(["matching", str(tbl)])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    assert code == 1
    assert "Hall's condition fails" in out
    # the printed A has at least two elements and V(A) is exactly {(1,1)}
    a_line = next(line for line in out.splitlines() if line.startswith("A ("))
    v_line = next(line for line in out.splitlines() if line.startswith("V(A)"))
    a_members = a_line.split(":", 1)[1].split()
    v_members = v_line.split(":", 1)[1].split()
    assert len(a_members) >= 2
    assert v_members == ["(1,1)"]

    # independent confirmation by subset enumeration
    brute = hall_brute_force(band7())
    assert brute is not None
    assert brute.violating_set == (4, 5)
    assert [band7().element_name(a) for a in brute.violating_set] == ["(2,2)", "(2,3)"]
    assert elapsed < 1.0


def test_criterion_2_blockwise_vs_bipartite_on_all_small_matrices():
    """Similarity of maximal blocks decides exactly like bipartite matching.

    Every regular boolean structure matrix with both dimensions at most 3
    is turned into its combinatorial Rees semigroup; on each orthodox one
    the block-proportionality verdict must coincide with the Hall route,
    and on each "no" the two certificates must be equal.
    """
    def matrix_orthodox(entries, rows, cols):
        # (i,lam)(k,mu) = (i,mu) when p[lam][k]; closure of the idempotent
        # cells reads straight off the matrix
        cells = [
            (i, lam)
            for i in range(cols)
            for lam in range(rows)
            if entries[lam][i]
        ]
        return all(
            not entries[lam][k] or entries[mu][i]
            for i, lam in cells
            for k, mu in cells
        )

    started = time.perf_counter()
    seen = orthodox = agreements = exists_count = 0
    for rows, cols in itertools.product(range(1, 4), range(1, 4)):
        for bits in itertools.product((False, True), repeat=rows * cols):
            entries = tuple(
                tuple(bits[r * cols + c] for c in range(cols)) for r in range(rows)
            )
            if not all(any(r) for r in entries):
                continue
            if not all(any(r[c] for r in entries) for c in range(cols)):
                continue
            seen += 1
            table = rees_matrix(BoolStructureMatrix(entries))
            is_orthodox = classify(table).orthodox
            assert is_orthodox == matrix_orthodox(entries, rows, cols), entries
            if not is_orthodox:
                continue
            orthodox += 1
            decision = decide_orthodox_matching(table)
            hall = find_permutation_matching(table)
            structural = isinstance(decision, Matching)
            bipartite = isinstance(hall, Matching)
            assert structural == bipartite, entries
            if not structural:
                assert decision == hall, entries
            agreements += 1
            exists_count += structural
    elapsed = time.perf_counter() - started
    # inclusion-exclusion over zero rows/columns gives 327 regular matrices
    # with both dimensions at most 3; 47 of them generate orthodox semigroups
    assert seen == 327
    assert orthodox == 47
    assert agreements == orthodox
    # both verdicts occur, so the agreement is not vacuous
    assert 0 < exists_count < orthodox
    assert elapsed < 60.0


def test_criterion_3_constructive_involutions():
    """Class pairing yields a verified involution on every orthodox instance."""
    suite = orthodox_matching_corpus()
    assert len(suite) >= 20
    for name, table in suite:
        assert classify(table).orthodox, name
        m = orthodox_involution(table)
        assert isinstance(m, Matching), name
        check = verify_matching(table, m.f, require_involution=True)
        assert check.ok, (name, check.reason, check.element)


def test_criterion_4_oracle_equivalence_on_small_fixtures():
    """Bipartite matching and subset enumeration agree on every fixture."""
    suite = small_corpus()
    assert len(suite) >= 30
    assert all(table.n <= 10 for _, table in suite)
    for name, table in suite:
        brute = hall_brute_force(table)
        fast = find_permutation_matching(table)
        assert (brute is None) == isinstance(fast, Matching), name


def test_criterion_5_exact_matching_counts():
    """Frozen counts: unique matchings and the 24 of the 2x2 band."""
    five = five_unique()
    res = count_permutation_matchings(five)
    assert (res.count, res.exact) == (1, True)
    assert classify(five).inverse is False

    res = count_permutation_matchings(cyclic(6))
    assert (res.count, res.exact) == (1, True)

    b = brandt(2)
    res = count_permutation_matchings(b)
    assert (res.count, res.exact) == (1, True)
    assert classify(b).inverse is True

    res = count_permutation_matchings(rectangular_band(2, 2))
    assert (res.count, res.exact) == (24, True)


def test_criterion_6_formula_characterizations_across_corpus():
    """Formula-defined matchings agree with the structural flags everywhere."""
    corpus = full_corpus()
    flags = {name: classify(table) for name, table in corpus}
    # the corpus covers every shape the suite calls for
    assert any(
        f.completely_regular and not f.completely_simple for f in flags.values()
    )
    assert any(f.completely_simple and not f.group for f in flags.values())
    assert any(f.group for f in flags.values())
    assert any(f.rectangular_band for f in flags.values())

    for name, table in corpus:
        rep = formula_characterizations(table)
        bad = [(c.name, c.left, c.right) for c in rep.clauses if not c.agree]
        assert not bad, (name, bad)

    # the exponent-2 group satisfies the k = 1 power identity on both sides
    rep = formula_characterizations(klein(), k=1)
    clause = rep.clause("power_identity_k1")
    assert clause.left and clause.right and clause.agree


def test_criterion_7_t3_scale_and_involution_regression(tmp_path, capsys):
    """T_3 is matched quickly; its involution search ends definitively."""
    tbl = tmp_path / "t3.tbl"
    tbl.write_text(render_table(t_n(3)), encoding="utf-8")

    started = time.perf_counter()
    code = main(["matching", str(tbl)])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    assert code == 0
    assert elapsed < 5.0
    assert "kind: permutation" in out

    code = main(["matching", str(tbl), "--involution"])
    out = capsys.readouterr().out
    # definitive either way: found (0) or exhausted-complete (1), never 3
    assert code in (0, 1)
    # recorded outcome: the search finds an involution, frozen above
    assert code == 0
    res = find_involution_matching(t_n(3))
    assert isinstance(res, Matching)
    assert res.f == T3_INVOLUTION
    assert verify_matching(t_n(3), res.f, require_involution=True).ok


def test_criterion_8_structure_property_suites():
    """Partition, idempotent-closure, dichotomy, block-size, H-preservation."""
    violations = []
    for name, table in full_corpus():
        flags = classify(table)
        if not flags.orthodox:
            continue
        n = table.n
        v = inverse_sets(table)

        # inverses of the idempotents are exactly the idempotents
        e = frozenset(idempotents(table))
        if inverses_of_set(table, e) != e:
            violations.append((name, "V(E) != E"))

        # the distinct inverse sets partition S
        covered = set()
        for s in {v[a] for a in range(n)}:
            if covered & s:
                violations.append((name, "V-classes overlap"))
            covered |= s
        if covered != set(range(n)):
            violations.append((name, "V-classes do not cover"))

        # per element: the class misses V(a) entirely or equals it,
        # the latter exactly when a = a^3
        g = gamma_structure(table)
        for a in range(n):
            clazz = frozenset(g.class_list[g.gamma_class[a]])
            if clazz & v[a] and clazz != v[a]:
                violations.append((name, a, "dichotomy"))
            if (clazz == v[a]) != (table.power(a, 3) == a):
                violations.append((name, a, "fixed-class law"))

        # block sizes: every element of each band quotient has exactly
        # m_j * n_i inverses, and the same law holds upstairs through phi
        for pf in principal_factors(table):
            band = h_quotient_band(pf)
            dec = maximal_rect_subbands(band)
            sizes = dec.block_sizes()
            bt = rees_matrix(BoolStructureMatrix(band.p))
            bv = inverse_sets(bt)
            brow = dec.row_block
            bcol = dec.col_block
            for cell in range(band.zero):
                i, j = brow[cell // band.n], bcol[cell % band.n]
                if len(bv[cell]) != sizes[j][0] * sizes[i][1]:
                    violations.append((name, pf.d_class, cell, "band |V|"))
            phi = block_coordinates(band, dec)
            for x in pf.element_map:
                i, j = phi[x]
                if len(v[x]) != sizes[j][0] * sizes[i][1]:
                    violations.append((name, x, "|V| != m_j * n_i"))

        # assembled matchings preserve the H relation
        dec_all = decide_orthodox_matching(table)
        if isinstance(dec_all, Matching):
            gr = green_classes(table)
            f = dec_all.f
            for a in range(n):
                for b in range(n):
                    if gr.h_class[a] == gr.h_class[b] and gr.h_class[f[a]] != gr.h_class[f[b]]:
                        violations.append((name, a, b, "H-preservation"))

    assert violations == []
