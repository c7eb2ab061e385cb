"""Edmonds' blossom route for involution matchings, checked from outside.

The backtracking oracle and networkx's general matching of the doubled
graph decide existence independently; every matching must verify and every
"no" must carry a Tutte barrier that verify_barrier accepts.  The library's
blossom also takes the same search path as the whole-forest reference in
blossom_reference: equal matchings, A-sets, node counts and barriers, and
its verify_barrier gives the reference's verdict on tampered barriers.  On
the doubled graph find_involution_matching runs its greedy start over copy
0 and mirrors it onto copy 1; that must be the reference's greedy over
every vertex, and the library's searches start from it.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semigroup_match
from semigroup_match import (
    BoolStructureMatrix,
    Matching,
    TutteBarrier,
    classify,
    decide,
    decide_orthodox_matching,
    find_involution_matching,
    inverse_matrix,
    inverse_sets,
    rees_matrix,
    render_table,
    verify_barrier,
    verify_matching,
)
from semigroup_match.cli import main
from semigroup_match.matching import _Blossom, _odd_loop_free_components

from blossom_reference import ReferenceBlossom, doubled_adjacency, odd_loop_free_components
from blossom_reference import verify_barrier as reference_verify_barrier
from census import regular_matrices as census_matrices
from corpus import (
    RANDOM_REES,
    REES_OVER_GROUP,
    T3_INVOLUTION,
    band7,
    frame_depth,
    full_corpus,
    random_rees,
    t_n,
)
from involution_oracle import involution_oracle
from test_green import transformation_subsemigroups

CORPUS = full_corpus()
SMALL = [(name, table) for name, table in CORPUS if table.n <= 20]

# 2x3 structure matrix whose Rees semigroup (7 elements) is not orthodox, so
# --involution takes the blossom route, and has no involution matching
NO_MATRIX = ((False, False, True), (True, True, True))


def check_answer(table, res):
    if isinstance(res, Matching):
        assert verify_matching(table, res.f, require_involution=True).ok
    else:
        assert isinstance(res, TutteBarrier)
        assert verify_barrier(table, res).ok


def networkx_exists(table) -> bool:
    """Perfect matching of two copies of the mutual-inverse graph, each
    a in V(a) joined to its copy."""
    n = table.n
    v = inverse_sets(table)
    g = nx.Graph()
    g.add_nodes_from(range(2 * n))
    for a in range(n):
        for b in v[a]:
            if b > a:
                g.add_edge(a, b)
                g.add_edge(a + n, b + n)
        if a in v[a]:
            g.add_edge(a, a + n)
    return len(nx.max_weight_matching(g, maxcardinality=True)) == n


@pytest.mark.parametrize("name,table", SMALL, ids=[name for name, _ in SMALL])
def test_blossom_agrees_with_oracle(name, table):
    res = find_involution_matching(table)
    check_answer(table, res)
    assert isinstance(res, Matching) == isinstance(involution_oracle(table), Matching)


@pytest.mark.parametrize("name,table", CORPUS, ids=[name for name, _ in CORPUS])
def test_blossom_agrees_with_structure_on_orthodox(name, table):
    res = find_involution_matching(table)
    check_answer(table, res)
    if classify(table).orthodox:
        # an orthodox S with a permutation matching has an involution one
        assert isinstance(res, Matching) == isinstance(decide_orthodox_matching(table), Matching)


class _Searching(Exception):
    """Raised where a solver's searches would begin, carrying the solver."""


def _stop(solver, *args):
    raise _Searching(solver)


def library_solver(table) -> _Blossom:
    """The solver of find_involution_matching(table), holding its greedy
    start, stopped where its maximize would begin."""
    with mock.patch.object(_Blossom, "maximize", _stop):
        try:
            find_involution_matching(table)
        except _Searching as stop:
            return stop.args[0]
    raise AssertionError("find_involution_matching ran no solver")


def greedy_start(ref) -> list:
    """The match that ref.maximize() holds when its first search begins."""
    ref.grow = functools.partial(_stop, ref)
    try:
        ref.maximize()
    except _Searching:
        pass
    return ref.match


def assert_same_solver_path(solver, ref) -> list:
    """Run both solvers to a maximum matching and its A-set, which is
    returned; the matchings, A-sets and node counts must agree.  solver
    searches from the greedy start it holds, ref from its own."""
    solver.maximize()
    ref.maximize()
    assert (solver.match, solver.nodes) == (ref.match, ref.nodes)
    a_set = ref.inner_vertices()
    assert solver.inner_vertices() == a_set
    assert solver.nodes == ref.nodes
    return a_set


def assert_same_as_reference(table):
    """Adjacency, search path, components and answer equal the reference's."""
    n = table.n
    v = inverse_matrix(table)
    solver = library_solver(table)
    adj = solver.adj
    assert adj == doubled_adjacency(v)
    ref = ReferenceBlossom(doubled_adjacency(v))
    xs = tuple(x for x in assert_same_solver_path(solver, ref) if x < n)
    for removed in ((), xs):
        assert _odd_loop_free_components(adj, removed) == odd_loop_free_components(v, removed)
    if -1 in ref.match:
        expected = TutteBarrier(elements=xs, odd_components=odd_loop_free_components(v, xs),
                                nodes=ref.nodes)
    else:
        f = tuple(m if m < n else a for a, m in enumerate(ref.match[:n]))
        expected = Matching(f=f, kind="involution", provenance="blossom")
    assert find_involution_matching(table) == expected


@pytest.mark.parametrize("name,table", CORPUS, ids=[name for name, _ in CORPUS])
def test_blossom_follows_reference_on_corpus(name, table):
    assert_same_as_reference(table)


@pytest.mark.parametrize("seed,rows,cols,density", RANDOM_REES)
def test_blossom_follows_reference_on_random_rees(seed, rows, cols, density):
    assert_same_as_reference(random_rees(seed, rows, cols, density))


def assert_mirrored_greedy(table, name=""):
    """find_involution_matching's copy-0 greedy start, mirrored onto copy 1,
    is the reference's greedy start over all 2n vertices of the doubled graph."""
    ref = ReferenceBlossom(doubled_adjacency(inverse_matrix(table)))
    assert library_solver(table).match == greedy_start(ref), name


GREEDY_TABLES = ([(f"random_rees_{args[0]}", random_rees(*args)) for args in RANDOM_REES]
                 + REES_OVER_GROUP + [("T_3", t_n(3)), ("T_4", t_n(4))])


@pytest.mark.parametrize("name,table", GREEDY_TABLES, ids=[name for name, _ in GREEDY_TABLES])
def test_mirrored_greedy_start(name, table):
    assert_mirrored_greedy(table, name)


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 5) for n in range(m, 6)])
def test_mirrored_greedy_start_on_census(m, n):
    for k, p in enumerate(census_matrices(m, n)):
        for side, q in (("P", p), ("P^T", p.T)):
            assert_mirrored_greedy(rees_matrix(BoolStructureMatrix(q.tolist())),
                                   f"{m}x{n} class {k} {side}")


def test_t3_oracle_finds_the_frozen_map():
    assert involution_oracle(t_n(3)).f == T3_INVOLUTION


@st.composite
def regular_matrices(draw):
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(1, 8))
    bits = draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))
    entries = [bits[r * cols:(r + 1) * cols] for r in range(rows)]
    # a one in every row and column keeps the matrix regular
    for r in range(rows):
        entries[r][draw(st.integers(0, cols - 1))] = True
    for c in range(cols):
        entries[draw(st.integers(0, rows - 1))][c] = True
    return BoolStructureMatrix(tuple(tuple(row) for row in entries))


@settings(max_examples=150)
@given(regular_matrices())
def test_blossom_agrees_with_networkx(p):
    table = rees_matrix(p)
    res = find_involution_matching(table)
    check_answer(table, res)
    assert isinstance(res, Matching) == networkx_exists(table)


@settings(max_examples=150)
@given(regular_matrices())
def test_blossom_follows_reference_on_regular_matrices(p):
    assert_same_as_reference(rees_matrix(p))


@settings(max_examples=150)
@given(regular_matrices())
def test_mirrored_greedy_start_on_regular_matrices(p):
    assert_mirrored_greedy(rees_matrix(p))


@settings(max_examples=150)
@given(transformation_subsemigroups())
def test_mirrored_greedy_start_on_transformation_subsemigroups(table):
    assert_mirrored_greedy(table)


@pytest.mark.parametrize("name,table", REES_OVER_GROUP, ids=[name for name, _ in REES_OVER_GROUP])
def test_blossom_agrees_with_networkx_over_groups(name, table):
    res = find_involution_matching(table)
    check_answer(table, res)
    assert isinstance(res, Matching) == networkx_exists(table)


@st.composite
def random_graphs(draw):
    size = draw(st.integers(1, 14))
    pairs = [(x, y) for x in range(size) for y in range(x + 1, size)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return size, edges


@settings(max_examples=300)
@given(random_graphs())
def test_blossom_on_general_graphs(graph):
    """Maximum cardinality against networkx, and the A-set against the
    Tutte-Berge formula: exposed vertices = odd components of G - A - |A|."""
    size, edges = graph
    adj = [[] for _ in range(size)]
    for x, y in edges:
        adj[x].append(y)
        adj[y].append(x)
    solver = _Blossom(adj)
    solver.match[:] = greedy_start(ReferenceBlossom(adj))
    assert_same_solver_path(solver, ReferenceBlossom(adj))
    match = solver.match
    assert all(m == -1 or (match[m] == x and m in adj[x]) for x, m in enumerate(match))
    g = nx.Graph()
    g.add_nodes_from(range(size))
    g.add_edges_from(edges)
    exposed = match.count(-1)
    assert size - exposed == 2 * len(nx.max_weight_matching(g, maxcardinality=True))
    a_set = solver.inner_vertices()
    rest = g.subgraph(set(range(size)) - set(a_set))
    odd = sum(1 for comp in nx.connected_components(rest) if len(comp) % 2)
    assert exposed == odd - len(a_set)


class TestVerifyBarrier:
    def setup_method(self):
        self.table = rees_matrix(BoolStructureMatrix(NO_MATRIX))
        self.barrier = find_involution_matching(self.table)

    def tampered(self, **fields):
        base = {"elements": self.barrier.elements,
                "odd_components": self.barrier.odd_components, "nodes": 0}
        return TutteBarrier(**{**base, **fields})

    def test_library_barrier_verifies(self):
        assert isinstance(self.barrier, TutteBarrier)
        assert len(self.barrier.odd_components) > len(self.barrier.elements)
        assert verify_barrier(self.table, self.barrier).ok

    def test_too_few_components(self):
        res = verify_barrier(self.table, self.tampered(odd_components=self.barrier.odd_components[:1]))
        assert res.reason == "no more odd components than barrier elements"

    def test_barrier_element_out_of_range(self):
        res = verify_barrier(self.table, self.tampered(elements=(self.table.n,)))
        assert res.reason == "barrier is not a set of elements"

    def test_overlap(self):
        comp = self.barrier.odd_components[0]
        res = verify_barrier(self.table, self.tampered(odd_components=(comp, comp)))
        assert res.reason == "components overlap"

    def test_component_leaks_past_barrier(self):
        res = verify_barrier(self.table, self.tampered(elements=()))
        assert not res.ok
        assert res.reason == "component has an inverse outside the barrier"

    def test_even_component(self):
        comp = self.barrier.odd_components[0]
        res = verify_barrier(self.table, self.tampered(
            odd_components=(comp + self.barrier.elements,) + self.barrier.odd_components[1:],
            elements=()))
        assert res.reason == "component of even size"

    def test_self_inverse_element(self):
        table = band7()
        v = inverse_sets(table)
        e = next(a for a in range(table.n) if a in v[a])
        res = verify_barrier(table, TutteBarrier(elements=(), odd_components=((e,),), nodes=0))
        assert (res.ok, res.reason, res.element) == (False, "component element is its own inverse", e)

    def test_barrier_element_not_an_integer(self):
        floats = tuple(float(x) for x in self.barrier.elements)
        for elements in ((0.5,), floats):
            res = verify_barrier(self.table, self.tampered(elements=elements))
            assert (res.ok, res.reason, res.element) == (
                False, "barrier element not an integer", None)

    def test_component_element_not_an_integer(self):
        comps = self.barrier.odd_components
        for comp in ((0.5,), tuple(float(a) for a in comps[-1])):
            res = verify_barrier(self.table, self.tampered(odd_components=comps[:-1] + (comp,)))
            assert (res.ok, res.reason, res.element) == (
                False, "component element not an integer", None)

    def test_numpy_integers_are_elements(self):
        barrier = self.tampered(elements=tuple(np.int64(x) for x in self.barrier.elements),
                                odd_components=tuple(tuple(np.intp(a) for a in comp)
                                                     for comp in self.barrier.odd_components))
        assert verify_barrier(self.table, barrier).ok

    def assert_reads(self, elements, odd_components, expected):
        """The library and the reference both read expected off the barrier."""
        barrier = TutteBarrier(elements=elements, odd_components=odd_components, nodes=0)
        res = verify_barrier(self.table, barrier)
        ref = reference_verify_barrier(self.table, barrier)
        assert (res.ok, res.reason, res.element) == (ref.ok, ref.reason, ref.element) == expected

    @pytest.mark.parametrize("huge", [2**70, -2**70])
    def test_entries_beyond_intp(self, huge):
        # X = {5} and components (0), (2) make the barrier; 1 is in V(1)
        self.assert_reads((5, huge), ((0,), (2,)), (False, "barrier is not a set of elements", None))
        for comps in (((0,), (2, huge)), ((huge, 0), (2,))):
            self.assert_reads((5,), comps, (False, "component element out of range", None))
        self.assert_reads((5,), ((1,), (huge,)), (False, "component element is its own inverse", 1))

    def test_fault_before_a_later_float(self):
        self.assert_reads((5,), ((1,), (2.0,)), (False, "component element is its own inverse", 1))
        self.assert_reads((5,), ((0, 2), (0.5,)), (False, "component of even size", 0))
        self.assert_reads((5,), ((0,), (2,), (0.5,)), (False, "component element not an integer", None))

    def test_overlap_is_reported_at_the_later_component(self):
        # 1 in V(1) would fail the later component, but the overlap comes first
        self.assert_reads((5,), ((0,), (2,), (1, 0, 6)), (False, "components overlap", 0))
        self.assert_reads((5,), ((0,), (2,), (6, 5, 2)), (False, "components overlap", 2))
        self.assert_reads((5,), ((0,), (6, 5)), (False, "components overlap", 5))

    def test_empty_component(self):
        self.assert_reads((5,), ((0,), (), (2,)), (False, "component of even size", None))

    def test_repeat_inside_a_component(self):
        self.assert_reads((5,), ((0,), (2, 2, 6)), (False, "components overlap", None))

    def test_first_failing_element_ascending(self):
        """Elements are checked ascending, each for a in V(a) before an inverse
        outside, whichever element breaks which rule."""
        table = t_n(3)
        v = inverse_matrix(table)
        assert v[5, 5] and v[7, 7] and v[21, 21] and not v[1, 1] and not v[15, 15]
        assert v[1, 6] and v[15, 19]
        for comp, expected in [((1, 5, 7), ("component has an inverse outside the barrier", 1)),
                               ((5, 15, 21), ("component element is its own inverse", 5))]:
            res = verify_barrier(table, TutteBarrier(elements=(), odd_components=(comp,), nodes=0))
            assert (res.ok, (res.reason, res.element)) == (False, expected)


# tables the tampered barriers start from: the blossom's barrier where there
# is one, otherwise X empty with every odd component free of a in V(a)
BARRIER_TABLES = CORPUS + REES_OVER_GROUP + [
    (f"random_rees_{args[0]}", random_rees(*args)) for args in RANDOM_REES]


@functools.cache
def starting_barrier(index: int) -> TutteBarrier:
    table = BARRIER_TABLES[index][1]
    res = find_involution_matching(table)
    if isinstance(res, TutteBarrier):
        return res
    comps = odd_loop_free_components(inverse_matrix(table), ())
    return TutteBarrier(elements=(), odd_components=comps, nodes=0)


@functools.cache
def blossom_barrier_indices() -> list:
    return [k for k, (_, table) in enumerate(BARRIER_TABLES)
            if isinstance(find_involution_matching(table), TutteBarrier)]


def pick(draw, items):
    return items.pop(draw(st.integers(0, len(items) - 1)))


@st.composite
def tampered_barriers(draw):
    """A table and its starting barrier after up to three tamperings: an X
    element dropped or added (perhaps repeated or out of range), components
    merged, split, reordered or repeated, an element (perhaps an a in V(a))
    added to a component, an entry made a float."""
    # mostly the blossom's barriers, which pass unless tampered with
    index = draw(st.sampled_from(blossom_barrier_indices()) | st.integers(0, len(BARRIER_TABLES) - 1))
    table = BARRIER_TABLES[index][1]
    barrier = starting_barrier(index)
    xs = list(barrier.elements)
    comps = [list(comp) for comp in barrier.odd_components]
    loops = np.flatnonzero(inverse_matrix(table).diagonal()).tolist()
    ops = ("drop", "add", "merge", "split", "reorder", "repeat", "loop", "element", "float")
    for op in draw(st.lists(st.sampled_from(ops), max_size=3)):
        if op == "drop" and xs:
            pick(draw, xs)
        elif op == "add":
            xs.append(draw(st.integers(-1, table.n)))
        elif op == "merge" and len(comps) > 1:
            comp = pick(draw, comps)
            comps[draw(st.integers(0, len(comps) - 1))] += comp
        elif op == "split" and comps:
            comp = pick(draw, comps)
            k = draw(st.integers(0, len(comp)))
            comps[len(comps):] = [comp[:k], comp[k:]]
        elif op == "reorder":
            comps = [draw(st.permutations(comp)) for comp in draw(st.permutations(comps))]
        elif op == "repeat" and comps:
            comps.append(list(draw(st.sampled_from(comps))))
        elif op in ("loop", "element"):
            a = (draw(st.sampled_from(loops)) if op == "loop" and loops
                 else draw(st.integers(-1, table.n)))
            if comps and draw(st.booleans()):
                comps[draw(st.integers(0, len(comps) - 1))].append(a)
            else:
                comps.append([a])
        elif op == "float" and (xs or comps):
            entries = draw(st.sampled_from([xs] + comps))
            if entries:
                k = draw(st.integers(0, len(entries) - 1))
                entries[k] = float(entries[k])
    return table, TutteBarrier(elements=tuple(xs), odd_components=tuple(map(tuple, comps)),
                               nodes=barrier.nodes)


@settings(max_examples=400, deadline=None)
@given(tampered_barriers())
def test_verify_barrier_follows_reference(case):
    """The one-pass acceptance leaves every verdict, reason and element as
    the component-by-component reference reports them."""
    table, barrier = case
    res = verify_barrier(table, barrier)
    expected = reference_verify_barrier(table, barrier)
    assert (res.ok, res.reason, res.element) == (expected.ok, expected.reason, expected.element)


def test_verify_barrier_accepts_every_starting_barrier():
    passed = [k for k, (_, table) in enumerate(BARRIER_TABLES)
              if verify_barrier(table, starting_barrier(k)).ok]
    assert passed == blossom_barrier_indices()
    assert len(passed) >= 10


def test_no_global_interpreter_state(monkeypatch):
    """The blossom route neither recurses deeply nor touches the recursion
    limit, even when that limit sits just above the caller's depth."""
    p = tuple(tuple(lam == k or (lam + 2 * k) % 5 == 0 for k in range(12)) for lam in range(12))
    table = rees_matrix(BoolStructureMatrix(p))
    assert table.n == 145 and not classify(table).orthodox
    set_limit = sys.setrecursionlimit
    saved = sys.getrecursionlimit()
    set_limit(frame_depth() + 150)
    try:
        before = sys.getrecursionlimit()

        def refuse(limit):
            raise AssertionError("the library changed the recursion limit")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        res = decide(table, involution=True)
        after = sys.getrecursionlimit()
    finally:
        monkeypatch.undo()
        set_limit(saved)
    assert after == before
    check_answer(table, res)


def _src_env(**extra) -> dict:
    src = str(Path(semigroup_match.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else ""), **extra}


def test_cli_import_leaves_out_networkx_and_scipy():
    code = ("import sys, semigroup_match.cli; "
            "print(sorted(m for m in ('networkx', 'scipy') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


@pytest.fixture()
def involution_tables(tmp_path):
    paths = {}
    for name, table in [("yes", t_n(3)), ("no", rees_matrix(BoolStructureMatrix(NO_MATRIX)))]:
        path = tmp_path / f"{name}.tbl"
        path.write_text(render_table(table), encoding="utf-8")
        paths[name] = (path, table)
    return paths


@pytest.mark.parametrize("name", ["yes", "no"])
def test_involution_json_is_byte_identical(involution_tables, name):
    path, _ = involution_tables[name]
    argv = [sys.executable, "-m", "semigroup_match.cli", "matching", str(path),
            "--involution", "--json"]
    runs = [subprocess.run(argv, env=_src_env(PYTHONHASHSEED=seed), capture_output=True,
                           timeout=120) for seed in ("0", "1")]
    expected = 0 if name == "yes" else 1
    assert [r.returncode for r in runs] == [expected, expected]
    assert runs[0].stdout == runs[1].stdout


def test_involution_no_report(involution_tables, capsys):
    path, table = involution_tables["no"]
    code = main(["matching", str(path), "--involution", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["matching"] is None and report["certificate"] is None
    assert report["search"]["complete"] is True
    assert report["search"]["nodes"] > 0
    barrier = TutteBarrier(
        elements=tuple(report["barrier"]["elements"]),
        odd_components=tuple(tuple(c) for c in report["barrier"]["odd_components"]),
        nodes=report["search"]["nodes"],
    )
    assert verify_barrier(table, barrier).ok
    code = main(["matching", str(path), "--involution"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("no involution matching: Tutte barrier")


def test_barrier_key_only_in_involution_reports(involution_tables, capsys):
    path, _ = involution_tables["yes"]
    main(["matching", str(path), "--involution", "--json"])
    assert json.loads(capsys.readouterr().out)["barrier"] is None
    main(["matching", str(path), "--json"])
    assert "barrier" not in json.loads(capsys.readouterr().out)
