"""The inverse relation as one cached boolean matrix, checked from outside.

inverse_matrix must equal the aba = a, bab = b definition evaluated one
product at a time; inverse_sets and the V-class partition are views of
it; and no command-line path falls back to the frozenset view.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from semigroup_match import (
    NotRegularError,
    gamma_structure,
    inverse_matrix,
    inverse_sets,
    render_table,
)
from semigroup_match import cli

from corpus import band7, brandt, cyclic, five_unique, full_corpus, monogenic, t_n
from test_green import transformation_subsemigroups


def reference_matrix(table) -> list:
    mul = table.mul
    return [
        [mul(mul(a, b), a) == a and mul(mul(b, a), b) == b for b in range(table.n)]
        for a in range(table.n)
    ]


def first_seen_classes(table) -> tuple:
    """V-class ids numbered in order of first appearance, from the frozensets."""
    ids = {}
    return tuple(ids.setdefault(va, len(ids)) for va in inverse_sets(table))


def check_views(table, name=""):
    v = inverse_matrix(table)
    assert v.dtype == bool and v.shape == (table.n, table.n), name
    assert v.tolist() == reference_matrix(table), name
    assert inverse_sets(table) == tuple(
        frozenset(b for b in range(table.n) if v[a, b]) for a in range(table.n)
    ), name
    if all(inverse_sets(table)):
        assert gamma_structure(table).gamma_class == first_seen_classes(table), name
    else:
        with pytest.raises(NotRegularError):
            gamma_structure(table)


@pytest.mark.parametrize("name,table", full_corpus())
def test_full_corpus(name, table):
    check_views(table, name)


@settings(max_examples=200)
@given(transformation_subsemigroups())
def test_transformation_subsemigroups(table):
    check_views(table)


def test_read_only_and_cached():
    table = band7()
    v = inverse_matrix(table)
    assert inverse_matrix(table) is v
    assert table._cache["inverse_matrix"] is v
    with pytest.raises(ValueError):
        v[0, 0] = not v[0, 0]


COMMANDS = [["analyze"], ["factors"], ["matching", "--count", "3"]] + [
    ["matching", "--method", method] + extra
    for method in ("auto", "hall", "orthodox", "brute")
    for extra in ([], ["--involution"])
]


TABLES = [("band7", band7()), ("five_unique", five_unique()), ("brandt2", brandt(2)),
          ("c3", cyclic(3)), ("mono_2_3", monogenic(2, 3)), ("t2", t_n(2))]


@pytest.mark.parametrize("name,table", TABLES)
@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_cli_paths_use_only_the_matrix(tmp_path, monkeypatch, capsys, name, table, command):
    path = tmp_path / "s.tbl"
    path.write_text(render_table(table), encoding="utf-8")
    loaded = []
    load = cli._load
    monkeypatch.setattr(cli, "_load", lambda *a: loaded.append(load(*a)) or loaded[-1])
    code = cli.main([command[0], str(path), *command[1:], "--json"])
    capsys.readouterr()
    assert code in (0, 1, 2), name
    if "--involution" in command and command[2] in ("hall", "brute"):
        # a usage error, refused before any table is read
        assert (code, loaded) == (2, []), name
        return
    (seen,) = loaded
    assert "inverse_sets" not in seen._cache
    if command != ["factors"] and code != 2:
        assert "inverse_matrix" in seen._cache
