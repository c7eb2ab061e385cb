"""The CLI's --json reports are exactly json.dumps(report, indent=2).

cli._dumps writes every report.  A spy records each report it is handed,
and the printed bytes must equal json.dumps of that object, on every
command and report shape; a Hypothesis family of JSON trees covers the
rest.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semigroup_match import BoolStructureMatrix, MulTable, cli, rees_matrix, render_table

from corpus import band7, brandt, cyclic, five_unique, monogenic, null_semigroup, t_n

# names that json escapes: quotes, backslashes, non-ASCII (one of them past
# the BMP, written as a surrogate pair) and control characters
ODD_NAMES = ('"q"', "back\\slash", "é名\U0001f600", "\x01\x1b\x7f")

# not orthodox and no involution matching: --involution ends in a barrier
NO_INVOLUTION = ((False, False, True), (True, True, True))


@pytest.fixture()
def files(tmp_path):
    tables = {
        "band7": band7(),                     # orthodox, no matching: a Hall certificate
        "five": five_unique(),
        "brandt2": brandt(2),
        "t3": t_n(3),                         # not orthodox: notes, null subbands
        "null3": null_semigroup(3),           # not regular: null bands, empty V(A)
        "mono": monogenic(3, 2),
        "no_involution": rees_matrix(BoolStructureMatrix(NO_INVOLUTION)),
        "odd_names": MulTable(cyclic(4).product, ODD_NAMES),
    }
    paths = {}
    for name, table in tables.items():
        path = tmp_path / f"{name}.tbl"
        path.write_text(render_table(table), encoding="utf-8")
        paths[name] = str(path)
    odd_path = tmp_path / 'in "quotes" \\ é.tbl'
    odd_path.write_text(render_table(cyclic(2)), encoding="utf-8")
    paths["odd_path"] = str(odd_path)
    matrix = tmp_path / "p.mat"
    matrix.write_text("2 3\n0 0 1\n1 1 1\n", encoding="utf-8")
    paths["matrix"] = str(matrix)
    paths["out"] = str(tmp_path / "out.tbl")
    return paths


@pytest.fixture()
def reports(monkeypatch):
    """The objects cli._dumps is handed at the top level, in order."""
    seen = []
    real = cli._dumps

    def spy(obj, pad=""):
        if not pad:
            seen.append(obj)
        return real(obj, pad)

    monkeypatch.setattr(cli, "_dumps", spy)
    return seen


TABLES = ["band7", "five", "brandt2", "t3", "null3", "mono", "no_involution", "odd_names",
          "odd_path"]
MATCHING = [[], ["--involution"], ["--method", "hall"]]
# brute force and counting refuse T_3 (27 elements, above their cap), and
# --method orthodox refuses input that is not orthodox
SMALL = ["band7", "five", "brandt2", "null3", "mono", "no_involution", "odd_names", "odd_path"]
ARGVS = (
    [[command, name] for command in ("analyze", "factors") for name in TABLES]
    + [["matching", name, *extra] for name in TABLES for extra in MATCHING]
    + [["matching", name, *extra] for name in SMALL
       for extra in (["--count", "1"], ["--count", "100"], ["--method", "brute"])]
    + [["matching", name, "--method", "orthodox"] for name in ("band7", "brandt2", "odd_path")]
    + [["gen", "rect", "2", "3", "out"], ["gen", "rees", "matrix", "out"],
       ["gen", "tn", "2", "out"], ["gen", "product", "band7", "brandt2", "out"]]
)


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_every_report_is_json_dumps_indent_2(files, reports, capsys, argv):
    code = cli.main([files.get(arg, arg) for arg in argv] + ["--json"])
    out = capsys.readouterr().out
    assert code in (0, 1)
    (report,) = reports
    assert out == json.dumps(report, indent=2) + "\n"
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_the_shapes_are_all_reached(files, reports, capsys):
    # null fields, empty lists, a Hall certificate, a barrier, a count and
    # escaped names each appear in some report above
    for argv in (["analyze", "null3"], ["matching", "band7"],
                 ["matching", "no_involution", "--involution"],
                 ["matching", "null3", "--count", "2"], ["analyze", "odd_names"]):
        cli.main([files[argv[1]] if i == 1 else arg for i, arg in enumerate(argv)] + ["--json"])
    capsys.readouterr()
    null3, band, barrier, count, named = reports
    assert any(entry["band"] is None for entry in null3["d_class_reports"])
    assert band["certificate"]["violating_set"]
    assert barrier["barrier"]["odd_components"] and barrier["certificate"] is None
    assert count["count"] == 0 and count["exact"] is True
    assert named["names"] == list(ODD_NAMES)


@pytest.mark.parametrize("obj", [
    None, True, 0, -7, 2 ** 70, "", "a\"b\\c\n\t ", [], {}, [[]], {"": {}},
    [1, 2, 3], [1, True, 2], [False, 0], [None, [], {"a": [[], [1, [2, []]]]}],
    {"k": None, "l": [0], "m": {"n": [True, False, None]}}, (1, 2), [(), (3,)],
])
def test_shapes(obj):
    assert cli._dumps(obj) == json.dumps(obj, indent=2)


json_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: (st.lists(children) | st.lists(st.integers() | st.booleans())
                      | st.dictionaries(st.text(), children)),
    max_leaves=40,
)


@given(json_trees)
def test_json_trees(obj):
    assert cli._dumps(obj) == json.dumps(obj, indent=2)
