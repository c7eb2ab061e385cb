from __future__ import annotations

import json
import sys
import time

import jsonschema
import pytest

from semigroup_match import (
    TableFormatError,
    cli,
    direct_product,
    green_classes,
    idempotents,
    parse_table,
    rectangular_band,
    render_table,
    verify_matching,
)
from semigroup_match.cli import main

from corpus import band7, brandt, cyclic, five_unique, monogenic, null_semigroup, t_n

FLAG_NAMES = [
    "regular", "orthodox", "inverse", "band", "rectangular_band",
    "completely_regular", "completely_simple", "combinatorial",
    "group", "self_inverse", "has_zero",
]

MAYBE_PAIR = {
    "anyOf": [
        {"type": "null"},
        {
            "type": "array",
            "items": {"type": "integer", "minimum": 1},
            "minItems": 2,
            "maxItems": 2,
        },
    ]
}

ANALYZE_SCHEMA = {
    "type": "object",
    "required": [
        "command", "input", "elements", "names", "classification",
        "green_summary", "d_class_reports", "matching_verdict",
    ],
    "additionalProperties": False,
    "properties": {
        "command": {"const": "analyze"},
        "input": {"type": "string"},
        "elements": {"type": "integer", "minimum": 1},
        "names": {
            "anyOf": [
                {"type": "null"},
                {"type": "array", "items": {"type": "string"}},
            ]
        },
        "classification": {
            "type": "object",
            "required": FLAG_NAMES,
            "additionalProperties": False,
            "properties": {name: {"type": "boolean"} for name in FLAG_NAMES},
        },
        "green_summary": {
            "type": "object",
            "required": ["r_classes", "l_classes", "h_classes", "d_classes"],
            "additionalProperties": False,
            "properties": {
                key: {"type": "integer", "minimum": 1}
                for key in ["r_classes", "l_classes", "h_classes", "d_classes"]
            },
        },
        "d_class_reports": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": [
                    "d_class", "size", "regular", "band",
                    "subbands", "similar", "note",
                ],
                "additionalProperties": False,
                "properties": {
                    "d_class": {"type": "integer", "minimum": 0},
                    "size": {"type": "integer", "minimum": 1},
                    "regular": {"type": "boolean"},
                    "band": MAYBE_PAIR,
                    "subbands": {
                        "anyOf": [
                            {"type": "null"},
                            {"type": "array", "items": MAYBE_PAIR["anyOf"][1]},
                        ]
                    },
                    "similar": {"anyOf": [{"type": "null"}, {"type": "boolean"}]},
                    "note": {"anyOf": [{"type": "null"}, {"type": "string"}]},
                },
            },
        },
        "matching_verdict": {
            "type": "object",
            "required": ["exists", "matching", "certificate", "involution_status"],
            "additionalProperties": False,
            "properties": {
                "exists": {"type": "boolean"},
                "matching": {
                    "anyOf": [
                        {"type": "null"},
                        {
                            "type": "object",
                            "required": ["kind", "provenance", "map"],
                            "additionalProperties": False,
                            "properties": {
                                "kind": {"enum": ["permutation", "involution"]},
                                "provenance": {"type": "string"},
                                "map": {
                                    "type": "array",
                                    "items": {"type": "integer", "minimum": 0},
                                },
                            },
                        },
                    ]
                },
                "certificate": {
                    "anyOf": [
                        {"type": "null"},
                        {
                            "type": "object",
                            "required": ["violating_set", "image"],
                            "additionalProperties": False,
                            "properties": {
                                "violating_set": {"type": "array"},
                                "image": {"type": "array"},
                            },
                        },
                    ]
                },
                "involution_status": {
                    "enum": ["involution_found", "none_exists", "not_searched"]
                },
            },
        },
    },
}


def run(argv, capsys):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def tables(tmp_path):
    paths = {}
    for name, table in [
        ("band7", band7()),
        ("five", five_unique()),
        ("c3", cyclic(3)),
        ("brandt2", brandt(2)),
        ("t3", t_n(3)),
    ]:
        p = tmp_path / f"{name}.tbl"
        p.write_text(render_table(table), encoding="utf-8")
        paths[name] = p
    return paths


class TestAnalyze:
    def test_band7_human(self, tables, capsys):
        code, out, _ = run(["analyze", tables["band7"]], capsys)
        assert code == 0
        assert "classification: regular, orthodox, combinatorial, has_zero" in out
        assert "green: 3 R-classes, 4 L-classes, 7 H-classes, 2 D-classes" in out
        assert "matching: none exists" in out
        assert "certificate: A = {(2,2) (2,3)}  V(A) = {(1,1)}" in out
        assert "involution: none_exists" in out
        assert "time:" in out

    def test_band7_json_schema_and_content(self, tables, capsys):
        code, out, _ = run(["analyze", tables["band7"], "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, ANALYZE_SCHEMA)
        assert report["elements"] == 7
        assert report["classification"]["orthodox"] is True
        assert report["classification"]["inverse"] is False
        assert report["matching_verdict"]["exists"] is False
        assert report["matching_verdict"]["certificate"] == {
            "violating_set": [4, 5],
            "image": [0],
        }
        top = report["d_class_reports"][0]
        assert top["band"] == [2, 3]
        assert top["subbands"] == [[1, 2], [1, 1]]
        assert top["similar"] is False

    def test_group_report(self, tables, capsys):
        code, out, _ = run(["analyze", tables["c3"], "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, ANALYZE_SCHEMA)
        assert report["classification"]["group"] is True
        verdict = report["matching_verdict"]
        assert verdict["exists"] is True
        assert verdict["involution_status"] == "involution_found"
        assert verdict["matching"]["map"] == [0, 2, 1]

    def test_t3_report(self, tables, capsys):
        code, out, _ = run(["analyze", tables["t3"], "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, ANALYZE_SCHEMA)
        assert report["classification"]["regular"] is True
        assert report["classification"]["orthodox"] is False
        assert report["matching_verdict"]["exists"] is True
        m = report["matching_verdict"]["matching"]["map"]
        assert verify_matching(t_n(3), tuple(m)).ok

    def test_json_is_deterministic(self, tables, capsys):
        _, first, _ = run(["analyze", tables["band7"], "--json"], capsys)
        _, second, _ = run(["analyze", tables["band7"], "--json"], capsys)
        assert first == second

    def test_reported_matchings_always_verify(self, tables, capsys):
        for key, builder in [("five", five_unique), ("brandt2", brandt)]:
            table = five_unique() if key == "five" else brandt(2)
            _, out, _ = run(["analyze", tables[key], "--json"], capsys)
            verdict = json.loads(out)["matching_verdict"]
            if verdict["matching"] is not None:
                f = tuple(verdict["matching"]["map"])
                need_inv = verdict["matching"]["kind"] == "involution"
                assert verify_matching(table, f, require_involution=need_inv).ok

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.tbl"
        bad.write_text("2\n0 1\n", encoding="utf-8")
        code, _, err = run(["analyze", bad], capsys)
        assert code == 2
        assert "error:" in err

    def test_size_cap_exits_2(self, tmp_path, capsys):
        big = tmp_path / "big.tbl"
        big.write_text("5001\n", encoding="utf-8")
        code, _, err = run(["analyze", big], capsys)
        assert code == 2
        assert "error: table has 5001 elements, cap is 5000" in err
        # --cap raises the limit; the missing rows are the next error
        code, _, err = run(["analyze", big, "--cap", 6000], capsys)
        assert code == 2
        assert "expected 5001 table rows" in err
        # a --cap below the default never lowers it
        code, _, err = run(["analyze", big, "--cap", 10], capsys)
        assert "cap is 5000" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(["analyze", "does-not-exist.tbl"], capsys)
        assert code == 2
        assert "error:" in err


class TestMatching:
    def test_band7_certificate(self, tables, capsys):
        code, out, _ = run(["matching", tables["band7"]], capsys)
        assert code == 1
        assert "no permutation matching: Hall's condition fails" in out
        assert "A (2 elements): (2,2) (2,3)" in out
        assert "V(A) (1 element): (1,1)" in out

    def test_five_matching_text(self, tables, capsys):
        code, out, _ = run(["matching", tables["five"]], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "kind: permutation"
        assert lines[1] == "provenance: hall_bipartite"
        assert "(1,2) -> (2,1)" in lines
        assert "0 -> 0" in lines

    def test_brandt_auto_goes_orthodox(self, tables, capsys):
        code, out, _ = run(["matching", tables["brandt2"], "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["mode"] == "permutation"
        assert report["method"] == "auto"
        assert report["matching"]["provenance"] == "band_lift"
        assert report["matching"]["map"] == [0, 2, 1, 3, 4]

    def test_count(self, tables, capsys):
        code, out, _ = run(["matching", tables["five"], "--count", 10], capsys)
        assert code == 0
        assert out.strip() == "count = 1"

    def test_count_zero_exits_1(self, tables, capsys):
        code, out, _ = run(["matching", tables["band7"], "--count", 5], capsys)
        assert code == 1
        assert out.strip() == "count = 0"

    def test_count_cutoff_renders_lower_bound(self, tmp_path, capsys):
        from semigroup_match import rectangular_band

        p = tmp_path / "rect.tbl"
        p.write_text(render_table(rectangular_band(2, 2)), encoding="utf-8")
        code, out, _ = run(["matching", p, "--count", 3], capsys)
        assert code == 0
        assert out.strip() == "count >= 3"

    def test_count_needs_positive_limit(self, tables, capsys):
        code, _, err = run(["matching", tables["five"], "--count", 0], capsys)
        assert code == 2
        assert "positive limit" in err

    @pytest.mark.parametrize("flags,message", [
        (["--count", 0], "error: --count needs a positive limit"),
        (["--involution", "--method", "hall"], "error: --involution cannot use method hall"),
        (["--involution", "--method", "brute"], "error: --involution cannot use method brute"),
    ])
    def test_usage_errors_come_before_the_table(self, flags, message, capsys):
        # no file to read: the usage error is reported without reading one
        code, _, err = run(["matching", "does-not-exist.tbl", *flags], capsys)
        assert code == 2
        assert err.strip() == message

    def test_involution_on_band(self, tmp_path, capsys):
        from semigroup_match import rectangular_band

        p = tmp_path / "band.tbl"
        p.write_text(render_table(rectangular_band(2, 3)), encoding="utf-8")
        code, out, _ = run(["matching", p, "--involution"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "kind: involution"
        for i in range(1, 3):
            for j in range(1, 4):
                assert f"({i},{j}) -> ({i},{j})" in lines

    def test_involution_none_for_band7(self, tables, capsys):
        code, out, _ = run(["matching", tables["band7"], "--involution"], capsys)
        assert code == 1
        assert "Hall's condition fails" in out

    def test_involution_search_path_json(self, tables, capsys):
        # forcing the brute search on an orthodox no-instance still ends
        # with a definitive exhaustion
        code, out, _ = run(
            ["matching", tables["band7"], "--involution", "--method", "brute"], capsys
        )
        assert code == 2  # brute is a Hall method, not an involution search

    def test_involution_rejects_hall_method(self, tables, capsys):
        code, _, err = run(
            ["matching", tables["t3"], "--involution", "--method", "hall"], capsys
        )
        assert code == 2
        assert "--involution cannot use method hall" in err

    def test_involution_budget_exhaustion(self, tables, capsys):
        # --budget is still accepted, but no route is time-limited
        code, out, _ = run(
            ["matching", tables["t3"], "--involution", "--budget", 0, "--json"], capsys
        )
        assert code == 0
        f = tuple(json.loads(out)["matching"]["map"])
        assert verify_matching(t_n(3), f, require_involution=True).ok

    def test_involution_cap_is_an_input_error(self, tables, capsys):
        # --cap no longer bounds --involution
        code, out, _ = run(
            ["matching", tables["t3"], "--involution", "--cap", 10, "--json"], capsys
        )
        assert code == 0
        f = tuple(json.loads(out)["matching"]["map"])
        assert verify_matching(t_n(3), f, require_involution=True).ok

    def test_involution_and_count_are_exclusive(self, tables, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["matching", str(tables["five"]), "--involution", "--count", "2"])
        assert exc.value.code == 2

    def test_method_brute(self, tables, capsys):
        code, out, _ = run(["matching", tables["band7"], "--method", "brute"], capsys)
        assert code == 1
        assert "A (2 elements): (2,2) (2,3)" in out
        code, out, _ = run(["matching", tables["five"], "--method", "brute"], capsys)
        assert code == 0
        assert "kind: permutation" in out

    def test_method_orthodox_rejects_non_orthodox(self, tables, capsys):
        code, _, err = run(["matching", tables["five"], "--method", "orthodox"], capsys)
        assert code == 2
        assert "not orthodox" in err

    def test_json_search_report(self, tables, capsys):
        code, out, _ = run(
            ["matching", tables["t3"], "--involution", "--json"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["mode"] == "involution"
        assert report["matching"]["kind"] == "involution"
        f = tuple(report["matching"]["map"])
        assert verify_matching(t_n(3), f, require_involution=True).ok


class TestFactors:
    def test_band7_grid(self, tables, capsys):
        code, out, _ = run(["factors", tables["band7"]], capsys)
        assert code == 0
        assert "D-class 0: 6 elements, band 2x3" in out
        assert "1* 1* | 1" in out
        assert "------+---" in out
        assert "1  1  | 1*" in out
        assert "blocks: 1x2, 1x1" in out
        assert "similar: no" in out
        assert "D-class 1: 1 element, band 1x1" in out

    def test_one_element_class_is_singular(self, tmp_path, capsys):
        path = tmp_path / "null2.tbl"
        path.write_text("2\n1 1\n1 1\n", encoding="utf-8")
        code, out, _ = run(["factors", path], capsys)
        assert code == 0
        assert "D-class 0: 1 element\n" in out
        code, out, _ = run(["analyze", path], capsys)
        assert code == 0
        assert "D-class 0: 1 element, not regular" in out

    def test_band_times_group_grid(self, tmp_path, capsys):
        # every H-class of the 2 x 3 band times C_3 holds 3 elements, an idempotent among them
        path = tmp_path / "rect23_x_c3.tbl"
        path.write_text(render_table(direct_product(rectangular_band(2, 3), cyclic(3))),
                        encoding="utf-8")
        code, out, _ = run(["factors", path], capsys)
        assert code == 0
        assert "D-class 0: 18 elements, band 2x3\n  3* 3* 3*\n  3* 3* 3*\n  blocks: 2x3\n" in out

    def test_inverse_all_singleton_blocks(self, tables, capsys):
        code, out, _ = run(["factors", tables["brandt2"]], capsys)
        assert code == 0
        assert "blocks: 1x1, 1x1" in out
        assert "similar: yes" in out

    def test_non_orthodox_note(self, tables, capsys):
        code, out, _ = run(["factors", tables["t3"]], capsys)
        assert code == 0
        assert "subbands unavailable" in out
        assert "non-idempotent product" in out

    def test_json(self, tables, capsys):
        code, out, _ = run(["factors", tables["band7"], "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "factors"
        assert report["d_classes"][0]["grid"] is not None
        assert report["d_classes"][0]["subbands"] == [[1, 2], [1, 1]]

    @pytest.mark.parametrize("command", ["analyze", "factors"])
    @pytest.mark.parametrize("table", [null_semigroup(6), monogenic(3, 2), t_n(3)],
                             ids=["null6", "mono_3_2", "t3"])
    def test_factor_tables_only_for_regular_classes(self, monkeypatch, tmp_path, capsys,
                                                    command, table):
        built = []
        build = cli.principal_factor

        def recording(t, d):
            built.append(d)
            return build(t, d)

        monkeypatch.setattr(cli, "principal_factor", recording)
        path = tmp_path / "s.tbl"
        path.write_text(render_table(table), encoding="utf-8")
        code, out, _ = run([command, path, "--json"], capsys)
        assert code == 0
        idem = set(idempotents(table))
        regular = [d for d, members in enumerate(green_classes(table).d_classes)
                   if idem & set(members)]
        assert built == regular
        report = json.loads(out)
        entries = report["d_class_reports" if command == "analyze" else "d_classes"]
        for entry in entries:
            assert entry["regular"] == (entry["d_class"] in regular)
            if not entry["regular"]:
                assert entry["note"] == "no idempotent: not a regular D-class"


def test_one_element_table_counts_are_singular(tmp_path, capsys):
    path = tmp_path / "one.tbl"
    path.write_text("1\n0\n", encoding="utf-8")
    code, out, _ = run(["analyze", path], capsys)
    assert code == 0
    assert f"input: {path} (1 element)\n" in out
    assert "green: 1 R-class, 1 L-class, 1 H-class, 1 D-class\n" in out
    assert "D-class 0: 1 element, regular" in out
    code, out, _ = run(["factors", path], capsys)
    assert code == 0
    assert out.startswith(f"input: {path} (1 element, 1 D-class)\n")
    code, out, _ = run(["analyze", path, "--json"], capsys)
    assert json.loads(out)["green_summary"] == {
        "r_classes": 1, "l_classes": 1, "h_classes": 1, "d_classes": 1,
    }


def _patch_package(monkeypatch, attr, replacement):
    """Set attr to replacement at every binding in the package that has it."""
    for name, module in list(sys.modules.items()):
        if (name == "semigroup_match" or name.startswith("semigroup_match.")) \
                and hasattr(module, attr):
            monkeypatch.setattr(module, attr, replacement)


@pytest.mark.parametrize("table", [band7(), brandt(4), t_n(3), null_semigroup(6)],
                         ids=["band7", "B4", "t3", "null6"])
def test_no_command_builds_the_green_tuples(monkeypatch, tmp_path, capsys, table):
    """The commands read Green's relations as arrays: with green_classes
    raising at every binding in the package, their reports are unchanged."""
    path = tmp_path / "s.tbl"
    path.write_text(render_table(table), encoding="utf-8")
    commands = [["analyze", path, "--json"], ["matching", path, "--json"],
                ["factors", path, "--json"]]
    want = [run(argv, capsys) for argv in commands]

    def refuse(table):
        raise AssertionError("green_classes called on a command's path")

    _patch_package(monkeypatch, "green_classes", refuse)
    for argv, (code, out, err) in zip(commands, want):
        assert run(argv, capsys) == (code, out, err), argv
        assert code in (0, 1), argv


@pytest.mark.parametrize("table,argv", [
    (rectangular_band(2, 3), ["matching", "--json"]),
    (t_n(3), ["matching", "--method", "hall", "--json"]),
    (t_n(3), ["matching", "--involution", "--json"]),
    (rectangular_band(2, 3), ["analyze", "--json"]),
], ids=["band2x3-matching", "t3-hall", "t3-blossom", "band2x3-analyze"])
def test_each_printed_matching_is_verified_once(monkeypatch, tmp_path, capsys, table, argv):
    """Every route returns its matching through verify_matching, and the
    command prints it as returned: one run checks it exactly once."""
    path = tmp_path / "s.tbl"
    path.write_text(render_table(table), encoding="utf-8")
    argv = [argv[0], path, *argv[1:]]
    want = run(argv, capsys)
    calls = []

    def counting(table, f, require_involution=False):
        calls.append(require_involution)
        return verify_matching(table, f, require_involution=require_involution)

    _patch_package(monkeypatch, "verify_matching", counting)
    assert run(argv, capsys) == want
    assert want[0] == 0
    assert len(calls) == 1, argv


@pytest.mark.parametrize("table", [band7(), t_n(3), null_semigroup(6)],
                         ids=["band7", "t3", "null6"])
def test_reports_run_no_idempotent_pass_per_factor(monkeypatch, tmp_path, capsys, table):
    """h_quotient_band reads regularity off its band's marks: with
    factors.idempotents raising, analyze and factors print the same bytes."""
    from semigroup_match import factors

    path = tmp_path / "s.tbl"
    path.write_text(render_table(table), encoding="utf-8")
    commands = [["analyze", path, "--json"], ["factors", path, "--json"]]
    want = [run(argv, capsys) for argv in commands]

    def refuse(table):
        raise AssertionError("idempotents called by factors")

    monkeypatch.setattr(factors, "idempotents", refuse, raising=False)
    for argv, (code, out, err) in zip(commands, want):
        assert run(argv, capsys) == (code, out, err), argv
        assert code == 0, argv


def test_main_builds_its_parser_once():
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()


def physical_memory(monkeypatch, total: int) -> None:
    """os.sysconf reporting total bytes of physical memory, in 4 KiB pages."""
    values = {"SC_PHYS_PAGES": total // 4096, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(cli.os, "sysconf", values.__getitem__)


class TestGen:
    def test_rect_round_trip(self, tmp_path, capsys):
        out_path = tmp_path / "rect.tbl"
        code, out, _ = run(["gen", "rect", 2, 3, out_path], capsys)
        assert code == 0
        assert f"wrote {out_path}: 6 elements" in out
        from semigroup_match import rectangular_band

        assert parse_table(out_path.read_text(encoding="utf-8")) == rectangular_band(2, 3)

    def test_rees_from_matrix_file(self, tmp_path, capsys):
        mat = tmp_path / "b.mat"
        mat.write_text("3 2\n0 1\n1 0\n1 0\n", encoding="utf-8")
        out_path = tmp_path / "b.tbl"
        code, _, _ = run(["gen", "rees", mat, out_path], capsys)
        assert code == 0
        assert parse_table(out_path.read_text(encoding="utf-8")) == band7()

    def test_tn(self, tmp_path, capsys):
        out_path = tmp_path / "t3.tbl"
        code, out, _ = run(["gen", "tn", 3, out_path, "--json"], capsys)
        assert code == 0
        assert json.loads(out) == {
            "command": "gen",
            "kind": "tn",
            "out": str(out_path),
            "elements": 27,
        }
        assert parse_table(out_path.read_text(encoding="utf-8")) == t_n(3)

    def test_tn_cap(self, tmp_path, capsys):
        code, _, err = run(["gen", "tn", 6, tmp_path / "t6.tbl"], capsys)
        assert (code, err) == (2, "error: full transformation semigroup has 46656 elements, cap is 5000\n")

    def test_tn_lowered_cap(self, tmp_path, capsys):
        out_path = tmp_path / "t3.tbl"
        code, _, err = run(["gen", "tn", 3, out_path, "--cap", 10], capsys)
        assert code == 2
        assert "error: full transformation semigroup has 27 elements, cap is 10" in err
        assert not out_path.exists()
        code, _, _ = run(["gen", "tn", 3, out_path, "--cap", 27], capsys)
        assert code == 0
        assert parse_table(out_path.read_text(encoding="utf-8")) == t_n(3)
        code, _, err = run(["gen", "tn", 5, tmp_path / "t5.tbl", "--cap", 3000], capsys)
        assert (code, err) == (2, "error: full transformation semigroup has 3125 elements, cap is 3000\n")
        assert not (tmp_path / "t5.tbl").exists()

    @pytest.mark.parametrize("message,want", [
        ("Unable to allocate 8.11 GiB for an array", "error: Unable to allocate 8.11 GiB for an array"),
        ("", "error: out of memory"),
    ])
    def test_out_of_memory_is_an_input_error(self, monkeypatch, tmp_path, capsys, message, want):
        # T_6 passes a cap of 100000 but needs gigabytes; on a machine of
        # 1 TiB it passes the memory check too, and the build is stood in
        # for by one that runs out of memory at once
        def exhausted(n, max_size):
            raise MemoryError(message)

        physical_memory(monkeypatch, 1 << 40)
        monkeypatch.setattr(cli, "full_transformation", exhausted)
        out_path = tmp_path / "t6.tbl"
        code, out, err = run(["gen", "tn", 6, out_path, "--cap", 100000], capsys)
        assert (code, out) == (2, "")
        assert err == want + "\n"
        assert not out_path.exists()

    def test_tn_refused_past_physical_memory(self, monkeypatch, tmp_path, capsys):
        # T_6 (46656 elements) passes a cap of 100000, but its uint16
        # product needs 46656^2 * 2 bytes, 4152 MiB rounded up: on a machine
        # of 4 GiB it is refused before anything is built
        def build(n, max_size):
            raise AssertionError("T_6 built")

        physical_memory(monkeypatch, 4 << 30)
        monkeypatch.setattr(cli, "full_transformation", build)
        out_path = tmp_path / "t6.tbl"
        code, out, err = run(["gen", "tn", 6, out_path, "--cap", 100000], capsys)
        assert (code, out) == (2, "")
        assert err == ("error: full transformation semigroup has 46656 elements, whose product"
                       " needs 4152 MiB, more than the 4096 MiB of physical memory\n")
        assert not out_path.exists()

    def test_rect_refused_past_physical_memory(self, monkeypatch, tmp_path, capsys):
        # the 16 x 16 band's uint8 product is 64 KiB, 1 MiB rounded up; the
        # cap check of every kind of gen is followed by the memory check
        out_path = tmp_path / "band.tbl"
        physical_memory(monkeypatch, 32 << 10)
        code, out, err = run(["gen", "rect", 16, 16, out_path], capsys)
        assert (code, out) == (2, "")
        assert err == ("error: rectangular band has 256 elements, whose product"
                       " needs 1 MiB, more than the 0 MiB of physical memory\n")
        assert not out_path.exists()
        physical_memory(monkeypatch, 1 << 20)
        code, _, _ = run(["gen", "rect", 16, 16, out_path], capsys)
        assert code == 0

    @pytest.mark.parametrize("unknown", [AttributeError, ValueError, OSError])
    def test_memory_check_skipped_where_unknown(self, monkeypatch, tmp_path, capsys, unknown):
        # no os.sysconf, or no page count or page size through it
        def sysconf(name):
            raise unknown(name)

        monkeypatch.setattr(cli.os, "sysconf", sysconf)
        out_path = tmp_path / "t3.tbl"
        code, _, _ = run(["gen", "tn", 3, out_path], capsys)
        assert code == 0
        assert parse_table(out_path.read_text(encoding="utf-8")) == t_n(3)

    @pytest.mark.parametrize("argv", [["2000"], ["1000000", "--cap", "5000"]])
    def test_tn_refuses_huge_n_fast(self, tmp_path, capsys, argv):
        # n^n is neither printed in full nor built to compare it with the cap
        started = time.process_time()
        code, _, err = run(["gen", "tn", *argv[:1], tmp_path / "t.tbl", *argv[1:]], capsys)
        assert time.process_time() - started < 1
        assert code == 2
        assert err.startswith("error: ") and err.endswith(" elements, cap is 5000\n")
        assert f"has {argv[0]}^{argv[0]} elements" in err

    def test_product(self, tmp_path, capsys):
        a = tmp_path / "a.tbl"
        b = tmp_path / "b.tbl"
        run(["gen", "rect", 2, 1, a], capsys)
        run(["gen", "rect", 1, 3, b], capsys)
        out_path = tmp_path / "ab.tbl"
        code, out, _ = run(["gen", "product", a, b, out_path], capsys)
        assert code == 0
        assert "6 elements" in out

    def test_bad_matrix_file(self, tmp_path, capsys):
        mat = tmp_path / "bad.mat"
        mat.write_text("2 2\n0 0\n1 1\n", encoding="utf-8")
        code, _, err = run(["gen", "rees", mat, tmp_path / "x.tbl"], capsys)
        assert code == 2
        assert "all false" in err

    def test_matrix_refused_from_its_header(self, tmp_path, capsys):
        # the cap is compared with rows * cols + 1 before any row is read
        mat = tmp_path / "big.mat"
        mat.write_text("100 100\n0 1 x\n", encoding="utf-8")
        out_path = tmp_path / "big.tbl"
        code, out, err = run(["gen", "rees", mat, out_path], capsys)
        assert (code, out) == (2, "")
        assert err == "error: Rees matrix semigroup has 10001 elements, cap is 5000\n"
        assert not out_path.exists()
        code, _, err = run(["gen", "rees", mat, out_path, "--cap", 10001], capsys)
        assert (code, err) == (2, "error: expected 100 matrix rows, got 1\n")

    def test_product_refused_from_its_count_lines(self, tmp_path, capsys):
        # the cap is compared with |S| |T| from the two count lines, before
        # either table's rows are read
        paths = []
        for name in ("s.tbl", "t.tbl"):
            path = tmp_path / name
            path.write_text("# names: not read\n100\n0 1 x\n", encoding="utf-8")
            paths.append(path)
        out_path = tmp_path / "st.tbl"
        code, out, err = run(["gen", "product", *paths, out_path], capsys)
        assert (code, out) == (2, "")
        assert err == "error: direct product has 10000 elements, cap is 5000\n"
        assert not out_path.exists()
        code, _, err = run(["gen", "product", *paths, out_path, "--cap", 10000], capsys)
        assert (code, err) == (2, "error: expected 100 table rows, got 1\n")

    def test_product_count_lines_read_as_tables_are(self, tmp_path, capsys):
        # a byte-order mark, comments and CRLF line ends before the count
        # line are read as parse_table reads them, and a count above a
        # table's own cap is that table's error
        s = tmp_path / "s.tbl"
        s.write_bytes(b"\xef\xbb\xbf# c\r\n\r\n71\r\n0 x\r\n")
        t = tmp_path / "t.tbl"
        t.write_text("71\n", encoding="utf-8")
        code, _, err = run(["gen", "product", s, t, tmp_path / "st.tbl"], capsys)
        assert (code, err) == (2, "error: direct product has 5041 elements, cap is 5000\n")
        t.write_text("# names: a\n5001\n", encoding="utf-8")
        code, _, err = run(["gen", "product", s, t, tmp_path / "st.tbl"], capsys)
        assert (code, err) == (2, "error: table has 5001 elements, cap is 5000\n")

    @pytest.mark.parametrize("text,shape", [("2 0\n0\n0\n", "2 x 0"), ("0 2\n", "0 x 2")])
    def test_empty_matrix_header(self, tmp_path, capsys, text, shape):
        mat = tmp_path / "empty.mat"
        mat.write_text(text, encoding="utf-8")
        code, _, err = run(["gen", "rees", mat, tmp_path / "x.tbl"], capsys)
        assert code == 2
        assert f"error: structure matrix needs at least one row and one column, header says {shape}" in err
        assert "matrix rows" not in err

    def test_bad_rect_args(self, tmp_path, capsys):
        code, _, err = run(["gen", "rect", 0, 3, tmp_path / "x.tbl"], capsys)
        assert code == 2
        assert "error:" in err

    def test_rect_size_cap(self, tmp_path, capsys):
        out_path = tmp_path / "x.tbl"
        code, _, err = run(["gen", "rect", 1000, 1000, out_path], capsys)
        assert code == 2
        assert "error: rectangular band has 1000000 elements, cap is 5000" in err
        assert not out_path.exists()
        code, _, err = run(["gen", "rect", 3, 3, out_path, "--cap", 8], capsys)
        assert code == 2
        assert "9 elements, cap is 8" in err
        code, _, _ = run(["gen", "rect", 3, 3, out_path, "--cap", 9], capsys)
        assert code == 0

    def test_rees_size_cap(self, tmp_path, capsys):
        mat = tmp_path / "id71.mat"
        mat.write_text("71 71\n" + "\n".join(
            " ".join("1" if i == j else "0" for j in range(71)) for i in range(71)
        ) + "\n", encoding="utf-8")
        out_path = tmp_path / "x.tbl"
        code, _, err = run(["gen", "rees", mat, out_path], capsys)
        assert code == 2
        assert "error: Rees matrix semigroup has 5042 elements, cap is 5000" in err
        assert not out_path.exists()

    def test_matrix_file_with_a_byte_order_mark(self, tmp_path, capsys):
        mat = tmp_path / "bom.mat"
        mat.write_bytes(b"\xef\xbb\xbf3 2\n0 1\n1 0\n1 0\n")
        out_path = tmp_path / "b.tbl"
        code, _, err = run(["gen", "rees", mat, out_path], capsys)
        assert (code, err) == (0, "")
        assert parse_table(out_path.read_text(encoding="utf-8")) == band7()

    def test_non_utf8_matrix_file(self, tmp_path, capsys):
        mat = tmp_path / "bad.mat"
        mat.write_bytes(b"1 1\n\xff\n")
        code, _, err = run(["gen", "rees", mat, tmp_path / "x.tbl"], capsys)
        assert code == 2
        assert f"error: {mat}: not UTF-8 text" in err


def test_non_utf8_table_file(tmp_path, capsys):
    path = tmp_path / "bad.tbl"
    path.write_bytes(b"1\n0\xff\n")
    with pytest.raises(TableFormatError, match="not UTF-8 text"):
        cli._load(path, None)
    code, out, err = run(["analyze", path], capsys)
    assert code == 2
    assert out == ""
    assert f"error: {path}: not UTF-8 text" in err


def test_table_file_with_a_byte_order_mark(tables, tmp_path, capsys):
    path = tmp_path / "bom.tbl"
    path.write_bytes(b"\xef\xbb\xbf" + tables["band7"].read_bytes())
    assert cli._load(path, None) == band7()
    code, out, err = run(["analyze", path, "--json"], capsys)
    assert (code, err) == (0, "")
    _, want, _ = run(["analyze", tables["band7"], "--json"], capsys)
    assert out == want.replace(json.dumps(str(tables["band7"])), json.dumps(str(path)))


def test_non_utf8_offset_counts_the_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "bad.tbl"
    path.write_bytes(b"\xef\xbb\xbf1\n0\xff\n")
    code, _, err = run(["analyze", path], capsys)
    assert code == 2
    assert f"error: {path}: not UTF-8 text (invalid start byte at byte 6)" in err
