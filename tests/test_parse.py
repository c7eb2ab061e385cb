"""parse_table's byte pass against the per-row int() loop it falls back to.

Table files are read by a byte pass over blocks of whole lines; a file with
any text that pass rejects or might read differently goes, whole, through
str.splitlines and the loop.  Both routes must accept the same tables with
the same names and entries, and for a rejected table raise the same
exception class with the same message.  The byte pass is also run with
blocks of 1, 7 and 64 characters, so that a table spans many blocks.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semigroup_match import (
    DEFAULT_SIZE_CAP,
    EntryRangeError,
    SemigroupError,
    TableFormatError,
    full_transformation,
    parse_table,
    render_table,
)
from semigroup_match import table as table_mod

from corpus import cyclic, full_corpus, small_corpus

# C_3 is 3 / 0 1 2 / 1 2 0 / 2 0 1; each case edits its row 1
BAD_ROWS = {
    "plus_inside": "1+2 2 0",
    "minus_inside": "1-2 2 0",
    "hex": "0x1 2 0",
    "float": "1.0 2 0",
    "exponent": "1e2 2 0",
    "underscore": "1_0 2 0",
    "full_width_digit": "１ 2 0",
    "arabic_indic_digit": "١ 2 0",
    "file_separator_token": "1 \x1c 2 0",
    "file_separator_between": "1\x1c2 0",
    "unit_separator_between": "1\x1f2 0",
    "no_break_space_between": "1\xa02 0",
    "leading_plus": "+1 2 0",
    "minus_zero": "-0 2 0",
    "plus_apart_from_digits": "1 + 2 0",
    "minus_apart_from_digits": "1 - 2 0",
    "lone_minus": "1 2 -",
    "huge": "99999999999999999999 2 0",
    "minus_huge": "-99999999999999999999 2 0",
    "intp_max_plus_one": "9223372036854775808 2 0",
    "minus_one": "-1 2 0",
    "equal_to_n": "3 2 0",
    "letter": "n 2 0",
    "inline_comment": "1 2 0 # tail",
    "glued_comment": "1 2 0#",
    "short": "1 2",
    "long": "1 2 0 0",
    "comma": "1,2,0",
    "tabs": "1\t2\t0",
    "vertical_tab": "1\v2\f0",
    "leading_zeros": "01 002 0",
}

# ASCII digits, spaces and tabs only, values in [0, 3): the byte pass reads these
FAST_ROWS = {"tabs", "leading_zeros"}

# the byte pass's default block budget, then budgets that split a table
# into many blocks
BUDGETS = [table_mod._BLOCK_BYTES, 1, 7, 64]
SMALL_BUDGETS = BUDGETS[1:]

SEPARATORS = [" ", "  ", "\t", "\v", "\x1c", "\x1f", "\xa0", "　"]
TOKENS = st.one_of(
    # signs, separators and digits that str.split and int() may take but the
    # byte pass leaves to the loop
    st.sampled_from(["+", "-", "#", "\x1f", "１", "99999999999999999999"]),
    st.sampled_from([tok for row in BAD_ROWS.values() for tok in row.split(" ")]),
    st.text(st.sampled_from("0123456789+-_.xe#n１١\x1c\x1f\xa0\t "), min_size=1, max_size=4),
    st.integers(-3, 12).map(str),
)


def _outcome(text: str):
    try:
        table = parse_table(text)
    except SemigroupError as exc:
        return type(exc), str(exc)
    return table.names, table.product.tolist()


def _loop_outcome(text: str):
    """_outcome with every file read by str.splitlines and the int() loop."""
    with mock.patch.object(table_mod, "_read_by_bytes", lambda text, max_size: None):
        return _outcome(text)


def _budget(budget: int):
    return mock.patch.object(table_mod, "_BLOCK_BYTES", budget)


def _c3_with_row_1(row: str) -> str:
    return f"3\n0 1 2\n{row}\n2 0 1\n"


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("name,table", full_corpus(), ids=[name for name, _ in full_corpus()])
def test_fast_path_reads_every_rendered_table(name, table, budget):
    text = render_table(table)
    with _budget(budget):
        fast = table_mod._read_by_bytes(text, DEFAULT_SIZE_CAP)
        assert fast is not None
        names, rows = fast
        assert (names and tuple(names), rows.tolist()) == _loop_outcome(text)
        assert parse_table(text) == table


@pytest.mark.parametrize("name,row", BAD_ROWS.items(), ids=BAD_ROWS.keys())
def test_malformed_rows_take_the_loop(name, row):
    text = _c3_with_row_1(row)
    assert _outcome(text) == _loop_outcome(text)
    fast = table_mod._read_by_bytes(text, DEFAULT_SIZE_CAP)
    assert (fast is not None) == (name in FAST_ROWS)


def _variants(table) -> dict:
    """Rendered table in CRLF, tab-separated, commented, zero-padded and unterminated forms."""
    text = render_table(table)
    lines = text.splitlines()
    start = len(lines) - table.n
    commented = lines[:start] + ["# a comment", ""]
    for i, line in enumerate(lines[start:]):
        commented += [line, f"  # row {i}", "\t"] if i % 3 == 0 else [line]
    padded = lines[:start] + [" ".join(tok.zfill(4) for tok in line.split(" "))
                              for line in lines[start:]]
    return {
        "crlf": text.replace("\n", "\r\n"),
        "tabs": text.replace(" ", "\t"),
        "commented": "\n".join(commented) + "\n",
        "padded": "\n".join(padded) + "\n",
        "unterminated": text[:-1],
    }


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("name,table", small_corpus() + [("t3", full_transformation(3))],
                         ids=[name for name, _ in small_corpus()] + ["t3"])
def test_variants_never_reach_the_loop(name, table, budget):
    with _budget(budget), mock.patch.object(
            table_mod, "_rows_by_loop", wraps=table_mod._rows_by_loop) as loop:
        for variant, text in _variants(table).items():
            assert parse_table(text) == table, variant
    assert loop.call_count == 0


def test_pinned_outcomes():
    # the messages the loop words, unchanged by the byte pass
    assert _outcome(_c3_with_row_1(BAD_ROWS["float"])) == (
        TableFormatError, "row 1: non-integer entry")
    assert _outcome(_c3_with_row_1(BAD_ROWS["inline_comment"])) == (
        TableFormatError, "row 1: expected 3 entries, got 5")
    assert _outcome(_c3_with_row_1(BAD_ROWS["plus_apart_from_digits"])) == (
        TableFormatError, "row 1: expected 3 entries, got 4")
    assert _outcome(_c3_with_row_1(BAD_ROWS["lone_minus"])) == (
        TableFormatError, "row 1: non-integer entry")
    assert _outcome(_c3_with_row_1(BAD_ROWS["minus_one"])) == (
        EntryRangeError, "entry product[1][0] = -1 outside [0, 3)")
    assert _outcome(_c3_with_row_1(BAD_ROWS["equal_to_n"])) == (
        EntryRangeError, "entry product[1][0] = 3 outside [0, 3)")
    assert _outcome(_c3_with_row_1(BAD_ROWS["huge"])) == (
        EntryRangeError, "entry product[1][0] = 99999999999999999999 outside [0, 3)")
    assert _outcome(_c3_with_row_1(BAD_ROWS["minus_huge"])) == (
        EntryRangeError, "entry product[1][0] = -99999999999999999999 outside [0, 3)")
    # str.splitlines ends a line at \x1c, so this row is two rows
    assert _outcome(_c3_with_row_1(BAD_ROWS["file_separator_between"])) == (
        TableFormatError, "expected 3 table rows, got 4")
    # and so is this comment: its tail is a data line before the count
    assert _outcome("# x\x1c3\n3\n0 1 2\n1 2 0\n2 0 1\n") == (
        TableFormatError, "expected 3 table rows, got 4")
    # one entry moved between rows: every row is counted, not only the total
    assert _outcome("3\n0 1 2\n1 2\n0 2 0 1\n") == (
        TableFormatError, "row 1: expected 3 entries, got 2")
    # str.split and int() take these, the byte pass does not
    c3 = cyclic(3).product.tolist()
    for name in ("full_width_digit", "leading_plus", "unit_separator_between", "leading_zeros"):
        assert _outcome(_c3_with_row_1(BAD_ROWS[name])) == (None, c3), name


@st.composite
def mangled_tables(draw):
    _, table = draw(st.sampled_from(small_corpus()))
    lines = render_table(table).splitlines()
    start = len(lines) - table.n
    rows = [line.split(" ") for line in lines[start:]]
    for _ in range(draw(st.integers(0, 3))):
        toks = rows[draw(st.integers(0, table.n - 1))]
        at = draw(st.integers(0, len(toks)))
        edit = draw(st.sampled_from(["replace", "insert", "delete", "move"]))
        if edit == "move" and at < len(toks):
            # the entry count stays, so only a per-row count can tell
            rows[draw(st.integers(0, table.n - 1))].append(toks.pop(at))
        elif edit == "insert" or at == len(toks):
            toks.insert(at, draw(TOKENS))
        elif edit == "replace":
            toks[at] = draw(TOKENS)
        else:
            del toks[at]
    rows = [draw(st.sampled_from(SEPARATORS)).join(toks) for toks in rows]
    return "\n".join(lines[:start] + rows) + "\n"


@settings(max_examples=300)
@given(mangled_tables())
def test_random_tokens_get_the_loop_outcome(text):
    assert _outcome(text) == _loop_outcome(text)


@settings(max_examples=300)
@given(mangled_tables(), st.sampled_from(SMALL_BUDGETS))
def test_random_tokens_in_small_blocks_get_the_loop_outcome(text, budget):
    with _budget(budget):
        assert _outcome(text) == _loop_outcome(text)


LINE_ENDS = ["\n", "\r\n", "\r"]
# the other line breaks of str.splitlines; \v and \x1c are among the SEPARATORS
LINE_BREAKS = ["\f", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@st.composite
def restructured_tables(draw):
    """A rendered table with comment and blank lines, mixed line ends, a late '# names:'.

    Comment and blank lines hold the SEPARATORS and the other characters
    str.splitlines breaks lines at.
    """
    _, table = draw(st.sampled_from(small_corpus()))
    lines = render_table(table).splitlines()
    for _ in range(draw(st.integers(0, 4))):
        sep = draw(st.sampled_from(SEPARATORS + LINE_BREAKS))
        extra = draw(st.sampled_from([
            "", sep, "#" + sep + "note", sep + "# x" + sep + "1",
            "# names:" + sep + sep.join(f"e{i}" for i in range(table.n)),
        ]))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    if draw(st.booleans()):
        lines.append("# names: " + " ".join(f"z{i}" for i in range(table.n)))
    ends = [draw(st.sampled_from(LINE_ENDS)) if draw(st.integers(0, 4)) == 0 else "\n"
            for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""               # no line end after the last line
    return "".join(line + end for line, end in zip(lines, ends))


@settings(max_examples=300)
@given(restructured_tables(), st.sampled_from(BUDGETS))
def test_restructured_tables_get_the_loop_outcome(text, budget):
    with _budget(budget):
        assert _outcome(text) == _loop_outcome(text)
