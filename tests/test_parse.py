"""parse_table's numpy reader against the per-row int() loop it falls back to.

Rows are read with np.fromstring; a table with any row that reader rejects
or might read differently goes, whole, through the loop.  Both routes must
accept the same tables with the same entries, and for a rejected table
raise the same exception class with the same message.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semigroup_match import (
    EntryRangeError,
    SemigroupError,
    TableFormatError,
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

# ASCII digits and whitespace only, values in [0, 3): np.fromstring reads these
FAST_ROWS = {"tabs", "vertical_tab", "leading_zeros"}

SEPARATORS = [" ", "  ", "\t", "\v", "\x1c", "\x1f", "\xa0", "　"]
TOKENS = st.one_of(
    # a lone sign next to a digit is one value to np.fromstring, two tokens to str.split
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
    """_outcome with every row read by the int() loop."""
    with mock.patch.object(table_mod, "_rows_by_numpy", lambda body, n: None):
        return _outcome(text)


def _c3_with_row_1(row: str) -> str:
    return f"3\n0 1 2\n{row}\n2 0 1\n"


@pytest.mark.parametrize("name,table", full_corpus(), ids=[name for name, _ in full_corpus()])
def test_fast_path_reads_every_rendered_table(name, table):
    text = render_table(table)
    body = [line for line in text.splitlines() if not line.startswith("#")][1:]
    fast = table_mod._rows_by_numpy(body, table.n)
    assert fast is not None
    assert fast.tolist() == table_mod._rows_by_loop(body, table.n)
    assert parse_table(text) == table


@pytest.mark.parametrize("name,row", BAD_ROWS.items(), ids=BAD_ROWS.keys())
def test_malformed_rows_take_the_loop(name, row):
    text = _c3_with_row_1(row)
    assert _outcome(text) == _loop_outcome(text)
    fast = table_mod._rows_by_numpy(["0 1 2", row, "2 0 1"], 3)
    assert (fast is not None) == (name in FAST_ROWS)


def test_pinned_outcomes():
    # the messages the loop words, unchanged by the numpy reader
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
    # str.split and int() take these, np.fromstring does not
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
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "insert" or at == len(toks):
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
