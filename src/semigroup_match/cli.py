"""Command-line front end: analyze tables, decide matchings, render factors.

Four subcommands: analyze (classification, Green summary, per-D-class block
report, matching verdict), matching (find/count permutation or involution
matchings), factors (egg-box grids with subband blocks on the diagonal) and
gen (write generated tables).  All commands take --json for a byte-stable
machine-readable report and --cap N to raise the per-operation size guards.
--budget MS is still accepted but no route is time-limited any more.

Exit codes: 0 found/ok, 1 definitively absent, 2 input or usage error
(a table too large for memory among them).
Every answer is definitive; an involution "no" carries a Tutte barrier.
gen refuses a table above the size cap (--cap N, else 5000) before building
it: gen tn from n, gen rees from the matrix header, gen product from the
two tables' element-count lines.  It refuses as early a table whose product
would not fit in the machine's physical memory, where the platform tells it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time
from itertools import accumulate
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .errors import CapExceededError, NotOrthodoxError, SemigroupError, TableFormatError
from .factors import h_quotient_band, maximal_rect_subbands, principal_factor
from .green import green_arrays
from .matching import (
    DEFAULT_BRUTE_CAP,
    METHODS,
    HallCertificate,
    Matching,
    MatchingCount,
    TutteBarrier,
    count_permutation_matchings,
    decide,
)
from .structure import classify, idempotents
from .table import (
    DEFAULT_SIZE_CAP,
    BoolStructureMatrix,
    MulTable,
    _read_prelude,
    _storage_dtype,
    _transformation_count,
    direct_product,
    full_transformation,
    parse_table,
    rectangular_band,
    rees_matrix,
    render_table,
)


def _dumps(obj, pad: str = "") -> str:
    """json.dumps(obj, indent=2) for a report nested pad deep: dicts with str
    keys, lists, str, int, bool and None; any other value, such as a float,
    goes to json.dumps whole, which also raises its TypeError.

    json.dumps falls back to its pure-Python encoder whenever indent is set,
    which yields every item and separator on its own; here each list or
    dict is one join of its encoded items, and a list of plain ints (a
    matching's map) one join of their str.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = sep.join(f"{encode_basestring_ascii(k)}: {_dumps(v, inner)}" for k, v in obj.items())
        return "{\n" + inner + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) == {int}:
            items = sep.join(map(str, obj))
        else:
            items = sep.join(_dumps(v, inner) for v in obj)
        return "[\n" + inner + items + "\n" + pad + "]"
    return json.dumps(obj)


def _read_text(path) -> str:
    """The file's text without a leading byte-order mark; bytes that are not
    UTF-8 are an input error, reported at their offset in the file."""
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise TableFormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _table_cap(cap) -> int:
    """The element cap of a table file read with --cap cap (None when not given)."""
    return DEFAULT_SIZE_CAP if cap is None else max(cap, DEFAULT_SIZE_CAP)


def _load(path, cap) -> MulTable:
    return parse_table(_read_text(path), max_size=_table_cap(cap))


def _element_count_of(path, cap):
    """A table file's element count, read only up to its count line, or None
    when only the whole file tells: a line of that prelude with a break
    inside, or bytes that are not UTF-8 (_load reports those).  The prelude's
    errors, a count above the cap among them, are _load's."""
    try:
        # utf-8-sig drops a leading byte-order mark, as _read_text does
        with open(path, encoding="utf-8-sig") as lines:
            prelude = _read_prelude(lines, _table_cap(cap))
    except UnicodeDecodeError:
        return None
    return None if prelude is None else prelude[1]


def render_matching(table: MulTable, m: Matching) -> str:
    lines = [f"kind: {m.kind}", f"provenance: {m.provenance}"]
    for a in range(table.n):
        lines.append(f"{table.element_name(a)} -> {table.element_name(m.f[a])}")
    return "\n".join(lines)


def _count_noun(k: int, noun: str) -> str:
    """k with the noun, plural unless k is 1: "1 D-class", "3 D-classes"."""
    if k == 1:
        return f"1 {noun}"
    return f"{k} {noun}{'es' if noun.endswith('s') else 's'}"


def render_certificate(table: MulTable, cert: HallCertificate) -> str:
    a_names = " ".join(table.element_name(a) for a in cert.violating_set)
    b_names = " ".join(table.element_name(b) for b in cert.image)
    return (
        "no permutation matching: Hall's condition fails\n"
        f"A ({_count_noun(len(cert.violating_set), 'element')}): {a_names}\n"
        f"V(A) ({_count_noun(len(cert.image), 'element')}): {b_names if cert.image else '(empty)'}"
    )


def _matching_json(m: Matching) -> dict:
    """A matching as its route returned it, already through verify_matching."""
    return {"kind": m.kind, "provenance": m.provenance, "map": list(m.f)}


def _certificate_json(cert: HallCertificate) -> dict:
    return {"violating_set": list(cert.violating_set), "image": list(cert.image)}


def _render_egg_box(band, dec) -> list:
    """Text grid of one band: H-class sizes, '*' on idempotent cells.

    Every H-class of a D-class has the same size (Green's lemma), so every
    cell shows the same number.  With a decomposition the rows and columns
    are reordered so each subband occupies a diagonal block, and block
    boundaries are drawn.
    """
    size = band.cells.shape[1]
    if dec is None:
        r_ord, l_ord, groups = range(band.m), range(band.n), [(band.m, band.n)]
    else:
        r_ord, l_ord, groups = dec.r_order.tolist(), dec.l_order.tolist(), dec.block_sizes()
    row_groups, col_groups = zip(*groups)
    cells = [
        [f"{size}{'*' if band.p[lam, i] else ''}" for lam in l_ord]
        for i in r_ord
    ]
    width = max(len(c) for row in cells for c in row)
    row_breaks = set(accumulate(row_groups[:-1]))
    col_breaks = set(accumulate(col_groups[:-1]))
    lines = []
    for ri, row in enumerate(cells):
        if ri in row_breaks:
            sep = []
            for ci in range(len(l_ord)):
                if ci in col_breaks:
                    sep.append("+")
                sep.append("-" * width)
            lines.append("-".join(sep))
        out = []
        for ci, tok in enumerate(row):
            if ci in col_breaks:
                out.append("|")
            out.append(tok.ljust(width))
        lines.append(" ".join(out).rstrip())
    return lines


def _d_class_reports(table: MulTable, with_grid: bool = False) -> list:
    g = green_arrays(table)
    sizes = (g.d_start[1:] - g.d_start[:-1]).tolist()
    regular = set(g.d_class[list(idempotents(table))].tolist())   # D-classes holding an idempotent
    reports = []
    for d in range(g.d_count):
        entry = {
            "d_class": d,
            "size": sizes[d],
            "regular": d in regular,
            "band": None,
            "subbands": None,
            "similar": None,
            "note": None,
        }
        grid = None
        if entry["regular"]:
            band = h_quotient_band(principal_factor(table, d))
            entry["band"] = [band.m, band.n]
            try:
                dec = maximal_rect_subbands(band)
            except NotOrthodoxError as exc:
                e, f = exc.witness
                entry["note"] = (
                    f"subbands unavailable: idempotent cells {e} and {f} "
                    "have a non-idempotent product"
                )
                if with_grid:
                    grid = _render_egg_box(band, None)
            else:
                entry["subbands"] = [list(shape) for shape in dec.block_sizes()]
                entry["similar"] = not dec.surplus().any()
                if with_grid:
                    grid = _render_egg_box(band, dec)
        else:
            entry["note"] = "no idempotent: not a regular D-class"
        if with_grid:
            entry["grid"] = grid
        reports.append(entry)
    return reports


def _matching_verdict(table: MulTable) -> dict:
    res = decide(table)
    if isinstance(res, Matching):
        status = "involution_found" if res.is_involution_map() else "not_searched"
        return {
            "exists": True,
            "matching": _matching_json(res),
            "certificate": None,
            "involution_status": status,
        }
    return {
        "exists": False,
        "matching": None,
        "certificate": _certificate_json(res),
        "involution_status": "none_exists",
    }


def cmd_analyze(args) -> int:
    started = time.perf_counter()
    table = _load(args.file, args.cap)
    flags = classify(table)
    g = green_arrays(table)
    report = {
        "command": "analyze",
        "input": str(args.file),
        "elements": table.n,
        "names": list(table.names) if table.names is not None else None,
        "classification": dataclasses.asdict(flags),
        "green_summary": {
            "r_classes": g.r_count,
            "l_classes": g.l_count,
            "h_classes": g.h_count,
            "d_classes": g.d_count,
        },
        "d_class_reports": _d_class_reports(table),
        "matching_verdict": _matching_verdict(table),
    }
    elapsed = time.perf_counter() - started
    if args.json:
        print(_dumps(report))
        return 0
    true_flags = [k for k, val in report["classification"].items() if val]
    print(f"input: {args.file} ({_count_noun(table.n, 'element')})")
    print("classification: " + (", ".join(true_flags) if true_flags else "(no flags)"))
    gs = report["green_summary"]
    print("green: " + ", ".join(
        _count_noun(gs[f"{x.lower()}_classes"], f"{x}-class") for x in "RLHD"
    ))
    for entry in report["d_class_reports"]:
        bits = [f"D-class {entry['d_class']}: {_count_noun(entry['size'], 'element')}"]
        bits.append("regular" if entry["regular"] else "not regular")
        if entry["band"] is not None:
            bits.append(f"band {entry['band'][0]}x{entry['band'][1]}")
        if entry["subbands"] is not None:
            bits.append("blocks " + " + ".join(f"{m}x{n}" for m, n in entry["subbands"]))
            bits.append(f"similar: {'yes' if entry['similar'] else 'no'}")
        if entry["note"]:
            bits.append(entry["note"])
        print(", ".join(bits))
    verdict = report["matching_verdict"]
    if verdict["exists"]:
        m = verdict["matching"]
        print(f"matching: exists ({m['kind']}, {m['provenance']})")
    else:
        print("matching: none exists")
        cert = verdict["certificate"]
        a_names = " ".join(table.element_name(a) for a in cert["violating_set"])
        b_names = " ".join(table.element_name(b) for b in cert["image"])
        print(f"certificate: A = {{{a_names}}}  V(A) = {{{b_names}}}")
    print(f"involution: {verdict['involution_status']}")
    print(f"time: {elapsed:.3f} s")
    return 0


def render_barrier(table: MulTable, barrier: TutteBarrier) -> str:
    x_names = " ".join(table.element_name(a) for a in barrier.elements)
    comps = " ".join(
        "{" + " ".join(table.element_name(a) for a in comp) + "}"
        for comp in barrier.odd_components
    )
    return (
        "no involution matching: Tutte barrier\n"
        f"X ({_count_noun(len(barrier.elements), 'element')}): {x_names if x_names else '(empty)'}\n"
        f"odd components without a in V(a) ({len(barrier.odd_components)}): {comps}\n"
        f"search: {barrier.nodes} nodes"
    )


def _render_count(_table: MulTable, count: MatchingCount) -> str:
    return f"count = {count.count}" if count.exact else f"count >= {count.count}"


def _emit_matching_result(args, table, base, res) -> int:
    """Print decide's answer or a count and return the exit code, 0 for a
    matching or a nonzero count and 1 otherwise.

    The answer's type is read once; the JSON report keeps null in the slots
    the other types fill.
    """
    report = {**base, "matching": None, "certificate": None, "search": None}
    if base["mode"] == "involution":
        report["barrier"] = None
    if isinstance(res, MatchingCount):
        report.update(count=res.count, exact=res.exact)
        render, code = _render_count, 0 if res.count > 0 else 1
    elif isinstance(res, Matching):
        report["matching"] = _matching_json(res)
        render, code = render_matching, 0
    elif isinstance(res, HallCertificate):
        report["certificate"] = _certificate_json(res)
        render, code = render_certificate, 1
    else:
        # an involution "no" keeps certificate null: the barrier is not a
        # Hall certificate, and search.complete marks the answer definitive
        report["search"] = {"complete": True, "nodes": res.nodes}
        report["barrier"] = {
            "elements": list(res.elements),
            "odd_components": [list(c) for c in res.odd_components],
        }
        render, code = render_barrier, 1
    print(_dumps(report) if args.json else render(table, res))
    return code


def cmd_matching(args) -> int:
    # usage errors first, so no table is read for them
    if args.count is not None and args.count < 1:
        print("error: --count needs a positive limit", file=sys.stderr)
        return 2
    if args.count is None and args.involution and args.method in ("hall", "brute"):
        print(f"error: --involution cannot use method {args.method}", file=sys.stderr)
        return 2
    table = _load(args.file, args.cap)
    cap = args.cap
    base = {
        "command": "matching",
        "input": str(args.file),
        "mode": "count" if args.count is not None else
                ("involution" if args.involution else "permutation"),
        "method": args.method,
    }

    if args.count is not None:
        res = count_permutation_matchings(
            table, limit=args.count, max_size=cap if cap is not None else DEFAULT_BRUTE_CAP
        )
        return _emit_matching_result(args, table, base, res)

    res = decide(table, method=args.method, involution=args.involution, cap=cap)
    return _emit_matching_result(args, table, base, res)


def cmd_factors(args) -> int:
    table = _load(args.file, args.cap)
    reports = _d_class_reports(table, with_grid=True)
    if args.json:
        print(_dumps({
            "command": "factors",
            "input": str(args.file),
            "elements": table.n,
            "d_classes": reports,
        }))
        return 0
    counts = f"{_count_noun(table.n, 'element')}, {_count_noun(len(reports), 'D-class')}"
    print(f"input: {args.file} ({counts})")
    for entry in reports:
        print()
        head = f"D-class {entry['d_class']}: {_count_noun(entry['size'], 'element')}"
        if entry["band"] is not None:
            head += f", band {entry['band'][0]}x{entry['band'][1]}"
        print(head)
        if entry["grid"] is not None:
            for line in entry["grid"]:
                print("  " + line)
        if entry["subbands"] is not None:
            print("  blocks: " + ", ".join(f"{m}x{n}" for m, n in entry["subbands"]))
            print(f"  similar: {'yes' if entry['similar'] else 'no'}")
        if entry["note"]:
            print("  " + entry["note"])
    return 0


def _parse_structure_matrix(text: str, cap: int) -> BoolStructureMatrix:
    """The matrix of a `gen rees` file, refused from its header alone when
    its Rees semigroup has more than cap elements."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]
    if not lines:
        raise TableFormatError("empty structure matrix file")
    head = lines[0].split()
    if len(head) != 2:
        raise TableFormatError("structure matrix file must start with 'rows cols'")
    try:
        rows, cols = int(head[0]), int(head[1])
    except ValueError:
        raise TableFormatError("structure matrix header is not two integers") from None
    if rows < 1 or cols < 1:
        raise TableFormatError(
            f"structure matrix needs at least one row and one column, header says {rows} x {cols}")
    _check_gen_size("Rees matrix semigroup", rows * cols + 1, cap)
    if len(lines) - 1 != rows:
        raise TableFormatError(f"expected {rows} matrix rows, got {len(lines) - 1}")
    entries = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != cols or any(t not in ("0", "1") for t in toks):
            raise TableFormatError(f"matrix row must be {cols} entries of 0/1: {ln!r}")
        entries.append([t == "1" for t in toks])
    return BoolStructureMatrix(entries)


def _check_gen_size(what: str, size: int, cap: int) -> None:
    """Refuse to build a table of more than cap elements, or one that
    _check_memory refuses."""
    if size > cap:
        raise CapExceededError(f"{what} has {size} elements, cap is {cap}")
    _check_memory(what, size)


def _physical_memory():
    """The machine's physical memory in bytes, or None where the platform
    does not tell."""
    try:
        pages, page_size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return pages * page_size if pages > 0 and page_size > 0 else None


def _check_memory(what: str, size: int) -> None:
    """Refuse to build a table whose product, size^2 entries in the storage
    dtype, needs more bytes than the machine's physical memory."""
    memory = _physical_memory()
    need = size * size * _storage_dtype(size).itemsize
    if memory is not None and need > memory:
        raise CapExceededError(
            f"{what} has {size} elements, whose product needs {-(-need >> 20)} MiB,"
            f" more than the {memory >> 20} MiB of physical memory")


def cmd_gen(args) -> int:
    cap = DEFAULT_SIZE_CAP if args.cap is None else args.cap
    if args.kind == "rect":
        if args.m >= 1 and args.n >= 1:
            _check_gen_size("rectangular band", args.m * args.n, cap)
        table = rectangular_band(args.m, args.n)
    elif args.kind == "rees":
        table = rees_matrix(_parse_structure_matrix(_read_text(args.matrixfile), cap))
    elif args.kind == "tn":
        _check_memory("full transformation semigroup", _transformation_count(args.n, cap))
        table = full_transformation(args.n, max_size=cap)
    else:
        counts = [_element_count_of(path, args.cap) for path in (args.f1, args.f2)]
        if None not in counts:
            _check_gen_size("direct product", counts[0] * counts[1], cap)
        table = direct_product(_load(args.f1, args.cap), _load(args.f2, args.cap), max_size=cap)
    Path(args.out).write_text(render_table(table), encoding="utf-8")
    if args.json:
        print(_dumps({
            "command": "gen",
            "kind": args.kind,
            "out": str(args.out),
            "elements": table.n,
        }))
    else:
        print(f"wrote {args.out}: {_count_noun(table.n, 'element')}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a machine-readable report")
    common.add_argument("--budget", type=float, metavar="MS", default=None,
                        help="accepted for compatibility; no route is time-limited any more")
    common.add_argument("--cap", type=int, metavar="N", default=None,
                        help="override per-operation size guards")
    parser = argparse.ArgumentParser(
        prog="semigroup-match",
        description="Analyze finite semigroups and their matchings onto inverses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", parents=[common],
                        help="classification, Green structure, matching verdict")
    pa.add_argument("file", help="multiplication table file")

    pm = sub.add_parser("matching", parents=[common],
                        help="find or count matchings onto inverses")
    pm.add_argument("file", help="multiplication table file")
    mode = pm.add_mutually_exclusive_group()
    mode.add_argument("--involution", action="store_true",
                      help="require f(f(a)) = a")
    mode.add_argument("--count", type=int, metavar="LIMIT", default=None,
                      help="count matchings, stopping at LIMIT")
    pm.add_argument("--method", choices=list(METHODS),
                    default="auto", help="decision procedure (default: auto)")

    pf = sub.add_parser("factors", parents=[common],
                        help="egg-box grids and subband blocks per D-class")
    pf.add_argument("file", help="multiplication table file")

    pg = sub.add_parser("gen", help="generate a table file")
    gsub = pg.add_subparsers(dest="kind", required=True)
    g_rect = gsub.add_parser("rect", parents=[common], help="rectangular band")
    g_rect.add_argument("m", type=int)
    g_rect.add_argument("n", type=int)
    g_rect.add_argument("out")
    g_rees = gsub.add_parser("rees", parents=[common],
                             help="combinatorial semigroup over a 0/1 structure matrix")
    g_rees.add_argument("matrixfile", help="first line 'rows cols', then rows of 0/1")
    g_rees.add_argument("out")
    g_tn = gsub.add_parser("tn", parents=[common], help="full transformation semigroup")
    g_tn.add_argument("n", type=int)
    g_tn.add_argument("out")
    g_prod = gsub.add_parser("product", parents=[common], help="direct product of two tables")
    g_prod.add_argument("f1")
    g_prod.add_argument("f2")
    g_prod.add_argument("out")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built on the first main call of the process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "matching":
            return cmd_matching(args)
        if args.command == "factors":
            return cmd_factors(args)
        return cmd_gen(args)
    except (SemigroupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy's MemoryError names the allocation that failed; a bare one names nothing
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
