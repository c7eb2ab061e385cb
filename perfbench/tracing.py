"""Layer spans recorded from outside the package.

The package's public functions are wrapped at every module binding (a name
imported with `from .x import y` lives in several namespaces) and
MulTable.__init__ on the class.  Each call records a span: name, start, end,
parent span and request id.  `uninstall` puts the original objects back.
"""

from __future__ import annotations

import functools
import sys
import time

SPANS = (
    ("cli", "main"),
    ("table", "parse_table"),
    ("table", "MulTable"),
    ("table", "rees_matrix"),
    ("green", "green_classes"),
    ("structure", "classify"),
    ("structure", "inverse_sets"),
    ("structure", "gamma_structure"),
    ("structure", "orthodoxy_witness"),
    ("factors", "principal_factors"),
    ("factors", "h_quotient_band"),
    ("factors", "maximal_rect_subbands"),
    ("factors", "similarity_check"),
    ("matching", "find_permutation_matching"),
    ("matching", "decide_orthodox_matching"),
    ("matching", "orthodox_involution"),
    ("matching", "lift_band_matching"),
    ("matching", "find_involution_matching"),
    ("matching", "verify_matching"),
)
SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, attr in SPANS)

NAME, START, END, PARENT, REQUEST, SIZE = range(6)
PACKAGE = "semigroup_match"


class Tracer:
    """Span recorder; times are CPU seconds of the calling thread."""

    def __init__(self):
        self.spans = []
        self.request = -1
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn, size_of=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, time.thread_time(), 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.thread_time()
                stack.pop()
            if size_of is not None:
                rec[SIZE] = size_of(args, result)
            return result

        return wrapper

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for mod, attr in SPANS:
            home = sys.modules[f"{PACKAGE}.{mod}"]
            original = getattr(home, attr)
            name = f"{mod}.{attr}"
            if isinstance(original, type):
                init = original.__init__
                wrapper = self._wrap(name, init, size_of=lambda args, _: args[0].n)
                self._patched.append((original, "__init__", init))
                original.__init__ = wrapper
                continue
            size_of = (lambda _, result: len(result)) if name == "factors.principal_factors" else None
            wrapper = self._wrap(name, original, size_of)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append((rec[START], rec[END]))
    out = []
    for rec, kids in zip(spans, children):
        covered, reach = 0.0, rec[START]
        for start, end in sorted(kids):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out.append(rec[END] - rec[START] - covered)
    return out


def layer_metrics(spans, requests: int) -> dict:
    """Per-request calls and self time of every span, and the table counters."""
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    for rec, own in zip(spans, self_times(spans)):
        calls[rec[NAME]] += 1
        self_s[rec[NAME]] += own
    # a table parsed from the input is useful work; every other one is derived
    in_parse = set()
    for i, rec in enumerate(spans):
        if rec[NAME] == "table.parse_table" or rec[PARENT] in in_parse:
            in_parse.add(i)
    cells = derived = 0
    for i, rec in enumerate(spans):
        if rec[NAME] == "table.MulTable":
            c = (rec[SIZE] or 0) ** 3
            cells += c
            if i not in in_parse:
                derived += c
    d_classes = sum(rec[SIZE] or 0 for rec in spans if rec[NAME] == "factors.principal_factors")
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (calls[name] / requests, "calls/req")
        out[f"{name}.self_s"] = (self_s[name] / requests, "s/req")
    out["table.assoc_cells"] = (cells / requests, "cells/req")
    out["table.tables_per_request"] = (calls["table.MulTable"] / requests, "tables/req")
    out["table.derived_cells_share"] = (derived / cells if cells else 0.0, "ratio")
    out["factors.d_classes"] = (d_classes / requests, "classes/req")
    return out
