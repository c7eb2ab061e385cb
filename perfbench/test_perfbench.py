"""Tests of the benchmark itself: seeded inputs, the output checker, tracing."""

from __future__ import annotations

import contextlib
import io
import json
import sys

import numpy as np
import pytest

from checker import Truth, check_output
from tracing import SPAN_NAMES, Tracer, layer_metrics, self_times
from workloads import WORKLOADS, block_diagonal, chosen_variants, render, rees_zero, write_inputs

from semigroup_match import cli


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*.tbl"))}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_input_files(tmp_path, name):
    first = write_inputs(WORKLOADS[name], 7, root=tmp_path / "a")
    second = write_inputs(WORKLOADS[name], 7, root=tmp_path / "b")
    assert [r[2:] for r in first] == [r[2:] for r in second]
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    assert a and a == b


def test_seed_picks_variants():
    w = WORKLOADS["orthodox-structural"]
    assert chosen_variants(w, 1) == chosen_variants(w, 1)
    assert chosen_variants(w, 1) != chosen_variants(w, 2)


def _run(tmp_path, table, argv_tail):
    path = tmp_path / "s.tbl"
    path.write_text(render(table), encoding="utf-8")
    argv = [argv_tail[0], str(path), *argv_tail[1:]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return Truth(table), argv, code, json.loads(out.getvalue())


def test_checker_rejects_a_swapped_matching_image(tmp_path):
    # Brandt semigroup: every element has exactly one inverse
    truth, argv, code, report = _run(tmp_path, rees_zero(np.eye(3, dtype=bool)),
                                     ["matching", "--json"])
    assert code == 0
    assert check_output(truth, argv, code, json.dumps(report)) == "ok"
    f = report["matching"]["map"]
    f[0], f[1] = f[1], f[0]
    assert check_output(truth, argv, code, json.dumps(report)) != "ok"


def test_checker_rejects_a_corrupted_certificate(tmp_path):
    # blocks 1x2 and 2x1 are not proportional: no matching, Hall certificate
    table = rees_zero(block_diagonal([(1, 2), (2, 1)]))
    truth, argv, code, report = _run(tmp_path, table, ["matching", "--method", "hall", "--json"])
    assert code == 1
    assert check_output(truth, argv, code, json.dumps(report)) == "ok"
    cert = report["certificate"]
    shrunk = dict(report, certificate=dict(cert, image=cert["image"][1:]))
    assert check_output(truth, argv, code, json.dumps(shrunk)) != "ok"
    everything = list(range(truth.n))
    too_big = dict(report, certificate={"violating_set": everything, "image": everything})
    assert check_output(truth, argv, code, json.dumps(too_big)) != "ok"


def test_tracer_spans_and_restore(tmp_path):
    modules = {k: dict(vars(m)) for k, m in sys.modules.items() if k.startswith("semigroup_match")}
    init = cli.MulTable.__init__
    tracer = Tracer()
    tracer.install()
    try:
        tracer.request = 0
        _, _, code, _ = _run(tmp_path, rees_zero(np.eye(4, dtype=bool)), ["analyze", "--json"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert cli.MulTable.__init__ is init
    for k, before in modules.items():
        assert dict(vars(sys.modules[k])) == before
    names = {rec[0] for rec in tracer.spans}
    assert {"cli.main", "table.parse_table", "table.MulTable",
            "matching.decide_orthodox_matching"} <= names
    assert tracer.spans[0][0] == "cli.main" and tracer.spans[0][3] == -1
    total = tracer.spans[0][2] - tracer.spans[0][1]
    assert sum(self_times(tracer.spans)) == pytest.approx(total)
    layers = layer_metrics(tracer.spans, 1)
    assert set(f"{n}.calls" for n in SPAN_NAMES) <= set(layers)
    assert layers["table.tables_per_request"][0] > 1
