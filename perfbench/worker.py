"""One pass of the closed-loop client: one thread calls
semigroup_match.cli.main(argv) in process, one request after another, with
stdout captured.

    worker.py SPEC.json

The spec names the package source, the requests, the seed and pass number
that fix their order, whether to trace, a wall-clock limit and the result
file.  run.py starts one worker per pass, so every pass begins in a fresh
interpreter and its peak RSS is the program's alone.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from tracing import Tracer
from workloads import pass_order

# The reference task: a gather over a 257-element table, the kind of work
# of the associativity check, and a Python loop.  It runs before and after
# every request; its CPU time tracks how fast the shared machine runs then.
_REFERENCE_TABLE = np.random.default_rng(0).integers(0, 257, (257, 257))


def reference_s() -> float:
    start = time.thread_time()
    rows = _REFERENCE_TABLE[:8]
    bool((_REFERENCE_TABLE[rows] == rows[:, _REFERENCE_TABLE]).all())
    total = 0
    for i in range(8000):
        total += i * i
    return time.thread_time() - start


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def call(cli, argv):
    """One request: its CPU time, exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    start = time.thread_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed request, not a crashed benchmark
        code = f"exception: {exc!r}"
    return time.thread_time() - start, code, out.getvalue()


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    from semigroup_match import cli

    requests = spec["requests"]
    # Warm-up on the largest input: first-call costs inside numpy, and the
    # allocator's mmap threshold settles before anything is measured.
    call(cli, max(requests, key=lambda argv: Path(argv[1]).stat().st_size))
    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()
    records, outputs = [], {}
    deadline = time.perf_counter() + spec["limit_s"]
    before = reference_s()
    try:
        for index in pass_order(spec["seed"], spec["pass"], len(requests)):
            if tracer is not None:
                tracer.request = len(records)
            cpu_s, code, stdout = call(cli, requests[index])
            after = reference_s()
            key = digest(stdout)
            outputs.setdefault(key, stdout)
            records.append({"request": index, "code": code, "cpu_s": cpu_s,
                            "reference_s": (before + after) / 2, "digest": key})
            before = after
            if time.perf_counter() > deadline:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "records": records,
        "outputs": outputs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "spans": tracer.spans if tracer is not None else [],
    }
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
