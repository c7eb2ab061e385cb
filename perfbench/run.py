"""Benchmark of the semigroup-match command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The run writes its seeded inputs under
.perfbench_work/, times fresh interpreters importing the CLI (setup_s), runs
whole passes of the closed-loop client (worker.py, one process per pass)
until S seconds have elapsed, checks every output independently
(checker.py) and, for the frozen workloads, against the stdout digests
recorded in expected_stdout.json.  The last line of stdout is one JSON
object: correct, attempted, failed and metrics.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the run is split into an untraced
and a traced half and the metrics are per layer.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checker import Truth, check_output, parse_table_file
from tracing import PARENT, REQUEST, layer_metrics
from workloads import WORK_DIR, WORKLOADS, write_inputs

HERE = Path(__file__).resolve().parent
# set-up is timed this many times before and again after the workload, so
# that the median spans the run rather than one moment of it
SETUP_REPEATS = 5
# a pass is cut short once the run has taken this many times --seconds, so
# that a much slower program still ends in bounded time
LIMIT_FACTOR = 4
WORKER_TIMEOUT_S = 170
# Request times are reported in reference seconds: CPU time scaled by
# REFERENCE_S over the mean time of the reference task run just before and
# just after the request.  The speed of the shared machine drifts by tens of
# percent within minutes, and the scaling cancels most of that drift.
REFERENCE_S = 0.005


def import_seconds(src: Path, repeats: int) -> list:
    """CPU times of fresh interpreters importing semigroup_match.cli."""
    argv = [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(src)!r}); "
                                  "import semigroup_match.cli"]
    times = []
    for _ in range(repeats):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run(argv, check=True)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        times.append(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
    return times


def run_passes(base_spec, run_dir: Path, seconds: float, limit_at: float, trace: bool) -> list:
    """Whole passes, each in a fresh worker, until `seconds` have elapsed."""
    passes = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        name = f"pass-{len(passes)}-{'traced' if trace else 'plain'}"
        spec = dict(base_spec, trace=trace, limit_s=limit_at - time.perf_counter(),
                    result=str(run_dir / f"{name}.json"), **{"pass": len(passes)})
        spec_path = run_dir / f"{name}.spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                       check=True, timeout=WORKER_TIMEOUT_S)
        passes.append(json.loads(Path(spec["result"]).read_text(encoding="utf-8")))
    return passes


def check_run(workload, requests, records, outputs, expected):
    """Verdict per record: 'ok', 'inconclusive' or the reason it failed."""
    truths, verdicts, out = {}, {}, []
    for rec in records:
        argv = requests[rec["request"]]
        key = (rec["request"], rec["digest"], str(rec["code"]))
        if key not in verdicts:
            path = argv[1]
            if path not in truths:
                truths[path] = Truth(parse_table_file(Path(path).read_text(encoding="utf-8")))
            verdict = check_output(truths[path], argv, rec["code"], outputs[rec["digest"]])
            if workload.frozen_stdout and verdict == "ok" and expected.get(" ".join(argv)) != rec["digest"]:
                verdict = "stdout differs from the recorded digest"
            verdicts[key] = verdict
        out.append(verdicts[key])
    return out


def scaled_times(records) -> list:
    """Each request's CPU time in reference seconds.

    A search that ran out its budget (exit 3) keeps its CPU time: its length
    is set by the wall-clock budget, not by the speed of the machine.
    """
    return [rec["cpu_s"] if rec["code"] == 3 else rec["cpu_s"] * REFERENCE_S / rec["reference_s"]
            for rec in records]


def merge_spans(passes) -> list:
    """Spans of all passes in one list, parents and request ids rebased."""
    spans, requests = [], 0
    for p in passes:
        offset = len(spans)
        for rec in p["spans"]:
            if rec[PARENT] >= 0:
                rec[PARENT] += offset
            rec[REQUEST] += requests
            spans.append(rec)
        requests += len(p["records"])
    return spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path("src").resolve()
    if not (src / "semigroup_match" / "cli.py").is_file():
        print("error: run from the repository root; src/semigroup_match not found", file=sys.stderr)
        return 2
    limit_at = time.perf_counter() + LIMIT_FACTOR * args.seconds
    workload = WORKLOADS[args.workload]
    requests = write_inputs(workload, args.seed)
    import_seconds(src, 1)  # writes the bytecode caches
    setup_times = import_seconds(src, SETUP_REPEATS)

    run_dir = WORK_DIR / f"run-{args.workload}-{args.seed}-{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    base_spec = {"src": str(src), "requests": requests, "seed": args.seed}
    if args.trace:
        plain = run_passes(base_spec, run_dir, args.seconds / 2, limit_at, trace=False)
        traced = run_passes(base_spec, run_dir, args.seconds / 2, limit_at, trace=True)
    else:
        plain, traced = run_passes(base_spec, run_dir, args.seconds, limit_at, trace=False), []
    setup_times += import_seconds(src, SETUP_REPEATS)

    expected = json.loads((HERE / "expected_stdout.json").read_text(encoding="utf-8"))
    expected = expected.get(workload.name, {})
    outputs = {k: v for p in plain + traced for k, v in p["outputs"].items()}
    plain_records = [rec for p in plain for rec in p["records"]]
    traced_records = [rec for p in traced for rec in p["records"]]
    plain_verdicts = check_run(workload, requests, plain_records, outputs, expected)
    traced_verdicts = check_run(workload, requests, traced_records, outputs, expected)
    verdicts = plain_verdicts + traced_verdicts
    failures = [v for v in verdicts if v not in ("ok", "inconclusive")]
    for reason in sorted(set(failures)):
        print(f"failed: {failures.count(reason)} x {reason}", file=sys.stderr)

    if args.trace:
        spans = merge_spans(traced)
        with open(run_dir / "spans.jsonl", "w", encoding="utf-8") as fh:
            for rec in spans:
                fh.write(json.dumps(rec) + "\n")
        metrics = layer_metrics(spans, len(traced_records))
        nodes = 0
        for rec, verdict in zip(traced_records, traced_verdicts):
            if verdict in ("ok", "inconclusive") and "--involution" in requests[rec["request"]]:
                search = json.loads(outputs[rec["digest"]])["search"]
                nodes += search["nodes"] if search else 0
        inconclusive = traced_verdicts.count("inconclusive")
        metrics["matching.involution_nodes"] = (nodes / len(traced_records), "nodes/req")
        metrics["matching.involution_inconclusive"] = (inconclusive / len(traced_records), "1/req")
        plain_mean = statistics.fmean(scaled_times(plain_records))
        traced_mean = statistics.fmean(scaled_times(traced_records))
        metrics["trace.overhead_ratio"] = (traced_mean / plain_mean - 1, "ratio")
    else:
        times = np.array(scaled_times(plain_records))
        metrics = {
            "latency_p50_s": (float(np.percentile(times, 50)), "s"),
            "latency_p90_s": (float(np.percentile(times, 90)), "s"),
            "throughput_rps": (len(times) / float(times.sum()), "1/s"),
            "decided_ratio": (plain_verdicts.count("ok") / len(plain_verdicts), "ratio"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in plain), "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }

    print(json.dumps({
        "correct": not failures,
        "attempted": len(verdicts),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
