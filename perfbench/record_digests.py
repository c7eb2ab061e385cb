"""Record the stdout digest of every request the frozen workloads can send.

    python3 perfbench/record_digests.py

Run from the repository root at the commit whose outputs are the reference.
Every catalogue variant of each frozen workload is written, every command is
run in process, each output is checked, and the digests are written to
perfbench/expected_stdout.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from checker import Truth, check_output
from worker import call, digest
from workloads import WORKLOADS, input_path, render, variant_table

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(Path("src").resolve()))
    from semigroup_match import cli

    expected = {}
    for workload in WORKLOADS.values():
        if not workload.frozen_stdout:
            continue
        digests = expected[workload.name] = {}
        for index, stratum in enumerate(workload.strata):
            for variant in range(stratum.variants):
                table = variant_table(workload, index, variant)
                path = input_path(workload, index, variant)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(render(table), encoding="utf-8")
                truth = Truth(table)
                for cmd in workload.commands:
                    argv = [cmd[0], path.as_posix(), *cmd[1:]]
                    _, code, stdout = call(cli, argv)
                    verdict = check_output(truth, argv, code, stdout)
                    if verdict != "ok":
                        raise SystemExit(f"{' '.join(argv)}: {verdict}")
                    digests[" ".join(argv)] = digest(stdout)
        print(f"{workload.name}: {len(digests)} digests", file=sys.stderr)
    (HERE / "expected_stdout.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                                               encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
