"""Run a command twice and fail if it exits wrongly or its peak RSS is too high.

Usage: python .github/peak_rss.py LIMIT_MB EXPECTED_EXIT -- CMD [ARGS...]

The command runs once as is and once with MALLOC_TRIM_THRESHOLD_=0, which
keeps glibc from handing freed pages back, so the second figure is what the
program holds, not what the allocator returned.  Its stdout is discarded; the
peak is read with os.wait4.  The exit status is 1 if any run exits with a
code other than EXPECTED_EXIT or peaks above LIMIT_MB.
"""

import os
import subprocess
import sys


def main(argv):
    limit, expected, sep, *cmd = argv
    if sep != "--" or not cmd:
        sys.exit(__doc__.split("\n\n")[1])
    failed = False
    for trim in (None, "0"):
        env = dict(os.environ)
        if trim is not None:
            env["MALLOC_TRIM_THRESHOLD_"] = trim
        with open(os.devnull, "w") as devnull:
            child = subprocess.Popen(cmd, stdout=devnull, env=env)
        _, status, usage = os.wait4(child.pid, 0)
        code = os.waitstatus_to_exitcode(status)
        peak = usage.ru_maxrss / 1024
        print(f"{' '.join(cmd)}, MALLOC_TRIM_THRESHOLD_ {trim or 'unset'}: "
              f"exit {code}, peak RSS {peak:.0f} MB")
        failed |= code != int(expected) or peak > float(limit)
    sys.exit(failed)


if __name__ == "__main__":
    main(sys.argv[1:])
