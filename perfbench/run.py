#!/usr/bin/env python3
"""Build the dsvc benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 10 --trace 0

The arguments go to perfbench/main.exe unchanged. Build output goes to
standard error, so the last line of standard output is the benchmark's
JSON result. Exits non-zero without a result when the checkout cannot
be built or the run fails.
"""

import os
import subprocess
import sys


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print(
            "perfbench: run from the root of a dataset-versioning checkout "
            "(dune-project and lib/ not found here)",
            file=sys.stderr,
        )
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "perfbench/main.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
