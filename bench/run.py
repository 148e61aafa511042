"""Benchmark entry point.

    python3 bench/run.py --workload lie_exact --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 5

Runs from the root of a checkout that holds ``src/btpgeo``; it imports that
source tree, never an installed copy.  The last line of standard output is
the JSON result; a readable summary goes to standard error.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(ROOT, "src", "btpgeo", "cli.py")):
        sys.stderr.write(f"error: no btpgeo source tree under {ROOT}/src\n")
        sys.exit(2)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(os.path.abspath(__file__))]
    from btpbench import harness
    sys.exit(harness.main(sys.argv[1:], ROOT))
