"""Run one workload of the wall-clock benchmark and print its metrics.

Usage, from the repository root::

    python3 wallbench/run.py --workload tpch_adhoc --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, derived from spans (see ``wallbench/README.md``).
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bootstrap() -> None:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.stderr.write(
            "wallbench: no engine source at src/repro; run from a full checkout\n"
        )
        sys.exit(2)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


if __name__ == "__main__":
    _bootstrap()
    from wallbench.harness import main

    sys.exit(main(sys.argv[1:], ROOT))
