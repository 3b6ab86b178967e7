"""Script entry point named by ``BENCHMARK.json``.

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
is what the benchmark driver runs from the root of a checkout;
``python -m benchmarks.e2e`` lands here too.  The checkout is not
installed, so the repo root and ``src/`` are put on ``sys.path`` first.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for _p in (os.path.join(ROOT, "src"), ROOT):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
