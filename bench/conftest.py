"""Path set-up for the benchmark's own tests (``python3 -m pytest bench``)."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for entry in (BENCH, ROOT, ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
