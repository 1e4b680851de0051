"""Path set-up for the scale probes (``python -m pytest ci``)."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [entry for entry in (str(ROOT), str(ROOT / "src")) if entry not in sys.path]
