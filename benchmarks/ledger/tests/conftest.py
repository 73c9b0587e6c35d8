"""Make the ledger's modules and the library importable:
``pytest benchmarks/ledger -q`` (outside tier-1)."""

import os
import sys

LEDGER = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(LEDGER))
for path in (LEDGER, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
