"""Make the benchmark's flat modules importable from the tests.

Run as ``PYTHONPATH=src python -m pytest benchmarks/e2e/tests`` from the
repository root (``benchmarks/conftest.py`` one level up imports
``repro``). Tier-1 ``testpaths`` does not include this directory.
"""

import pathlib
import sys

E2E_DIR = pathlib.Path(__file__).resolve().parents[1]
if str(E2E_DIR) not in sys.path:
    sys.path.insert(0, str(E2E_DIR))
