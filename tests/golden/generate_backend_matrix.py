"""Regenerate the engine golden fixtures (run only to refresh intentionally).

Usage::

    PYTHONPATH=src python tests/golden/generate_backend_matrix.py

Runs every case of ``tests/backend_cases.py`` (the cases
``tests/test_backend_matrix.py`` checks) and freezes its
observation in ``backend_matrix.json``: per-rank values as SHA-256 over
dtype/shape/bytes (recursively), virtual clocks as ``float.hex()``,
failed-rank sets, canonical-trace SHA-256 plus event count, and the
exception type and full message of the drop and deadlock cases.  Any
diff against the committed file is a change in the engine's observable
behaviour and must be made deliberately.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))

from tests.backend_cases import GOLDEN_PATH, observe_all  # noqa: E402


def build_golden() -> dict:
    return {
        "description": (
            "Exact observations (value/trace SHA-256, float.hex clocks, failed "
            "sets, exception texts) of the simmpi engine test matrix"
        ),
        "cases": observe_all(),
    }


if __name__ == "__main__":
    golden = build_golden()
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden['cases'])} cases)")
