"""Regenerate the telemetry golden fixture (run only to refresh intentionally).

Usage::

    PYTHONPATH=src python tests/golden/generate_telemetry_golden.py

Runs every case of ``tests/telemetry_cases.py`` and freezes its
metrics-registry rows (``to_rows()`` order, floats as ``float.hex``)
and, for traced runs, the critical-path summary, slack digest and path
in ``telemetry_golden.json``.  Any diff against the committed file is a
change in what the metrics or the critical-path analysis report and
must be made deliberately.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))

from tests.telemetry_cases import GOLDEN_PATH, observe_all  # noqa: E402

if __name__ == "__main__":
    golden = {
        "description": (
            "Exact metrics-registry rows (float.hex) and critical-path digests "
            "of four traced/sink runs"
        ),
        "runs": observe_all(),
    }
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden['runs'])} runs)")
