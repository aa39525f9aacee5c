"""Regenerate the scenario-command golden fixture (run only to refresh intentionally).

Usage::

    PYTHONPATH=src python tests/golden/generate_cli_scenarios.py

Runs each ``repro faults|sdc|chaos|watch`` invocation of :data:`COMMANDS`
in-process through :func:`repro.cli.main` and freezes its exit code,
stdout and stderr in ``cli_scenarios.json``.  ``tests/test_scenarios.py``
replays every entry and requires byte-identical output; any diff is a
change in what the scenario commands print or decide and must be made
deliberately.
"""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

from repro.cli import main  # noqa: E402

GOLDEN_PATH = os.path.join(HERE, "cli_scenarios.json")

COMMANDS = (
    ["faults", "--json"],
    ["faults", "--steps", "6"],
    ["sdc"],
    ["sdc", "--no-guard"],
    ["sdc", "--policy", "detect"],
    ["sdc", "--policy", "recompute"],
    ["chaos", "--trials", "1", "--steps", "4", "--json"],
    ["chaos", "--trials", "1", "--steps", "4", "--over-parity", "--json"],
    ["watch", "--scenario", "clean", "--json"],
    ["watch", "--scenario", "straggler", "--json"],
    ["watch", "--scenario", "crash", "--json"],
    ["watch", "--scenario", "degrade", "--json"],
    ["watch", "--scenario", "diverge", "--json"],
)


def run_cli(argv):
    """``{"exit_code", "stdout", "stderr"}`` of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"exit_code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def build_golden() -> dict:
    return {
        "description": (
            "Exit code, stdout and stderr of the faults/sdc/chaos/watch "
            "scenario commands"
        ),
        "cases": [dict(argv=list(argv), **run_cli(argv)) for argv in COMMANDS],
    }


if __name__ == "__main__":
    golden = build_golden()
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden['cases'])} cases)")
