"""The bench-gate harness: one contract for every ``BENCH_*.json`` gate.

A gate measures something (a wall-clock ceiling, an overhead ratio, a
bit-identity flag), writes the measurement as a JSON record, and judges
a fresh record against the committed one in ``benchmarks/``.  A
:class:`Gate` is only the parts that differ between gates: a schema tag
``repro.<name>.bench/vN``, a ``config``, a ``measure()`` returning the
record's fields, the summary lines it prints, and a list of
:class:`Check` objects.  This module owns the rest:

* the flags ``--baseline PATH``, ``--update-baseline`` and
  ``--tolerance FRACTION`` (extra slack on every baseline limit, in
  ``[0, 1)``; ceilings widen by ``1 + tol``, floors drop by ``1 - tol``);
* the baseline contract: a JSON object with the gate's schema tag, the
  same ``config`` as the fresh record, and every key the checks read.
  Limits come from the committed baseline, never from module constants,
  so a bound changes only when its baseline file does;
* the exit codes, shared with ``repro bench`` and ``repro diff``:

  - ``0`` -- every check passes (``gate : PASS (...)`` on stdout);
  - ``1`` -- regression, one ``REGRESSION: ...`` line per failed check
    on stderr;
  - ``2`` -- configuration error: bad tolerance, or an unreadable,
    malformed or mismatched baseline (``bench gate error: ...``).

Measuring and judging are separate, so a test can judge a gate with
:meth:`Gate.judge` without running its workload.

After an intentional change, refresh a baseline and commit the diff::

    python benchmarks/bench_<name>.py --update-baseline

which overwrites the baseline with the fresh record (``indent=2``,
sorted keys, trailing newline) and skips the gate.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import operator
import sys
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "Check",
    "Gate",
    "check_tolerance",
    "dumps",
    "read_baseline",
    "write_record",
]

Record = Dict[str, Any]

#: Check kind -> predicate(value, limit) that must hold.
_HOLDS: Dict[str, Callable[[Any, Any], bool]] = {
    "ceiling": operator.le,  # value <= baseline[limit] * (1 + tol)
    "floor": operator.ge,  # value >= baseline[limit] * (1 - tol)
    "at_least": operator.ge,  # value >= a constant or another record field
    "flag": lambda value, _: bool(value),
    "same": operator.eq,  # value == baseline[key]
}

#: How each limited kind reads in the PASS line.
_SHOWN = {"ceiling": "<=", "floor": ">=", "at_least": ">="}


def check_tolerance(tolerance: float) -> None:
    """Reject slack that would zero or invert a floor."""
    if not 0 <= tolerance < 1:
        raise ConfigurationError(f"tolerance must be in [0, 1), got {tolerance}")


def dumps(record: Record) -> str:
    """The on-disk form of a bench record."""
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def write_record(path: str, record: Record) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(record))


def read_baseline(path: str) -> Any:
    """The decoded baseline file; :meth:`Gate.judge` validates its shape."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read baseline {path!r}: {exc}") from exc
    except ValueError as exc:
        raise ConfigurationError(f"bad baseline {path!r}: {exc}") from exc


@dataclasses.dataclass(frozen=True)
class Check:
    """One condition the record's ``key`` field must meet.

    ``limit`` is the baseline key holding the limit for ``ceiling`` and
    ``floor``, and a constant or another record key for ``at_least``;
    ``flag`` and ``same`` take none.  ``message`` is a ``str.format``
    template over ``key``, ``value``, ``limit`` (after tolerance),
    ``base`` (the baseline's value under ``limit``) and ``tol``.
    """

    kind: str
    key: str
    message: str
    limit: Any = None

    def __post_init__(self):
        if self.kind not in _HOLDS:
            raise ValueError(f"unknown check kind {self.kind!r}")

    @property
    def reads(self) -> Tuple[str, ...]:
        """The baseline keys this check needs."""
        if self.kind in ("ceiling", "floor"):
            return (self.limit,)
        return (self.key,) if self.kind == "same" else ()

    def bound(self, record: Record, baseline: Record, tolerance: float) -> Any:
        if self.kind in ("ceiling", "floor"):
            base = baseline[self.limit]
            if isinstance(base, bool) or not isinstance(base, (int, float)):
                raise ConfigurationError(
                    f"baseline {self.limit} must be a number, got {base!r}"
                )
            return base * (1.0 + tolerance if self.kind == "ceiling" else 1.0 - tolerance)
        if self.kind == "same":
            return baseline[self.key]
        if self.kind == "at_least" and isinstance(self.limit, str):
            return record[self.limit]
        return self.limit

    def failure(
        self, record: Record, baseline: Record, tolerance: float
    ) -> Optional[str]:
        """The failure text, or None when the check holds."""
        value = record[self.key]
        limit = self.bound(record, baseline, tolerance)
        if _HOLDS[self.kind](value, limit):
            return None
        base = baseline.get(self.limit) if isinstance(self.limit, str) else None
        return self.message.format(
            key=self.key, value=value, limit=limit, base=base, tol=tolerance
        )


@dataclasses.dataclass(frozen=True)
class Gate:
    """A bench gate: what it measures and which checks judge it.

    ``measure()`` returns the record's fields; the harness adds
    ``schema`` and ``config``.  ``summary(record)`` yields
    ``(label, text)`` lines printed before the verdict.  ``baseline``
    is the default ``--baseline`` path.
    """

    schema: str
    checks: Tuple[Check, ...]
    config: Any = None
    measure: Optional[Callable[[], Record]] = None
    summary: Callable[[Record], Iterable[Tuple[str, Any]]] = lambda record: ()
    baseline: str = ""

    @property
    def reads(self) -> Tuple[str, ...]:
        """Every baseline key the checks need, in check order."""
        return tuple(dict.fromkeys(k for c in self.checks for k in c.reads))

    def judge(self, record: Record, baseline: Any, tolerance: float) -> List[str]:
        """Failure texts of ``record`` against ``baseline`` (empty = pass).

        Raises :class:`ConfigurationError` when the two cannot be
        compared: a tolerance outside ``[0, 1)``, a baseline that is not
        an object, carries another schema or config, or lacks a key.
        """
        check_tolerance(tolerance)
        if not isinstance(baseline, dict):
            raise ConfigurationError(
                f"baseline must be a JSON object, got {type(baseline).__name__}"
            )
        if baseline.get("schema") != self.schema:
            raise ConfigurationError(
                f"baseline schema {baseline.get('schema')!r} is not {self.schema!r}"
            )
        missing = [k for k in ("config",) + self.reads if k not in baseline]
        if missing:
            raise ConfigurationError(
                f"baseline lacks {', '.join(missing)}; refresh it with "
                "--update-baseline"
            )
        if baseline["config"] != record["config"]:
            raise ConfigurationError(
                f"bench configs differ: measured {record['config']} vs baseline "
                f"{baseline['config']}; re-run with the baseline's config or "
                "refresh the baseline with --update-baseline"
            )
        failures = (c.failure(record, baseline, tolerance) for c in self.checks)
        return [f for f in failures if f is not None]

    def passed(self, record: Record, baseline: Record, tolerance: float) -> str:
        """The limits a passing record was held to, for the PASS line."""
        return ", ".join(
            f"{c.key} {_SHOWN[c.kind]} {c.bound(record, baseline, tolerance):.4g}"
            for c in self.checks
            if c.kind in _SHOWN
        )

    def main(self, argv=None) -> int:
        """Measure, print, then update the baseline or gate against it."""
        parser = argparse.ArgumentParser(
            description=f"Bench gate {self.schema}: exit 0 pass, "
            "1 regression, 2 configuration error."
        )
        parser.add_argument("--baseline", default=self.baseline,
                            help="committed baseline record to gate against")
        parser.add_argument("--update-baseline", action="store_true",
                            help="overwrite the baseline with this run's "
                            "record (skips the gate)")
        parser.add_argument("--tolerance", type=float, default=0.0,
                            help="extra slack on the baseline limits, a "
                            "fraction in [0, 1) (default 0)")
        args = parser.parse_args(argv)
        try:
            check_tolerance(args.tolerance)
        except ConfigurationError as exc:
            print(f"bench gate error: {exc}", file=sys.stderr)
            return 2

        record = {"schema": self.schema, "config": self.config, **self.measure()}
        lines = list(self.summary(record))
        width = max(len(label) for label, _ in lines + [("baseline", "")])
        for label, text in lines:
            print(f"{label:<{width}}: {text}")
        if args.update_baseline:
            write_record(args.baseline, record)
            print(f"{'baseline':<{width}}: updated {args.baseline}")
            return 0

        try:
            baseline = read_baseline(args.baseline)
            failures = self.judge(record, baseline, args.tolerance)
        except ConfigurationError as exc:
            print(f"bench gate error: {exc}", file=sys.stderr)
            return 2
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"{'gate':<{width}}: PASS "
              f"({self.passed(record, baseline, args.tolerance)})")
        return 0
