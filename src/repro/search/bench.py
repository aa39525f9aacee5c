"""The ``repro bench`` perf record and baseline regression gate.

Benchmarks the memoized+vectorized engine against the serial optimizer
on the Fig. 7 strong-scaling configuration (AlexNet, ``B = 2048``,
``P in {8, 64, 256, 512}``) and emits a ``BENCH_search.json`` record.
The gate compares **speedup ratios**, not wall-clock seconds — the
serial path is measured on the same host in the same run, so the ratio
is stable across machines while absolute times are not.  A run fails
the gate when:

* the engine's points are not bit-identical to the serial ones, or
* its speedup falls below the hard floor (3x), or
* its speedup regresses more than ``tolerance`` (20% by default)
  relative to the committed baseline.

The judging is :mod:`repro.gate`'s, shared with every other bench gate.
"""

from __future__ import annotations

import dataclasses
import json
import time
from typing import List, Optional, Sequence, Tuple

from repro.core.sweep import strong_scaling_curve as _serial_curve
from repro.errors import ConfigurationError
from repro.gate import Check, Gate, dumps
from repro.search.engine import SearchEngine
from repro.search.sweeps import strong_scaling_curve as _engine_curve

__all__ = [
    "BENCH_SCHEMA",
    "DEFAULT_PROCESSES",
    "DEFAULT_BATCH",
    "MIN_SPEEDUP",
    "DEFAULT_TOLERANCE",
    "BenchRecord",
    "GATE",
    "run_search_bench",
    "compare_to_baseline",
]

BENCH_SCHEMA = "repro.search.bench/v1"

#: The Fig. 7 strong-scaling panels: B = 2048 across P = 8..512.
DEFAULT_PROCESSES: Tuple[int, ...] = (8, 64, 256, 512)
DEFAULT_BATCH = 2048

#: Hard floor on engine-vs-serial speedup (the acceptance criterion).
MIN_SPEEDUP = 3.0

#: Allowed relative regression against the committed baseline speedup.
DEFAULT_TOLERANCE = 0.2


@dataclasses.dataclass(frozen=True)
class BenchRecord:
    """One benchmark measurement, serializable to ``BENCH_search.json``."""

    network: str
    batch: float
    processes: Tuple[int, ...]
    dataset_size: int
    repeat: int
    serial_s: float
    engine_s: float
    identical: bool
    cache_hits: int
    cache_misses: int
    cache_entries: int

    @property
    def speedup(self) -> float:
        """Serial over engine wall-clock (best-of-``repeat`` each)."""
        if self.engine_s == 0:
            return float("inf")
        return self.serial_s / self.engine_s

    @property
    def config_key(self) -> Tuple:
        """What must match for two records to be comparable."""
        return (self.network, float(self.batch), tuple(self.processes),
                self.dataset_size)

    def to_payload(self) -> dict:
        return {
            "schema": BENCH_SCHEMA,
            "config": {
                "network": self.network,
                "batch": self.batch,
                "processes": list(self.processes),
                "dataset_size": self.dataset_size,
            },
            "repeat": self.repeat,
            "serial_s": self.serial_s,
            "engine_s": self.engine_s,
            "speedup": self.speedup,
            "identical": self.identical,
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "entries": self.cache_entries,
            },
        }

    def to_json(self) -> str:
        return dumps(self.to_payload())

    @classmethod
    def from_json(cls, text: str) -> "BenchRecord":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid bench record: {exc}") from exc
        return cls.from_payload(payload)

    @classmethod
    def from_payload(cls, payload) -> "BenchRecord":
        if not isinstance(payload, dict) or payload.get("schema") != BENCH_SCHEMA:
            raise ConfigurationError(
                f"bench record schema must be {BENCH_SCHEMA!r}, "
                f"got {payload.get('schema')!r}"
                if isinstance(payload, dict)
                else "bench record must be a JSON object"
            )
        try:
            config = payload["config"]
            cache = payload.get("cache", {})
            return cls(
                network=config["network"],
                batch=float(config["batch"]),
                processes=tuple(int(p) for p in config["processes"]),
                dataset_size=int(config["dataset_size"]),
                repeat=int(payload["repeat"]),
                serial_s=float(payload["serial_s"]),
                engine_s=float(payload["engine_s"]),
                identical=bool(payload["identical"]),
                cache_hits=int(cache.get("hits", 0)),
                cache_misses=int(cache.get("misses", 0)),
                cache_entries=int(cache.get("entries", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed bench record: {exc!r}") from exc


def run_search_bench(
    setting=None,
    *,
    processes: Sequence[int] = DEFAULT_PROCESSES,
    batch: float = DEFAULT_BATCH,
    repeat: int = 3,
    jobs: Optional[int] = None,
) -> BenchRecord:
    """Time serial vs engine strong-scaling sweeps and verify identity.

    Both paths evaluate the same :func:`strong_scaling_curve` points;
    the engine starts **cold** (a fresh cache) on every repetition, so
    the measured speedup is what a fresh process gets, not a warm-cache
    artifact.  Takes the best of ``repeat`` runs for each side.
    """
    # Imported lazily: repro.experiments pulls in repro.search at import
    # time, so a module-level import here would be circular.
    from repro.experiments.common import default_setting

    if repeat < 1:
        raise ConfigurationError(f"repeat must be >= 1, got {repeat}")
    if not processes:
        raise ConfigurationError("need at least one process count")
    setting = setting or default_setting()
    net, machine, compute = setting.network, setting.machine, setting.compute
    dataset_size = setting.dataset.train_images

    serial_s = float("inf")
    serial_points = None
    for _ in range(repeat):
        start = time.perf_counter()
        points, _table = _serial_curve(
            net, batch, processes, machine, compute, dataset_size=dataset_size
        )
        serial_s = min(serial_s, time.perf_counter() - start)
        serial_points = points

    engine_s = float("inf")
    engine_points = None
    engine = None
    for _ in range(repeat):
        engine = SearchEngine()  # cold cache each repetition
        start = time.perf_counter()
        points, _table = _engine_curve(
            net, batch, processes, machine, compute,
            dataset_size=dataset_size, engine=engine, jobs=jobs,
        )
        engine_s = min(engine_s, time.perf_counter() - start)
        engine_points = points

    stats = engine.cache_stats()
    return BenchRecord(
        network=net.name,
        batch=float(batch),
        processes=tuple(int(p) for p in processes),
        dataset_size=int(dataset_size),
        repeat=repeat,
        serial_s=serial_s,
        engine_s=engine_s,
        identical=serial_points == engine_points,
        cache_hits=stats.hits,
        cache_misses=stats.misses,
        cache_entries=stats.entries,
    )


GATE = Gate(
    BENCH_SCHEMA,
    checks=(
        Check("flag", "identical",
              "engine results are NOT bit-identical to the serial path"),
        Check("at_least", "speedup",
              "speedup {value:.2f}x is below the {limit:g}x floor", MIN_SPEEDUP),
        Check("floor", "speedup",
              "speedup {value:.2f}x regressed more than {tol:.0%} from the "
              "baseline {base:.2f}x (allowed >= {limit:.2f}x)", "speedup"),
    ),
)


def compare_to_baseline(
    record: BenchRecord,
    baseline: BenchRecord,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[str]:
    """Gate ``record`` against ``baseline``; return failure descriptions.

    An empty list means the gate passes.  A tolerance outside ``[0, 1)``
    or mismatched configurations are a :class:`ConfigurationError` (the
    records are not comparable), not a regression.
    """
    return GATE.judge(record.to_payload(), baseline.to_payload(), tolerance)
