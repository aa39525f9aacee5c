"""Golden-fixture test matrix for the simmpi engine.

Every case of :mod:`tests.backend_cases` — collectives, all four
trainers, and the fault/SDC/checkpoint gauntlets — is checked against
its frozen observation in ``tests/golden/backend_matrix.json``: per-rank
values, final virtual clocks, failed-rank sets, canonical traces, and
the exception type and full message of the failure cases.

The fixtures were generated under the retired one-OS-thread-per-rank
scheduler and reproduced byte-for-byte by the discrete-event scheduler
before the threaded one was deleted, so they carry that differential
oracle forward: a mismatch here means the engine's observable behaviour
changed.  Refresh them deliberately with
``PYTHONPATH=src python tests/golden/generate_backend_matrix.py``.

Not pinned: :meth:`Request.test` probe *results* and tracer drop counts
under ``max_events`` caps, which the threaded scheduler could not make
deterministic.
"""

import pytest

from repro.errors import DeadlockError
from repro.simmpi.engine import SimEngine
from tests.backend_cases import CASES, fault_plan_run, golden, observe_mlp, sdc_run


def assert_golden(case_id, observed=None):
    if observed is None:
        observed = CASES[case_id]()
    expected = golden()[case_id]
    assert observed.keys() == expected.keys(), case_id
    for key in expected:
        assert observed[key] == expected[key], f"{case_id}: {key} differs from golden"


def test_goldens_cover_every_case():
    assert sorted(golden()) == sorted(CASES)


@pytest.mark.parametrize("size", [1, 2, 3, 5, 8])
def test_collectives_bit_identical(size):
    assert_golden(f"collectives/size={size}")


@pytest.mark.parametrize("size", [4, 6])
def test_split_and_subcommunicators(size):
    assert_golden(f"split/size={size}")


def test_halo_exchange():
    assert_golden("halo/size=5")


@pytest.mark.parametrize("pr,pc", [(2, 2), (3, 2), (1, 4)])
def test_mlp_trainer_differential(pr, pc):
    assert_golden(f"mlp/{pr}x{pc}")


def test_mlp_trainer_default_engine():
    """``engine=None`` builds the engine itself; a prebuilt one matches it."""
    assert_golden("mlp-default-engine/2x2")
    assert_golden("mlp-default-engine/2x2", observe_mlp(2, 2, 2, SimEngine(4)))


def test_cnn_trainer_differential():
    assert_golden("cnn/2x2")


def test_elastic_trainer_differential_clean():
    assert_golden("elastic-clean/2x2")


@pytest.mark.parametrize("pr,pc", [(2, 2), (2, 3)])
def test_summa_differential(pr, pc):
    assert_golden(f"summa/{pr}x{pc}")


def test_fault_plan_differential():
    """Transients, link faults, and stragglers: same retries, same clocks."""
    observed, engine = fault_plan_run()
    assert engine.tracer.faults()  # the retry machinery actually fired
    assert_golden("fault-plan/size=4", observed)


def test_message_drop_fails_identically():
    """An unsupervised drop deadlocks the receiver with the pinned diagnosis."""
    assert_golden("message-drop/size=2")


def test_crash_shrink_recover_differential():
    """Supervised crash + cascade + checkpoint restore, both checkpoint modes."""
    for mode in ("erasure", "replicate"):
        assert_golden(f"crash-shrink/{mode}")


def test_sdc_gauntlet_differential():
    """Injected bit flips under ABFT guards: pinned detection + repair."""
    for policy in ("correct", "recompute"):
        observed, engine = sdc_run(policy)
        assert engine.tracer.faults("bitflip")
        assert_golden(f"sdc/{policy}", observed)


def test_deadlock_parity():
    """The deadlock diagnosis (type and full message) is pinned."""
    observed = CASES["deadlock/size=2"]()
    assert observed["failures"]["0"][0] == DeadlockError.__name__
    assert_golden("deadlock/size=2", observed)


def test_engine_reuse_differential():
    """Back-to-back runs on one engine replay the pinned outputs."""
    assert_golden("engine-reuse/size=3")
