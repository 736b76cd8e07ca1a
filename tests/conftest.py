"""Shared test settings.

The acceptance gate (``-m gate``) spends nearly all of its time in
``run_scenario``, whose results are bit-identical for any worker count:
``test_acceptance.py::TestC7Properties::test_deterministic_replay_across_worker_counts``
and ``test_simulation.py`` check that. So the gate runs its scenarios on up
to two worker processes when the machine allows them, which halves its wall
time on two cores and changes no figure it asserts. A ``SURVRAKE_WORKERS``
already set in the environment wins.
"""

import os

import pytest


def _allowed_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


GATE_WORKERS = min(2, _allowed_cpus())


@pytest.fixture(autouse=True)
def _gate_workers(request, monkeypatch):
    if request.node.get_closest_marker("gate") and not os.environ.get("SURVRAKE_WORKERS"):
        monkeypatch.setenv("SURVRAKE_WORKERS", str(GATE_WORKERS))
