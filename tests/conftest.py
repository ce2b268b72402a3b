import os

import pytest


@pytest.fixture
def one_cpu(monkeypatch):
    """One usable CPU, so ``studies._fork_map`` runs every task in this process.

    For tests that watch calls inside certify's or a rate study's tasks: a
    forked child's side effects never reach the test.
    """
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
