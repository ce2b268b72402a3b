"""``studies._fork_map``: certify and rate studies on every usable CPU, byte for byte.

The number of usable CPUs is what ``os.sched_getaffinity`` reports, so each
test sets it; forking works whatever the machine has.
"""

import atexit
import json
import os
import sys
import threading
import time
from pathlib import Path

import pytest

from manisweep import certify_scenario, run_rate_study, studies
from manisweep.artifacts import dumps
from manisweep.errors import NumericsError
from manisweep.scenario import Scenario, bundled_scenario

GOLDENS = ("halfline", "static_convex", "disk_moving_center", "sphere_rotating_cap",
           "implicit_ellipse_cap")


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture
def two_cpus(monkeypatch):
    _cpus(monkeypatch, 2)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def _document(name, monkeypatch):
    if name != "hyperbolic_ball":
        return bundled_scenario(name).document
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
    from perfbench.workloads import HYPERBOLIC_BALL

    return HYPERBOLIC_BALL


def _rates(scn):
    """``rates --levels 4``'s study: its reference as the CLI picks it."""
    steps = [2.0**-4 * 2.0**-k for k in range(4)]
    reference = "analytic" if scn.analytic_solution() is not None else "finest"
    return run_rate_study(scn, steps, reference=reference)


def _counting_forks(monkeypatch) -> list:
    """A list that gains an item at each ``os.fork`` in this process."""
    fork, forks = os.fork, []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


@pytest.mark.parametrize("name", GOLDENS + ("hyperbolic_ball",))
def test_certify_and_rates_write_the_same_bytes_on_one_two_and_three_cpus(name, monkeypatch):
    doc = _document(name, monkeypatch)
    forks = _counting_forks(monkeypatch)
    written, forked = set(), {}
    for n in (1, 2, 3):
        _cpus(monkeypatch, n)
        scn = Scenario(doc)
        written.add((dumps(certify_scenario(scn)), dumps(_rates(scn))))
        assert _no_child_left()
        forked[n] = len(forks) - sum(forked.values())
    assert len(written) == 1
    # k - 1 children each for certify and a rate study's integrations; the sup
    # errors are scored in the calling process
    assert forked == {1: 0, 2: 2, 3: 4}


def _first_waits_for_second(marker):
    """Two tasks returning their pid; the first returns only once the second has
    started, so on two CPUs the second runs in a child."""
    def first():
        deadline = time.monotonic() + 30
        while not marker.exists() and time.monotonic() < deadline:
            time.sleep(0.001)
        return os.getpid()

    def second():
        marker.touch()
        return os.getpid()

    return [first, second]


def test_results_come_back_in_task_order(monkeypatch, tmp_path):
    _cpus(monkeypatch, 3)
    me = os.getpid()
    tasks = _first_waits_for_second(tmp_path / "started")
    got = studies._fork_map(tasks + [lambda i=i: (i, os.getpid()) for i in range(2, 9)])
    assert got[0] == me and got[1] != me
    assert [i for i, _ in got[2:]] == list(range(2, 9))
    assert len({got[0], got[1], *(pid for _, pid in got[2:])}) <= 3
    assert _no_child_left()


def test_a_process_busy_with_a_slow_task_takes_no_other(two_cpus):
    # each process takes the next task once it is free: the one that took the
    # slow task 1 finds the quick tasks 2..9 taken when it is done
    me = os.getpid()
    got = studies._fork_map([os.getpid, lambda: time.sleep(1.0) or os.getpid(),
                             *[os.getpid] * 8])
    assert got[0] == me
    assert got[1] not in got[2:] and len(set(got[2:])) == 1
    assert _no_child_left()


def _fail(message):
    raise NumericsError(message, residual=0.5, best=[1.0, 2.0])


def test_a_child_error_reruns_every_task_here_and_raises_it(two_cpus):
    ran = []
    tasks = [lambda: ran.append(os.getpid()), lambda: _fail(f"failed in {os.getpid()}")]
    with pytest.raises(NumericsError) as err:
        studies._fork_map(tasks)
    # the caller's task ran twice here, and the error raised is the caller's own
    assert ran == [os.getpid()] * 2
    assert (str(err.value), err.value.residual, err.value.best) == (
        f"failed in {os.getpid()}", 0.5, [1.0, 2.0])
    assert _no_child_left()


def test_an_error_in_the_callers_task_reaps_the_children(two_cpus):
    with pytest.raises(NumericsError, match="caller"):
        studies._fork_map([lambda: _fail("caller"), lambda: time.sleep(60)])
    assert _no_child_left()


def test_an_interrupt_kills_and_reaps_the_children(two_cpus):
    def interrupt():
        raise KeyboardInterrupt

    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        studies._fork_map([interrupt, lambda: time.sleep(60)])
    assert time.perf_counter() - t0 < 30  # killed, not waited for
    assert _no_child_left()


def test_a_child_runs_no_atexit_handler(two_cpus, tmp_path):
    me, marker = os.getpid(), tmp_path / "ran"

    def handler():
        if os.getpid() != me:
            marker.touch()

    atexit.register(handler)
    try:
        assert studies._fork_map(_first_waits_for_second(tmp_path / "started"))[1] != me
    finally:
        atexit.unregister(handler)
    assert not marker.exists()


def test_an_unpicklable_result_reruns_serially(two_cpus, tmp_path):
    me = os.getpid()
    first, second = _first_waits_for_second(tmp_path / "started")
    got = studies._fork_map([first, lambda: (second(), threading.Lock())])
    assert got[0] == got[1][0] == me
    assert _no_child_left()


def test_serial_below_two_cpus_or_two_tasks_or_above_the_ticket_limit(monkeypatch):
    _cpus(monkeypatch, 1)
    assert studies._workers(2) == 1
    _cpus(monkeypatch, 4)
    assert [studies._workers(n) for n in (0, 1, 2, 3, 5)] == [1, 1, 2, 3, 4]
    assert studies._workers(studies.MAX_FORKED_TASKS) == 4
    assert studies._workers(studies.MAX_FORKED_TASKS + 1) == 1
    tasks = [lambda i=i: i for i in range(studies.MAX_FORKED_TASKS)]
    assert studies._fork_map(tasks) == list(range(studies.MAX_FORKED_TASKS))
    assert _no_child_left()


@pytest.mark.parametrize("name", ["fork", "sched_getaffinity"])
def test_serial_without_fork_or_affinity(monkeypatch, name):
    _cpus(monkeypatch, 2)
    monkeypatch.delattr(os, name)
    assert studies._workers(2) == 1
    assert studies._fork_map([os.getpid] * 2) == [os.getpid()] * 2


def test_serial_while_another_thread_is_alive(two_cpus, monkeypatch):
    forks = _counting_forks(monkeypatch)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert studies._workers(2) == 1
        studies._fork_map([os.getpid] * 2)
        assert forks == []
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert studies._workers(2) == 2


@pytest.mark.parametrize("hook", ["profile", "trace"])
def test_serial_under_a_profiler_or_tracer(two_cpus, monkeypatch, hook):
    forks = _counting_forks(monkeypatch)
    get, set_ = getattr(sys, f"get{hook}"), getattr(sys, f"set{hook}")
    before = get()
    set_(lambda *args: None)
    try:
        assert studies._workers(2) == 1
        studies._fork_map([os.getpid] * 2)
    finally:
        set_(before)
    assert forks == []
    assert studies._workers(2) == 2


def _serial_and_parallel_error(monkeypatch, run):
    """``run()``'s error on one CPU and on two: type, message and ``dumps(best)``."""
    seen = []
    for n in (1, 2):
        _cpus(monkeypatch, n)
        with pytest.raises(Exception) as err:
            run()
        assert _no_child_left()
        seen.append((type(err.value), str(err.value), dumps(err.value.best)))
    return seen


def test_a_rate_study_fails_with_the_serial_error_and_partial_study(monkeypatch):
    catching_up = studies.catching_up

    def failing_at(scenario, h):
        if h == 2.0**-6:
            raise NumericsError("projection diverged", residual=3.0)
        return catching_up(scenario, h)

    monkeypatch.setattr(studies, "catching_up", failing_at)
    scn = bundled_scenario("disk_moving_center")
    serial, parallel = _serial_and_parallel_error(monkeypatch, lambda: _rates(scn))
    assert serial == parallel
    assert serial[0] is NumericsError
    assert serial[1] == "rate study aborted at h = 0.015625: projection diverged"
    assert len(json.loads(serial[2])["errors"]) == 2  # the levels before the failure


def test_certify_raises_the_serial_error(monkeypatch):
    def fail(*args, **kwargs):
        raise NumericsError("sampler diverged", best=[0.25])

    def fail_probe(*args, **kwargs):
        raise NumericsError("probe diverged", best=[0.5])

    # the hypomonotonicity check's error wins over the probe's, as when it ran first
    monkeypatch.setattr(studies, "sample_hypomonotonicity", fail)
    monkeypatch.setattr(studies, "probe_projection_uniqueness", fail_probe)
    scn = bundled_scenario("disk_moving_center")
    serial, parallel = _serial_and_parallel_error(monkeypatch, lambda: certify_scenario(scn))
    assert serial == parallel
    assert serial[:2] == (NumericsError, "sampler diverged")
    monkeypatch.undo()
    monkeypatch.setattr(studies, "probe_projection_uniqueness", fail_probe)
    serial, parallel = _serial_and_parallel_error(monkeypatch, lambda: certify_scenario(scn))
    assert serial == parallel
    assert serial[:2] == (NumericsError, "probe diverged")
