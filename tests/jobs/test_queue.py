"""JobQueue + executor behaviour: real threads, cooperative cancellation."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.parallel import MiningCancelled, MiningControl
from repro.jobs import (
    CANCELLED,
    FAILED,
    SUCCEEDED,
    TERMINAL_STATES,
    DurableJobStore,
    JobQueue,
)
from repro.store.database import Database

KEY = "f" * 64
PARAMS = {"min_support": 5}
TIMEOUT = 10.0


def wait_until(predicate, timeout: float = TIMEOUT) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError("condition not reached in time")


def wait_terminal(queue: JobQueue, job_id: str):
    wait_until(lambda: queue.get(job_id).state in TERMINAL_STATES)
    return queue.get(job_id)


def make_queue() -> JobQueue:
    return JobQueue(DurableJobStore(Database(), clock=time.time), width=1)


@pytest.fixture
def queue():
    q = make_queue()
    yield q
    q.shutdown(wait=True)


class TestExecution:
    def test_successful_run(self, queue):
        def runner(control: MiningControl) -> str:
            control.report(1, 2)
            control.report(2, 2)
            return KEY

        job, created = queue.submit("santander", PARAMS, KEY, runner)
        assert created
        final = wait_terminal(queue, job.job_id)
        assert final.state == SUCCEEDED
        assert final.progress == 1.0
        assert final.result_key == KEY

    def test_failure_captured(self, queue):
        def runner(control: MiningControl) -> str:
            raise RuntimeError("shard exploded")

        job, _ = queue.submit("santander", PARAMS, KEY, runner)
        final = wait_terminal(queue, job.job_id)
        assert final.state == FAILED
        assert final.error.type == "RuntimeError"
        assert final.error.message == "shard exploded"
        assert "shard exploded" in final.error.traceback

    def test_progress_flows_from_control(self, queue):
        gate = threading.Event()

        def runner(control: MiningControl) -> str:
            control.report(1, 4)
            gate.wait(TIMEOUT)
            return KEY

        job, _ = queue.submit("santander", PARAMS, KEY, runner)
        wait_until(lambda: queue.get(job.job_id).progress > 0)
        snapshot = queue.get(job.job_id)
        assert snapshot.progress == pytest.approx(0.25)
        assert (snapshot.shards_done, snapshot.shards_total) == (1, 4)
        gate.set()
        assert wait_terminal(queue, job.job_id).progress == 1.0

    def test_dedup_returns_inflight_job(self, queue):
        gate = threading.Event()
        runs = []

        def runner(control: MiningControl) -> str:
            runs.append(1)
            gate.wait(TIMEOUT)
            return KEY

        first, created1 = queue.submit("santander", PARAMS, KEY, runner)
        second, created2 = queue.submit("santander", PARAMS, KEY, runner)
        assert created1 and not created2
        assert first.job_id == second.job_id
        gate.set()
        wait_terminal(queue, first.job_id)
        assert sum(runs) == 1  # the second runner never scheduled

    def test_resubmit_after_success_is_a_new_job(self, queue):
        job1, _ = queue.submit("santander", PARAMS, KEY, lambda control: KEY)
        wait_terminal(queue, job1.job_id)
        job2, created = queue.submit("santander", PARAMS, KEY, lambda control: KEY)
        assert created and job2.job_id != job1.job_id
        wait_terminal(queue, job2.job_id)


class TestCancellation:
    def test_cancel_running_job_at_checkpoint(self, queue):
        started = threading.Event()

        def runner(control: MiningControl) -> str:
            started.set()
            for _ in range(1000):
                control.checkpoint()  # the engine's between-shards poll
                time.sleep(0.01)
            return KEY

        job, _ = queue.submit("santander", PARAMS, KEY, runner)
        assert started.wait(TIMEOUT)
        queue.cancel(job.job_id)
        final = wait_terminal(queue, job.job_id)
        assert final.state == CANCELLED
        assert final.progress < 1.0
        assert final.error is None

    def test_cancel_queued_job_never_runs(self, queue):
        gate = threading.Event()
        ran = []

        def blocker(control: MiningControl) -> str:
            gate.wait(TIMEOUT)
            return "g" * 64

        def victim(control: MiningControl) -> str:
            ran.append(1)
            return KEY

        # width=1: the blocker occupies the only worker, the victim queues.
        blocking, _ = queue.submit("santander", PARAMS, "g" * 64, blocker)
        queued, _ = queue.submit("santander", PARAMS, KEY, victim)
        cancelled = queue.cancel(queued.job_id)
        assert cancelled.state == CANCELLED
        gate.set()
        wait_terminal(queue, blocking.job_id)
        queue.shutdown(wait=True)
        assert not ran  # the worker saw the terminal state and skipped it

    def test_cancel_unknown_job(self, queue):
        with pytest.raises(KeyError):
            queue.cancel("job-0042-missing")

    def test_mining_cancelled_maps_to_cancelled_state(self, queue):
        def runner(control: MiningControl) -> str:
            raise MiningCancelled("stop")

        job, _ = queue.submit("santander", PARAMS, KEY, runner)
        assert wait_terminal(queue, job.job_id).state == CANCELLED


class TestShutdown:
    def test_shutdown_cancels_running_jobs(self):
        """Ctrl-C must not wait out an in-flight mine: shutdown requests
        cancellation, the runner aborts at its next checkpoint."""
        queue = make_queue()
        started = threading.Event()

        def runner(control: MiningControl) -> str:
            started.set()
            for _ in range(10_000):
                control.checkpoint()
                time.sleep(0.005)
            return KEY

        job, _ = queue.submit("santander", PARAMS, KEY, runner)
        assert started.wait(TIMEOUT)
        begun = time.monotonic()
        queue.shutdown(wait=True)
        assert time.monotonic() - begun < TIMEOUT / 2  # not the full 50 s loop
        assert queue.get(job.job_id).state == CANCELLED


class TestCounters:
    def test_counters_include_executor_width(self, queue):
        queue.submit("santander", PARAMS, KEY, lambda control: KEY)
        counts = queue.counters()
        assert counts["executor_width"] == 1
        assert counts["total"] == 1
