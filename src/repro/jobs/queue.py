"""The job queue facade: submit, cancel, observe.

:class:`JobQueue` is what the server and CLI talk to — it composes the
registry (:class:`~repro.jobs.durable.DurableJobStore`) with the
background executor (:class:`~repro.jobs.executor.JobExecutor`) and owns
the dedup rule:
submissions are identified by the *result cache key* of their
(dataset, parameters) pair, the same canonical hash Section 3.3 caches
results under, so "identical job already in flight" and "result already
cached" are decided by one piece of machinery.
"""

from __future__ import annotations

import threading
from typing import Any, Mapping

from .durable import DurableJobStore
from .executor import JobExecutor, JobRunner
from .model import TERMINAL_STATES, Job, JobStateError

__all__ = ["JobQueue"]


class JobQueue:
    """Asynchronous mining jobs: dedup'd submission over a thread pool.

    ``store`` is the job registry; over a path-less :class:`Database` it
    is process-local, over a store path it is shared with every process
    opening the same path.
    """

    def __init__(
        self,
        store: DurableJobStore,
        executor: JobExecutor | None = None,
        width: int = 2,
    ) -> None:
        self.store = store
        self.executor = executor if executor is not None else JobExecutor(width)
        self._stopping = threading.Event()

    def submit(
        self,
        dataset: str,
        parameters: Mapping[str, Any],
        key: str,
        runner: JobRunner,
        **open_kwargs: Any,
    ) -> tuple[Job, bool]:
        """Submit a mining run; returns ``(job, created)``.

        ``created=False`` means an identical job (same cache ``key``) was
        already queued or running and is returned instead — the runner is
        *not* scheduled again.  ``runner(control)`` executes on an executor
        thread and returns the cache key its result was stored under.
        Extra keyword arguments (``distributed=``, ``plan_workers=``,
        ``max_attempts=``) pass through to the store's ``open_job``.
        """
        job, created = self.store.open_job(dataset, parameters, key, **open_kwargs)
        if created:
            self.schedule(job.job_id, runner)
        return job, created

    def schedule(self, job_id: str, runner: JobRunner) -> None:
        """Hand one already-registered job to the executor.

        The execution is wired to this queue's stop signal: on shutdown an
        in-flight run aborts at its next checkpoint and (on a shared
        registry) releases its claim for takeover.
        """
        self.executor.submit(
            self.store, job_id, runner, should_abort=self._stopping.is_set
        )

    def cancel(self, job_id: str) -> Job:
        """Request cancellation (immediate when queued, cooperative when
        running); raises ``KeyError`` for unknown ids and
        :class:`~repro.jobs.model.JobStateError` for finished jobs."""
        return self.store.request_cancel(job_id)

    def get(self, job_id: str) -> Job | None:
        return self.store.get(job_id)

    def list(self, status: str | None = None) -> list[Job]:
        return self.store.list(status)

    def children(self, parent_id: str) -> list[Job]:
        """A distributed parent's sub-jobs: shards (by index), then merge."""
        return self.store.children(parent_id)

    def evicted_result_key(self, job_id: str) -> str | None:
        """Result key left behind by an evicted succeeded job, if any."""
        return self.store.evicted_result_key(job_id)

    def counters(self) -> dict[str, Any]:
        counts = self.store.counters()
        counts["executor_width"] = self.executor.width
        return counts

    def shutdown(self, wait: bool = False) -> None:
        """Stop the queue promptly without forfeiting shared work.

        Process-local registry: cancel every non-terminal job first, so
        running mines abort at their next checkpoint instead of holding
        the (non-daemon) worker threads — a Ctrl-C exits promptly.

        Shared (store-backed) registry: cancelling would kill work other
        processes can still finish, so instead the stop signal makes
        in-flight runs abort at their next checkpoint and *release* their
        claims (CAS back to queued) for immediate takeover; jobs this
        process never claimed are simply left for the fleet.
        """
        self._stopping.set()
        if not self.store.shared:
            for job in self.store.list():
                if job.state not in TERMINAL_STATES:
                    try:
                        self.store.request_cancel(job.job_id)
                    except JobStateError:
                        pass  # finished between the list and the cancel
        self.executor.shutdown(wait=wait)
