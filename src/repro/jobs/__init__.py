"""Asynchronous mining jobs: queue, registry, executor, lifecycle model.

The serving tier's answer to long mines (ROADMAP's "async server offload"):
``POST /api/v1/datasets/{name}/results`` with ``mode=async`` opens a
:class:`Job` here, a background executor thread drives the parallel
engine, and the interactive endpoints keep answering while it runs.  One
registry, :class:`DurableJobStore`, keeps every job as a document of the
database's ``jobs`` collection.  Over a path-less database it is
process-local; over a store path jobs survive restarts, several processes
share the registry through lease-based claiming, and a :class:`JobWorker`
thread lets any process execute jobs any other process enqueued.  See
``DESIGN.md`` ("Async job queue", "Durable jobs") for the state machine,
lease protocol, and recovery rules.
"""

from .durable import DurableJobStore, maybe_fault
from .executor import HANDLED, JobExecutor, run_claimed_job, run_job
from .model import (
    ATTEMPTS_EXHAUSTED,
    CANCELLED,
    FAILED,
    JOB_KINDS,
    JOB_STATES,
    KIND_MERGE,
    KIND_MINE,
    KIND_SHARD,
    KIND_STREAM,
    QUEUED,
    RUNNING,
    SUCCEEDED,
    TERMINAL_STATES,
    Job,
    JobError,
    JobStateError,
)
from .planner import (
    PLAN_WORKERS_DEFAULT,
    MinePlan,
    execute_units,
    merge_outputs,
    plan_mine,
)
from .queue import JobQueue
from .worker import JobWorker

__all__ = [
    "ATTEMPTS_EXHAUSTED",
    "CANCELLED",
    "FAILED",
    "HANDLED",
    "JOB_KINDS",
    "JOB_STATES",
    "KIND_MERGE",
    "KIND_MINE",
    "KIND_SHARD",
    "KIND_STREAM",
    "PLAN_WORKERS_DEFAULT",
    "SUCCEEDED",
    "QUEUED",
    "RUNNING",
    "TERMINAL_STATES",
    "DurableJobStore",
    "Job",
    "JobError",
    "JobExecutor",
    "JobQueue",
    "JobStateError",
    "JobWorker",
    "MinePlan",
    "execute_units",
    "maybe_fault",
    "merge_outputs",
    "plan_mine",
    "run_claimed_job",
    "run_job",
]
