"""Server state, shared handler cores, and the legacy (unversioned) routes.

The canonical HTTP surface is the versioned resource API registered by
:mod:`repro.server.api_v1`.  This module keeps two things:

* :class:`ServerState` — store, cache, upload sessions, job queue: the
  shared state every handler (v1 and legacy) runs against;
* the *legacy* unversioned routes of the paper's Figure-2 flow
  (``POST /mine``, ``GET /caps/{dataset}``, …), registered as thin
  deprecation shims: each delegates to the same core helpers the v1
  handlers use and answers with its historical payload shape plus
  ``Deprecation: true`` and a ``Link: <successor>; rel="successor-version"``
  header pointing at the v1 resource that replaces it.

Upload protocol (Section 3.2):

1. ``POST .../upload/begin`` — JSON body with the contents of
   ``location.csv`` and ``attribute.csv``;
2. ``POST .../upload/chunk`` — one ≤10,000-line piece of ``data.csv`` per
   request (text body);
3. ``POST .../upload/finish`` — validate, assemble, store.

Upload sessions are serialized behind ``ServerState.lock`` (the threaded
WSGI server runs handlers concurrently); beginning an upload for a name
whose session is already open is a 409, and ``.../upload/abort`` discards a
session (e.g. after a rejected chunk).
"""

from __future__ import annotations

import io
import os
import threading
import time
import weakref
from typing import Any, Mapping

from ..cache.cache import ResultCache
from ..cache.keys import cache_key
from ..core.miner import MiningResult, MiscelaMiner
from ..core.parameters import MiningParameters
from ..core.types import SensorDataset
from ..data.csv_io import ChunkAssembler, read_attribute_csv, read_location_csv
from ..data.documents import dataset_from_document, dataset_to_document
from ..core.parallel import MiningCancelled
from ..jobs import (
    HANDLED,
    KIND_MERGE,
    KIND_SHARD,
    KIND_STREAM,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    DurableJobStore,
    Job,
    JobQueue,
    JobStateError,
    JobWorker,
    execute_units,
    maybe_fault,
    merge_outputs,
    plan_mine,
)
from ..obs.metrics import get_registry
from ..obs.profiler import Profiler
from ..store.database import Database
from ..stream import (
    ALERT_RULES,
    ALERTS,
    CAP_EVENTS,
    FEED_SNAPSHOTS,
    OBSERVATIONS,
    STREAM_CONFIG,
    STREAM_EPOCHS,
    STREAM_STATE,
    StreamSession,
)
from .http import HTTPError, Request, Response, html_response, json_response

__all__ = ["ServerState", "register_routes"]

_DATASETS = "datasets"
_RESULTS = "cap_results"
_GENERATIONS = "generations"

#: Test hook: seconds to sleep inside the mining runner before the engine
#: starts.  The fault-injection harness sets it to hold a job mid-mine long
#: enough to ``kill -9`` the server at a chosen moment; unset in production.
_MINE_DELAY_ENV = "REPRO_JOBS_MINE_DELAY"

#: Test hook: seconds to sleep inside the *shard* runner before executing
#: its units — holds a shard sub-job mid-flight so the two-server matrix
#: can ``kill -9`` the process that claimed it.  Unset in production.
_SHARD_DELAY_ENV = "REPRO_JOBS_SHARD_DELAY"


class ServerState:
    """Shared state behind the handlers: store, cache, uploads, job queue.

    With the threaded WSGI server and the background job executor, handlers
    run concurrently; ``self.lock`` guards the in-memory mutable state
    (dataset registry caches, upload sessions).
    Mining itself never holds the lock — only the bookkeeping around it
    does.

    The job registry is a :class:`~repro.jobs.DurableJobStore` over the
    backing database: jobs live in its ``jobs`` collection.  Without a
    store path that registry is process-local; with one, every transition
    persists and any number of server processes sharing the store claim
    work through leases.  ``recover_jobs`` (called by
    :func:`repro.server.app.create_app`) requeues interrupted work on
    startup, and :meth:`start_job_worker` turns this process into a
    polling worker — the one that claims distributed shards and re-claims
    resident stream jobs, and on a shared store also runs jobs other
    processes enqueued.
    """

    def __init__(
        self,
        database: Database | None = None,
        job_workers: int = 2,
        worker_id: str | None = None,
        lease_seconds: float = 30.0,
        max_attempts: int = 5,
        stream_retention: Mapping[str, Any] | None = None,
    ) -> None:
        self.database = database if database is not None else Database()
        self.cache = ResultCache(self.database)
        self.database.collection(_DATASETS).create_index("name", "hash")
        # Dataset generations live in the store (each bump is a log
        # record), so a re-upload on one server process
        # withdraws results mid-mine on every process sharing the store.
        self.database.collection(_GENERATIONS).create_index("name", "hash")
        # Stream subsystem lookups (batch replay, event dedup, feed reads).
        self.database.collection(OBSERVATIONS).create_index("batch_id", "hash")
        self.database.collection(OBSERVATIONS).create_index("dataset", "hash")
        self.database.collection(CAP_EVENTS).create_index("event_id", "hash")
        self.database.collection(CAP_EVENTS).create_index("dataset", "hash")
        # Feed tail reads are range queries past the poll cursor; the
        # sorted index turns each long-poll beat into a tail touch
        # instead of a full collection scan.
        self.database.collection(CAP_EVENTS).create_index("seq", "sorted")
        self.database.collection(ALERT_RULES).create_index("rule_id", "hash")
        self.database.collection(ALERTS).create_index("alert_id", "hash")
        self.database.collection(FEED_SNAPSHOTS).create_index("dataset", "hash")
        self.database.collection(STREAM_CONFIG).create_index("name", "hash")
        #: Server-wide retention default (``--stream-retention``); merged
        #: under per-dataset ``stream_config`` documents by
        #: :func:`repro.stream.get_retention`.  None = retention opt-in
        #: per dataset only.
        self.stream_default_retention = (
            dict(stream_retention) if stream_retention else None
        )
        # Resident-miner cadence: a drained stream job idles this long
        # before releasing its claim, gated for re-claim after the poll
        # interval (sub-second so appended batches surface quickly; tests
        # shorten both).
        self.stream_idle_seconds = 0.5
        self.stream_poll_seconds = 0.25
        self.lock = threading.RLock()
        store = DurableJobStore(
            self.database,
            worker_id=worker_id,
            lease_seconds=lease_seconds,
            max_attempts=max_attempts,
        )
        self.jobs = JobQueue(store, width=job_workers)
        self._worker: JobWorker | None = None
        self._pending: dict[str, ChunkAssembler] = {}
        self._pending_meta: dict[str, tuple[list, list]] = {}
        # One lock per open upload session: chunks of the same session must
        # serialize (the assembler's row stream would interleave), but CSV
        # parsing must not happen under the global ``self.lock`` — one
        # client streaming a big upload would stall every other handler.
        self._pending_locks: dict[str, threading.Lock] = {}
        self._loaded: dict[str, SensorDataset] = {}
        # Dataset generations (see ``_bump_generation``) are bumped on
        # every re-upload/delete; async jobs snapshot the value at submit
        # and refuse to publish a result mined from superseded data, and v1
        # result ETags embed it so conditional GETs never revalidate a
        # representation derived from replaced data.

    # -- upload sessions ------------------------------------------------------

    def begin_upload(self, name: str, locations: list, attributes: list) -> None:
        """Open the chunked-upload session for ``name``.

        One session per name: a concurrent ``begin`` while a session is
        open is a 409 (two interleaved uploaders would corrupt each other's
        chunk stream).  Sessions end at ``finish`` or ``abort``.
        """
        with self.lock:
            if name in self._pending:
                raise HTTPError(
                    409,
                    f"an upload for dataset {name!r} is already in progress; "
                    f"finish or abort it first",
                    code="upload_in_progress",
                )
            self._pending[name] = ChunkAssembler(name)
            self._pending_meta[name] = (locations, attributes)
            self._pending_locks[name] = threading.Lock()

    def append_upload_chunk(self, name: str, text: str) -> tuple[int, int, int]:
        """Add one data.csv chunk; returns (chunks, rows_in_chunk, rows_total).

        Chunks of one session serialize on the *session* lock; the global
        lock is held only for the registry lookup, so parsing a chunk never
        blocks handlers for other datasets.
        """
        with self.lock:
            assembler = self._pending.get(name)
            session_lock = self._pending_locks.get(name)
            if assembler is None or session_lock is None:
                raise HTTPError(
                    409,
                    f"no upload in progress for dataset {name!r}",
                    code="no_upload_in_progress",
                )
        with session_lock:
            rows = assembler.add_chunk(text)
            return assembler.chunks_received, rows, assembler.rows_received

    def finish_upload(self, name: str) -> SensorDataset:
        """Close the session, validate and store the assembled dataset."""
        with self.lock:
            assembler = self._pending.pop(name, None)
            meta = self._pending_meta.pop(name, None)
            session_lock = self._pending_locks.pop(name, None)
        if assembler is None or meta is None or session_lock is None:
            raise HTTPError(
                409,
                f"no upload in progress for dataset {name!r}",
                code="no_upload_in_progress",
            )
        locations, attributes = meta
        # Assembly runs outside the global lock — it scales with the
        # dataset, and the session is already detached from the registry.
        # Taking the session lock first lets an in-flight chunk parse
        # complete before the rows are assembled.
        with session_lock:
            dataset = assembler.finish(locations, attributes)
        self.put_dataset(dataset)
        return dataset

    def abort_upload(self, name: str) -> bool:
        """Discard an open session; True when one existed."""
        with self.lock:
            assembler = self._pending.pop(name, None)
            self._pending_meta.pop(name, None)
            self._pending_locks.pop(name, None)
            return assembler is not None

    # -- dataset registry -----------------------------------------------------

    def dataset_names(self) -> list[str]:
        return sorted(
            doc["name"] for doc in self.database[_DATASETS].find()
        )

    def get_dataset(self, name: str) -> SensorDataset:
        with self.lock:
            if name in self._loaded:
                return self._loaded[name]
        document = self.database[_DATASETS].find_one({"name": name})
        if document is None:
            # Another process sharing the store may have uploaded it.
            self._refresh_shared()
            document = self.database[_DATASETS].find_one({"name": name})
        if document is None:
            raise HTTPError(404, f"unknown dataset {name!r}", code="unknown_dataset")
        dataset = dataset_from_document(document["dataset"])
        with self.lock:
            self._loaded[name] = dataset
        return dataset

    def _refresh_shared(self) -> None:
        """Adopt changes other processes persisted (no-op without a path)."""
        self.jobs.store.refresh()

    def put_dataset(self, dataset: SensorDataset) -> None:
        with self.lock:
            collection = self.database[_DATASETS]
            document = {"name": dataset.name, "dataset": dataset_to_document(dataset)}
            if collection.replace_one({"name": dataset.name}, document) is None:
                collection.insert_one(document)
            # Re-uploading under an existing name invalidates its cached CAPs.
            self.cache.invalidate_dataset(dataset.name)
            self._loaded[dataset.name] = dataset
        self._bump_generation(dataset.name)
        self._cancel_dataset_jobs(dataset.name)
        self._purge_stream(dataset.name)
        # Re-sweep after the generation bump: a result published since the
        # drop above passed its currency check on the old data.
        self.jobs.store.persist_removal(_RESULTS, {"payload.dataset": dataset.name})

    def delete_dataset(self, name: str) -> bool:
        """Delete a dataset; only an *actual* delete invalidates anything.

        Deleting a name that was never uploaded must not bump the dataset
        generation or cancel its jobs — a stray DELETE for a typo'd name
        would otherwise withdraw in-flight mining results for nothing.
        """
        with self.lock:
            removed = self.database[_DATASETS].delete_many({"name": name})
            if not removed:
                return False
            self.cache.invalidate_dataset(name)
            self._loaded.pop(name, None)
        self._bump_generation(name)
        self._cancel_dataset_jobs(name)
        self._purge_stream(name)
        # Re-sweep after the generation bump: a result published since the
        # delete above passed its currency check on the old data.
        self.jobs.store.persist_removal(_DATASETS, {"name": name})
        self.jobs.store.persist_removal(_RESULTS, {"payload.dataset": name})
        return True

    def _cancel_dataset_jobs(self, dataset_name: str) -> None:
        """In-flight jobs for a replaced/deleted dataset are obsolete."""
        # Resident stream jobs are not in the default (mine) listing.
        jobs = self.jobs.list() + self.jobs.store.list(kind=KIND_STREAM)
        for job in jobs:
            if job.dataset == dataset_name and job.state not in TERMINAL_STATES:
                try:
                    self.jobs.cancel(job.job_id)
                except (KeyError, JobStateError):
                    pass  # finished in the meantime — the generation check below catches it

    def _purge_stream(self, name: str) -> None:
        """A destructive re-upload or delete resets the dataset's stream.

        Observations, epochs, the miner high-water mark, the event feed,
        and fired alerts all describe the *replaced* data, so they go;
        alert rules survive — they express monitoring intent about the
        name, not one generation's measurements.  The stream epoch
        restarting at 0 is exactly what distinguishes it from the
        ever-growing destructive generation.
        """
        queries = {
            OBSERVATIONS: {"dataset": name},
            STREAM_EPOCHS: {"name": name},
            STREAM_STATE: {"name": name},
            CAP_EVENTS: {"dataset": name},
            ALERTS: {"dataset": name},
            FEED_SNAPSHOTS: {"dataset": name},
        }
        for collection, query in queries.items():
            self.database.collection(collection).delete_many(query)
            # Sweep again under the job registry's lock: a stream job
            # cancelled above may have committed an epoch since.
            self.jobs.store.persist_removal(collection, query)

    def _bump_generation(self, name: str) -> None:
        """Advance a dataset's generation in the shared store.

        Runs inside the store's exclusive section so concurrent bumps from
        several processes serialize: each one replays peers' records first,
        then appends its own increment.  (In memory, ``exclusive`` is just
        the process-local lock.)
        """
        collection = self.database.collection(_GENERATIONS)
        with self.database.exclusive():
            document = collection.find_one({"name": name})
            if document is None:
                collection.insert_one({"name": name, "generation": 1})
            else:
                collection.update_one(
                    {"name": name}, {"generation": document["generation"] + 1}
                )

    def dataset_generation(self, name: str) -> int:
        """The current generation of ``name`` (0 until first upload).

        Reads through the shared store — with a peer-visible refresh — so
        a runner's mid-mine currency check observes a re-upload that
        happened in another process.
        """
        self._refresh_shared()
        document = self.database.collection(_GENERATIONS).find_one({"name": name})
        return int(document["generation"]) if document else 0

    # -- result resources -------------------------------------------------------

    def get_result_document(self, key: str) -> Mapping[str, Any]:
        """The stored ``cap_results`` document for one key; 404 when absent."""
        document = self.database[_RESULTS].find_one({"key": key})
        if document is None:
            # A worker in another process may have published it.
            self._refresh_shared()
            document = self.database[_RESULTS].find_one({"key": key})
        if document is None:
            raise HTTPError(404, f"unknown result {key!r}", code="unknown_result")
        return document

    def forget_result(self, key: str) -> None:
        """Drop one stored result."""
        self.cache.delete_key(key)
        # Sweep again under the job registry's lock: a peer may have
        # republished the key since the delete above.
        self.jobs.store.persist_removal(_RESULTS, {"key": key})

    # -- async mining jobs ------------------------------------------------------

    def submit_mine_job(
        self,
        dataset: SensorDataset,
        params: MiningParameters,
        distributed: bool = False,
        plan_workers: int | None = None,
        trace_id: str | None = None,
    ) -> tuple[Job, bool]:
        """Open (or dedup onto) the async mining job for (dataset, params).

        The runner executes on an executor thread and funnels its result
        through the exact sync path — :meth:`ResultCache.mine_cached` — so
        async-mined CAPs land in the same ``cap_results`` documents (and
        the same memoized-deserialization path) that result reads and map
        clicks use.

        A re-upload or delete of the dataset while the job is in flight
        makes the captured dataset object stale: :meth:`put_dataset` /
        :meth:`delete_dataset` bump the dataset's generation and request
        cancellation of its jobs, and the runner checks the generation
        *before publishing* (so CAPs mined from replaced data normally
        never reach the cache) plus once more after, withdrawing the entry
        if a re-upload slipped between check and put.  Either way the job
        ends ``cancelled``, never serving superseded data.

        ``distributed=True`` submits the job as a distributed *parent*: the
        scheduled runner is the planner, which splits the mine into shard
        sub-jobs + a merge sub-job that any process's polling worker can
        claim under its own lease.
        """
        key = cache_key(dataset.name, params)
        if distributed:
            job, created = self.jobs.store.open_job(
                dataset.name,
                params.to_document(),
                key,
                distributed=True,
                plan_workers=plan_workers,
                trace_id=trace_id,
            )
            if created:
                # The planner runs as the parent's claimed execution; the
                # runner needs the job id, which only exists post-open.
                self.jobs.schedule(job.job_id, self._planner_runner(job.job_id))
            return job, created
        runner = self._mine_runner(dataset, params, key)
        return self.jobs.submit(
            dataset.name, params.to_document(), key, runner, trace_id=trace_id
        )

    def submit_stream_job(
        self,
        dataset: SensorDataset,
        params: MiningParameters,
        trace_id: str | None = None,
    ) -> tuple[Job, bool]:
        """Open (or dedup onto) the resident streaming-miner job.

        ``mode=streaming`` turns the (dataset, parameters) pair into a
        long-lived ``stream`` job: it mines the epoch-0 baseline, then
        drains observation batches as they are appended, re-mining
        incrementally and publishing CAP deltas to the change feed (see
        :mod:`repro.stream`).  One per dataset — resubmission dedups onto
        the live job.  Residency is implemented as lease-claim/release
        cycles driven by the polling worker (:meth:`start_job_worker`), and
        on a store path recovery replays the WAL-backed observation log.
        """
        if params.segmentation != "none":
            raise HTTPError(
                400,
                "mode=streaming requires segmentation='none': smoothing is a "
                "whole-series operation and cannot be maintained incrementally",
                code="invalid_parameters",
            )
        key = cache_key(dataset.name, params)
        job, created = self.jobs.store.open_stream_job(
            dataset.name, params.to_document(), key, trace_id=trace_id
        )
        if created:
            self.jobs.schedule(job.job_id, self._stream_runner(job))
        return job, created

    def _stream_runner(self, job: Job):
        """The resident streaming miner's claimed execution (one drain).

        Replays the observation log to the persisted high-water mark,
        drains every pending epoch (extend → component-pruned re-mine →
        event diff → alert evaluation, each persisted atomically), renews
        its lease on a lease/3 beat while working, and once drained-and-
        idle *releases* the claim with a short retry gate and returns
        ``HANDLED`` — the polling worker re-claims it on the next beat, so
        residency never depends on this thread surviving.  A ``kill -9``
        leaves a lapsed lease; the reclaimer's session resumes from the
        high-water mark with deterministic, insert-if-missing events — no
        losses, no duplicates.
        """

        def runner(control):
            store = self.jobs.store
            claimed = store.get(job.job_id)
            if claimed is None or claimed.state != RUNNING:
                raise MiningCancelled(f"stream job {job.job_id} lost its claim")
            attempt = claimed.attempt
            try:
                dataset = self.get_dataset(job.dataset)
            except HTTPError:
                raise MiningCancelled(
                    f"dataset {job.dataset!r} is gone; stream retired"
                ) from None
            params = MiningParameters.from_document(job.parameters)
            generation = self.dataset_generation(job.dataset)
            session = StreamSession(
                self.database,
                dataset,
                params,
                job.key,
                checkpoint=control.checkpoint,
            )

            def on_alert(alert: Mapping[str, Any]) -> None:
                # Every fired alert gets its own span under the stream
                # job, so `repro trace <stream-job>` shows the alert
                # timeline inside the drain that produced it.
                sid = store.spans.begin(
                    job_id=alert["alert_id"],
                    attempt=attempt,
                    worker_id=store.worker_id,
                    name=f"alert:{alert['rule_id']}",
                    kind="alert",
                    trace_id=job.trace_id,
                    parent_job_id=job.job_id,
                )
                store.spans.finish(sid, "ok")

            lease = max(float(store.lease_seconds), 0.1)
            last_renewal = time.monotonic()
            idle_since: float | None = None
            while True:
                control.checkpoint()
                now = time.monotonic()
                if now - last_renewal >= lease / 3.0:
                    store.renew_lease(job.job_id, attempt=attempt)
                    current = store.get(job.job_id)
                    if (
                        current is None
                        or current.state != RUNNING
                        or current.attempt != attempt
                    ):
                        # Reclaimed from under us (lease lapsed under
                        # load); the newer claim owns the stream now.
                        raise MiningCancelled("stream claim lost")
                    last_renewal = now
                if self.dataset_generation(job.dataset) != generation:
                    raise MiningCancelled(
                        f"dataset {job.dataset!r} was replaced; stream superseded"
                    )
                pending = list(session.pending_epochs())
                if pending:
                    for epoch in pending:
                        control.checkpoint()
                        session.process_epoch(epoch, on_alert=on_alert)
                        store.renew_lease(job.job_id, attempt=attempt)
                        last_renewal = time.monotonic()
                    idle_since = None
                    continue
                if idle_since is None:
                    idle_since = now
                if now - idle_since >= self.stream_idle_seconds:
                    store.release(job.job_id, attempt, retry_in=self.stream_poll_seconds)
                    return HANDLED
                time.sleep(0.05)

        return runner

    def _mine_runner(self, dataset: SensorDataset, params: MiningParameters, key: str):
        """The executable work of one mining job (see :meth:`submit_mine_job`)."""
        generation = self.dataset_generation(dataset.name)

        def check_current() -> None:
            if self.dataset_generation(dataset.name) != generation:
                raise MiningCancelled(
                    f"dataset {dataset.name!r} was replaced while mining"
                )

        def runner(control) -> str:
            delay = float(os.environ.get(_MINE_DELAY_ENV, 0) or 0)
            if delay > 0:  # fault-injection harness only; see _MINE_DELAY_ENV
                deadline = time.monotonic() + delay
                while time.monotonic() < deadline:
                    control.checkpoint()
                    time.sleep(min(0.05, max(0.0, deadline - time.monotonic())))
            cached = self.cache.get(dataset.name, params)
            if cached is None:
                miner = MiscelaMiner(params)
                result = miner.mine(dataset, control=control)
                check_current()  # never publish a superseded result
                self.cache.put(result)
                try:
                    check_current()
                except MiningCancelled:
                    # Re-upload interleaved with the put: withdraw it.
                    self.cache.delete_key(key)
                    raise
            return key

        return runner

    def _planner_runner(self, job_id: str):
        """Submit-path wrapper: resolve the claim, then run the planner."""

        def runner(control):
            job = self.jobs.store.get(job_id)
            if job is None:
                raise MiningCancelled(f"job {job_id} vanished before planning")
            return self._run_planner(job, control)

        return runner

    def _run_planner(self, job: Job, control):
        """The distributed parent's planning step (claimed like any job).

        Pure planning + one idempotent store write: re-running after a
        planner crash regenerates the identical plan (``plan_mine`` is
        deterministic in the stored submission), and ``finish_planning``
        skips sub-jobs that already exist.
        """
        store = self.jobs.store
        current = store.get(job.job_id)  # the claim this runner executes under
        if current is None:
            raise MiningCancelled(f"job {job.job_id} vanished while planning")
        dataset = self.get_dataset(job.dataset)
        params = MiningParameters.from_document(job.parameters)
        generation = self.dataset_generation(job.dataset)
        plan = plan_mine(dataset, params, store.plan_workers(job.job_id))
        control.checkpoint()
        store.finish_planning(
            job.job_id,
            current.attempt,
            shard_units=plan.shard_documents,
            mode=plan.mode,
            horizon=plan.horizon,
            generation=generation,
        )
        return HANDLED

    def _shard_runner(self, job: Job):
        """One shard sub-job: execute its persisted units, persist output.

        The ``mid-shard`` crash point fires after the compute but before
        ``complete_shard`` — work done but never recorded, the hardest
        takeover case (the shard re-runs elsewhere; the audit log proves
        only the lost shard does).
        """

        def runner(control):
            store = self.jobs.store
            spec = store.shard_spec(job.job_id)
            delay = float(os.environ.get(_SHARD_DELAY_ENV, 0) or 0)
            if delay > 0:  # fault-injection harness only; see _SHARD_DELAY_ENV
                deadline = time.monotonic() + delay
                while time.monotonic() < deadline:
                    control.checkpoint()
                    time.sleep(min(0.05, max(0.0, deadline - time.monotonic())))
            if self.dataset_generation(job.dataset) != spec["generation"]:
                raise MiningCancelled(
                    f"dataset {job.dataset!r} was replaced while mining"
                )
            dataset = self.get_dataset(job.dataset)
            params = MiningParameters.from_document(job.parameters)
            profiler = Profiler()
            if control is not None:
                control.profiler = profiler
            started = time.monotonic()
            output = execute_units(
                dataset, params, spec["units"], spec["mode"], spec["horizon"],
                control=control,
            )
            elapsed = time.monotonic() - started
            maybe_fault("mid-shard")
            # The measured wall time + phase breakdown land on the shard
            # sub-job document — the ground truth estimate_seed_cost
            # calibration reads back.
            store.complete_shard(
                job.job_id, job.attempt, output, elapsed,
                timings=profiler.to_document(),
            )
            return HANDLED

        return runner

    def _merge_runner(self, job: Job):
        """The merge sub-job: reassemble shard outputs, publish the result.

        Funnels through the same ``cap_results`` documents the sync path
        writes, so the published resource is byte-identical to a serial
        mine of the same (dataset, parameters).  Exactly-once across
        crashes: the cache probe makes a re-run after a post-publish crash
        a no-op, and the ``before-merge-publish`` crash point proves a
        pre-publish crash just re-merges from the durable shard outputs.
        """

        def runner(control):
            store = self.jobs.store
            spec = store.shard_spec(job.job_id)
            params = MiningParameters.from_document(job.parameters)

            def check_current() -> None:
                if self.dataset_generation(job.dataset) != spec["generation"]:
                    raise MiningCancelled(
                        f"dataset {job.dataset!r} was replaced while mining"
                    )

            check_current()
            cached = self.cache.get(job.dataset, params)
            if cached is None:
                shard_results = store.shard_outputs(spec["parent_id"])
                outputs = [
                    entry
                    for shard in shard_results
                    for entry in shard["output"]
                ]
                control.checkpoint()
                caps = merge_outputs(spec["mode"], outputs)
                result = MiningResult(
                    dataset_name=job.dataset,
                    parameters=params,
                    caps=caps,
                    elapsed_seconds=sum(
                        shard["elapsed_seconds"] for shard in shard_results
                    ),
                )
                check_current()  # never publish a superseded result
                maybe_fault("before-merge-publish")
                self.cache.put(result)
                try:
                    check_current()
                except MiningCancelled:
                    # Re-upload interleaved with the put: withdraw it.
                    self.cache.delete_key(job.key)
                    raise
            return job.key

        return runner

    def runner_for_job(self, job: Job):
        """Rebuild a claimed job's work from its stored document.

        The polling :class:`~repro.jobs.JobWorker` executes jobs *other*
        processes enqueued — no submit-time closure exists here, so the
        dataset is loaded (refreshing from the shared store if needed) and
        the parameters re-parsed from the job's canonical document.
        Dispatches on the job's kind: shard and merge sub-jobs get their
        distributed runners, an unplanned distributed parent gets the
        planner, and everything else is a whole mine.
        """
        if job.kind == KIND_SHARD:
            return self._shard_runner(job)
        if job.kind == KIND_MERGE:
            return self._merge_runner(job)
        if job.kind == KIND_STREAM:
            return self._stream_runner(job)
        if job.distributed and not job.planned:
            return lambda control: self._run_planner(job, control)
        dataset = self.get_dataset(job.dataset)
        params = MiningParameters.from_document(job.parameters)
        return self._mine_runner(dataset, params, job.key)

    def recover_jobs(self) -> dict[str, list[str]]:
        """Startup recovery against the job registry.

        Requeues interrupted ``running`` jobs whose lease lapsed,
        republishes ``succeeded`` ones from their stored result keys, and
        schedules every ``queued`` job onto this process's executor so
        work accepted by a dead process still completes — even with the
        polling worker disabled.
        """
        summary = self.jobs.store.recover()
        queued = self.jobs.list(QUEUED)
        # Resident stream jobs are top-level too, but live outside the
        # default (mine) listing; requeue-recovered ones must also resume.
        queued += self.jobs.store.list(QUEUED, kind=KIND_STREAM)
        for job in queued:
            # Top-level jobs only (shard/merge sub-jobs are the polling
            # worker's to claim — their readiness gates live in the store).
            self.jobs.schedule(job.job_id, self._deferred_runner(job))
        return summary

    def _deferred_runner(self, job: Job):
        """Build the job's runner on the executor thread, not at recovery.

        Startup must not crash (or synchronously load every queued job's
        dataset) because one recovered job is broken: a failing
        ``runner_for_job`` — e.g. the dataset document is gone — raises
        inside the claimed execution, where the standard tail marks the
        job ``failed`` with the structured error instead of killing
        ``create_app``.
        """

        def runner(control):
            return self.runner_for_job(job)(control)

        return runner

    def start_job_worker(self, interval: float = 1.0) -> JobWorker:
        """Run a lease-polling worker thread against the job registry."""
        if self._worker is not None and self._worker.is_alive():
            return self._worker
        self._worker = JobWorker(
            self.jobs.store, self.runner_for_job, interval=interval
        )
        self._worker.start()
        return self._worker

    def stop_job_worker(self, wait: bool = False) -> None:
        """Signal (and with ``wait=True`` join) the polling worker.

        Idempotent; the reference is only dropped once the thread is
        actually gone, so signal-now/join-later sequencing works
        (:meth:`repro.server.app.App.close` relies on it).
        """
        worker = self._worker
        if worker is None:
            return
        worker.stop(wait=wait)
        if not worker.is_alive():
            self._worker = None


# -- shared handler cores (used by both the legacy shims and the v1 API) -------


def parse_upload_begin(request: Request) -> tuple[list, list]:
    """Parse an upload/begin body into (locations, attributes)."""
    payload = request.json()
    if not isinstance(payload, dict):
        raise HTTPError(400, "expected a JSON object")
    missing = {"location_csv", "attribute_csv"} - set(payload)
    if missing:
        raise HTTPError(400, f"missing fields: {sorted(missing)}", code="missing_fields")
    locations = read_location_csv(io.StringIO(payload["location_csv"]))
    attributes = read_attribute_csv(io.StringIO(payload["attribute_csv"]))
    return locations, attributes


def parse_parameters(document: Any) -> MiningParameters:
    """Parameters from their JSON document; 400 on anything invalid."""
    try:
        return MiningParameters.from_document(document)
    except (ValueError, TypeError) as exc:
        raise HTTPError(
            400, f"invalid parameters: {exc}", code="invalid_parameters"
        ) from exc


def parse_mine_mode(payload: Mapping[str, Any], request: Request) -> str:
    mode = str(payload.get("mode") or request.param("mode") or "sync")
    if mode not in ("sync", "async", "distributed", "streaming"):
        raise HTTPError(
            400,
            f"mode must be 'sync', 'async', 'distributed', or 'streaming', "
            f"got {mode!r}",
            code="invalid_mode",
        )
    return mode


def dataset_result_documents(state: ServerState, name: str) -> list[Mapping[str, Any]]:
    """Every stored result document for one dataset (404s unknown names)."""
    state.get_dataset(name)  # 404 for unknown datasets
    return state.database[_RESULTS].find({"payload.dataset": name})


def correlated_sensors_core(
    state: ServerState, name: str, sensor_id: str
) -> dict[str, list[str]]:
    """The map's click interaction: who is correlated with this sensor?"""
    dataset = state.get_dataset(name)
    if sensor_id not in dataset:
        raise HTTPError(
            404,
            f"unknown sensor {sensor_id!r} in dataset {name!r}",
            code="unknown_sensor",
        )
    documents = state.database[_RESULTS].find({"payload.dataset": name})
    if not documents:
        raise HTTPError(
            409,
            f"no mined results for dataset {name!r}; mine first",
            code="no_results",
        )
    correlated: dict[str, set[str]] = {}
    for doc in documents:
        result = state.cache.decode(doc)
        for cap in result.caps_containing(sensor_id):
            for other in cap.sensor_ids:
                if other != sensor_id:
                    correlated.setdefault(other, set()).update(cap.attributes)
    return {sid: sorted(attrs) for sid, attrs in sorted(correlated.items())}


def render_viz_svg(state: ServerState, kind: str, name: str, request: Request):
    """Render one visualization; returns ``(svg, title)``.

    Shared by the legacy HTML endpoints and the content-negotiating v1
    endpoints — only the final wrapping (HTML page vs raw SVG) differs.
    """
    dataset = state.get_dataset(name)
    if kind == "map":
        from ..viz.map_view import render_map  # local import: viz is optional at runtime

        highlight = request.param("highlight")
        highlighted = set(highlight.split(",")) if highlight else set()
        return render_map(dataset, highlighted_sensors=highlighted), f"{dataset.name} sensors"
    if kind == "heatmap":
        from ..core.evolving import extract_all_evolving
        from ..viz.heatmap import render_coevolution_heatmap

        sensors_param = request.param("sensors")
        sensor_ids = sensors_param.split(",") if sensors_param else list(
            dataset.sensor_ids[:20]
        )
        for sid in sensor_ids:
            if sid not in dataset:
                raise HTTPError(404, f"unknown sensor {sid!r}", code="unknown_sensor")
        # Use the most recently cached parameters for this dataset, or a
        # neutral default, to derive evolving sets for the heatmap.
        documents = state.database[_RESULTS].find({"payload.dataset": dataset.name})
        if documents:
            params = MiningParameters.from_document(
                documents[-1]["payload"]["parameters"]
            )
        else:
            params = MiningParameters(
                evolving_rate=1.0, distance_threshold=1.0,
                max_attributes=2, min_support=1,
            )
        evolving = extract_all_evolving(dataset, params)
        svg = render_coevolution_heatmap(dataset, evolving, sensor_ids)
        return svg, f"{dataset.name} co-evolution"
    if kind == "timeseries":
        from ..viz.timeseries_view import render_timeseries

        sensors_param = request.param("sensors")
        if not sensors_param:
            raise HTTPError(400, "pass ?sensors=id1,id2,...", code="missing_sensors")
        sensor_ids = sensors_param.split(",")
        for sid in sensor_ids:
            if sid not in dataset:
                raise HTTPError(404, f"unknown sensor {sid!r}", code="unknown_sensor")
        return render_timeseries(dataset, sensor_ids), f"{dataset.name} measurements"
    raise HTTPError(404, f"unknown visualization {kind!r}")  # pragma: no cover


def evicted_job_response(state: ServerState, job_id: str) -> Response | None:
    """A 301 at the surviving result resource for an evicted succeeded job.

    Terminal-job retention evicts old job *metadata*, but a ``Location:
    …/jobs/{id}`` link handed out this process lifetime must keep leading
    to the result it produced: the registry retains the job's result-key
    mapping, and this renders it as a permanent redirect.  ``None`` when
    the id is simply unknown (the caller 404s as before).
    """
    result_key = state.jobs.evicted_result_key(job_id)
    if result_key is None:
        return None
    if state.database[_RESULTS].find_one({"key": result_key}) is None:
        return None  # the result itself was deleted; nothing to point at
    location = f"/api/v1/results/{result_key}"
    response = json_response(
        {
            "job_id": job_id,
            "result_key": result_key,
            "detail": "job metadata evicted; its result resource survives",
            "links": {"result": location},
        },
        status=301,
    )
    response.headers["Location"] = location
    return response


def admin_stats_payload(state: ServerState) -> dict[str, Any]:
    return {
        "store": state.database.stats(),
        "cache": {
            "entries": len(state.cache),
            "hits": state.cache.stats.hits,
            "misses": state.cache.stats.misses,
            "evictions": state.cache.stats.evictions,
            "hit_rate": state.cache.stats.hit_rate,
        },
        "jobs": state.jobs.counters(),
        # Family -> aggregate value; the full labelled series live at
        # GET /api/v1/metrics in Prometheus text form.
        "metrics": get_registry().summary(),
    }


def results_by_dataset_payload(state: ServerState) -> dict[str, Any]:
    """Aggregation-pipeline summary of the cached results per dataset."""
    rows = state.database[_RESULTS].aggregate(
        [
            {"$project": {
                "dataset": "$payload.dataset",
                "num_caps": "$result.caps",
                "min_support": "$payload.parameters.min_support",
            }},
            {"$unwind": "$num_caps"},
            {"$group": {"_id": "$dataset", "total_caps": {"$count": 1}}},
            {"$sort": {"_id": 1}},
        ]
    )
    settings = state.database[_RESULTS].aggregate(
        [
            {"$group": {"_id": "$payload.dataset", "settings": {"$count": 1}}},
            {"$sort": {"_id": 1}},
        ]
    )
    per_dataset = {row["_id"]: {"total_caps": row["total_caps"]} for row in rows}
    for row in settings:
        per_dataset.setdefault(row["_id"], {"total_caps": 0})["settings"] = row["settings"]
    return {"results_by_dataset": per_dataset}


def result_payload(result: MiningResult) -> dict[str, Any]:
    """The legacy full-fat result payload (``POST /mine``'s 200 body)."""
    return {
        "dataset": result.dataset_name,
        "parameters": result.parameters.to_document(),
        "num_caps": result.num_caps,
        "caps": [cap.to_document() for cap in result.caps],
        "from_cache": result.from_cache,
        "elapsed_seconds": result.elapsed_seconds,
    }


# Kept under the old private name: tests and older callers import it.
_result_payload = result_payload


def register_routes(router: Any, state: ServerState) -> None:
    """Attach the legacy unversioned routes as v1 deprecation shims."""
    router_ref = weakref.ref(router)  # no cycle: see register_v1_routes

    @router.get(
        "/", deprecated=True, successor="/api/v1",
        responses={"200": "service banner and the full route list"},
    )
    def index(request: Request) -> Response:
        """Service banner with every registered route (legacy index)."""
        return json_response(
            {
                "service": "miscela-v",
                "routes": [f"{m} {p}" for m, p in router_ref().routes()],
            }
        )

    # -- upload (Figure 2, stage 1) -------------------------------------------

    @router.post(
        "/datasets/{name}/upload/begin",
        deprecated=True, successor="/api/v1/datasets/{name}/upload/begin",
        responses={"201": "upload session opened", "409": "session already open"},
    )
    def upload_begin(request: Request) -> Response:
        """Open a chunked-upload session (location + attribute CSVs)."""
        name = request.path_params["name"]
        locations, attributes = parse_upload_begin(request)
        state.begin_upload(name, locations, attributes)
        return json_response({"dataset": name, "status": "upload started"}, status=201)

    @router.post(
        "/datasets/{name}/upload/chunk",
        deprecated=True, successor="/api/v1/datasets/{name}/upload/chunk",
        responses={"200": "chunk accepted", "409": "no session open"},
    )
    def upload_chunk(request: Request) -> Response:
        """Append one ≤10,000-line data.csv chunk to the open session."""
        name = request.path_params["name"]
        chunks, rows, total = state.append_upload_chunk(name, request.text())
        return json_response(
            {
                "dataset": name,
                "chunk": chunks,
                "rows_in_chunk": rows,
                "rows_total": total,
            }
        )

    @router.post(
        "/datasets/{name}/upload/finish",
        deprecated=True, successor="/api/v1/datasets/{name}/upload/finish",
        responses={"201": "dataset validated and stored", "409": "no session open"},
    )
    def upload_finish(request: Request) -> Response:
        """Validate, assemble, and store the uploaded dataset."""
        name = request.path_params["name"]
        dataset = state.finish_upload(name)
        return json_response(
            {"dataset": name, "summary": dataset.describe()}, status=201
        )

    @router.post(
        "/datasets/{name}/upload/abort",
        deprecated=True, successor="/api/v1/datasets/{name}/upload/abort",
        responses={"200": "session discarded", "409": "no session open"},
    )
    def upload_abort(request: Request) -> Response:
        """Discard an open upload session (recover from a failed upload)."""
        name = request.path_params["name"]
        if not state.abort_upload(name):
            raise HTTPError(
                409,
                f"no upload in progress for dataset {name!r}",
                code="no_upload_in_progress",
            )
        return json_response({"dataset": name, "status": "upload aborted"})

    # -- dataset registry -------------------------------------------------------

    @router.get(
        "/datasets", deprecated=True, successor="/api/v1/datasets",
        responses={"200": "uploaded dataset names"},
    )
    def list_datasets(request: Request) -> Response:
        """List the uploaded dataset names."""
        return json_response({"datasets": state.dataset_names()})

    @router.get(
        "/datasets/{name}", deprecated=True, successor="/api/v1/datasets/{name}",
        responses={"200": "dataset summary", "404": "unknown dataset"},
    )
    def describe_dataset(request: Request) -> Response:
        """Describe one dataset (sensors, records, attributes, time span)."""
        dataset = state.get_dataset(request.path_params["name"])
        return json_response(dataset.describe())

    @router.delete(
        "/datasets/{name}", deprecated=True, successor="/api/v1/datasets/{name}",
        responses={"200": "dataset deleted", "404": "unknown dataset"},
    )
    def delete_dataset(request: Request) -> Response:
        """Delete a dataset and every result mined from it."""
        if not state.delete_dataset(request.path_params["name"]):
            raise HTTPError(
                404,
                f"unknown dataset {request.path_params['name']!r}",
                code="unknown_dataset",
            )
        return json_response({"deleted": request.path_params["name"]})

    # -- mining (Figure 2, stages 2 and 3) ----------------------------------------

    @router.post(
        "/mine", deprecated=True, successor="/api/v1/datasets/{name}/results",
        responses={
            "200": "the full mined result (sync mode)",
            "202": "job accepted (mode=async)",
            "400": "bad body/parameters/mode",
            "404": "unknown dataset",
        },
    )
    def mine(request: Request) -> Response:
        """RPC-style mining: full payload sync, or job submission async."""
        payload = request.json()
        if not isinstance(payload, dict):
            raise HTTPError(400, "expected a JSON object")
        if "dataset" not in payload or "parameters" not in payload:
            raise HTTPError(
                400, "body must contain 'dataset' and 'parameters'",
                code="missing_fields",
            )
        mode = parse_mine_mode(payload, request)
        dataset = state.get_dataset(str(payload["dataset"]))
        params = parse_parameters(payload["parameters"])
        if mode == "streaming":
            job, created = state.submit_stream_job(dataset, params)
            return json_response(
                {
                    "job_id": job.job_id,
                    "state": job.state,
                    "deduplicated": not created,
                },
                status=202,
            )
        if mode in ("async", "distributed"):
            job, created = state.submit_mine_job(
                dataset, params, distributed=(mode == "distributed")
            )
            return json_response(
                {
                    "job_id": job.job_id,
                    "state": job.state,
                    "deduplicated": not created,
                },
                status=202,
            )
        result = state.cache.mine_cached(dataset, params)
        return json_response(result_payload(result))

    # -- async jobs (submit via POST /mine mode=async) -----------------------------

    @router.get(
        "/jobs", deprecated=True, successor="/api/v1/jobs",
        query=({"name": "status", "type": "string",
                "description": "filter by job state"},),
        responses={"200": "job documents", "400": "unknown status"},
    )
    def list_jobs(request: Request) -> Response:
        """List mining jobs, optionally filtered by state."""
        status = request.param("status")
        try:
            jobs = state.jobs.list(status)
        except JobStateError as exc:
            raise HTTPError(400, str(exc), code="invalid_status") from exc
        return json_response({"jobs": [job.to_document() for job in jobs]})

    @router.get(
        "/jobs/{job_id}", deprecated=True, successor="/api/v1/jobs/{job_id}",
        responses={"200": "job document (result inlined on success)",
                   "301": "metadata evicted; Location points at the result",
                   "404": "unknown job"},
    )
    def job_status(request: Request) -> Response:
        """One job's status/progress; inlines the result once succeeded."""
        job_id = request.path_params["job_id"]
        job = state.jobs.get(job_id)
        if job is None:
            evicted = evicted_job_response(state, job_id)
            if evicted is not None:
                return evicted
            raise HTTPError(404, f"unknown job {job_id!r}", code="unknown_job")
        document = job.to_document()
        if job.result_key is not None:
            stored = state.database[_RESULTS].find_one({"key": job.result_key})
            if stored is not None:
                # Rendered through the same memoized deserialization the
                # sync cache-hit path uses, so the payload is byte-identical
                # to ``POST /mine`` for the same (dataset, parameters).
                document["result"] = result_payload(
                    state.cache.decode(stored)
                )
        return json_response(document)

    @router.post(
        "/jobs/{job_id}/cancel", deprecated=True,
        successor="/api/v1/jobs/{job_id}/cancel",
        responses={"200": "cancellation requested", "404": "unknown job",
                   "409": "job already finished"},
    )
    def job_cancel(request: Request) -> Response:
        """Request cooperative cancellation of a queued/running job."""
        job_id = request.path_params["job_id"]
        try:
            job = state.jobs.cancel(job_id)
        except KeyError as exc:
            raise HTTPError(404, f"unknown job {job_id!r}", code="unknown_job") from exc
        except JobStateError as exc:
            raise HTTPError(409, str(exc), code="job_finished") from exc
        return json_response(job.to_document())

    @router.get(
        "/caps/{dataset}", deprecated=True,
        successor="/api/v1/datasets/{name}/results",
        responses={"200": "cached result listing", "404": "unknown dataset"},
    )
    def cached_results(request: Request) -> Response:
        """List the cached mining results for one dataset."""
        name = request.path_params["dataset"]
        documents = dataset_result_documents(state, name)
        return json_response(
            {
                "dataset": name,
                "cached_results": [
                    {
                        "key": doc["key"],
                        "parameters": doc["payload"]["parameters"],
                        "num_caps": len(doc["result"]["caps"]),
                    }
                    for doc in documents
                ],
            }
        )

    @router.get(
        "/caps/{dataset}/sensors/{sensor_id}", deprecated=True,
        successor="/api/v1/datasets/{name}/sensors/{sensor_id}/correlated",
        responses={"200": "correlated sensors with shared attributes",
                   "404": "unknown dataset/sensor", "409": "nothing mined yet"},
    )
    def correlated_sensors(request: Request) -> Response:
        """The map's click interaction: who is correlated with this sensor?"""
        name = request.path_params["dataset"]
        sensor_id = request.path_params["sensor_id"]
        correlated = correlated_sensors_core(state, name, sensor_id)
        return json_response(
            {"dataset": name, "sensor": sensor_id, "correlated": correlated}
        )

    # -- visualization ------------------------------------------------------------

    @router.get(
        "/viz/{dataset}/map", deprecated=True,
        successor="/api/v1/datasets/{name}/viz/map",
        query=({"name": "highlight", "type": "string",
                "description": "comma-separated sensor ids to highlight"},),
        responses={"200": "HTML page with the sensor map"},
    )
    def viz_map(request: Request) -> Response:
        """Sensor map as an HTML page."""
        svg, title = render_viz_svg(state, "map", request.path_params["dataset"], request)
        return html_response(svg.to_html_page(title=title))

    @router.get(
        "/viz/{dataset}/heatmap", deprecated=True,
        successor="/api/v1/datasets/{name}/viz/heatmap",
        query=({"name": "sensors", "type": "string",
                "description": "comma-separated sensor ids (default: first 20)"},),
        responses={"200": "HTML page with the co-evolution heatmap"},
    )
    def viz_heatmap(request: Request) -> Response:
        """Co-evolution heatmap as an HTML page."""
        svg, title = render_viz_svg(
            state, "heatmap", request.path_params["dataset"], request
        )
        return html_response(svg.to_html_page(title=title))

    @router.get(
        "/viz/{dataset}/timeseries", deprecated=True,
        successor="/api/v1/datasets/{name}/viz/timeseries",
        query=({"name": "sensors", "type": "string",
                "description": "comma-separated sensor ids (required)"},),
        responses={"200": "HTML page with measurement time series"},
    )
    def viz_timeseries(request: Request) -> Response:
        """Measurement time series as an HTML page."""
        svg, title = render_viz_svg(
            state, "timeseries", request.path_params["dataset"], request
        )
        return html_response(svg.to_html_page(title=title))

    # -- admin ----------------------------------------------------------------------

    @router.get(
        "/admin/results-by-dataset", deprecated=True,
        successor="/api/v1/admin/results-by-dataset",
        responses={"200": "per-dataset cached-result aggregation"},
    )
    def admin_results_by_dataset(request: Request) -> Response:
        """Aggregation-pipeline summary of the cached results per dataset."""
        return json_response(results_by_dataset_payload(state))

    @router.get(
        "/admin/stats", deprecated=True, successor="/api/v1/admin/stats",
        responses={"200": "store/cache/job counters"},
    )
    def admin_stats(request: Request) -> Response:
        """Store, cache, and job-queue counters."""
        return json_response(admin_stats_payload(state))
