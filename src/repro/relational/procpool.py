"""Spawn-based process worker pool executing morsel descriptors.

This is the pool behind the process-parallel executor: instead of
closures (which cannot cross a process boundary), the scheduler in
:mod:`repro.relational.parallel` ships *specs* — small picklable dicts
carrying a pickled morsel plan whose source leaf is a
:class:`~repro.storage.segments.SegmentScan` descriptor (segment path +
chunk indices) — and workers return packed result columns, aggregation
partials, or join pair lists.  Table data itself never crosses the pipe:
workers attach the shared segment files read-only via ``mmap`` and page
only the chunks their morsels name.

Pool mechanics:

* **spawn-based, warm.**  Workers are started with the ``spawn`` start
  method (no inherited locks, mmaps or file descriptors) and kept alive
  across queries in a module-level registry keyed by pool size, so the
  interpreter-startup cost is paid once per process, not per query.
* **self-scheduling.**  Specs go onto one shared task queue, at most two
  per worker in flight; workers claim the next unstarted spec —
  morsel-driven work stealing across processes.
* **ordered results.**  Every result carries its task index; the parent
  reassembles in task order, so downstream merges see morsel order
  exactly as the serial executors would.
* **error parity.**  An exception raised *by the query* inside a worker
  is pickled (round-trip verified in the worker) and re-raised in the
  parent with its original type, lowest task index first.  An
  exception of the *machinery* — a worker killed mid-morsel, an
  unstartable pool — raises
  :class:`~repro.errors.ParallelExecutionError` after the wounded pool
  is drained and torn down (the next run starts a fresh one); the parent
  never hangs on a dead worker.
* **traceable.**  Each worker times its own morsels and returns a
  pickle-safe :class:`~repro.obs.trace.Span` per task; the scheduler
  re-grafts them into the parent trace tree so per-process utilization
  in ``trace query --executor parallel`` is measured inside the worker,
  not inferred by the parent.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import signal
from multiprocessing.connection import wait as _connection_wait
from time import perf_counter
from typing import Any, Callable

from repro.errors import ParallelExecutionError
from repro.obs.trace import Span

#: Worker-side cache bound for shared join builds (keyed by broadcast
#: segment path; entries are per-query, so a handful suffices).
_BUILD_CACHE_LIMIT = 8

#: One spec message: mode + pickled plan + descriptor fields.
Spec = dict[str, Any]

#: (worker id, morsels claimed, busy seconds, per-task spans).
WorkerAccount = tuple[int, int, float, list[Span]]


# -- worker side ----------------------------------------------------------------


_WORKER_DB = None
_WORKER_BUILDS: dict[str, object] = {}


def _worker_context() -> Any:
    """A fresh ExecContext over an empty worker-local database.

    Morsel plans only contain kernel-executable nodes with SegmentScan
    leaves, so the database is never consulted for data — it exists
    because ExecContext requires one.
    """
    from repro.relational.algebra import ExecContext
    from repro.relational.database import Database

    global _WORKER_DB
    if _WORKER_DB is None:
        _WORKER_DB = Database("segment-worker")
    return ExecContext(_WORKER_DB)


def _cached_build(key: str, build: Callable[[], object]) -> object:
    cached = _WORKER_BUILDS.pop(key, None)
    if cached is None:
        cached = build()
    _WORKER_BUILDS[key] = cached
    while len(_WORKER_BUILDS) > _BUILD_CACHE_LIMIT:
        del _WORKER_BUILDS[next(iter(_WORKER_BUILDS))]
    return cached


def _pack_batch(batch: Any) -> tuple[tuple[str, ...], dict[str, list[object]], int]:
    columns = tuple(batch.columns)
    return (columns, {name: list(batch.column(name)) for name in columns}, batch.length)


def execute_spec(spec: Spec) -> Any:
    """Run one morsel spec with the serial batch kernels; return its payload.

    Shared by the worker main loop and by in-process tests that want the
    descriptor path without real subprocesses.
    """
    if spec.get("__sigkill__"):
        # White-box crash hook: die the way an OOM-killed worker would.
        os.kill(os.getpid(), signal.SIGKILL)
    # Imported here (not at module top) so the parent can load this module
    # before the heavyweight executor modules finish importing.
    import repro.storage.segments  # noqa: F401  - registers the SegmentScan kernel
    from repro.relational.vectorize import (
        GroupedAggregation,
        JoinBuild,
        JoinBuildLeft,
        _node_batches,
    )

    plan = pickle.loads(spec["plan"])
    ctx = _worker_context()
    mode = spec["mode"]
    if mode == "pipeline":
        return [_pack_batch(batch) for batch in _node_batches(plan, ctx)]
    if mode == "aggregate":
        grouped = GroupedAggregation(plan)
        for batch in _node_batches(plan.child, ctx):
            grouped.consume(batch)
        return grouped
    if mode == "join_probe":

        def build_right() -> JoinBuild:
            build = JoinBuild(plan, ctx)
            for rbatch in _node_batches(plan.right, ctx):
                build.add(rbatch)
            return build

        build = _cached_build(spec["build_key"], build_right)
        assert isinstance(build, JoinBuild)
        out = []
        for batch in _node_batches(plan.left, ctx):
            joined = build.probe(batch)
            if joined is not None:
                out.append(_pack_batch(joined))
        return out
    if mode == "join_collect":

        def build_left() -> JoinBuildLeft:
            build = JoinBuildLeft(plan, ctx)
            for lbatch in _node_batches(plan.left, ctx):
                build.add_left(lbatch)
            return build

        left_build = _cached_build(spec["build_key"], build_left)
        assert isinstance(left_build, JoinBuildLeft)
        pairs: list[tuple[int, tuple[object, ...]]] = []
        for batch in _node_batches(plan.right, ctx):
            pairs.extend(left_build.collect(batch))
        return pairs
    raise ParallelExecutionError(f"unknown morsel spec mode {mode!r}")


def _pack_error(exc: BaseException) -> tuple[str, Any]:
    """An error payload guaranteed to survive the result queue.

    Pickling an exception can fail on either side (custom ``__init__``
    signatures break unpickling), so the round trip is verified *here*;
    on failure the parent gets enough to rebuild the type, or falls back
    to ParallelExecutionError.
    """
    try:
        blob = pickle.dumps(exc)
        pickle.loads(blob)
        return ("pickled", blob)
    except Exception:
        return ("described", (type(exc).__module__, type(exc).__qualname__, str(exc)))


def _unpack_error(payload: tuple[str, Any]) -> BaseException:
    kind, body = payload
    if kind == "pickled":
        exc = pickle.loads(body)
        assert isinstance(exc, BaseException)
        return exc
    module_name, qualname, text = body
    try:
        import importlib

        obj: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        rebuilt = obj(text)
        if isinstance(rebuilt, BaseException):
            return rebuilt
    except Exception:
        pass
    return ParallelExecutionError(f"worker raised {module_name}.{qualname}: {text}")


def _worker_main(worker_id: int, task_queue: Any, result_queue: Any) -> None:
    """Claim specs until a ``None`` shutdown sentinel arrives."""
    while True:
        message = task_queue.get()
        if message is None:
            return
        run_id, index, spec = message
        started = perf_counter()
        try:
            payload = execute_spec(spec)
            status, body = "ok", payload
        except BaseException as exc:
            status, body = "err", _pack_error(exc)
        busy = perf_counter() - started
        span = Span(
            f"morsel[{index}]",
            attrs={"mode": spec.get("mode"), "pid": os.getpid()},
            duration_s=busy,
        )
        try:
            result_queue.put((run_id, index, worker_id, busy, status, body, span))
        except Exception as exc:  # a payload that cannot be pickled back
            result_queue.put(
                (run_id, index, worker_id, busy, "err", _pack_error(exc), span)
            )


# -- parent side ----------------------------------------------------------------


class _PoolState:
    """One warm set of worker processes plus their shared queues."""

    def __init__(self, workers: int):
        ctx = multiprocessing.get_context("spawn")
        self.workers = workers
        self.tasks = ctx.SimpleQueue()
        self.results = ctx.SimpleQueue()
        self.processes = [
            ctx.Process(
                target=_worker_main,
                args=(i, self.tasks, self.results),
                name=f"repro-segment-worker-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for process in self.processes:
            process.start()

    def dead_workers(self) -> list[Any]:
        return [p for p in self.processes if not p.is_alive()]

    def shutdown(self) -> None:
        """Graceful stop: one sentinel per worker, then join."""
        try:
            for _ in self.processes:
                self.tasks.put(None)
        except Exception:
            pass
        for process in self.processes:
            process.join(timeout=2)
        self.destroy()

    def destroy(self) -> None:
        """Hard stop: kill anything alive, close the queues."""
        for process in self.processes:
            if process.is_alive():
                process.kill()
        for process in self.processes:
            process.join(timeout=5)
        for queue in (self.tasks, self.results):
            try:
                queue.close()
            except Exception:
                pass


_POOLS: dict[int, _PoolState] = {}
_RUN_COUNTER = 0

#: White-box crash hook (tests): SIGKILL the worker executing this task
#: index on the next run_specs call, then self-clear.
_CRASH_TASK_INDEX: int | None = None


def set_crash_hook(task_index: int | None) -> None:
    """Arm the white-box crash hook: the worker claiming ``task_index`` on
    the next :meth:`ProcessWorkerPool.run_specs` call SIGKILLs itself."""
    global _CRASH_TASK_INDEX
    _CRASH_TASK_INDEX = task_index


def shutdown_worker_pools() -> None:
    """Stop every warm worker pool (atexit, and test teardown)."""
    for state in list(_POOLS.values()):
        state.shutdown()
    _POOLS.clear()


atexit.register(shutdown_worker_pools)


def _acquire_pool(workers: int) -> _PoolState:
    state = _POOLS.get(workers)
    if state is not None and not state.dead_workers():
        return state
    if state is not None:
        state.destroy()
        del _POOLS[workers]
    try:
        state = _PoolState(workers)
    except Exception as exc:
        raise ParallelExecutionError(f"cannot start worker pool: {exc}") from exc
    _POOLS[workers] = state
    return state


def _discard_pool(workers: int, state: _PoolState) -> None:
    state.destroy()
    if _POOLS.get(workers) is state:
        del _POOLS[workers]


class ProcessWorkerPool:
    """A handle on the warm worker processes for one pool size."""

    def __init__(self, workers: int):
        self.workers = max(1, int(workers))

    def run_specs(self, specs: list[Spec]) -> tuple[list[Any], list[WorkerAccount]]:
        """Execute specs on warm worker processes; results in spec order."""
        global _RUN_COUNTER, _CRASH_TASK_INDEX
        n = len(specs)
        if n == 0:
            return [], []
        if _CRASH_TASK_INDEX is not None and 0 <= _CRASH_TASK_INDEX < n:
            doomed = dict(specs[_CRASH_TASK_INDEX])
            doomed["__sigkill__"] = True
            specs = list(specs)
            specs[_CRASH_TASK_INDEX] = doomed
            _CRASH_TASK_INDEX = None
        count = min(self.workers, n)
        state = _acquire_pool(count)
        _RUN_COUNTER += 1
        run_id = _RUN_COUNTER
        results: list[Any] = [None] * n
        errors: list[BaseException | None] = [None] * n
        accounts: dict[int, list[Any]] = {}
        sent = 0
        collected = 0
        reader = state.results._reader  # type: ignore[attr-defined]
        sentinels = [p.sentinel for p in state.processes]
        while collected < n:
            # At most two specs per worker in flight, topped up between
            # reads: queuing every spec up front fills the task pipe while
            # workers block writing results nobody is reading — a deadlock.
            while sent < n and sent - collected < 2 * count:
                state.tasks.put((run_id, sent, specs[sent]))
                sent += 1
            _connection_wait([reader, *sentinels])
            progressed = False
            while not state.results.empty():
                run, index, worker_id, busy, status, body, span = state.results.get()
                if run != run_id:
                    continue  # stray result from a crashed earlier run
                progressed = True
                collected += 1
                account = accounts.setdefault(worker_id, [0, 0.0, []])
                account[0] += 1
                account[1] += busy
                account[2].append(span)
                if status == "ok":
                    results[index] = body
                else:
                    errors[index] = _unpack_error(body)
            if collected >= n and not state.dead_workers():
                break
            dead = state.dead_workers()
            if dead and not progressed:
                pids = [p.pid for p in dead]
                codes = [p.exitcode for p in dead]
                _discard_pool(count, state)
                raise ParallelExecutionError(
                    f"worker process {pids} died mid-morsel "
                    f"(exit codes {codes}); pool drained and restarted on next use"
                )
            if collected >= n:
                # Results all arrived but a worker died after finishing —
                # retire the wounded pool quietly; the run itself succeeded.
                _discard_pool(count, state)
                break
        for error in errors:
            if error is not None:
                raise error
        return results, [
            (worker_id, account[0], account[1], account[2])
            for worker_id, account in sorted(accounts.items())
        ]
