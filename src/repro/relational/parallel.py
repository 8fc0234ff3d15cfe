"""Morsel-driven process-parallel execution of vectorized subtrees.

The third execution strategy over the same plan semantics: a fully
vectorized subtree is decomposed into *stages* — a record-wise pipeline
over a Scan/PartitionScan leaf, an Aggregate over such a pipeline, or the
probe side of a Join — and each eligible stage is split into *morsels*,
contiguous runs of source chunks.  Morsels self-schedule onto a warm
:class:`~repro.relational.procpool.ProcessWorkerPool`, the dispatch
discipline of Leis et al.'s morsel-driven scheduling: a worker that
finishes early claims the next unstarted morsel, so load imbalance is
stolen away at morsel granularity without a separate stealing protocol.

Morsels travel as *descriptors*, not data: the stage plan is cloned with
its source leaf replaced by a :class:`~repro.storage.segments.SegmentScan`
naming a shared mmap-backed segment file plus one morsel's chunk indices,
pickled, and executed by workers running the *existing* batch kernels
from :mod:`repro.relational.vectorize`.  Partition-wise operators share
state the same way —

- Aggregate: each morsel consumes into its own
  :class:`~repro.relational.vectorize.GroupedAggregation`; partials merge
  in morsel order, reproducing the serial pass's first-seen group order
  and per-group value order exactly.
- Join: the build side is broadcast once through a segment file; workers
  build their hash table locally and probe their morsels (JoinBuildLeft
  pair lists are absorbed in task order for left-built joins).
- Everything else (Sort, TopK, Distinct, Limit, Union, …) runs serially
  over its children's outputs.

Determinism contract: segment chunk order is extent order and results are
absorbed in task order, so rows are identical (values AND order) to the
serial batch executor and therefore to the interpreter.  When a morsel
raises, the exception of the lowest task index is re-raised (error-*type*
parity only, the same relaxation the batch path documents).

Serial is the floor.  The process gate (:func:`set_worker_pool_mode`,
``REPRO_WORKER_POOL``) is *forced* for the equivalence and crash suites,
and otherwise *auto*: on a single core or a single worker it is off, and
per stage it refuses inputs too small to amortize the pickling and a
segment build (``cost.py`` row estimates).  Stages a process cannot run
(multi-partition scans, stale schemes, unpicklable plans) are refused in
either mode.  A refused stage runs inline through the serial batch
kernels on the calling thread; every decision is recorded in the trace
gauges (``pool``, ``process_pool_disabled``, ``parallel_fallbacks``).
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Iterator

from repro.relational.algebra import (
    Aggregate,
    Compute,
    ExecContext,
    Join,
    PartitionScan,
    Plan,
    Project,
    Rename,
    Row,
    Scan,
    Select,
)
from repro.relational.batch import Batch
from repro.relational.query import _with_children
from repro.relational.stats import SKIP_CHUNK, SelectAnalysis, statistics_enabled
from repro.relational.vectorize import (
    _KERNELS,
    GroupedAggregation,
    JoinBuild,
    JoinBuildLeft,
    _node_batches,
    aggregate_output_columns,
)

if TYPE_CHECKING:
    from repro.relational.table import Table
    from repro.storage.segments import Segment, SegmentScan

#: Source chunks per morsel: 8 × BATCH_SIZE = 8192 rows.  Large enough to
#: amortize per-task pickling, small enough that work stealing can
#: rebalance a skewed pipeline.
MORSEL_BATCHES = 8

#: Auto-mode floor for routing a stage to worker processes: below this
#: many source rows the per-task pickling and queue hops cost more than
#: running the stage inline.
PROCESS_MIN_ROWS = 50_000

#: Auto-mode floor when the extent's segment is cold (not yet built at
#: this data version): the one-off materialization write must be
#: amortizable against the estimated scan work, so the bar is higher.
PROCESS_COLD_MIN_ROWS = 200_000


# -- pool mode policy ----------------------------------------------------------


_POOL_MODE: str | None = None


def set_worker_pool_mode(mode: str | None = None) -> None:
    """Pin the worker pool mode: ``"process"``, or ``None``/``"auto"`` to
    restore the default resolution (environment variable
    ``REPRO_WORKER_POOL``, then the auto policy).

    ``"process"`` *forces* descriptor-capable stages onto worker
    processes regardless of core count or input size — the equivalence
    and crash suites rely on this to exercise the real multi-process
    machinery on single-vCPU CI.
    """
    global _POOL_MODE
    if mode not in (None, "auto", "process"):
        raise ValueError(f"unknown worker pool mode {mode!r}")
    _POOL_MODE = None if mode in (None, "auto") else mode


def worker_pool_mode() -> str:
    """The resolved pool mode: explicit override → env → ``"auto"``."""
    if _POOL_MODE is not None:
        return _POOL_MODE
    env = os.environ.get("REPRO_WORKER_POOL", "").strip().lower()
    return "process" if env == "process" else "auto"


def available_cores() -> int:
    """CPU cores this process may actually run on (affinity-aware).

    The auto policy and the bench provenance both consult this, so a
    single-vCPU CI box reports 1 and runs serially instead of reporting
    fictitious speedups.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# -- stage decomposition -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _BatchSource(Plan):
    """A plan leaf standing in for precomputed batches.

    A serial operator above a process-run stage gets its children's
    batches through one of these, so its existing batch kernel runs
    unchanged over them.
    """

    source_columns: tuple[str, ...]
    batches: tuple[Batch, ...]

    def _stream(self, ctx: ExecContext) -> Iterator[Row]:
        for batch in self.batches:
            yield from batch.to_rows()

    def _columns(self, ctx: ExecContext) -> tuple[str, ...]:
        return self.source_columns


def _batch_source_batches(plan: _BatchSource, ctx: ExecContext) -> Iterator[Batch]:
    return iter(plan.batches)


_KERNELS[_BatchSource] = _batch_source_batches


#: Record-wise operators that fuse into a morsel task.
_PIPELINE_OPS = (Select, Project, Compute, Rename)


def _pipeline_source(plan: Plan) -> Plan | None:
    """The Scan/PartitionScan under a record-wise chain, or None."""
    node = plan
    while isinstance(node, _PIPELINE_OPS):
        node = node.child
    return node if type(node) in (Scan, PartitionScan) else None


def _source_select(pipeline: Plan, source: Plan) -> Select | None:
    """The Select sitting directly on the pipeline's source leaf, if any."""
    node = pipeline
    while isinstance(node, _PIPELINE_OPS):
        if isinstance(node, Select) and node.child is source:
            return node
        node = node.child
    return None


def _replace_source(plan: Plan, source: Plan, replacement: Plan) -> Plan:
    if plan is source:
        return replacement
    return _with_children(
        plan,
        tuple(
            _replace_source(child, source, replacement)
            for child in plan.children()
        ),
    )




# -- the engine ----------------------------------------------------------------


class _Engine:
    """One parallel execution: the process gate, pool bookkeeping, and the
    recursive stage driver."""

    def __init__(self, ctx: ExecContext, workers: int):
        self.ctx = ctx
        self.morsels = 0
        self.stages = 0
        self.wall_s = 0.0
        self.cores = available_cores()
        self._busy: dict[int, float] = {}
        self._claimed: dict[int, int] = {}
        self._worker_spans: dict[int, list[object]] = {}
        self.fallbacks: list[dict[str, object]] = []
        # Resolve the process gate once per execution.  Forced mode skips
        # the core/size policy (tests and CI exercise the real machinery
        # on one core); auto mode applies the row thresholds per stage and
        # is off outright — with the reason recorded — below two workers.
        self.forced = worker_pool_mode() == "process"
        self.process_workers = workers if self.forced else min(workers, self.cores)
        self.off_reason = ""
        if not self.forced and self.process_workers < 2:
            self.off_reason = "single_core" if self.cores < 2 else "single_worker"

    def run_specs(self, specs: list[dict[str, object]]) -> list[object]:
        """Execute morsel descriptors on the warm process pool."""
        if not specs:
            return []
        from repro.relational.procpool import ProcessWorkerPool

        started = perf_counter()
        results, accounts = ProcessWorkerPool(self.process_workers).run_specs(
            specs
        )
        self.wall_s += perf_counter() - started
        self.stages += 1
        self.morsels += len(specs)
        for worker_id, claimed, busy, spans in accounts:
            self._busy[worker_id] = self._busy.get(worker_id, 0.0) + busy
            self._claimed[worker_id] = self._claimed.get(worker_id, 0) + claimed
            self._worker_spans.setdefault(worker_id, []).extend(spans)
        return results

    def worker_report(self) -> list[dict[str, object]]:
        """Per-worker utilization (busy time / pool wall time) for the trace."""
        wall = self.wall_s
        return [
            {
                "worker": worker,
                "pool": "process",
                "morsels": self._claimed.get(worker, 0),
                "busy_s": round(busy, 6),
                "utilization": round(busy / wall, 3) if wall else 0.0,
            }
            for worker, busy in sorted(self._busy.items())
        ]

    def graft_worker_spans(self, target: Plan) -> None:
        """Re-graft pickle-safe worker spans under the target's span.

        Worker processes cannot append to the parent's span tree, so each
        task returns a Span measured inside the worker; here they become
        ``process-worker-N`` subtrees, making per-process utilization a
        first-class part of ``trace query`` output.
        """
        recorder = self.ctx.recorder
        if recorder is None or not self._worker_spans:
            return
        parent = recorder.span_of(target)
        if parent is None:
            return
        for worker_id in sorted(self._worker_spans):
            spans = self._worker_spans[worker_id]
            branch = parent.child(f"process-worker-{worker_id}")
            branch.attrs["pool"] = "process"
            branch.attrs["morsels"] = len(spans)
            branch.children.extend(spans)  # type: ignore[arg-type]
            branch.duration_s = sum(
                span.duration_s  # type: ignore[attr-defined]
                for span in spans
            )

    # -- process-stage planning ------------------------------------------------

    def _fallback(self, stage: str, reason: str) -> None:
        self.fallbacks.append({"stage": stage, "reason": reason})

    def _resolve_extent(self, source: Plan) -> "tuple[Table, int | None] | str":
        """The (table, partition) extent a process morsel can describe.

        A string return is the fallback reason.  Multi-partition
        PartitionScans run serially: their output order is the merged
        ascending position order across partitions, which a
        partition-major segment read would not reproduce.
        """
        db = self.ctx.db
        if type(source) is Scan:
            return (db.table(source.table), None)
        assert type(source) is PartitionScan
        table = db.table(source.table)
        scheme = table.partitioning
        total = scheme.partition_count if scheme is not None else 0
        if scheme is None or any(pid >= total for pid in source.partitions):
            return "stale_partition_scheme"
        wanted = sorted(set(source.partitions))
        if len(wanted) != 1:
            return "multi_partition_order"
        return (table, wanted[0])

    def _process_morsels(
        self, stage: str, source: Plan, pipeline: Plan | None
    ) -> "tuple[Segment, list[tuple[int, ...]]] | None":
        """(segment, chunk-index morsels) when this stage goes to processes.

        ``None`` means run the stage serially; the reason is recorded.
        Zone-map skipping happens here in the parent — the same
        :class:`SelectAnalysis` decision the serial Select kernel makes
        per batch, applied to chunk indices before any descriptor is
        formed — so workers never even receive a chunk statistics rule out.
        """
        resolved = self._resolve_extent(source)
        if isinstance(resolved, str):
            self._fallback(stage, resolved)
            return None
        table, partition = resolved
        if not self.forced:
            from repro.relational.cost import estimate_plan_rows
            from repro.storage.segments import cached_table_segment

            rows = estimate_plan_rows(source, self.ctx.db)
            if rows < PROCESS_MIN_ROWS:
                self._fallback(stage, f"small_input:{rows}")
                return None
            if (
                cached_table_segment(table, partition) is None
                and rows < PROCESS_COLD_MIN_ROWS
            ):
                self._fallback(stage, f"cold_segment:{rows}")
                return None
        from repro.storage.segments import table_segment

        segment = table_segment(table, partition)
        if segment.chunk_count == 0:
            self._fallback(stage, "empty_extent")
            return None
        indices = self._zone_filtered_chunks(segment, table, partition, pipeline, source)
        morsels = [
            tuple(indices[start : start + MORSEL_BATCHES])
            for start in range(0, len(indices), MORSEL_BATCHES)
        ]
        return segment, morsels

    def _zone_filtered_chunks(
        self,
        segment: "Segment",
        table: "Table",
        partition: int | None,
        pipeline: Plan | None,
        source: Plan,
    ) -> list[int]:
        indices = list(range(segment.chunk_count))
        select = (
            _source_select(pipeline, source) if pipeline is not None else None
        )
        if select is None or not statistics_enabled():
            return indices
        # Segment chunks and zone-map chunks both slice the extent's
        # column order, so chunk index i names the same rows in both —
        # but only when the two modules' chunk sizes agree (tests patch
        # them independently).  On mismatch, skip nothing: workers
        # evaluate the full predicate anyway.
        from repro.relational import stats as stats_mod
        from repro.storage import segments as segments_mod

        if segments_mod.BATCH_SIZE != stats_mod.BATCH_SIZE:
            return indices
        analysis = SelectAnalysis(select.predicate)
        if not analysis.analyzable:
            return indices
        retained: list[int] = []
        skipped = 0
        for index in indices:
            if analysis.decide(table, partition, index) is SKIP_CHUNK:
                skipped += 1
            else:
                retained.append(index)
        self.ctx.annotate(
            select,
            chunks_total=len(indices),
            chunks_skipped=skipped,
            # Workers evaluate the full predicate on retained chunks
            # (their batches carry no zone tags), so no conjunct is ever
            # short-circuited on this path.
            conjuncts_short_circuited=0,
        )
        return retained

    def _segment_scan(
        self, segment: "Segment", source: Plan, chunks: tuple[int, ...]
    ) -> Plan:
        from repro.storage.segments import SegmentScan

        return SegmentScan(
            str(segment.path), self.ctx.columns(source), chunks
        )


    def _pickle_specs(
        self, stage: str, plans: list[Plan], build_key: str | None = None
    ) -> list[dict[str, object]] | None:
        """Pickle per-morsel plans into specs; None if any plan refuses.

        Plans are plain dataclasses over the expression AST and should
        always pickle; this guard exists so an exotic hand-built plan
        degrades to the serial kernels instead of failing the query.
        """
        specs: list[dict[str, object]] = []
        for plan in plans:
            try:
                blob = pickle.dumps(plan)
            except Exception:
                self._fallback(stage, "unpicklable_plan")
                return None
            spec: dict[str, object] = {"mode": stage, "plan": blob}
            if build_key is not None:
                spec["build_key"] = build_key
            specs.append(spec)
        return specs

    def _morsel_plans(
        self,
        plan: Plan,
        source: Plan,
        segment: "Segment",
        chunk_morsels: list[tuple[int, ...]],
    ) -> list[Plan]:
        """``plan`` cloned once per morsel over that morsel's SegmentScan."""
        return [
            _replace_source(plan, source, self._segment_scan(segment, source, chunks))
            for chunks in chunk_morsels
        ]

    def _broadcast_scan(self, side: Plan, batches: list[Batch]) -> "SegmentScan":
        """Write one join side to a broadcast segment, scanned whole.

        Every worker attaches it read-only and builds its hash table
        locally (cached by path), so the build rows cross the process
        boundary zero times per worker instead of once per morsel.
        """
        from repro.storage.segments import (
            SegmentScan,
            attach_segment,
            write_broadcast_segment,
        )

        columns = self.ctx.columns(side)
        path = write_broadcast_segment(columns, batches)
        return SegmentScan(
            str(path), columns, tuple(range(attach_segment(path).chunk_count))
        )

    # -- drivers ---------------------------------------------------------------

    def batches(self, plan: Plan) -> list[Batch]:
        """All output batches of ``plan``, eligible stages on processes."""
        source = _pipeline_source(plan)
        if source is not None:
            return self._run_pipeline(plan, source)
        if isinstance(plan, Aggregate):
            source = _pipeline_source(plan.child)
            if source is not None:
                return self._run_aggregate(plan, source)
        if isinstance(plan, Join):
            if plan.build == "left":
                return self._run_join_left(plan)
            source = _pipeline_source(plan.left)
            if source is not None:
                return self._run_join(plan, source)
        children = plan.children()
        if not children:
            return list(_node_batches(plan, self.ctx))
        # Serial operator over its children's outputs: each child's batches
        # become a _BatchSource and the node's own kernel runs unchanged.
        replaced = tuple(
            _BatchSource(self.ctx.columns(child), tuple(self.batches(child)))
            for child in children
        )
        return list(_node_batches(_with_children(plan, replaced), self.ctx))

    @staticmethod
    def _unpack_batches(results: list[object]) -> list[Batch]:
        return [
            Batch(columns, data, length)
            for packed in results
            for columns, data, length in packed  # type: ignore[attr-defined]
        ]

    def _run_pipeline(self, plan: Plan, source: Plan) -> list[Batch]:
        prepared = self._process_morsels("pipeline", source, plan)
        if prepared is not None:
            specs = self._pickle_specs(
                "pipeline", self._morsel_plans(plan, source, *prepared)
            )
            if specs is not None:
                return self._unpack_batches(self.run_specs(specs))
        return list(_node_batches(plan, self.ctx))

    def _run_aggregate(self, plan: Aggregate, source: Plan) -> list[Batch]:
        prepared = self._process_morsels("aggregate", source, plan.child)
        if prepared is not None:
            columns = aggregate_output_columns(plan, self.ctx)
            specs = self._pickle_specs(
                "aggregate", self._morsel_plans(plan, source, *prepared)
            )
            if specs is not None:
                # Each worker returns its morsel's GroupedAggregation
                # partial; merging in task order into a fresh parent-side
                # instance reproduces the serial first-seen group order.
                merged = GroupedAggregation(plan)
                for partial in self.run_specs(specs):
                    assert isinstance(partial, GroupedAggregation)
                    merged.merge(partial)
                return list(merged.finalize(columns))
        return list(_node_batches(plan, self.ctx))

    def _run_join(self, plan: Join, source: Plan) -> list[Batch]:
        build = JoinBuild(plan, self.ctx)  # validates the join up front
        prepared = self._process_morsels("join_probe", source, plan.left)
        right_batches = self.batches(plan.right)
        if prepared is not None:
            segment, chunk_morsels = prepared
            if not chunk_morsels:
                return []
            right_scan = self._broadcast_scan(plan.right, right_batches)
            specs = self._pickle_specs(
                "join_probe",
                [
                    _with_children(plan, (left, right_scan))
                    for left in self._morsel_plans(
                        plan.left, source, segment, chunk_morsels
                    )
                ],
                build_key=right_scan.path,
            )
            if specs is not None:
                return self._unpack_batches(self.run_specs(specs))
        for rbatch in right_batches:
            build.add(rbatch)
        out: list[Batch] = []
        for batch in _node_batches(plan.left, self.ctx):
            joined = build.probe(batch)
            if joined is not None:
                out.append(joined)
        return out

    def _run_join_left(self, plan: Join) -> list[Batch]:
        """Left-side build; right morsels collect (left position, payload)
        pairs in workers, absorbed here in task order — which *is*
        right-stream order — so the final left-major emission is
        bit-identical to the serial executors."""
        build = JoinBuildLeft(plan, self.ctx)
        left_batches = self.batches(plan.left)
        for lbatch in left_batches:
            build.add_left(lbatch)
        source = _pipeline_source(plan.right)
        if source is None:
            for rbatch in self.batches(plan.right):
                build.add_right(rbatch)
            return list(build.emit())
        prepared = self._process_morsels("join_collect", source, plan.right)
        if prepared is not None:
            segment, chunk_morsels = prepared
            if not chunk_morsels:
                return list(build.emit())
            # Broadcast the LEFT side; workers rebuild the position table
            # from the same row sequence (global positions are boundary-
            # independent).
            left_scan = self._broadcast_scan(plan.left, left_batches)
            specs = self._pickle_specs(
                "join_collect",
                [
                    _with_children(plan, (left_scan, right))
                    for right in self._morsel_plans(
                        plan.right, source, segment, chunk_morsels
                    )
                ],
                build_key=left_scan.path,
            )
            if specs is not None:
                for pairs in self.run_specs(specs):
                    build.absorb(pairs)  # type: ignore[arg-type]
                return list(build.emit())
        for rbatch in _node_batches(plan.right, self.ctx):
            build.add_right(rbatch)
        return list(build.emit())


def execute_parallel(
    plan: Plan, ctx: ExecContext, annotate: Plan | None = None
) -> list[Row]:
    """Run a vectorized subtree process-parallel and materialize the rows.

    ``ctx.parallel`` carries the requested worker count.  Stages the
    process gate refuses — and the whole subtree when the gate is off —
    run inline through the serial batch kernels.  ``annotate`` names the
    plan node whose span receives the executor gauges — the optimizer's
    ``Vectorized`` wrapper when routed from there.
    """
    workers = ctx.parallel or 1
    target = annotate if annotate is not None else plan
    if type(plan) is Scan:
        # The whole-table read keeps the serial path's zero-copy shortcut:
        # there is no per-row work to parallelize, only copying to lose.
        rows = ctx.db.table(plan.table).snapshot_rows()
        ctx.annotate(
            target,
            rows_out=len(rows),
            executor="parallel-batch",
            workers=workers,
            morsels=0,
            access_path="row_snapshot",
        )
        return rows
    engine = _Engine(ctx, workers)
    batches = (
        _node_batches(plan, ctx) if engine.off_reason else engine.batches(plan)
    )
    out: list[Row] = []
    for batch in batches:
        out.extend(batch.to_rows())
    gauges: dict[str, object] = dict(
        executor="parallel-batch",
        workers=workers,
        morsels=engine.morsels,
        parallel_stages=engine.stages,
        worker_utilization=engine.worker_report(),
        pool="process" if engine.stages else "serial",
        cores=engine.cores,
    )
    if engine.off_reason:
        gauges["process_pool_disabled"] = engine.off_reason
    if engine.stages:
        gauges["process_workers"] = engine.process_workers
    if engine.fallbacks:
        gauges["parallel_fallbacks"] = engine.fallbacks
    ctx.annotate(target, **gauges)
    engine.graft_worker_spans(target)
    return out
