"""Columnar, batch-at-a-time plan execution.

The vectorized executor runs a plan subtree over :class:`~repro.relational.
batch.Batch` slices instead of row dicts, eliminating the per-row dict
traffic that row-at-a-time streaming pays at every operator boundary.  It
is the third executor of the same semantics: results must be identical to
:mod:`repro.relational.interpret` (the spec) and to the streaming executor
— ``tests/test_relational/test_vectorize_equivalence.py`` asserts that on
randomized plans.

Parity is by construction where it matters:

- Expression kernels reuse the evaluator's own ``_compare``/``_arithmetic``
  /``_like``/``_as_bool`` helpers (plus the same concrete-type fast paths
  as :mod:`repro.expr.compile`), element by element.
- AND/OR short-circuit over *sub-batches*: the right operand is evaluated
  only on rows the left operand left undecided, so errors the row path
  never raises (because it short-circuits) are not raised here either.
- Grouping, distinct, and hash-join keys go through the shared
  :func:`~repro.relational.algebra.canonical_key`, and aggregate results
  through the shared ``_aggregate_values`` finalizer.
- ``Pivot`` folds key/attribute/value columns into per-group slot lists
  with ``Pivot._stream``'s rules (first-seen group order, last value
  wins, only ``str`` attributes match), and ``Coerce`` converts whole
  columns through the same per-execution ``types.Converter`` the
  streaming ``Coerce`` uses, so a Generic/EAV extract never builds a row
  dict before the row boundary.
- Code books (``IIF(x = 'Y', TRUE, IIF(x = 'N', FALSE, NULL))``, the
  Encoding pattern's decode) map a batch through one dict, as the row
  compiler does (:func:`repro.expr.compile.code_book`).

The operator without a kernel (Unpivot) and the index probes (IndexLookup,
InLookup) fall back per-subtree to the streaming executor; their rows are
packed into batches at the boundary.  The planner counts a probe by its
bucket sizes (:func:`estimated_input_rows`), so a probe feeding thousands
of EAV rows into ``Pivot``/``Coerce`` runs on the batch path while a point
lookup stays row-wise.  One intended divergence: when a plan
raises, the batch path may surface the error from a different row than the
row path (column-major vs row-major evaluation order), so only the
exception *type* is comparable across executors.

Obs hooks carry over: under a tracer every kernel's span records
``rows_out``, ``batches``, ``rows_per_batch``, and wall time, so
``explain_analyze`` stays truthful on both paths.
"""

from __future__ import annotations

import heapq
import operator
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator

from repro.errors import EvaluationError, QueryError
from repro.expr.ast import (
    BinaryOp,
    Expression,
    FunctionCall,
    Identifier,
    InList,
    IsNull,
    Literal,
    UnaryOp,
    conjunction,
)
from repro.expr.compile import (
    _COMPARE_OPS,
    _TOTAL_ARITHMETIC_OPS,
    CodeBook,
    _boolean_valued,
    code_book,
    compile_expression,
)
from repro.expr.evaluator import (
    _arithmetic,
    _as_bool,
    _compare,
    _like,
    resolve_suffix_key,
)
from repro.expr.functions import default_registry
from repro.expr.memo import IdentityMemo
from repro.obs.trace import current_tracer
from repro.relational.algebra import (
    Aggregate,
    Coerce,
    Compute,
    Distinct,
    ExecContext,
    IndexLookup,
    InLookup,
    Join,
    Limit,
    Pivot,
    Plan,
    Project,
    Rename,
    Row,
    Scan,
    Select,
    Sort,
    TopK,
    Union,
    Values,
    _IDENTITY_KEY_TYPES,
    _aggregate,
    _aggregate_values,
    _sort_key,
    canonical_key,
)
from repro.relational.batch import BATCH_SIZE, Batch, concat
from repro.relational.database import Database
from repro.relational.stats import (
    SKIP_CHUNK,
    SelectAnalysis,
    encoded_columns,
    statistics_enabled,
)
from repro.relational.types import Converter

#: Estimated input rows below which the planner leaves a subtree on the
#: row-at-a-time path: batch setup overhead only pays off with volume.
VECTORIZE_MIN_ROWS = 256

_DEFAULT_REGISTRY = default_registry()

_DIVISION_OPS = {"/": operator.truediv, "%": operator.mod}

#: Types whose values are their own canonical key, NULL included: a column
#: whose ``set(map(type, col))`` stays inside this set (a C-level sweep)
#: needs no per-value canonicalization at all.
_CLEAN_KEY_TYPES = frozenset((int, float, str, type(None)))


@dataclass(frozen=True)
class Vectorized(Plan):
    """Execute the child subtree batch-at-a-time.

    Inserted by the optimizer's vectorize pass (never written by hand in
    query builders); the interpreter refuses it, since it only ever sees
    pre-optimization plans.
    """

    child: Plan

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def _stream(self, ctx: ExecContext) -> Iterator[Row]:
        return iter(execute_vectorized(self.child, ctx))

    def execute(self, db: Database) -> list[Row]:
        if type(self.child) is Scan and current_tracer() is None:
            # The one zero-copy result (DESIGN.md §7): a bare whole-table
            # scan at the root returns the snapshot's own row dicts.
            return list(execute_vectorized(self.child, ExecContext(db)))
        return super().execute(db)

    def shares_storage(self) -> bool:
        # Kernels build fresh dicts at the row boundary, but a bare Scan
        # yields the table's engine-owned snapshot rows (not live storage,
        # yet shared between executions).  Saying so makes parents that
        # pass rows through or convert them in place (Select, Coerce, ...)
        # and streaming consumers copy instead of mutating the snapshot.
        return type(self.child) is Scan

    def _columns(self, ctx: ExecContext) -> tuple[str, ...]:
        return ctx.columns(self.child)


def execute_vectorized(plan: Plan, ctx: ExecContext) -> list[Row]:
    """Run ``plan`` over batches and materialize the result rows."""
    if type(plan) is Scan:
        # The whole-table read needs no batching at all: the version-keyed
        # row snapshot is the result, zero-copy.  The shared dicts are
        # read-only by contract (``Table.snapshot_rows``) — a defensive
        # copy would cost one dict per row, the same O(n) the row paths
        # pay, and the entire point of this path is skipping it.  Callers
        # that need mutable rows should use ``Table.rows()`` or any
        # non-trivial plan, whose results are always freshly built.
        rows = ctx.db.table(plan.table).snapshot_rows()
        ctx.annotate(
            plan,
            rows_out=len(rows),
            batches=1,
            rows_per_batch=len(rows),
            executor="batch",
            access_path="row_snapshot",
        )
        return rows
    out: list[Row] = []
    for batch in _node_batches(plan, ctx):
        out.extend(batch.to_rows())
    return out


def fully_vectorizable(plan: Plan) -> bool:
    """True when every node of the subtree runs on the batch path.

    Index probes count as vectorizable leaves: they stay row-wise (their
    selectivity is the point) and are packed into batches at the boundary;
    whether that pays is :func:`estimated_input_rows`' call.
    """
    if isinstance(plan, (IndexLookup, InLookup)):
        return True
    if type(plan) not in _KERNELS:
        return False
    return all(fully_vectorizable(child) for child in plan.children())


def estimated_input_rows(plan: Plan, db: Database) -> int:
    """Planner estimate: total base rows feeding the subtree.

    Index probes count the rows they will actually read, their
    ``bucket_rows`` (the whole table when no index matches and they fall
    back to a scan).  So an EAV probe that returns thousands of rows
    clears ``VECTORIZE_MIN_ROWS`` while a point lookup stays on the row
    path.
    """
    total = 0
    for node in plan.walk():
        if type(node) is IndexLookup or type(node) is InLookup:
            total += _probe_rows(node, db)
        elif type(node) is Scan:
            if db.has_table(node.table):
                total += len(db.table(node.table))
        elif isinstance(node, Values):
            total += len(node.rows)
    return total


def _probe_rows(node: IndexLookup | InLookup, db: Database) -> int:
    if not db.has_table(node.table):
        return 0
    table = db.table(node.table)
    rows = node.bucket_rows(table)
    return len(table) if rows is None else rows  # None: the scan fallback


# -- batch streams per node ----------------------------------------------------


def _node_batches(plan: Plan, ctx: ExecContext) -> Iterator[Batch]:
    kernel = _KERNELS.get(type(plan))
    if kernel is None:
        return _fallback_batches(plan, ctx)
    if ctx.recorder is None:
        return kernel(plan, ctx)
    return _metered(plan, ctx, kernel(plan, ctx))


def _metered(
    plan: Plan, ctx: ExecContext, batches: Iterator[Batch]
) -> Iterator[Batch]:
    """Meter a kernel's batches into the node's span (mirrors wrap())."""
    span = ctx.recorder.span_of(plan)  # type: ignore[union-attr]
    if span is None:
        return batches

    def generate() -> Iterator[Batch]:
        rows = 0
        count = 0
        timer = perf_counter
        started = timer()
        try:
            for batch in batches:
                span.duration_s += timer() - started
                rows += batch.length
                count += 1
                yield batch
                started = timer()
            span.duration_s += timer() - started
        finally:
            attrs = span.attrs
            attrs["rows_out"] = attrs.get("rows_out", 0) + rows
            attrs["batches"] = attrs.get("batches", 0) + count
            total_batches = attrs["batches"]
            attrs["rows_per_batch"] = (
                round(attrs["rows_out"] / total_batches, 1) if total_batches else 0
            )
            attrs["executor"] = "batch"

    return generate()


def _fallback_batches(plan: Plan, ctx: ExecContext) -> Iterator[Batch]:
    """Row-wise subtree inside a batch pipeline: stream, then pack.

    ``plan.stream`` meters the subtree's spans exactly as on the row path,
    so the fallback boundary stays visible in ``explain_analyze``.
    """
    columns = ctx.columns(plan)
    rows = plan.stream(ctx)
    while True:
        chunk = list(islice(rows, BATCH_SIZE))
        if not chunk:
            return
        yield Batch.from_rows(columns, chunk)


def _gather(batch: Batch, name: str) -> list[object]:
    """``batch.column`` with ``row.get`` semantics: unknown names are NULL."""
    try:
        return batch.column(name)
    except KeyError:
        return [None] * batch.length


def _scan_batches(plan: Scan, ctx: ExecContext) -> Iterator[Batch]:
    """Chunk the table's columnar extent into *lazy* batches over one
    extent batch.

    The extent batch shares the snapshot lists zero-copy (read-only by the
    snapshot contract) and carries dictionary encodings; each chunk batch
    is a lazy range gather tagged with its zone-map identity, so a chunk a
    downstream Select skips never slices a single column — the win that
    makes zone-map skipping worth more than the predicate it avoids.
    """
    table = ctx.db.table(plan.table)
    columns = table.column_snapshot()
    names = table.schema.column_names
    n = len(columns[names[0]]) if names else 0
    if n == 0:
        return
    encodings = None
    if statistics_enabled():
        built = encoded_columns(table)
        if built:
            encodings = {
                name: (dictionary, dictionary.codes)
                for name, dictionary in built.items()
            }
            ctx.annotate(plan, dictionary_columns=sorted(built))
    extent = Batch(
        names,
        {name: columns[name] for name in names},
        n,
        encodings=encodings,
    )
    if n <= BATCH_SIZE:
        extent.zone = (table, 0)
        yield extent
        return
    for index, start in enumerate(range(0, n, BATCH_SIZE)):
        end = min(start + BATCH_SIZE, n)
        yield Batch(
            names,
            {},
            end - start,
            extent,
            range(start, end),
            zone=(table, index),
        )


def _values_batches(plan: Values, ctx: ExecContext) -> Iterator[Batch]:
    columns = plan.columns
    rows = plan.rows
    width = len(columns)
    for start in range(0, len(rows), BATCH_SIZE):
        chunk = rows[start : start + BATCH_SIZE]
        data: dict[str, list[object]] = {}
        for j in range(width):
            data[columns[j]] = [
                row[j] if j < len(row) else None for row in chunk
            ]
        yield Batch(columns, data, len(chunk))


def _select_batches(plan: Select, ctx: ExecContext) -> Iterator[Batch]:
    value_of = compile_batch_expression(plan.predicate)
    analysis: SelectAnalysis | None = None
    if statistics_enabled():
        candidate = SelectAnalysis(plan.predicate)
        if candidate.analyzable:
            analysis = candidate
    if analysis is None:
        for batch in _node_batches(plan.child, ctx):
            values = value_of(batch)
            kept = [i for i, value in enumerate(values) if value is True]
            if not kept:
                continue
            if len(kept) == batch.length:
                yield batch
            else:
                yield batch.take(kept)
        return
    yield from _select_batches_analyzed(plan, ctx, value_of, analysis)


def _select_batches_analyzed(
    plan: Select,
    ctx: ExecContext,
    value_of: BatchExpression,
    analysis: SelectAnalysis,
) -> Iterator[Batch]:
    """Select with the zone-map trichotomy per zone-tagged chunk.

    *skip* chunks are dropped without gathering a column; *all-match*
    conjuncts are removed from the chunk's predicate (residual conjunctions
    are compiled once per distinct kept-set and memoized); everything else
    evaluates exactly as the plain kernel.  Dropping a conjunct is only
    done when the probe proves it True for every row without evaluation
    errors, so 3VL results and error behaviour are unchanged.
    """
    conjuncts = analysis.conjuncts
    full = tuple(range(len(conjuncts)))
    compiled: dict[tuple[int, ...], BatchExpression] = {full: value_of}
    chunks_total = 0
    chunks_skipped = 0
    short_circuited = 0
    try:
        for batch in _node_batches(plan.child, ctx):
            zone = batch.zone
            if zone is None:
                values = value_of(batch)
            else:
                chunks_total += 1
                decision = analysis.decide(zone[0], zone[1])
                if decision is SKIP_CHUNK:
                    chunks_skipped += 1
                    continue
                kept_ids, dropped = decision
                short_circuited += dropped
                if not kept_ids:
                    # Every conjunct holds for every row of the chunk.
                    yield batch
                    continue
                fn = compiled.get(kept_ids)
                if fn is None:
                    fn = compile_batch_expression(
                        conjunction([conjuncts[i] for i in kept_ids])
                    )
                    compiled[kept_ids] = fn
                values = fn(batch)
            kept = [i for i, value in enumerate(values) if value is True]
            if not kept:
                continue
            if len(kept) == batch.length:
                yield batch
            else:
                yield batch.take(kept)
    finally:
        if chunks_total:
            ctx.annotate(
                plan,
                chunks_total=chunks_total,
                chunks_skipped=chunks_skipped,
                conjuncts_short_circuited=short_circuited,
            )


def _project_batches(plan: Project, ctx: ExecContext) -> Iterator[Batch]:
    available = set(ctx.columns(plan.child))
    missing = [column for column in plan.columns if column not in available]
    if missing:
        raise QueryError(f"projection references unknown column(s) {missing}")
    columns = plan.columns
    for batch in _node_batches(plan.child, ctx):
        yield Batch(
            columns,
            {column: batch.column(column) for column in columns},
            batch.length,
        )


def _compute_batches(plan: Compute, ctx: ExecContext) -> Iterator[Batch]:
    compiled = tuple(
        (name, compile_batch_expression(expression))
        for name, expression in plan.derivations
    )
    columns = ctx.columns(plan)
    for batch in _node_batches(plan.child, ctx):
        # Derivations all evaluate against the child batch, not each other.
        computed = [(name, value_of(batch)) for name, value_of in compiled]
        data = batch.materialize()
        for name, column in computed:
            data[name] = column
        yield Batch(columns, data, batch.length)


def _rename_batches(plan: Rename, ctx: ExecContext) -> Iterator[Batch]:
    table = dict(plan.mapping)
    columns = ctx.columns(plan)
    child_columns = ctx.columns(plan.child)
    for batch in _node_batches(plan.child, ctx):
        data: dict[str, list[object]] = {}
        for column in child_columns:
            data[table.get(column, column)] = batch.column(column)
        yield Batch(columns, data, batch.length)


def _union_batches(plan: Union, ctx: ExecContext) -> Iterator[Batch]:
    if not plan.inputs:
        return
    columns = ctx.columns(plan)
    column_set = set(columns)
    for branch in plan.inputs:
        branch_columns = set(ctx.columns(branch))
        if branch_columns != column_set:
            raise QueryError(
                f"union inputs disagree on columns: {sorted(branch_columns)} "
                f"vs {sorted(columns)}"
            )
    for branch in plan.inputs:
        for batch in _node_batches(branch, ctx):
            yield Batch(
                columns,
                {column: batch.column(column) for column in columns},
                batch.length,
            )


def _distinct_batches(plan: Distinct, ctx: ExecContext) -> Iterator[Batch]:
    columns = ctx.columns(plan.child)
    seen: set[object] = set()
    seen_add = seen.add
    id_types = _IDENTITY_KEY_TYPES
    single = len(columns) == 1
    # (dictionary, per-code seen flags) for the single-column coded path;
    # flags and the ``seen`` set stay consistent so coded and raw batches
    # can interleave (e.g. across inputs with different dictionaries).
    dict_state: tuple[object, list[bool]] | None = None
    for batch in _node_batches(plan.child, ctx):
        kept: list[int] = []
        append = kept.append
        if single:
            entry = batch.codes(columns[0])
            if entry is not None:
                dictionary, codes = entry
                if dict_state is None or dict_state[0] is not dictionary:
                    dict_state = (dictionary, [False] * len(dictionary.values))
                flags = dict_state[1]
                values = dictionary.values
                for i, code in enumerate(codes):
                    if code is None:
                        if None not in seen:
                            seen_add(None)
                            append(i)
                    elif not flags[code]:
                        flags[code] = True
                        value = values[code]
                        if value not in seen:
                            seen_add(value)
                            append(i)
            else:
                for i, raw in enumerate(batch.column(columns[0])):
                    key = (
                        raw
                        if type(raw) in id_types or raw is None
                        else canonical_key(raw)
                    )
                    if key not in seen:
                        seen_add(key)
                        append(i)
        else:
            cols = [batch.column(column) for column in columns]
            rows = zip(*cols) if cols else iter([()] * batch.length)
            for i, raw_row in enumerate(rows):
                key = tuple(
                    v if type(v) in id_types else canonical_key(v)
                    for v in raw_row
                )
                if key not in seen:
                    seen_add(key)
                    append(i)
        if not kept:
            continue
        if len(kept) == batch.length:
            yield batch
        else:
            yield batch.take(kept)


class JoinBuild:
    """The build side of a vectorized hash join, probe-ready.

    Constructed once per execution: validates the join, keys the whole
    right input into buckets (payloads as value tuples, zip-transposed per
    batch so there is no per-row tuple comprehension).
    """

    __slots__ = (
        "on",
        "left_cols",
        "payload_cols",
        "out_columns",
        "left_join",
        "single",
        "buckets",
        "null_payload",
        "_probe_map",
    )

    def __init__(self, plan: Join, ctx: ExecContext):
        if plan.how not in ("inner", "left"):
            raise QueryError(f"unsupported join type {plan.how!r}")
        left_cols = ctx.columns(plan.left)
        right_cols = ctx.columns(plan.right)
        right_keys = {rk for _, rk in plan.on}
        overlap = (set(left_cols) & set(right_cols)) - right_keys
        if overlap:
            raise QueryError(
                f"join would collide on columns {sorted(overlap)}; rename one side"
            )
        self.on = plan.on
        self.left_cols = left_cols
        self.payload_cols = tuple(c for c in right_cols if c not in right_keys)
        self.out_columns = left_cols + self.payload_cols
        self.left_join = plan.how == "left"
        self.single = len(plan.on) == 1
        self.buckets: dict[object, list[tuple[object, ...]]] = {}
        self.null_payload = (None,) * len(self.payload_cols)
        # (dictionary, code → bucket|None) translation for dictionary-coded
        # probe columns: one buckets.get per distinct *string*, not per row.
        # Recomputing on a dictionary change is benign — the map is a pure
        # function of build state + dictionary.
        self._probe_map: tuple[object, list] | None = None

    def add(self, rbatch: Batch) -> None:
        """Consume one build-side batch into the hash table."""
        buckets = self.buckets
        get = buckets.get
        id_types = _IDENTITY_KEY_TYPES
        rks = [rk for _, rk in self.on]
        pcols = [rbatch.column(c) for c in self.payload_cols]
        prows = list(zip(*pcols)) if pcols else [()] * rbatch.length
        if self.single:
            kcol = _gather(rbatch, rks[0])
            if set(map(type, kcol)) <= id_types:
                # No NULLs, no exotic types: drop both per-row checks.
                for i, key in enumerate(kcol):
                    bucket = get(key)
                    if bucket is None:
                        buckets[key] = [prows[i]]
                    else:
                        bucket.append(prows[i])
                return
            for i, key in enumerate(kcol):
                if key is None:
                    continue
                if type(key) not in id_types:
                    key = canonical_key(key)
                bucket = get(key)
                if bucket is None:
                    buckets[key] = [prows[i]]
                else:
                    bucket.append(prows[i])
        else:
            kcols = [_gather(rbatch, rk) for rk in rks]
            for i, kraw in enumerate(zip(*kcols)):
                key = tuple(
                    v if type(v) in id_types else canonical_key(v) for v in kraw
                )
                if None not in key:
                    bucket = get(key)
                    if bucket is None:
                        buckets[key] = [prows[i]]
                    else:
                        bucket.append(prows[i])

    def probe(self, batch: Batch) -> Batch | None:
        """Join one probe-side batch against the build; None when empty.

        Gathers output columns by index lists instead of merging dicts per
        match.
        """
        get = self.buckets.get
        id_types = _IDENTITY_KEY_TYPES
        left_join = self.left_join
        null_payload = self.null_payload
        lks = [lk for lk, _ in self.on]
        left_idx: list[int] = []
        payloads: list[tuple[object, ...]] = []
        idx_append = left_idx.append
        payload_append = payloads.append
        if self.single:
            entry = batch.codes(lks[0])
            if entry is not None:
                dictionary, codes = entry
                cached = self._probe_map
                if cached is None or cached[0] is not dictionary:
                    bucket_of = self.buckets.get
                    cached = (
                        dictionary,
                        [bucket_of(value) for value in dictionary.values],  # type: ignore[attr-defined]
                    )
                    self._probe_map = cached
                probe_map = cached[1]
                for i, code in enumerate(codes):
                    matches = probe_map[code] if code is not None else None
                    if matches:
                        for payload in matches:
                            idx_append(i)
                            payload_append(payload)
                    elif left_join:
                        idx_append(i)
                        payload_append(null_payload)
                return self._emit(batch, left_idx, payloads)
            kcol = _gather(batch, lks[0])
            if set(map(type, kcol)) <= id_types:
                # No NULLs, no exotic types: probe keys directly.
                for i, key in enumerate(kcol):
                    matches = get(key)
                    if matches:
                        for payload in matches:
                            idx_append(i)
                            payload_append(payload)
                    elif left_join:
                        idx_append(i)
                        payload_append(null_payload)
            else:
                for i, key in enumerate(kcol):
                    if key is None:
                        matches = None
                    else:
                        if type(key) not in id_types:
                            key = canonical_key(key)
                        matches = get(key)
                    if matches:
                        for payload in matches:
                            idx_append(i)
                            payload_append(payload)
                    elif left_join:
                        idx_append(i)
                        payload_append(null_payload)
        else:
            kcols = [_gather(batch, lk) for lk in lks]
            for i, kraw in enumerate(zip(*kcols)):
                key = tuple(
                    v if type(v) in id_types else canonical_key(v) for v in kraw
                )
                matches = get(key) if None not in key else None
                if matches:
                    for payload in matches:
                        idx_append(i)
                        payload_append(payload)
                elif left_join:
                    idx_append(i)
                    payload_append(null_payload)
        return self._emit(batch, left_idx, payloads)

    def _emit(
        self,
        batch: Batch,
        left_idx: list[int],
        payloads: list[tuple[object, ...]],
    ) -> Batch | None:
        if not left_idx:
            return None
        data: dict[str, list[object]] = {}
        for name in self.left_cols:
            col = batch.column(name)
            data[name] = [col[i] for i in left_idx]
        if self.payload_cols:
            # One C-level transpose instead of a per-row/per-column loop.
            for name, out_col in zip(self.payload_cols, zip(*payloads)):
                data[name] = list(out_col)
        return Batch(self.out_columns, data, len(left_idx))


def _join_batches(plan: Join, ctx: ExecContext) -> Iterator[Batch]:
    build = JoinBuild(plan, ctx)
    for rbatch in _node_batches(plan.right, ctx):
        build.add(rbatch)
    for batch in _node_batches(plan.left, ctx):
        joined = build.probe(batch)
        if joined is not None:
            yield joined


class GroupedAggregation:
    """Incremental group-by state behind the Aggregate kernel.

    Holds per-group ``[row_count, values-per-spec...]`` states; values
    lists feed the shared ``_aggregate_values`` finalizer, so results match
    the row paths exactly (including ``sum()`` over the same value
    sequence).  The kernel consumes every batch into one instance, so
    first-seen group order and per-group value order match the row paths.
    """

    __slots__ = (
        "plan",
        "group_by",
        "specs",
        "groups",
        "order",
        "representatives",
        "_code_groups",
    )

    def __init__(self, plan: Aggregate):
        self.plan = plan
        self.group_by = plan.group_by
        self.specs = tuple((spec, spec.func.upper()) for spec in plan.aggregates)
        self.groups: dict[object, list] = {}
        self.order: list[object] = []
        self.representatives: dict[object, tuple[object, ...]] = {}
        # (dictionary, code → group state|None) for the single-key coded
        # path: replaces one string hash + dict probe per row with a list
        # index.  Group keys stay the decoded strings, so finalize
        # (and interleaving with un-coded batches) are unaffected.
        self._code_groups: tuple[object, list] | None = None

    def consume(self, batch: Batch) -> None:
        group_by = self.group_by
        specs = self.specs
        n_specs = len(specs)
        groups = self.groups
        groups_get = groups.get
        order_append = self.order.append
        representatives = self.representatives
        id_types = _IDENTITY_KEY_TYPES
        # (state slot, value column) per spec that collects values.
        value_entries = [
            (j + 1, _gather(batch, spec.column))
            for j, (spec, _) in enumerate(specs)
            if spec.column is not None
        ]
        if len(group_by) == 1:
            entry = batch.codes(group_by[0])
            if entry is not None:
                dictionary, codes = entry
                values = dictionary.values  # type: ignore[attr-defined]
                if not value_entries:
                    # Count-only aggregates: one C-level Counter pass over
                    # the codes replaces the per-row Python loop.  Counter
                    # (a dict) yields codes in first-occurrence order, so
                    # group creation order still matches the row-at-a-time
                    # first-seen order exactly.
                    for code, count in Counter(codes).items():
                        key = None if code is None else values[code]
                        state = groups_get(key)
                        if state is None:
                            groups[key] = state = [0] + [
                                [] for _ in range(n_specs)
                            ]
                            order_append(key)
                            representatives[key] = (key,)
                        state[0] += count
                    return
                cached = self._code_groups
                if cached is None or cached[0] is not dictionary:
                    cached = (dictionary, [None] * len(dictionary.values))
                    self._code_groups = cached
                state_by_code = cached[1]
                for i, code in enumerate(codes):
                    if code is None:
                        state = groups_get(None)
                        if state is None:
                            groups[None] = state = [0] + [
                                [] for _ in range(n_specs)
                            ]
                            order_append(None)
                            representatives[None] = (None,)
                    else:
                        state = state_by_code[code]
                        if state is None:
                            key = values[code]
                            state = groups_get(key)
                            if state is None:
                                groups[key] = state = [0] + [
                                    [] for _ in range(n_specs)
                                ]
                                order_append(key)
                                representatives[key] = (key,)
                            state_by_code[code] = state
                    state[0] += 1
                    for j, col in value_entries:
                        value = col[i]
                        if value is not None:
                            state[j].append(value)
                return
            # Scalar keys: no per-row tuple, canonical_key inlined away for
            # the int/float/str/None common case.
            for i, raw in enumerate(_gather(batch, group_by[0])):
                key = (
                    raw
                    if type(raw) in id_types or raw is None
                    else canonical_key(raw)
                )
                state = groups_get(key)
                if state is None:
                    groups[key] = state = [0] + [[] for _ in range(n_specs)]
                    order_append(key)
                    representatives[key] = (raw,)
                state[0] += 1
                for j, col in value_entries:
                    value = col[i]
                    if value is not None:
                        state[j].append(value)
        else:
            gcols = [_gather(batch, column) for column in group_by]
            raws = list(zip(*gcols)) if gcols else [()] * batch.length
            # One C-level type sweep per column decides whether any value
            # needs canonicalization; in the common all-identity case the
            # zip tuples above are the keys — no per-row tuple comprehension.
            clean_types = _CLEAN_KEY_TYPES
            tcols = [
                col
                if set(map(type, col)) <= clean_types
                else [
                    v if v is None or type(v) in id_types else canonical_key(v)
                    for v in col
                ]
                for col in gcols
            ]
            keys = raws if all(t is c for t, c in zip(tcols, gcols)) else list(
                zip(*tcols)
            )
            for i, key in enumerate(keys):
                state = groups_get(key)
                if state is None:
                    groups[key] = state = [0] + [[] for _ in range(n_specs)]
                    order_append(key)
                    representatives[key] = raws[i]
                state[0] += 1
                for j, col in value_entries:
                    value = col[i]
                    if value is not None:
                        state[j].append(value)

    def finalize(self, columns: tuple[str, ...]) -> Iterator[Batch]:
        """Yield the result batch (``columns`` pre-deduped, see kernel)."""
        specs = self.specs
        order = self.order
        if not order:
            if not self.group_by and self.plan.aggregates:
                # Aggregating an empty input without grouping yields one row.
                data = {
                    spec.alias: [_aggregate(spec, [])] for spec, _ in specs
                }
                yield Batch(columns, data, 1)
            return
        group_by = self.group_by
        groups = self.groups
        representatives = self.representatives
        data = {column: [] for column in columns}
        for key in order:
            state = groups[key]
            # Per-row dict first, so an alias shadowing a group column (or a
            # repeated alias) overwrites exactly as the row paths' dicts do.
            row_values: dict[str, object] = dict(zip(group_by, representatives[key]))
            for j, (spec, func) in enumerate(specs):
                if spec.column is None:
                    if func != "COUNT":
                        raise QueryError(f"{func} requires a column")
                    result: object = state[0]
                else:
                    result = _aggregate_values(func, state[j + 1], spec.func)
                row_values[spec.alias] = result
            for column in columns:
                data[column].append(row_values[column])
        yield Batch(columns, data, len(order))


def _aggregate_batches(plan: Aggregate, ctx: ExecContext) -> Iterator[Batch]:
    grouped = GroupedAggregation(plan)
    for batch in _node_batches(plan.child, ctx):
        grouped.consume(batch)
    # An alias may repeat a group column (or another alias); the row paths
    # collapse those through dict assignment, so the batch result dedups the
    # column list and lets ``finalize`` reproduce the last-wins value.
    yield from grouped.finalize(tuple(dict.fromkeys(ctx.columns(plan))))


def _sort_batches(plan: Sort, ctx: ExecContext) -> Iterator[Batch]:
    columns = ctx.columns(plan.child)
    merged = concat(columns, _node_batches(plan.child, ctx))
    n = merged.length
    if n == 0:
        return
    indices = list(range(n))
    # Apply keys right-to-left so stable sort yields composite ordering.
    for column, ascending in reversed(plan.keys):
        col = _gather(merged, column)
        indices.sort(
            key=lambda i, col=col: _sort_key(col[i]), reverse=not ascending
        )
    yield merged.take(indices)


def _topk_batches(plan: TopK, ctx: ExecContext) -> Iterator[Batch]:
    columns = ctx.columns(plan.child)
    merged = concat(columns, _node_batches(plan.child, ctx))
    n = merged.length
    keys = plan.keys
    directions = {ascending for _, ascending in keys}
    if len(directions) <= 1:
        select = heapq.nsmallest if directions != {False} else heapq.nlargest
        if len(keys) == 1:
            col = _gather(merged, keys[0][0])
            chosen = select(plan.count, range(n), key=lambda i: _sort_key(col[i]))
        else:
            cols = [_gather(merged, column) for column, _ in keys]
            chosen = select(
                plan.count,
                range(n),
                key=lambda i: tuple(_sort_key(col[i]) for col in cols),
            )
    else:
        indices = list(range(n))
        for column, ascending in reversed(keys):
            col = _gather(merged, column)
            indices.sort(
                key=lambda i, col=col: _sort_key(col[i]), reverse=not ascending
            )
        chosen = indices[: max(plan.count, 0)]
    if chosen:
        yield merged.take(chosen)


def _limit_batches(plan: Limit, ctx: ExecContext) -> Iterator[Batch]:
    count = plan.count
    if count < 0:
        # Negative counts keep Python slice semantics (drop from the end),
        # which requires the full child extent.
        columns = ctx.columns(plan.child)
        merged = concat(columns, _node_batches(plan.child, ctx))
        end = merged.length + count
        if end > 0:
            yield merged.take(range(end))
        return
    remaining = count
    if remaining == 0:
        return
    for batch in _node_batches(plan.child, ctx):
        if batch.length <= remaining:
            yield batch
            remaining -= batch.length
        else:
            yield batch.take(range(remaining))
            remaining = 0
        if remaining == 0:
            return


def _pivot_batches(plan: Pivot, ctx: ExecContext) -> Iterator[Batch]:
    """EAV → wide, folding key/attribute/value columns without row dicts.

    Same fold as ``Pivot._stream``: groups in first-seen key order (the
    dict keeps the first key object, so ``1`` and ``True`` fold together
    exactly as there), the last value of a repeated (key, attribute)
    wins, and only ``str`` attributes can match a declared name.  Each
    group is one list of attribute slots; output batches are transposed
    from those lists at the end.
    """
    key_columns = plan.key_columns
    # A repeated attribute name shares one slot, as the row paths' dict
    # template collapses it.
    slot_of = {
        attribute: slot
        for slot, attribute in enumerate(dict.fromkeys(plan.attributes))
    }
    blank: list[object] = [None] * len(slot_of)
    # A group key is the key value itself (one key column) or a tuple.
    groups: dict[Any, list[object]] = {}
    get = groups.get
    single = len(key_columns) == 1
    slot_get = slot_of.get
    for batch in _node_batches(plan.child, ctx):
        if single:
            keys: Iterable[object] = _gather(batch, key_columns[0])
        elif key_columns:
            keys = zip(*[_gather(batch, column) for column in key_columns])
        else:
            keys = [()] * batch.length
        slots = [
            slot_get(attribute) if isinstance(attribute, str) else None
            for attribute in _gather(batch, plan.attribute_column)
        ]
        for key, slot, value in zip(keys, slots, _gather(batch, plan.value_column)):
            row = get(key)
            if row is None:
                row = groups[key] = blank.copy()
            if slot is not None:
                row[slot] = value
    if not groups:
        return
    columns = ctx.columns(plan)
    group_keys = list(groups)
    rows = list(groups.values())
    for start in range(0, len(rows), BATCH_SIZE):
        stop = start + BATCH_SIZE
        data: dict[str, list[object]] = {}
        if single:
            data[key_columns[0]] = group_keys[start:stop]
        elif key_columns:
            for name, values in zip(key_columns, zip(*group_keys[start:stop])):
                data[name] = list(values)
        chunk = rows[start:stop]
        # An attribute named like a key column overwrites it, as the row
        # paths' template does.
        for (attribute, _), values in zip(slot_of.items(), zip(*chunk)):
            data[attribute] = list(values)
        yield Batch(columns, data, len(chunk))


def _coerce_batches(plan: Coerce, ctx: ExecContext) -> Iterator[Batch]:
    converters = tuple(
        (column, Converter(dtype)) for column, dtype in plan.column_types
    )
    for batch in _node_batches(plan.child, ctx):
        data = batch.materialize()
        for column, convert in converters:
            if column in data:
                data[column] = convert.column(data[column])
        yield Batch(batch.columns, data, batch.length)


_KERNELS: dict[type, Callable[..., Iterator[Batch]]] = {
    Scan: _scan_batches,
    Values: _values_batches,
    Select: _select_batches,
    Project: _project_batches,
    Compute: _compute_batches,
    Rename: _rename_batches,
    Union: _union_batches,
    Distinct: _distinct_batches,
    Join: _join_batches,
    Aggregate: _aggregate_batches,
    Sort: _sort_batches,
    TopK: _topk_batches,
    Limit: _limit_batches,
    Pivot: _pivot_batches,
    Coerce: _coerce_batches,
}


# -- batch expression compiler -------------------------------------------------

#: A lowered expression: one call per batch, returning the value column.
BatchExpression = Callable[[Batch], list[object]]

# Identity-keyed, like expr/compile.py's memos (see repro.expr.memo):
# Literal(0) == Literal(False) under dict equality.
_BATCH_EXPRESSIONS: IdentityMemo[BatchExpression] = IdentityMemo()


def compile_batch_expression(expr: Expression) -> BatchExpression:
    """Lower ``expr`` to a column-at-a-time closure (default registry)."""
    compiled = _BATCH_EXPRESSIONS.get(expr)
    if compiled is None:
        compiled = _BATCH_EXPRESSIONS.put(expr, _lower_batch(expr))
    return compiled


def _lower_batch(expr: Expression) -> BatchExpression:
    if isinstance(expr, Literal):
        value = expr.value
        return lambda batch: [value] * batch.length
    if isinstance(expr, Identifier):
        return _lower_identifier_batch(expr)
    if isinstance(expr, UnaryOp):
        return _lower_unary_batch(expr)
    if isinstance(expr, BinaryOp):
        return _lower_binary_batch(expr)
    if isinstance(expr, FunctionCall):
        return _lower_function_call_batch(expr)
    if isinstance(expr, InList):
        return _lower_in_list_batch(expr)
    if isinstance(expr, IsNull):
        operand = _lower_batch(expr.operand)
        if expr.negated:
            return lambda batch: [value is not None for value in operand(batch)]
        return lambda batch: [value is None for value in operand(batch)]
    # Unknown node types fall back to the row-wise compiled closure.
    fallback = compile_expression(expr)
    return lambda batch: [fallback(row) for row in batch.to_rows()]


def _lower_identifier_batch(expr: Identifier) -> BatchExpression:
    name = expr.name
    leaf = expr.leaf

    def resolve(batch: Batch) -> list[object]:
        try:
            return batch.column(name)
        except KeyError:
            pass
        if leaf != name:
            try:
                return batch.column(leaf)
            except KeyError:
                pass
        # Same suffix fallback (and the same errors) as the row path; all
        # rows of a batch share one column set, so resolving once per batch
        # is equivalent to resolving per row.
        return batch.column(resolve_suffix_key(name, leaf, batch.columns))

    return resolve


def _lower_unary_batch(expr: UnaryOp) -> BatchExpression:
    operand = _lower_batch(expr.operand)
    if expr.op == "-":

        def negate(batch: Batch) -> list[object]:
            out: list[object] = []
            append = out.append
            for value in operand(batch):
                if value is None:
                    append(None)
                elif not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise EvaluationError(
                        f"cannot negate non-numeric value {value!r}"
                    )
                else:
                    append(-value)
            return out

        return negate
    if expr.op == "NOT":

        def invert(batch: Batch) -> list[object]:
            out: list[object] = []
            append = out.append
            for value in operand(batch):
                if value is None:
                    append(None)
                elif value is True:
                    append(False)
                elif value is False:
                    append(True)
                else:
                    append(not _as_bool(value))  # raises the type error
            return out

        return invert
    op = expr.op

    def unknown(batch: Batch) -> list[object]:
        raise EvaluationError(f"unknown unary operator {op!r}")

    return unknown


def _lower_logic_operand_batch(expr: Expression) -> BatchExpression:
    fn = _lower_batch(expr)
    if _boolean_valued(expr):
        return fn

    def checked(batch: Batch) -> list[object]:
        out: list[object] = []
        append = out.append
        for value in fn(batch):
            if value is None or value is True or value is False:
                append(value)
            else:
                append(_as_bool(value))  # raises the interpreter's type error
        return out

    return checked


def _lower_binary_batch(expr: BinaryOp) -> BatchExpression:
    op = expr.op
    if op in ("AND", "OR"):
        left = _lower_logic_operand_batch(expr.left)
        right = _lower_logic_operand_batch(expr.right)
        # Kleene logic with *sub-batch* short-circuit: the right operand is
        # evaluated only over rows the left side left undecided, matching
        # the row path, which never evaluates (and never raises from) the
        # right side of a decided conjunct.
        if op == "AND":

            def conjoin(batch: Batch) -> list[object]:
                a = left(batch)
                pending = [i for i, value in enumerate(a) if value is not False]
                if not pending:
                    return a
                if len(pending) == len(a):
                    b = right(batch)
                    out: list[object] = []
                    append = out.append
                    for x, y in zip(a, b):
                        if y is False:
                            append(False)
                        elif x is None or y is None:
                            append(None)
                        else:
                            append(True)
                    return out
                b_sub = right(batch.take(pending))
                # The left column may be a batch's own list; copy, then
                # overwrite only the undecided slots (False stays False).
                out = list(a)
                for pos, i in enumerate(pending):
                    y = b_sub[pos]
                    if y is False:
                        out[i] = False
                    elif a[i] is None or y is None:
                        out[i] = None
                    else:
                        out[i] = True
                return out

            return conjoin

        def disjoin(batch: Batch) -> list[object]:
            a = left(batch)
            pending = [i for i, value in enumerate(a) if value is not True]
            if not pending:
                return a
            if len(pending) == len(a):
                b = right(batch)
                out: list[object] = []
                append = out.append
                for x, y in zip(a, b):
                    if y is True:
                        append(True)
                    elif x is None or y is None:
                        append(None)
                    else:
                        append(False)
                return out
            b_sub = right(batch.take(pending))
            out = list(a)
            for pos, i in enumerate(pending):
                y = b_sub[pos]
                if y is True:
                    out[i] = True
                elif a[i] is None or y is None:
                    out[i] = None
                else:
                    out[i] = False
            return out

        return disjoin
    left = _lower_batch(expr.left)
    right = _lower_batch(expr.right)
    if op in ("+", "-", "*"):
        op_fn = _TOTAL_ARITHMETIC_OPS[op]

        def arith(batch: Batch) -> list[object]:
            out: list[object] = []
            append = out.append
            for a, b in zip(left(batch), right(batch)):
                if a is None or b is None:
                    append(None)
                elif (type(a) is int or type(a) is float) and (
                    type(b) is int or type(b) is float
                ):
                    append(op_fn(a, b))
                else:
                    append(_arithmetic(op, a, b))
            return out

        return arith
    if op in ("/", "%"):
        div_fn = _DIVISION_OPS[op]

        def divide(batch: Batch) -> list[object]:
            out: list[object] = []
            append = out.append
            for a, b in zip(left(batch), right(batch)):
                if a is None or b is None:
                    append(None)
                elif (type(a) is int or type(a) is float) and (
                    type(b) is int or type(b) is float
                ):
                    # b == 0 also catches -0.0; either raises
                    # ZeroDivisionError in the evaluator, which maps to NULL.
                    append(None if b == 0 else div_fn(a, b))
                else:
                    append(_arithmetic(op, a, b))
            return out

        return divide
    if op in _COMPARE_OPS:
        op_fn = _COMPARE_OPS[op]

        def compare(batch: Batch) -> list[object]:
            out: list[object] = []
            append = out.append
            for a, b in zip(left(batch), right(batch)):
                if a is None or b is None:
                    append(None)
                    continue
                ta = type(a)
                tb = type(b)
                if ta is tb:
                    if ta is int or ta is float or ta is str or ta is bool:
                        append(op_fn(a, b))
                        continue
                elif (ta is int or ta is float) and (tb is int or tb is float):
                    append(op_fn(a, b))
                    continue
                append(_compare(op, a, b))
            return out

        if op in ("=", "!="):
            coded = _wrap_code_equality(expr, op, compare)
            if coded is not None:
                return coded
        return compare
    if op == "LIKE":

        def like(batch: Batch) -> list[object]:
            out: list[object] = []
            append = out.append
            for a, b in zip(left(batch), right(batch)):
                if a is None or b is None:
                    append(None)
                else:
                    append(_like(str(a), str(b)))
            return out

        coded_like = _wrap_code_like(expr, like)
        if coded_like is not None:
            return coded_like
        return like

    def unknown(batch: Batch) -> list[object]:
        raise EvaluationError(f"unknown binary operator {op!r}")

    return unknown


def _wrap_code_equality(
    expr: BinaryOp, op: str, generic: BatchExpression
) -> BatchExpression | None:
    """Code-space ``col = literal`` / ``col != literal`` (either orientation).

    On a dictionary-coded column one ``code_of`` lookup replaces the
    per-row value comparison; every 3VL case matches the generic kernel
    exactly: coded columns hold only str/None, so a non-str or absent
    literal can never equal any value (``=`` → False, ``!=`` → True for
    non-null rows) and a NULL literal yields NULL everywhere.  Columns
    without codes fall through to ``generic`` untouched.
    """
    for ident, literal in ((expr.left, expr.right), (expr.right, expr.left)):
        if not (
            isinstance(ident, Identifier)
            and len(ident.path) == 1
            and isinstance(literal, Literal)
        ):
            continue
        name = ident.name
        value = literal.value
        negated = op == "!="

        def coded(batch: Batch) -> list[object]:
            entry = batch.codes(name)
            if entry is None:
                return generic(batch)
            dictionary, codes = entry
            if value is None:
                return [None] * batch.length
            target = (
                dictionary.code_of.get(value)  # type: ignore[attr-defined]
                if type(value) is str
                else None
            )
            if target is None:
                return [None if c is None else negated for c in codes]
            if negated:
                return [None if c is None else c != target for c in codes]
            return [None if c is None else c == target for c in codes]

        return coded
    return None


def _wrap_code_like(
    expr: BinaryOp, generic: BatchExpression
) -> BatchExpression | None:
    """Code-space ``col LIKE 'pattern'``: match once per dictionary entry.

    The per-dictionary mask is memoized on the compiled closure (holding
    the dictionary pins its id, so the identity check stays valid); each
    row is then one list index instead of a regex match.
    """
    if not (
        isinstance(expr.left, Identifier)
        and len(expr.left.path) == 1
        and isinstance(expr.right, Literal)
    ):
        return None
    name = expr.left.name
    pattern = expr.right.value
    memo: dict[int, tuple[object, list[bool]]] = {}

    def coded(batch: Batch) -> list[object]:
        entry = batch.codes(name)
        if entry is None:
            return generic(batch)
        dictionary, codes = entry
        if pattern is None:
            return [None] * batch.length
        cached = memo.get(id(dictionary))
        if cached is None or cached[0] is not dictionary:
            if len(memo) > 8:
                memo.clear()
            text = str(pattern)
            mask = [
                _like(value, text)
                for value in dictionary.values  # type: ignore[attr-defined]
            ]
            memo[id(dictionary)] = cached = (dictionary, mask)
        mask = cached[1]
        return [None if c is None else mask[c] for c in codes]

    return coded


def _lower_function_call_batch(expr: FunctionCall) -> BatchExpression:
    book = code_book(expr, _DEFAULT_REGISTRY)
    if book is not None:
        return _lower_code_book_batch(expr, book)
    return _lower_generic_call_batch(expr)


def _lower_code_book_batch(expr: FunctionCall, book: CodeBook) -> BatchExpression:
    """Batch twin of the row path's code-book lookup (``code_book``).

    A batch whose values are all of the table's exact types (or NULL,
    which is never a code) maps through the table in one comprehension;
    any other batch runs the generic chain, lowered on first need.
    """
    resolve = _lower_identifier_batch(book.identifier)
    get = book.table.get
    default = book.default
    decidable = book.types | {type(None)}
    generic: BatchExpression | None = None

    def decode(batch: Batch) -> list[object]:
        nonlocal generic
        values = resolve(batch)
        if set(map(type, values)) <= decidable:
            return [get(value, default) for value in values]
        if generic is None:
            generic = _lower_generic_call_batch(expr)
        return generic(batch)

    return decode


def _lower_generic_call_batch(expr: FunctionCall) -> BatchExpression:
    name = expr.name
    arg_fns = tuple(_lower_batch(arg) for arg in expr.args)
    arg_count = len(arg_fns)
    # Lazy binding after the first argument evaluation, like the row path:
    # unknown-function errors only fire when a row actually reaches the call.
    bound: list = [None]

    def invoke(batch: Batch) -> list[object]:
        columns = [fn(batch) for fn in arg_fns]
        impl = bound[0]
        if impl is None:
            if batch.length == 0:
                return []
            bound[0] = impl = _DEFAULT_REGISTRY.bind(name, arg_count)
        if not columns:
            return [impl() for _ in range(batch.length)]
        return [impl(*args) for args in zip(*columns)]

    return invoke


def _lower_in_list_batch(expr: InList) -> BatchExpression:
    operand = _lower_batch(expr.operand)
    item_fns = tuple(_lower_batch(item) for item in expr.items)
    negated = expr.negated

    def member(batch: Batch) -> list[object]:
        values = operand(batch)
        item_cols = [fn(batch) for fn in item_fns]
        out: list[object] = []
        append = out.append
        for i, value in enumerate(values):
            if value is None:
                append(None)
                continue
            saw_null = False
            result: object = negated
            for col in item_cols:
                candidate = col[i]
                if candidate is None:
                    saw_null = True
                    continue
                if _compare("=", value, candidate) is True:
                    result = not negated
                    break
            else:
                if saw_null:
                    result = None
            append(result)
        return out

    coded = _wrap_code_membership(expr, member)
    if coded is not None:
        return coded
    return member


def _wrap_code_membership(
    expr: InList, generic: BatchExpression
) -> BatchExpression | None:
    """Code-space ``col IN (literals)`` / ``NOT IN`` over a coded column.

    Matches the row semantics exactly: a non-null value that equals some
    non-NULL item yields ``not negated``; otherwise NULL when any item is
    NULL, else ``negated``.  Non-str items can never equal a coded (str)
    value, so they only matter through the saw-NULL case — which is
    decided entirely at compile time.
    """
    ident = expr.operand
    if not (
        isinstance(ident, Identifier)
        and len(ident.path) == 1
        and all(isinstance(item, Literal) for item in expr.items)
    ):
        return None
    name = ident.name
    negated = expr.negated
    literals = [item.value for item in expr.items]
    str_items = [value for value in literals if type(value) is str]
    miss: object = None if any(value is None for value in literals) else negated
    hit = not negated

    def coded(batch: Batch) -> list[object]:
        entry = batch.codes(name)
        if entry is None:
            return generic(batch)
        dictionary, codes = entry
        code_of = dictionary.code_of  # type: ignore[attr-defined]
        matched = {code_of[value] for value in str_items if value in code_of}
        if not matched:
            return [None if c is None else miss for c in codes]
        return [
            None if c is None else (hit if c in matched else miss)
            for c in codes
        ]

    return coded
