"""Per-chunk zone maps, dictionary encoding, and Select conjunct analysis.

Statistics live *outside* the plan: they are derived from
``Table.column_snapshot()`` and cached on the
table keyed by its data ``version`` via :meth:`Table.derived`, so every
mutation invalidates them through the machinery the plan cache already
trusts — no new invalidation channel.

Two artifact kinds are derived per column:

* **Zone maps** — one :class:`ChunkStats` per ``BATCH_SIZE`` chunk
  (min/max inside a type band, null count, chunk-constant flag).  A
  :class:`SelectAnalysis` probes them per conjunct to classify each chunk
  as *skip* (no row can match), *all-match* (the conjunct is true for
  every row, so it is dropped for that chunk), or *evaluate*.
* **Dictionaries** — lazy low-cardinality encodings for TEXT columns.  A
  :class:`Dictionary` maps distinct strings to dense integer codes; batch
  kernels compare/group/join on codes and decode only at output or
  fallback boundaries.  Encoding is *refused* (with a recorded reason)
  for short, mixed-type, or high-cardinality columns so the encoded path
  never has to approximate 3VL or ``canonical_key`` semantics.

Every skip/all-match rule here is justified against
:func:`repro.expr.evaluator._compare`'s exact semantics; where evaluation
could raise (cross-band ordering, date ordering) the probe answers
*evaluate* so error behaviour stays bit-identical to the interpreted
oracle.
"""

from __future__ import annotations

from datetime import date
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from repro.expr.ast import BinaryOp, Expression, Identifier, InList, IsNull, Literal
from repro.relational.batch import BATCH_SIZE

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.relational.table import Table

# -- global switch ------------------------------------------------------------

_ENABLED = True


def statistics_enabled() -> bool:
    """Whether scans attach zone maps / dictionaries (default on)."""
    return _ENABLED


def set_statistics_enabled(enabled: bool) -> bool:
    """Toggle statistics globally (benchmark baselines); returns the old value.

    Only scan-time *attachment* is gated — already-built caches stay on
    their tables and simply go unused while disabled.
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    return previous


# -- conjunct decomposition (shared with the optimizer) -----------------------

#: ``literal <op> column`` reads as ``column <flipped op> literal``.
_FLIPPED_COMPARE = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _conjuncts(expr: Expression) -> Iterator[Expression]:
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        yield from _conjuncts(expr.left)
        yield from _conjuncts(expr.right)
    else:
        yield expr


def _equality_item(
    conjunct: Expression, columns: set[str]
) -> tuple[str, object] | None:
    """``col = literal`` (either side) over a plain existing column, or None."""
    if not (isinstance(conjunct, BinaryOp) and conjunct.op == "="):
        return None
    for ident, literal in (
        (conjunct.left, conjunct.right),
        (conjunct.right, conjunct.left),
    ):
        if not (isinstance(ident, Identifier) and isinstance(literal, Literal)):
            continue
        if len(ident.path) != 1 or ident.name not in columns:
            continue
        value = literal.value
        # NULL never matches (stays in the residual predicate and filters
        # everything); unhashable values cannot probe a hash bucket.
        if value is None:
            continue
        try:
            hash(value)
        except TypeError:
            continue
        return (ident.name, value)
    return None


def _in_list_item(
    conjunct: Expression, columns: set[str]
) -> tuple[str, tuple[object, ...]] | None:
    """``col IN (literals)`` over a plain existing column, or None.

    NULL items are dropped from the probe tuple: in filter context a row
    either matches a non-NULL item (kept either way) or yields NULL
    (dropped either way), so the kept set is unchanged.  Negated lists
    never lower — ``NOT IN`` with a NULL item filters everything.
    """
    if not (isinstance(conjunct, InList) and not conjunct.negated):
        return None
    ident = conjunct.operand
    if not (
        isinstance(ident, Identifier)
        and len(ident.path) == 1
        and ident.name in columns
    ):
        return None
    values: list[object] = []
    for item in conjunct.items:
        if not isinstance(item, Literal):
            return None
        value = item.value
        if value is None:
            continue
        try:
            hash(value)
        except TypeError:
            return None
        values.append(value)
    return (ident.name, tuple(values))


def _comparison_item(conjunct: Expression) -> tuple[str, str, object] | None:
    """``col <op> literal`` (either orientation) for =/!=/ranges, or None.

    Unlike :func:`_equality_item` this keeps NULL and unhashable literals —
    zone probes can reason about them (``col = NULL`` keeps no rows) and
    never hash anything.
    """
    if not isinstance(conjunct, BinaryOp):
        return None
    op = conjunct.op
    if op not in ("=", "!=") and op not in _FLIPPED_COMPARE:
        return None
    for ident, literal, oriented in (
        (conjunct.left, conjunct.right, op),
        (conjunct.right, conjunct.left, _FLIPPED_COMPARE.get(op, op)),
    ):
        if (
            isinstance(ident, Identifier)
            and len(ident.path) == 1
            and isinstance(literal, Literal)
        ):
            return (ident.name, oriented, literal.value)
    return None


# -- zone maps ----------------------------------------------------------------

#: Per-chunk probe verdicts.  ``SKIP``: no row in the chunk can pass the
#: conjunct (the chunk is never evaluated).  ``ALL``: every row passes
#: (the conjunct is dropped for the chunk).  ``EVAL``: undecided.
CHUNK_SKIP = "skip"
CHUNK_ALL = "all"
CHUNK_EVAL = "evaluate"


class ChunkStats:
    """Zone-map entry for one BATCH_SIZE chunk of one column.

    ``band`` names the homogeneous comparison class of the chunk's
    non-null values — ``"num"`` (int/float, no NaN), ``"str"``,
    ``"bool"``, ``"date"`` — or None when the chunk is mixed-type,
    NaN-poisoned, or all-NULL; ``lo``/``hi`` are only meaningful inside a
    band.  ``constant`` marks single-valued chunks (incl. all-NULL).
    """

    __slots__ = ("length", "null_count", "band", "lo", "hi", "constant")

    def __init__(
        self,
        length: int,
        null_count: int,
        band: str | None,
        lo: object,
        hi: object,
    ):
        self.length = length
        self.null_count = null_count
        self.band = band
        self.lo = lo
        self.hi = hi
        self.constant = null_count == length or (
            null_count == 0 and band is not None and lo == hi
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChunkStats(n={self.length}, nulls={self.null_count}, "
            f"band={self.band}, lo={self.lo!r}, hi={self.hi!r})"
        )


def _chunk_stats(chunk: Sequence[object]) -> ChunkStats:
    length = len(chunk)
    null_count = chunk.count(None) if isinstance(chunk, list) else sum(
        1 for v in chunk if v is None
    )
    if null_count == length:
        return ChunkStats(length, null_count, None, None, None)
    non_null = [v for v in chunk if v is not None] if null_count else chunk
    kinds = set(map(type, non_null))
    band: str | None
    if kinds <= {int, float}:  # type() is exact, so bool never lands here
        # NaN poisons min/max ordering; demote the chunk to unanalyzed.
        if float in kinds and any(v != v for v in non_null):
            band = None
        else:
            band = "num"
    elif kinds == {str}:
        band = "str"
    elif kinds == {bool}:
        band = "bool"
    elif kinds == {date}:
        band = "date"
    else:
        band = None
    if band is None:
        return ChunkStats(length, null_count, None, None, None)
    return ChunkStats(length, null_count, band, min(non_null), max(non_null))


def column_zone_map(table: "Table", column: str) -> list[ChunkStats] | None:
    """Per-chunk stats for one column, cached per data version.  None when
    the column does not exist — the caller must then evaluate, so
    ``UnknownIdentifierError`` parity is preserved.
    """
    if not table.schema.has_column(column):
        return None

    def build() -> list[ChunkStats]:
        values = table.column_values(column)
        return [
            _chunk_stats(values[start : start + BATCH_SIZE])
            for start in range(0, len(values), BATCH_SIZE)
        ]

    return table.derived(("zone", column), build)


# -- per-conjunct probes ------------------------------------------------------

Probe = Callable[[ChunkStats], str]


def _value_band(value: object) -> str | None:
    kind = type(value)
    if kind is str:
        return "str"
    if kind is bool:
        return "bool"
    if kind is int:
        return "num"
    if kind is float:
        return None if value != value else "num"
    if kind is date:
        return "date"
    return None


def _equality_probe(value: object) -> Probe:
    band = None if value is None else _value_band(value)

    def probe(stats: ChunkStats) -> str:
        if stats.null_count == stats.length:
            return CHUNK_SKIP  # every comparison yields NULL
        if value is None:
            return CHUNK_SKIP  # col = NULL keeps no rows
        if stats.band is None or band is None:
            return CHUNK_EVAL
        if band != stats.band:
            return CHUNK_SKIP  # cross-band ``=`` is False for every row
        if value < stats.lo or value > stats.hi:  # type: ignore[operator]
            return CHUNK_SKIP
        if stats.null_count == 0 and stats.lo == stats.hi == value:
            return CHUNK_ALL
        return CHUNK_EVAL

    return probe


def _inequality_probe(value: object) -> Probe:
    band = None if value is None else _value_band(value)

    def probe(stats: ChunkStats) -> str:
        if stats.null_count == stats.length:
            return CHUNK_SKIP
        if value is None:
            return CHUNK_SKIP  # col != NULL keeps no rows either
        if stats.band is None or band is None:
            return CHUNK_EVAL
        if band != stats.band:
            # Cross-band ``!=`` is True for every non-null row.
            return CHUNK_ALL if stats.null_count == 0 else CHUNK_EVAL
        if stats.lo == stats.hi == value:
            return CHUNK_SKIP  # constant == literal: False or NULL everywhere
        if stats.null_count == 0 and (
            value < stats.lo or value > stats.hi  # type: ignore[operator]
        ):
            return CHUNK_ALL
        return CHUNK_EVAL

    return probe


def _range_probe(op: str, value: object) -> Probe:
    band = None if value is None else _value_band(value)

    def probe(stats: ChunkStats) -> str:
        if stats.null_count == stats.length:
            return CHUNK_SKIP
        if value is None:
            return CHUNK_SKIP  # ordering vs NULL yields NULL, never raises
        if stats.band is None or band is None:
            return CHUNK_EVAL
        if band != stats.band or band == "date":
            # Cross-band (and date) ordering raises in the evaluator; the
            # chunk must be evaluated so the error surfaces identically.
            return CHUNK_EVAL
        lo, hi, nulls = stats.lo, stats.hi, stats.null_count
        if op == "<":
            if not (lo < value):  # type: ignore[operator]
                return CHUNK_SKIP
            if nulls == 0 and hi < value:  # type: ignore[operator]
                return CHUNK_ALL
        elif op == "<=":
            if lo > value:  # type: ignore[operator]
                return CHUNK_SKIP
            if nulls == 0 and hi <= value:  # type: ignore[operator]
                return CHUNK_ALL
        elif op == ">":
            if not (hi > value):  # type: ignore[operator]
                return CHUNK_SKIP
            if nulls == 0 and lo > value:  # type: ignore[operator]
                return CHUNK_ALL
        else:  # ">="
            if hi < value:  # type: ignore[operator]
                return CHUNK_SKIP
            if nulls == 0 and lo >= value:  # type: ignore[operator]
                return CHUNK_ALL
        return CHUNK_EVAL

    return probe


def _in_probe(values: tuple[object, ...]) -> Probe:
    banded = [(_value_band(v), v) for v in values]

    def probe(stats: ChunkStats) -> str:
        if stats.null_count == stats.length:
            return CHUNK_SKIP
        if not values:
            return CHUNK_SKIP  # empty / all-NULL list keeps no rows
        if stats.band is None:
            return CHUNK_EVAL
        alive = False
        hit_constant = False
        for band, value in banded:
            if band is None:
                return CHUNK_EVAL
            if band != stats.band:
                continue  # cross-band ``=`` is False: item can never match
            if value < stats.lo or value > stats.hi:  # type: ignore[operator]
                continue
            alive = True
            if stats.null_count == 0 and stats.lo == stats.hi == value:
                hit_constant = True
        if not alive:
            return CHUNK_SKIP
        if hit_constant:
            return CHUNK_ALL
        return CHUNK_EVAL

    return probe


def _null_probe(negated: bool) -> Probe:
    def probe(stats: ChunkStats) -> str:
        if negated:
            if stats.null_count == stats.length:
                return CHUNK_SKIP
            if stats.null_count == 0:
                return CHUNK_ALL
        else:
            if stats.null_count == 0:
                return CHUNK_SKIP
            if stats.null_count == stats.length:
                return CHUNK_ALL
        return CHUNK_EVAL

    return probe


def _conjunct_probe(conjunct: Expression) -> tuple[str, Probe] | None:
    """(column, probe) for one analyzable conjunct, or None."""
    item = _comparison_item(conjunct)
    if item is not None:
        name, op, value = item
        if op == "=":
            return (name, _equality_probe(value))
        if op == "!=":
            return (name, _inequality_probe(value))
        return (name, _range_probe(op, value))
    in_item = _in_list_item(conjunct, _ANY_COLUMN)
    if in_item is not None:
        return (in_item[0], _in_probe(in_item[1]))
    if (
        isinstance(conjunct, IsNull)
        and isinstance(conjunct.operand, Identifier)
        and len(conjunct.operand.path) == 1
    ):
        return (conjunct.operand.name, _null_probe(conjunct.negated))
    return None


class _AnyColumn:
    """A ``columns`` set that admits every name (stats has no schema yet)."""

    def __contains__(self, name: object) -> bool:
        return True


_ANY_COLUMN: set[str] = _AnyColumn()  # type: ignore[assignment]


#: Sentinel returned by :meth:`SelectAnalysis.decide` for skipped chunks.
SKIP_CHUNK = object()


class SelectAnalysis:
    """A Select predicate decomposed into zone-map-probeable conjuncts.

    Built once per vectorized Select execution; ``decide``
    classifies each scanned chunk.  Conjuncts the analysis cannot probe
    (non-literal, dotted paths, NOT IN, …) are always kept for evaluation.
    """

    __slots__ = ("conjuncts", "probes", "analyzable")

    def __init__(self, predicate: Expression):
        self.conjuncts: list[Expression] = list(_conjuncts(predicate))
        self.probes: list[tuple[str, Probe] | None] = [
            _conjunct_probe(conjunct) for conjunct in self.conjuncts
        ]
        self.analyzable = any(probe is not None for probe in self.probes)

    def decide(self, table: "Table", chunk: int):
        """Classify one chunk: :data:`SKIP_CHUNK`, or (kept conjunct index
        tuple, dropped-conjunct count).  Unknown columns and out-of-range
        chunk indices degrade to *evaluate* (never unsound).
        """
        kept: list[int] = []
        dropped = 0
        for index, probe in enumerate(self.probes):
            if probe is None:
                kept.append(index)
                continue
            column, classify = probe
            zone = column_zone_map(table, column)
            if zone is None or chunk >= len(zone):
                kept.append(index)
                continue
            verdict = classify(zone[chunk])
            if verdict is CHUNK_SKIP:
                return SKIP_CHUNK
            if verdict is CHUNK_ALL:
                dropped += 1
            else:
                kept.append(index)
        return (tuple(kept), dropped)


# -- dictionary encoding ------------------------------------------------------

#: Columns shorter than this never encode — the translation caches cost
#: more than they save on tiny extents.
DICT_MIN_ROWS = 256

#: Absolute cap on dictionary size; below it the cap scales with the
#: extent so "low cardinality" stays a constant fraction of the rows.
DICT_MAX_CARDINALITY = 4096


def _cardinality_cap(length: int) -> int:
    return min(DICT_MAX_CARDINALITY, max(16, length // 16))


class Dictionary:
    """A built string dictionary: dense codes 0..k-1 in first-seen order.

    ``codes`` covers the *full* extent the dictionary was built over
    (None for NULL), so batches gather code slices exactly like value
    slices.  ``values[code]`` decodes; ``code_of[value]`` translates
    literals into code space.
    """

    __slots__ = ("values", "codes", "code_of")

    def __init__(
        self,
        values: list[str],
        codes: list[int | None],
        code_of: dict[str, int],
    ):
        self.values = values
        self.codes = codes
        self.code_of = code_of

    @property
    def cardinality(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Dictionary(k={len(self.values)}, n={len(self.codes)})"


#: Encoding refusal reasons (recorded so traces/CLI can explain).
REFUSED_TOO_FEW_ROWS = "too_few_rows"
REFUSED_MIXED_TYPE = "mixed_type"
REFUSED_HIGH_CARDINALITY = "high_cardinality"


def _build_dictionary(values: Sequence[object]) -> Dictionary | str:
    """Build a dictionary over one column extent, or a refusal reason.

    A single pass that bails early: the first non-str non-null value
    refuses (mixed-type columns keep evaluator semantics by staying raw),
    as does crossing the cardinality cap.
    """
    length = len(values)
    if length < DICT_MIN_ROWS:
        return REFUSED_TOO_FEW_ROWS
    cap = _cardinality_cap(length)
    code_of: dict[str, int] = {}
    codes: list[int | None] = []
    append = codes.append
    get = code_of.get
    for value in values:
        if value is None:
            append(None)
            continue
        if type(value) is not str:
            return REFUSED_MIXED_TYPE
        code = get(value)
        if code is None:
            code = len(code_of)
            if code >= cap:
                return REFUSED_HIGH_CARDINALITY
            code_of[value] = code
        append(code)
    return Dictionary(list(code_of), codes, code_of)


def encoded_columns(table: "Table") -> dict[str, Dictionary]:
    """Column → built dictionary for the extent, cached per data version.

    Only declared-TEXT columns are attempted (other types cannot hold the
    low-cardinality label/code shape, and attempting them would just burn
    a pass to refuse).  Refusals are cached too — see
    :func:`encoding_states`.
    """
    return {
        name: state
        for name, state in encoding_states(table).items()
        if isinstance(state, Dictionary)
    }


def encoding_states(table: "Table") -> dict[str, "Dictionary | str"]:
    """Column → Dictionary or refusal reason, for every TEXT column."""

    def build() -> dict[str, Dictionary | str]:
        columns = table.column_snapshot()
        states: dict[str, Dictionary | str] = {}
        for column in table.schema.columns:
            if column.dtype.name != "TEXT":
                continue
            states[column.name] = _build_dictionary(columns[column.name])
        return states

    return table.derived("dict", build)


def column_dictionary(table: "Table", column: str) -> Dictionary | None:
    """One column's dictionary over the whole extent, or None if refused.

    The same dictionary :func:`encoded_columns` holds for ``column``, but
    built (and cached per data version) on its own: planning estimates
    read one column's dictionary, and re-encoding every TEXT column each
    time a drifted estimate is rebuilt would cost a pass per column.
    """
    if not table.schema.has_column(column):
        return None
    if table.schema.column(column).dtype.name != "TEXT":
        return None
    state = table.derived(
        ("dict_column", column),
        lambda: _build_dictionary(table.column_values(column)),
    )
    return state if isinstance(state, Dictionary) else None


# -- inspection (CLI ``trace query --stats``) ---------------------------------

def table_statistics_report(table: "Table") -> dict[str, object]:
    """Zone-map, dictionary, and NDV state for one table, building on demand."""
    # Function-level import: cost.py imports this module for its probe
    # machinery, so the enrichment direction must stay lazy.
    from repro.relational.cost import column_ndv

    columns: list[dict[str, object]] = []
    states = encoding_states(table)
    for column in table.schema.columns:
        zone = column_zone_map(table, column.name) or []
        nulls = sum(stats.null_count for stats in zone)
        bands = sorted({stats.band for stats in zone if stats.band is not None})
        entry: dict[str, object] = {
            "column": column.name,
            "dtype": column.dtype.name,
            "chunks": len(zone),
            "nulls": nulls,
            "bands": bands,
            "constant_chunks": sum(1 for stats in zone if stats.constant),
        }
        banded = [stats for stats in zone if stats.band is not None]
        if banded and len(bands) == 1:
            # min/max only make sense within one band; mixed-band values
            # (e.g. after a stray write) are not mutually comparable.
            entry["min"] = min(stats.lo for stats in banded)  # type: ignore[type-var]
            entry["max"] = max(stats.hi for stats in banded)  # type: ignore[type-var]
        ndv = column_ndv(table, column.name)
        if ndv is not None:
            entry["ndv"] = round(ndv[0], 1)
            entry["ndv_source"] = ndv[1]
        state = states.get(column.name)
        if isinstance(state, Dictionary):
            entry["dictionary"] = {
                "state": "built",
                "cardinality": state.cardinality,
            }
        elif state is not None:
            entry["dictionary"] = {"state": "refused", "reason": state}
        columns.append(entry)
    return {
        "table": table.name,
        "rows": len(table),
        "version": table.version,
        "columns": columns,
    }
