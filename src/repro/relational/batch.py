"""Columnar batches for the vectorized executor.

A :class:`Batch` holds a fixed-size horizontal slice of a relation as one
Python list per column.  NULL keeps the row-dict convention exactly: the
value ``None`` inside a column list — there is no separate validity mask,
so every 3VL rule from :mod:`repro.expr.evaluator` applies to column
elements unchanged.

Batches can be *lazy gathers*: ``batch.take(indices)`` does not copy any
column up front, it records (source batch, row indices) and materializes a
column only when some kernel first asks for it.  The vectorized AND/OR
kernels rely on this for short-circuit parity — the right operand is
evaluated only over the still-undecided rows, and only for the columns the
operand actually touches, matching the row-at-a-time evaluator which never
evaluates the right side of a decided conjunct (and therefore never raises
its errors).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

Row = dict[str, object]

#: Rows per batch on the vectorized path.  Big enough to amortize the
#: per-batch Python overhead of each kernel, small enough that a lazy
#: gather of one column stays cache-friendly.
BATCH_SIZE = 1024


class Batch:
    """One columnar slice: ``columns`` in output order, column → value list.

    ``data`` may be missing columns when the batch is a lazy gather; use
    :meth:`column` (never ``data[...]`` directly) so gathers materialize on
    demand.  All column lists share one ``length``.
    """

    __slots__ = (
        "columns",
        "length",
        "data",
        "zone",
        "_source",
        "_indices",
        "_runs",
        "_encodings",
    )

    def __init__(
        self,
        columns: tuple[str, ...],
        data: dict[str, list[object]],
        length: int,
        _source: "Batch | None" = None,
        _indices: Sequence[int] | None = None,
        zone: "tuple[object, int] | None" = None,
        encodings: "dict[str, tuple[object, list[int | None]] | None] | None" = None,
    ):
        self.columns = columns
        self.data = data
        self.length = length
        self._source = _source
        self._indices = _indices
        # Contiguous-run decomposition of _indices, computed on the first
        # gather: a list of (start, stop) slices, None when per-element
        # gathering is cheaper, False while not yet computed.
        self._runs: "list[tuple[int, int]] | None | bool" = False
        # Zone-map identity: (table, chunk index) when
        # this batch's rows are a subset of one scanned chunk, else None.
        # Propagated through take() — every skip/all-match rule stays sound
        # on row subsets of the chunk it was computed for.
        self.zone = zone
        # column → (dictionary, code list aligned with this batch's rows)
        # or None (= known unencoded); also the per-batch memo for
        # :meth:`codes` gathers.  None when nothing is known yet.
        self._encodings = encodings

    def __len__(self) -> int:
        return self.length

    def column(self, name: str) -> list[object]:
        """The value list for ``name``, gathering lazily if needed.

        Raises ``KeyError`` for names outside :attr:`columns` — callers
        resolve dotted/suffix identifiers before asking.
        """
        col = self.data.get(name)
        if col is None:
            source = self._source
            if source is None:
                raise KeyError(name)
            base = source.column(name)
            runs = self._gather_runs()
            if runs is None:
                col = [base[i] for i in self._indices]  # type: ignore[union-attr]
            elif len(runs) == 1:
                start, stop = runs[0]
                col = base[start:stop]
            else:
                col = []
                extend = col.extend
                for start, stop in runs:
                    extend(base[start:stop])
            self.data[name] = col
        return col

    def _gather_runs(self) -> "list[tuple[int, int]] | None":
        """Slice runs covering ``_indices``, or None to gather per element.

        Selection vectors from low-selectivity filters are mostly
        ascending stretches of consecutive positions; copying those as
        list slices moves the loop into C.  Decomposition is abandoned once
        runs average under 4 elements — at that density per-element
        indexing wins.
        """
        runs = self._runs
        if runs is not False:
            return runs  # type: ignore[return-value]
        indices = self._indices
        if type(indices) is range and indices.step == 1:
            computed = [(indices.start, indices.stop)] if len(indices) else []
            self._runs = computed
            return computed
        n = len(indices)  # type: ignore[arg-type]
        if n < 8:
            self._runs = None
            return None
        computed = []
        append = computed.append
        max_runs = n >> 2
        iterator = iter(indices)  # type: ignore[arg-type]
        start = prev = next(iterator)
        for index in iterator:
            if index == prev + 1:
                prev = index
                continue
            append((start, prev + 1))
            if len(computed) > max_runs:
                self._runs = None
                return None
            start = prev = index
        append((start, prev + 1))
        self._runs = computed
        return computed

    def codes(self, name: str) -> "tuple[object, list[int | None]] | None":
        """Dictionary codes for ``name`` aligned with this batch, or None.

        Returns ``(dictionary, code_list)`` when the column is
        dictionary-encoded (codes gather lazily through the same run
        decomposition as values); None means the column is not encoded and
        the caller must use :meth:`column` values.  The answer is memoized
        per batch either way.
        """
        encodings = self._encodings
        if encodings is None:
            encodings = self._encodings = {}
        entry = encodings.get(name, False)
        if entry is not False:
            return entry  # type: ignore[return-value]
        source = self._source
        base = source.codes(name) if source is not None else None
        if base is None:
            encodings[name] = None
            return None
        dictionary, base_codes = base
        runs = self._gather_runs()
        if runs is None:
            codes = [base_codes[i] for i in self._indices]  # type: ignore[union-attr]
        elif len(runs) == 1:
            start, stop = runs[0]
            codes = base_codes[start:stop]
        else:
            codes = []
            extend = codes.extend
            for start, stop in runs:
                extend(base_codes[start:stop])
        entry = (dictionary, codes)
        encodings[name] = entry
        return entry

    def take(self, indices: Sequence[int]) -> "Batch":
        """A lazy gather of the given row positions (columns on demand).

        Taking from a batch that is itself an unmaterialized gather
        *composes* the index maps instead of chaining ``_source`` hops, so
        any take chain stays at most one gather away from a materialized
        source — deep Select chains would otherwise re-gather per level.
        """
        source = self._source
        if source is not None:
            own = self._indices
            composed = [own[i] for i in indices]  # type: ignore[index]
            return Batch(
                self.columns, {}, len(composed), source, composed, zone=self.zone
            )
        return Batch(self.columns, {}, len(indices), self, indices, zone=self.zone)

    def materialize(self) -> dict[str, list[object]]:
        """All columns, gathered: column name → value list."""
        return {name: self.column(name) for name in self.columns}

    def to_rows(self) -> list[Row]:
        """The batch as row dicts (the row/batch boundary)."""
        return _row_builder(self.columns)(self)

    @classmethod
    def from_rows(
        cls, columns: tuple[str, ...], rows: Sequence[Row]
    ) -> "Batch":
        """Pack row dicts into one batch (the fallback boundary).

        One ``row.get`` comprehension per column, measured fastest at
        batch sizes: single-pass alternatives (generated per-row tuple
        packers + a ``zip(*...)`` transpose, per-column appends in one
        loop, ``itemgetter``) all lose to CPython's C-dispatched
        comprehension loop — 0.3–0.95x at 1024+ rows (see EXPERIMENTS.md
        ZM).  Missing keys contribute NULL, matching every row-wise
        operator that rebuilds rows.
        """
        return cls(
            columns,
            {name: [row.get(name) for row in rows] for name in columns},
            len(rows),
        )

    @classmethod
    def from_columns(
        cls,
        columns: tuple[str, ...],
        data: dict[str, list[object]],
        start: int,
        stop: int,
    ) -> "Batch":
        """One :data:`BATCH_SIZE`-style horizontal slice of columnar data.

        The storage layer frames snapshots as a sequence of these slices —
        the vectorized in-memory format doubling as the on-disk format —
        so a snapshot write is a per-column list slice (C speed) and a cold
        start rehydrates straight into scan-ready columns.
        """
        sliced = {name: data[name][start:stop] for name in columns}
        length = stop - start if columns == () else len(sliced[columns[0]])
        return cls(columns, sliced, length)


def concat(columns: tuple[str, ...], batches: Iterable[Batch]) -> Batch:
    """Concatenate batches into one (for Sort/TopK, which need it all)."""
    data: dict[str, list[object]] = {name: [] for name in columns}
    length = 0
    for batch in batches:
        length += batch.length
        for name in columns:
            data[name].extend(batch.column(name))
    return Batch(columns, data, length)


# Row materialization is the vectorized path's hottest boundary: a generated
# dict-literal builder (constant keys, one list index per column) measured
# ~2x faster than dict(zip(...)) per row.  Builders are cached per column
# tuple; the cache is tiny (one entry per distinct output schema).
_ROW_BUILDERS: dict[tuple[str, ...], Callable[[Batch], list[Row]]] = {}

def _row_builder(columns: tuple[str, ...]) -> Callable[[Batch], list[Row]]:
    builder = _ROW_BUILDERS.get(columns)
    if builder is None:
        if columns:
            names = ", ".join(f"_c{i}" for i in range(len(columns)))
            entries = ", ".join(
                f"{name!r}: _c{i}[_i]" for i, name in enumerate(columns)
            )
            source = f"lambda {names}: [{{{entries}}} for _i in range(len(_c0))]"
            inner = eval(source)  # noqa: S307 - generated from repr'd names only

            def builder(batch: Batch) -> list[Row]:
                return inner(*(batch.column(name) for name in batch.columns))

        else:

            def builder(batch: Batch) -> list[Row]:
                return [{} for _ in range(batch.length)]

        _ROW_BUILDERS[columns] = builder
    return builder
