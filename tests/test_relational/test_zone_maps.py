"""Unit tests for zone-map statistics, dictionary encoding, and batch plumbing.

Every skip/all-match rule in :mod:`repro.relational.stats` is an argument
about :func:`repro.expr.evaluator._compare`'s exact semantics; these tests
pin the individual probe verdicts so a future "obvious" relaxation (say,
skipping cross-band ordering chunks) trips a named assertion instead of a
randomized equivalence failure three suites away.
"""

from datetime import date

from repro.expr.parser import parse
from repro.relational import (
    BATCH_SIZE,
    Batch,
    Database,
    DataType,
    Dictionary,
    TableSchema,
    column_zone_map,
    encoded_columns,
    encoding_states,
)
from repro.relational import stats as S


def _stats(values):
    return S._chunk_stats(list(values))


# -- chunk statistics ----------------------------------------------------------


def test_chunk_stats_bands_and_bounds():
    nums = _stats([3, 1, 2])
    assert (nums.band, nums.lo, nums.hi, nums.null_count) == ("num", 1, 3, 0)
    assert _stats([1.5, 2]).band == "num"  # int/float share one band
    assert _stats(["b", "a"]).band == "str"
    assert _stats([True, False]).band == "bool"
    assert _stats([date(2024, 1, 2)]).band == "date"


def test_chunk_stats_bool_never_joins_num_band():
    # type() is exact: bool+int is mixed, not "num" — evaluator ordering
    # between bool and int raises, so a joint band would skip unsoundly.
    assert _stats([True, 1]).band is None


def test_chunk_stats_nan_demotes_chunk():
    assert _stats([1.0, float("nan")]).band is None


def test_chunk_stats_nulls_and_constants():
    with_nulls = _stats([None, 5, None, 7])
    assert (with_nulls.null_count, with_nulls.band) == (2, "num")
    assert not with_nulls.constant

    all_null = _stats([None, None])
    assert all_null.band is None
    assert all_null.null_count == 2
    assert all_null.constant

    assert _stats([4, 4, 4]).constant
    # A constant value *with* NULLs is not chunk-constant: the NULL rows
    # answer predicates differently from the value rows.
    assert not _stats([4, None, 4]).constant


# -- probes --------------------------------------------------------------------


def test_equality_probe_verdicts():
    chunk = S.ChunkStats(10, 0, "num", 100, 200)
    probe = S._equality_probe
    assert probe(50)(chunk) is S.CHUNK_SKIP
    assert probe(150)(chunk) is S.CHUNK_EVAL
    assert probe("150")(chunk) is S.CHUNK_SKIP  # cross-band = is plain False
    assert probe(None)(chunk) is S.CHUNK_SKIP  # col = NULL keeps nothing
    assert probe(150)(S.ChunkStats(10, 0, "num", 150, 150)) is S.CHUNK_ALL
    # Same constant but with NULLs present: those rows yield NULL, not True.
    assert probe(150)(S.ChunkStats(10, 3, "num", 150, 150)) is S.CHUNK_EVAL
    assert probe(150)(S.ChunkStats(10, 10, None, None, None)) is S.CHUNK_SKIP
    assert probe(150)(S.ChunkStats(10, 0, None, None, None)) is S.CHUNK_EVAL


def test_inequality_probe_verdicts():
    probe = S._inequality_probe
    # Constant chunk equal to the literal: != is False (or NULL) everywhere,
    # so the skip holds regardless of NULLs.
    assert probe(150)(S.ChunkStats(10, 4, "num", 150, 150)) is S.CHUNK_SKIP
    assert probe(50)(S.ChunkStats(10, 0, "num", 100, 200)) is S.CHUNK_ALL
    assert probe(50)(S.ChunkStats(10, 1, "num", 100, 200)) is S.CHUNK_EVAL
    # Cross-band != is True for every non-null row.
    assert probe("x")(S.ChunkStats(10, 0, "num", 100, 200)) is S.CHUNK_ALL
    assert probe("x")(S.ChunkStats(10, 1, "num", 100, 200)) is S.CHUNK_EVAL
    assert probe(None)(S.ChunkStats(10, 0, "num", 100, 200)) is S.CHUNK_SKIP


def test_range_probe_verdicts():
    chunk = S.ChunkStats(10, 0, "num", 100, 200)
    assert S._range_probe("<", 100)(chunk) is S.CHUNK_SKIP
    assert S._range_probe("<", 201)(chunk) is S.CHUNK_ALL
    assert S._range_probe("<", 150)(chunk) is S.CHUNK_EVAL
    assert S._range_probe("<=", 99)(chunk) is S.CHUNK_SKIP
    assert S._range_probe("<=", 200)(chunk) is S.CHUNK_ALL
    assert S._range_probe(">", 200)(chunk) is S.CHUNK_SKIP
    assert S._range_probe(">", 99)(chunk) is S.CHUNK_ALL
    assert S._range_probe(">=", 201)(chunk) is S.CHUNK_SKIP
    assert S._range_probe(">=", 100)(chunk) is S.CHUNK_ALL
    # ALL additionally requires zero NULLs (NULL rows are dropped rows).
    assert S._range_probe("<", 201)(S.ChunkStats(10, 1, "num", 100, 200)) is S.CHUNK_EVAL
    # Ordering vs NULL yields NULL for every row — skip, it never raises.
    assert S._range_probe("<", None)(chunk) is S.CHUNK_SKIP


def test_range_probe_never_skips_where_evaluator_raises():
    # Cross-band and date ordering raise in the evaluator; the chunk must
    # be evaluated so the identical error surfaces.
    num = S.ChunkStats(10, 0, "num", 100, 200)
    assert S._range_probe("<", "x")(num) is S.CHUNK_EVAL
    d = S.ChunkStats(10, 0, "date", date(2024, 1, 1), date(2024, 6, 1))
    assert S._range_probe("<", date(2025, 1, 1))(d) is S.CHUNK_EVAL


def test_in_probe_verdicts():
    chunk = S.ChunkStats(10, 0, "num", 100, 200)
    assert S._in_probe((1, 2))(chunk) is S.CHUNK_SKIP
    assert S._in_probe(())(chunk) is S.CHUNK_SKIP
    assert S._in_probe(("a", "b"))(chunk) is S.CHUNK_SKIP  # all cross-band
    assert S._in_probe((150, 999))(chunk) is S.CHUNK_EVAL
    constant = S.ChunkStats(10, 0, "num", 150, 150)
    assert S._in_probe((150, "x"))(constant) is S.CHUNK_ALL


def test_null_probe_verdicts():
    no_nulls = S.ChunkStats(10, 0, "num", 1, 2)
    all_nulls = S.ChunkStats(10, 10, None, None, None)
    some = S.ChunkStats(10, 3, "num", 1, 2)
    assert S._null_probe(False)(no_nulls) is S.CHUNK_SKIP
    assert S._null_probe(False)(all_nulls) is S.CHUNK_ALL
    assert S._null_probe(False)(some) is S.CHUNK_EVAL
    assert S._null_probe(True)(no_nulls) is S.CHUNK_ALL
    assert S._null_probe(True)(all_nulls) is S.CHUNK_SKIP
    assert S._null_probe(True)(some) is S.CHUNK_EVAL


# -- zone maps on tables -------------------------------------------------------


def _table(rows):
    db = Database("zm")
    db.create_table(
        TableSchema.build(
            "t",
            [
                ("seq", DataType.INTEGER),
                ("vendor", DataType.TEXT),
                ("value", DataType.INTEGER),
            ],
        )
    )
    db.insert("t", rows)
    return db, db.table("t")


def _rows(n, vendors=("acme", "globex", "initech")):
    return [
        {"seq": i, "vendor": vendors[i % len(vendors)], "value": i % 7}
        for i in range(n)
    ]


def test_column_zone_map_chunks_and_cache():
    _, table = _table(_rows(BATCH_SIZE * 2 + 10))
    zone = column_zone_map(table, "seq")
    assert [stats.length for stats in zone] == [BATCH_SIZE, BATCH_SIZE, 10]
    assert (zone[0].lo, zone[0].hi) == (0, BATCH_SIZE - 1)
    assert (zone[1].lo, zone[1].hi) == (BATCH_SIZE, 2 * BATCH_SIZE - 1)
    # Cached per data version: identical object until a mutation.
    assert column_zone_map(table, "seq") is zone
    table.insert({"seq": 99999, "vendor": "acme", "value": 0})
    rebuilt = column_zone_map(table, "seq")
    assert rebuilt is not zone
    assert rebuilt[-1].hi == 99999


def test_column_zone_map_unknown_column_is_none():
    _, table = _table(_rows(10))
    assert column_zone_map(table, "nope") is None


def test_select_analysis_decides_per_chunk():
    _, table = _table(_rows(BATCH_SIZE * 3))
    analysis = S.SelectAnalysis(parse(f"seq >= {BATCH_SIZE} AND seq < {BATCH_SIZE + 10}"))
    assert analysis.analyzable
    assert analysis.decide(table, 0) is S.SKIP_CHUNK
    kept, dropped = analysis.decide(table, 1)
    assert dropped == 1  # seq >= BATCH_SIZE holds chunk-wide
    assert len(kept) == 1
    assert analysis.decide(table, 2) is S.SKIP_CHUNK


def test_select_analysis_keeps_unknown_columns():
    # Unknown identifiers must reach the evaluator so its error surfaces.
    _, table = _table(_rows(BATCH_SIZE))
    analysis = S.SelectAnalysis(parse("ghost = 1 AND seq < 5"))
    result = analysis.decide(table, 0)
    assert result is not S.SKIP_CHUNK
    kept, dropped = result
    assert 0 in kept and dropped == 0


def test_select_analysis_unanalyzable_predicate():
    analysis = S.SelectAnalysis(parse("seq + 1 = 2"))
    assert not analysis.analyzable


# -- dictionary encoding -------------------------------------------------------


def test_dictionary_build_first_seen_order():
    values = (["b", "a", None, "b", "c"] * 80)[: S.DICT_MIN_ROWS]
    built = S._build_dictionary(values)
    assert isinstance(built, Dictionary)
    assert built.values == ["b", "a", "c"]
    assert built.code_of == {"b": 0, "a": 1, "c": 2}
    assert len(built.codes) == len(values)
    assert built.codes[:5] == [0, 1, None, 0, 2]
    assert built.cardinality == 3


def test_dictionary_refusals():
    assert S._build_dictionary(["a"] * (S.DICT_MIN_ROWS - 1)) == S.REFUSED_TOO_FEW_ROWS
    mixed = ["a"] * S.DICT_MIN_ROWS + [5]
    assert S._build_dictionary(mixed) == S.REFUSED_MIXED_TYPE
    unique = [f"v{i}" for i in range(S.DICT_MIN_ROWS * 2)]
    assert S._build_dictionary(unique) == S.REFUSED_HIGH_CARDINALITY


def test_cardinality_cap_scales_with_extent():
    assert S._cardinality_cap(256) == 16
    assert S._cardinality_cap(16_000) == 1000
    assert S._cardinality_cap(10_000_000) == S.DICT_MAX_CARDINALITY


def test_encoding_states_text_columns_only():
    _, table = _table(_rows(BATCH_SIZE))
    states = encoding_states(table)
    assert set(states) == {"vendor"}  # seq/value are INTEGER, never attempted
    assert isinstance(states["vendor"], Dictionary)
    assert encoded_columns(table) == {"vendor": states["vendor"]}
    assert encoding_states(table) is states  # version-cached
    table.insert({"seq": -1, "vendor": "acme", "value": 0})
    assert encoding_states(table) is not states


def test_encoding_states_records_refusals():
    rows = [
        {"seq": i, "vendor": f"unique-{i}", "value": 0} for i in range(BATCH_SIZE)
    ]
    _, table = _table(rows)
    assert encoding_states(table)["vendor"] == S.REFUSED_HIGH_CARDINALITY
    assert encoded_columns(table) == {}


# -- batch plumbing ------------------------------------------------------------


def test_take_composes_index_maps():
    base = Batch(("a",), {"a": list(range(100))}, 100)
    first = base.take(list(range(0, 100, 2)))  # 0,2,4,...
    second = first.take([1, 3, 5])  # rows 2,6,10 of the base
    # Composition: the inner gather points straight at the materialized
    # base, never at the intermediate lazy batch.
    assert second._source is base
    assert second.column("a") == [2, 6, 10]
    third = second.take([0, 2])
    assert third._source is base
    assert third.column("a") == [2, 10]


def test_take_preserves_zone_identity():
    base = Batch(("a",), {"a": [1, 2, 3]}, 3, zone=("t", None, 7))
    taken = base.take([0, 2]).take([1])
    assert taken.zone == ("t", None, 7)


def test_from_rows_packs_columns():
    rows = [{"a": i, "b": str(i)} for i in range(50)]
    batch = Batch.from_rows(("a", "b"), rows)
    assert batch.column("a") == list(range(50))
    assert batch.column("b") == [str(i) for i in range(50)]


def test_from_rows_missing_key_becomes_null():
    rows = [{"a": 1, "b": "x"}, {"a": 2}, {"b": "z"}]
    batch = Batch.from_rows(("a", "b"), rows)
    assert batch.column("a") == [1, 2, None]
    assert batch.column("b") == ["x", None, "z"]


def test_from_rows_empty():
    batch = Batch.from_rows(("a", "b"), [])
    assert batch.length == 0
    assert batch.column("a") == []


def test_codes_gather_through_take():
    values = ["a", "b", None, "a"] * 64
    dictionary = S._build_dictionary(values)
    assert isinstance(dictionary, Dictionary)
    base = Batch(
        ("vendor",),
        {"vendor": values},
        len(values),
        encodings={"vendor": (dictionary, dictionary.codes)},
    )
    taken = base.take([0, 1, 2, 255])
    got = taken.codes("vendor")
    assert got is not None
    got_dictionary, codes = got
    assert got_dictionary is dictionary
    assert codes == [0, 1, None, 0]
    assert taken.codes("vendor") is got  # memoized per batch
    # Unencoded columns answer None, also memoized.
    plain = Batch(("x",), {"x": [1, 2]}, 2)
    assert plain.codes("x") is None
