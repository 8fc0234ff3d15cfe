"""Tests for the six patterns beyond Table 1."""

import json

import pytest

from repro.errors import PatternConfigError, PatternWriteError
from repro.patterns import (
    BlobPattern,
    EncodingPattern,
    LookupPattern,
    MultivaluePattern,
    PartitionPattern,
    PatternChain,
    VersionedPattern,
)
from repro.relational import Database, DataType, TableSchema

SCHEMAS = {
    "visit": TableSchema.build(
        "visit",
        [
            ("record_id", DataType.INTEGER),
            ("status", DataType.TEXT),
            ("flag", DataType.BOOLEAN),
            ("items", DataType.TEXT),
        ],
        primary_key=["record_id"],
    ),
}

ROWS = [
    {"record_id": 1, "status": "Current", "flag": True, "items": "a;b"},
    {"record_id": 2, "status": "Never", "flag": False, "items": None},
    {"record_id": 3, "status": None, "flag": None, "items": "b"},
]


def roundtrip(chain: PatternChain, rows=ROWS):
    db = Database("t")
    chain.deploy(db)
    for row in rows:
        chain.write(db, "visit", row)
    return db, sorted(chain.read_naive(db, "visit"), key=lambda r: r["record_id"])


class TestLookup:
    def chain(self):
        return PatternChain(
            SCHEMAS, [LookupPattern({("visit", "status"): "status_codes"})]
        )

    def test_code_table_created(self):
        schemas = self.chain().physical_schemas
        assert "status_codes" in schemas
        assert schemas["visit"].has_column("status_code")
        assert not schemas["visit"].has_column("status")

    def test_roundtrip(self):
        db, back = roundtrip(self.chain())
        assert back == ROWS

    def test_codes_assigned_on_first_sight(self):
        db, _ = roundtrip(self.chain())
        labels = {r["label"]: r["code"] for r in db.table("status_codes").rows()}
        assert labels == {"Current": 1, "Never": 2}

    def test_repeated_values_share_codes(self):
        chain = self.chain()
        rows = ROWS + [{"record_id": 4, "status": "Current", "flag": True, "items": None}]
        db, _ = roundtrip(chain, rows)
        assert len(db.table("status_codes")) == 2

    def test_non_text_column_rejected(self):
        with pytest.raises(PatternConfigError):
            PatternChain(SCHEMAS, [LookupPattern({("visit", "flag"): "codes"})])

    def test_each_database_keeps_its_own_codes(self):
        chain = self.chain()
        _, first = roundtrip(chain)
        db, second = roundtrip(chain, list(reversed(ROWS)))
        assert first == second == ROWS
        labels = {r["label"]: r["code"] for r in db.table("status_codes").rows()}
        assert labels == {"Never": 1, "Current": 2}

    def test_a_redeploy_reloads_the_stored_codes(self):
        db, _ = roundtrip(self.chain())
        chain = self.chain()
        chain.deploy(db)
        chain.write(db, "visit", {"record_id": 4, "status": "Former"})
        chain.write(db, "visit", {"record_id": 5, "status": "Current"})
        labels = {r["label"]: r["code"] for r in db.table("status_codes").rows()}
        assert labels == {"Current": 1, "Never": 2, "Former": 3}

    def test_writes_need_a_database(self):
        with pytest.raises(PatternWriteError):
            LookupPattern({("visit", "status"): "status_codes"}).write(
                "visit", ROWS[0], SCHEMAS
            )

    def test_one_vendor_chain_over_two_empty_databases(self):
        """Two sources on one EndoPro chain object, three entries each:
        the second database gets its own code table and reads every
        ``reason`` back."""
        from repro.clinical import generate_truths
        from repro.clinical.vendors import (
            build_endopro_chain,
            build_endopro_tool,
            endopro_values,
        )
        from repro.guava import GTreeQuery
        from repro.guava.source import GuavaSource

        tool = build_endopro_tool()
        chain = build_endopro_chain(tool)
        truths = generate_truths(3, seed=4)
        expected = [endopro_values(truth).get("reason") for truth in truths]
        assert None not in expected
        for name in ("first", "second"):
            source = GuavaSource(name, tool, chain, db=Database(name))
            session = source.session()
            for truth in truths:
                session.enter("endoscopy_report", endopro_values(truth))
            rows = source.execute(GTreeQuery(source.gtree("endoscopy_report")))
            assert [row["reason"] for row in rows] == expected
            assert len(source.db.table("reason_codes")) == len(set(expected))


class TestEncoding:
    def chain(self):
        return PatternChain(
            SCHEMAS,
            [
                EncodingPattern(
                    {
                        ("visit", "flag"): {True: "Y", False: "N"},
                        ("visit", "status"): {"Current": 1, "Never": 0},
                    }
                )
            ],
        )

    def test_storage_types_change(self):
        schema = self.chain().physical_schemas["visit"]
        assert schema.column("flag").dtype is DataType.TEXT
        assert schema.column("status").dtype is DataType.INTEGER

    def test_codes_stored(self):
        db, _ = roundtrip(self.chain())
        stored = sorted(db.table("visit").rows(), key=lambda r: r["record_id"])
        assert stored[0]["flag"] == "Y"
        assert stored[0]["status"] == 1

    def test_roundtrip(self):
        _, back = roundtrip(self.chain())
        assert back == ROWS

    def test_unknown_value_rejected_at_write(self):
        chain = self.chain()
        db = Database("t")
        chain.deploy(db)
        with pytest.raises(PatternWriteError):
            chain.write(db, "visit", {"record_id": 9, "status": "Sometimes"})

    def test_ambiguous_codes_rejected(self):
        with pytest.raises(PatternConfigError):
            EncodingPattern({("visit", "status"): {"a": 1, "b": 1}})

    def test_mixed_code_types_rejected(self):
        with pytest.raises(PatternConfigError):
            PatternChain(
                SCHEMAS,
                [EncodingPattern({("visit", "status"): {"a": 1, "b": "x"}})],
            )


class TestMultivalue:
    def chain(self):
        return PatternChain(
            SCHEMAS, [MultivaluePattern("visit", "items", "visit_items")]
        )

    def test_child_table_created(self):
        schemas = self.chain().physical_schemas
        assert "visit_items" in schemas
        assert not schemas["visit"].has_column("items")

    def test_child_rows_per_selection(self):
        db, _ = roundtrip(self.chain())
        assert len(db.table("visit_items")) == 3  # a;b -> 2 rows, b -> 1

    def test_roundtrip_restores_canonical_join(self):
        _, back = roundtrip(self.chain())
        assert back == ROWS

    def test_null_selection_roundtrips(self):
        _, back = roundtrip(self.chain())
        assert back[1]["items"] is None

    def test_locate_covers_child(self):
        chain = self.chain()
        located = chain.locate_physical("visit", 1)
        assert {table for table, _ in located} == {"visit", "visit_items"}


class TestVersioned:
    def chain(self):
        return PatternChain(SCHEMAS, [VersionedPattern("2.1")])

    def test_stamp_column(self):
        assert self.chain().physical_schemas["visit"].has_column("tool_version")

    def test_rows_stamped(self):
        db, _ = roundtrip(self.chain())
        assert all(r["tool_version"] == "2.1" for r in db.table("visit").rows())

    def test_stamp_invisible_at_naive_level(self):
        _, back = roundtrip(self.chain())
        assert "tool_version" not in back[0]

    def test_roundtrip(self):
        _, back = roundtrip(self.chain())
        assert back == ROWS


class TestBlob:
    def chain(self):
        return PatternChain(SCHEMAS, [BlobPattern(["visit"])])

    def test_two_physical_columns(self):
        schema = self.chain().physical_schemas["visit"]
        assert schema.column_names == ("record_id", "document")

    def test_document_is_json(self):
        db, _ = roundtrip(self.chain())
        document = db.table("visit").rows()[0]["document"]
        assert json.loads(document)["status"] == "Current"

    def test_nulls_omitted_from_document(self):
        db, _ = roundtrip(self.chain())
        docs = {r["record_id"]: json.loads(r["document"]) for r in db.table("visit").rows()}
        assert "items" not in docs[2]

    def test_roundtrip(self):
        _, back = roundtrip(self.chain())
        assert back == ROWS


class TestPartition:
    def chain(self):
        return PatternChain(
            SCHEMAS,
            [
                PartitionPattern(
                    "visit", "status", {"Current": "p_current"}, "p_other"
                )
            ],
        )

    def test_partitions_created(self):
        assert set(self.chain().physical_schemas) == {"p_current", "p_other"}

    def test_routing(self):
        db, _ = roundtrip(self.chain())
        assert len(db.table("p_current")) == 1
        assert len(db.table("p_other")) == 2  # Never + NULL both default

    def test_roundtrip(self):
        _, back = roundtrip(self.chain())
        assert back == ROWS

    def test_duplicate_targets_rejected(self):
        with pytest.raises(PatternConfigError):
            PartitionPattern("visit", "status", {"a": "t"}, "t")


class TestCombinedChains:
    """Patterns must compose; these mirror real vendor layouts."""

    @pytest.mark.parametrize(
        "patterns_factory",
        [
            lambda: [
                MultivaluePattern("visit", "items", "visit_items"),
                LookupPattern({("visit", "status"): "status_codes"}),
            ],
            lambda: [
                EncodingPattern({("visit", "flag"): {True: "Y", False: "N"}}),
                VersionedPattern("9"),
            ],
            lambda: [
                MultivaluePattern("visit", "items", "visit_items"),
                EncodingPattern({("visit", "flag"): {True: 1, False: 0}}),
                VersionedPattern("1"),
            ],
        ],
    )
    def test_chains_roundtrip(self, patterns_factory):
        chain = PatternChain(SCHEMAS, patterns_factory())
        _, back = roundtrip(chain)
        assert back == ROWS

    def test_describe_lists_patterns_and_tables(self):
        chain = PatternChain(
            SCHEMAS, [MultivaluePattern("visit", "items", "visit_items")]
        )
        text = chain.describe()
        assert "multivalue" in text
        assert "visit_items" in text
