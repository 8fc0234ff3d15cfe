"""Warehouse differential testing: materialized columns against a fresh oracle.

A materialization job reads each source through a study row map, so its
full builds are result-memo misses, hits or patches, its refreshes are
record-scoped mapped reads, and a selective strategy's cold columns are a
second memoized read.  The oracle shares none of that: it translates the
entity classifier's g-tree query and runs it through the interpreter, then
classifies every record with ``Classifier.explain`` against the column's
domain.

For random vendors, entry counts, classifier subsets, strategies (full,
selective with a random hot/cold split, derived with identity derivations)
and programs of appends, tracked updates, untracked writes, refreshes and
durable reopens (``adopt_existing``), every fetched column must equal the
oracle's after the full build, after every incremental refresh and after
every reopen.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import vendor_classifiers_for
from repro.analysis.schema import build_endoscopy_schema
from repro.clinical import generate_truths
from repro.clinical.cori import build_cori_chain, build_cori_tool, cori_procedure_values
from repro.clinical.vendors import (
    build_endopro_chain,
    build_endopro_tool,
    build_medscribe_chain,
    build_medscribe_tool,
    endopro_values,
    medscribe_values,
)
from repro.guava import GTreeQuery, GuavaSource
from repro.guava.translate import translate_query
from repro.multiclass import Classifier
from repro.relational import execute_interpreted
from repro.relational.table import Table
from repro.storage import DurableStore
from repro.ui.form import RECORD_ID
from repro.warehouse import (
    DerivationRule,
    DerivedStrategy,
    FullStrategy,
    MaterializationJob,
    SelectiveStrategy,
    Warehouse,
)

TRUTHS = generate_truths(60, seed=41)

#: vendor -> (build the tool, build its chain, the form entered, its values).
VENDORS = {
    "cori": (build_cori_tool, build_cori_chain, "procedure", cori_procedure_values),
    "endopro": (
        build_endopro_tool,
        build_endopro_chain,
        "endoscopy_report",
        endopro_values,
    ),
    "medscribe": (
        build_medscribe_tool,
        build_medscribe_chain,
        "visit",
        medscribe_values,
    ),
}

TWIN = "_twin"


def _twin(classifier: Classifier) -> Classifier:
    """A second classifier with the same rules and target, derivable from
    the first by the identity."""
    return Classifier(
        classifier.name + TWIN,
        classifier.target_entity,
        classifier.target_attribute,
        classifier.target_domain,
        list(classifier.rules),
    )


def _classifiers(source: GuavaSource) -> list[Classifier]:
    """Every classifier of the source's vendor that targets a procedure."""
    vendor = vendor_classifiers_for(source)
    chosen = [c for c in vendor.base if c.target_entity == "Procedure"]
    for extra in (
        vendor.habits_cancer,
        vendor.habits_chemistry,
        vendor.ex_smoker_1y,
        vendor.ex_smoker_10y,
        vendor.ex_smoker_ever,
    ):
        if extra is not None:
            chosen.append(extra)
    return chosen


def _job(source: GuavaSource, classifiers: list[Classifier]) -> MaterializationJob:
    return MaterializationJob(
        schema=build_endoscopy_schema(),
        entity="Procedure",
        sources=[source],
        entity_classifiers={
            source.name: vendor_classifiers_for(source).entity_classifier
        },
        classifiers=classifiers,
    )


def _oracle(job: MaterializationJob, source: GuavaSource, names: list[str]) -> list:
    """Rows of ``names`` over an interpreted read, classified by
    ``explain``, sorted on record id."""
    ec = job.entity_classifiers[source.name]
    query = GTreeQuery(source.gtree(ec.form)).where(ec.condition)
    rows = []
    for record in execute_interpreted(translate_query(query, source.chain), source.db):
        row = {RECORD_ID: record[RECORD_ID], "source": source.name}
        for name in names:
            classifier = job.classifier(name)
            domain = job.schema.domain_of(*classifier.target)
            row[name] = classifier.explain(record, domain)[0]
        rows.append(row)
    return sorted(rows, key=lambda row: row[RECORD_ID])


class _Harness:
    """One durable vendor source, its warehouse and one strategy."""

    def __init__(self, vendor: str, directory: Path, picks, kind: str, split):
        self.vendor = vendor
        self.directory = directory
        self.picks = picks
        self.kind = kind
        self.split = split
        self.entered = 0
        self._open()

    def _open(self) -> None:
        build_tool, build_chain, self.form, self.values = VENDORS[self.vendor]
        self.store = DurableStore(self.directory, name=self.vendor, fsync="never")
        tool = build_tool()
        chain = build_chain(tool)
        self.source = GuavaSource(self.vendor, tool, chain, db=self.store.db)
        self.store.attach_source(self.source)
        self.session = self.source.session(first_record_id=self.entered + 1)
        self.warehouse = Warehouse(db=self.store.db)
        self.store.attach_warehouse(self.warehouse)
        self.job, self.strategy = self._strategy()

    def _strategy(self):
        everything = _classifiers(self.source)
        chosen = [everything[i % len(everything)] for i in self.picks]
        chosen = list({c.name: c for c in chosen}.values())
        if self.kind == "derived":
            twins = [_twin(c) for c, derive in zip(chosen, self.split) if derive]
            job = _job(self.source, chosen + twins)
            rules = [
                DerivationRule.of(t.name, t.name[: -len(TWIN)], "base") for t in twins
            ]
            return job, DerivedStrategy(job, self.warehouse, rules)
        job = _job(self.source, chosen)
        if self.kind == "selective":
            hot = [c.name for c, stored in zip(chosen, self.split) if stored]
            return job, SelectiveStrategy(job, self.warehouse, hot)
        return job, FullStrategy(job, self.warehouse)

    def names(self) -> list[str]:
        return [c.name for c in self.job.classifiers]

    def fetched(self, names: list[str]) -> list:
        return sorted(self.strategy.fetch(names), key=lambda row: row[RECORD_ID])

    def check(self) -> None:
        names = self.names()
        assert self.fetched(names) == _oracle(self.job, self.source, names)

    def enter(self, count: int) -> None:
        for _ in range(count):
            truth = TRUTHS[self.entered % len(TRUTHS)]
            self.session.enter(self.form, self.values(truth))
            self.entered += 1

    def _tables(self) -> list:
        return [
            self.source.db.table(name)
            for name, schema in sorted(self.source.chain.physical_schemas.items())
            if schema.has_column(RECORD_ID)
        ]

    def update(self, rid: int, pick: int) -> None:
        """A tracked correction: an entered record is deleted and entered
        again, with another truth's values, under its own id."""
        rid = 1 + rid % self.entered
        for table in self._tables():
            table.delete(lambda row: row[RECORD_ID] == rid)
        session = self.source.session(first_record_id=rid)
        session.enter(self.form, self.values(TRUTHS[pick % len(TRUTHS)]))
        self.source.track_change(rid, form=self.form)

    def untracked(self, rid: int, pick: int) -> None:
        """A write the change feed never hears of: one physical table
        loses an entered record's rows."""
        rid = 1 + rid % self.entered
        tables = self._tables()
        tables[pick % len(tables)].delete(lambda row: row[RECORD_ID] == rid)

    def reopen(self) -> None:
        """Close and recover the store; the stored columns come back."""
        table = self.warehouse.table(self.job.table_name())
        stored = [
            c for c in table.schema.column_names if c not in (RECORD_ID, "source")
        ]
        before = self.fetched(stored)
        self.store.snapshot()
        self.store.close()
        self._open()
        assert self.strategy.adopt_existing()
        assert self.fetched(stored) == before


ops = st.one_of(
    st.tuples(st.just("append"), st.integers(1, 4)),
    st.tuples(st.just("update"), st.tuples(st.integers(1, 12), st.integers(0, 40))),
    st.tuples(st.just("untracked"), st.tuples(st.integers(1, 12), st.integers(0, 40))),
    st.tuples(st.just("refresh"), st.none()),
    st.tuples(st.just("reopen"), st.none()),
)


class TestDifferential:
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        vendor=st.sampled_from(sorted(VENDORS)),
        seeded=st.integers(3, 12),
        picks=st.lists(st.integers(0, 20), min_size=1, max_size=5),
        kind=st.sampled_from(["full", "selective", "derived"]),
        split=st.lists(st.booleans(), min_size=5, max_size=5),
        program=st.lists(ops, min_size=2, max_size=10),
    )
    def test_fetched_columns_equal_explain_over_a_fresh_read(
        self, vendor, seeded, picks, kind, split, program
    ):
        with tempfile.TemporaryDirectory() as directory:
            harness = _Harness(vendor, Path(directory), picks, kind, split)
            harness.enter(seeded)
            harness.strategy.build()
            harness.check()
            for op, arg in program:
                if op == "append":
                    harness.enter(arg)
                elif op == "update":
                    harness.update(*arg)
                elif op == "untracked":
                    harness.untracked(*arg)
                elif op == "refresh":
                    harness.strategy.build(incremental=True)
                    harness.check()
                else:
                    harness.reopen()
                    harness.strategy.build(incremental=True)
                    harness.check()
            harness.strategy.build(incremental=True)
            harness.check()
            harness.store.close()


class _PredicateDelete(FullStrategy):
    """The reference refresh delete: every stored row through a predicate."""

    def _delete_stored(self, table, source_name, changed):
        removed = table.delete(
            lambda row: row["source"] == source_name and row[RECORD_ID] in changed
        )
        self.removed.append(removed)
        return removed


class _IndexedDelete(FullStrategy):
    """The refresh delete under test, counted."""

    def _delete_stored(self, table, source_name, changed):
        removed = FullStrategy._delete_stored(table, source_name, changed)
        self.removed.append(removed)
        return removed


class _DeleteHarness(_Harness):
    """A full strategy over every classifier, with a chosen delete form."""

    def __init__(self, strategy, vendor: str, directory: Path):
        self.strategy_class = strategy
        self.removed: list[int] = []
        super().__init__(vendor, directory, [], "full", [])

    def _strategy(self):
        job = _job(self.source, _classifiers(self.source))
        strategy = self.strategy_class(job, self.warehouse)
        strategy.removed = self.removed
        return job, strategy

    def remove(self, rid: int) -> None:
        """A tracked delete of an entered record."""
        rid = 1 + rid % self.entered
        for table in self._tables():
            table.delete(lambda row: row[RECORD_ID] == rid)
        self.source.track_change(rid, form=self.form)

    def stored(self) -> list:
        return self.warehouse.table(self.job.table_name()).rows()

    def replay(self) -> None:
        """Close without a snapshot, so reopening replays the log."""
        before = self.stored()
        self.store.close()
        self._open()
        assert self.strategy.adopt_existing()
        assert self.stored() == before


delete_ops = st.one_of(
    st.tuples(st.just("append"), st.integers(1, 4)),
    st.tuples(st.just("update"), st.tuples(st.integers(1, 12), st.integers(0, 40))),
    st.tuples(st.just("remove"), st.integers(1, 12)),
    st.tuples(st.just("refresh"), st.none()),
    st.tuples(st.just("replay"), st.none()),
)


class TestProportionalDelete:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        vendor=st.sampled_from(sorted(VENDORS)),
        seeded=st.integers(3, 10),
        program=st.lists(delete_ops, min_size=2, max_size=10),
    )
    def test_the_indexed_delete_equals_the_predicate_delete(
        self, vendor, seeded, program
    ):
        """Over refreshes after appends, corrections, deletes and log
        replays, the indexed delete leaves the same rows in the same order,
        deletes as many, and replays to the same table as the predicate
        form."""
        with tempfile.TemporaryDirectory() as directory:
            pair = [
                _DeleteHarness(strategy, vendor, Path(directory) / name)
                for name, strategy in (
                    ("reference", _PredicateDelete),
                    ("indexed", _IndexedDelete),
                )
            ]
            for harness in pair:
                harness.enter(seeded)
                harness.strategy.build()
            for op, arg in program + [("refresh", None)]:
                for harness in pair:
                    if op == "append":
                        harness.enter(arg)
                    elif op == "update":
                        harness.update(*arg)
                    elif op == "remove":
                        harness.remove(arg)
                    elif op == "refresh":
                        harness.strategy.build(incremental=True)
                    else:
                        harness.replay()
                reference, indexed = pair
                assert indexed.stored() == reference.stored()
                assert indexed.removed == reference.removed
            indexed.check()
            for harness in pair:
                harness.store.close()

    def test_an_append_only_refresh_deletes_nothing(self, tmp_path):
        harness = _DeleteHarness(FullStrategy, "cori", tmp_path)
        harness.enter(6)
        harness.strategy.build()
        table = harness.warehouse.table(harness.job.table_name())
        version, stored = table.version, len(table)
        harness.enter(3)
        with mock.patch.object(Table, "delete", side_effect=AssertionError):
            harness.strategy.build(incremental=True)
        # The table moved by its appended rows alone: nothing was deleted.
        assert len(table) == stored + 3
        assert table.version == version + 3
        harness.check()
        harness.store.close()


class TestOneMapPerDefinition:
    def test_a_rebuilt_job_reads_through_the_same_map(self, world):
        """Classifiers rebuilt from the same rules, under names built at
        run time (equal, not the same objects), get a map under the same
        key, so the rebuilt job's read is a hit on the first job's rows."""
        from repro.obs import tracing

        source = world.source("cori_warehouse_feed")
        jobs = [
            _job(source, [_twin(c) for c in _classifiers(source)]) for _ in range(2)
        ]
        maps = [job.row_map(source, job.classifiers) for job in jobs]
        assert maps[0].key == maps[1].key
        first = jobs[0].read(source, jobs[0].classifiers)
        with tracing() as tracer:
            second = jobs[1].read(source, jobs[1].classifiers)
        reads = [
            span.attrs["result_memo"]
            for root in tracer.roots
            for span in root.walk()
            if span.name == "guava.read"
        ]
        assert reads == ["hit"]
        assert len(second) == len(first)
        assert all(a is b for a, b in zip(first, second))


_FINGERPRINT = """
from repro.analysis import vendor_classifiers_for
from repro.analysis.schema import build_endoscopy_schema
from repro.clinical.cori import build_cori_chain, build_cori_tool
from repro.guava import GuavaSource
from repro.warehouse import FullStrategy, MaterializationJob, Warehouse

tool = build_cori_tool()
source = GuavaSource("cori", tool, build_cori_chain(tool))
vendor = vendor_classifiers_for(source)
job = MaterializationJob(
    schema=build_endoscopy_schema(),
    entity="Procedure",
    sources=[source],
    entity_classifiers={source.name: vendor.entity_classifier},
    classifiers=[vendor.habits_cancer, vendor.ex_smoker_1y],
)
print(FullStrategy(job, Warehouse())._definition_fingerprint())
"""


def test_the_lineage_fingerprint_is_the_same_in_every_interpreter():
    """A durable store's lineage is compared in a later process: its
    fingerprint must not depend on string hashing or object ids."""
    path = os.pathsep.join(entry for entry in sys.path if entry)
    prints = {
        subprocess.run(
            [sys.executable, "-c", _FINGERPRINT],
            env=dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path),
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed in (1, 2)
    }
    assert len(prints) == 1 and len(prints.pop()) == 41
