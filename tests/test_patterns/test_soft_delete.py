"""``PatternChain.soft_delete`` changes rows by position.

It finds a record's physical rows through an index on the locator's
columns when the table has one (``record_id``'s, once a record-scoped
read has built it) and by comparing stored values otherwise, never by
building a row dict; it then calls ``update_at`` (an Audit chain's
sentinel) or ``delete_at``.  The reference is the predicate path it
replaced: ``Table.update``/``Table.delete`` with a predicate matching
every locator column.  On every chain, with and without indexes, both
must change the same positions: the same counts, versions, rows, index
lookups, fingerprint and mutation-listener (WAL) payloads.
"""

from __future__ import annotations

import copy
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.relational import Database, Table
from repro.relational.index import HashIndex
from repro.storage.engine import state_fingerprint
from tests.test_patterns.test_property_patterns import _chains, _screen_rows


def _predicate_soft_delete(chain, db: Database, form: str, record_id) -> int:
    affected = 0
    audit = next(
        (p.deleted_column for p in chain.patterns if p.provides_audit), None
    )
    for table, key in chain.locate_physical(form, record_id):
        if not db.has_table(table):
            continue
        target = db.table(table)

        def matches(row, key=key) -> bool:
            return all(row.get(column) == value for column, value in key.items())

        if audit is not None and target.schema.has_column(audit):
            affected += target.update(matches, {audit: True})
        else:
            affected += target.delete(matches)
    return affected


def _filled(chain, rows, indexed: bool) -> tuple[Database, list]:
    db = Database("soft")
    chain.deploy(db)
    for record_id, values in enumerate(rows, start=1):
        chain.write(db, "screen", {"record_id": record_id, **values})
    log: list = []
    for name in db.table_names():
        table = db.table(name)
        if indexed and table.schema.has_column("record_id"):
            table.create_index(("record_id",))
        table.set_mutation_listener(
            lambda op, payload, name=name: log.append(
                (name, op, copy.deepcopy(payload))
            )
        )
    return db, log


def _lookups(table: Table) -> dict:
    columns = [table.schema.primary_key, *table.secondary_index_columns()]
    rows = table.rows()
    return {
        (key_columns, key): table.matching_index(key_columns).lookup(key)
        for key_columns in columns
        if key_columns
        for key in {tuple(row[name] for name in key_columns) for row in rows}
    }


def _state(db: Database) -> dict:
    return {
        name: (db.table(name).version, db.table(name).rows(), _lookups(db.table(name)))
        for name in db.table_names()
    }


@pytest.mark.parametrize("chain_index", range(len(_chains())))
class TestSoftDeleteByPosition:
    @given(
        rows=_screen_rows,
        record_id=st.integers(0, 16),
        indexed=st.booleans(),
    )
    @settings(max_examples=15, deadline=None)
    def test_it_changes_what_the_predicate_path_changes(
        self, chain_index, rows, record_id, indexed
    ):
        chain = _chains()[chain_index]
        ours, our_log = _filled(chain, rows, indexed)
        theirs, their_log = _filled(chain, rows, indexed)
        with mock.patch.object(Table, "iter_rows", side_effect=AssertionError):
            affected = chain.soft_delete(ours, "screen", record_id)
        assert affected == _predicate_soft_delete(chain, theirs, "screen", record_id)
        assert our_log == their_log
        assert _state(ours) == _state(theirs)
        assert state_fingerprint(ours) == state_fingerprint(theirs)


def test_both_kinds_of_chain_are_covered():
    kinds = {chain.provides_audit for chain in _chains()}
    assert kinds == {True, False}


def test_an_indexed_record_is_found_through_its_bucket():
    chain = _chains()[0]
    db, _ = _filled(chain, [{"checked": True}] * 50, indexed=True)
    table = db.table("screen")
    assert table.positions_where({"record_id": 7}) == [6]
    with mock.patch.object(
        HashIndex, "lookup", autospec=True, side_effect=HashIndex.lookup
    ) as lookup:
        assert chain.soft_delete(db, "screen", 7) == 1
    assert [call.args[1] for call in lookup.call_args_list] == [(7,)]
    assert 7 not in {row["record_id"] for row in table.rows()}
