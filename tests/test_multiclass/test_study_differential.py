"""Study-level differential testing: classified reads against a fresh oracle.

``Study.run`` and the compiled ETL workflow classify inside the g-tree read
(a row map), so their rows come from the result memo's kept, patched or
fresh mapped rows.  The oracle shares none of that: it reads each entity
classifier's g-tree query with the plan cache and the memo cleared (both
restored afterwards), cleans each record with the record-scoped rules,
classifies it with ``Classifier.explain`` against the element's domain,
and applies the study-scoped rules and filters to the union.  After every
event, each study's rows, its quarantine (in order) and the table
``compile_study`` loads must equal the oracle's, or all three must raise
the oracle's error type.

Studies: Study 1, Study 2 under its three ex-smoker definitions, Study 2
with record- and study-scoped cleaning rules, and Study 1 with a
classifier that raises ``DomainError`` on records past a threshold.
Events: session entries, direct updates and deletes of read records
(registered with ``track_change``, so the memo must not patch over them),
a restore that lands other rows at the stamped version, and clearing
every source's plan cache and memo.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

import repro.relational.query as relational_query
from repro.analysis import (
    build_cohort_study,
    build_study1,
    build_study2,
    vendor_classifiers_for,
)
from repro.clinical import build_world, generate_truths
from repro.clinical.cori import cori_procedure_values
from repro.clinical.vendors import endopro_values, medscribe_values
from repro.errors import ReproError
from repro.etl import compile_study
from repro.etl.compile import study_table_schema
from repro.expr.evaluator import Evaluator
from repro.guava import GTreeQuery
from repro.multiclass import Classifier, CleaningRule, Domain, Rule
from repro.multiclass.domain import DomainKind
from repro.multiclass.study import PARENT_RECORD_ID, element_column
from repro.obs import tracing
from repro.relational import Database
from repro.ui.form import RECORD_ID
from tests.conftest import by_column

_EVALUATOR = Evaluator()

#: tool name -> (the form its studies read, its values from a truth).
VENDORS = {
    "cori": ("procedure", cori_procedure_values),
    "endopro": ("endoscopy_report", endopro_values),
    "medscribe": ("visit", medscribe_values),
}

TRUTHS = generate_truths(40, seed=29)


def _cleaned(world):
    study = build_study2(world, "ever")
    for source, condition in (
        ("cori_warehouse_feed", "packs_per_day >= 1"),
        ("endopro_clinic", "cigarettes_per_day >= 20"),
        ("medscribe_clinic", "packs_daily >= 1"),
    ):
        study.add_cleaning_rule(
            "Procedure",
            CleaningRule.of(
                f"heavy_{source.split('_')[0]}",
                condition,
                reason="protocol excludes heavy smokers",
                source=source,
            ),
        )
    study.add_cleaning_rule(
        "Procedure",
        CleaningRule.of(
            "unclassified_smoking",
            "ExSmoker_flag IS NULL",
            reason="smoking question unanswered",
            scope="study",
        ),
    )
    return study


def _raising(world):
    """Study 1 whose last source classifies records past id 8 out of domain."""
    study = build_study1(world)
    binding = study.bindings[-1]
    element = next(
        element
        for element in study.elements
        if study.schema.domain_of(*element).kind is DomainKind.CATEGORICAL
    )
    classifier = binding.classifiers[element]
    binding.classifiers[element] = Classifier(
        classifier.name,
        *classifier.target,
        rules=[Rule.of("'Bogus'", "record_id > 8")] + list(classifier.rules),
        source_form=classifier.source_form,
    )
    return study


STUDIES = (
    build_study1,
    lambda world: build_study2(world, "1y"),
    lambda world: build_study2(world, "10y"),
    lambda world: build_study2(world, "ever"),
    _cleaned,
    _raising,
)


def _outcome(run):
    try:
        return ("ok", run())
    except ReproError as error:
        return ("error", type(error).__name__)


@contextmanager
def _fresh(sources):
    """Plan caches and memos cleared for the block, then put back."""
    dbs = {id(source.db): source.db for source in sources}.values()
    saved = [(db, dict(db._plan_cache), dict(db._result_memo)) for db in dbs]
    for db in dbs:
        db.plan_cache_clear()
    try:
        yield
    finally:
        for db, plans, memo in saved:
            db._plan_cache.clear()
            db._plan_cache.update(plans)
            db._result_memo.clear()
            db._result_memo.update(memo)


def _oracle(study):
    """(tables, quarantine entries) by Classifier.explain over fresh reads."""
    tables = {}
    quarantine = []
    with _fresh([binding.source for binding in study.bindings]):
        for entity in study.entities_in_play():
            rows = []
            for binding in study.bindings:
                source = binding.source
                ec = binding.entity_classifiers[entity]
                query = GTreeQuery(source.gtree(ec.form)).where(ec.condition)
                active = [
                    rule
                    for rule in study.cleaning.get(entity, [])
                    if rule.scope == "record" and rule.source in (None, source.name)
                ]
                for record in source.execute(query):
                    rule = next((r for r in active if r.discards(record)), None)
                    if rule is not None:
                        quarantine.append((rule.name, rule.reason, source.name, record))
                        continue
                    row = {RECORD_ID: record[RECORD_ID], "source": source.name}
                    if ec.parent_link is not None:
                        row[PARENT_RECORD_ID] = record.get(ec.parent_link)
                    for element in study.elements_of(entity):
                        domain = study.schema.domain_of(*element)
                        column = element_column(*element[1:])
                        row[column] = binding.classifiers[element].explain(
                            record, domain
                        )[0]
                    rows.append(row)
            kept = []
            for row in rows:
                rule = next(
                    (
                        r
                        for r in study.cleaning.get(entity, [])
                        if r.scope == "study" and r.discards(row)
                    ),
                    None,
                )
                if rule is None:
                    kept.append(row)
                else:
                    quarantine.append((rule.name, rule.reason, "study", row))
            condition = study.filters.get(entity)
            if condition is not None:
                kept = [row for row in kept if _EVALUATOR.satisfied(condition, row)]
            tables[entity] = kept
    return tables, quarantine


def _entries(quarantine):
    return [(q.rule, q.reason, q.source, q.row) for q in quarantine.rows]


def _run(study):
    result = study.run()
    return result.tables, _entries(result.quarantine)


def _publish(study):
    warehouse = Database("wh")
    workflow = compile_study(study, warehouse)
    workflow.run()
    loaded = {
        entity: warehouse.table(study_table_schema(study, entity).name).rows()
        for entity in study.entities_in_play()
    }
    return loaded, _entries(workflow.context["quarantine"])


def _shaped(study, tables):
    """The oracle's tables as the warehouse holds them."""
    shaped = {}
    for entity, rows in tables.items():
        columns = study_table_schema(study, entity).column_names
        shaped[entity] = [
            {column: row.get(column) for column in columns} for row in rows
        ]
    return shaped


class _World:
    """A private world, its indexes built, under a random program."""

    def __init__(self):
        self.world = build_world(24, seed=17)
        self.sources = list(self.world.sources)
        self.entered = 0
        self.outcomes: list[str] = []
        for source in self.sources:
            ec = vendor_classifiers_for(source).entity_classifier
            query = GTreeQuery(source.gtree(ec.form)).where(ec.condition)
            source.execute(query, record_ids=[1])  # the refresh's indexes

    def check(self, which: int) -> None:
        build = STUDIES[which % len(STUDIES)]
        expected = _outcome(lambda: _oracle(build(self.world)))
        with tracing() as tracer:
            preview = _outcome(lambda: _run(build(self.world)))
            publish = _outcome(lambda: _publish(build(self.world)))
        self.outcomes.extend(
            span.attrs["result_memo"]
            for root in tracer.roots
            for span in root.walk()
            if span.name == "guava.read"
        )
        assert preview == expected
        if expected[0] == "ok":
            tables, quarantine = expected[1]
            expected = ("ok", (_shaped(build(self.world), tables), quarantine))
        assert publish == expected

    def enter(self, count: int) -> None:
        for _ in range(count):
            truth = TRUTHS[self.entered % len(TRUTHS)]
            source = self.sources[self.entered % len(self.sources)]
            form, values = VENDORS[source.tool.name]
            source.session(first_record_id=_next_id(source)).enter(form, values(truth))
            self.entered += 1

    def _record_table(self, pick: int):
        source = self.sources[pick % len(self.sources)]
        names = sorted(
            name
            for name, schema in source.chain.physical_schemas.items()
            if schema.has_column(RECORD_ID) and len(source.db.table(name))
        )
        return source, source.db.table(names[pick % len(names)])

    def write(self, op: str, pick: int) -> None:
        """A registered direct update or delete of a record already read."""
        source, table = self._record_table(pick)
        rows = table.rows()
        rid = rows[pick % len(rows)][RECORD_ID]
        if op == "update":
            columns = [c for c in table.schema.column_names if c != RECORD_ID]
            column = columns[pick % len(columns)]
            value = rows[(pick + 1) % len(rows)][column]
            table.update(lambda row: row[RECORD_ID] == rid, {column: value})
        else:
            table.delete(lambda row: row[RECORD_ID] == rid)
        form, _ = VENDORS[source.tool.name]
        source.track_change(rid, form=form)

    def restore(self, pick: int) -> None:
        """Other rows restored at the version the memo may have stamped."""
        _, table = self._record_table(pick)
        version = table.version
        rows = [dict(row) for row in table.rows()]
        del rows[pick % len(rows)]
        table.restore_extent(by_column(table, rows))
        table.restore_counters(version)


def _next_id(source) -> int:
    return 1 + max(
        (
            row[RECORD_ID]
            for name, schema in source.chain.physical_schemas.items()
            if schema.has_column(RECORD_ID)
            for row in source.db.table(name).rows()
        ),
        default=0,
    )


def _play(program) -> list[str]:
    harness = _World()
    for op, arg in program:
        if op == "read":
            harness.check(arg)
        elif op == "enter":
            harness.enter(arg)
        elif op in ("update", "delete"):
            harness.write(op, arg)
        elif op == "restore":
            harness.restore(arg)
        else:
            for source in harness.sources:
                source.db.plan_cache_clear()
    for which in range(len(STUDIES)):
        harness.check(which)
    return harness.outcomes


reads = st.tuples(st.just("read"), st.integers(0, len(STUDIES) - 1))
ops = st.one_of(
    reads,
    reads,
    reads,
    st.tuples(st.just("enter"), st.integers(1, 4)),
    st.tuples(st.sampled_from(["update", "delete", "restore"]), st.integers(0, 99)),
    st.tuples(st.just("clear"), st.none()),
)


class TestStudyDifferential:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(program=st.lists(ops, max_size=12))
    def test_studies_match_the_oracle_after_every_event(self, program):
        _play(program)

    def test_a_tour_sees_every_memo_outcome(self):
        """A fixed program reaches miss, hit and delta reads, and the
        DomainError study, and still matches the oracle throughout."""
        read = [("read", which) for which in range(len(STUDIES))]
        program = (
            read * 3
            + [("enter", 3)]
            + read
            + [("update", 4)]
            + read
            + [("restore", 2), ("clear", None)]
            + read
            + [("enter", 12)]
            + read
        )
        outcomes = _play(program)
        assert {"miss", "hit", "delta"} <= set(outcomes)
        world = _World()
        world.enter(12)
        assert _outcome(lambda: _oracle(_raising(world.world))) == (
            "error",
            "DomainError",
        )


class TestMemoKey:
    def test_two_builds_of_one_study_share_a_key(self):
        world = build_world(20, seed=3)
        first, second = build_study2(world, "ever"), build_study2(world, "ever")
        for one, other in zip(first.bindings, second.bindings):
            assert (
                first.row_map(one, "Procedure", None).key
                == second.row_map(other, "Procedure", None).key
            )
        first.run()
        first.run()
        with tracing() as tracer:
            second.run()
        assert _memo_outcomes(tracer) == ["hit"] * len(world.sources)

    def test_names_and_descriptions_are_not_part_of_the_key(self):
        world = build_world(20, seed=3)
        study = build_study2(world, "ever")
        binding = study.bindings[0]
        before = study.row_map(binding, "Procedure", None).key
        for element, classifier in list(binding.classifiers.items()):
            binding.classifiers[element] = Classifier(
                "renamed",
                *classifier.target,
                rules=list(classifier.rules),
                description="another description",
            )
        assert study.row_map(binding, "Procedure", None).key == before

    def test_a_rule_a_domain_or_a_definition_changes_the_key(self):
        world = build_world(20, seed=3)

        def keys(study):
            return [
                study.row_map(binding, "Procedure", None).key
                for binding in study.bindings
            ]

        base = keys(build_study1(world))

        ruled = build_study1(world)
        binding = ruled.bindings[0]
        element = ruled.elements[0]
        classifier = binding.classifiers[element]
        first, *rest = classifier.rules
        binding.classifiers[element] = Classifier(
            classifier.name,
            *classifier.target,
            rules=[Rule.of(first.output, "FALSE")] + rest,
        )
        assert keys(ruled)[0] != base[0] and keys(ruled)[1:] == base[1:]

        domained = build_study1(world)
        domained.schema = domained.schema.copy()  # the shared one is frozen
        entity, attribute, domain_name = domained.elements[0]
        domain = domained.schema.domain_of(entity, attribute, domain_name)
        attribute_of = domained.schema.entity(entity).attribute(attribute)
        attribute_of.domains[domain_name] = Domain.categorical(
            domain_name, list(domain.categories) + ["Other"]
        )
        assert all(a != b for a, b in zip(keys(domained), base))

        definitions = [keys(build_study2(world, d)) for d in ("1y", "10y", "ever")]
        for position in range(len(world.sources)):
            assert len({k[position] for k in definitions}) == 3


_DEFINITIONS = STUDIES[:4]  # S1 and S2 under its three ex-smoker definitions


def _habits_chemistry(world):
    return build_cohort_study(
        "habits_chemistry",
        world,
        [("Smoking", "habits4"), ("AnyHypoxia", "flag")],
        habits_variant="chemistry",
    )


def _maps(study):
    return [
        study.row_map(binding, entity, binding.entity_classifiers[entity].parent_link)
        for entity in study.entities_in_play()
        for binding in study.bindings
    ]


def _keys(study):
    return [row_map.key for row_map in _maps(study)]


class TestRebuild:
    def test_a_rebuild_walks_no_rule_ast(self):
        world = build_world(20, seed=3)
        first = [_keys(build(world)) for build in _DEFINITIONS]
        walked = []
        walk = relational_query._fingerprint

        def counting(value, emit):
            if isinstance(value, (Rule, Domain)):
                walked.append(value)
            return walk(value, emit)

        with mock.patch.object(relational_query, "_fingerprint", counting):
            rebuilt = [build(world) for build in _DEFINITIONS]
            assert [_keys(study) for study in rebuilt] == first
            for study in rebuilt:
                study.run()
                _publish(study)
            assert walked == []
            # The count sees walks: with the bindings' kept row maps gone,
            # the same keys come from walking every rule, domain and
            # condition again.
            for study in rebuilt:
                for binding in study.bindings:
                    binding.binding.row_maps.clear()
            assert [_keys(study) for study in rebuilt] == first
        assert {type(value) for value in walked} >= {Rule, Domain}

    def test_a_rebuilt_study_answers_like_the_first_build(self):
        harness = _World()
        builds = _DEFINITIONS + (_habits_chemistry,)
        firsts = [build(harness.world) for build in builds]
        outcomes = []

        def compare():
            for build, first in zip(builds, firsts):
                expected = _oracle(first)
                study = build(harness.world)
                assert all(a is b for a, b in zip(_maps(study), _maps(first)))
                with tracing() as tracer:
                    rebuilt = _run(study)
                    again = _run(first)
                outcomes.extend(_memo_outcomes(tracer))
                assert rebuilt == expected
                assert again == expected

        compare()  # the rebuilt studies miss, their first builds hit
        compare()  # both hit
        harness.enter(6)
        compare()  # the rebuilt studies patch the kept rows
        assert {"miss", "hit", "delta"} <= set(outcomes)


class TestClassifiedOnce:
    def test_a_repeat_preview_classifies_no_record(self):
        world = build_world(30, seed=5)
        build_study2(world, "ever").run()
        build_study2(world, "ever").run()
        calls = []
        compile_closure = Classifier.compile

        def counting(self, domain=None):
            classify = compile_closure(self, domain)

            def counted(env):
                calls.append(self.name)
                return classify(env)

            return counted

        with mock.patch.object(Classifier, "compile", counting):
            with tracing() as tracer:
                result = build_study2(world, "ever").run()
        assert result.count("Procedure") > 0
        spans = _spans(tracer)
        assert [s.attrs["result_memo"] for s in spans] == ["hit"] * len(spans)
        assert [s.attrs["mapped_records"] for s in spans] == [0] * len(spans)
        assert calls == []

    def test_a_live_round_classifies_only_its_entries(self):
        harness = _World()
        study = build_study2(harness.world, "ever")
        study.run()
        study.run()
        harness.enter(20)
        entered = {}
        for index in range(20):
            name = harness.sources[index % len(harness.sources)].name
            entered[name] = entered.get(name, 0) + 1
        with tracing() as tracer:
            study.run()
        spans = _spans(tracer)
        assert {s.attrs["source"]: s.attrs["result_memo"] for s in spans} == {
            name: "delta" for name in entered
        }
        assert {s.attrs["source"]: s.attrs["delta_records"] for s in spans} == entered
        assert {s.attrs["source"]: s.attrs["mapped_records"] for s in spans} == entered


def _spans(tracer):
    return [
        span
        for root in tracer.roots
        for span in root.walk()
        if span.name == "guava.read"
    ]


def _memo_outcomes(tracer):
    return [span.attrs["result_memo"] for span in _spans(tracer)]
