"""Tests for g-tree queries and their translation to physical plans."""

import pytest

from repro.errors import GuavaError
from repro.guava import GTreeQuery, GuavaSource, translate_query
from repro.patterns import AuditPattern, GenericPattern, NaivePattern, PatternChain
from repro.relational.sql import to_sql
from tests.conftest import enter_fig2_records


class TestGTreeQueryValidation:
    def test_unknown_node_rejected(self, naive_source):
        with pytest.raises(GuavaError):
            GTreeQuery(naive_source.gtree("procedure"), nodes=("ghost",))

    def test_layout_node_not_selectable(self, naive_source):
        with pytest.raises(GuavaError):
            GTreeQuery(naive_source.gtree("procedure"), nodes=("complications",))

    def test_condition_references_validated(self, naive_source):
        query = GTreeQuery(naive_source.gtree("procedure"))
        with pytest.raises(GuavaError):
            query.where("ghost = 1")

    def test_condition_on_layout_node_rejected(self, naive_source):
        """Group boxes store no data; conditions must not reference them."""
        query = GTreeQuery(naive_source.gtree("procedure"))
        with pytest.raises(GuavaError):
            query.where("complications = 'x'")

    def test_selected_defaults_to_all_data_nodes(self, naive_source):
        query = GTreeQuery(naive_source.gtree("procedure"))
        assert len(query.selected_nodes()) == 7

    def test_where_accumulates_with_and(self, naive_source):
        query = (
            GTreeQuery(naive_source.gtree("procedure"))
            .where("hypoxia = TRUE")
            .where("frequency > 1")
        )
        assert query.condition.op == "AND"


class TestExecution:
    @pytest.fixture(params=["naive", "eav"])
    def source(self, request, fig2_tool):
        if request.param == "naive":
            chain = PatternChain(fig2_tool.naive_schemas(), [NaivePattern()])
        else:
            chain = PatternChain(
                fig2_tool.naive_schemas(),
                [GenericPattern(["procedure"]), AuditPattern()],
            )
        source = GuavaSource(request.param, fig2_tool, chain)
        enter_fig2_records(source)
        return source

    def test_filter_and_select(self, source):
        rows = (
            source.query("procedure")
            .where("hypoxia = TRUE AND frequency >= 1")
            .select("smoking", "frequency")
            .run()
        )
        assert rows == [{"record_id": 1, "smoking": "Current", "frequency": 2.5}]

    def test_unanswered_question_never_matches(self, source):
        # Record 2 has smoking=Never and frequency NULL; NULL must not
        # satisfy "frequency < 1".
        rows = source.query("procedure").where("frequency < 1").run()
        assert {r["record_id"] for r in rows} == {3}

    def test_record_id_always_present(self, source):
        rows = source.query("procedure").select("smoking").run()
        assert all("record_id" in r for r in rows)

    def test_free_text_answer_comes_back(self, source):
        rows = (
            source.query("procedure")
            .where("smoking = 'Previous'")
            .select("alcohol")
            .run()
        )
        assert rows[0]["alcohol"] == "rarely, socially"

    def test_results_identical_across_layouts(self, fig2_tool):
        """The same g-tree query gives identical answers regardless of the
        physical pattern — the core GUAVA promise."""
        naive_chain = PatternChain(fig2_tool.naive_schemas(), [NaivePattern()])
        eav_chain = PatternChain(
            fig2_tool.naive_schemas(), [GenericPattern(["procedure"])]
        )
        a = GuavaSource("a", fig2_tool, naive_chain)
        b = GuavaSource("b", fig2_tool, eav_chain)
        enter_fig2_records(a)
        enter_fig2_records(b)
        query_a = a.query("procedure").where("hypoxia = TRUE").select("smoking")
        query_b = b.query("procedure").where("hypoxia = TRUE").select("smoking")
        assert query_a.run() == query_b.run()


class TestTranslationAndSQL:
    def test_plan_targets_physical_tables(self, eav_source):
        query = GTreeQuery(eav_source.gtree("procedure")).select("smoking")
        plan = translate_query(query, eav_source.chain)
        from repro.relational import Scan

        scans = [node for node in plan.walk() if isinstance(node, Scan)]
        assert {scan.table for scan in scans} == {"eav"}

    def test_sql_documentation(self, eav_source):
        query = GTreeQuery(eav_source.gtree("procedure")).where("hypoxia = TRUE")
        sql = to_sql(translate_query(query, eav_source.chain))
        assert "FROM eav" in sql
        assert "WHERE" in sql

    def test_unknown_form_rejected(self, naive_source):
        with pytest.raises(GuavaError):
            naive_source.query("ghost_form")
