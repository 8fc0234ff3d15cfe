"""Translation of g-tree queries into relational algebra (paper Figure 6).

"We can translate queries specified against the g-tree into predefined SQL
queries and ETL components that depend on the database patterns used."

The translation is compositional: the pattern chain reconstructs the naive
relation; the query's condition and selection layer on top.  The
result is an ordinary :class:`~repro.relational.algebra.Plan`, renderable
to SQL with :func:`repro.relational.sql.to_sql`.
"""

from __future__ import annotations

from repro.errors import TranslationError
from repro.guava.query import GTreeQuery
from repro.patterns.chain import PatternChain
from repro.relational.algebra import Plan, Project, Select
from repro.ui.form import RECORD_ID


def translate_query(query: GTreeQuery, chain: PatternChain) -> Plan:
    """Lower ``query`` to a physical plan through ``chain``.

    Output columns: ``record_id``, then the selected node columns.
    """
    form_name = query.gtree.form_name
    if form_name not in chain.naive_schemas:
        raise TranslationError(
            f"pattern chain has no mapping for form {form_name!r}"
        )
    plan: Plan = chain.plan_for(form_name)
    if query.condition is not None:
        plan = Select(plan, query.condition)
    return Project(plan, (RECORD_ID,) + query.selected_nodes())
