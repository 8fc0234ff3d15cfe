"""``explain_analyze``: execute a query under tracing, report the profile.

This is the one-call profiling API over the trace core: it optimizes and
executes a query (or raw plan) with a private tracer installed and
returns an :class:`ExplainReport` bundling the result rows, the final
physical plan, and the recorded span trees — the ``optimize`` span with
its rewrite counters and access-path events, and the ``execute``
span whose children mirror the plan tree with actual ``rows_out`` and
wall time per operator.

>>> report = explain_analyze(Query.table("visits").where("age >= 50"), db)
>>> print(report.render())        # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.trace import Span, Tracer, tracing
from repro.relational.algebra import Plan
from repro.relational.database import Database
from repro.relational.query import Query, optimize

Row = dict[str, object]


@dataclass
class ExplainReport:
    """Result rows plus the optimizer/executor span trees for one query."""

    rows: list[Row]
    plan: Plan
    tracer: Tracer
    optimized: bool = True
    #: Populated lazily; maps plan nodes to their executor spans.
    _node_spans: list[tuple[Plan, Span]] = field(default_factory=list, repr=False)

    @property
    def optimize_span(self) -> Span | None:
        """The ``optimize`` span (None when ``optimized=False``)."""
        for root in self.tracer.roots:
            if root.name == "optimize":
                return root
        return None

    @property
    def execute_span(self) -> Span | None:
        """The ``execute:*`` root span recorded by the executor."""
        for root in self.tracer.roots:
            if root.name.startswith("execute:"):
                return root
        return None

    @property
    def plan_span(self) -> Span | None:
        """The span of the plan's root operator."""
        executed = self.execute_span
        if executed is not None and executed.children:
            return executed.children[0]
        return None

    def node_spans(self) -> list[tuple[Plan, Span]]:
        """(plan node, executor span) pairs, pre-order over the plan tree.

        The executor's span tree is built by eagerly mirroring the plan
        tree, so both structures walk in lockstep.
        """
        if self._node_spans:
            return self._node_spans
        root_span = self.plan_span
        if root_span is None:
            return []

        def pair(node: Plan, node_span: Span) -> None:
            self._node_spans.append((node, node_span))
            for child, child_span in zip(node.children(), node_span.children):
                pair(child, child_span)

        pair(self.plan, root_span)
        return self._node_spans

    def rewrites_applied(self) -> dict[str, int]:
        """``rewrite.<rule>`` counters from the optimize span, unprefixed."""
        opt = self.optimize_span
        if opt is None:
            return {}
        return {
            key.removeprefix("rewrite."): value
            for key, value in opt.attrs.items()
            if key.startswith("rewrite.")
        }

    def render(self) -> str:
        """Annotated text report: rewrites applied, then the metered plan."""
        lines = [f"rows: {len(self.rows)}"]
        opt = self.optimize_span
        if opt is not None:
            lines.append(opt.render())
        executed = self.execute_span
        if executed is not None:
            lines.append(executed.render())
        return "\n".join(lines)


def explain_analyze(
    query: Query | Plan,
    db: Database,
    optimized: bool = True,
) -> ExplainReport:
    """Optimize and execute ``query`` under tracing; return the profile.

    Installs a private tracer for the duration of the call, so this works
    (and stays self-contained) whether or not the caller is already
    tracing.  Pass ``optimized=False`` to profile the naive plan — the
    EXPERIMENTS.md before/after traces are produced exactly that way.
    """
    plan = query.plan if isinstance(query, Query) else query
    tracer = Tracer()
    with tracing(tracer):
        final = optimize(plan, db) if optimized else plan
        rows = final.execute(db)
    return ExplainReport(rows=rows, plan=final, tracer=tracer, optimized=optimized)
