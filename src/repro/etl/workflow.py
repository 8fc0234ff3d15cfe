"""ETL workflow DAGs and their executor.

:meth:`Workflow.run` walks the DAG serially: steps run in insertion
(topological) order, each handing its full ``list[Row]`` to the next —
the paper's Figure 6 stages, "each executing a query over the previous
one's results".  Extracts read through ``GuavaSource.execute``
(``Extract.run``), sharing the plan cache and the result memo with
``Study.run`` previews.  Under ``repro.obs.tracing()`` a run opens one
``workflow:<name>`` span and, per step, a live ``step:<name>`` span, so
the spans a step opens itself (``guava.read``, relational execution)
nest under it in one tree.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import WorkflowError
from repro.etl.components import Component, Row
from repro.obs.trace import Span, current_tracer, span


@dataclass
class Step:
    """One node of the workflow graph."""

    name: str
    component: Component
    inputs: tuple[str, ...] = ()
    #: Which Figure 6 stage this step belongs to (a compiled study uses
    #: ``extract``, whose reads classify, and ``study``).
    stage: str = ""


@dataclass
class StepRun:
    """Execution record for one step."""

    step: str
    stage: str
    rows_in: int
    rows_out: int
    seconds: float


@dataclass
class RunReport:
    """Per-step row counts and timings for one workflow run."""

    steps: list[StepRun] = field(default_factory=list)
    #: Span tree for the run when executed under ``repro.obs.tracing()``
    #: (``workflow:`` -> ``step:`` -> the spans each step opened); None
    #: otherwise.
    trace: Span | None = None

    def rows_out(self, step_name: str) -> int:
        for run in self.steps:
            if run.step == step_name:
                return run.rows_out
        raise WorkflowError(f"no step {step_name!r} in run report")

    def summary(self) -> str:
        lines = [
            f"{'step':40} {'stage':10} {'in':>8} {'out':>8} {'seconds':>10}"
        ]
        for run in self.steps:
            lines.append(
                f"{run.step:40} {run.stage:10} {run.rows_in:>8} "
                f"{run.rows_out:>8} {run.seconds:>10.4f}"
            )
        return "\n".join(lines)

    def render_trace(self) -> str:
        """Annotated span tree, or a pointer at how to get one."""
        if self.trace is None:
            return "(no trace: run the workflow under repro.obs.tracing())"
        return self.trace.render()


class Workflow:
    """A named DAG of ETL steps.

    Steps execute in topological order; each step's inputs are the outputs
    of the named predecessor steps.  ``outputs`` names the steps whose
    results the caller wants back.
    """

    def __init__(self, name: str):
        self.name = name
        self._steps: dict[str, Step] = {}
        self.outputs: list[str] = []
        #: Shared run artifacts (e.g. the cleaning quarantine).
        self.context: dict[str, object] = {}

    def add(
        self,
        name: str,
        component: Component,
        inputs: tuple[str, ...] | list[str] = (),
        stage: str = "",
    ) -> Step:
        """Append a step; input names must already exist (keeps it acyclic)."""
        if name in self._steps:
            raise WorkflowError(f"duplicate step name {name!r}")
        for input_name in inputs:
            if input_name not in self._steps:
                raise WorkflowError(
                    f"step {name!r} depends on unknown step {input_name!r}"
                )
        step = Step(name, component, tuple(inputs), stage)
        self._steps[name] = step
        return step

    def mark_output(self, name: str) -> None:
        """Flag a step's result as a workflow output."""
        if name not in self._steps:
            raise WorkflowError(f"unknown step {name!r}")
        if name not in self.outputs:
            self.outputs.append(name)

    @property
    def steps(self) -> list[Step]:
        return list(self._steps.values())

    def step(self, name: str) -> Step:
        if name not in self._steps:
            raise WorkflowError(f"unknown step {name!r}")
        return self._steps[name]

    def stages(self) -> list[str]:
        """Distinct stages in first-appearance order (Figure 6 structure)."""
        seen: list[str] = []
        for step in self._steps.values():
            if step.stage and step.stage not in seen:
                seen.append(step.stage)
        return seen

    # -- execution -----------------------------------------------------------

    def run(self) -> tuple[dict[str, list[Row]], RunReport]:
        """Execute all steps; returns ({output step: rows}, report)."""
        results: dict[str, list[Row]] = {}
        report = RunReport()
        traced = current_tracer() is not None
        with span(f"workflow:{self.name}", steps=len(self._steps)) as root:
            for step in self._steps.values():  # insertion order is topological
                inputs = [results[name] for name in step.inputs]
                rows_in = sum(len(rows) for rows in inputs)
                with span(
                    f"step:{step.name}", stage=step.stage, rows_in=rows_in
                ) as step_span:
                    started = time.perf_counter()
                    rows = step.component.run(inputs)
                    elapsed = time.perf_counter() - started
                    step_span.set("rows_out", len(rows))
                if traced:
                    elapsed = step_span.duration_s  # one clock for both
                results[step.name] = rows
                report.steps.append(
                    StepRun(step.name, step.stage, rows_in, len(rows), elapsed)
                )
        if traced:
            report.trace = root
        if self.outputs:
            return {name: results[name] for name in self.outputs}, report
        return results, report

    def __len__(self) -> int:
        return len(self._steps)

