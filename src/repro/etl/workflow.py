"""ETL workflow DAGs and their executors.

Two execution paths share one DAG:

* :meth:`Workflow.run` with default arguments — the strictly serial
  executor, kept as the behavioural oracle for the fused engine.  Steps
  run in insertion (topological) order, each handing its full
  ``list[Row]`` to the next.  Its extracts read through
  ``GuavaSource.execute`` (``Extract.run``), sharing the plan cache and
  the result memo with ``Study.run`` previews; the relational oracle is
  :mod:`repro.relational.interpret`.
* ``run(batch_size=...)`` — the fused engine.  Steps fuse into *units*:
  maximal linear chains whose interior results nobody else consumes.
  Units whose dependencies are satisfied form a wave; waves run in order
  on the calling thread, and inside a unit rows flow as an iterator of
  chunks, with at most one defensive copy per chain instead of one per
  step.  Output rows, per-step row counts, and shared artifacts (the
  cleaning quarantine) are identical to the serial path; only timing
  differs.  Equivalence is asserted by tests/test_etl/test_engine.py.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import WorkflowError
from repro.etl.components import Component, Extract, Row, UnionInputs, chunked
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
    #: Span tree for the run when executed under ``repro.obs.tracing()``;
    #: None otherwise.  The engine path groups spans wave -> unit -> step
    #: with queue waits; the serial path is flat.
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


class _StepStats:
    """Accumulates one step's run record chunk by chunk."""

    __slots__ = ("rows_in", "rows_out", "seconds")

    def __init__(self) -> None:
        self.rows_in = 0
        self.rows_out = 0
        self.seconds = 0.0


@dataclass
class _Unit:
    """A fused linear chain of steps, executed as one schedulable task."""

    steps: list[Step]

    @property
    def head(self) -> Step:
        return self.steps[0]

    @property
    def tail(self) -> Step:
        return self.steps[-1]


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

    def run(
        self, batch_size: int | None = None
    ) -> tuple[dict[str, list[Row]], RunReport]:
        """Execute all steps; returns ({output step: rows}, report).

        ``batch_size`` streams rows through fused chains in chunks of that
        size (the fused engine); the default keeps the serial oracle path.
        """
        if batch_size is None:
            return self._run_serial()
        return self._run_engine(batch_size)

    def _run_serial(self) -> tuple[dict[str, list[Row]], RunReport]:
        results: dict[str, list[Row]] = {}
        report = RunReport()
        tracer = current_tracer()
        root: Span | None = None
        run_started = time.perf_counter()
        for step in self._steps.values():  # insertion order is topological
            inputs = [results[name] for name in step.inputs]
            started = time.perf_counter()
            rows = step.component.run(inputs)
            elapsed = time.perf_counter() - started
            results[step.name] = rows
            rows_in = sum(len(rows_in) for rows_in in inputs)
            report.steps.append(
                StepRun(
                    step=step.name,
                    stage=step.stage,
                    rows_in=rows_in,
                    rows_out=len(rows),
                    seconds=elapsed,
                )
            )
            if tracer is not None:
                if root is None:
                    root = Span(f"workflow:{self.name}", attrs={"mode": "serial"})
                step_span = root.child(
                    f"step:{step.name}",
                    stage=step.stage,
                    rows_in=rows_in,
                    rows_out=len(rows),
                )
                step_span.duration_s = elapsed
        if tracer is not None:
            if root is None:
                root = Span(f"workflow:{self.name}", attrs={"mode": "serial"})
            root.attrs["steps"] = len(self._steps)
            root.duration_s = time.perf_counter() - run_started
            tracer.attach(root)
            report.trace = root
        outputs = {name: results[name] for name in self.outputs} if self.outputs else results
        return outputs, report

    # -- the level-scheduled engine -----------------------------------------

    def _fuse(self) -> list[_Unit]:
        """Group steps into maximal streamable chains.

        A step joins its predecessor's unit when it is that step's *only*
        consumer, the predecessor's rows are not a requested output, and
        the component can stream.  Interior results of a unit are never
        materialized as step results (their row counts are still recorded).
        """
        consumers: dict[str, int] = {name: 0 for name in self._steps}
        for step in self._steps.values():
            for dep in step.inputs:
                consumers[dep] += 1
        keep = set(self.outputs) if self.outputs else set(self._steps)
        units: list[_Unit] = []
        unit_of_tail: dict[str, _Unit] = {}
        for step in self._steps.values():
            unit = None
            if len(step.inputs) == 1 and step.component.streamable:
                dep = step.inputs[0]
                candidate = unit_of_tail.get(dep)
                if candidate is not None and consumers[dep] == 1 and dep not in keep:
                    unit = candidate
            if unit is None:
                unit = _Unit([step])
                units.append(unit)
            else:
                unit.steps.append(step)
                del unit_of_tail[step.inputs[0]]
            unit_of_tail[step.name] = unit
        return units

    def _run_engine(
        self, batch_size: int
    ) -> tuple[dict[str, list[Row]], RunReport]:
        units = self._fuse()
        producer = {unit.tail.name: index for index, unit in enumerate(units)}
        order = {name: index for index, name in enumerate(self._steps)}
        results: dict[str, list[Row]] = {}
        stats = {name: _StepStats() for name in self._steps}
        commits: list[tuple[int, Callable[[], None]]] = []

        unit_deps: list[set[int]] = [
            {producer[dep] for dep in unit.head.inputs} for unit in units
        ]

        # Waves run on the calling thread, so spans opened by the steps
        # themselves (GUAVA translation, relational execution) nest under
        # their unit's span in one tree.
        tracer = current_tracer()

        def execute_unit(unit: _Unit) -> int:
            """Run one fused chain to completion; returns its chunk count."""
            chunks, owned, tail_ops, head_commit = self._open_unit(
                unit, results, stats, batch_size
            )
            if head_commit is not None:
                commits.append((order[unit.head.name], head_commit))
            for step, op in tail_ops:
                if op.commit is not None:
                    commits.append((order[step.name], op.commit))
            out: list[Row] = []
            batches = 0
            for chunk in chunks:
                batches += 1
                chunk_owned = owned
                for step, op in tail_ops:
                    step_stats = stats[step.name]
                    step_stats.rows_in += len(chunk)
                    started = time.perf_counter()
                    chunk, chunk_owned = op.transform(chunk, chunk_owned)
                    step_stats.seconds += time.perf_counter() - started
                    step_stats.rows_out += len(chunk)
                out.extend(chunk)
            results[unit.tail.name] = out
            return batches

        pending = set(range(len(units)))
        completed: set[int] = set()
        wave_count = 0
        with span(
            f"workflow:{self.name}", mode="engine", batch_size=batch_size
        ) as root:
            while pending:
                wave = sorted(
                    index for index in pending if unit_deps[index] <= completed
                )
                if not wave:  # unreachable while add() keeps the DAG acyclic
                    raise WorkflowError(f"workflow {self.name!r} is cyclic")
                ready_s = time.perf_counter()
                with span(f"wave:{wave_count}"):
                    for index in wave:
                        unit = units[index]
                        queue_wait_s = max(0.0, time.perf_counter() - ready_s)
                        with span(
                            f"unit:{unit.tail.name}",
                            queue_wait_ms=round(queue_wait_s * 1000, 3),
                        ) as unit_span:
                            unit_span.set("batches", execute_unit(unit))
                            if tracer is not None:
                                _trace_steps(unit_span, unit, stats)
                wave_count += 1
                pending -= set(wave)
                completed |= set(wave)

            for _, commit in sorted(commits, key=lambda entry: entry[0]):
                commit()
            root.set("units", len(units))
            root.set("waves", wave_count)

        report = RunReport(
            steps=[
                StepRun(
                    step=step.name,
                    stage=step.stage,
                    rows_in=stats[step.name].rows_in,
                    rows_out=stats[step.name].rows_out,
                    seconds=stats[step.name].seconds,
                )
                for step in self._steps.values()
            ]
        )
        if tracer is not None:
            report.trace = root
        outputs = (
            {name: results[name] for name in self.outputs}
            if self.outputs
            else results
        )
        return outputs, report

    def _open_unit(self, unit, results, stats, batch_size):
        """The unit's input chunk iterator, its ownership, its tail ops,
        and the head step's commit (an Extract's discards) or None.

        The head step either streams (Extract), concatenates borrowed
        chunks (UnionInputs), joins the tail as its first stream op
        (streamable unary components), or falls back to ``run()``.
        """
        head = unit.head
        component = head.component
        tail = [(step, step.component.open_stream()) for step in unit.steps[1:]]
        head_stats = stats[head.name]

        def counted(chunks, owned, commit=None):
            def generate():
                started = time.perf_counter()
                for chunk in chunks:
                    head_stats.seconds += time.perf_counter() - started
                    head_stats.rows_out += len(chunk)
                    yield chunk
                    started = time.perf_counter()
                head_stats.seconds += time.perf_counter() - started

            return generate(), owned, tail, commit

        if isinstance(component, Extract):
            component.expects(0, [results[name] for name in head.inputs])
            chunks, commit = component.open_read(batch_size)
            return counted(chunks, True, commit)
        if isinstance(component, UnionInputs):
            inputs = [results[name] for name in head.inputs]
            head_stats.rows_in = sum(len(rows) for rows in inputs)
            if not inputs:
                component.run([])  # raises the canonical arity error

            def concat():
                for rows in inputs:
                    yield from chunked(rows, batch_size)

            return counted(concat(), False)
        if component.streamable and len(head.inputs) == 1:
            # Unfusable upstream (multi-consumer or kept output): run this
            # step as the first op of its own chain; the per-chunk loop
            # accumulates its stats.
            rows = results[head.inputs[0]]
            tail.insert(0, (head, component.open_stream()))
            return chunked(rows, batch_size), False, tail, None
        # Fallback: materialize via the serial contract.
        inputs = [results[name] for name in head.inputs]
        head_stats.rows_in = sum(len(rows) for rows in inputs)
        started = time.perf_counter()
        rows = component.run(inputs)
        head_stats.seconds += time.perf_counter() - started
        head_stats.rows_out = len(rows)
        return chunked(rows, batch_size), False, tail, None

    # -- rendering -----------------------------------------------------------

    def to_dot(self) -> str:
        """Graphviz DOT rendering of the DAG, clustered by Figure 6 stage."""
        lines = [f'digraph "{self.name}" {{', "  rankdir=LR;"]
        for index, stage in enumerate(self.stages()):
            lines.append(f'  subgraph cluster_{index} {{ label="{stage}";')
            for step in self._steps.values():
                if step.stage == stage:
                    lines.append(
                        f'    "{step.name}" '
                        f'[label="{step.name}\\n{type(step.component).__name__}"];'
                    )
            lines.append("  }")
        for step in self._steps.values():
            if not step.stage:
                lines.append(f'  "{step.name}";')
        for step in self._steps.values():
            for input_name in step.inputs:
                lines.append(f'  "{input_name}" -> "{step.name}";')
        lines.append("}")
        return "\n".join(lines)

    def describe(self) -> str:
        """Readable listing of the DAG."""
        lines = [f"Workflow {self.name!r}:"]
        for step in self._steps.values():
            deps = f" <- {list(step.inputs)}" if step.inputs else ""
            stage = f" [{step.stage}]" if step.stage else ""
            lines.append(f"  {step.name}: {type(step.component).__name__}{stage}{deps}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self._steps)


def _trace_steps(unit_span: Span, unit: _Unit, stats: dict[str, _StepStats]) -> None:
    """Step spans under a finished unit, carrying its steps' row counts."""
    for step in unit.steps:
        step_stats = stats[step.name]
        step_span = unit_span.child(
            f"step:{step.name}",
            stage=step.stage,
            rows_in=step_stats.rows_in,
            rows_out=step_stats.rows_out,
        )
        step_span.duration_s = step_stats.seconds
