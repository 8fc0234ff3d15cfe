"""Per-layer spans recorded from the benchmark's own code.

:class:`Recorder` wraps the public entry points of each ``repro`` layer by
attribute substitution: a class attribute for methods, and for module
functions every module attribute bound to the function (every import
site, e.g. both ``repro.guava.source.translate_query`` and
``repro.etl.compile.translate_query``).  Everything is restored when the
run ends.  ``repro.obs.tracing()`` is never turned on, so the program runs
its untraced code paths.

Each wrapped call is a span (name, start, end, parent, phase, op id).
Calls made many times per operation (``LEAF``) are not stored one by one:
their calls and seconds are summed per parent span.  A span's self time
is its duration minus the time of the wrapped calls it made.  Spans stay
in memory and are written once, at the end, by :meth:`Recorder.write_spans`.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.relational.vectorize import Vectorized

SPAN = "span"
LEAF = "leaf"

#: Layers whose self time is reported as a share of the measured phase;
#: ``clinical`` (``build_world``) only runs during setup.
LAYERS = (
    "ui",
    "patterns",
    "storage",
    "guava",
    "relational",
    "multiclass",
    "analysis",
    "etl",
    "warehouse",
)

#: (layer, module, class or None for a module function, attribute, kind).
TARGETS = (
    ("ui", "repro.ui.session", "DataEntrySession", "enter", SPAN),
    ("ui", "repro.ui.session", "FormInstance", "set", LEAF),
    ("patterns", "repro.patterns.chain", "PatternChain", "write", LEAF),
    ("storage", "repro.storage.engine", "DurableStore", "__init__", SPAN),
    ("storage", "repro.storage.engine", "DurableStore", "commit", SPAN),
    ("storage", "repro.storage.engine", "DurableStore", "snapshot", SPAN),
    ("guava", "repro.guava.translate", None, "translate_query", SPAN),
    ("guava", "repro.guava.source", "GuavaSource", "execute", SPAN),
    ("relational", "repro.relational.query", None, "optimize", SPAN),
    ("relational", "repro.relational.query", None, "prepare_stream_plan", SPAN),
    ("relational", "repro.relational.algebra", "Plan", "execute", SPAN),
    ("relational", "repro.relational.database", "Database", "plan_cache_get", LEAF),
    ("multiclass", "repro.multiclass.classifier", "Classifier", "classify", LEAF),
    ("multiclass", "repro.multiclass.study", "Study", "run", SPAN),
    ("analysis", "repro.analysis.studies", None, "build_cohort_study", SPAN),
    ("etl", "repro.etl.compile", None, "compile_study", SPAN),
    ("etl", "repro.etl.workflow", "Workflow", "run", SPAN),
    (
        "warehouse",
        "repro.warehouse.materialize",
        "MaterializationStrategy",
        "build",
        SPAN,
    ),
    ("clinical", "repro.clinical.sources", None, "build_world", SPAN),
)

REFRESH = "MaterializationStrategy.build"


def target_name(owner: str | None, attribute: str) -> str:
    if owner is None:
        return attribute
    return f"{owner}.{'open' if attribute == '__init__' else attribute}"


def _has_vectorized(plan) -> bool:
    if isinstance(plan, Vectorized):
        return True
    return any(_has_vectorized(child) for child in plan.children())


def _argument(args: tuple, kwargs: dict, position: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else None


class Recorder:
    """Spans, self times and counters of one traced workload run."""

    def __init__(self) -> None:
        self.phase = "setup"
        self.op: object = None
        self._origin = time.perf_counter()
        self._phase_started = self._origin
        self.phase_wall: Counter = Counter()
        #: [id, parent id, phase, op, name, start, end], times from origin.
        self.spans: list[list] = []
        #: (parent span id, name) -> [calls, seconds] for LEAF calls.
        self.leaves: dict[tuple, list] = defaultdict(lambda: [0, 0.0])
        #: Frames of the wrapped calls in progress: [child seconds, span id, name].
        self._stack: list[list] = []
        self.self_s: Counter = Counter()
        self.inclusive_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []
        self._gc_started = 0.0

    # -- phases ------------------------------------------------------------

    def mark(self, phase: str, op: object = None) -> None:
        """Tag the work that follows: ``setup``, ``measured`` or ``check``."""
        now = time.perf_counter()
        self.phase_wall[self.phase] += now - self._phase_started
        self._phase_started = now
        self.phase = phase
        self.op = op

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[self.phase, key] += amount

    def measured(self, table: Counter, key: str) -> float:
        return table["measured", key]

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, function: Callable, kind: str, observe) -> Callable:
        perf = time.perf_counter
        stack = self._stack
        spans = self.spans
        leaf = kind == LEAF

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            if leaf:
                span_id = parent
            else:
                span_id = len(spans)
                spans.append(None)
            frame = [0.0, span_id, name]
            stack.append(frame)
            start = perf()
            try:
                result = function(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                key = (self.phase, name)
                self.calls[key] += 1
                self.self_s[key] += duration - frame[0]
                self.inclusive_s[key] += duration
                if leaf:
                    totals = self.leaves[parent, name]
                    totals[0] += 1
                    totals[1] += duration
                else:
                    origin = self._origin
                    spans[span_id] = [
                        span_id,
                        parent,
                        self.phase,
                        self.op,
                        name,
                        start - origin,
                        end - origin,
                    ]
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def in_refresh(self) -> bool:
        """True while a warehouse refresh (``build``) is on the call stack."""
        return any(frame[2] == REFRESH for frame in self._stack)

    @contextmanager
    def installed(self) -> Iterator["Recorder"]:
        """Wrap every target (and watch the collector) for the block."""
        try:
            for _, module_name, owner, attribute, kind in TARGETS:
                module = importlib.import_module(module_name)
                name = target_name(owner, attribute)
                observe = OBSERVERS.get(name)
                if owner is not None:
                    cls = getattr(module, owner)
                    original = cls.__dict__[attribute]
                    setattr(cls, attribute, self._wrap(name, original, kind, observe))
                    self._restore.append((cls, attribute, original))
                    continue
                original = getattr(module, attribute)
                wrapper = self._wrap(name, original, kind, observe)
                for site in list(sys.modules.values()):
                    namespace = getattr(site, "__dict__", None) or {}
                    for key, value in list(namespace.items()):
                        if value is original:
                            setattr(site, key, wrapper)
                            self._restore.append((site, key, original))
            gc.callbacks.append(self._on_gc)
            yield self
        finally:
            if self._on_gc in gc.callbacks:
                gc.callbacks.remove(self._on_gc)
            for site, key, original in reversed(self._restore):
                setattr(site, key, original)
            self._restore.clear()
            self.mark(self.phase, self.op)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        self.count("gc_pause_s", time.perf_counter() - self._gc_started)
        if info.get("generation") == 2:
            self.count("gc_gen2")

    # -- results -----------------------------------------------------------

    def table(self, measured_wall_s: float) -> list[dict]:
        """Per wrapped callable in the measured phase: calls, self ms, share."""
        rows = []
        for layer, _, owner, attribute, _ in TARGETS:
            name = target_name(owner, attribute)
            calls = self.measured(self.calls, name)
            if not calls:
                continue
            self_s = self.measured(self.self_s, name)
            rows.append(
                {
                    "layer": layer,
                    "callable": name,
                    "calls": calls,
                    "self_ms": self_s * 1000,
                    "share_pct": 100 * self_s / measured_wall_s,
                }
            )
        return rows

    def layer_metrics(self, result: dict) -> dict[str, dict]:
        """The per-layer metrics of one traced run (``BENCHMARK.json``)."""
        wall = result["measured_wall_s"]
        counts = result["counts"]
        calls = lambda name: self.measured(self.calls, name)  # noqa: E731
        self_s = lambda name: self.measured(self.self_s, name)  # noqa: E731
        counter = lambda key: self.measured(self.counters, key)  # noqa: E731

        def share(seconds: float) -> float:
            return 100 * seconds / wall

        def ratio(part: float, whole: float, scale: float = 1) -> float:
            return scale * part / whole if whole else 0.0

        layer_s: Counter = Counter()
        for layer, _, owner, attribute, _ in TARGETS:
            layer_s[layer] += self_s(target_name(owner, attribute))
        values: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            values[f"{layer}.self_pct"] = (share(layer_s[layer]), "%")
        values["other.self_pct"] = (share(wall - sum(layer_s.values())), "%")
        for metric, name in (
            ("ui.set_pct", "FormInstance.set"),
            ("storage.commit_pct", "DurableStore.commit"),
            ("storage.snapshot_pct", "DurableStore.snapshot"),
            ("storage.open_pct", "DurableStore.open"),
            ("guava.translate_pct", "translate_query"),
            ("relational.optimize_pct", "optimize"),
            ("relational.prepare_stream_pct", "prepare_stream_plan"),
            ("relational.execute_pct", "Plan.execute"),
            ("multiclass.classify_pct", "Classifier.classify"),
            ("multiclass.study_self_pct", "Study.run"),
            ("etl.compile_pct", "compile_study"),
            ("etl.run_self_pct", "Workflow.run"),
        ):
            values[metric] = (share(self_s(name)), "%")
        for stage in ("extract", "classify", "study"):
            values[f"etl.{stage}_stage_pct"] = (
                share(counter(f"etl.{stage}_stage_s")),
                "%",
            )
        entries = counts.get("entries", 0)
        refreshes = counts.get("refreshes", 0)
        executes = calls("Plan.execute")
        classifies = calls("Classifier.classify")
        values.update(
            {
                "ui.set_calls_per_entry": (
                    ratio(calls("FormInstance.set"), entries),
                    "count",
                ),
                "patterns.rows_per_screen": (
                    ratio(counter("patterns.rows"), calls("PatternChain.write")),
                    "count",
                ),
                "storage.wal_bytes_per_entry": (
                    counts.get("wal_bytes_per_entry", 0.0),
                    "B",
                ),
                "storage.snapshot_bytes_per_entry": (
                    counts.get("snapshot_bytes_per_entry", 0.0),
                    "B",
                ),
                "storage.recover_replayed": (
                    counts.get("recover_replayed", 0.0),
                    "count",
                ),
                "guava.record_scoped_extracts_per_refresh": (
                    ratio(counter("guava.record_scoped_extracts"), refreshes),
                    "count",
                ),
                "relational.plan_cache_hit_pct": (
                    ratio(
                        counter("relational.plan_cache_hits"),
                        calls("Database.plan_cache_get"),
                        100,
                    ),
                    "%",
                ),
                "relational.vectorized_plan_pct": (
                    ratio(counter("relational.vectorized_plans"), executes, 100),
                    "%",
                ),
                "relational.parallel_executions": (
                    counter("relational.parallel_executions"),
                    "count",
                ),
                "relational.rows_per_execute": (
                    ratio(counter("relational.rows"), executes),
                    "count",
                ),
                "multiclass.classify_calls_per_op": (
                    ratio(classifies, result["ops"]),
                    "count",
                ),
                "multiclass.unclassified_pct": (
                    ratio(counter("multiclass.unclassified"), classifies, 100),
                    "%",
                ),
                "warehouse.records_refreshed_per_refresh": (
                    ratio(counter("warehouse.records_refreshed"), refreshes),
                    "count",
                ),
                "warehouse.full_fallbacks": (
                    counter("warehouse.full_extracts"),
                    "count",
                ),
                "clinical.build_world_setup_pct": (
                    ratio(
                        self.inclusive_s["setup", "build_world"],
                        self.phase_wall["setup"],
                        100,
                    ),
                    "%",
                ),
                "runtime.gc_pause_ms": (counter("gc_pause_s") * 1000, "ms"),
                "runtime.gc_gen2_collections": (counter("gc_gen2"), "count"),
            }
        )
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    def write_spans(self, path: str, workload: str) -> None:
        document = {
            "workload": workload,
            "span_fields": ["id", "parent", "phase", "op", "name", "start_s", "end_s"],
            "spans": self.spans,
            "leaf_fields": ["parent", "name", "calls", "seconds"],
            "leaves": [
                [parent, name, calls, seconds]
                for (parent, name), (calls, seconds) in self.leaves.items()
            ],
        }
        with open(path, "w") as handle:
            json.dump(document, handle)


# -- observers: counters read off a wrapped call's arguments and result ------


def _observe_write(recorder: Recorder, args, kwargs, result) -> None:
    recorder.count("patterns.rows", result)


def _observe_execute_source(recorder: Recorder, args, kwargs, result) -> None:
    record_ids = _argument(args, kwargs, 2, "record_ids")
    if record_ids is not None:
        recorder.count("guava.record_scoped_extracts")
    if recorder.in_refresh():
        if record_ids is None:
            recorder.count("warehouse.full_extracts")
        else:
            recorder.count("warehouse.records_refreshed", len(set(record_ids)))


def _observe_execute_plan(recorder: Recorder, args, kwargs, result) -> None:
    if _argument(args, kwargs, 2, "parallel") is not None:
        recorder.count("relational.parallel_executions")
    if _has_vectorized(args[0]):
        recorder.count("relational.vectorized_plans")
    recorder.count("relational.rows", len(result))


def _observe_plan_cache(recorder: Recorder, args, kwargs, result) -> None:
    if result is not None:
        recorder.count("relational.plan_cache_hits")


def _observe_classify(recorder: Recorder, args, kwargs, result) -> None:
    if result is None:
        recorder.count("multiclass.unclassified")


def _observe_workflow(recorder: Recorder, args, kwargs, result) -> None:
    _, report = result
    for step in report.steps:
        recorder.count(f"etl.{step.stage}_stage_s", step.seconds)


OBSERVERS = {
    "PatternChain.write": _observe_write,
    "GuavaSource.execute": _observe_execute_source,
    "Plan.execute": _observe_execute_plan,
    "Database.plan_cache_get": _observe_plan_cache,
    "Classifier.classify": _observe_classify,
    "Workflow.run": _observe_workflow,
}
