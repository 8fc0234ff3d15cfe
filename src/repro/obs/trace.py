"""Span-based tracing: the engine's zero-dependency observability core.

A :class:`Span` is one timed region of work — a plan node's streaming, an
optimizer pass, an ETL step — carrying counters/gauges (``attrs``), point
events, and child spans.  A :class:`Tracer` collects spans into trees.

Tracing is **off by default** and contract-bound to stay cheap when off:
the active tracer lives in a :data:`contextvars.ContextVar` whose default
is ``None``, and every hook in the engine reduces to one ``None`` check
per *operator or step* (never per row) when disabled.  The bench suite
measures this (``bench_relational_core.py`` filtered-scan, <2% budget).

Three ways to use it::

    with tracing() as tracer:            # install a tracer for a block
        rows = query.execute(db)         # engine hooks record into it
    print(tracer.root.render())

    with span("materialize.build") as s: # explicit spans (no-op when off)
        s.set("decision", "incremental")

    report = explain_analyze(query, db)  # repro.obs.explain, one-call API

Span context managers nest via a per-tracer stack and are meant for
single-threaded use.

Exports are JSON (``to_dict``/``to_json``), an annotated tree
(``render``), and collapsed-stack flamegraph text (``flamegraph_lines``),
one line per span path weighted by self time in microseconds.
"""

from __future__ import annotations

import json
from contextlib import AbstractContextManager
from contextvars import ContextVar, Token
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterator


@dataclass
class Span:
    """One timed region of work, with counters, events, and children."""

    name: str
    attrs: dict[str, Any] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    events: list[dict[str, Any]] = field(default_factory=list)
    #: ``perf_counter`` at open; spans assembled post-hoc may leave it 0.
    start_s: float = 0.0
    #: Accumulated wall time, inclusive of children.
    duration_s: float = 0.0

    # -- counters / gauges ---------------------------------------------------

    def incr(self, key: str, n: int = 1) -> None:
        """Increment a counter attribute."""
        self.attrs[key] = self.attrs.get(key, 0) + n

    def set(self, key: str, value: object) -> None:
        """Set a gauge/annotation attribute."""
        self.attrs[key] = value

    def event(self, name: str, **data: object) -> None:
        """Record a point event (e.g. one access-path decision)."""
        self.events.append({"event": name, **data})

    def child(self, name: str, **attrs: object) -> "Span":
        """Append and return a manually-managed child span."""
        added = Span(name, attrs=dict(attrs))
        self.children.append(added)
        return added

    # -- structure -----------------------------------------------------------

    def walk(self) -> Iterator["Span"]:
        """This span and all descendants, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def self_s(self) -> float:
        """Wall time exclusive of children (floored at zero)."""
        return max(0.0, self.duration_s - sum(c.duration_s for c in self.children))

    # -- export --------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "duration_ms": round(self.duration_s * 1000, 3),
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.events:
            out["events"] = list(self.events)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    def render(self, indent: int = 0) -> str:
        """Annotated tree text: one line per span with time and attrs."""
        pad = "  " * indent
        parts = [f"{pad}{self.name}  {self.duration_s * 1000:.3f} ms"]
        if self.attrs:
            inline = ", ".join(f"{k}={v}" for k, v in sorted(self.attrs.items()))
            parts[0] += f"  [{inline}]"
        for entry in self.events:
            data = ", ".join(f"{k}={v}" for k, v in entry.items() if k != "event")
            parts.append(f"{pad}  * {entry['event']}: {data}")
        for child in self.children:
            parts.append(child.render(indent + 1))
        return "\n".join(parts)

    def flamegraph_lines(self) -> list[str]:
        """Collapsed-stack lines (``a;b;c <self-time-us>``) for flamegraphs."""
        lines: list[str] = []

        def visit(span: "Span", prefix: str) -> None:
            path = f"{prefix};{span.name}" if prefix else span.name
            lines.append(f"{path} {int(span.self_s() * 1_000_000)}")
            for child in span.children:
                visit(child, path)

        visit(self, "")
        return lines


class _NullSpan(Span):
    """The shared do-nothing span handed out when tracing is disabled."""

    def __init__(self) -> None:
        super().__init__("null")

    def incr(self, key: str, n: int = 1) -> None:
        pass

    def set(self, key: str, value: object) -> None:
        pass

    def event(self, name: str, **data: object) -> None:
        pass

    def child(self, name: str, **attrs: object) -> "Span":
        return self


#: Singleton no-op span; ``span(...)`` yields it when tracing is off.
NULL_SPAN = _NullSpan()


class Tracer:
    """Collects span trees for one traced region (one install)."""

    __slots__ = ("roots", "_stack")

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    @property
    def root(self) -> Span | None:
        """The first top-level span, if any."""
        return self.roots[0] if self.roots else None

    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def span(
        self, name: str, parent: Span | None = None, **attrs: object
    ) -> "_SpanHandle":
        """Context manager opening a child of ``parent`` (default: current)."""
        return _SpanHandle(self, name, parent, attrs)

    def to_dict(self) -> dict[str, Any]:
        return {"spans": [span.to_dict() for span in self.roots]}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=str)


class _SpanHandle(AbstractContextManager[Span]):
    """Opens a span on enter, closes (duration + stack pop) on exit."""

    __slots__ = ("_tracer", "_name", "_parent", "_attrs", "_span")

    def __init__(
        self,
        tracer: Tracer,
        name: str,
        parent: Span | None,
        attrs: dict[str, object],
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._parent = parent
        self._attrs = attrs
        self._span: Span | None = None

    def __enter__(self) -> Span:
        opened = Span(self._name, attrs=dict(self._attrs), start_s=perf_counter())
        parent = self._parent or self._tracer.current()
        if parent is not None:
            parent.children.append(opened)
        else:
            self._tracer.roots.append(opened)
        self._tracer._stack.append(opened)
        self._span = opened
        return opened

    def __exit__(self, *exc_info: object) -> None:
        closed = self._span
        if closed is None:
            return
        closed.duration_s += perf_counter() - closed.start_s
        stack = self._tracer._stack
        if stack and stack[-1] is closed:
            stack.pop()


class _NullHandle(AbstractContextManager[Span]):
    """Context manager yielding :data:`NULL_SPAN`; used when disabled."""

    __slots__ = ()

    def __enter__(self) -> Span:
        return NULL_SPAN

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_HANDLE = _NullHandle()

#: The active tracer.  ``None`` (the default) is the module's off switch:
#: every engine hook checks this exactly once per operator/step.
_ACTIVE: ContextVar[Tracer | None] = ContextVar("repro_obs_tracer", default=None)


def enabled() -> bool:
    """True when a tracer is installed in the current context."""
    return _ACTIVE.get() is not None


def current_tracer() -> Tracer | None:
    """The installed tracer, or None when tracing is disabled."""
    return _ACTIVE.get()


def current_span() -> Span | None:
    """The innermost open span of the installed tracer, if any."""
    tracer = _ACTIVE.get()
    return tracer.current() if tracer is not None else None


def install(tracer: Tracer) -> Token[Tracer | None]:
    """Install ``tracer`` for the current context; returns the reset token."""
    return _ACTIVE.set(tracer)


def uninstall(token: Token[Tracer | None]) -> None:
    """Restore the tracer that was active before :func:`install`."""
    _ACTIVE.reset(token)


class _Tracing(AbstractContextManager[Tracer]):
    """``with tracing() as tracer`` — install a fresh tracer for a block."""

    __slots__ = ("_tracer", "_token")

    def __init__(self, tracer: Tracer | None = None) -> None:
        self._tracer = tracer if tracer is not None else Tracer()
        self._token: Token[Tracer | None] | None = None

    def __enter__(self) -> Tracer:
        self._token = install(self._tracer)
        return self._tracer

    def __exit__(self, *exc_info: object) -> None:
        if self._token is not None:
            uninstall(self._token)
            self._token = None


def tracing(tracer: Tracer | None = None) -> _Tracing:
    """Context manager installing (and on exit removing) a tracer."""
    return _Tracing(tracer)


def span(name: str, **attrs: object) -> AbstractContextManager[Span]:
    """Open a span on the active tracer; a shared no-op when disabled."""
    tracer = _ACTIVE.get()
    if tracer is None:
        return _NULL_HANDLE
    return tracer.span(name, **attrs)


class TreeRecorder:
    """Mirrors a static operator tree into spans and meters its iterators.

    Built once per traced execution: the plan tree is walked up front so
    the span tree reflects operator structure even though streaming
    interleaves the operators' actual work.  Each node's iterator is then
    wrapped to accumulate wall time (inclusive of children, since a pull
    recurses) and a ``rows_out`` counter into its own span.

    Spans are keyed by node identity; a node object shared between two
    tree positions accumulates into one span (counts then sum).
    """

    __slots__ = ("_spans",)

    def __init__(
        self,
        root: object,
        parent_span: Span,
        label: Callable[[Any], str],
        children: Callable[[Any], tuple[Any, ...]],
    ) -> None:
        self._spans: dict[int, tuple[object, Span]] = {}

        def build(node: object, parent: Span) -> None:
            node_span = parent.child(label(node))
            self._spans.setdefault(id(node), (node, node_span))
            for child in children(node):
                build(child, node_span)

        build(root, parent_span)

    def span_of(self, node: object) -> Span | None:
        entry = self._spans.get(id(node))
        if entry is not None and entry[0] is node:
            return entry[1]
        return None

    def annotate(self, node: object, **attrs: object) -> None:
        """Attach gauges to a node's span (no-op for unknown nodes)."""
        node_span = self.span_of(node)
        if node_span is not None:
            node_span.attrs.update(attrs)

    def wrap(
        self, node: object, iterator: Iterator[Any], setup_s: float = 0.0
    ) -> Iterator[Any]:
        """Meter ``iterator`` into the node's span (rows_out + wall time)."""
        node_span = self.span_of(node)
        if node_span is None:
            return iterator
        node_span.duration_s += setup_s

        def generate() -> Iterator[Any]:
            rows = 0
            timer = perf_counter
            started = timer()
            try:
                for item in iterator:
                    node_span.duration_s += timer() - started
                    rows += 1
                    yield item
                    started = timer()
                node_span.duration_s += timer() - started
            finally:
                node_span.attrs["rows_out"] = node_span.attrs.get("rows_out", 0) + rows

        return generate()
