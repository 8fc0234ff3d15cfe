"""Shared utilities: name slugs, injectable clock, provenance."""

from repro.util.clock import Clock, FixedClock, SystemClock, TickingClock
from repro.util.ids import slugify
from repro.util.annotations import Annotation, AnnotationLog, Annotated

__all__ = [
    "Annotated",
    "Annotation",
    "AnnotationLog",
    "Clock",
    "FixedClock",
    "SystemClock",
    "TickingClock",
    "slugify",
]
