"""Provenance annotations.

Section 3 of the paper: "Anyone using the system can annotate and timestamp
each of these artifacts, as well as the studies themselves, so that it is
clear who generated them, when, and why."  :class:`Annotated` is the mixin
that gives g-trees, classifiers, study schemas, and studies that capability.
"""

from __future__ import annotations

from datetime import datetime
from typing import Iterator, NamedTuple

from repro.util.clock import Clock, SystemClock

#: The clock of every log not given one; it holds no state.
_SYSTEM_CLOCK = SystemClock()


class Annotation(NamedTuple):
    """One provenance record: who did what to an artifact, when, and why.

    A named tuple: immutable, and cheap to make on every study build.
    """

    author: str
    action: str
    rationale: str
    timestamp: datetime

    def __str__(self) -> str:
        return f"[{self.timestamp.isoformat()}] {self.author}: {self.action} — {self.rationale}"


class AnnotationLog:
    """Append-only log of :class:`Annotation` records for one artifact."""

    __slots__ = ("_clock", "_records")

    def __init__(self, clock: Clock | None = None):
        self._clock = clock or _SYSTEM_CLOCK
        self._records: list[Annotation] = []

    def copy(self) -> "AnnotationLog":
        """A new log holding this one's records, stamped by the same clock."""
        log = AnnotationLog(self._clock)
        log._records = list(self._records)
        return log

    def add(self, author: str, action: str, rationale: str = "") -> Annotation:
        """Record and return a new annotation stamped by the log's clock."""
        record = Annotation(
            author=author,
            action=action,
            rationale=rationale,
            timestamp=self._clock.now(),
        )
        self._records.append(record)
        return record

    def by_author(self, author: str) -> list[Annotation]:
        """All annotations written by ``author``, oldest first."""
        return [record for record in self._records if record.author == author]

    @property
    def records(self) -> tuple[Annotation, ...]:
        return tuple(self._records)

    @property
    def created(self) -> Annotation | None:
        """The first annotation, conventionally the creation record."""
        return self._records[0] if self._records else None

    @property
    def last_modified(self) -> Annotation | None:
        """The most recent annotation."""
        return self._records[-1] if self._records else None

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Annotation]:
        return iter(self._records)


class Annotated:
    """Mixin giving an artifact an annotation log.

    Subclasses call :meth:`annotate` whenever the artifact is created or
    modified; analysts use the log to audit integration decisions from
    prior studies before reusing them.  The log is made on the first
    :meth:`annotate` or read of :attr:`annotations`, so an artifact nobody
    annotates costs no log.  Not a dataclass field: a dataclass artifact's
    equality and ``repr`` leave its log out, and a frozen artifact can
    still be annotated.
    """

    _log: AnnotationLog | None = None

    @property
    def annotations(self) -> AnnotationLog:
        log = self._log
        if log is None:
            log = AnnotationLog()
            object.__setattr__(self, "_log", log)
        return log

    @annotations.setter
    def annotations(self, log: AnnotationLog) -> None:
        """Give the artifact a log of the caller's (one with its own clock)."""
        object.__setattr__(self, "_log", log)

    def annotate(self, author: str, action: str, rationale: str = "") -> Annotation:
        """Attach a provenance record to this artifact."""
        return self.annotations.add(author, action, rationale)
