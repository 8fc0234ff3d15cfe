"""Identity memos: work that depends only on an immutable object, done once.

Expression ASTs are frozen, and :func:`~repro.expr.parser.parse` returns
the very same AST object for the same text, so whatever is computed from
an AST alone — the names it reads (``repro.expr.analysis``) — can be kept
per AST *object*, and a rebuilt study definition finds it there.

An :class:`IdentityMemo` is keyed by identity, never by equality:
``Literal(0) == Literal(False)`` under dict equality, yet the two compare
differently against ``0`` and fingerprint differently, so an equality-keyed
memo would alias distinct trees.  Each entry holds its key object, which
keeps the key alive, so its ``id`` cannot be reused by another object while
the entry exists.  The memo is bounded: an insert at the limit first clears
every entry, which costs one recomputation per live key and keeps the
bookkeeping to one dict.
"""

from __future__ import annotations

from typing import Generic, TypeVar

V = TypeVar("V")

#: Entries per memo before an insert clears it.
MEMO_LIMIT = 4096


class IdentityMemo(Generic[V]):
    """A bounded map from objects, by identity, to values computed from them."""

    __slots__ = ("_entries", "limit")

    def __init__(self, limit: int = MEMO_LIMIT) -> None:
        self._entries: dict[object, tuple[object, V]] = {}
        self.limit = limit

    def get(self, key: object) -> V | None:
        """The value kept for ``key`` itself, or None."""
        # An entry pins its key, so a live entry under id(key) is key's.
        entry = self._entries.get(id(key))
        return None if entry is None else entry[1]

    def put(self, key: object, value: V) -> V:
        """Keep ``value`` for ``key`` (clearing the memo at its limit)."""
        entries = self._entries
        if len(entries) >= self.limit:
            entries.clear()
        entries[id(key)] = (key, value)
        return value

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

