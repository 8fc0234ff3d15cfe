"""Name slugs."""

from __future__ import annotations

import re

_SLUG_RE = re.compile(r"[^a-z0-9]+")


def slugify(text: str) -> str:
    """Turn arbitrary display text into a lowercase identifier slug.

    >>> slugify("Packs Per Day?")
    'packs_per_day'
    """
    slug = _SLUG_RE.sub("_", text.lower()).strip("_")
    return slug or "unnamed"

