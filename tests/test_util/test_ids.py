"""Tests for name slugs."""

from repro.util import slugify


class TestSlugify:
    def test_basic(self):
        assert slugify("Packs Per Day?") == "packs_per_day"

    def test_collapses_runs(self):
        assert slugify("a  --  b") == "a_b"

    def test_empty_becomes_unnamed(self):
        assert slugify("!!!") == "unnamed"

    def test_already_clean(self):
        assert slugify("smoking") == "smoking"

