"""GUAVA: GUI As View Apparatus.

The paper's first component.  A g-tree captures the structure and content
of a reporting tool's interface — one node per control, with the exact
question wording, answer options, defaults, required flags, and enablement
relationships.  The g-tree behaves like a *view*: analysts query it, and
GUAVA translates those queries through the source's design-pattern chain
down to the physical database.
"""

from repro.guava.gtree import GNode, GTree
from repro.guava.derive import derive_gtree, derive_all
from repro.guava.query import GTreeQuery
from repro.guava.source import GuavaSource, RowMap
from repro.guava.translate import translate_query
from repro.guava.xmlio import gtree_from_xml, gtree_to_xml

__all__ = [
    "GNode",
    "GTree",
    "GTreeQuery",
    "GuavaSource",
    "RowMap",
    "derive_all",
    "derive_gtree",
    "gtree_from_xml",
    "gtree_to_xml",
    "translate_query",
]
