"""The shared expression language.

One grammar serves four roles in the system:

* classifier rules (``A <- B``: arithmetic expression + boolean guard),
* study filters (the paper's "conditions similar to a WHERE clause"),
* control enablement conditions in the GUI model, and
* predicates in the relational algebra.

Keeping a single language makes Hypothesis 3's expressiveness argument
auditable: :func:`repro.expr.analysis.is_union_of_conjunctions` decides
whether a parsed condition falls inside "conjunctive queries with union".
"""

from repro.expr.ast import (
    BinaryOp,
    Expression,
    FunctionCall,
    Identifier,
    InList,
    IsNull,
    Literal,
    UnaryOp,
)
from repro.expr.lexer import Token, TokenType, tokenize
from repro.expr.parser import parse
from repro.expr.evaluator import Evaluator, evaluate
from repro.expr.compile import compile_expression, compile_predicate
from repro.expr.functions import FunctionRegistry, default_registry
from repro.expr.analysis import (
    is_union_of_conjunctions,
    referenced_identifiers,
    to_dnf,
)

__all__ = [
    "BinaryOp",
    "Evaluator",
    "Expression",
    "FunctionCall",
    "FunctionRegistry",
    "Identifier",
    "InList",
    "IsNull",
    "Literal",
    "Token",
    "TokenType",
    "UnaryOp",
    "compile_expression",
    "compile_predicate",
    "default_registry",
    "evaluate",
    "is_union_of_conjunctions",
    "parse",
    "referenced_identifiers",
    "to_dnf",
    "tokenize",
]
