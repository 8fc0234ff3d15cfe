"""Compile expression ASTs into Python closures.

``compile_expression`` lowers an :class:`~repro.expr.ast.Expression` tree
into a nest of plain Python closures; executing a plan (or applying
classifier rules) lowers each expression once per run and then makes one
function call per row instead of recursing over the AST through
:class:`~repro.expr.evaluator.Evaluator`.

The lowering reuses the evaluator's own semantic helpers (``_compare``,
``_arithmetic``, LIKE, Kleene logic, suffix identifier resolution) so SQL
three-valued-logic behaviour — including which errors are raised, and when —
matches the tree-walking interpreter exactly.  Property tests in
``tests/test_expr/test_compile.py`` assert that equivalence on randomized
expressions and environments.

Nothing is memoized: every call lowers its expression afresh, so a caller
that applies one expression to many rows compiles it once and keeps the
closure.

A *code book* — ``IIF(x = 'Y', TRUE, IIF(x = 'N', FALSE, NULL))``, the
chain the Encoding pattern decodes stored codes with — lowers to one dict
probe (:func:`code_book`), with the generic chain kept for input types the
probe cannot decide.
"""

from __future__ import annotations

import operator
from typing import Callable, Mapping, NamedTuple

from repro.errors import EvaluationError, UnknownFunctionError
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
from repro.expr.evaluator import (
    Evaluator,
    _arithmetic,
    _as_bool,
    _compare,
    _like,
    resolve_suffix_key,
)
from repro.expr.functions import FunctionRegistry, default_registry

Environment = Mapping[str, object]
CompiledExpression = Callable[[Environment], object]
CompiledPredicate = Callable[[Environment], bool]

_DEFAULT_REGISTRY = default_registry()
_MISSING = object()


def compile_expression(
    expr: Expression, functions: FunctionRegistry | None = None
) -> CompiledExpression:
    """Lower ``expr`` to a closure computing its value in an environment."""
    return _lower(expr, functions or _DEFAULT_REGISTRY)


def compile_predicate(
    expr: Expression, functions: FunctionRegistry | None = None
) -> CompiledPredicate:
    """Like :meth:`Evaluator.satisfied`: True iff ``expr`` is boolean TRUE."""
    value_of = compile_expression(expr, functions)
    return lambda env: value_of(env) is True


# -- code books ----------------------------------------------------------------

_DEFAULT_IIF = _DEFAULT_REGISTRY.lookup("IIF")


class CodeBook(NamedTuple):
    """An ``IIF`` chain mapping one identifier's literal codes to literals."""

    identifier: Identifier
    table: dict[object, object]
    default: object
    #: Input types the table decides exactly: ``str`` for text codes,
    #: ``int``/``float`` for integer codes.
    types: frozenset[type]


def code_book(expr: Expression, registry: FunctionRegistry) -> CodeBook | None:
    """The code book ``expr`` spells, or None when it is not one.

    A code book is ``IIF(<identifier> = <Literal code>, <Literal value>,
    ...)`` nested through the else arm down to a final ``Literal`` (the
    default), reading one identifier throughout, whose ``IIF`` is the
    default registry's.  Every code must be a ``str``, or every code a
    non-bool ``int``.  A repeated code keeps its first value, the arm the
    chain reaches first.

    The table decides inputs of exactly the listed types: ``_compare``
    treats ``str``/``str`` and int/float pairs as plain ``==``, which is
    what a dict probe computes, and a miss falls to the default.  NULL
    fails every test, so it yields the default too.  Every other input
    (``True`` against code ``1``, a date, a list) must run the chain.
    """
    try:
        if registry.lookup("IIF") is not _DEFAULT_IIF:
            return None
    except UnknownFunctionError:
        return None
    identifier: Identifier | None = None
    table: dict[object, object] = {}
    codes: list[object] = []
    node = expr
    while isinstance(node, FunctionCall):
        if node.name.upper() != "IIF" or len(node.args) != 3:
            return None
        test, value, node = node.args
        if not (
            isinstance(test, BinaryOp)
            and test.op == "="
            and isinstance(test.left, Identifier)
            and isinstance(test.right, Literal)
            and isinstance(value, Literal)
        ):
            return None
        if identifier is None:
            identifier = test.left
        elif test.left != identifier:
            return None
        code = test.right.value
        codes.append(code)
        table.setdefault(code, value.value)
    if identifier is None or not isinstance(node, Literal):
        return None
    if all(type(code) is str for code in codes):
        types: frozenset[type] = frozenset((str,))
    elif all(type(code) is int for code in codes):
        types = frozenset((int, float))
    else:
        return None
    return CodeBook(identifier, table, node.value, types)


def _lower_code_book(
    expr: FunctionCall, book: CodeBook, registry: FunctionRegistry
) -> CompiledExpression:
    resolve = _lower_identifier(book.identifier)
    get = book.table.get
    default = book.default
    exact = book.types
    # The generic chain is lowered on the first input the table cannot
    # decide; most code books never meet one.
    generic: CompiledExpression | None = None

    def decode(env: Environment) -> object:
        nonlocal generic
        value = resolve(env)
        if type(value) in exact:
            return get(value, default)
        if value is None:
            return default
        if generic is None:
            generic = _lower_function_call(expr, registry)
        return generic(env)

    return decode


# -- lowering ------------------------------------------------------------------


def _lower(expr: Expression, registry: FunctionRegistry) -> CompiledExpression:
    if isinstance(expr, Literal):
        value = expr.value
        return lambda env: value
    if isinstance(expr, Identifier):
        return _lower_identifier(expr)
    if isinstance(expr, UnaryOp):
        return _lower_unary(expr, registry)
    if isinstance(expr, BinaryOp):
        return _lower_binary(expr, registry)
    if isinstance(expr, FunctionCall):
        book = code_book(expr, registry)
        if book is not None:
            return _lower_code_book(expr, book, registry)
        return _lower_function_call(expr, registry)
    if isinstance(expr, InList):
        return _lower_in_list(expr, registry)
    if isinstance(expr, IsNull):
        operand = _lower(expr.operand, registry)
        if expr.negated:
            return lambda env: operand(env) is not None
        return lambda env: operand(env) is None
    # Unknown node types fall back to the interpreter, which either supports
    # them or raises the canonical EvaluationError.
    interpreter = Evaluator(registry)
    return lambda env: interpreter.evaluate(expr, env)


def _lower_identifier(expr: Identifier) -> CompiledExpression:
    name = expr.name
    leaf = expr.leaf

    if name == leaf:

        def resolve_plain(env: Environment) -> object:
            value = env.get(name, _MISSING)
            if value is not _MISSING:
                return value
            return env[resolve_suffix_key(name, name, env)]

        return resolve_plain

    def resolve_dotted(env: Environment) -> object:
        value = env.get(name, _MISSING)
        if value is not _MISSING:
            return value
        value = env.get(leaf, _MISSING)
        if value is not _MISSING:
            return value
        return env[resolve_suffix_key(name, leaf, env)]

    return resolve_dotted


def _lower_unary(expr: UnaryOp, registry: FunctionRegistry) -> CompiledExpression:
    operand = _lower(expr.operand, registry)
    if expr.op == "-":

        def negate(env: Environment) -> object:
            value = operand(env)
            if value is None:
                return None
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise EvaluationError(f"cannot negate non-numeric value {value!r}")
            return -value

        return negate
    if expr.op == "NOT":

        def invert(env: Environment) -> object:
            value = operand(env)
            if value is None:
                return None
            return not _as_bool(value)

        return invert
    op = expr.op

    def unknown(env: Environment) -> object:
        raise EvaluationError(f"unknown unary operator {op!r}")

    return unknown


def _boolean_valued(expr: Expression) -> bool:
    """True when the lowered closure can only return True/False/None.

    Lets AND/OR skip the per-row ``_maybe_bool`` type check for operands
    that are statically boolean (comparisons, logic, IS NULL, IN, boolean
    literals) — the overwhelmingly common shape of predicates.
    """
    if isinstance(expr, BinaryOp):
        return expr.op in _BOOLEAN_OPS
    if isinstance(expr, UnaryOp):
        return expr.op == "NOT"
    if isinstance(expr, (IsNull, InList)):
        return True
    if isinstance(expr, Literal):
        return expr.value is None or isinstance(expr.value, bool)
    return False


_BOOLEAN_OPS = frozenset(("=", "!=", "<", "<=", ">", ">=", "AND", "OR", "LIKE"))

_COMPARE_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_TOTAL_ARITHMETIC_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _lower_logic_operand(
    expr: Expression, registry: FunctionRegistry
) -> CompiledExpression:
    fn = _lower(expr, registry)
    if _boolean_valued(expr):
        return fn

    def checked(env: Environment) -> object:
        value = fn(env)
        if value is None or value is True or value is False:
            return value
        return _as_bool(value)  # raises the interpreter's type error

    return checked


def _lower_binary(expr: BinaryOp, registry: FunctionRegistry) -> CompiledExpression:
    op = expr.op
    if op in ("AND", "OR"):
        left = _lower_logic_operand(expr.left, registry)
        right = _lower_logic_operand(expr.right, registry)
        if op == "AND":

            def conjoin(env: Environment) -> object:
                a = left(env)
                if a is False:
                    return False
                b = right(env)
                if b is False:
                    return False
                if a is None or b is None:
                    return None
                return True

            return conjoin

        def disjoin(env: Environment) -> object:
            a = left(env)
            if a is True:
                return True
            b = right(env)
            if b is True:
                return True
            if a is None or b is None:
                return None
            return False

        return disjoin
    left = _lower(expr.left, registry)
    right = _lower(expr.right, registry)
    if op in ("+", "-", "*"):
        op_fn = _TOTAL_ARITHMETIC_OPS[op]

        def arith(env: Environment) -> object:
            a = left(env)
            b = right(env)
            if a is None or b is None:
                return None
            # Exact type checks exclude bool (a subclass of int), which
            # _arithmetic rejects; anything unusual takes the slow path.
            if (type(a) is int or type(a) is float) and (
                type(b) is int or type(b) is float
            ):
                return op_fn(a, b)
            return _arithmetic(op, a, b)

        return arith
    if op in ("/", "%"):

        def divide(env: Environment) -> object:
            a = left(env)
            b = right(env)
            if a is None or b is None:
                return None
            return _arithmetic(op, a, b)

        return divide
    if op in _COMPARE_OPS:
        op_fn = _COMPARE_OPS[op]

        def compare(env: Environment) -> object:
            a = left(env)
            b = right(env)
            if a is None or b is None:
                return None
            ta = type(a)
            tb = type(b)
            if ta is tb:
                # Same concrete type: numbers, strings, and booleans all
                # order natively; anything else takes the slow path.
                if ta is int or ta is float or ta is str or ta is bool:
                    return op_fn(a, b)
            elif (ta is int or ta is float) and (tb is int or tb is float):
                return op_fn(a, b)
            return _compare(op, a, b)

        return compare
    if op == "LIKE":

        def like(env: Environment) -> object:
            a = left(env)
            b = right(env)
            if a is None or b is None:
                return None
            return _like(str(a), str(b))

        return like

    def unknown(env: Environment) -> object:
        raise EvaluationError(f"unknown binary operator {op!r}")

    return unknown


def _lower_function_call(
    expr: FunctionCall, registry: FunctionRegistry
) -> CompiledExpression:
    name = expr.name
    arg_fns = tuple(_lower(arg, registry) for arg in expr.args)
    arg_count = len(arg_fns)
    # Resolve the implementation lazily, on first call *after* the arguments
    # evaluate — matching the interpreter, which raises unknown-function and
    # arity errors only when a row actually reaches the call.
    bound: list = [None]

    if arg_count == 1:
        arg0 = arg_fns[0]

        def invoke1(env: Environment) -> object:
            value = arg0(env)
            impl = bound[0]
            if impl is None:
                bound[0] = impl = registry.bind(name, 1)
            return impl(value)

        return invoke1

    if arg_count == 2:
        arg0, arg1 = arg_fns

        def invoke2(env: Environment) -> object:
            first = arg0(env)
            second = arg1(env)
            impl = bound[0]
            if impl is None:
                bound[0] = impl = registry.bind(name, 2)
            return impl(first, second)

        return invoke2

    def invoke(env: Environment) -> object:
        args = [fn(env) for fn in arg_fns]
        impl = bound[0]
        if impl is None:
            bound[0] = impl = registry.bind(name, arg_count)
        return impl(*args)

    return invoke


def _lower_in_list(expr: InList, registry: FunctionRegistry) -> CompiledExpression:
    operand = _lower(expr.operand, registry)
    item_fns = tuple(_lower(item, registry) for item in expr.items)
    negated = expr.negated

    def member(env: Environment) -> object:
        value = operand(env)
        if value is None:
            return None
        saw_null = False
        for item in item_fns:
            candidate = item(env)
            if candidate is None:
                saw_null = True
                continue
            if _compare("=", value, candidate) is True:
                return not negated
        if saw_null:
            return None
        return negated

    return member
