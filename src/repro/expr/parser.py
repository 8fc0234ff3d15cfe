"""Recursive-descent parser for the shared expression language.

Grammar (precedence low to high)::

    expression := or_expr
    or_expr    := and_expr (OR and_expr)*
    and_expr   := not_expr (AND not_expr)*
    not_expr   := NOT not_expr | comparison
    comparison := additive (comp_op additive
                            | [NOT] IN '(' expr (',' expr)* ')'
                            | IS [NOT] NULL
                            | [NOT] BETWEEN additive AND additive
                            | [NOT] LIKE additive)?
    additive   := multiplicative (('+'|'-') multiplicative)*
    multiplicative := unary (('*'|'/'|'%') unary)*
    unary      := '-' unary | primary
    primary    := NUMBER | STRING | TRUE | FALSE | NULL
                | identifier ['(' args ')']     -- function call
                | '(' expression ')'
    identifier := IDENT ('.' IDENT)*

``BETWEEN a AND b`` desugars to ``(x >= a AND x <= b)``; ``NOT LIKE`` and
``NOT BETWEEN`` desugar through :class:`~repro.expr.ast.UnaryOp`.
"""

from __future__ import annotations

from repro.errors import ParseError
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

_COMPARISON_OPS = frozenset({"=", "!=", "<", "<=", ">", ">="})

#: The deepest AST :func:`parse` returns.  Nesting (parentheses, ``NOT``,
#: unary minus, calls) recurses in the parser and is bounded by the
#: interpreter's recursion limit; a flat ``AND``/``OR`` chain or arithmetic
#: run parses in a loop but nests one AST level per term, and every
#: consumer (``to_source``, the closure compiler, the evaluator, hashing)
#: recurses per level.  ``to_source`` parenthesizes every level, and one
#: parenthesis costs the parser about eight frames, so at this depth an
#: accepted expression's source still parses back with half the default
#: recursion limit left to the caller.
MAX_DEPTH = 64


def parse(source: str) -> Expression:
    """Parse ``source`` into an expression AST.

    Raises :class:`repro.errors.ParseError` (or ``LexError``) on malformed
    input, on input nested deeper than the interpreter's recursion limit
    allows or whose AST would be deeper than :data:`MAX_DEPTH`, and on
    input that is not a ``str``.  The result round-trips:
    ``parse(e.to_source()) == e``.  Each call parses afresh: definitions
    parse their texts once when they are built, not per record.
    """
    if not isinstance(source, str):
        raise ParseError(
            f"expression source must be a str, not {type(source).__name__}"
        )
    try:
        expr = _Parser(tokenize(source)).parse()
    except RecursionError:
        # Each nesting level (parentheses, NOT, unary minus, call or IN
        # arguments) is a few frames of recursive descent.
        raise ParseError("expression nests too deeply") from None
    if _depth(expr) > MAX_DEPTH:
        raise ParseError("expression nests too deeply")
    return expr


def _depth(expr: Expression) -> int:
    """The AST's depth, walked without recursion."""
    deepest = 0
    stack = [(expr, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((child, depth + 1) for child in node.children())
    return deepest


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- token helpers ------------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._current
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _expect(self, token_type: TokenType, value: str | None = None) -> Token:
        token = self._current
        if token.type is not token_type or (value is not None and token.value != value):
            wanted = value or token_type.name
            raise ParseError(
                f"expected {wanted}, found {token.value!r}", token.position
            )
        return self._advance()

    def _match_keyword(self, *keywords: str) -> Token | None:
        token = self._current
        if token.type is TokenType.KEYWORD and token.value in keywords:
            return self._advance()
        return None

    def _match_operator(self, *ops: str) -> Token | None:
        token = self._current
        if token.type is TokenType.OPERATOR and token.value in ops:
            return self._advance()
        return None

    # -- grammar ------------------------------------------------------------

    def parse(self) -> Expression:
        expr = self._or_expr()
        token = self._current
        if token.type is not TokenType.EOF:
            raise ParseError(f"unexpected trailing input {token.value!r}", token.position)
        return expr

    def _or_expr(self) -> Expression:
        left = self._and_expr()
        while self._match_keyword("OR"):
            left = BinaryOp("OR", left, self._and_expr())
        return left

    def _and_expr(self) -> Expression:
        left = self._not_expr()
        while self._match_keyword("AND"):
            left = BinaryOp("AND", left, self._not_expr())
        return left

    def _not_expr(self) -> Expression:
        if self._match_keyword("NOT"):
            return UnaryOp("NOT", self._not_expr())
        return self._comparison()

    def _comparison(self) -> Expression:
        left = self._additive()
        token = self._current
        if token.type is TokenType.OPERATOR and token.value in _COMPARISON_OPS:
            self._advance()
            return BinaryOp(token.value, left, self._additive())
        if token.type is TokenType.KEYWORD:
            if token.value == "IN":
                self._advance()
                return self._in_list(left, negated=False)
            if token.value == "IS":
                self._advance()
                negated = self._match_keyword("NOT") is not None
                self._expect(TokenType.KEYWORD, "NULL")
                return IsNull(left, negated=negated)
            if token.value == "LIKE":
                self._advance()
                return BinaryOp("LIKE", left, self._additive())
            if token.value == "BETWEEN":
                self._advance()
                return self._between(left, negated=False)
            if token.value == "NOT":
                # "x NOT IN (...)", "x NOT LIKE y", "x NOT BETWEEN a AND b"
                self._advance()
                if self._match_keyword("IN"):
                    return self._in_list(left, negated=True)
                if self._match_keyword("LIKE"):
                    return UnaryOp("NOT", BinaryOp("LIKE", left, self._additive()))
                if self._match_keyword("BETWEEN"):
                    return self._between(left, negated=True)
                raise ParseError(
                    "expected IN, LIKE, or BETWEEN after NOT", self._current.position
                )
        return left

    def _in_list(self, operand: Expression, negated: bool) -> Expression:
        self._expect(TokenType.LPAREN)
        items = [self._or_expr()]
        while self._current.type is TokenType.COMMA:
            self._advance()
            items.append(self._or_expr())
        self._expect(TokenType.RPAREN)
        return InList(operand, tuple(items), negated=negated)

    def _between(self, operand: Expression, negated: bool) -> Expression:
        low = self._additive()
        self._expect(TokenType.KEYWORD, "AND")
        high = self._additive()
        test = BinaryOp("AND", BinaryOp(">=", operand, low), BinaryOp("<=", operand, high))
        return UnaryOp("NOT", test) if negated else test

    def _additive(self) -> Expression:
        left = self._multiplicative()
        while True:
            token = self._match_operator("+", "-")
            if token is None:
                return left
            left = BinaryOp(token.value, left, self._multiplicative())

    def _multiplicative(self) -> Expression:
        left = self._unary()
        while True:
            token = self._match_operator("*", "/", "%")
            if token is None:
                return left
            left = BinaryOp(token.value, left, self._unary())

    def _unary(self) -> Expression:
        if self._match_operator("-"):
            operand = self._unary()
            # Fold "-<number>" into a negative literal so ASTs round-trip:
            # Literal(-1).to_source() == "-1" must reparse to Literal(-1).
            if isinstance(operand, Literal) and isinstance(operand.value, (int, float)):
                if not isinstance(operand.value, bool):
                    return Literal(-operand.value)
            return UnaryOp("-", operand)
        return self._primary()

    def _primary(self) -> Expression:
        token = self._current
        if token.type is TokenType.NUMBER:
            self._advance()
            text = token.value
            is_float = "." in text or "e" in text or "E" in text
            value: object = float(text) if is_float else int(text)
            return Literal(value)
        if token.type is TokenType.STRING:
            self._advance()
            return Literal(token.value)
        if token.type is TokenType.KEYWORD:
            if token.value == "TRUE":
                self._advance()
                return Literal(True)
            if token.value == "FALSE":
                self._advance()
                return Literal(False)
            if token.value == "NULL":
                self._advance()
                return Literal(None)
            raise ParseError(f"unexpected keyword {token.value}", token.position)
        if token.type is TokenType.LPAREN:
            self._advance()
            expr = self._or_expr()
            self._expect(TokenType.RPAREN)
            return expr
        if token.type is TokenType.IDENTIFIER:
            return self._identifier_or_call()
        raise ParseError(f"unexpected token {token.value!r}", token.position)

    def _identifier_or_call(self) -> Expression:
        first = self._expect(TokenType.IDENTIFIER)
        path = [first.value]
        while self._current.type is TokenType.DOT:
            self._advance()
            path.append(self._expect(TokenType.IDENTIFIER).value)
        if self._current.type is TokenType.LPAREN and len(path) == 1:
            self._advance()
            args: list[Expression] = []
            if self._current.type is not TokenType.RPAREN:
                args.append(self._or_expr())
                while self._current.type is TokenType.COMMA:
                    self._advance()
                    args.append(self._or_expr())
            self._expect(TokenType.RPAREN)
            return FunctionCall(first.value.upper(), tuple(args))
        return Identifier(tuple(path))
