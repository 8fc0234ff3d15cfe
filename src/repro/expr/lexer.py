"""Tokenizer for the shared expression language."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import LexError


class TokenType(enum.Enum):
    NUMBER = "NUMBER"
    STRING = "STRING"
    IDENTIFIER = "IDENTIFIER"
    KEYWORD = "KEYWORD"
    OPERATOR = "OPERATOR"
    LPAREN = "LPAREN"
    RPAREN = "RPAREN"
    COMMA = "COMMA"
    DOT = "DOT"
    EOF = "EOF"


KEYWORDS = frozenset(
    {"AND", "OR", "NOT", "TRUE", "FALSE", "NULL", "IN", "IS", "LIKE", "BETWEEN"}
)

# Multi-character operators must be listed before their prefixes.
_OPERATORS = ("<=", ">=", "!=", "<>", "=", "<", ">", "+", "-", "*", "/", "%")


@dataclass(frozen=True)
class Token:
    """One lexical token with its source offset (for error messages)."""

    type: TokenType
    value: str
    position: int

    def __repr__(self) -> str:
        return f"Token({self.type.name}, {self.value!r}, @{self.position})"


def tokenize(source: str) -> list[Token]:
    """Split ``source`` into tokens, ending with an EOF token.

    Raises :class:`repro.errors.LexError` on characters outside the grammar
    and on unterminated string literals.
    """
    tokens: list[Token] = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "(":
            tokens.append(Token(TokenType.LPAREN, ch, i))
            i += 1
            continue
        if ch == ")":
            tokens.append(Token(TokenType.RPAREN, ch, i))
            i += 1
            continue
        if ch == ",":
            tokens.append(Token(TokenType.COMMA, ch, i))
            i += 1
            continue
        if ch.isdecimal() or (ch == "." and i + 1 < n and source[i + 1].isdecimal()):
            i = _lex_number(source, i, tokens)
            continue
        if ch == ".":
            tokens.append(Token(TokenType.DOT, ch, i))
            i += 1
            continue
        if ch in ("'", '"'):
            i = _lex_string(source, i, tokens)
            continue
        if ch.isalpha() or ch == "_":
            i = _lex_word(source, i, tokens)
            continue
        matched = False
        for op in _OPERATORS:
            if source.startswith(op, i):
                # Normalize the SQL-style "<>" inequality to "!=".
                value = "!=" if op == "<>" else op
                tokens.append(Token(TokenType.OPERATOR, value, i))
                i += len(op)
                matched = True
                break
        if not matched:
            raise LexError(f"unexpected character {ch!r}", i)
    tokens.append(Token(TokenType.EOF, "", n))
    return tokens


def _lex_number(source: str, start: int, tokens: list[Token]) -> int:
    # Digits are ``isdecimal`` characters, the ones ``int``/``float`` accept:
    # ``isdigit`` also admits superscripts such as ``²``, which they refuse.
    i = start
    n = len(source)
    seen_dot = False
    while i < n and (source[i].isdecimal() or (source[i] == "." and not seen_dot)):
        # A dot only belongs to the number when followed by a digit; otherwise
        # it is a path separator (e.g. ``Form1.Field`` never starts a float).
        if source[i] == ".":
            if i + 1 >= n or not source[i + 1].isdecimal():
                break
            seen_dot = True
        i += 1
    # Scientific notation: e/E, optional sign, at least one digit.
    if i < n and source[i] in "eE":
        j = i + 1
        if j < n and source[j] in "+-":
            j += 1
        if j < n and source[j].isdecimal():
            while j < n and source[j].isdecimal():
                j += 1
            i = j
    tokens.append(Token(TokenType.NUMBER, source[start:i], start))
    return i


def _lex_string(source: str, start: int, tokens: list[Token]) -> int:
    quote = source[start]
    i = start + 1
    n = len(source)
    parts: list[str] = []
    while i < n:
        ch = source[i]
        if ch == quote:
            # Doubled quote is an escaped quote character.
            if i + 1 < n and source[i + 1] == quote:
                parts.append(quote)
                i += 2
                continue
            tokens.append(Token(TokenType.STRING, "".join(parts), start))
            return i + 1
        parts.append(ch)
        i += 1
    raise LexError("unterminated string literal", start)


def _lex_word(source: str, start: int, tokens: list[Token]) -> int:
    i = start
    n = len(source)
    while i < n and (source[i].isalnum() or source[i] == "_"):
        i += 1
    word = source[start:i]
    if word.upper() in KEYWORDS:
        tokens.append(Token(TokenType.KEYWORD, word.upper(), start))
    else:
        tokens.append(Token(TokenType.IDENTIFIER, word, start))
    return i
