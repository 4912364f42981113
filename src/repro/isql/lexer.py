"""Tokenizer for I-SQL.

One compiled master regular expression scans the source left to right,
one alternative per token class (whitespace and ``--`` comments are
skipped); it produces a flat token list the recursive descent parser
consumes. Keywords are case-insensitive; identifiers keep their case.
Both ``!=`` and ``<>`` denote inequality, and ``<-`` is the
materializing assignment arrow (the paper writes ``←``, which is
accepted too).

Numbers are ASCII only: a number starts with ``[0-9]`` and runs over
``[0-9.]``, a trailing dot left to a qualified name. Any other digit
character (``²``, ``٣``) is an unexpected character, never a number.
Identifiers start with a letter or ``_`` and continue over letters,
digits and ``_`` (Unicode letters included, as ``str.isalpha``).
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.errors import ParseError

KEYWORDS = {
    "select",
    "possible",
    "certain",
    "from",
    "where",
    "group",
    "by",
    "choice",
    "of",
    "repair",
    "key",
    "worlds",
    "as",
    "and",
    "or",
    "not",
    "in",
    "exists",
    "create",
    "view",
    "insert",
    "into",
    "values",
    "delete",
    "update",
    "set",
    "sum",
    "count",
    "min",
    "max",
    "avg",
}

#: Spellings that lex to another symbol's text.
_SYMBOL_ALIASES = {"←": "<-", "<>": "!="}

#: One match per token: leading whitespace and comments, then exactly
#: one named group — or none at the end of the source.
_MASTER = re.compile(
    r"""
    \s*(?:--[^\n]*\s*)*
    (?:
        (?P<string>'[^']*')
        |(?P<number>[0-9]+(?:\.+[0-9]+)*(?:\.(?=\.))*)
        |(?P<ident>[^\W\d]\w*)
        |(?P<symbol><=|>=|!=|<>|<-|←|[(),.*=<>+\-/;])
        |(?P<error>.)
        |\Z
    )
    """,
    re.VERBOSE | re.DOTALL,
)


class Token(NamedTuple):
    """One lexical token: a kind, its text, and its source offset."""

    kind: str  # "keyword" | "ident" | "number" | "string" | "symbol" | "eof"
    text: str
    position: int


def tokenize(source: str) -> list[Token]:
    """Tokenize *source*, raising :class:`ParseError` on bad input."""
    tokens: list[Token] = []
    append = tokens.append
    for match in _MASTER.finditer(source):
        kind = match.lastgroup
        if kind is None:
            break
        start, end = match.span(kind)
        text = source[start:end]
        if kind == "ident":
            lowered = text.lower()
            if lowered in KEYWORDS:
                kind, text = "keyword", lowered
            elif not (text[0].isalpha() or text[0] == "_"):
                # A non-decimal digit such as '²' is a word character.
                raise ParseError(f"unexpected character {text[0]!r}", start)
        elif kind == "string":
            text = text[1:-1]
        elif kind == "symbol":
            text = _SYMBOL_ALIASES.get(text, text)
        elif kind == "error":
            if text == "'":
                raise ParseError("unterminated string literal", start)
            raise ParseError(f"unexpected character {text!r}", start)
        append(Token(kind, text, start))
    append(Token("eof", "", len(source)))
    return tokens
