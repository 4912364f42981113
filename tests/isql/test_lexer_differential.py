"""The regex tokenizer against the hand-rolled scanner it replaced.

``_reference_tokenize`` is that scanner, kept here as the oracle: on
ASCII input (where its ``str.isdigit`` digits and the regex's ``[0-9]``
coincide) both must produce the same (kind, text, position) tokens, or
the same error at the same offset.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import ParseError
from repro.isql.lexer import KEYWORDS, tokenize

_REFERENCE_SYMBOLS = (
    "<=", ">=", "!=", "<>", "<-", "←",
    "(", ")", ",", ".", "*", "=", "<", ">", "+", "-", "/", ";",
)


def _reference_tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    index = 0
    length = len(source)
    while index < length:
        ch = source[index]
        if ch.isspace():
            index += 1
            continue
        if source.startswith("--", index):
            newline = source.find("\n", index)
            index = length if newline < 0 else newline + 1
            continue
        if ch == "'":
            end = source.find("'", index + 1)
            if end < 0:
                raise ParseError("unterminated string literal", index)
            tokens.append(("string", source[index + 1 : end], index))
            index = end + 1
            continue
        if ch.isdigit():
            start = index
            while index < length and (source[index].isdigit() or source[index] == "."):
                index += 1
            text = source[start:index]
            if text.endswith("."):
                text = text[:-1]
                index -= 1
            tokens.append(("number", text, start))
            continue
        if ch.isalpha() or ch == "_":
            start = index
            while index < length and (source[index].isalnum() or source[index] == "_"):
                index += 1
            word = source[start:index]
            kind = "keyword" if word.lower() in KEYWORDS else "ident"
            tokens.append((kind, word.lower() if kind == "keyword" else word, start))
            continue
        for symbol in _REFERENCE_SYMBOLS:
            if source.startswith(symbol, index):
                text = "<-" if symbol == "←" else ("!=" if symbol == "<>" else symbol)
                tokens.append(("symbol", text, index))
                index += len(symbol)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", index)
    tokens.append(("eof", "", length))
    return tokens


def _outcome(tokenizer, source: str):
    try:
        return [tuple(token) for token in tokenizer(source)]
    except ParseError as error:
        return ("error", error.message, error.position)


#: Fragments weighted towards token boundaries: digits and dots (numbers
#: against qualified names), quotes, dashes (comments against minus),
#: every symbol, keywords, and all of ASCII including control characters.
_FRAGMENTS = (
    list("0123456789") * 3
    + [".", "..", "'", "-", "--", "\n", " ", "\t", "\x0b", "\x1c", "_"] * 2
    + list(_REFERENCE_SYMBOLS[:-1])
    + sorted(KEYWORDS)
    + ["Arr", "dep", "R1", "x_2"]
    + [chr(code) for code in range(128)]
)


def _random_source(rng: random.Random) -> str:
    return "".join(rng.choice(_FRAGMENTS) for _ in range(rng.randint(0, 24)))


@pytest.mark.parametrize("block", range(4))
def test_random_ascii_sources_tokenize_identically(block):
    rng = random.Random(f"lexer-differential/{block}")
    for _ in range(5000):
        source = _random_source(rng)
        assert _outcome(tokenize, source) == _outcome(_reference_tokenize, source), source


@pytest.mark.parametrize(
    "source",
    [
        "",
        "select possible Dep from HFlights where Arr = 'FRA' choice of Dep;",
        "U ← select * from R -- trailing comment",
        "select A from R where A <> 1.5 and B >= -2;",
        "1.2.3 1.. 1...x R1.CID",
        "'unterminated",
        "select @",
        "x\x1c\x1fy",
    ],
)
def test_known_sources_tokenize_identically(source):
    assert _outcome(tokenize, source) == _outcome(_reference_tokenize, source)
