"""The token cursor that the formula and process-term parsers share.

A parser subclasses `Cursor` and sets `TOKENS`, made by `token_pattern` from
its symbols, `KEYWORDS` and `NOUN`, the name of what it parses. A token is
`(kind, text, offset)`: an identifier's kind is the identifier if it is a
keyword and `"ident"` otherwise, a symbol's kind is its text, and the last
token is `("eof", "", len(source))`.
"""

from __future__ import annotations

import re

from .errors import ParseError

# Deepest nesting that the parsers accept. They and the functions that walk
# what they build recurse once per level or more, so the limit keeps them well
# inside Python's recursion limit.
MAX_NESTING = 100

# The names of formulas, process terms and model files.
IDENTIFIER = re.compile("[A-Za-z_][A-Za-z0-9_]*")


def token_pattern(symbols: str) -> re.Pattern:
    """Identifiers, `symbols`, and any other character that is not space,
    which is unexpected."""
    return re.compile(rf"\s*(?:({IDENTIFIER.pattern})|({symbols})|(\S))")


class Cursor:
    TOKENS: re.Pattern
    KEYWORDS: frozenset[str]
    NOUN: str

    def __init__(self, source: str):
        self.tokens = tokens = []
        self.i = 0
        for m in self.TOKENS.finditer(source):
            word, symbol, other = m.groups()
            if word:
                tokens.append((word if word in self.KEYWORDS else "ident", word, m.start(1)))
            elif symbol:
                tokens.append((symbol, symbol, m.start(2)))
            else:
                raise ParseError(f"unexpected character {other!r}", position=m.start(3))
        tokens.append(("eof", "", len(source)))

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def deeper(self, depth: int, at: int) -> int:
        if depth >= MAX_NESTING:
            raise ParseError(f"{self.NOUN} nested more than {MAX_NESTING} deep", position=at)
        return depth + 1

    def finish(self, value):
        """`value`, once every token is read; trailing input is an error."""
        kind, text, at = self.peek()
        if kind != "eof":
            raise ParseError(f"trailing input starting at {text!r}", position=at)
        return value
