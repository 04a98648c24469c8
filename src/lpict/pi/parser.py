"""Concrete syntax for process terms.

Grammar (ASCII):

    process  := parallel
    parallel := sum ('|' sum)*          lowest precedence
    sum      := term ('+' term)*        '+' binds tighter than '|'
    term     := '!' term
              | 'new' IDENT term
              | prefix '.' term
              | '0'
              | '(' process ')'
    prefix   := 'tau'
              | IDENT                    nullary receive
              | IDENT '(' IDENT,... ')'  receive
              | IDENT '<' IDENT,... '>'  send ('x<>' is a nullary send)

Identifiers are [A-Za-z_][A-Za-z0-9_]* except the keywords `new` and `tau`.
The pretty-printer emits exactly this grammar; parse/print round-trips are
stable in both directions.
"""

from __future__ import annotations

import re

from ..errors import ParseError
from .terms import (
    NIL,
    Bang,
    Nil,
    Par,
    Prefix,
    Process,
    Receive,
    Restrict,
    Send,
    Sum,
    Tau,
)

_KEYWORDS = {"new", "tau"}

# Deepest nesting of `!`, `new`, prefixes and parentheses that parse_process
# accepts. The parser and the functions that walk a term recurse once per
# level or more, so the limit keeps them well inside Python's recursion limit.
MAX_NESTING = 100
_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|([0().<>+|!,]))")


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.end() == pos:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            at = len(source) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", position=at)
        if m.group(1):
            word = m.group(1)
            kind = word if word in _KEYWORDS else "ident"
            tokens.append((kind, word, m.start(1)))
        else:
            tokens.append((m.group(2), m.group(2), m.start(2)))
        pos = m.end()
    tokens.append(("eof", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", position=tok[2])
        return tok

    def deeper(self, depth: int, at: int) -> int:
        if depth >= MAX_NESTING:
            raise ParseError(f"process term nested more than {MAX_NESTING} deep", position=at)
        return depth + 1

    def parse(self) -> Process:
        p = self.parallel(0)
        tok = self.peek()
        if tok[0] != "eof":
            raise ParseError(f"trailing input starting at {tok[1]!r}", position=tok[2])
        return p

    def parallel(self, depth: int) -> Process:
        p = self.psum(depth)
        while self.peek()[0] == "|":
            self.next()
            p = Par(p, self.psum(depth))
        return p

    def psum(self, depth: int) -> Process:
        first = self.term(depth)
        if self.peek()[0] != "+":
            return first
        branches = list(self._branches_of(first))
        while self.peek()[0] == "+":
            _, _, at = self.next()
            branches.extend(self._branches_of(self.term(depth), at))
        return Sum(tuple(branches))

    def _branches_of(self, p: Process, at: int | None = None):
        if isinstance(p, Sum):
            return p.branches
        raise ParseError("sum branches must be prefixed terms", position=at)

    def term(self, depth: int) -> Process:
        kind, value, at = self.peek()
        if kind == "!":
            self.next()
            return Bang(self.term(self.deeper(depth, at)))
        if kind == "new":
            self.next()
            name = self.expect("ident")[1]
            return Restrict(name, self.term(self.deeper(depth, at)))
        if kind == "0":
            self.next()
            return NIL
        if kind == "(":
            self.next()
            p = self.parallel(self.deeper(depth, at))
            self.expect(")")
            return p
        if kind in ("ident", "tau"):
            prefix = self.prefix()
            self.expect(".")
            return Sum(((prefix, self.term(self.deeper(depth, at))),))
        raise ParseError(f"expected a process term, found {value or 'end of input'!r}", position=at)

    def prefix(self) -> Prefix:
        kind, value, at = self.next()
        if kind == "tau":
            return Tau()
        channel = value
        nxt = self.peek()
        if nxt[0] == "(":
            self.next()
            if self.peek()[0] == ")":
                raise ParseError(
                    "empty parameter list; write the bare channel for a nullary receive",
                    position=self.peek()[2],
                )
            params = self.name_list()
            self.expect(")")
            if len(set(params)) != len(params):
                raise ParseError(f"duplicate binder in receive prefix on {channel!r}", position=at)
            return Receive(channel, params)
        if nxt[0] == "<":
            self.next()
            args: tuple[str, ...] = ()
            if self.peek()[0] != ">":
                args = self.name_list()
            self.expect(">")
            return Send(channel, args)
        return Receive(channel, ())

    def name_list(self) -> tuple[str, ...]:
        names = [self.expect("ident")[1]]
        while self.peek()[0] == ",":
            self.next()
            names.append(self.expect("ident")[1])
        return tuple(names)


def parse_process(source: str) -> Process:
    """Parse a process term; raises ParseError with a position on bad input."""
    return _Parser(source).parse()


def _pp_prefix(pi: Prefix) -> str:
    if isinstance(pi, Tau):
        return "tau"
    if isinstance(pi, Receive):
        return pi.channel if not pi.params else f"{pi.channel}({','.join(pi.params)})"
    return f"{pi.channel}<{','.join(pi.args)}>"


def _needs_parens_as_body(p: Process) -> bool:
    # Bodies of '.', '!' and 'new' sit at term level: parallels and
    # multi-branch sums must be parenthesized there.
    return isinstance(p, Par) or (isinstance(p, Sum) and len(p.branches) > 1)


def _pp_term(p: Process) -> str:
    out = pretty_print(p)
    return f"({out})" if _needs_parens_as_body(p) else out


def pretty_print(p: Process) -> str:
    if isinstance(p, Nil):
        return "0"
    if isinstance(p, Sum):
        return " + ".join(f"{_pp_prefix(pi)}.{_pp_term(cont)}" for pi, cont in p.branches)
    if isinstance(p, Par):
        left = pretty_print(p.left)
        right = pretty_print(p.right)
        if isinstance(p.right, Par):  # keep right-nested grouping explicit
            right = f"({right})"
        return f"{left} | {right}"
    if isinstance(p, Restrict):
        return f"new {p.name} {_pp_term(p.body)}"
    if isinstance(p, Bang):
        return f"!{_pp_term(p.body)}"
    raise TypeError(f"not a process term: {p!r}")
