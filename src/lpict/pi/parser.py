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

Identifiers match `lexing.IDENTIFIER` except the keywords `new` and `tau`.
The pretty-printer emits exactly this grammar; parse/print round-trips are
stable in both directions.
"""

from __future__ import annotations

from ..errors import ParseError
from ..lexing import Cursor, token_pattern
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

class _Parser(Cursor):
    TOKENS = token_pattern(r"[0().<>+|!,]")
    KEYWORDS = frozenset({"new", "tau"})
    NOUN = "process term"

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", position=tok[2])
        return tok

    def parallel(self, depth: int) -> Process:
        comps = [self.psum(depth)]
        while self.peek()[0] == "|":
            self.next()
            comps.append(self.psum(depth))
        return Par(*comps) if len(comps) > 1 else comps[0]

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
    parser = _Parser(source)
    return parser.finish(parser.parallel(0))


def _pp_prefix(pi: Prefix) -> str:
    if isinstance(pi, Tau):
        return "tau"
    if isinstance(pi, Receive):
        return pi.channel if not pi.params else f"{pi.channel}({','.join(pi.params)})"
    return f"{pi.channel}<{','.join(pi.args)}>"


def _pp_term(p: Process) -> str:
    # Bodies of '.', '!' and 'new' sit at term level: parallels and
    # multi-branch sums must be parenthesized there.
    out = pretty_print(p)
    return f"({out})" if isinstance(p, Par) or (isinstance(p, Sum) and len(p.branches) > 1) else out


def pretty_print(p: Process) -> str:
    """The term's text. A compound term makes it once and stores it in its
    `__dict__`, so terms that share components print them once."""
    if isinstance(p, Nil):
        return "0"
    if not isinstance(p, (Sum, Par, Restrict, Bang)):
        raise TypeError(f"not a process term: {p!r}")
    text = p.__dict__.get("_text")
    if text is None:
        text = p.__dict__["_text"] = _make_text(p)
    return text


def _make_text(p: Process) -> str:
    if isinstance(p, Sum):
        return " + ".join(f"{_pp_prefix(pi)}.{_pp_term(cont)}" for pi, cont in p.branches)
    if isinstance(p, Par):
        return " | ".join(f"({pretty_print(c)})" if isinstance(c, Par) else pretty_print(c) for c in p.components)
    if isinstance(p, Restrict):
        return f"new {p.name} {_pp_term(p.body)}"
    return f"!{_pp_term(p.body)}"
