"""Propositional formulas: syntax, parsing, printing, evaluation.

Concrete grammar: atoms are identifiers, `false` is falsum, `!` negates,
`&` and `|` are conjunction/disjunction, `->` is right-associative
implication. Precedence: ! > & > | > ->.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Union

from ..errors import LpictError, ParseError


@dataclass(frozen=True, slots=True)
class Atom:
    name: str


@dataclass(frozen=True, slots=True)
class Not:
    operand: "Formula"


@dataclass(frozen=True, slots=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Falsum:
    pass


Formula = Union[Atom, Not, And, Or, Implies, Falsum]

FALSUM = Falsum()

_AND_OR = frozenset({And, Or})

Valuation = Mapping[str, bool]


class MissingAtomError(LpictError):
    """The valuation does not cover an atom of the formula."""


def atoms(f: Formula) -> frozenset[str]:
    names = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            names.add(node.name)
        elif isinstance(node, Not):
            stack.append(node.operand)
        elif not isinstance(node, Falsum):
            stack += (node.left, node.right)
    return frozenset(names)


def eval_formula(f: Formula, valuation: Valuation) -> bool:
    """Classical truth-table semantics; falsum is false everywhere. The left
    spine of a chain of & and | is walked in a loop, not by recursion."""
    if isinstance(f, Atom):
        try:
            return bool(valuation[f.name])
        except KeyError:
            raise MissingAtomError(f"valuation does not assign atom {f.name!r}") from None
    if type(f) in _AND_OR:
        spine = []
        while type(f) in _AND_OR:
            spine.append(f)
            f = f.left
        value = eval_formula(f, valuation)
        while spine:
            node = spine.pop()
            if value == (type(node) is And):  # the right operand decides
                value = eval_formula(node.right, valuation)
        return value
    if isinstance(f, Falsum):
        return False
    if isinstance(f, Not):
        return not eval_formula(f.operand, valuation)
    if isinstance(f, Implies):
        return (not eval_formula(f.left, valuation)) or eval_formula(f.right, valuation)
    raise TypeError(f"not a formula: {f!r}")


_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|(->)|([!&|()]))")


def _tokenize(source: str):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.end() == pos:
            rest = source[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r}", position=len(source) - len(rest))
        if m.group(1):
            kind = "false" if m.group(1) == "false" else "atom"
            tokens.append((kind, m.group(1), m.start(1)))
        elif m.group(2):
            tokens.append(("->", "->", m.start(2)))
        else:
            tokens.append((m.group(3), m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("eof", "", len(source)))
    return tokens


# Deepest nesting of `!`, parentheses and `->` that parse_formula accepts.
# The parser and the functions that walk a formula recurse once per level,
# so the limit keeps them well inside Python's recursion limit.
MAX_NESTING = 100


class _FormulaParser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> Formula:
        f = self.implication(0)
        kind, value, at = self.peek()
        if kind != "eof":
            raise ParseError(f"trailing input starting at {value!r}", position=at)
        return f

    def deeper(self, depth: int, at: int) -> int:
        if depth >= MAX_NESTING:
            raise ParseError(f"formula nested more than {MAX_NESTING} deep", position=at)
        return depth + 1

    def implication(self, depth: int) -> Formula:
        left = self.disjunction(depth)
        if self.peek()[0] == "->":
            _, _, at = self.next()
            return Implies(left, self.implication(self.deeper(depth, at)))
        return left

    def disjunction(self, depth: int) -> Formula:
        f = self.conjunction(depth)
        while self.peek()[0] == "|":
            self.next()
            f = Or(f, self.conjunction(depth))
        return f

    def conjunction(self, depth: int) -> Formula:
        f = self.unary(depth)
        while self.peek()[0] == "&":
            self.next()
            f = And(f, self.unary(depth))
        return f

    def unary(self, depth: int) -> Formula:
        kind, value, at = self.peek()
        if kind == "!":
            self.next()
            return Not(self.unary(self.deeper(depth, at)))
        if kind == "(":
            self.next()
            f = self.implication(self.deeper(depth, at))
            tok = self.next()
            if tok[0] != ")":
                raise ParseError("expected ')'", position=tok[2])
            return f
        if kind == "false":
            self.next()
            return FALSUM
        if kind == "atom":
            self.next()
            return Atom(value)
        raise ParseError(f"expected a formula, found {value or 'end of input'!r}", position=at)


def parse_formula(source: str) -> Formula:
    return _FormulaParser(source).parse()


_PREC = {Implies: 1, Or: 2, And: 3, Not: 4}


def format_formula(f: Formula) -> str:
    return _fmt(f, 0)


def _fmt(f: Formula, parent: int) -> str:
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Falsum):
        return "false"
    if isinstance(f, Not):
        return f"!{_fmt(f.operand, _PREC[Not])}"
    prec = _PREC[type(f)]
    if isinstance(f, Implies):
        # right-associative: left side needs the tighter context
        out = f"{_fmt(f.left, prec + 1)} -> {_fmt(f.right, prec)}"
    elif isinstance(f, Or):
        out = f"{_fmt(f.left, prec)} | {_fmt(f.right, prec + 1)}"
    else:
        out = f"{_fmt(f.left, prec)} & {_fmt(f.right, prec + 1)}"
    return f"({out})" if prec < parent else out
