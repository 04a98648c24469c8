"""Propositional formulas: syntax, parsing, printing, evaluation.

Concrete grammar: atoms are identifiers, `false` is falsum, `!` negates,
`&` and `|` are conjunction/disjunction, `->` is right-associative
implication. Precedence: ! > & > | > ->.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from ..errors import LpictError, ParseError
from ..lexing import Cursor, token_pattern


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


# Words that read as formula constants, never as atoms.
KEYWORDS = frozenset({"false"})


class _FormulaParser(Cursor):
    TOKENS = token_pattern(r"->|[!&|()]")
    KEYWORDS = KEYWORDS
    NOUN = "formula"

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
        if kind == "ident":
            self.next()
            return Atom(value)
        raise ParseError(f"expected a formula, found {value or 'end of input'!r}", position=at)


def parse_formula(source: str) -> Formula:
    parser = _FormulaParser(source)
    return parser.finish(parser.implication(0))


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
    op = type(f)
    prec = _PREC[op]
    if op is Implies:
        # right-associative: left side needs the tighter context
        out = f"{_fmt(f.left, prec + 1)} -> {_fmt(f.right, prec)}"
    else:
        # a chain of one operator is left-deep: walk its left spine in a loop
        rights = []
        while type(f) is op:
            rights.append(f.right)
            f = f.left
        parts = [_fmt(f, prec)]
        parts += [_fmt(right, prec + 1) for right in reversed(rights)]
        out = (" & " if op is And else " | ").join(parts)
    return f"({out})" if prec < parent else out
