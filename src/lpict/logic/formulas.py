"""Propositional formulas: syntax, parsing, printing, evaluation.

Concrete grammar: atoms are identifiers, `false` is falsum, `!` negates,
`&` and `|` are conjunction/disjunction, `->` is right-associative
implication. Precedence: ! > & > | > ->.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from operator import attrgetter
from typing import Mapping, Union

from ..errors import LpictError, ParseError
from ..lexing import Cursor, token_pattern


def _refuse(self, name, value=None):
    raise FrozenInstanceError(f"cannot change field {name!r}")


def frozen_record(cls):
    """`dataclass(frozen=True, slots=True)` that refuses every assignment and
    delete with FrozenInstanceError; the generated `__setattr__` names the
    class that `slots=True` replaces, and raises TypeError for a non-field. Its
    `__init__` sets each slot through its descriptor, as formula nodes do, and
    then calls `__post_init__`; the dataclass one pays `object.__setattr__`."""
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    cls.__setattr__ = cls.__delattr__ = _refuse
    names = [f.name for f in fields(cls)]
    namespace = {f"_set_{name}": getattr(cls, name).__set__ for name in names}
    body = [f"_set_{name}(self, {name})" for name in names]
    if hasattr(cls, "__post_init__"):
        namespace["_post_init"] = cls.__post_init__
        body.append("_post_init(self)")
    exec(f"def __init__(self, {', '.join(names)}):\n " + "\n ".join(body), namespace)
    cls.__init__ = namespace["__init__"]
    cls.__init__.__defaults__ = tuple(f.default for f in fields(cls) if f.default is not MISSING)
    return cls


class _Node:
    """A formula node stores its hash, computed once at construction from its
    children's stored hashes, and `format_formula` stores its text on first
    use. So neither `hash` nor `==` recurses. Nodes are immutable: their
    constructors set their slots through the slot descriptors."""

    __slots__ = ("_hash", "_text")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        # type and hash first; only then both trees, walked with a stack
        if not isinstance(other, _Node):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is not b:
                if type(a) is not type(b) or a._hash != b._hash or type(a) is Atom and a.name != b.name:
                    return False
                if type(a) is not Atom:
                    stack += [(getattr(a, name), getattr(b, name)) for name in a.__match_args__]
        return True

    __setattr__ = __delattr__ = _refuse

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


class Atom(_Node):
    __slots__ = __match_args__ = ("name",)
    _text = property(attrgetter("name"))  # an atom prints as its name

    def __init__(self, name: str):
        _set_name(self, name)
        _set_hash(self, hash(name))


class Not(_Node):
    __slots__ = __match_args__ = ("operand",)

    def __init__(self, operand: Formula):
        _set_operand(self, operand)
        _set_hash(self, hash((Not, operand._hash)))
        _set_text(self, None)


class _Binary(_Node):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        _set_left(self, left)
        _set_right(self, right)
        _set_hash(self, hash((type(self), left._hash, right._hash)))
        _set_text(self, None)


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Falsum(_Node):
    __slots__ = __match_args__ = ()
    _hash, _text = hash("false"), "false"  # constants, read in place of the slots


_set_hash, _set_text = _Node._hash.__set__, _Node._text.__set__
_set_name, _set_operand = Atom.name.__set__, Not.operand.__set__
_set_left, _set_right = _Binary.left.__set__, _Binary.right.__set__

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


_PREC = {Implies: 1, Or: 2, And: 3, Not: 4, Atom: 5, Falsum: 5}


def format_formula(f: Formula) -> str:
    """The formula's text, made once per node and stored on it."""
    text = f._text
    if text is None:
        text = _make_text(f)
        _set_text(f, text)
    return text


def _fmt(f: Formula, parent: int) -> str:
    text = format_formula(f)
    return f"({text})" if _PREC[type(f)] < parent else text


def _make_text(f: Formula) -> str:
    op = type(f)
    prec = _PREC[op]
    if op is Not:
        return f"!{_fmt(f.operand, prec)}"
    if op is Implies:
        # right-associative: left side needs the tighter context
        return f"{_fmt(f.left, prec + 1)} -> {_fmt(f.right, prec)}"
    # a chain of one operator is left-deep: walk its left spine in a loop
    rights = []
    while type(f) is op:
        rights.append(f.right)
        f = f.left
    parts = [_fmt(f, prec)]
    parts += [_fmt(right, prec + 1) for right in reversed(rights)]
    return (" & " if op is And else " | ").join(parts)
