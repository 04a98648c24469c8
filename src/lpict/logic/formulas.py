"""Propositional formulas: syntax, parsing, printing, evaluation.

Concrete grammar: atoms are identifiers, `false` is falsum, `!` negates,
`&` and `|` are conjunction/disjunction, `->` is right-associative
implication. Precedence: ! > & > | > ->.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from operator import attrgetter
from typing import Mapping

from ..errors import LpictError, ParseError
from ..lexing import Cursor, token_pattern


def _refuse(self, name, value=None):
    raise FrozenInstanceError(f"cannot change field {name!r}")


def frozen_record(cls):
    """A dataclass, for `fields` and `replace`, refusing every assignment and
    delete with FrozenInstanceError. Its fields are slots, set through their
    descriptors. One `exec` (file `<Class>`, which profiles show) makes each
    `__init__`, `__eq__`, `__hash__` it neither defines nor inherits, in a
    frozen dataclass's shape."""
    cls.__doc__ = cls.__doc__ or cls.__name__  # else dataclass calls inspect.signature
    cls = dataclass(init=False, repr=False, eq=False, slots=True)(cls)
    names = cls.__match_args__
    namespace = {f"_set_{name}": getattr(cls, name).__set__ for name in names}
    body = [f"_set_{name}(self, {name})" for name in names]
    if hasattr(cls, "__post_init__"):
        namespace["_post_init"] = cls.__post_init__
        body.append("_post_init(self)")
    mine, theirs = "".join(f"self.{name}," for name in names), "".join(f"other.{name}," for name in names)
    exec(compile(f"def __init__(self, {', '.join(names)}):\n {'; '.join(body) or 'pass'}\ndef __eq__(self, other):\n"
                 f" if other.__class__ is self.__class__:\n  return ({mine})==({theirs})\n return NotImplemented\n"
                 f"def __hash__(self):\n return hash(({mine}))", f"<{cls.__qualname__}>", "exec"), namespace)
    namespace["__init__"].__defaults__ = tuple(f.default for f in fields(cls) if f.default is not MISSING)
    namespace.update(__setattr__=_refuse, __delattr__=_refuse, __repr__=_Node.__repr__, __reduce__=_Node.__reduce__)
    for name in ("__init__", "__eq__", "__hash__", "__setattr__", "__delattr__", "__repr__", "__reduce__"):
        if getattr(cls, name) is getattr(object, name):
            setattr(cls, name, namespace[name])
    return cls


class Cached:
    """The base of a record that keeps what it computes once in a `__dict__`
    beside its slots: its hash, stored on first use, a π term's text and names,
    a judgment's proof text, and any cached property. A pickle holds only the
    fields, as string hashes vary by process; `replace` starts a new record."""

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash(tuple(getattr(self, name) for name in self.__match_args__))
        return h


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

Formula = Atom | Not | And | Or | Implies | Falsum

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
    """The formula's text, made once and stored on the node asked for. The
    left spine of a chain of & and | is walked in a loop, not by recursion."""
    text = f._text
    if text is not None:
        return text
    op = type(f)
    prec = _PREC[op]
    if op is Not:  # most operands are atoms, which need no parentheses and no call
        operand = f.operand
        text = "!" + (operand.name if type(operand) is Atom else _fmt(operand, prec))
    elif op is Implies:  # right-associative: the left side needs the tighter context
        left, right = f.left, f.right
        text = (f"{left.name if type(left) is Atom else _fmt(left, prec + 1)} -> "
                f"{right.name if type(right) is Atom else _fmt(right, prec)}")
    else:
        # down the left spine of & and | nodes without a text, then up: an |
        # below an & closes a parenthesis that opens at the very start
        spine, node = [], f
        while type(node) in _AND_OR and node._text is None:
            spine.append(node)
            node = node.left
        parts, opens, below = [_fmt(node, _PREC[type(spine[-1])])], 0, None
        for above in reversed(spine):
            if type(above) is And and type(below) is Or:
                parts.append(")")
                opens += 1
            parts.append((" & " if type(above) is And else " | ") + _fmt(above.right, _PREC[type(above)] + 1))
            below = above
        text = "(" * opens + "".join(parts)
    _set_text(f, text)
    return text


def _fmt(f: Formula, parent: int) -> str:
    if type(f) is Atom:  # most operands: an atom needs no parentheses
        return f.name
    text = f._text or format_formula(f)
    return f"({text})" if _PREC[type(f)] < parent else text


def nesting(f: Formula) -> int:
    """How deep the parser nests in the text of `f`: one level per `!`, per
    right side of `->` and per parenthesis that `format_formula` writes."""
    deepest, stack = 0, [(f, 0)]
    while stack:
        node, depth = stack.pop()
        deepest, op = max(deepest, depth), type(node)
        if op is Not:
            stack.append((node.operand, depth + 1 + (_PREC[type(node.operand)] < _PREC[Not])))
        elif op is not Atom and op is not Falsum:  # the precedence each side is printed at, as in format_formula
            left, right = (_PREC[op] + 1, _PREC[op]) if op is Implies else (_PREC[op], _PREC[op] + 1)
            stack.append((node.left, depth + (_PREC[type(node.left)] < left)))
            stack.append((node.right, depth + (op is Implies) + (_PREC[type(node.right)] < right)))
    return deepest
