"""Line-oriented model file format.

    protocol "TLS1.3"
    state S1 {
      event ClientHello resists mitm replay payload ClientHello Key_share
      event Key_share resists mitm replay payload ClientHello Key_share
      combine and                      # n-1 operators, left-deep
    }
    alias S3 = S1                      # same events and tree, new id
    transition S1 -> S3 action msg1    # optional: when <guard formula>
    initial S1
    terminal S3
    environment ideal
    environment nonideal attackers mitm replay

Comments run from `#` to end of line. Unknown keywords are errors. A state
with one event may omit `combine`; `combine expr <formula>` gives the event
tree explicitly (atoms and negated atoms joined with & and |), which is how
a tautology check such as `ApplicationData | !ApplicationData` is written.
The default transition guard is the source-state atom; the default action is
`source->target`.
"""

from __future__ import annotations

import functools
import re
from itertools import count
from operator import itemgetter

from ..errors import ModelValidationError, ParseError, ValidationError
from ..guarded import (
    Event,
    EventMessage,
    Guard,
    GuardedTransition,
    ResistTag,
    StateNode,
    build_guarded_lts,
    check_name,
)
from ..logic.formulas import Atom, Formula, format_formula, parse_formula
from ..trees import build_event_tree, combine_operators, event_leaves
from .core import IDEAL, NONIDEAL, EnvironmentConfig, ProtocolModel, capabilities

_PROTOCOL_RE = re.compile(r'\s*protocol\s+"([^"]+)"\s*$')
_RESIST_VALUES = {tag.value: tag for tag in ResistTag}


def _tail(text: str, n: int) -> str:
    """The text after its first n words, stripped; empty when there is none."""
    parts = text.split(None, n)
    return parts[n].strip() if len(parts) > n else ""


class _ModelReader:
    def __init__(self, source: str):
        self.source = source
        self.lineno = 0
        self.protocol: str | None = None
        self.by_id: dict[str, StateNode] = {}
        self.transitions: list[GuardedTransition] = []
        self.transition_lines: list[int] = []
        self.initial: str | None = None
        self.terminal: str | None = None
        self.environments: list[EnvironmentConfig] = []
        # the words after an event's name -> its tags and payload, shared by its events
        self.event_shapes: dict[tuple[str, ...], tuple[frozenset[ResistTag], EventMessage | None]] = {}
        # Only "\n" ends a line, and a "\r" before it is space to `split`.
        texts = source.split("\n")
        if "#" in source:
            texts = [text.partition("#")[0] if "#" in text else text for text in texts]
        # (number, text without comment, words) of each line that has words
        self.lines = filter(itemgetter(2), zip(count(1), texts, map(str.split, texts)))

    def read(self) -> ProtocolModel:
        """The model; any error on a line becomes a ParseError naming the line.
        A state block's lines are read by `key_state`, from the same `lines`."""
        handlers = self.HANDLERS
        try:
            for self.lineno, text, words in self.lines:
                handler = handlers.get(words[0])
                if handler is None:
                    raise ParseError(f"unknown keyword {words[0]!r}")
                handler(self, text, words)
        except (ParseError, ValidationError) as exc:
            raise ParseError(str(exc), line=self.lineno) from None
        if self.protocol is None:
            raise ParseError("missing protocol declaration", line=1)
        if self.initial is None or self.terminal is None:
            raise ParseError("missing initial or terminal declaration", line=1)
        try:
            lts = build_guarded_lts(self.by_id.values(), self.transitions, self.initial, self.terminal)
        except ValidationError as exc:
            raise ModelValidationError(str(exc), line=self.line_of(exc.subject)) from None
        return ProtocolModel(self.protocol, lts, tuple(self.environments))

    def line_of(self, subject) -> int:
        """The line of the transition the guarded system rejects (of equal ones the
        first fails first), or the first that starts with its keyword and id."""
        if isinstance(subject, GuardedTransition):
            return self.transition_lines[self.transitions.index(subject)]
        keyword, name = subject
        for lineno, raw in enumerate(self.source.split("\n"), start=1):
            words = raw.partition("#")[0].split()[:2]
            if words == [keyword, name] or keyword == "state" and words == ["alias", name]:
                return lineno

    # Each handler takes the line without its comment, and its words.

    def key_protocol(self, text, words):
        m = _PROTOCOL_RE.match(text)
        if m is None:
            raise ParseError('expected: protocol "<name>"')
        if self.protocol is not None:
            raise ParseError("duplicate protocol declaration")
        self.protocol = m.group(1)

    def key_state(self, text, words):
        inline_empty = len(words) == 4 and words[2] == "{" and words[3] == "}"
        if not inline_empty and (len(words) != 3 or words[2] != "{"):
            raise ParseError("expected: state <id> {")
        state_id = words[1]
        if not (state_id.isascii() and state_id.isidentifier()):  # a keyword fails at its '}'
            check_name(state_id, "state id")
        if inline_empty:
            return self.add_state(StateNode(state_id, (), None))
        opened, events, combine, shapes = self.lineno, [], None, self.event_shapes
        for self.lineno, text, words in self.lines:
            key = words[0]
            if key == "event" and len(words) > 1:  # the words after the name are read once per distinct text
                shape = tuple(words[2:])
                events.append(Event(words[1], *(shapes.get(shape) or self.event_shape(shape))))
            elif key == "combine":
                if combine is not None:
                    raise ParseError("duplicate combine line")
                if len(words) == 1 or words[1] != "expr":
                    combine = build_event_tree(events, words[1:])
                    continue
                try:  # a tree in the event fragment
                    combine = parse_formula(_tail(text, 2))
                    event_leaves(combine)
                except (ParseError, ValidationError) as exc:
                    raise ParseError(f"bad combine expression: {exc}") from None
            elif key == "event":
                raise ParseError("expected: event <name> [resists ...] [payload ...]")
            elif key != "}":
                raise ParseError(f"unexpected {key!r} inside state block")
            elif len(words) != 1:
                raise ParseError("unexpected '}'")
            else:
                if combine is None and events:
                    if len(events) > 1:
                        raise ParseError(f"state {state_id!r} needs a combine line")
                    combine = Atom(events[0].name)
                return self.add_state(StateNode(state_id, tuple(events), combine))
        self.lineno = opened
        raise ParseError(f"state block {state_id!r} is never closed")

    def key_outside(self, text, words):
        """An `event`, `combine` or `}` line outside a state block."""
        raise ParseError("unexpected '}'" if words[0] == "}" else f"{words[0]} outside a state block")

    def event_shape(self, shape: tuple[str, ...]) -> tuple[frozenset[ResistTag], EventMessage | None]:
        """The tags and payload that the words after an event's name give."""
        tags: list[str] = []
        payload: list[str] = []
        into = None
        for w in shape:
            if w == "resists":
                into = tags
            elif w == "payload":
                into = payload
            elif into is None:
                raise ParseError(f"unexpected token {w!r} in event declaration")
            else:
                into.append(w)
        for w in tags:
            if w not in _RESIST_VALUES:
                raise ParseError(f"unknown resist tag {w!r}")
        resists = frozenset(_RESIST_VALUES[w] for w in tags)
        parsed = self.event_shapes[shape] = (resists, EventMessage(tuple(payload)) if payload else None)
        return parsed

    def add_state(self, state: StateNode):
        if state.id in self.by_id:
            raise ParseError(f"duplicate state id {state.id!r}")
        self.by_id[state.id] = state

    def key_alias(self, text, words):
        if len(words) != 4 or words[2] != "=":
            raise ParseError("expected: alias <id> = <id>")
        target = self.by_id.get(words[3])
        if target is None:
            raise ParseError(f"alias target {words[3]!r} is not defined yet")
        self.add_state(StateNode(words[1], target.events, target.combine))

    def key_transition(self, text, words):
        if len(words) < 4 or words[2] != "->":
            raise ParseError("expected: transition <src> -> <dst> [action <name>] [when <formula>]")
        src, dst = words[1], words[3]
        action = f"{src}->{dst}"
        guard_formula: Formula = Atom(src)
        i = 4
        while i < len(words):
            if words[i] == "action":
                if i + 1 >= len(words):
                    raise ParseError("action needs a name")
                action = words[i + 1]
                i += 2
            elif words[i] == "when":
                try:
                    guard_formula = parse_formula(_tail(text, i + 1))
                except ParseError as exc:
                    raise ParseError(f"bad guard: {exc}") from None
                break
            else:
                raise ParseError(f"unexpected token {words[i]!r} in transition")
        self.transitions.append(GuardedTransition(src, action, dst, Guard(guard_formula)))
        self.transition_lines.append(self.lineno)

    def key_end(self, text, words):
        """An `initial` or `terminal` line: words[0] names the field it sets."""
        if len(words) != 2:
            raise ParseError(f"expected: {words[0]} <id>")
        if getattr(self, words[0]) is not None:
            raise ParseError(f"duplicate {words[0]} declaration")
        setattr(self, words[0], words[1])

    def key_environment(self, text, words):
        if len(words) < 2 or words[1] not in (IDEAL, NONIDEAL):
            raise ParseError("expected: environment ideal|nonideal [attackers ...]")
        if len(words) > 2 and words[2] != "attackers":
            raise ParseError(f"unexpected token {words[2]!r} in environment")
        if any(env.kind == words[1] for env in self.environments):
            raise ParseError("duplicate environment declaration")
        self.environments.append(EnvironmentConfig(words[1], capabilities(words[3:])))

    HANDLERS = {
        "protocol": key_protocol,
        "state": key_state,
        "event": key_outside,
        "combine": key_outside,
        "}": key_outside,
        "alias": key_alias,
        "transition": key_transition,
        "initial": key_end,
        "terminal": key_end,
        "environment": key_environment,
    }


def load_model(source: str) -> ProtocolModel:
    """Parse a model file's text into a validated ProtocolModel."""
    return _ModelReader(source).read()


def _render_state(state: StateNode, seen: dict) -> list[str]:
    key = (state.events, state.combine)
    if key in seen:
        return [f"alias {state.id} = {seen[key]}"]
    seen[key] = state.id
    lines = [f"state {state.id} {{"]
    for e in state.events:
        parts = [f"  event {e.name}"]
        if e.resists:
            parts.append("resists " + " ".join(sorted(t.value for t in e.resists)))
        if e.payload is not None:
            parts.append("payload " + " ".join(e.payload.items))
        lines.append(" ".join(parts))
    ops = combine_operators(state.combine, state.events) if state.events else []
    if ops is None:
        lines.append("  combine expr " + format_formula(state.combine))
    elif ops:
        lines.append("  combine " + " ".join(ops))
    lines.append("}")
    return lines


def render_model(model: ProtocolModel) -> str:
    """Canonical text for a model; load_model(render_model(m)) == m."""
    lines = [f'protocol "{model.name}"', ""]
    seen: dict = {}
    for state in model.lts.states:
        lines.extend(_render_state(state, seen))
    lines.append("")
    for t in model.lts.transitions:
        out = f"transition {t.source} -> {t.target}"
        if t.action != f"{t.source}->{t.target}":
            out += f" action {t.action}"
        if t.guard != Guard(Atom(t.source)):
            out += f" when {format_formula(t.guard.formula)}"
        lines.append(out)
    lines.append(f"initial {model.lts.initial}")
    lines.append(f"terminal {model.lts.terminal}")
    for env in model.environments:
        out = f"environment {env.kind}"
        if env.attackers:
            out += " attackers " + " ".join(sorted(c.value for c in env.attackers))
        lines.append(out)
    return "\n".join(lines) + "\n"


def bundled_model_text(name: str) -> str:
    """Text of a model file shipped with the package (tls13, dh)."""
    from importlib import resources  # with tempfile, a seventh of `import lpict`
    path = resources.files(__package__).joinpath("data").joinpath(f"{name}.model")
    return path.read_text(encoding="utf-8")


# Models are frozen, so every caller can share one parse of each file.
@functools.cache
def builtin_tls13() -> ProtocolModel:
    """The TLS 1.3 handshake model, `data/tls13.model`."""
    return load_model(bundled_model_text("tls13"))


@functools.cache
def builtin_dh() -> ProtocolModel:
    """The Diffie-Hellman exchange model, `data/dh.model`."""
    return load_model(bundled_model_text("dh"))


BUILTIN_MODELS = {
    "tls13": builtin_tls13,
    "dh": builtin_dh,
}
