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
from importlib import resources

from ..errors import ParseError, ValidationError
from ..guarded import (
    Event,
    EventMessage,
    Guard,
    GuardedTransition,
    ResistTag,
    StateNode,
    build_guarded_lts,
)
from ..logic.formulas import And, Atom, Formula, Or, format_formula, parse_formula
from ..trees import build_event_tree, event_leaves
from .core import IDEAL, NONIDEAL, AttackerCapability, EnvironmentConfig, ProtocolModel

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_PROTOCOL_RE = re.compile(r'\s*protocol\s+"([^"]+)"\s*$')
_BLOCK_KEYWORDS = frozenset({"event", "combine", "}"})
_RESIST_VALUES = {tag.value: tag for tag in ResistTag}
_CAPABILITY_VALUES = {cap.value: cap for cap in AttackerCapability}


def _tail(text: str, n: int) -> str:
    """The text after its first n words, stripped; empty when there is none."""
    parts = text.split(None, n)
    return parts[n].strip() if len(parts) > n else ""


class _ModelReader:
    def __init__(self, source: str):
        self.source = source
        self.protocol: str | None = None
        self.states: list[StateNode] = []
        self.by_id: dict[str, StateNode] = {}
        self.transitions: list[GuardedTransition] = []
        self.initial: str | None = None
        self.terminal: str | None = None
        self.environments: list[EnvironmentConfig] = []
        # resist-tag words -> their tag set; events repeat a few tag lists
        self.resist_sets: dict[tuple[str, ...], frozenset[ResistTag]] = {}
        # open state block, if any
        self.block_id: str | None = None
        self.block_events: list[Event] = []
        self.block_combine: Formula | None = None
        self.block_line = 0

    def fail(self, message: str, line: int):
        raise ParseError(message, line=line)

    def read(self) -> ProtocolModel:
        handlers = self.HANDLERS
        for lineno, raw in enumerate(self.source.splitlines(), start=1):
            text = raw.partition("#")[0]
            words = text.split()
            if not words:
                continue
            key = words[0]
            if self.block_id is not None and key not in _BLOCK_KEYWORDS:
                self.fail(f"unexpected {key!r} inside state block", lineno)
            handler = handlers.get(key)
            if handler is None:
                self.fail(f"unknown keyword {key!r}", lineno)
            handler(self, text, words, lineno)
        if self.block_id is not None:
            self.fail(f"state block {self.block_id!r} is never closed", self.block_line)
        if self.protocol is None:
            self.fail("missing protocol declaration", 1)
        if self.initial is None or self.terminal is None:
            self.fail("missing initial or terminal declaration", 1)
        lts = build_guarded_lts(self.states, self.transitions, self.initial, self.terminal)
        return ProtocolModel(self.protocol, lts, tuple(self.environments))

    # Each handler takes the line without its comment, the line's words
    # (the keyword first) and the line number.

    def key_protocol(self, text, words, lineno):
        m = _PROTOCOL_RE.match(text)
        if m is None:
            self.fail('expected: protocol "<name>"', lineno)
        if self.protocol is not None:
            self.fail("duplicate protocol declaration", lineno)
        self.protocol = m.group(1)

    def key_state(self, text, words, lineno):
        inline_empty = len(words) == 4 and words[2] == "{" and words[3] == "}"
        if not inline_empty and (len(words) != 3 or words[2] != "{"):
            self.fail("expected: state <id> {", lineno)
        if not _IDENT_RE.match(words[1]):
            self.fail(f"bad state id {words[1]!r}", lineno)
        if inline_empty:
            self.add_state(StateNode(words[1], (), None), lineno)
            return
        self.block_id = words[1]
        self.block_events = []
        self.block_combine = None
        self.block_line = lineno

    def key_event(self, text, words, lineno):
        if self.block_id is None:
            self.fail("event outside a state block", lineno)
        if len(words) < 2:
            self.fail("expected: event <name> [resists ...] [payload ...]", lineno)
        tags: list[str] = []
        payload: list[str] = []
        into = None
        for w in words[2:]:
            if w == "resists":
                into = tags
            elif w == "payload":
                into = payload
            elif into is None:
                self.fail(f"unexpected token {w!r} in event declaration", lineno)
            else:
                into.append(w)
        key = tuple(tags)
        resists = self.resist_sets.get(key)
        if resists is None:
            for w in tags:
                if w not in _RESIST_VALUES:
                    self.fail(f"unknown resist tag {w!r}", lineno)
            resists = self.resist_sets[key] = frozenset(_RESIST_VALUES[w] for w in tags)
        self.block_events.append(
            Event(words[1], resists, EventMessage(tuple(payload)) if payload else None)
        )

    def key_combine(self, text, words, lineno):
        if self.block_id is None:
            self.fail("combine outside a state block", lineno)
        if self.block_combine is not None:
            self.fail("duplicate combine line", lineno)
        if len(words) >= 2 and words[1] == "expr":
            try:
                self.block_combine = parse_formula(_tail(text, 2))
                event_leaves(self.block_combine)
            except (ParseError, ValidationError) as exc:
                self.fail(f"bad combine expression: {exc}", lineno)
            return
        ops = words[1:]
        bad = [op for op in ops if op not in ("and", "or")]
        if bad:
            self.fail(f"unknown operator {bad[0]!r} in combine", lineno)
        try:
            self.block_combine = build_event_tree(self.block_events, ops)
        except ValidationError as exc:
            self.fail(str(exc), lineno)

    def key_close(self, text, words, lineno):
        if self.block_id is None or len(words) != 1:
            self.fail("unexpected '}'", lineno)
        events = tuple(self.block_events)
        combine = self.block_combine
        if combine is None and len(events) == 1:
            combine = Atom(events[0].name)
        if combine is None and len(events) > 1:
            self.fail(f"state {self.block_id!r} needs a combine line", lineno)
        self.add_state(StateNode(self.block_id, events, combine), lineno)
        self.block_id = None

    def add_state(self, state: StateNode, lineno: int):
        if state.id in self.by_id:
            self.fail(f"duplicate state id {state.id!r}", lineno)
        self.states.append(state)
        self.by_id[state.id] = state

    def key_alias(self, text, words, lineno):
        if len(words) != 4 or words[2] != "=":
            self.fail("expected: alias <id> = <id>", lineno)
        target = self.by_id.get(words[3])
        if target is None:
            self.fail(f"alias target {words[3]!r} is not defined yet", lineno)
        self.add_state(StateNode(words[1], target.events, target.combine), lineno)

    def key_transition(self, text, words, lineno):
        if len(words) < 4 or words[2] != "->":
            self.fail("expected: transition <src> -> <dst> [action <name>] [when <formula>]", lineno)
        src, dst = words[1], words[3]
        action = f"{src}->{dst}"
        guard_formula: Formula = Atom(src)
        i = 4
        while i < len(words):
            if words[i] == "action":
                if i + 1 >= len(words):
                    self.fail("action needs a name", lineno)
                action = words[i + 1]
                i += 2
            elif words[i] == "when":
                try:
                    guard_formula = parse_formula(_tail(text, i + 1))
                except ParseError as exc:
                    self.fail(f"bad guard: {exc}", lineno)
                break
            else:
                self.fail(f"unexpected token {words[i]!r} in transition", lineno)
        self.transitions.append(GuardedTransition(src, action, dst, Guard(guard_formula)))

    def key_initial(self, text, words, lineno):
        if len(words) != 2:
            self.fail("expected: initial <id>", lineno)
        self.initial = words[1]

    def key_terminal(self, text, words, lineno):
        if len(words) != 2:
            self.fail("expected: terminal <id>", lineno)
        self.terminal = words[1]

    def key_environment(self, text, words, lineno):
        if len(words) < 2 or words[1] not in (IDEAL, NONIDEAL):
            self.fail("expected: environment ideal|nonideal [attackers ...]", lineno)
        kind = words[1]
        attackers: list[AttackerCapability] = []
        rest = words[2:]
        if rest:
            if rest[0] != "attackers":
                self.fail(f"unexpected token {rest[0]!r} in environment", lineno)
            for w in rest[1:]:
                cap = _CAPABILITY_VALUES.get(w)
                if cap is None:
                    self.fail(f"unknown attacker capability {w!r}", lineno)
                attackers.append(cap)
        try:
            self.environments.append(EnvironmentConfig(kind, frozenset(attackers)))
        except ValidationError as exc:
            self.fail(str(exc), lineno)

    HANDLERS = {
        "protocol": key_protocol,
        "state": key_state,
        "event": key_event,
        "combine": key_combine,
        "}": key_close,
        "alias": key_alias,
        "transition": key_transition,
        "initial": key_initial,
        "terminal": key_terminal,
        "environment": key_environment,
    }


def load_model(source: str) -> ProtocolModel:
    """Parse a model file's text into a validated ProtocolModel."""
    return _ModelReader(source).read()


def _left_deep_ops(tree: Formula | None, names: list[str]) -> list[str] | None:
    """The `combine` operators that build `tree` over `names`, if any do."""
    ops: list[str] = []
    node = tree
    while isinstance(node, (And, Or)):
        ops.append("and" if isinstance(node, And) else "or")
        node = node.left
    ops.reverse()
    if len(ops) == len(names) - 1 and build_event_tree(names, ops) == tree:
        return ops
    return None


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
    if state.events and state.combine != Atom(state.events[0].name):
        ops = _left_deep_ops(state.combine, [e.name for e in state.events])
        if ops is not None:
            lines.append("  combine " + " ".join(ops))
        else:
            lines.append("  combine expr " + format_formula(state.combine))
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
