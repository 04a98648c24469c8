"""Guarded labelled transition systems.

States carry named events composed by an event tree, a formula over the
event names (see `trees`); transitions carry a propositional guard over event
and state atoms. A transition's precondition holds when its guard and its
source-state atom are derivable from the known facts.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property

from .errors import BranchingPathError, ValidationError
from .lexing import MAX_NESTING
from .logic.formulas import KEYWORDS, Atom, Cached, Formula, atoms, frozen_record, nesting
from .logic.search import search_forward_chain
from .logic.semantics import semantic_entails
from .trees import combine_operators, event_leaves


class ResistTag(Enum):
    """Security guarantees an event can provide against attacker capabilities."""

    REPLAY = "replay"
    MITM = "mitm"
    FORWARD_SECRECY = "forward_secrecy"
    INTEGRITY = "integrity"
    IDENTITY_AUTH = "identity_auth"
    SELECTION_SYNC = "selection_sync"
    CONFIDENTIALITY = "confidentiality"
    VERIFICATION = "verification"


def check_name(name: str, what: str) -> None:
    """A state id or event name must be an identifier a guard reads as an atom:
    what `lexing.IDENTIFIER` matches, an ASCII Python identifier."""
    if not (name.isascii() and name.isidentifier()):  # a regex match is slower
        raise ValidationError(f"bad {what} {name!r}")
    if name in KEYWORDS:
        raise ValidationError(f"{name!r} is a formula keyword and cannot name a state or an event")


@frozen_record
class EventMessage:
    """Ordered field names of the message exchanged when an event happens.
    Each is one word, and no word that starts a list on an `event` line."""

    items: tuple[str, ...]

    def __post_init__(self):
        if not self.items:
            raise ValidationError("an event message cannot be empty")
        for item in self.items:
            if item.split() != [item] or "#" in item or item in ("resists", "payload"):
                raise ValidationError(f"bad payload item {item!r}")


@frozen_record
class Event:
    name: str
    resists: frozenset[ResistTag] = frozenset()
    payload: EventMessage | None = None

    def __post_init__(self):
        check_name(self.name, "event name")


@frozen_record
class Guard:
    """A formula whose text nests at most `lexing.MAX_NESTING` deep, as the parser reads it."""

    formula: Formula

    def __post_init__(self):
        if type(self.formula) is not Atom and nesting(self.formula) > MAX_NESTING:  # most guards are one atom
            raise ValidationError(f"guard nests more than {MAX_NESTING} deep")


@frozen_record
class StateNode:
    """Its events have distinct names; it has an event tree, in the event
    fragment with its events as leaves, exactly when it has events. The tree
    is a `combine` line's, or its text nests at most `lexing.MAX_NESTING` deep."""

    id: str
    events: tuple[Event, ...]
    combine: Formula | None = None  # None only for an event-less terminal

    def __post_init__(self):
        check_name(self.id, "state id")
        names = set()  # loops: a comprehension costs more than a state's few events
        for e in self.events:
            names.add(e.name)
        if len(names) != len(self.events):
            raise ValidationError(f"duplicate event name in state {self.id!r}")
        if not self.events:
            if self.combine is not None:
                raise ValidationError(f"event-less state {self.id!r} cannot carry an event tree")
        elif self.combine is None:
            raise ValidationError(f"state {self.id!r} has events but no event tree")
        else:
            try:
                leaves = event_leaves(self.combine)
            except ValidationError as exc:
                raise ValidationError(f"event tree of state {self.id!r}: {exc}") from None
            leaf_names = set()
            for leaf in leaves:
                leaf_names.add((leaf if type(leaf) is Atom else leaf.operand).name)
            if leaf_names != names:
                raise ValidationError(f"event tree of state {self.id!r} does not match its events")
            deep = leaves[MAX_NESTING:] and nesting(self.combine) > MAX_NESTING  # fewer leaves nest less deep
            if deep and combine_operators(self.combine, self.events) is None:
                raise ValidationError(f"event tree of state {self.id!r} nests more than {MAX_NESTING} deep")


@frozen_record
class GuardedTransition:
    source: str
    action: str
    target: str
    guard: Guard

    def __post_init__(self):
        if self.action.split() != [self.action] or "#" in self.action:
            raise ValidationError(f"bad action {self.action!r}")


@frozen_record
class GuardedLTS(Cached):
    """Built only from records that fit together: distinct state ids, the
    initial and terminal ones among them; transitions between those states,
    each state reachable from the initial one, none leaving the terminal one;
    events on every other state; guards over state and event names, which
    differ. The indexes below are cached on first use, outside equality."""

    states: tuple[StateNode, ...]
    transitions: tuple[GuardedTransition, ...]
    initial: str
    terminal: str

    def __post_init__(self):
        known = self._by_id
        if len(known) != len(self.states):
            ids = self.state_ids
            raise ValidationError(f"duplicate state id {next(i for i in ids if ids.count(i) > 1)!r}")
        for end, sid in (("initial", self.initial), ("terminal", self.terminal)):
            if sid not in known:
                raise ValidationError(f"{end} state {sid!r} is not declared", (end, sid))
        for s in self.states:
            if not s.events and s.id != self.terminal:
                raise ValidationError(f"non-terminal state {s.id!r} declares no events", ("state", s.id))
        event_names = {e.name for s in self.states for e in s.events}
        # State ids and event names are the atoms of guards, so they must differ.
        ambiguous = sorted(known.keys() & event_names)
        if ambiguous:
            raise ValidationError(f"{ambiguous[0]!r} names both a state and an event", ("event", ambiguous[0]))
        resolvable = known.keys() | event_names
        for t in self.transitions:
            if t.source not in known or t.target not in known:
                end = t.source if t.source not in known else t.target
                raise ValidationError(f"transition {t.source}->{t.target} references undeclared state {end!r}", t)
            f = t.guard.formula  # the usual guard is one atom, which needs no `atoms` walk
            loose = None if type(f) is Atom and f.name in resolvable else atoms(f) - resolvable
            if loose:
                raise ValidationError(f"guard of {t.source}->{t.target} references unknown atom {sorted(loose)[0]!r}", t)
        outgoing = self._outgoing
        reached, frontier = {self.initial}, [self.initial]
        for source in frontier:  # the frontier grows while it is walked
            for t in outgoing.get(source, ()):
                if t.target not in reached:
                    reached.add(t.target)
                    frontier.append(t.target)
        unreachable = sorted(known.keys() - reached)
        if unreachable:
            raise ValidationError(f"state {unreachable[0]!r} is unreachable from {self.initial!r}", ("state", unreachable[0]))
        if self.terminal in outgoing:
            raise ValidationError(f"terminal state {self.terminal!r} has outgoing transitions", outgoing[self.terminal][0])

    @cached_property
    def _by_id(self) -> dict[str, StateNode]:
        return {s.id: s for s in self.states}

    @cached_property
    def _outgoing(self) -> dict[str, tuple[GuardedTransition, ...]]:
        out: dict[str, list[GuardedTransition]] = {}
        for t in self.transitions:
            out.setdefault(t.source, []).append(t)
        return {source: tuple(ts) for source, ts in out.items()}

    def state(self, state_id: str) -> StateNode:
        return self._by_id[state_id]

    def outgoing(self, state_id: str) -> tuple[GuardedTransition, ...]:
        return self._outgoing.get(state_id, ())

    @property
    def state_ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.states)

    @cached_property
    def chain(self) -> tuple[StateNode, ...]:
        """States from initial to terminal. All are reachable and the terminal
        state has no outgoing transitions, so a way that does not branch ends
        there; BranchingPathError names the first state on it that branches."""
        outgoing = self._outgoing
        order = [self._by_id[self.initial]]
        cur = self.initial
        while cur != self.terminal:
            outs = outgoing[cur]
            if len(outs) > 1:
                raise BranchingPathError(f"state {cur!r} has {len(outs)} outgoing transitions")
            cur = outs[0].target
            order.append(self._by_id[cur])
        return tuple(order)


def build_guarded_lts(states, transitions, initial: str, terminal: str) -> GuardedLTS:
    """A guarded system over any iterables of states and transitions."""
    return GuardedLTS(tuple(states), tuple(transitions), initial, terminal)


def _derivable(facts: tuple[Formula, ...], goal: Formula) -> bool:
    # Chain search first; fall back to the truth-table check for goals the
    # chain style cannot express (conjunctive guards and the like).
    if isinstance(goal, Atom) and search_forward_chain(facts, goal) is not None:
        return True
    return semantic_entails(facts, goal)


def check_precondition(lts: GuardedLTS, transition: GuardedTransition, facts) -> bool:
    """The transition may fire: its source-state atom and its guard are both
    derivable from the given facts."""
    facts = tuple(facts)
    return _derivable(facts, Atom(transition.source)) and _derivable(
        facts, transition.guard.formula
    )
