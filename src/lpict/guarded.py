"""Guarded labelled transition systems.

States carry named events composed by an event tree, a formula over the
event names (see `trees`); transitions carry a propositional guard over event
and state atoms. A transition's precondition holds when its guard and its
source-state atom are derivable from the known facts.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import BranchingPathError, BrokenChainError, ValidationError
from .lexing import IDENTIFIER
from .logic.formulas import KEYWORDS, Atom, Formula, atoms
from .logic.search import search_forward_chain
from .logic.semantics import semantic_entails
from .trees import event_leaves, leaf_atom


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
    """A state id or event name must be an identifier a guard reads as an atom."""
    if not IDENTIFIER.fullmatch(name):
        raise ValidationError(f"bad {what} {name!r}")
    if name in KEYWORDS:
        raise ValidationError(f"{name!r} is a formula keyword and cannot name a state or an event")


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class Event:
    name: str
    resists: frozenset[ResistTag] = frozenset()
    payload: EventMessage | None = None

    def __post_init__(self):
        check_name(self.name, "event name")


@dataclass(frozen=True, slots=True)
class Guard:
    formula: Formula


@dataclass(frozen=True, slots=True)
class StateNode:
    id: str
    events: tuple[Event, ...]
    combine: Formula | None = None  # None only for an event-less terminal

    def __post_init__(self):
        check_name(self.id, "state id")


@dataclass(frozen=True, slots=True)
class GuardedTransition:
    source: str
    action: str
    target: str
    guard: Guard


@dataclass(frozen=True)
class GuardedLTS:
    """The indexes below are built on first use and cached on the instance;
    they take no part in equality or hashing."""

    states: tuple[StateNode, ...]
    transitions: tuple[GuardedTransition, ...]
    initial: str
    terminal: str

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
        """States along the single transition chain from initial to terminal.
        Raises BranchingPathError at the first state on the way with two
        outgoing transitions, and BrokenChainError, a subclass, when the way
        ends early, cycles or goes on past the terminal state."""
        outgoing = self._outgoing
        order = [self.initial]
        seen = {self.initial}
        cur = self.initial
        while cur != self.terminal:
            outs = outgoing.get(cur, ())
            if len(outs) > 1:
                raise BranchingPathError(f"state {cur!r} has {len(outs)} outgoing transitions")
            if not outs:
                raise BrokenChainError(f"chain breaks at {cur!r} before reaching the terminal")
            cur = outs[0].target
            if cur in seen:
                raise BrokenChainError(f"transition cycle through {cur!r}")
            seen.add(cur)
            order.append(cur)
        if cur in outgoing:
            raise BrokenChainError(f"terminal state {cur!r} has outgoing transitions")
        return tuple(self._by_id[sid] for sid in order)


def build_guarded_lts(states, transitions, initial: str, terminal: str) -> GuardedLTS:
    """Validate and assemble a guarded system.

    Each `Event` and `StateNode` checks its name when it is built. This
    rejects duplicate state ids, duplicate event names within a state, an
    event named like a state, dangling transition endpoints, an action that
    is not one word free of `#`, guard atoms that resolve to nothing, event
    trees outside the event fragment or whose leaves are not the state's
    events, non-terminal states with no events, a terminal state with
    outgoing transitions, and states unreachable from the initial one.
    """
    states = tuple(states)
    transitions = tuple(transitions)
    ids = [s.id for s in states]
    if len(set(ids)) != len(ids):
        dup = next(i for i in ids if ids.count(i) > 1)
        raise ValidationError(f"duplicate state id {dup!r}")
    known = set(ids)
    if initial not in known:
        raise ValidationError(f"initial state {initial!r} is not declared")
    if terminal not in known:
        raise ValidationError(f"terminal state {terminal!r} is not declared")

    event_names: set[str] = set()
    for s in states:
        names = [e.name for e in s.events]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate event name in state {s.id!r}")
        if not s.events:
            if s.id != terminal:
                raise ValidationError(f"non-terminal state {s.id!r} declares no events")
            if s.combine is not None:
                raise ValidationError(f"event-less state {s.id!r} cannot carry an event tree")
        else:
            if s.combine is None:
                raise ValidationError(f"state {s.id!r} has events but no event tree")
            try:
                leaves = event_leaves(s.combine)
            except ValidationError as exc:
                raise ValidationError(f"event tree of state {s.id!r}: {exc}") from None
            if {leaf_atom(leaf).name for leaf in leaves} != set(names):
                raise ValidationError(f"event tree of state {s.id!r} does not match its events")
        event_names.update(names)

    # State ids and event names are the atoms of guards, so they must differ.
    ambiguous = known & event_names
    if ambiguous:
        raise ValidationError(f"{sorted(ambiguous)[0]!r} names both a state and an event")
    resolvable = known | event_names
    for t in transitions:
        for end in (t.source, t.target):
            if end not in known:
                raise ValidationError(f"transition {t.source}->{t.target} references undeclared state {end!r}")
        if t.action.split() != [t.action] or "#" in t.action:
            raise ValidationError(f"bad action {t.action!r}")
        loose = atoms(t.guard.formula) - resolvable
        if loose:
            raise ValidationError(
                f"guard of {t.source}->{t.target} references unknown atom {sorted(loose)[0]!r}"
            )

    lts = GuardedLTS(states, transitions, initial, terminal)
    reached = {initial}
    frontier = [initial]
    while frontier:
        for t in lts._outgoing.get(frontier.pop(), ()):
            if t.target not in reached:
                reached.add(t.target)
                frontier.append(t.target)
    unreachable = known - reached
    if unreachable:
        raise ValidationError(f"state {sorted(unreachable)[0]!r} is unreachable from {initial!r}")
    if terminal in lts._outgoing:
        raise ValidationError(f"terminal state {terminal!r} has outgoing transitions")
    return lts


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
