"""Guarded labelled transition systems.

States carry named events composed by an event tree, a formula over the
event names (see `trees`); transitions carry a propositional guard over event
and state atoms. A transition's precondition holds when its guard and its
source-state atom are derivable from the known facts. The guarded process
rules behave like the plain reduction rules when their guard evaluates true
and produce nothing when it does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import BranchingPathError, ValidationError
from .logic.formulas import Atom, Formula, Valuation, atoms, eval_formula
from .logic.search import search_forward_chain
from .logic.semantics import semantic_entails
from .pi.reduction import reduce_step
from .pi.terms import Process
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


@dataclass(frozen=True, slots=True)
class EventMessage:
    """Ordered field names of the message exchanged when an event happens."""

    items: tuple[str, ...]

    def __post_init__(self):
        if not self.items:
            raise ValidationError("an event message cannot be empty")


@dataclass(frozen=True, slots=True)
class Event:
    name: str
    resists: frozenset[ResistTag] = frozenset()
    payload: EventMessage | None = None


@dataclass(frozen=True, slots=True)
class Guard:
    formula: Formula


@dataclass(frozen=True, slots=True)
class StateNode:
    id: str
    events: tuple[Event, ...]
    combine: Formula | None = None  # None only for an event-less terminal


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
        Raises BranchingPathError when the transitions do not form one."""
        outgoing = self._outgoing
        order = [self.initial]
        seen = {self.initial}
        cur = self.initial
        while cur != self.terminal:
            outs = outgoing.get(cur, ())
            if len(outs) > 1:
                raise BranchingPathError(f"state {cur!r} has {len(outs)} outgoing transitions")
            if not outs:
                raise BranchingPathError(f"chain breaks at {cur!r} before reaching the terminal")
            cur = outs[0].target
            if cur in seen:
                raise BranchingPathError(f"transition cycle through {cur!r}")
            seen.add(cur)
            order.append(cur)
        if cur in outgoing:
            raise BranchingPathError(f"terminal state {cur!r} has outgoing transitions")
        return tuple(self._by_id[sid] for sid in order)


def build_guarded_lts(states, transitions, initial: str, terminal: str) -> GuardedLTS:
    """Validate and assemble a guarded system.

    Rejects duplicate state ids, duplicate event names within a state, an
    event named like a state, dangling transition endpoints, guard atoms that
    resolve to nothing, event trees outside the event fragment or whose leaves
    are not the state's events, non-terminal states with no events, and states
    unreachable from the initial one.
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
            # event_leaves rejects a tree outside the event fragment
            if {leaf_atom(leaf).name for leaf in event_leaves(s.combine)} != set(names):
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


GUARDED_RULES = ("TAU", "REACT", "REACT'", "PAR", "RES", "STRUCT")

_AXIOM_TAGS = {"TAU": ("TAU",), "REACT": ("REACT",), "REACT'": ("REACT'",)}


def apply_guarded_rule(rule: str, process: Process, guard: Guard, valuation: Valuation) -> set[Process]:
    """Successors of the guarded rule: empty when the guard evaluates false,
    otherwise the successors of the corresponding unguarded rule. The closure
    rules (PAR, RES, STRUCT) admit every successor, since reduction already
    computes the closed relation on canonical forms."""
    if rule not in GUARDED_RULES:
        raise ValidationError(f"unknown guarded rule {rule!r}")
    if not eval_formula(guard.formula, valuation):
        return set()
    allowed = _AXIOM_TAGS.get(rule)
    return {
        term
        for tag, term in reduce_step(process)
        if allowed is None or tag in allowed
    }
