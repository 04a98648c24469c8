"""Chain analysis of protocol models.

A model's states are walked along `lts.chain`, in transition order from the
initial state; the walk builds no state tree. Each state's event tree is
evaluated under the environment's event assignment; the first state whose
tree comes out false stops the walk with a flawed verdict and the first
false leaf (in breadth-first order) as the failing event. Before the walk
takes a transition it evaluates the transition's guard over the facts of the
run so far; a false guard stops the walk with a flawed verdict and the
transition's source and action as the failing pair. When the walk reaches
the terminal state, two judgments decide the verdict: the visited sequence
must be a repeat-free linear extension of transition reachability, and the
terminal state must be derivable from the chain both by forward implication
elimination and by refutation. The non-ideal run matches the ideal one when
its trace is the ideal trace in full: a substring match at the first
position of two traces of equal length, which is their equality.
"""

from __future__ import annotations

import itertools
from operator import lt
from typing import Sequence

from .errors import ValidationError
from .guarded import GuardedLTS
from .logic.formulas import And, Atom, Cached, Implies, Or, eval_formula, frozen_record
from .logic.proofs import Proof, Sequent, check_proof
from .logic.search import search_both
from .models.core import IDEAL, NONIDEAL, ProtocolModel, apply_environment
from .trees import StateTreeNode, bfs_traverse, eval_event_leaves, eval_event_tree, leaf_atom

# Not called here any more, but bench/tracing.py wraps them by these names
# in this module.
from .kmp import kmp_match  # noqa: F401
from .logic.search import search_contradiction, search_forward_chain  # noqa: F401
from .trees import event_leaves  # noqa: F401

SECURE = "secure"
FLAWED = "flawed"


@frozen_record
class TraceSymbol:
    """One analysed state: its event-tree outcome and the leaf outcomes in
    leaf order."""

    state: str
    value: bool
    event_values: tuple[bool, ...]

    def token(self) -> str:
        bits = ""  # a loop: a comprehension costs more than a state's few events
        for v in self.event_values:
            bits += "1" if v else "0"
        return f"{self.state}:{bits}"


@frozen_record
class Judgments:
    partial_order: bool
    entailment: bool
    matching: bool | None = None


@frozen_record
class EntailmentResult(Cached):
    sequent: Sequent
    forward: Proof | None
    contradiction: Proof | None
    holds: bool


@frozen_record
class AnalysisOutcome:
    verdict: str
    trace: tuple[TraceSymbol, ...]
    failing: tuple[str, str] | None
    judgments: Judgments
    entailment: EntailmentResult | None  # None when the walk stopped at a false tree

    @property
    def secure(self) -> bool:
        return self.verdict == SECURE


@frozen_record
class DualVerdict:
    ideal: AnalysisOutcome
    nonideal: AnalysisOutcome
    matched: bool
    secure: bool


def chain_states(lts: GuardedLTS) -> list[str]:
    """State ids along the single transition chain from initial to terminal."""
    return [s.id for s in lts.chain]


def build_state_tree(lts: GuardedLTS) -> StateTreeNode:
    """Right-spine tree in chain order; each spine node carries its state's
    event tree."""
    node: StateTreeNode | None = None
    for state in reversed(lts.chain):
        node = StateTreeNode(state.id, state.combine, node)
    return node


def _first_false_leaf(tree, valuation) -> str:
    for node in bfs_traverse(tree):  # a negated atom is one leaf
        if not isinstance(node, (And, Or)) and not eval_event_tree(node, valuation):
            return leaf_atom(node).name
    raise ValidationError("no false leaf in a false tree")  # pragma: no cover


def partial_order_check(trace: Sequence, lts: GuardedLTS) -> bool:
    """The visited sequence is strictly increasing under the reflexive
    transitive closure of the transition relation: no repeats, every later
    state reachable from every earlier one, never the other way round. On a
    chain that is strictly increasing chain position, so consecutive pairs
    decide it. Raises BranchingPathError when the transitions are not a
    chain, ValidationError for a state that is not on it."""
    position = {state.id: i for i, state in enumerate(lts.chain)}
    try:
        order = [position[sym.state if isinstance(sym, TraceSymbol) else sym] for sym in trace]
    except KeyError as exc:
        raise ValidationError(f"trace mentions state {exc.args[0]!r}, which is not on the chain") from None
    return all(map(lt, order, order[1:]))


def entailment_sequent(lts: GuardedLTS) -> Sequent:
    """The chain encoded as a sequent: the initial state plus one implication
    per transition entail the terminal state. Raises BranchingPathError, from
    `lts.chain`, for the first state met from the initial one that has two
    outgoing transitions."""
    lts.chain
    guards = {f.name: f for t in lts.transitions if type(f := t.guard.formula) is Atom}  # a default guard is its source
    atom = {s.id: guards.get(s.id) or Atom(s.id) for s in lts.states}
    premises = tuple(
        [atom[lts.initial]]
        + [Implies(atom[t.source], atom[t.target]) for t in lts.transitions]
    )
    return Sequent(premises, atom[lts.terminal])


def entailment_judgment(lts: GuardedLTS) -> EntailmentResult:
    """Encode the transitions as implications and derive the terminal state
    twice, forward and by contradiction, from one search of the implication
    path. Holds when both proofs check, and not when the search finds none.
    The judgment depends on the system alone: the first call keeps it on
    `lts`, and later calls return it."""
    result = lts.__dict__.get("_entailment")
    if result is None:
        sequent = entailment_sequent(lts)
        proofs = search_both(sequent.premises, sequent.conclusion)
        forward, contradiction = proofs or (None, None)
        holds = proofs is not None and check_proof(sequent, forward).valid and check_proof(sequent, contradiction).valid
        result = lts.__dict__["_entailment"] = EntailmentResult(sequent, forward, contradiction, holds)
    return result


def _walk(lts: GuardedLTS, assignment, prior_values=None, prior_trace=()) -> tuple[tuple[TraceSymbol, ...], tuple | None]:
    """Walk the chain under an environment's event assignment, up to and
    including the first state whose event tree is false (the failing pair is
    that state and its first false leaf) or the source of the first transition
    whose guard is false (the failing pair is that state and the action). A
    state whose event values are its `prior_values` takes its `prior_trace` symbol.

    A guard is evaluated over the facts of the run so far: the atoms of the
    visited states, the source included, are true and those of the other
    states false; an event name has its value in the latest visited state that
    declares it, and is false if no visited state does."""
    facts = dict.fromkeys(itertools.chain.from_iterable(assignment.values()), False)
    facts.update(dict.fromkeys(assignment, False))
    trace: list[TraceSymbol] = []
    outgoing = lts._outgoing.get  # the transitions out of a state, without a call per state
    for state, symbol in itertools.zip_longest(lts.chain, prior_trace):
        valuation = assignment[state.id]
        if symbol is None or prior_values[state.id] != valuation:
            # an event-less terminal passes trivially
            value, values = eval_event_leaves(state.combine, valuation) if state.combine is not None else (True, ())
            symbol = TraceSymbol(state.id, value, values)
        trace.append(symbol)
        if not symbol.value:
            return tuple(trace), (state.id, _first_false_leaf(state.combine, valuation))
        facts.update(valuation)
        facts[state.id] = True
        for t in outgoing(state.id, ()):
            f = t.guard.formula  # most guards are one atom, and the facts hold every atom
            if not (facts[f.name] if type(f) is Atom else eval_formula(f, facts)):
                return tuple(trace), (t.source, t.action)
    return tuple(trace), None


def _judge(lts: GuardedLTS, trace, failing, matching=None) -> AnalysisOutcome:
    """A walk's outcome: flawed at its failing pair, else judged by its trace's order and the system's entailment."""
    if failing is not None:
        return AnalysisOutcome(FLAWED, trace, failing, Judgments(False, False, matching), None)
    entailment = entailment_judgment(lts)
    judgments = Judgments(partial_order_check(trace, lts), entailment.holds, matching)
    verdict = SECURE if judgments.partial_order and judgments.entailment else FLAWED
    return AnalysisOutcome(verdict, trace, None, judgments, entailment)


def _ideal_run(model: ProtocolModel) -> tuple[dict, AnalysisOutcome]:
    """The ideal environment's event values and outcome: they depend on the
    system alone, so the first analysis keeps them on `model.lts` for all later ones."""
    env = model.environment(IDEAL)
    run = model.lts.__dict__.get("_ideal_run")
    if run is None:
        values = apply_environment(model, env)
        run = model.lts.__dict__["_ideal_run"] = values, _judge(model.lts, *_walk(model.lts, values))
    return run


def analyze_protocol(model: ProtocolModel, env) -> AnalysisOutcome:
    """Walk `lts.chain` under the environment's event assignment.

    The two judgments are only established when every state's event tree
    and every transition guard on the way evaluate true; a run stopped at a
    false tree or guard reports them as not holding."""
    if env.kind == IDEAL and env in model.environments:  # apply_environment refuses a foreign one
        return _ideal_run(model)[1]
    return _judge(model.lts, *_walk(model.lts, apply_environment(model, env)))


def dual_environment_verdict(model: ProtocolModel) -> DualVerdict:
    """Analyse under both environments and match the traces.

    Secure means: the ideal run is secure and the non-ideal trace matches it
    in full. The non-ideal walk takes the ideal walk's symbol for each state
    whose event values are the ideal ones."""
    ideal_values, ideal = _ideal_run(model)
    values = apply_environment(model, model.environment(NONIDEAL))
    if values == ideal_values:  # equal event values make equal walks
        trace, failing = ideal.trace, ideal.failing
    else:
        trace, failing = _walk(model.lts, values, ideal_values, ideal.trace)
    matched = trace == ideal.trace
    return DualVerdict(ideal, _judge(model.lts, trace, failing, matched), matched, ideal.secure and matched)
