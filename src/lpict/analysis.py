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
from typing import Sequence

from .errors import ValidationError
from .guarded import GuardedLTS
from .logic.formulas import And, Atom, Implies, Or, eval_formula, frozen_record
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
        return f"{self.state}:{''.join(['1' if v else '0' for v in self.event_values])}"


@frozen_record
class Judgments:
    partial_order: bool
    entailment: bool
    matching: bool | None = None


@frozen_record
class EntailmentResult:
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
    assert node is not None
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
    ids = [sym.state if isinstance(sym, TraceSymbol) else sym for sym in trace]
    position = {state.id: i for i, state in enumerate(lts.chain)}
    for sid in ids:
        if sid not in position:
            raise ValidationError(f"trace mentions state {sid!r}, which is not on the chain")
    return all(position[a] < position[b] for a, b in zip(ids, ids[1:]))


def entailment_sequent(lts: GuardedLTS) -> Sequent:
    """The chain encoded as a sequent: the initial state plus one implication
    per transition entail the terminal state. Raises BranchingPathError, from
    `lts.chain`, for the first state met from the initial one that has two
    outgoing transitions."""
    lts.chain
    atom = {sid: Atom(sid) for sid in lts.state_ids}
    premises = tuple(
        [atom[lts.initial]]
        + [Implies(atom[t.source], atom[t.target]) for t in lts.transitions]
    )
    return Sequent(premises, atom[lts.terminal])


def entailment_judgment(lts: GuardedLTS) -> EntailmentResult:
    """Encode the transitions as implications and derive the terminal state
    twice, forward and by contradiction, from one search of the implication
    path. Holds when both proofs check, and not when the search finds none."""
    sequent = entailment_sequent(lts)
    proofs = search_both(sequent.premises, sequent.conclusion)
    if proofs is None:
        return EntailmentResult(sequent, None, None, False)
    forward, contradiction = proofs
    holds = check_proof(sequent, forward).valid and check_proof(sequent, contradiction).valid
    return EntailmentResult(sequent, forward, contradiction, holds)


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
    for state, symbol in itertools.zip_longest(lts.chain, prior_trace):
        valuation = assignment[state.id]
        if symbol is None or prior_values[state.id] != valuation:
            # an event-less terminal passes trivially
            values = eval_event_leaves(state.combine, valuation) if state.combine is not None else (True, ())
            symbol = TraceSymbol(state.id, *values)
        trace.append(symbol)
        if not symbol.value:
            return tuple(trace), (state.id, _first_false_leaf(state.combine, valuation))
        facts.update(valuation)
        facts[state.id] = True
        for t in lts.outgoing(state.id):
            if not eval_formula(t.guard.formula, facts):
                return tuple(trace), (t.source, t.action)
    return tuple(trace), None


def _judge(lts: GuardedLTS, trace, failing, entailment: EntailmentResult | None, matching=None, ideal=None) -> AnalysisOutcome:
    if failing is not None:
        return AnalysisOutcome(FLAWED, trace, failing, Judgments(False, False, matching), None)
    ordered = ideal.judgments.partial_order if matching else partial_order_check(trace, lts)  # matching: the ideal trace
    judgments = Judgments(ordered, entailment.holds, matching)
    verdict = SECURE if judgments.partial_order and judgments.entailment else FLAWED
    return AnalysisOutcome(verdict, trace, None, judgments, entailment)


def analyze_protocol(model: ProtocolModel, env) -> AnalysisOutcome:
    """Walk `lts.chain` under the environment's event assignment.

    The two judgments are only established when every state's event tree
    and every transition guard on the way evaluate true; a run stopped at a
    false tree or guard reports them as not holding."""
    trace, failing = _walk(model.lts, apply_environment(model, env))
    return _judge(model.lts, trace, failing, None if failing else entailment_judgment(model.lts))


def dual_environment_verdict(model: ProtocolModel) -> DualVerdict:
    """Analyse under both environments and match the traces.

    Entailment does not depend on the environment, so it is judged once, and
    only if some walk reaches the terminal state. Secure means: the ideal run
    is secure and the non-ideal trace matches it in full. Equal traces mean
    the non-ideal walk reached the terminal state too, so its judgments are
    the ideal walk's."""
    ideal_values = apply_environment(model, model.environment(IDEAL))
    ideal_trace, ideal_failing = _walk(model.lts, ideal_values)
    trace, failing = _walk(model.lts, apply_environment(model, model.environment(NONIDEAL)), ideal_values, ideal_trace)
    entailment = entailment_judgment(model.lts) if ideal_failing is None or failing is None else None
    ideal = _judge(model.lts, ideal_trace, ideal_failing, entailment)
    matched = trace == ideal_trace
    nonideal = _judge(model.lts, trace, failing, entailment, matched, ideal)
    return DualVerdict(ideal, nonideal, matched, ideal.secure and matched)
