"""Chain analysis of protocol models.

A model's states are laid out as a state tree and walked in transition
order. Each state's event tree is evaluated under the environment's event
assignment; the first state whose tree comes out false stops the walk with a
flawed verdict and the first false leaf (in breadth-first order) as the
failing event. When every state passes, two judgments decide the verdict:
the visited sequence must be a repeat-free linear extension of transition
reachability, and the terminal state must be derivable from the chain both
by forward implication elimination and by refutation. Comparing the ideal
and non-ideal runs is a substring match over the recorded trace symbols.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .errors import BranchingPathError, ValidationError
from .guarded import GuardedLTS
from .kmp import kmp_match
from .logic.formulas import Atom, Implies
from .logic.proofs import Proof, Sequent, check_proof
from .logic.search import search_contradiction, search_forward_chain
from .models.core import IDEAL, NONIDEAL, ProtocolModel, apply_environment
from .trees import EventLeaf, StateTreeNode, bfs_traverse, eval_event_tree, event_leaves

SECURE = "secure"
FLAWED = "flawed"


@dataclass(frozen=True)
class TraceSymbol:
    """One analysed state: its event-tree outcome and the leaf outcomes in
    leaf order."""

    state: str
    value: bool
    event_values: tuple[bool, ...]

    def token(self) -> str:
        bits = "".join("1" if v else "0" for v in self.event_values)
        return f"{self.state}:{bits}"


@dataclass(frozen=True)
class Judgments:
    partial_order: bool
    entailment: bool
    matching: bool | None = None


@dataclass(frozen=True)
class EntailmentResult:
    sequent: Sequent
    forward: Proof | None
    contradiction: Proof | None
    holds: bool


@dataclass(frozen=True)
class AnalysisOutcome:
    verdict: str
    trace: tuple[TraceSymbol, ...]
    failing: tuple[str, str] | None
    judgments: Judgments
    entailment: EntailmentResult | None  # None when the walk stopped at a false tree

    @property
    def secure(self) -> bool:
        return self.verdict == SECURE


@dataclass(frozen=True)
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
    for node in bfs_traverse(tree):
        if isinstance(node, EventLeaf) and not eval_event_tree(node, valuation):
            return node.name
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
    per transition entail the terminal state."""
    for state in lts.states:
        outs = lts.outgoing(state.id)
        if len(outs) > 1:
            raise BranchingPathError(f"state {state.id!r} has {len(outs)} outgoing transitions")
    premises = tuple(
        [Atom(lts.initial)]
        + [Implies(Atom(t.source), Atom(t.target)) for t in lts.transitions]
    )
    return Sequent(premises, Atom(lts.terminal))


def entailment_judgment(lts: GuardedLTS) -> EntailmentResult:
    """Encode the transitions as implications and derive the terminal state
    twice: forward and by contradiction. Holds when both proofs check; a
    broken chain simply yields no derivation."""
    sequent = entailment_sequent(lts)
    premises, goal = sequent.premises, sequent.conclusion
    forward = search_forward_chain(premises, goal)
    contradiction = search_contradiction(premises, goal)
    holds = (
        forward is not None
        and contradiction is not None
        and check_proof(sequent, forward).valid
        and check_proof(sequent, contradiction).valid
    )
    return EntailmentResult(sequent, forward, contradiction, holds)


def _walk(model: ProtocolModel, env) -> tuple[tuple[TraceSymbol, ...], tuple[str, str] | None]:
    """Walk the state tree under the environment's event assignment, up to
    and including the first state whose event tree is false; that state and
    its first false leaf are the failing pair."""
    assignment = apply_environment(model, env)
    trace: list[TraceSymbol] = []
    node: StateTreeNode | None = build_state_tree(model.lts)
    while node is not None:
        if node.events is None:  # event-less terminal passes trivially
            trace.append(TraceSymbol(node.state, True, ()))
            node = node.next
            continue
        valuation = assignment[node.state]
        leaves = event_leaves(node.events)
        value = eval_event_tree(node.events, valuation)
        trace.append(
            TraceSymbol(
                node.state,
                value,
                tuple(eval_event_tree(leaf, valuation) for leaf in leaves),
            )
        )
        if not value:
            return tuple(trace), (node.state, _first_false_leaf(node.events, valuation))
        node = node.next
    return tuple(trace), None


def _judge(lts: GuardedLTS, trace, failing, entailment: EntailmentResult | None) -> AnalysisOutcome:
    if failing is not None:
        return AnalysisOutcome(FLAWED, trace, failing, Judgments(False, False), None)
    judgments = Judgments(partial_order_check(trace, lts), entailment.holds)
    verdict = SECURE if judgments.partial_order and judgments.entailment else FLAWED
    return AnalysisOutcome(verdict, trace, None, judgments, entailment)


def analyze_protocol(model: ProtocolModel, env) -> AnalysisOutcome:
    """Walk the state tree under the environment's event assignment.

    The two judgments are only established when every state's event tree
    evaluates true; a run stopped at a false tree reports them as not
    holding."""
    trace, failing = _walk(model, env)
    return _judge(model.lts, trace, failing, None if failing else entailment_judgment(model.lts))


def dual_environment_verdict(model: ProtocolModel) -> DualVerdict:
    """Analyse under both environments and match the traces.

    Entailment does not depend on the environment, so it is judged once, and
    only if some walk reaches the terminal state. Secure means: the ideal run
    is secure, the non-ideal trace matches it in full, and the non-ideal
    judgments hold."""
    walks = [_walk(model, model.environment(kind)) for kind in (IDEAL, NONIDEAL)]
    reached = any(failing is None for _, failing in walks)
    entailment = entailment_judgment(model.lts) if reached else None
    ideal, nonideal = (_judge(model.lts, trace, failing, entailment) for trace, failing in walks)
    matched = (
        len(nonideal.trace) == len(ideal.trace)
        and kmp_match(nonideal.trace, ideal.trace, 1) is not None
    )
    secure = (
        ideal.secure
        and matched
        and nonideal.judgments.partial_order
        and nonideal.judgments.entailment
    )
    nonideal = replace(nonideal, judgments=replace(nonideal.judgments, matching=matched))
    return DualVerdict(ideal, nonideal, matched, secure)


def trace_line(trace: Sequence[TraceSymbol]) -> str:
    """Space-separated `state:bits` tokens; `(empty)` for an empty trace."""
    if not trace:
        return "(empty)"
    return " ".join(sym.token() for sym in trace)
