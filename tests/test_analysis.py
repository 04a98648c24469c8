import pytest

from lpict.analysis import (
    TraceSymbol,
    analyze_protocol,
    build_state_tree,
    chain_states,
    dual_environment_verdict,
    entailment_judgment,
    partial_order_check,
    trace_line,
)
from lpict.errors import BranchingPathError, ValidationError
from lpict.guarded import Event, Guard, GuardedTransition, ResistTag, StateNode, build_guarded_lts
from lpict.logic.formulas import Atom
from lpict.logic.proofs import check_proof
from lpict.models import (
    AttackerCapability,
    EnvironmentConfig,
    ProtocolModel,
    builtin_dh,
    builtin_tls13,
    with_attackers,
)
from lpict.trees import EventLeaf, StateTreeNode, bfs_traverse


def simple_state(sid, event):
    return StateNode(sid, (Event(event),), EventLeaf(event))


def make_chain(ids):
    states = [simple_state(s, f"ev_{s}") for s in ids]
    transitions = [
        GuardedTransition(a, f"{a}->{b}", b, Guard(Atom(a))) for a, b in zip(ids, ids[1:])
    ]
    return build_guarded_lts(states, transitions, ids[0], ids[-1])


def test_chain_states_tls():
    assert chain_states(builtin_tls13().lts) == ["S1", "S2", "S3", "S4", "S5", "S6", "S_end"]


def test_build_state_tree_spine():
    tree = build_state_tree(builtin_tls13().lts)
    spine = []
    node = tree
    while node is not None:
        spine.append(node.state)
        node = node.next
    assert spine == ["S1", "S2", "S3", "S4", "S5", "S6", "S_end"]
    visited = [n.state for n in bfs_traverse(tree) if isinstance(n, StateTreeNode)]
    assert visited == spine


def test_single_state_tree():
    lts = make_chain(["Only"])
    tree = build_state_tree(lts)
    assert tree.state == "Only" and tree.next is None


def test_branching_rejected():
    states = [simple_state(s, f"e{s}") for s in ("A", "B", "C")]
    transitions = [
        GuardedTransition("A", "t1", "B", Guard(Atom("A"))),
        GuardedTransition("A", "t2", "C", Guard(Atom("A"))),
        GuardedTransition("B", "t3", "C", Guard(Atom("B"))),
    ]
    lts = build_guarded_lts(states, transitions, "A", "C")
    with pytest.raises(BranchingPathError):
        build_state_tree(lts)
    with pytest.raises(BranchingPathError):
        partial_order_check(["A", "B", "C"], lts)
    with pytest.raises(BranchingPathError):
        entailment_judgment(lts)


def test_partial_order_check():
    lts = make_chain(["S1", "S2", "S3", "S4", "S5", "S6", "S7"])
    ids = ["S1", "S2", "S3", "S4", "S5", "S6", "S7"]
    assert partial_order_check(ids, lts) is True
    assert partial_order_check(["S1", "S3", "S2"], lts) is False
    assert partial_order_check(["S1", "S1"], lts) is False
    assert partial_order_check(["S1", "S3", "S7"], lts) is True  # skipping keeps the order
    assert partial_order_check(["S2", "S5", "S4", "S6"], lts) is False
    assert partial_order_check([], lts) is True
    with pytest.raises(ValidationError):
        partial_order_check(["S1", "S99"], lts)


def test_partial_order_accepts_trace_symbols():
    lts = make_chain(["A", "B"])
    trace = (TraceSymbol("A", True, (True,)), TraceSymbol("B", True, (True,)))
    assert partial_order_check(trace, lts) is True


def test_entailment_broken_chain_does_not_hold():
    # constructed directly: S3 -> S4 is missing, so the terminal state has
    # no derivation and the judgment reports not holding
    from lpict.guarded import GuardedLTS

    ids = ["S1", "S2", "S3", "S4"]
    states = tuple(simple_state(s, f"ev_{s}") for s in ids)
    transitions = tuple(
        GuardedTransition(a, f"{a}->{b}", b, Guard(Atom(a)))
        for a, b in [("S1", "S2"), ("S2", "S3")]
    )
    lts = GuardedLTS(states, transitions, "S1", "S4")
    result = entailment_judgment(lts)
    assert result.holds is False
    assert result.forward is None and result.contradiction is None


def test_entailment_judgment_line_counts():
    lts = make_chain(["S1", "S2"])
    result = entailment_judgment(lts)
    assert result.holds
    assert len(result.forward) == 3  # 2k+1 with k=1
    assert len(result.contradiction) == 5  # 2k+3 with k=1
    tls = entailment_judgment(builtin_tls13().lts)
    assert len(tls.forward) == 13 and len(tls.contradiction) == 15


def test_analyze_tls_ideal():
    model = builtin_tls13()
    outcome = analyze_protocol(model, model.environment("ideal"))
    assert outcome.verdict == "secure"
    assert len(outcome.trace) == 7
    assert all(sym.value for sym in outcome.trace)
    assert outcome.failing is None
    assert trace_line(outcome.trace).startswith("S1:11111 S2:11111111")


def test_analyze_tls_nonideal_replay():
    model = with_attackers(builtin_tls13(), ["replay"])
    outcome = analyze_protocol(model, model.environment("nonideal"))
    assert outcome.verdict == "secure"


def test_analyze_dh_mitm_flawed():
    model = builtin_dh()
    outcome = analyze_protocol(model, model.environment("nonideal"))
    assert outcome.verdict == "flawed"
    assert outcome.failing == ("ExchangeA", "public_value_send")
    assert outcome.trace[-1].value is False


def test_analysis_deterministic():
    model = builtin_tls13()
    first = analyze_protocol(model, model.environment("nonideal"))
    second = analyze_protocol(model, model.environment("nonideal"))
    assert first == second


def test_dual_tls_secure():
    verdict = dual_environment_verdict(builtin_tls13())
    assert verdict.ideal.verdict == "secure"
    assert verdict.nonideal.verdict == "secure"
    assert verdict.matched is True
    assert verdict.secure is True
    assert verdict.nonideal.judgments.matching is True


def test_dual_dh_mitm_mismatch():
    verdict = dual_environment_verdict(builtin_dh())
    assert verdict.matched is False
    assert verdict.secure is False


def test_dual_empty_attackers_degenerates_to_ideal():
    model = with_attackers(builtin_tls13(), [])
    verdict = dual_environment_verdict(model)
    assert verdict.ideal.trace == verdict.nonideal.trace
    assert verdict.secure is True


def test_dual_requires_both_environments():
    from lpict.errors import MissingEnvironmentError
    from lpict.models import ProtocolModel

    base = builtin_dh()
    only_ideal = ProtocolModel(base.name, base.lts, (EnvironmentConfig("ideal"),))
    with pytest.raises(MissingEnvironmentError):
        dual_environment_verdict(only_ideal)


def test_dual_tls_secure_for_all_resisted_subsets():
    # every event of every state resists replay and mitm, so any attacker
    # subset of those two capabilities leaves the dual verdict secure
    for subset in ([], ["replay"], ["mitm"], ["replay", "mitm"]):
        verdict = dual_environment_verdict(with_attackers(builtin_tls13(), subset))
        assert verdict.secure is True


def test_dual_secure_implies_component_verdicts(rng):
    # randomized attacker subsets over both built-ins
    from lpict.models import AttackerCapability

    caps = [c.value for c in AttackerCapability]
    for model_ctor in (builtin_tls13, builtin_dh):
        for _ in range(20):
            subset = [c for c in caps if rng.random() < 0.4]
            verdict = dual_environment_verdict(with_attackers(model_ctor(), subset))
            if verdict.secure:
                assert verdict.ideal.verdict == "secure"
                assert verdict.nonideal.verdict == "secure"


def test_trace_line_empty():
    assert trace_line(()) == "(empty)"


def test_all_tautology_trees_leave_verdict_to_judgments():
    # when every event tree is a tautology the walk always passes, so the
    # verdict is decided by the two judgments alone, attackers or not
    from lpict.models import AttackerCapability, EnvironmentConfig, ProtocolModel
    from lpict.trees import EventLeaf, EventOp

    ids = ["A", "B", "C"]
    states = tuple(
        StateNode(
            s,
            (Event(f"e{s}"),),
            EventOp("or", EventLeaf(f"e{s}"), EventLeaf(f"e{s}", negated=True)),
        )
        for s in ids
    )
    transitions = tuple(
        GuardedTransition(a, f"{a}->{b}", b, Guard(Atom(a))) for a, b in zip(ids, ids[1:])
    )
    lts = build_guarded_lts(states, transitions, "A", "C")
    model = ProtocolModel(
        "Taut",
        lts,
        (
            EnvironmentConfig("ideal"),
            EnvironmentConfig("nonideal", frozenset(AttackerCapability)),
        ),
    )
    outcome = analyze_protocol(model, model.environment("nonideal"))
    assert outcome.verdict == "secure"
    assert outcome.judgments.partial_order and outcome.judgments.entailment


def test_tautology_tree_keeps_verdict_but_breaks_match():
    # impersonate falsifies ApplicationData; the terminal tautology keeps the
    # per-state walk green, but the changed bits break the dual trace match
    model = with_attackers(builtin_tls13(), ["impersonate"])
    verdict = dual_environment_verdict(model)
    assert verdict.nonideal.verdict == "secure"
    s6 = next(sym for sym in verdict.nonideal.trace if sym.state == "S6")
    assert s6.value is True and s6.event_values == (False, True)
    assert verdict.matched is False
    assert verdict.secure is False


def chain_model(n, planted_at=None):
    """An n-state chain whose events resist replay and mitm, except the one
    event of state `planted_at`, which lacks mitm resistance."""
    full = frozenset({ResistTag.REPLAY, ResistTag.MITM})
    ids = [f"C{i}" for i in range(1, n + 1)]
    states = [
        StateNode(
            s,
            (Event(f"ev_{s}", full - {ResistTag.MITM} if s == planted_at else full),),
            EventLeaf(f"ev_{s}"),
        )
        for s in ids
    ]
    transitions = [
        GuardedTransition(a, f"{a}->{b}", b, Guard(Atom(a))) for a, b in zip(ids, ids[1:])
    ]
    attackers = frozenset({AttackerCapability.REPLAY, AttackerCapability.MITM})
    return ProtocolModel(
        f"chain{n}",
        build_guarded_lts(states, transitions, ids[0], ids[-1]),
        (EnvironmentConfig("ideal"), EnvironmentConfig("nonideal", attackers)),
    )


@pytest.mark.parametrize("n", [66, 1000])
def test_long_chain_is_secure_with_full_proofs(n):
    # no depth limit: a chain of n states is proved through k = n - 1 implications
    verdict = dual_environment_verdict(chain_model(n))
    assert verdict.secure is True
    entailment = verdict.ideal.entailment
    assert verdict.nonideal.entailment is entailment and entailment.holds
    k = n - 1
    assert len(entailment.forward) == 2 * k + 1
    assert len(entailment.contradiction) == 2 * k + 3
    assert check_proof(entailment.sequent, entailment.forward).valid
    assert check_proof(entailment.sequent, entailment.contradiction).valid
    assert verdict.ideal.judgments.partial_order and verdict.nonideal.judgments.partial_order


def test_planted_long_chain_names_failing_state():
    verdict = dual_environment_verdict(chain_model(400, planted_at="C237"))
    assert verdict.ideal.secure and verdict.ideal.entailment.holds
    assert verdict.nonideal.verdict == "flawed"
    assert verdict.nonideal.failing == ("C237", "ev_C237")
    assert len(verdict.nonideal.trace) == 237
    assert verdict.matched is False and verdict.secure is False
