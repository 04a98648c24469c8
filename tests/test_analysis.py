import pytest

from lpict.analysis import (
    Judgments,
    TraceSymbol,
    analyze_protocol,
    build_state_tree,
    chain_states,
    dual_environment_verdict,
    entailment_judgment,
    partial_order_check,
)
from lpict.errors import BranchingPathError, ValidationError
from lpict.guarded import Event, Guard, GuardedTransition, ResistTag, StateNode, build_guarded_lts
from lpict.logic.formulas import Atom, Not, Or
from lpict.logic.proofs import check_proof
from lpict.models import (
    AttackerCapability,
    EnvironmentConfig,
    ProtocolModel,
    builtin_dh,
    builtin_tls13,
    with_attackers,
)
from lpict.trees import StateTreeNode, bfs_traverse


def simple_state(sid, event):
    return StateNode(sid, (Event(event),), Atom(event))


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


def test_branching_message_names_first_state_on_the_walk():
    # B is declared first, but the walk from the initial state A meets A's
    # two transitions before B's
    states = [simple_state(s, f"e{s}") for s in ("B", "A", "C", "D")]
    transitions = [
        GuardedTransition(a, f"{a}{b}", b, Guard(Atom(a)))
        for a, b in (("A", "B"), ("A", "C"), ("B", "C"), ("B", "D"), ("C", "D"))
    ]
    lts = build_guarded_lts(states, transitions, "A", "D")
    with pytest.raises(BranchingPathError) as exc:
        entailment_judgment(lts)
    assert str(exc.value) == "state 'A' has 2 outgoing transitions"
    model = ProtocolModel("branching", lts, (EnvironmentConfig("ideal"),))
    with pytest.raises(BranchingPathError) as exc:
        analyze_protocol(model, model.environment("ideal"))
    assert str(exc.value) == "state 'A' has 2 outgoing transitions"


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
    # S3 -> S4 is missing, so the terminal state would have no derivation;
    # such a system cannot be built, even directly
    from lpict.guarded import GuardedLTS

    ids = ["S1", "S2", "S3", "S4"]
    states = tuple(simple_state(s, f"ev_{s}") for s in ids)
    transitions = tuple(
        GuardedTransition(a, f"{a}->{b}", b, Guard(Atom(a)))
        for a, b in [("S1", "S2"), ("S2", "S3")]
    )
    with pytest.raises(ValidationError, match="^state 'S4' is unreachable from 'S1'$"):
        GuardedLTS(states, transitions, "S1", "S4")


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
    assert " ".join(sym.token() for sym in outcome.trace).startswith("S1:11111 S2:11111111")


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


def test_all_tautology_trees_leave_verdict_to_judgments():
    # when every event tree is a tautology the walk always passes, so the
    # verdict is decided by the two judgments alone, attackers or not
    from lpict.models import AttackerCapability, EnvironmentConfig, ProtocolModel

    ids = ["A", "B", "C"]
    states = tuple(
        StateNode(
            s,
            (Event(f"e{s}"),),
            Or(Atom(f"e{s}"), Not(Atom(f"e{s}"))),
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
            Atom(f"ev_{s}"),
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


GUARDED = """
protocol "Guarded"
state A {
  event a resists mitm
}
state B {
  event b
  combine expr b | !b
}
state C {
  event c resists mitm
}
transition A -> B
transition B -> C
initial A
terminal C
environment ideal
environment nonideal attackers mitm
"""


def guarded_model(first=None, second=None, text=GUARDED):
    from lpict.models import load_model

    if first is not None:
        text = text.replace("transition A -> B", f"transition A -> B action go when {first}")
    if second is not None:
        text = text.replace("transition B -> C", f"transition B -> C action on when {second}")
    return load_model(text)


def test_false_guard_is_flawed_and_names_the_transition():
    # the North-star example: the only guard is !a, and a holds
    model = guarded_model(first="!a")
    for kind in ("ideal", "nonideal"):
        outcome = analyze_protocol(model, model.environment(kind))
        assert outcome.verdict == "flawed"
        assert outcome.failing == ("A", "go")
        assert [sym.state for sym in outcome.trace] == ["A"]
        assert outcome.judgments == Judgments(False, False)
        assert outcome.entailment is None
    verdict = dual_environment_verdict(model)
    assert verdict.secure is False and verdict.ideal.failing == ("A", "go")
    assert verdict.ideal.entailment is None


# b holds in the ideal run and mitm breaks it in the other; B's tree is a
# tautology, so the walk reaches B's guard in both.
@pytest.mark.parametrize(
    "first,second,ideal,nonideal",
    [
        ("a & A", "a & A & B", True, True),  # atoms of visited states and events hold
        ("a & A", "b & B", True, False),
        ("!B & !C", "!C", True, True),  # the target and later states do not yet hold
        ("B", None, False, False),
        ("b", None, False, False),  # nor do the events of unvisited states
        (None, "!b", False, True),
        (None, "A -> c", False, False),
    ],
)
def test_guard_valuation(first, second, ideal, nonideal):
    model = guarded_model(first, second)
    for kind, want in (("ideal", ideal), ("nonideal", nonideal)):
        outcome = analyze_protocol(model, model.environment(kind))
        assert outcome.secure is want, kind
        if not want:
            assert outcome.failing == (("B", "on") if second else ("A", "go")), kind


def test_event_takes_its_value_in_the_latest_state_that_declares_it():
    # x holds in A in both runs; in B it holds only in the ideal run
    text = GUARDED.replace("event a resists", "event x resists").replace("b | !b", "x | !x")
    text = text.replace("event b\n", "event x\n")
    model = guarded_model("x", "x", text)
    assert analyze_protocol(model, model.environment("ideal")).secure
    outcome = analyze_protocol(model, model.environment("nonideal"))
    assert outcome.failing == ("B", "on")
    assert [sym.state for sym in outcome.trace] == ["A", "B"]


def test_event_named_like_a_state_is_rejected():
    # guards range over state and event atoms, so the two must not share a name
    from lpict.models import load_model

    with pytest.raises(ValidationError, match="'B' names both a state and an event"):
        load_model(GUARDED.replace("event c resists", "event B resists"))


def wide_model_text(n, weak):
    """One state of n events joined by a left-deep `and` chain, whose
    transition is guarded by the conjunction of all n events; every event
    resists mitm but `weak`."""
    events = [f"  event e{i} resists {'replay' if i == weak else 'mitm'}" for i in range(n)]
    guard = " & ".join(f"e{i}" for i in range(n))
    return "\n".join(
        ['protocol "Wide"', "state A {", *events, "  combine " + " ".join(["and"] * (n - 1)), "}"]
        + ["state B { }", f"transition A -> B when {guard}", "initial A", "terminal B"]
        + ["environment ideal", "environment nonideal attackers mitm"]
    ) + "\n"


def test_wide_state_does_not_recurse():
    # 1500 events and a 1500-conjunct guard: reading, walking and judging
    # each take a loop, not a recursion, per event
    from lpict.models import load_model

    verdict = dual_environment_verdict(load_model(wide_model_text(1500, weak=700)))
    assert verdict.ideal.secure
    assert verdict.ideal.trace[0].event_values == (True,) * 1500
    assert verdict.nonideal.failing == ("A", "e700")
    assert not verdict.secure
    assert dual_environment_verdict(load_model(wide_model_text(1500, weak=None))).secure


def test_wide_state_through_the_cli(tmp_path, capsys):
    # exit 2 would mean the input was rejected as nested too deeply
    from lpict.cli import run_cli

    for weak, code in ((None, 0), (700, 1)):
        path = tmp_path / "wide.model"
        path.write_text(wide_model_text(1500, weak), encoding="utf-8")
        assert run_cli(["analyze", "--model", str(path), "--dual", "--format", "json"]) == code
        assert capsys.readouterr().err == ""


def test_wide_state_renders_and_reads_back():
    # model == and hash do not recurse once per event either
    from lpict.models import load_model, render_model

    model = load_model(wide_model_text(1500, weak=None))
    text = render_model(model)
    assert "  combine " + " ".join(["and"] * 1499) in text.splitlines()
    assert load_model(text) == model
    assert hash(load_model(text)) == hash(model)
    assert load_model(wide_model_text(1500, weak=700)) != model
