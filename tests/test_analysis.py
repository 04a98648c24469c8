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

from conftest import profiled_calls


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


# SHA-256 of `analyze --dual` on chain_model(n), planted at its middle state or
# secure, with the duration zeroed. The hashes were taken before the reader,
# the proof tables and the JSON rendering were made faster.
DUAL_REPORT_SHA256 = {
    (10, False, "json"): "d3e8248bac6a8829065b2f3028820062b534104c1581254008b51dee2098c769",
    (10, False, "text"): "aa3e55976f0518fa72465820174e9d668a8195263bea2f9773cc583d317bff9e",
    (10, True, "json"): "30c405812873c004f8af49ca27cd03340c83bc45401a61b1d184fc2e625279bb",
    (10, True, "text"): "e6c7ffc082e97f7140f0d36b224bca4dcfb82eb8d9266f1ebe6c2eeef8bdcf9b",
    (66, False, "json"): "aec303b8a80a40c20140bc1c465509afb3f4489b1bfbace3162952e729a80a0c",
    (66, False, "text"): "4b1d158ffd05e1a998f0cf7f9f5e465afd48df6467801276aabb807f326e1424",
    (66, True, "json"): "2ea2a54f079208511ee5ce7591361069558d438b42447c9f6bb2b130384a0392",
    (66, True, "text"): "15ecf70cf56207986dfe48e0ff9815176583e0771214f6c9ecf33142a49648fd",
    (400, False, "json"): "5c44bd7c08927a2ab57b10346aa76bb60d1464ad21c50eec0e94d2bea05fcb49",
    (400, False, "text"): "86742bb8ed30d2247080bc1009df7dd10911cf22b1cae1880bcb7ea2118b1acc",
    (400, True, "json"): "c6eb13c0b1c530690ed96241ef83fc50dde256af4367ed6248ffd29cc3584cd0",
    (400, True, "text"): "d323c8fa4e8a69c8f304a18a6998dec3cd42a0ab1b285c530f29fc6328797454",
}


@pytest.mark.parametrize("n, planted, format", sorted(DUAL_REPORT_SHA256))
def test_long_dual_reports_keep_their_bytes(n, planted, format, tmp_path, capsys):
    import hashlib
    import re

    from lpict.cli import run_cli
    from lpict.models import render_model

    path = tmp_path / "chain.model"
    path.write_text(render_model(chain_model(n, f"C{n // 2}" if planted else None)), encoding="utf-8")
    assert run_cli(["analyze", "--model", str(path), "--dual", "--format", format]) == (1 if planted else 0)
    out = re.sub(r'(duration: |"duration_ms": )[0-9.eE+-]+', r"\g<1>0", capsys.readouterr().out)
    assert hashlib.sha256(out.encode()).hexdigest() == DUAL_REPORT_SHA256[n, planted, format]


def shaped_chain_text(n, variant):
    """Model text of an n-state chain that uses every shape the reader knows:
    one event without `combine`, `combine and`, `combine or`, `combine or and`,
    `combine expr` with `!`, `alias`, payloads, actions and `when` guards that
    hold. One state near the middle differs by variant: "planted" gives an
    `and` state an event that does not resist mitm, and "blocked" gives an `or`
    state such an event and its transition a guard that the ideal run fails
    and the non-ideal run passes."""
    mid = n // 2 + ((2 if variant == "blocked" else 1) - n // 2) % 6
    lines = ['protocol "Shapes"', ""]
    for i in range(1, n + 1):
        kind = i % 6 if i < n else 0
        if kind == 5:
            lines.append(f"alias C{i} = C{i - 3}")
            continue
        weak = "resists replay" if variant == "blocked" and i == mid else "resists mitm replay"
        if variant == "planted" and i == mid:
            weak = "resists replay integrity"
        lines.append(f"state C{i} {{")
        if kind == 0:
            lines.append(f"  event e{i}a {weak}")
        elif kind == 1:
            lines.append(f"  event e{i}a {weak} payload k{i} nonce")
            lines.append(f"  event e{i}b resists mitm replay integrity")
            lines.append("  combine and")
        elif kind == 2:
            lines.append(f"  event e{i}a {weak}")
            lines.append(f"  event e{i}b resists confidentiality mitm replay payload k{i}")
            lines.append("  combine or")
        elif kind == 3:
            lines += [f"  event e{i}{c} resists mitm replay" for c in "bc"]
            lines.append(f"  event e{i}a {weak}")
            lines.append(f"  combine expr e{i}a & (e{i}b | !e{i}c)  # a tree by formula")
        else:
            lines += [f"  event e{i}{c} resists mitm replay" for c in "ab"]
            lines.append(f"  event e{i}c {weak}")
            lines.append("  combine or and")
        lines.append("}")
    for i in range(1, n):
        source = f"C{i}"
        line = f"transition {source} -> C{i + 1}"
        if i % 4 == 0:
            line += f" action m{i}"
        if variant == "blocked" and i == mid:
            line += f" when {source} & !e{i}a"
        elif i % 6 == 1:
            line += f" when e{i}b & {source} | false"
        lines.append(line)
    lines += ["initial C1", f"terminal C{n}", "environment ideal", "environment nonideal attackers mitm replay"]
    return "\n".join(lines) + "\n"


# SHA-256 of `analyze --dual` on shaped_chain_text(n, variant), with the
# duration zeroed, taken before the reader, the walks and the proofs were
# made cheaper per state.
SHAPED_REPORT_SHA256 = {
    (12, "blocked", "json"): "9d04591878d2936276a67cf4116cfc8d414c60f643cd96ad547fe60900e893cf",
    (12, "blocked", "text"): "c5e101d3485bb46e2fb75b32d7ab76b93339d0fc107ca4eb7d81b17419f3dd6c",
    (12, "planted", "json"): "a94c6e9cd3b8b4d49261374fffe45b895b18b2b8a6aaed36ef7dd54d650f0af1",
    (12, "planted", "text"): "4fe70ac27e62a5bf47188aa90315b210636f55c0f0b622ef81bbfc1d2fe70efa",
    (12, "secure", "json"): "7c2728f0a64246f76a35a109a92d713ef3b2f31c952dd9746e0d596b21e4783d",
    (12, "secure", "text"): "9a29c302d93432996aabce37187e537e92090bbd88f9334d80651aeef8ccd0a6",
    (100, "blocked", "json"): "82b39c3b93320620986d02bbf581b8120553ad6b930418ea1a747fbbbbbeaf17",
    (100, "blocked", "text"): "180d10f213ceeea6e9d0c87d53eb46863c9af739b49508a659407d9700a2393f",
    (100, "planted", "json"): "f313269814a781e9270baa933c116e32f5302e902a1e64beb8f8bce2cb45a645",
    (100, "planted", "text"): "54bd0877c217ee1e5e19af31c2ebad4188ecc1feb25061f6450a33879b6821eb",
    (100, "secure", "json"): "8682db87ade34774ce99f9205a12c7b1ebaf0711516e35322106b898f857ac6c",
    (100, "secure", "text"): "c041e389224399495b532c4ce59e53968676dc3893ca57477499c7eafc23a1c1",
}


@pytest.mark.parametrize("n, variant, format", sorted(SHAPED_REPORT_SHA256))
def test_shaped_dual_reports_keep_their_bytes(n, variant, format, tmp_path, capsys):
    import hashlib
    import re

    from lpict.cli import run_cli

    path = tmp_path / "shapes.model"
    path.write_text(shaped_chain_text(n, variant), encoding="utf-8")
    assert run_cli(["analyze", "--model", str(path), "--dual", "--format", format]) == (0 if variant == "secure" else 1)
    out = re.sub(r'(duration: |"duration_ms": )[0-9.eE+-]+', r"\g<1>0", capsys.readouterr().out)
    assert hashlib.sha256(out.encode()).hexdigest() == SHAPED_REPORT_SHA256[n, variant, format]


def _profiled_calls(argv):
    """The profiled calls of one `run_cli(argv)` with its output discarded."""
    import contextlib
    import io

    from lpict.cli import run_cli

    with contextlib.redirect_stdout(io.StringIO()):
        return profiled_calls(run_cli, argv)


def test_a_dual_analysis_costs_the_same_calls_per_state(tmp_path):
    # linear in the chain's length, shown by counting calls rather than by timing
    calls = {}
    for n in (100, 400, 1600):
        path = tmp_path / f"chain{n}.model"
        path.write_text(shaped_chain_text(n, "planted"), encoding="utf-8")
        argv = ["analyze", "--model", str(path), "--dual", "--format", "json"]
        if n == 100:
            _profiled_calls(argv)  # one-time costs, such as compiled patterns
        calls[n] = _profiled_calls(argv)
    short, long = (calls[400] - calls[100]) / 300, (calls[1600] - calls[400]) / 1200
    assert abs(long - short) <= 0.05 * short, (short, long)
