import pytest

from lpict.errors import ValidationError
from lpict.guarded import (
    Event,
    EventMessage,
    Guard,
    GuardedTransition,
    StateNode,
    apply_guarded_rule,
    build_guarded_lts,
    check_precondition,
)
from lpict.logic.formulas import And, Atom, Implies, Not, parse_formula
from lpict.logic.semantics import all_valuations
from lpict.pi.parser import parse_process
from lpict.pi.reduction import reduce_step
from lpict.trees import build_event_tree


def simple_state(sid, *event_names):
    events = tuple(Event(n) for n in event_names)
    combine = build_event_tree(events, ("and",) * (len(events) - 1)) if events else None
    return StateNode(sid, events, combine)


def chain_lts(n=3):
    states = [simple_state(f"S{i}", f"e{i}") for i in range(1, n + 1)]
    transitions = [
        GuardedTransition(f"S{i}", f"t{i}", f"S{i+1}", Guard(Atom(f"S{i}")))
        for i in range(1, n)
    ]
    return build_guarded_lts(states, transitions, "S1", f"S{n}")


def test_build_valid_chain():
    lts = chain_lts()
    assert lts.state_ids == ("S1", "S2", "S3")
    assert lts.outgoing("S1")[0].target == "S2"


def test_degenerate_single_state():
    lts = build_guarded_lts([simple_state("S1", "e")], [], "S1", "S1")
    assert lts.initial == lts.terminal == "S1"


def test_dangling_target_rejected():
    states = [simple_state("S1", "e1")]
    bad = [GuardedTransition("S1", "t", "S9", Guard(Atom("S1")))]
    with pytest.raises(ValidationError, match="S9"):
        build_guarded_lts(states, bad, "S1", "S1")


def test_duplicate_state_id_rejected():
    states = [simple_state("S1", "e1"), simple_state("S1", "e2")]
    with pytest.raises(ValidationError, match="duplicate"):
        build_guarded_lts(states, [], "S1", "S1")


def test_unreachable_state_rejected():
    states = [simple_state("S1", "e1"), simple_state("S2", "e2")]
    with pytest.raises(ValidationError, match="unreachable"):
        build_guarded_lts(states, [], "S1", "S1")


def test_duplicate_event_names_rejected():
    state = StateNode("S1", (Event("e"), Event("e")), build_event_tree(["e", "e"], ["and"]))
    with pytest.raises(ValidationError, match="duplicate event"):
        build_guarded_lts([state], [], "S1", "S1")


@pytest.mark.parametrize(
    "tree, message",
    [
        (Atom("other"), "does not match its events"),
        (And(Atom("e1"), Not(Atom("e1"))), "does not match its events"),
        (Implies(Atom("e1"), Atom("e2")), "allow only atoms"),
        (And(Atom("e1"), Not(Not(Atom("e2")))), "allow only atoms"),
    ],
)
def test_event_tree_must_be_an_event_formula_over_its_events(tree, message):
    state = StateNode("S1", (Event("e1"), Event("e2")), tree)
    with pytest.raises(ValidationError, match=message):
        build_guarded_lts([state], [], "S1", "S1")


def test_non_terminal_needs_events():
    states = [StateNode("S1", (), None), simple_state("S2", "e2")]
    transitions = [GuardedTransition("S1", "t", "S2", Guard(Atom("S1")))]
    with pytest.raises(ValidationError, match="no events"):
        build_guarded_lts(states, transitions, "S1", "S2")


def test_guard_atoms_must_resolve():
    states = [simple_state("S1", "e1"), simple_state("S2", "e2")]
    transitions = [GuardedTransition("S1", "t", "S2", Guard(Atom("ghost")))]
    with pytest.raises(ValidationError, match="ghost"):
        build_guarded_lts(states, transitions, "S1", "S2")


def test_event_message_nonempty():
    with pytest.raises(ValidationError):
        EventMessage(())


def test_check_precondition_state_atom():
    lts = chain_lts()
    t = lts.outgoing("S1")[0]
    assert check_precondition(lts, t, [Atom("S1")]) is True
    assert check_precondition(lts, t, [Atom("S2")]) is False


def test_check_precondition_conjunctive_guard():
    # guard e1 & e2 under facts naming both events: the truth-table oracle
    # agrees with derivability from those facts
    states = [simple_state("S1", "e1", "e2"), simple_state("S2", "e3")]
    guard = Guard(And(Atom("e1"), Atom("e2")))
    transitions = [GuardedTransition("S1", "t", "S2", guard)]
    lts = build_guarded_lts(states, transitions, "S1", "S2")
    t = lts.transitions[0]
    assert check_precondition(lts, t, [Atom("S1"), Atom("e1"), Atom("e2")]) is True
    assert check_precondition(lts, t, [Atom("S1"), Atom("e1")]) is False


def test_check_precondition_via_implication():
    # S2 derivable from {S1, S1 -> S2} by implication elimination
    states = [simple_state("S1", "e1"), simple_state("S2", "e2"), simple_state("S3", "e3")]
    transitions = [
        GuardedTransition("S1", "t1", "S2", Guard(Atom("S1"))),
        GuardedTransition("S2", "t2", "S3", Guard(Atom("S2"))),
    ]
    lts = build_guarded_lts(states, transitions, "S1", "S3")
    t = lts.outgoing("S2")[0]
    facts = [Atom("S1"), Implies(Atom("S1"), Atom("S2"))]
    assert check_precondition(lts, t, facts) is True


def test_check_precondition_monotone(rng):
    lts = chain_lts()
    t = lts.outgoing("S1")[0]
    base = [Atom("S1")]
    assert check_precondition(lts, t, base)
    extra = [Atom("e1"), Atom("e2"), Implies(Atom("e1"), Atom("S2"))]
    for i in range(len(extra)):
        assert check_precondition(lts, t, base + extra[: i + 1])


def test_guarded_rules_with_true_guard_match_reduction():
    guard = Guard(parse_formula("g"))
    for source in ("tau.a<>.0 + b.0", "(a.p<>.0 + m.0) | (a<>.q<>.0 + n.0)", "x(y).y<c>.0 | x<z>.0"):
        term = parse_process(source)
        plain = reduce_step(term)
        for rule in ("TAU", "REACT", "REACT'"):
            expected = {t for tag, t in plain if tag == rule}
            assert apply_guarded_rule(rule, term, guard, {"g": True}) == expected
        for rule in ("PAR", "RES", "STRUCT"):
            assert apply_guarded_rule(rule, term, guard, {"g": True}) == {t for _, t in plain}


def test_guarded_rules_with_false_guard_block():
    guard = Guard(parse_formula("g"))
    term = parse_process("(a.p<>.0 + m.0) | (a<>.q<>.0 + n.0)")
    for rule in ("TAU", "REACT", "REACT'", "PAR", "RES", "STRUCT"):
        assert apply_guarded_rule(rule, term, guard, {"g": False}) == set()


def test_guarded_rule_unknown_tag():
    with pytest.raises(ValidationError):
        apply_guarded_rule("LMAGIC", parse_process("0"), Guard(Atom("g")), {"g": True})


def test_unsatisfiable_guard_blocks_everything(rng):
    from conftest import random_term

    guard = Guard(parse_formula("g & !g"))
    for _ in range(30):
        term = random_term(rng, rng.randrange(0, 4))
        for rule in ("TAU", "REACT", "REACT'", "STRUCT"):
            assert apply_guarded_rule(rule, term, guard, {"g": True}) == set()


def test_event_tree_fold_exhaustive(rng):
    # tree evaluation equals a direct recursive fold on every valuation of
    # up to 8 leaves
    from lpict.trees import eval_event_tree

    for _ in range(40):
        n = rng.randrange(1, 9)
        names = [f"e{i}" for i in range(n)]
        ops = [rng.choice(["and", "or"]) for _ in range(n - 1)]
        tree = build_event_tree(names, ops)
        for valuation in all_valuations(names):
            direct = valuation[names[0]]
            for op, name in zip(ops, names[1:]):
                direct = (direct and valuation[name]) if op == "and" else (direct or valuation[name])
            assert eval_event_tree(tree, valuation) == direct


def test_index_contract():
    lts = chain_lts(4)
    with pytest.raises(KeyError):
        lts.state("nope")
    assert lts.state("S3").id == "S3"
    assert lts.outgoing("S4") == ()  # the terminal state
    assert lts.outgoing("nope") == ()
    assert [s.id for s in lts.chain] == ["S1", "S2", "S3", "S4"]


def test_index_leaves_equality_and_hash_alone():
    queried, fresh = chain_lts(4), chain_lts(4)
    queried.state("S2")
    queried.outgoing("S1")
    assert queried.chain
    assert queried == fresh
    assert hash(queried) == hash(fresh)
    assert {queried: 1}[fresh] == 1
