import pytest

from lpict.errors import BranchingPathError, ValidationError
from lpict.guarded import (
    Event,
    EventMessage,
    Guard,
    GuardedLTS,
    GuardedTransition,
    StateNode,
    build_guarded_lts,
    check_name,
    check_precondition,
)
from lpict.lexing import IDENTIFIER
from lpict.logic.formulas import And, Atom, Implies, Not, Or
from lpict.logic.semantics import all_valuations
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


def test_terminal_with_outgoing_transitions_rejected():
    states = [simple_state(f"S{i}", f"e{i}") for i in (1, 2, 3)]
    transitions = [GuardedTransition(a, "t", b, Guard(Atom(a))) for a, b in (("S1", "S2"), ("S2", "S3"))]
    with pytest.raises(ValidationError, match="^terminal state 'S2' has outgoing transitions$"):
        build_guarded_lts(states, transitions, "S1", "S2")


@pytest.mark.parametrize("names", [("false", "e"), ("S1", "e", "false")], ids=["id", "event"])
def test_formula_keyword_cannot_name_a_state_or_an_event(names):
    # a guard would read `false` as falsum, not as the state or event; the
    # state or event is rejected when it is built
    with pytest.raises(ValidationError, match="^'false' is a formula keyword and cannot name a state or an event$"):
        simple_state(*names)


@pytest.mark.parametrize(
    "name", ["e", "_", "e1_x", "E9", "1e", "", "e-1", "e 1", "e\n", "\u00e9", "e\u00e9", "\uff45", "e\u0660", "\u212a"]
)
def test_names_are_what_the_identifier_pattern_matches(name):
    # check_name tests identifiers without the regex; it must accept the same names
    try:
        check_name(name, "event name")
    except ValidationError:
        assert not IDENTIFIER.fullmatch(name)
    else:
        assert IDENTIFIER.fullmatch(name)


def test_duplicate_event_names_rejected():
    with pytest.raises(ValidationError, match="duplicate event"):
        StateNode("S1", (Event("e"), Event("e")), build_event_tree(["e", "e"], ["and"]))


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
    with pytest.raises(ValidationError, match=message) as exc:
        StateNode("S1", (Event("e1"), Event("e2")), tree)
    assert str(exc.value).startswith("event tree of state 'S1'")


def test_a_negated_leaf_stands_for_its_event():
    tree = Or(Not(Atom("e1")), And(Atom("e2"), Not(Atom("e2"))))
    assert StateNode("S1", (Event("e1"), Event("e2")), tree).combine is tree


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


@pytest.mark.parametrize(
    "initial, terminal, message",
    [
        ("S0", "S1", "initial state 'S0' is not declared"),
        ("S1", "S9", "terminal state 'S9' is not declared"),
    ],
)
def test_initial_and_terminal_must_be_declared(initial, terminal, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        build_guarded_lts([simple_state("S1", "e1")], [], initial, terminal)


def test_eventless_state_cannot_carry_a_tree():
    with pytest.raises(ValidationError, match="^event-less state 'S1' cannot carry an event tree$"):
        StateNode("S1", (), Atom("e1"))


def test_state_with_events_needs_a_tree():
    with pytest.raises(ValidationError, match="^state 'S1' has events but no event tree$"):
        StateNode("S1", (Event("e1"),), None)


def _direct_lts(edges, terminal):
    """A GuardedLTS over S1..S3 built without `build_guarded_lts`: it
    checks itself all the same."""
    states = tuple(simple_state(f"S{i}", f"e{i}") for i in (1, 2, 3))
    transitions = tuple(GuardedTransition(a, "t", b, Guard(Atom(a))) for a, b in edges)
    return GuardedLTS(states, transitions, "S1", terminal)


def test_chain_rejects_a_cycle():
    # a cycle that does not branch leaves the terminal state unreachable
    with pytest.raises(ValidationError, match="^state 'S3' is unreachable from 'S1'$"):
        _direct_lts([("S1", "S2"), ("S2", "S1")], "S3")


def test_chain_rejects_a_terminal_with_outgoing_transitions():
    with pytest.raises(ValidationError, match="^terminal state 'S2' has outgoing transitions$"):
        _direct_lts([("S1", "S2"), ("S2", "S3")], "S2")


def _oracle(n, edges, initial, terminal):
    """(valid, path, branching): whether the system may be built (every state
    reachable from the initial one, and nothing leaves the terminal one), and
    the walk from the initial state until it reaches the terminal state or
    meets a state with two or more successors."""
    successors = {f"S{i}": [b for a, b in edges if a == f"S{i}"] for i in range(1, n + 1)}
    reached, frontier = {initial}, [initial]
    while frontier:
        for b in successors[frontier.pop()]:
            if b not in reached:
                reached.add(b)
                frontier.append(b)
    valid = len(reached) == n and not successors[terminal]
    path = [initial]
    while path[-1] != terminal and len(successors[path[-1]]) == 1 and len(path) <= n:
        path.append(successors[path[-1]][0])
    branching = path[-1] if len(successors[path[-1]]) > 1 and path[-1] != terminal else None
    return valid, path, branching


def test_chain_follows_every_buildable_system(rng):
    # random edge sets, self-loops included: a system is rejected when it is
    # built, or its chain is the oracle's walk to the terminal state, or the
    # chain names the first state on that walk that branches
    outcomes = set()
    for _ in range(2000):
        n = rng.randrange(2, 6)
        ids = [f"S{i}" for i in range(1, n + 1)]
        edges = [(a, b) for a in ids for b in ids if rng.random() < 0.3]
        initial, terminal = rng.choice(ids), rng.choice(ids)
        valid, path, branching = _oracle(n, edges, initial, terminal)
        states = [simple_state(sid, f"e{sid}") for sid in ids]
        transitions = [GuardedTransition(a, "t", b, Guard(Atom(a))) for a, b in edges]
        try:
            lts = build_guarded_lts(states, transitions, initial, terminal)
        except ValidationError:
            assert not valid, (edges, initial, terminal)
            outcomes.add("rejected")
            continue
        assert valid, (edges, initial, terminal)
        if branching is None:
            assert path[-1] == terminal, (edges, initial, terminal)
            assert [s.id for s in lts.chain] == path
            outcomes.add("chain")
        else:
            with pytest.raises(BranchingPathError, match=f"^state {branching!r} has "):
                lts.chain
            outcomes.add("branching")
    assert outcomes == {"rejected", "chain", "branching"}


@pytest.mark.parametrize(
    "guard, loose",
    [
        (Atom("S1"), None),
        (Atom("e1"), None),
        (And(Atom("S1"), Atom("e1")), None),
        (Atom("ghost"), "ghost"),
        (Not(Atom("ghost")), "ghost"),
        (And(Atom("S1"), Atom("ghost")), "ghost"),
        (Implies(Atom("zz"), Atom("ghost")), "ghost"),
    ],
)
def test_guard_atoms_resolve_whatever_the_guard_shape(guard, loose):
    # a lone atom is checked by membership, any other guard through `atoms`
    states = [simple_state("S1", "e1"), simple_state("S2", "e2")]
    transitions = [GuardedTransition("S1", "t", "S2", Guard(guard))]
    if loose is None:
        assert build_guarded_lts(states, transitions, "S1", "S2").transitions[0].guard.formula == guard
    else:
        with pytest.raises(ValidationError, match=f"unknown atom '{loose}'"):
            build_guarded_lts(states, transitions, "S1", "S2")


def right_nested(names, op=And):
    """n1 op (n2 op (... op nk)), built through the library."""
    tree = Atom(names[-1])
    for name in reversed(names[:-1]):
        tree = op(Atom(name), tree)
    return tree


def test_a_state_rejects_a_tree_nested_deep_on_the_right():
    # A tree that no `combine` line builds is written as `combine expr`, so a
    # state refuses one whose text nests deeper than the parsers read. The
    # walks of a tree recurse only where its text nests. Checked at the
    # default recursion limit.
    from lpict.lexing import MAX_NESTING
    from lpict.logic.formulas import eval_formula, format_formula
    from lpict.trees import eval_event_tree

    names = [f"e{i}" for i in range(5000)]
    with pytest.raises(ValidationError) as exc:
        StateNode("S", tuple(map(Event, names)), right_nested(names))
    assert str(exc.value) == f"event tree of state 'S' nests more than {MAX_NESTING} deep"
    # k events nested on the right put the last and/or node k - 2 deep
    deepest = names[: MAX_NESTING + 2]
    state = StateNode("S", tuple(map(Event, deepest)), right_nested(deepest, Or))
    valuation = dict.fromkeys(deepest, False)
    assert eval_event_tree(state.combine, valuation) is eval_formula(state.combine, valuation) is False
    assert format_formula(state.combine) == " | (".join(deepest[:-1]) + f" | {deepest[-1]}" + ")" * MAX_NESTING
    too_deep = names[: MAX_NESTING + 3]
    with pytest.raises(ValidationError, match=f"^event tree of state 'S' nests more than {MAX_NESTING} deep$"):
        StateNode("S", tuple(map(Event, too_deep)), right_nested(too_deep))
    # depth counts right operands along any path, not only the right spine
    zigzag = Atom(names[0])
    for i, name in enumerate(names[1 : MAX_NESTING + 3], start=1):
        zigzag = And(Atom(name), Or(zigzag, Atom(f"x{i}"))) if i % 2 else And(Atom(name), zigzag)
    leaves = sorted({a for a in format_formula(zigzag).replace("(", " ").replace(")", " ").split() if a not in "&|"})
    with pytest.raises(ValidationError, match=f"^event tree of state 'S' nests more than {MAX_NESTING} deep$"):
        StateNode("S", tuple(map(Event, leaves)), zigzag)


def test_an_alternating_left_spine_is_refused_only_where_no_combine_line_builds_it():
    # A left-deep tree alternating | and & nests one level per & over |. Over
    # its events it is a `combine` line's tree and written as one; with a
    # negated first leaf it is not, and its text nests past what the parsers read.
    from lpict.errors import ParseError
    from lpict.lexing import MAX_NESTING
    from lpict.logic.formulas import format_formula, parse_formula
    from lpict.models import EnvironmentConfig, ProtocolModel, load_model, render_model

    names = [f"e{i}" for i in range(240)]
    events = tuple(map(Event, names))
    for ops in (["and", "or"] * 119 + ["and"], ["or", "and"] * 119 + ["or"]):
        tree = build_event_tree(names, ops)
        negated = Not(Atom(names[0]))
        for op, name in zip(ops, names[1:]):
            negated = (And if op == "and" else Or)(negated, Atom(name))
        with pytest.raises(ParseError, match="nested more than"):
            parse_formula(format_formula(negated))
        with pytest.raises(ValidationError) as exc:
            StateNode("S", events, negated)
        assert str(exc.value) == f"event tree of state 'S' nests more than {MAX_NESTING} deep"
        states = [StateNode("S", events, tree), StateNode("T", (), None)]
        lts = build_guarded_lts(states, [GuardedTransition("S", "go", "T", Guard(Atom("S")))], "S", "T")
        model = ProtocolModel("P", lts, (EnvironmentConfig("ideal"),))
        text = render_model(model)
        assert "  combine " + " ".join(ops) + "\n" in text
        assert load_model(text) == model
        assert render_model(load_model(text)) == text


def test_a_state_of_at_most_max_nesting_leaves_skips_the_depth_check(monkeypatch):
    import lpict.guarded
    from lpict.lexing import MAX_NESTING
    from lpict.logic.formulas import nesting
    from lpict.trees import combine_operators

    calls = []
    monkeypatch.setattr(lpict.guarded, "nesting", lambda f: calls.append("nesting") or nesting(f))
    monkeypatch.setattr(lpict.guarded, "combine_operators", lambda t, e: calls.append("operators") or combine_operators(t, e))
    names = [f"e{i}" for i in range(MAX_NESTING)]
    StateNode("S", tuple(map(Event, names)), right_nested(names))
    StateNode("S", tuple(map(Event, names)), build_event_tree(names, ["and", "or"] * (MAX_NESTING // 2 - 1) + ["and"]))
    assert calls == []
    names = [f"e{i}" for i in range(MAX_NESTING + 3)]
    with pytest.raises(ValidationError, match="nests more than"):
        StateNode("S", tuple(map(Event, names)), right_nested(names))
    assert calls == ["nesting", "operators"]


def test_a_state_accepts_a_long_left_deep_tree():
    names = [f"e{i}" for i in range(5000)]
    state = StateNode("S", tuple(map(Event, names)), build_event_tree(names, ["and", "or"] * 2499 + ["and"]))
    assert len(state.events) == 5000


def test_a_guard_accepts_exactly_what_the_parser_reads():
    # Printing and evaluating a guard recurse once per level, so a guard
    # refuses a formula whose text the parser would refuse as nested too deep.
    # Checked at the default recursion limit.
    from lpict.errors import ParseError
    from lpict.lexing import MAX_NESTING
    from lpict.logic.formulas import eval_formula, format_formula, parse_formula

    a, b = Atom("a"), Atom("b")
    shapes = {
        "!": lambda f: Not(f),
        "-> on the left": lambda f: Implies(f, b),
        "-> on the right": lambda f: Implies(b, f),
        "& on the right": lambda f: And(b, f),
        "| and & on the left": lambda f: Or(And(f, b), b),
    }
    for name, wrap in shapes.items():
        formula = a
        for _ in range(3000):
            formula = wrap(formula)
        with pytest.raises(ValidationError, match=f"guard nests more than {MAX_NESTING} deep"):
            Guard(formula)
        formula = a
        for levels in range(1, 2 * MAX_NESTING + 2):
            formula = wrap(formula)
            text = format_formula(formula)
            try:
                parse_formula(text)
            except ParseError:
                with pytest.raises(ValidationError, match="guard nests more than"):
                    Guard(formula)
                break
            guard = Guard(formula)
            assert eval_formula(guard.formula, {"a": True, "b": True}) in (True, False)
        else:
            pytest.fail(f"the parser reads {name} at every depth")
        assert levels > MAX_NESTING // 2, name
