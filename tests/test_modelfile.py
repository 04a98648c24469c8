import re

import pytest

from lpict.errors import ParseError, ValidationError
from lpict.guarded import Event, EventMessage, Guard, GuardedTransition, ResistTag, StateNode, build_guarded_lts
from lpict.lexing import MAX_NESTING
from lpict.logic.formulas import Atom, parse_formula
from lpict.models import (
    AttackerCapability,
    EnvironmentConfig,
    ProtocolModel,
    builtin_dh,
    builtin_tls13,
    load_model,
    render_model,
)

MINIMAL = """
protocol "Mini"
state A {
  event go resists replay
}
state B {
  event stop
  event halt
  combine or
}
transition A -> B
initial A
terminal B
environment ideal
environment nonideal attackers mitm
"""


def test_load_minimal():
    model = load_model(MINIMAL)
    assert model.name == "Mini"
    assert [s.id for s in model.lts.states] == ["A", "B"]
    assert model.lts.transitions[0].action == "A->B"
    assert model.environment("nonideal").attackers


def test_render_load_roundtrip():
    for model in (builtin_tls13(), builtin_dh(), load_model(MINIMAL)):
        assert load_model(render_model(model)) == model


def test_render_deterministic():
    assert render_model(builtin_tls13()) == render_model(builtin_tls13())


def test_each_name_is_checked_once(monkeypatch):
    # records check their names when built; neither the reader nor
    # build_guarded_lts checks them again
    import lpict.guarded
    import lpict.models.modelfile

    checked = []
    check = lpict.guarded.check_name
    for module in (lpict.guarded, lpict.models.modelfile):
        monkeypatch.setattr(module, "check_name", lambda name, what: checked.append((name, what)) or check(name, what))
    load_model(MINIMAL)
    assert sorted(checked) == sorted(
        [("A", "state id"), ("B", "state id"), ("go", "event name"), ("stop", "event name"), ("halt", "event name")]
    )


def test_comments_and_blank_lines():
    text = MINIMAL.replace('state A {', '# leading comment\nstate A {  # trailing')
    assert load_model(text) == load_model(MINIMAL)


def test_eventless_nonterminal_rejected():
    text = MINIMAL.replace("event go resists replay", "")
    with pytest.raises(ValidationError, match="no events"):
        load_model(text)
    inline = MINIMAL.replace('state A {\n  event go resists replay\n}', "state A { }")
    with pytest.raises(ValidationError, match="no events"):
        load_model(inline)


def test_unknown_resist_tag_rejected():
    text = MINIMAL.replace("resists replay", "resists teleport")
    with pytest.raises(ParseError, match="teleport"):
        load_model(text)


def test_unknown_keyword_rejected():
    with pytest.raises(ParseError, match="prototype"):
        load_model(MINIMAL + "\nprototype extra\n")


def test_unknown_capability_rejected():
    text = MINIMAL.replace("attackers mitm", "attackers quantum")
    with pytest.raises(ParseError, match="quantum"):
        load_model(text)


def test_missing_combine_rejected():
    text = MINIMAL.replace("  combine or\n", "")
    with pytest.raises(ParseError, match="combine"):
        load_model(text)


def test_unclosed_state_rejected():
    text = MINIMAL.replace("}", "", 1)
    with pytest.raises(ParseError):
        load_model(text)


def test_alias_requires_existing_state():
    with pytest.raises(ParseError, match="Ghost"):
        load_model(MINIMAL + "\nalias C = Ghost\n")


def test_expr_combine_roundtrip():
    text = MINIMAL.replace("combine or", "combine expr stop | !halt")
    model = load_model(text)
    assert load_model(render_model(model)) == model


def test_expr_combine_rejects_implication():
    text = MINIMAL.replace("combine or", "combine expr stop -> halt")
    with pytest.raises(ParseError):
        load_model(text)


def test_transition_guard_clause():
    text = MINIMAL.replace("transition A -> B", "transition A -> B action step when go & A")
    model = load_model(text)
    t = model.lts.transitions[0]
    assert t.action == "step"
    from lpict.logic.formulas import parse_formula

    assert t.guard.formula == parse_formula("go & A")
    assert load_model(render_model(model)) == model


def test_duplicate_protocol_rejected():
    with pytest.raises(ParseError, match="duplicate protocol"):
        load_model('protocol "A"\n' + MINIMAL.strip())


def test_dangling_transition_rejected():
    text = MINIMAL + "\ntransition B -> Z\n"
    with pytest.raises(ParseError) as exc:
        load_model(text)
    assert exc.value.line == 17


def _edit(old, new):
    assert old in MINIMAL
    return MINIMAL.replace(old, new, 1)


# One row per rejection of the model reader: the text, the exact message and
# the line it names. MINIMAL's line 1 is empty; `protocol` is line 2, state A
# spans lines 3-5, state B lines 6-10, then transition (11), initial (12),
# terminal (13) and the two environments (14, 15).
READER_ERRORS = [
    ("unclosed", MINIMAL + "state C {\n", "state block 'C' is never closed", 16),
    ("no-protocol", _edit('protocol "Mini"\n', ""), "missing protocol declaration", 1),
    ("no-initial", _edit("initial A\n", ""), "missing initial or terminal declaration", 1),
    ("no-terminal", _edit("terminal B\n", ""), "missing initial or terminal declaration", 1),
    ("keyword-in-block", _edit("  combine or\n", "  initial A\n"), "unexpected 'initial' inside state block", 9),
    ("unknown-keyword", MINIMAL + "prototype extra\n", "unknown keyword 'prototype'", 16),
    ("protocol-shape", _edit('protocol "Mini"', "protocol Mini"), 'expected: protocol "<name>"', 2),
    ("protocol-twice", MINIMAL + 'protocol "Again"\n', "duplicate protocol declaration", 16),
    ("state-shape", _edit("state A {", "state A"), "expected: state <id> {", 3),
    ("state-id", _edit("state A {", "state 9A {"), "bad state id '9A'", 3),
    ("event-outside", MINIMAL + "event loose\n", "event outside a state block", 16),
    ("event-shape", _edit("  event go resists replay", "  event"), "expected: event <name> [resists ...] [payload ...]", 4),
    ("resist-tag", _edit("resists replay", "resists teleport"), "unknown resist tag 'teleport'", 4),
    ("event-name", _edit("  event stop", "  event st-op"), "bad event name 'st-op'", 7),
    ("event-token", _edit("  event go resists replay", "  event go replay"), "unexpected token 'replay' in event declaration", 4),
    ("combine-outside", MINIMAL + "combine and\n", "combine outside a state block", 16),
    ("combine-twice", _edit("  combine or\n", "  combine or\n  combine and\n"), "duplicate combine line", 10),
    (
        "combine-expr-syntax",
        _edit("combine or", "combine expr stop &"),
        "bad combine expression: expected a formula, found 'end of input' (at offset 6)",
        9,
    ),
    (
        "combine-expr-implication",
        _edit("combine or", "combine expr stop -> halt"),
        "bad combine expression: combine expressions allow only atoms, !, & and |",
        9,
    ),
    ("combine-operator", _edit("combine or", "combine xor"), "unknown operator 'xor' in combine", 9),
    ("combine-count", _edit("combine or", "combine or and"), "2 events need 1 operators, got 2", 9),
    ("combine-operator-before-count", _edit("combine or", "combine and xor"), "unknown operator 'xor' in combine", 9),
    ("combine-no-events", _edit("  event go resists replay\n", "  combine and\n"), "an event tree needs at least one event", 4),
    ("close-outside", MINIMAL + "}\n", "unexpected '}'", 16),
    ("close-shape", _edit("  combine or\n}", "  combine or\n} trailing"), "unexpected '}'", 10),
    ("combine-missing", _edit("  combine or\n", ""), "state 'B' needs a combine line", 9),
    ("state-twice", _edit("state B {", "state A {"), "duplicate state id 'A'", 10),
    ("state-false", _edit("state B {", "state false {"), "'false' is a formula keyword and cannot name a state or an event", 10),
    ("event-false", _edit("  event halt", "  event false"), "'false' is a formula keyword and cannot name a state or an event", 8),
    ("event-twice", _edit("  event halt", "  event stop"), "duplicate event name in state 'B'", 10),
    (
        "combine-expr-events",
        _edit("combine or", "combine expr stop | ghost"),
        "event tree of state 'B' does not match its events",
        10,
    ),
    ("alias-shape", MINIMAL + "alias C A\n", "expected: alias <id> = <id>", 16),
    ("alias-target", MINIMAL + "alias C = Ghost\n", "alias target 'Ghost' is not defined yet", 16),
    ("alias-twice", MINIMAL + "alias B = A\n", "duplicate state id 'B'", 16),
    ("alias-id", MINIMAL + "alias a-b = A\n", "bad state id 'a-b'", 16),
    (
        "transition-shape",
        _edit("transition A -> B", "transition A B"),
        "expected: transition <src> -> <dst> [action <name>] [when <formula>]",
        11,
    ),
    ("action-name", _edit("transition A -> B", "transition A -> B action"), "action needs a name", 11),
    (
        "guard-syntax",
        _edit("transition A -> B", "transition A -> B when go &"),
        "bad guard: expected a formula, found 'end of input' (at offset 4)",
        11,
    ),
    (
        "guard-missing",
        _edit("transition A -> B", "transition A -> B when"),
        "bad guard: expected a formula, found 'end of input' (at offset 0)",
        11,
    ),
    ("transition-token", _edit("transition A -> B", "transition A -> B via go"), "unexpected token 'via' in transition", 11),
    ("transition-undeclared", MINIMAL + "transition B -> Z\n", "transition B->Z references undeclared state 'Z'", 16),
    ("terminal-outgoing", MINIMAL + "transition B -> A\n", "terminal state 'B' has outgoing transitions", 16),
    (
        "guard-atom",
        _edit("transition A -> B", "transition A -> B when ghost"),
        "guard of A->B references unknown atom 'ghost'",
        11,
    ),
    ("initial-shape", _edit("initial A", "initial A B"), "expected: initial <id>", 12),
    ("terminal-shape", _edit("terminal B", "terminal"), "expected: terminal <id>", 13),
    ("initial-twice", MINIMAL + "initial B\n", "duplicate initial declaration", 16),
    ("initial-repeated", MINIMAL + "initial A\n", "duplicate initial declaration", 16),
    ("terminal-twice", MINIMAL + "terminal A\n", "duplicate terminal declaration", 16),
    ("terminal-repeated", MINIMAL + "terminal B\n", "duplicate terminal declaration", 16),
    ("environment-kind", _edit("environment ideal", "environment hostile"), "expected: environment ideal|nonideal [attackers ...]", 14),
    ("environment-token", _edit("nonideal attackers", "nonideal with"), "unexpected token 'with' in environment", 15),
    ("capability", _edit("attackers mitm", "attackers quantum"), "unknown attacker capability 'quantum'", 15),
    ("ideal-attackers", _edit("environment ideal", "environment ideal attackers mitm"), "the ideal environment admits no attackers", 14),
    ("environment-twice", MINIMAL + "environment ideal\n", "duplicate environment declaration", 16),
    (
        "environment-kind-twice",
        MINIMAL + "environment nonideal attackers replay\n",
        "duplicate environment declaration",
        16,
    ),
    ("initial-undeclared", _edit("initial A", "initial Q"), "initial state 'Q' is not declared", 12),
    ("event-named-like-state", _edit("  event go", "  event A"), "'A' names both a state and an event", 4),
    (
        "state-without-events",
        _edit("state A {\n  event go resists replay\n}", "state A { }"),
        "non-terminal state 'A' declares no events",
        3,
    ),
    ("state-unreachable", MINIMAL + "state C {\n  event c\n}\n", "state 'C' is unreachable from 'A'", 16),
    ("alias-unreachable", MINIMAL + "alias C = B\n", "state 'C' is unreachable from 'A'", 16),
    # Only "\n" ends a line: other characters that str.splitlines breaks at
    # are space inside one, and a "\r" is space before its "\n".
    ("form-feed-line", MINIMAL + "\f\nprototype extra\n", "unknown keyword 'prototype'", 17),
    ("next-line-in-event", _edit("  event go resists replay", "  event go\x85resists teleport"), "unknown resist tag 'teleport'", 4),
    (
        "line-separator-in-guard",
        _edit("transition A -> B", "transition A -> B when go\u2028& ghost"),
        "guard of A->B references unknown atom 'ghost'",
        11,
    ),
    ("crlf-lone-cr", MINIMAL.replace("\n", "\r\n") + "# saved\ron a Mac\r\nprototype extra\r\n", "unknown keyword 'prototype'", 17),
]


@pytest.mark.parametrize("text,message,line", [row[1:] for row in READER_ERRORS], ids=[row[0] for row in READER_ERRORS])
def test_reader_error_messages(text, message, line):
    with pytest.raises(ParseError) as exc:
        load_model(text)
    assert str(exc.value) == f"{message} (line {line})"
    assert exc.value.line == line


def test_events_of_one_shape_share_their_tags_and_payload():
    text = _edit("  event stop\n  event halt\n", "  event stop resists mitm payload k m\n  event halt resists  mitm payload k\tm\n")
    stop, halt = load_model(text).lts.state("B").events
    assert stop.resists is halt.resists and stop.payload is halt.payload
    assert (stop.resists, stop.payload) == (frozenset({ResistTag.MITM}), EventMessage(("k", "m")))


@pytest.mark.parametrize(
    "bad, message",
    [
        ("event late resists replay teleport", "unknown resist tag 'teleport'"),
        ("event late replay", "unexpected token 'replay' in event declaration"),
        ("event 9x resists replay", "bad event name '9x'"),
    ],
)
def test_a_bad_event_line_names_its_own_line_after_valid_repeats(bad, message):
    repeats = "".join(f"  event go{i} resists replay\n" for i in range(3))
    text = _edit("  event go resists replay\n", repeats + f"  {bad}\n")
    with pytest.raises(ParseError) as exc:
        load_model(text)
    assert (str(exc.value), exc.value.line) == (f"{message} (line 7)", 7)


# Words after an event's name: list starters, tags, an unknown tag, payload
# items and words that start a comment. The format cannot write a bad payload
# item: a word with '#' ends the line, and 'resists'/'payload' start a list.
EVENT_WORDS = ["resists", "payload", "mitm", "replay", "integrity", "teleport", "k", "Key_share", "a#b", "#"]
BAD_EVENT_NAMES = ["9x", "false", "a-b", "é"]


def _reference_event(line):
    """The Event an `event` line declares, or the message that rejects it,
    read word by word without the model reader."""
    words = line.partition("#")[0].split()
    if len(words) < 2:
        return None, "expected: event <name> [resists ...] [payload ...]"
    lists = {"resists": [], "payload": []}
    into = None
    for word in words[2:]:
        if word in lists:
            into = lists[word]
        elif into is None:
            return None, f"unexpected token {word!r} in event declaration"
        else:
            into.append(word)
    tags = {tag.value: tag for tag in ResistTag}
    unknown = [word for word in lists["resists"] if word not in tags]
    if unknown:
        return None, f"unknown resist tag {unknown[0]!r}"
    name = words[1]
    if not re.fullmatch("[A-Za-z_][A-Za-z0-9_]*", name):
        return None, f"bad event name {name!r}"
    if name == "false":
        return None, "'false' is a formula keyword and cannot name a state or an event"
    payload = tuple(lists["payload"])
    return Event(name, frozenset(tags[word] for word in lists["resists"]), EventMessage(payload) if payload else None), None


def test_event_lines_read_as_a_reference_parser_reads_them(rng):
    outcomes = {"loaded": 0, "rejected": 0}
    for _ in range(400):
        lines = []
        for i in range(rng.randrange(1, 7)):
            name = rng.choice(BAD_EVENT_NAMES) if rng.random() < 0.05 else f"e{i}"
            words = [rng.choice(EVENT_WORDS) for _ in range(rng.randrange(0, 5))]
            if words and rng.random() < 0.9:  # most lines start a list
                words[0] = rng.choice(EVENT_WORDS[:2])
            head = ["event"] if rng.random() < 0.03 else ["event", name]  # sometimes no name
            lines.append(" ".join(head + words))
        combine = " ".join(["combine"] + ["and"] * (len(lines) - 1))
        body = "".join(f"  {line}\n" for line in lines)
        text = f'protocol "P"\nstate A {{\n{body}  {combine}\n}}\nstate T {{ }}\n'
        text += "transition A -> T\ninitial A\nterminal T\nenvironment ideal\n"
        expected = [_reference_event(line) for line in lines]
        failing = [(n, message) for n, (_, message) in enumerate(expected, start=3) if message is not None]
        if failing:
            line, message = failing[0]
            with pytest.raises(ParseError) as exc:
                load_model(text)
            assert (str(exc.value), exc.value.line) == (f"{message} (line {line})", line), text
            outcomes["rejected"] += 1
            continue
        events = load_model(text).lts.state("A").events
        assert events == tuple(event for event, _ in expected), text
        shapes = {}
        for line, event in zip(lines, events):
            first = shapes.setdefault(tuple(line.partition("#")[0].split()[2:]), event)
            assert event.resists is first.resists and event.payload is first.payload, text
        outcomes["loaded"] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_guard_after_a_tab_is_read():
    text = _edit("transition A -> B", "transition A -> B action step\twhen\tgo & A")
    assert load_model(text).lts.transitions[0].guard.formula == parse_formula("go & A")


def test_deep_guard_is_a_parse_error():
    deep = _edit("transition A -> B", "transition A -> B when " + "!" * 1500 + "go")
    with pytest.raises(ParseError) as exc:
        load_model(deep)
    assert str(exc.value) == (
        f"bad guard: formula nested more than {MAX_NESTING} deep (at offset {MAX_NESTING}) (line 11)"
    )
    at_limit = _edit("transition A -> B", "transition A -> B when " + "!" * MAX_NESTING + "go")
    assert load_model(at_limit).lts.transitions[0].guard.formula is not None


# Words for the round trip through the format: valid names, and words that
# the format cannot write or would read back as something else.
VALID_WORDS = ["A", "go", "S_1", "step", "msg2"]
ODD_WORDS = ["a-b", "a b", "a#b", 'a"b', "", "resists", "payload", "false", "é", "x\ny"]
ROLES = ("protocol", "state", "event", "action", "item")


def _library_model(protocol="P", state="S", event="e", action="go", item="x"):
    """A model built through the library, not the reader: `state` with one
    event that carries a one-item payload, then the event-less terminal T."""
    events = (Event(event, frozenset({ResistTag.MITM}), EventMessage((item,))),)
    states = [StateNode(state, events, Atom(event)), StateNode("T", (), None)]
    transitions = [GuardedTransition(state, action, "T", Guard(Atom(state)))]
    lts = build_guarded_lts(states, transitions, state, "T")
    environments = (EnvironmentConfig("ideal"), EnvironmentConfig("nonideal", frozenset({AttackerCapability.MITM})))
    return ProtocolModel(protocol, lts, environments)


def _assert_rejected_or_round_trips(words):
    try:
        model = _library_model(**words)
    except ValidationError:
        return
    text = render_model(model)
    assert load_model(text) == model, words
    assert render_model(load_model(text)) == text, words


def test_every_word_in_every_role_is_rejected_or_round_trips():
    for word in VALID_WORDS + ODD_WORDS:
        for role in ROLES:
            _assert_rejected_or_round_trips({role: word})


def test_random_models_are_rejected_or_round_trip(rng):
    pool = VALID_WORDS + ODD_WORDS
    for _ in range(300):
        _assert_rejected_or_round_trips({role: rng.choice(pool) for role in ROLES})


# Models the library accepted although their file could not be read back
# (the first seven) or was read back as a different model (the last three).
UNWRITABLE = [
    ({"state": "a-b"}, "bad state id 'a-b'"),
    ({"state": "9"}, "bad state id '9'"),
    ({"event": "st op"}, "bad event name 'st op'"),
    ({"event": "é"}, "bad event name 'é'"),
    ({"protocol": 'a"b'}, "bad protocol name 'a\"b'"),
    ({"protocol": ""}, "bad protocol name ''"),
    ({"action": "a b"}, "bad action 'a b'"),
    ({"item": "resists"}, "bad payload item 'resists'"),
    ({"item": "a#b"}, "bad payload item 'a#b'"),
    ({"action": "x#y"}, "bad action 'x#y'"),
]


@pytest.mark.parametrize("words, message", UNWRITABLE, ids=[m for _, m in UNWRITABLE])
def test_the_library_rejects_what_the_format_cannot_write(words, message):
    with pytest.raises(ValidationError) as exc:
        _library_model(**words)
    assert str(exc.value) == message


# Every kind of line the reader knows, one per line.
EVERY_LINE_KIND = [
    'protocol "Variants"',
    "state A {",
    "  event go resists replay mitm payload k m",
    "  event ok",
    "  combine and",
    "}",
    "state B {",
    "  event stop",
    "  event halt",
    "  combine expr stop | !halt",
    "}",
    "alias C = A",
    "state D { }",
    "transition A -> B action step when go & A",
    "transition B -> C",
    "transition C -> D action done",
    "initial A",
    "terminal D",
    "environment ideal",
    "environment nonideal attackers mitm replay",
]

LINE_VARIANTS = {
    "comment": lambda line: line + "  # note -> B when ghost",
    "tabs": lambda line: "\t" + line.strip().replace(" ", "\t") + "\t",
    "spaces": lambda line: "   " + line.strip().replace(" ", "   ") + "  ",
    "crlf": lambda line: line + "\r",  # joined with "\n"
}


@pytest.mark.parametrize("variant", sorted(LINE_VARIANTS))
def test_comment_and_whitespace_variants_read_the_same(variant):
    plain = load_model("\n".join(EVERY_LINE_KIND) + "\n")
    assert plain.lts.transitions[0].guard == Guard(parse_formula("go & A"))
    edit = LINE_VARIANTS[variant]
    for i, line in enumerate(EVERY_LINE_KIND):
        lines = EVERY_LINE_KIND[:i] + [edit(line)] + EVERY_LINE_KIND[i + 1:]
        assert load_model("\n".join(lines) + "\n") == plain, lines[i]
    assert load_model("\n".join(map(edit, EVERY_LINE_KIND)) + "\n") == plain


@pytest.mark.parametrize("guard", ["go & A # | ghost", "go & A#| ghost", "go & A\t#\tghost"])
def test_a_hash_ends_a_when_guard(guard):
    text = "\n".join(EVERY_LINE_KIND).replace("when go & A", f"when {guard}")
    assert load_model(text).lts.transitions[0].guard == Guard(parse_formula("go & A"))
