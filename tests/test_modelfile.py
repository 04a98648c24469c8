import pytest

from lpict.errors import ParseError, ValidationError
from lpict.logic.formulas import MAX_NESTING, parse_formula
from lpict.models import (
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
    with pytest.raises(ValidationError):
        load_model(text)


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
    ("combine-no-events", _edit("  event go resists replay\n", "  combine and\n"), "an event tree needs at least one event", 4),
    ("close-outside", MINIMAL + "}\n", "unexpected '}'", 16),
    ("close-shape", _edit("  combine or\n}", "  combine or\n} trailing"), "unexpected '}'", 10),
    ("combine-missing", _edit("  combine or\n", ""), "state 'B' needs a combine line", 9),
    ("state-twice", _edit("state B {", "state A {"), "duplicate state id 'A'", 10),
    ("alias-shape", MINIMAL + "alias C A\n", "expected: alias <id> = <id>", 16),
    ("alias-target", MINIMAL + "alias C = Ghost\n", "alias target 'Ghost' is not defined yet", 16),
    ("alias-twice", MINIMAL + "alias B = A\n", "duplicate state id 'B'", 16),
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
    ("initial-shape", _edit("initial A", "initial A B"), "expected: initial <id>", 12),
    ("terminal-shape", _edit("terminal B", "terminal"), "expected: terminal <id>", 13),
    ("environment-kind", _edit("environment ideal", "environment hostile"), "expected: environment ideal|nonideal [attackers ...]", 14),
    ("environment-token", _edit("nonideal attackers", "nonideal with"), "unexpected token 'with' in environment", 15),
    ("capability", _edit("attackers mitm", "attackers quantum"), "unknown attacker capability 'quantum'", 15),
    ("ideal-attackers", _edit("environment ideal", "environment ideal attackers mitm"), "the ideal environment admits no attackers", 14),
]


@pytest.mark.parametrize("text,message,line", [row[1:] for row in READER_ERRORS], ids=[row[0] for row in READER_ERRORS])
def test_reader_error_messages(text, message, line):
    with pytest.raises(ParseError) as exc:
        load_model(text)
    assert str(exc.value) == f"{message} (line {line})"
    assert exc.value.line == line


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
