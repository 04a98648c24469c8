import pytest

from lpict.errors import ParseError, ValidationError
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
