import pytest

from lpict.errors import ValidationError
from lpict.guarded import ResistTag
from lpict.models import (
    AttackerCapability,
    EnvironmentConfig,
    ProtocolModel,
    apply_environment,
    builtin_dh,
    builtin_tls13,
    with_attackers,
)
from lpict.models.core import CAPABILITY_COUNTERS
from lpict.logic.formulas import Atom, Not, Or
from lpict.trees import build_event_tree

_HELLO = {"replay", "mitm", "forward_secrecy", "integrity", "identity_auth", "selection_sync"}
_SERVER = _HELLO | {"confidentiality", "verification"}
_CERT = {"replay", "mitm", "identity_auth", "verification"}
_DATA = {"replay", "mitm", "verification"}
_AND = "every event joined by and, left-deep"
_TAUTOLOGY = Or(Atom("ApplicationData"), Not(Atom("ApplicationData")))

# Every state of the built-in models: the resist tags of each of its events
# and its event tree.
BUILTIN_STATES = [
    (builtin_tls13, "S1", _HELLO, _AND),
    (builtin_tls13, "S2", _SERVER, _AND),
    (builtin_tls13, "S3", _SERVER, _AND),
    (builtin_tls13, "S4", _CERT, _AND),
    (builtin_tls13, "S5", _CERT, _AND),
    (builtin_tls13, "S6", _DATA, _TAUTOLOGY),
    (builtin_tls13, "S_end", _DATA, _TAUTOLOGY),
    (builtin_dh, "Init", {"confidentiality", "identity_auth", "integrity", "mitm"}, Atom("random_nonce")),
    (builtin_dh, "ExchangeA", {"confidentiality"}, Atom("public_value_send")),
    (builtin_dh, "ExchangeB", {"confidentiality"}, Atom("public_value_receive")),
    (builtin_dh, "Done", {"confidentiality", "integrity"}, Atom("shared_secret_derive")),
]


@pytest.mark.parametrize(
    "model_ctor, state_id, resists, tree",
    BUILTIN_STATES,
    ids=[f"{ctor.__name__}-{sid}" for ctor, sid, _, _ in BUILTIN_STATES],
)
def test_builtin_state_tags_and_trees(model_ctor, state_id, resists, tree):
    state = model_ctor().lts.state(state_id)
    for event in state.events:
        assert {tag.value for tag in event.resists} == resists, event.name
    if tree == _AND:
        tree = build_event_tree(state.events, ["and"] * (len(state.events) - 1))
    assert state.combine == tree


def test_tls_state_layout():
    model = builtin_tls13()
    lts = model.lts
    assert [s.id for s in lts.states] == ["S1", "S2", "S3", "S4", "S5", "S6", "S_end"]
    assert len(lts.state("S1").events) == 5
    assert len(lts.state("S2").events) == 8
    assert len(lts.state("S4").events) == 2
    assert len(lts.state("S6").events) == 1
    assert lts.state("S2").events == lts.state("S3").events
    assert lts.state("S4").events == lts.state("S5").events
    assert lts.state("S6").events == lts.state("S_end").events


def test_tls_s1_resists_replay_and_mitm():
    model = builtin_tls13()
    for event in model.lts.state("S1").events:
        assert ResistTag.REPLAY in event.resists
        assert ResistTag.MITM in event.resists


def test_tls_event_names():
    model = builtin_tls13()
    assert [e.name for e in model.lts.state("S1").events] == [
        "ClientHello",
        "Key_share",
        "Signature_algorithms",
        "Psk_key_exchange_modes",
        "Pre_shared_key",
    ]
    assert [e.name for e in model.lts.state("S4").events] == ["Certificate", "CertificateVerify"]


def test_tls_cert_payload_carries_finished():
    model = builtin_tls13()
    payload = model.lts.state("S4").events[0].payload
    assert payload is not None and payload.items == ("Certificate", "CertificateVerify", "Finished")
    # Finished is in the message, not among the state's events
    assert "Finished" not in [e.name for e in model.lts.state("S4").events]


def test_tls_transitions_are_message_steps():
    model = builtin_tls13()
    assert [t.action for t in model.lts.transitions] == [f"msg{i}" for i in range(1, 7)]


def test_ideal_assignment_all_true():
    for model in (builtin_tls13(), builtin_dh()):
        assignment = apply_environment(model, model.environment("ideal"))
        for state in model.lts.states:
            assert all(assignment[state.id].values())


def test_tls_nonideal_replay_mitm_all_true():
    model = builtin_tls13()
    assignment = apply_environment(model, model.environment("nonideal"))
    for state in model.lts.states:
        assert all(assignment[state.id].values())


def test_dh_mitm_falsifies_exchange():
    model = builtin_dh()
    assignment = apply_environment(model, model.environment("nonideal"))
    assert assignment["Init"]["random_nonce"] is True
    assert assignment["ExchangeA"]["public_value_send"] is False


def test_dh_replay_falsifies_nonce():
    model = with_attackers(builtin_dh(), ["replay"])
    assignment = apply_environment(model, model.environment("nonideal"))
    assert assignment["Init"]["random_nonce"] is False


def test_dh_has_no_forward_secrecy_anywhere():
    # the missing tag is the model's encoding of "no forward security"
    model = builtin_dh()
    for state in model.lts.states:
        for event in state.events:
            assert ResistTag.FORWARD_SECRECY not in event.resists


def test_attacker_monotonicity():
    # enlarging the attacker set never turns a false event true
    model = builtin_tls13()
    caps = [c.value for c in AttackerCapability]
    for i in range(len(caps)):
        small = with_attackers(model, caps[:i])
        large = with_attackers(model, caps[: i + 1])
        a_small = apply_environment(small, small.environment("nonideal"))
        a_large = apply_environment(large, large.environment("nonideal"))
        for state in model.lts.states:
            for name, value in a_small[state.id].items():
                if not value:
                    assert a_large[state.id][name] is False


def test_capability_counter_map():
    assert CAPABILITY_COUNTERS[AttackerCapability.REPLAY] is ResistTag.REPLAY
    assert CAPABILITY_COUNTERS[AttackerCapability.MITM] is ResistTag.MITM
    assert CAPABILITY_COUNTERS[AttackerCapability.EAVESDROP] is ResistTag.CONFIDENTIALITY
    assert CAPABILITY_COUNTERS[AttackerCapability.TAMPER] is ResistTag.INTEGRITY
    assert CAPABILITY_COUNTERS[AttackerCapability.IMPERSONATE] is ResistTag.IDENTITY_AUTH


def test_ideal_environment_rejects_attackers():
    with pytest.raises(ValidationError):
        EnvironmentConfig("ideal", frozenset({AttackerCapability.MITM}))


def test_foreign_environment_rejected():
    tls = builtin_tls13()
    foreign = EnvironmentConfig("nonideal", frozenset({AttackerCapability.TAMPER}))
    with pytest.raises(ValidationError):
        apply_environment(tls, foreign)


def test_with_attackers_replaces_nonideal():
    model = with_attackers(builtin_tls13(), ["tamper"])
    env = model.environment("nonideal")
    assert env.attackers == frozenset({AttackerCapability.TAMPER})
    # the ideal environment is untouched
    assert model.environment("ideal").attackers == frozenset()


def test_with_attackers_rejects_an_unknown_word():
    with pytest.raises(ValidationError) as exc:
        with_attackers(builtin_dh(), ["mitm", "quantum"])
    assert str(exc.value) == "unknown attacker capability 'quantum'"
    assert with_attackers(builtin_dh(), [AttackerCapability.MITM]) == with_attackers(builtin_dh(), ["mitm"])


def test_unknown_environment_kind_rejected():
    with pytest.raises(ValidationError, match="^unknown environment kind 'hostile'$"):
        EnvironmentConfig("hostile")


def test_two_ideal_environments_rejected():
    base = builtin_dh()
    with pytest.raises(ValidationError, match="^duplicate environment declaration$"):
        ProtocolModel(base.name, base.lts, (EnvironmentConfig("ideal"), EnvironmentConfig("ideal")))


def test_with_attackers_appends_a_missing_nonideal_environment():
    base = builtin_dh()
    only_ideal = ProtocolModel(base.name, base.lts, (EnvironmentConfig("ideal"),))
    model = with_attackers(only_ideal, ["replay"])
    assert model.environments == (
        EnvironmentConfig("ideal"),
        EnvironmentConfig("nonideal", frozenset({AttackerCapability.REPLAY})),
    )
