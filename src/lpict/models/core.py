"""Protocol models and environment semantics.

A model bundles a guarded transition system with two execution environments:
the ideal one (no attacker; every event happens as designed) and the
non-ideal one (a symbolic attacker with a set of capabilities). An attacker
capability falsifies exactly the events that do not carry the matching
resistance tag.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from ..errors import MissingEnvironmentError, ValidationError
from ..guarded import GuardedLTS, ResistTag

IDEAL = "ideal"
NONIDEAL = "nonideal"


class AttackerCapability(Enum):
    REPLAY = "replay"
    MITM = "mitm"
    EAVESDROP = "eavesdrop"
    TAMPER = "tamper"
    IMPERSONATE = "impersonate"


# Which resistance tag blocks each capability.
CAPABILITY_COUNTERS: dict[AttackerCapability, ResistTag] = {
    AttackerCapability.REPLAY: ResistTag.REPLAY,
    AttackerCapability.MITM: ResistTag.MITM,
    AttackerCapability.EAVESDROP: ResistTag.CONFIDENTIALITY,
    AttackerCapability.TAMPER: ResistTag.INTEGRITY,
    AttackerCapability.IMPERSONATE: ResistTag.IDENTITY_AUTH,
}


@dataclass(frozen=True)
class EnvironmentConfig:
    kind: str
    attackers: frozenset[AttackerCapability] = frozenset()

    def __post_init__(self):
        if self.kind not in (IDEAL, NONIDEAL):
            raise ValidationError(f"unknown environment kind {self.kind!r}")
        if self.kind == IDEAL and self.attackers:
            raise ValidationError("the ideal environment admits no attackers")


@dataclass(frozen=True)
class ProtocolModel:
    name: str
    lts: GuardedLTS
    environments: tuple[EnvironmentConfig, ...]

    def __post_init__(self):
        # a model file writes the name between quotes on one line
        if '"' in self.name or "#" in self.name or self.name.splitlines() != [self.name]:
            raise ValidationError(f"bad protocol name {self.name!r}")
        kinds = [e.kind for e in self.environments]
        if len(set(kinds)) != len(kinds):
            raise ValidationError("duplicate environment declaration")

    def environment(self, kind: str) -> EnvironmentConfig:
        for env in self.environments:
            if env.kind == kind:
                return env
        raise MissingEnvironmentError(f"model {self.name!r} declares no {kind!r} environment")


def apply_environment(model: ProtocolModel, env: EnvironmentConfig) -> dict[str, dict[str, bool]]:
    """Resolve every event to a boolean under the environment, as
    `{state_id: {event_name: value}}`.

    Ideal: everything true. Non-ideal: an event is false iff some attacker
    capability is not countered by one of the event's resistance tags.
    """
    if env not in model.environments:
        raise ValidationError(f"environment {env.kind!r} does not belong to model {model.name!r}")
    broken = {CAPABILITY_COUNTERS[cap] for cap in env.attackers}
    return {
        state.id: {e.name: broken <= e.resists for e in state.events}
        for state in model.lts.states
    }


def capabilities(attackers) -> frozenset[AttackerCapability]:
    """The capabilities that `attackers` names, by member or by word."""
    caps = set()
    for a in attackers:
        try:
            caps.add(AttackerCapability(a))
        except ValueError:
            raise ValidationError(f"unknown attacker capability {a!r}") from None
    return frozenset(caps)


def with_attackers(model: ProtocolModel, attackers) -> ProtocolModel:
    """A copy of the model whose non-ideal environment has these attackers
    (capabilities or their words); an unknown word is a ValidationError."""
    caps = capabilities(attackers)
    envs = []
    replaced = False
    for env in model.environments:
        if env.kind == NONIDEAL:
            envs.append(EnvironmentConfig(NONIDEAL, caps))
            replaced = True
        else:
            envs.append(env)
    if not replaced:
        envs.append(EnvironmentConfig(NONIDEAL, caps))
    return replace(model, environments=tuple(envs))
