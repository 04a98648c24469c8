"""Every frozen dataclass of lpict refuses assignment and delete with
FrozenInstanceError, and still pickles and goes through `dataclasses.replace`.
The records that `logic.formulas.frozen_record` builds have a generated
constructor, which must take exactly their fields and still run
`__post_init__`."""

import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import pytest

import lpict
from lpict.analysis import dual_environment_verdict
from lpict.errors import ValidationError
from lpict.guarded import Event, EventMessage, Guard, GuardedTransition, ResistTag, StateNode
from lpict.logic.formulas import Atom
from lpict.logic.proofs import check_proof
from lpict.logic.search import cross_validate
from lpict.models import builtin_tls13
from lpict.pi import regular
from lpict.pi.terms import NIL, Bang, Par, Receive, Restrict, Send, Sum, Tau
from lpict.trees import StateTreeNode


def _samples():
    """One instance of each frozen dataclass, most of them from a real run."""
    model = builtin_tls13()
    verdict = dual_environment_verdict(model)
    entailment = verdict.ideal.entailment
    symbol = regular.Symbol("a")
    return [
        Event("e", frozenset({ResistTag.MITM}), EventMessage(("x", "y"))),
        EventMessage(("x",)),
        Guard(Atom("A")),
        model.lts.states[0],
        StateNode("T", ()),
        GuardedTransition("A", "go", "B", Guard(Atom("A"))),
        model.lts,
        model,
        model.environments[-1],
        verdict,
        verdict.ideal,
        verdict.ideal.judgments,
        verdict.ideal.trace[0],
        entailment,
        entailment.sequent,
        entailment.forward,
        entailment.forward.lines[0],
        check_proof(entailment.sequent, entailment.forward),
        cross_validate([Atom("a")], Atom("a")),
        StateTreeNode("A", Atom("e")),
        Tau(),
        Receive("a", ("x",)),
        Send("a", ("x",)),
        NIL,
        Sum(((Send("a"), NIL),)),
        Par(NIL, Bang(NIL)),
        Restrict("k", NIL),
        Bang(NIL),
        regular.Empty(),
        regular.Epsilon(),
        symbol,
        regular.Concat(symbol, regular.Star(symbol)),
        regular.Union_(symbol, regular.Epsilon()),
        regular.Star(symbol),
    ]


def _frozen_dataclasses():
    found = set()
    for info in pkgutil.walk_packages(lpict.__path__, "lpict."):
        module = importlib.import_module(info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == info.name and dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen:
                found.add(cls)
    return found


SAMPLES = _samples()


def test_every_frozen_dataclass_has_a_sample():
    assert _frozen_dataclasses() == {type(obj) for obj in SAMPLES}


@pytest.mark.parametrize("obj", SAMPLES, ids=lambda obj: type(obj).__qualname__)
def test_records_are_frozen_and_still_pickle_and_replace(obj):
    fields = [f.name for f in dataclasses.fields(obj)]
    for name in fields[:1] + ["not_a_field"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)
    assert pickle.loads(pickle.dumps(obj)) == obj
    assert dataclasses.replace(obj) == obj


# frozen_record classes refuse assignment with the function formula nodes use
RECORDS = [obj for obj in SAMPLES if type(obj).__setattr__ is Atom.__setattr__]


@pytest.mark.parametrize("obj", RECORDS, ids=lambda obj: type(obj).__qualname__)
def test_record_constructor_takes_exactly_its_fields(obj):
    cls = type(obj)
    fields = dataclasses.fields(cls)
    params = inspect.signature(cls).parameters.values()
    empty = inspect.Parameter.empty
    assert [(p.name, p.kind, p.default) for p in params] == [
        (f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD, empty if f.default is dataclasses.MISSING else f.default)
        for f in fields
    ]
    values = {f.name: getattr(obj, f.name) for f in fields}
    assert cls(**values) == obj
    assert cls(*values.values()) == obj
    with pytest.raises(TypeError):
        cls(*values.values(), None)
    with pytest.raises(TypeError):
        cls(**values, not_a_field=None)
    last_required = [f.name for f in fields if f.default is dataclasses.MISSING][-1]
    with pytest.raises(TypeError):
        cls(**{name: value for name, value in values.items() if name != last_required})


# One constructor call per record class with a __post_init__, which rejects it.
POST_INIT_REJECTS = {
    Event: (("9x",), "bad event name '9x'"),
    EventMessage: (((),), "an event message cannot be empty"),
    StateNode: (("S", (), Atom("e")), "event-less state 'S' cannot carry an event tree"),
    GuardedTransition: (("A", "a b", "B", Guard(Atom("A"))), "bad action 'a b'"),
}


def test_every_record_post_init_still_runs():
    assert {type(obj) for obj in RECORDS if hasattr(obj, "__post_init__")} == set(POST_INIT_REJECTS)
    for cls, (args, message) in POST_INIT_REJECTS.items():
        with pytest.raises(ValidationError) as exc:
            cls(*args)
        assert str(exc.value) == message
