"""Every frozen dataclass of lpict refuses assignment and delete with
FrozenInstanceError, and still pickles and goes through `dataclasses.replace`."""

import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import pytest

import lpict
from lpict.analysis import dual_environment_verdict
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
    if type(obj).__dataclass_params__.init:  # Par takes its components positionally
        assert dataclasses.replace(obj) == obj
