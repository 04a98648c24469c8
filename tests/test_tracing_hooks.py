"""The names that bench/tracing.py wraps must exist in lpict.

The tracer patches functions where their callers look them up; a rename in
lpict would otherwise surface only when a traced benchmark run fails. The
module is loaded by path and no wrapper is installed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_resolve():
    tracing = load_tracing()
    assert tracing.WRAPPED
    for mod_name, attr in tracing.WRAPPED:
        assert callable(getattr(importlib.import_module(mod_name), attr)), (mod_name, attr)


def test_other_traced_names_resolve():
    from lpict.guarded import GuardedLTS

    assert callable(getattr(GuardedLTS, "state"))
    assert callable(getattr(GuardedLTS, "outgoing"))
    builtins = getattr(importlib.import_module("lpict.models"), "BUILTIN_MODELS")
    assert builtins and all(callable(ctor) for ctor in builtins.values())
    assert callable(getattr(importlib.import_module("lpict.pi.congruence"), "free_names"))
    assert callable(getattr(importlib.import_module("lpict.logic.semantics"), "all_valuations"))
