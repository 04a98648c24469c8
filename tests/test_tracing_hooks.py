"""The names that bench/tracing.py wraps must exist in lpict.

The tracer patches functions where their callers look them up; a rename in
lpict would otherwise surface only when a traced benchmark run fails. The
module is loaded by path and no wrapper is installed.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

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


TRACED_RUN = """
import importlib.util, random, sys
from pathlib import Path

bench, workdir, name = Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3]


def load(module):
    spec = importlib.util.spec_from_file_location(module, bench / f"{module}.py")
    loaded = sys.modules[module] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loaded)
    return loaded


oracle, run, workloads, tracing = map(load, ("oracle", "run", "workloads", "tracing"))
ops = workloads.WORKLOADS[name](run.import_lpict(), random.Random(f"{name}:1"), run.ROOT, workdir)
assert run.attempt(ops[0])[1] == "ok", "warm-up"
tracer = tracing.Tracer({m: sys.modules[m] for m in sys.modules if m.startswith("lpict")})
tracer.op = 1
assert run.attempt(ops[-1])[1] == "ok", "traced"
metrics = tracer.metrics([1.0])
assert set(metrics) == set(tracing.UNITS), set(metrics) ^ set(tracing.UNITS)
print("ok")
"""


@pytest.mark.parametrize("workload", ["handshake", "long-chain", "pi-terms", "entailment"])
def test_a_traced_run_of_each_workload_is_ok(workload, tmp_path):
    # bench/run.py runs each workload in a fresh interpreter and builds its
    # Tracer over the lpict modules loaded by then, after the warm-up: each
    # module that the Tracer wraps must be loaded by then. Spans stay in memory.
    bench = TRACING.parent
    argv = [sys.executable, "-c", TRACED_RUN, str(bench), str(tmp_path), workload]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", "")
