"""Every benchmark operation builds and answers right against the working tree.

`bench/workloads.py` builds its inputs with lpict's own names (for example
`lpict.trees.EventLeaf`), and `bench/run.py` checks every answer against
`bench/oracle.py`. A rename in lpict would otherwise surface only when the
benchmark runs. The bench modules are loaded by path, and the lpict modules
are the ones this test run has already imported.
"""

import importlib
import importlib.util
import random
import sys
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name, monkeypatch, as_name=None):
    """A bench module, registered in sys.modules for this test only."""
    as_name = as_name or f"bench_{name}"
    spec = importlib.util.spec_from_file_location(as_name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, as_name, module)
    spec.loader.exec_module(module)
    return module


def test_one_round_of_every_workload_is_ok(tmp_path, monkeypatch):
    # run.py and workloads.py import the oracle by its plain name
    load("oracle", monkeypatch, as_name="oracle")
    run, workloads = load("run", monkeypatch), load("workloads", monkeypatch)
    lp = SimpleNamespace(**{key: importlib.import_module(mod) for key, mod in run.MODULES.items()})
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)
    for name, build in workloads.WORKLOADS.items():
        ops = build(lp, random.Random(f"{name}:1"), run.ROOT, tmp_path)
        assert ops, name
        for op in {id(op): op for op in ops}.values():  # a round repeats some operations
            assert run.attempt(op)[1] == "ok", (name, op.name)
