"""Every name a module of lpict imports is used in that module, and a
package `__init__` that defines `__all__` exports exactly what it imports.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import lpict

SRC = Path(lpict.__file__).parent

# bench/tracing.py wraps these names where these modules import them, so they
# stay imported there although the modules no longer call them
TRACED_ONLY = {
    ("analysis.py", "event_leaves"),
    ("analysis.py", "kmp_match"),
    ("analysis.py", "search_contradiction"),
    ("analysis.py", "search_forward_chain"),
    ("cli.py", "check_proof"),
    ("pi/reduction.py", "standard_form"),
}


def _imported(tree):
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    return imported


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return _imported(tree) - used


def test_no_unused_imports():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        if path.name != "__init__.py":
            found |= {(path.relative_to(SRC).as_posix(), name) for name in _unused_imports(path)}
    assert found == TRACED_ONLY


def test_all_lists_exactly_the_imported_names():
    checked = []
    for path in sorted(SRC.rglob("__init__.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                exported = ast.literal_eval(node.value)
                assert len(set(exported)) == len(exported), path
                assert set(exported) == _imported(tree), path
                checked.append(path.parent.name)
    assert {"logic", "models", "pi"} <= set(checked)


def test_a_fresh_import_frees_the_one_before():
    # A `typing.Union` alias lives in typing's cache, and through it the
    # classes it names and their module's dict: a re-import would pin them.
    script = textwrap.dedent(
        """
        import gc, sys, weakref
        import lpict
        old = weakref.ref(sys.modules["lpict.logic.formulas"].Atom)
        for name in [m for m in sys.modules if m == "lpict" or m.startswith("lpict.")]:
            del sys.modules[name]
        del lpict
        import lpict
        gc.collect()
        print(old() is None)
        """
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True).stdout
    assert out == "True\n"
