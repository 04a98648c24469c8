"""Every name a module of lpict imports is used in that module.

Package `__init__` modules re-export names and are not scanned.
"""

import ast
from pathlib import Path

import lpict

SRC = Path(lpict.__file__).parent

# bench/tracing.py wraps these names where analysis.py imports them, so they
# stay imported there although analysis.py no longer calls them
TRACED_ONLY = {
    ("analysis.py", "event_leaves"),
    ("analysis.py", "kmp_match"),
    ("analysis.py", "search_contradiction"),
    ("analysis.py", "search_forward_chain"),
}


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_no_unused_imports():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        if path.name != "__init__.py":
            found |= {(path.relative_to(SRC).as_posix(), name) for name in _unused_imports(path)}
    assert found == TRACED_ONLY
