"""Every dotted `lpict.…` name that README.md mentions exists: its longest
importable prefix imports, and the rest resolves by attribute."""

import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
NAMES = sorted(set(re.findall(r"\blpict(?:\.[A-Za-z_]\w*)+", README.read_text(encoding="utf-8"))))


def _resolve(dotted):
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        module = ".".join(parts[:split])
        try:
            obj = importlib.import_module(module)
        except ModuleNotFoundError as exc:
            if exc.name != module:  # a module that exists failed to import
                raise
            continue
        for attr in parts[split:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


def test_readme_names_some_lpict_names():
    assert len(NAMES) >= 18


@pytest.mark.parametrize("dotted", NAMES)
def test_readme_name_resolves(dotted):
    _resolve(dotted)
