"""Every module of the library uses each name it imports, and every
annotation it writes names something it can see.

``__init__.py`` is exempt from the first check: it imports names to
re-export them.
"""

import ast
import importlib
import inspect
import typing
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dtlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no other code of it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_flags_an_unused_import():
    source = "from fractions import Fraction\nimport math\nimport os.path\nx = math.pi\n"
    assert unused_imports(source) == ["line 1: Fraction", "line 3: os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_annotation_resolves(path):
    module = importlib.import_module(f"dtlab.{path.stem}")
    defined = [obj for _, obj in inspect.getmembers(module)
               if (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__]
    defined += [fn for cls in defined if inspect.isclass(cls)
                for fn in vars(cls).values() if inspect.isfunction(fn)]
    assert defined
    for obj in defined:
        typing.get_type_hints(obj)
