"""Every public name resolves: each module's ``__all__``, the package's, and
the eigenbond imports of the demos and of README's Python blocks."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import eigenbond

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(info.name for info in pkgutil.iter_modules(eigenbond.__path__))


def _unresolved(module, names):
    return [name for name in names if not hasattr(module, name)]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"eigenbond.{name}")
    assert _unresolved(module, getattr(module, "__all__", ())) == []


def test_package_all_resolves():
    assert _unresolved(eigenbond, eigenbond.__all__) == []


def _documented_sources():
    for path in sorted((ROOT / "demos").glob("*.py")):
        yield path.name, path.read_text()
    readme = (ROOT / "README.md").read_text()
    for number, block in enumerate(re.findall(r"```python\n(.*?)```", readme, re.S), 1):
        yield f"README.md python block {number}", block


def _eigenbond_imports(source):
    """(module, name) per ``from eigenbond... import name``; name None per
    ``import eigenbond...``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "eigenbond":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from (
                (alias.name, None)
                for alias in node.names
                if alias.name.split(".")[0] == "eigenbond"
            )


def _resolves(module_name, name):
    module = importlib.import_module(module_name)
    if name is None or hasattr(module, name):
        return True
    try:  # a submodule not yet imported
        importlib.import_module(f"{module_name}.{name}")
    except ModuleNotFoundError:
        return False
    return True


SOURCES = list(_documented_sources())


@pytest.mark.parametrize("where,source", SOURCES, ids=[where for where, _ in SOURCES])
def test_documented_imports_resolve(where, source):
    imports = list(_eigenbond_imports(source))
    assert imports, f"{where} imports nothing from eigenbond"
    assert [pair for pair in imports if not _resolves(*pair)] == []
