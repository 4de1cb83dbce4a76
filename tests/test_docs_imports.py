"""Every ``from hybridfb... import X`` in the demos and the README resolves.

The sources are parsed, not run: running the demos takes seconds each.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PYTHON_BLOCK = re.compile(r"```python\n(.*?)```", re.DOTALL)


def _sources():
    sources = [(p.name, p.read_text()) for p in sorted((ROOT / "demos").glob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    for k, block in enumerate(PYTHON_BLOCK.findall(readme)):
        sources.append((f"README.md block {k}", block))
    return sources


SOURCES = _sources()


def _package_imports(source):
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if (node.module or "").split(".")[0] == "hybridfb":
            for alias in node.names:
                yield node.module, alias.name


def test_demos_and_readme_found():
    names = [name for name, _ in SOURCES]
    assert sum(name.endswith(".py") for name in names) >= 4
    assert any(name.startswith("README.md") for name in names)


@pytest.mark.parametrize("name, source", SOURCES, ids=[name for name, _ in SOURCES])
def test_package_imports_resolve(name, source):
    imports = list(_package_imports(source))
    assert imports, f"{name} imports nothing from hybridfb"
    missing = [
        f"{module}.{attr}"
        for module, attr in imports
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
