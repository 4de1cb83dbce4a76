"""The demos and the README match the package.

Every ``from hybridfb... import X`` in the demos and the README resolves,
every demo runs to exit 0 (each under a second), and every ``python``
block of the README runs.  A demo runs as a copy in a temporary
directory, since the adaptive case study writes its CSVs next to itself.
``scripts/kernel_us.py`` runs and times each of its kernels.  The
README's configuration defaults list every config key and each key's
default.
"""

import ast
import importlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from hybridfb.runner import _FIELD_PARSERS, ScenarioConfig

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


README_BLOCKS = [(name, src) for name, src in SOURCES if name.startswith("README")]


@pytest.mark.parametrize(
    "name, source", README_BLOCKS, ids=[name for name, _ in README_BLOCKS]
)
def test_readme_block_runs(name, source, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(source, name, "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out


DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_kernel_us_script_runs():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "kernel_us.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[1:]]
    names = {row[0] for row in rows}
    assert len(rows) == len(names) == 27
    assert {"adaptive.project_rate", "adaptive.central_difference"} <= names
    assert all(float(row[2]) > 0.0 for row in rows)
    assert rows[-1][0] == "backstep.locate" and int(rows[-1][1]) > 0


def _readme_defaults():
    """``key = value`` pairs of the README block that follows "Keys and defaults"."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("Keys\nand defaults:", 1)[1].split("```", 2)[1]
    pairs = re.findall(r"(\w+) =(.*?)(?=\s+\w+ =|$)", block, re.MULTILINE)
    return {key: value.strip() for key, value in pairs}


def test_readme_config_defaults_match():
    listed = _readme_defaults()
    assert set(listed) == set(_FIELD_PARSERS)
    defaults = ScenarioConfig()
    for key, text in listed.items():
        expected = getattr(defaults, key)
        if not text:
            assert expected is None, key
        elif key == "theta":  # printed rounded to four digits
            assert _FIELD_PARSERS[key](text) == pytest.approx(expected, abs=1e-4)
        else:
            assert _FIELD_PARSERS[key](text) == expected, key
