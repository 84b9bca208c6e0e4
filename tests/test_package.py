"""Checks over the package as a whole: its source and its import."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lipsam"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names a module imports but never reads; ``__future__`` imports are
    compiler directives and do not count."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_scan_sees_names_in_every_position():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from math import pi, tau\n"
        "from .errors import ShapeError\n"
        "def f(x: tau) -> None:\n"
        "    return os.path.join(js.dumps(x))\n"
    )
    assert unused_imports(source) == [(4, "pi"), (5, "ShapeError")]


def test_modules_are_found():
    assert {"cli.py", "network.py", "trainer.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


ROOT = PACKAGE.parents[1]
# production callers: the package, minus the re-exports of its __init__,
# plus the scripts and the benchmark harness
CALLERS = MODULES + sorted(ROOT.glob("scripts/*.py")) + sorted(ROOT.glob("perfbench/*.py"))


def public_definitions(source: str) -> list:
    """``(name, is_member)`` for each public top-level function and class,
    and for each public method or property of a public class."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append((node.name, False))
            if isinstance(node, ast.ClassDef):
                found.extend(
                    (f"{node.name}.{member.name}", True)
                    for member in node.body
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
                )
    return found


def uncalled_public_names(modules, callers) -> list:
    """Public names of ``modules`` that no source in ``callers`` reads.

    A function or class counts as read when a name, an attribute or an
    ``import`` refers to it; a method or property only when an attribute
    does."""
    names, attributes = set(), set()
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.split(".")[-1] for alias in node.names)
    uncalled = []
    for path in modules:
        for qualified, is_member in public_definitions(path.read_text()):
            name = qualified.rsplit(".", 1)[-1]
            read = name in attributes or (not is_member and name in names)
            if not read:
                uncalled.append(f"{path.stem}.{qualified}")
    return sorted(uncalled)


def test_caller_scan_tells_members_from_top_level_names(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "def used(): pass\n"
        "def imported(): pass\n"
        "def unused(): pass\n"
        "def _private(): pass\n"
        "class Box:\n"
        "    def read(self): pass\n"
        "    @property\n"
        "    def size(self): pass\n"
        "    def _hidden(self): pass\n"
    )
    caller = tmp_path / "caller.py"
    caller.write_text("from mod import imported\nsize = used(Box().read)\n")
    assert uncalled_public_names([module], [module, caller]) == ["mod.Box.size", "mod.unused"]


def test_every_public_name_has_a_production_caller():
    assert uncalled_public_names(MODULES, CALLERS) == []


# pytest itself imports scipy, so the import is checked in a fresh interpreter
IMPORT_PROBE = """
import json, os, sys, tempfile
import numpy as np
import lipsam, lipsam.cli
from lipsam.lipschitz import SearchConfig, conv2d_family, estimate_B
from lipsam.network import SOFTPLUS
from lipsam.signal import TimeSignal, read_wav, write_wav

report = {"after_import": sorted(
    m for m in ("scipy.special", "scipy.io", "concurrent.futures.process") if m in sys.modules)}
SOFTPLUS.derivative(np.zeros(3))
with tempfile.TemporaryDirectory() as folder:
    path = os.path.join(folder, "probe.wav")
    write_wav(path, TimeSignal(np.zeros(8)))
    read_wav(path)
estimate_B(conv2d_family("lipsam_se"), SearchConfig(restarts=1, max_iterations=2))
report["after_use"] = sorted(m for m in ("scipy.special", "scipy.io.wavfile") if m in sys.modules)
print(json.dumps(report))
"""


def test_import_defers_scipy_and_the_process_pool_until_used():
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    paths = [str(PACKAGE.parent)] + [p for p in inherited if p]
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["after_import"] == []
    assert report["after_use"] == ["scipy.io.wavfile"]
