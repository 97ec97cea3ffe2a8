"""The package needs numpy only: importing every mono3d module loads no
scipy. And it holds no function or class that neither it nor the
benchmark uses."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

IMPORT_ALL = """
import importlib, json, pkgutil, sys
import mono3d
names = [m.name for m in pkgutil.walk_packages(mono3d.__path__, "mono3d.")]
for name in names:
    importlib.import_module(name)
print(json.dumps({"modules": names, "scipy": "scipy" in sys.modules}))
"""


def test_importing_every_module_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_ALL], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    on_disk = {f"mono3d.{p.stem}" for p in (SRC / "mono3d").glob("*.py") if p.stem != "__init__"}
    assert set(found["modules"]) == on_disk
    assert not found["scipy"]


def _referenced_names(path):
    """Every name a module reads: names, attributes, imported names and
    string constants (perfbench/spans.py wraps functions by name)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_module_level_function_and_class_is_used_by_the_package_or_perfbench():
    # src/ holds what the commands and the benchmark run; an API that only
    # the tests call belongs in the tests
    package = sorted((SRC / "mono3d").glob("*.py"))
    readers = package + sorted((SRC.parent / "perfbench").glob("*.py"))
    referenced = set().union(*(_referenced_names(path) for path in readers))
    unused = [
        f"{path.stem}.{node.name}"
        for path in package
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in referenced
    ]
    assert unused == [], unused
