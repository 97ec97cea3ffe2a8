"""The package needs numpy only: importing every mono3d module loads no scipy."""

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
