"""Each package module imports first in a fresh interpreter, so no import cycle hides.

``import vibronic.x`` would run the package ``__init__`` first, which imports
the modules in one fixed order.  The child registers the package without
running its body, so module x really is the first to load.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p.stem for p in (ROOT / "src" / "vibronic").glob("*.py") if p.stem != "__init__")

CHILD = """
import importlib, importlib.util, sys
sys.modules["vibronic"] = importlib.util.module_from_spec(importlib.util.find_spec("vibronic"))
importlib.import_module("vibronic.{module}")
"""


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", CHILD.format(module=module)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
