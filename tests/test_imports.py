"""Module boundaries of the package source."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import grassfoil

SOURCES = sorted(Path(grassfoil.__file__).parent.glob("*.py"))


def private_imports(path: Path) -> list[str]:
    """``module.name`` for every underscore name imported from a sibling."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        sibling = node.level == 1 or (node.module or "").startswith("grassfoil")
        for alias in node.names:
            name = alias.name
            if sibling and name.startswith("_") and not name.startswith("__"):
                found.append(f"{node.module or ''}.{name}")
    return found


def test_no_private_imports_across_modules():
    assert {p.name for p in SOURCES} >= {"cli.py", "io.py", "pga.py"}
    offenders = {p.name: private_imports(p) for p in SOURCES}
    assert {name: hits for name, hits in offenders.items() if hits} == {}


def test_guard_sees_a_private_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .io import _get_int, read_text\n"
                     "from . import __version__\n")
    assert private_imports(probe) == ["io._get_int"]


NUMPY_ONLY = """
import sys
sys.modules["scipy"] = None  # any scipy import now fails
import grassfoil.cli
from grassfoil.blade import build_blade, interpolate_section
from grassfoil.geometry import cst_evaluate, default_baselines
sections = [cst_evaluate(default_baselines()[k], 51) for k in range(3)]
blade = build_blade([0.0, 0.5, 1.0], sections)
print(interpolate_section(blade, 0.3).points.shape)
"""


def test_runs_without_scipy():
    env = dict(os.environ)
    src = str(Path(grassfoil.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", NUMPY_ONLY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "(51, 2)"
