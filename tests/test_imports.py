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


def text_reads(path: Path) -> list[int]:
    """Lines of ``path`` that import, call or look up a ``read_text``."""
    lines = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            named = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            named = [node.attr]
        elif isinstance(node, ast.Name):
            named = [node.id]
        else:
            continue
        if "read_text" in named:
            lines.add(node.lineno)
    return sorted(lines)


def test_only_io_reads_file_text():
    assert "io.py" in {p.name for p in SOURCES}
    offenders = {p.name: text_reads(p) for p in SOURCES if p.name != "io.py"}
    assert {name: lines for name, lines in offenders.items() if lines} == {}


def test_guard_sees_a_text_read(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .io import read_text, write_text\n"
                     "from . import io as gio\n"
                     "text = gio.read_text('a.csv')\n"
                     "gio.write_text('b.csv', text)\n"
                     "data = Path('c.csv').read_text()\n")
    assert text_reads(probe) == [1, 3, 5]


def package_classes() -> set[str]:
    """Names of the classes that the package source defines."""
    return {node.name for path in SOURCES
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.ClassDef)}


def discarded_objects(path: Path, classes: set[str]) -> list[int]:
    """Lines of ``path`` whose statement or ``lambda`` body is a call of one
    of ``classes``: an object made only to raise, or thrown away."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        body = node.value if isinstance(node, ast.Expr) else (
            node.body if isinstance(node, ast.Lambda) else None)
        if isinstance(body, ast.Call):
            func = body.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None)
            if name in classes:
                lines.append(node.lineno)
    return sorted(lines)


def test_no_value_object_is_built_only_to_be_discarded():
    classes = package_classes()
    assert {"AffineMap", "TangentVector", "GrassmannPoint"} <= classes
    offenders = {p.name: discarded_objects(p, classes) for p in SOURCES}
    assert {name: lines for name, lines in offenders.items() if lines} == {}


def test_guard_sees_a_discarded_object(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("AffineMap(m, b)  # raises if singular\n"
                     "in_order(lambda rows: TangentVector(d, p), 3, 1)\n"
                     "affine = AffineMap(m, b)\n"
                     "geometry.AffineMap(m, b)\n"
                     "raise ParameterError('kept')\n"
                     "np.asarray(m)\n")
    assert discarded_objects(probe, package_classes()) == [1, 2, 4]


NUMPY_ONLY = """
import sys
sys.modules["scipy"] = None  # any scipy import now fails
import grassfoil.cli
from grassfoil.blade import build_blade, interpolate_section
from grassfoil.geometry import cst_evaluate, default_baselines
import numpy as np
sections = [cst_evaluate(default_baselines()[k], 51).points for k in range(3)]
blade = build_blade([0.0, 0.5, 1.0], np.array(sections))
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
