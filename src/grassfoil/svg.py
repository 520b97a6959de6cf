"""Dependency-free SVG rendering of shapes, scatters, and wireframes.

Presentation only: nothing numeric downstream depends on these files.
Every drawing is built through ElementTree so the output is well-formed
XML by construction; each shape becomes one closed path.
"""
from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from typing import Sequence

import numpy as np

from .errors import ParameterError

_SVG_NS = "http://www.w3.org/2000/svg"

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f")


def _fmt(value: float) -> str:
    return f"{value:.3f}".rstrip("0").rstrip(".")


# The zeros _fmt strips, for a whole path at once. Every number in a path
# is followed by a space, and a finite "%.3f" number ends in a point and
# three decimals, so a run of zeros before a space is trailing; it takes the
# point along when all three decimals are zero. nan and inf hold no zero.
_TRAILING_ZEROS = re.compile(r"[.0]0* ")


class _Canvas:
    """Maps data coordinates into a y-flipped viewport with margins."""

    def __init__(self, lo: np.ndarray, hi: np.ndarray, width: float,
                 height: float, margin: float):
        span = np.maximum(hi - lo, 1e-12)
        scale = min((width - 2 * margin) / span[0],
                    (height - 2 * margin) / span[1])
        self.scale = scale
        self.lo = lo
        self.offset_x = margin + 0.5 * ((width - 2 * margin) - scale * span[0])
        self.offset_y = margin + 0.5 * ((height - 2 * margin) - scale * span[1])
        self.height = height

    def to_view(self, pts: np.ndarray) -> np.ndarray:
        out = np.empty_like(pts, dtype=float)
        out[:, 0] = self.offset_x + self.scale * (pts[:, 0] - self.lo[0])
        out[:, 1] = self.height - (self.offset_y
                                   + self.scale * (pts[:, 1] - self.lo[1]))
        return out


def _document(width: float, height: float) -> ET.Element:
    return ET.Element("svg", {
        "xmlns": _SVG_NS,
        "width": _fmt(width),
        "height": _fmt(height),
        "viewBox": f"0 0 {_fmt(width)} {_fmt(height)}",
    })


def _closed_path(parent: ET.Element, pts: np.ndarray, stroke: str,
                 fill: str = "none", width: float = 1.0) -> None:
    d = ("M %.3f %.3f" + " L %.3f %.3f" * (len(pts) - 1) + " Z") % tuple(
        pts.ravel().tolist())
    ET.SubElement(parent, "path", {
        "d": _TRAILING_ZEROS.sub(" ", d),
        "stroke": stroke,
        "fill": fill,
        "stroke-width": _fmt(width),
    })


def _to_string(root: ET.Element) -> str:
    return ET.tostring(root, encoding="unicode") + "\n"


def render_shapes(shapes: Sequence[np.ndarray]) -> str:
    """All shapes overlaid in one frame, one closed path each."""
    if not shapes:
        raise ParameterError("nothing to render")
    width, height = 720.0, 360.0
    pts = np.vstack([np.asarray(s, dtype=float) for s in shapes])
    canvas = _Canvas(pts.min(axis=0), pts.max(axis=0), width, height, 20.0)
    root = _document(width, height)
    for i, shape in enumerate(shapes):
        _closed_path(root, canvas.to_view(np.asarray(shape, dtype=float)),
                     _PALETTE[i % len(_PALETTE)])
    return _to_string(root)


def render_strip(shapes: Sequence[np.ndarray]) -> str:
    """Small multiples left to right, up to ten a row; one path per shape."""
    if not shapes:
        raise ParameterError("nothing to render")
    cell = 130.0
    columns = min(10, len(shapes))
    rows = (len(shapes) + columns - 1) // columns
    width, height = columns * cell, rows * cell
    root = _document(width, height)
    for i, shape in enumerate(shapes):
        pts = np.asarray(shape, dtype=float)
        canvas = _Canvas(pts.min(axis=0), pts.max(axis=0), cell, cell, 10.0)
        view = canvas.to_view(pts)
        view[:, 0] += (i % columns) * cell
        view[:, 1] += (i // columns) * cell
        _closed_path(root, view, _PALETTE[i % len(_PALETTE)])
    return _to_string(root)


def render_scatter(points: np.ndarray) -> str:
    """2D scatter with light axes through the origin."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2 or len(points) == 0:
        raise ParameterError(
            f"scatter wants a nonempty (N, 2) array, got {points.shape}")
    width = height = 480.0
    lo = np.minimum(points.min(axis=0), 0.0)
    hi = np.maximum(points.max(axis=0), 0.0)
    canvas = _Canvas(lo, hi, width, height, 25.0)
    root = _document(width, height)
    origin = canvas.to_view(np.zeros((1, 2)))[0]
    ET.SubElement(root, "line", {
        "x1": "0", "y1": _fmt(origin[1]), "x2": _fmt(width),
        "y2": _fmt(origin[1]), "stroke": "#cccccc", "stroke-width": "1"})
    ET.SubElement(root, "line", {
        "x1": _fmt(origin[0]), "y1": "0", "x2": _fmt(origin[0]),
        "y2": _fmt(height), "stroke": "#cccccc", "stroke-width": "1"})
    for x, y in canvas.to_view(points):
        ET.SubElement(root, "circle", {
            "cx": _fmt(x), "cy": _fmt(y), "r": "2.2",
            "fill": _PALETTE[0], "fill-opacity": "0.55"})
    return _to_string(root)


def render_wireframe(grid: np.ndarray) -> str:
    """Cavalier projection of the span-stacked sections, hub to tip.

    The span coordinate recedes along the diagonal; each section stays a
    closed path so the blade reads as a stack of airfoils.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 3 or grid.shape[2] != 3:
        raise ParameterError(
            f"wireframe wants a (spans, n, 3) grid, got {grid.shape}")
    width, height = 720.0, 540.0
    shear = 0.9 / np.sqrt(2.0)  # depth scale 0.9 along the diagonal
    flat = grid.reshape(-1, 3)
    proj = np.stack([flat[:, 0] + shear * flat[:, 2],
                     flat[:, 1] + shear * flat[:, 2]], axis=1)
    canvas = _Canvas(proj.min(axis=0), proj.max(axis=0), width, height, 25.0)
    root = _document(width, height)
    sections = proj.reshape(grid.shape[0], grid.shape[1], 2)
    for i, section in enumerate(sections):
        _closed_path(root, canvas.to_view(section),
                     _PALETTE[i % len(_PALETTE)], width=0.8)
    return _to_string(root)
