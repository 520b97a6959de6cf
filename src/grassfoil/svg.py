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

from . import codec
from .errors import ParameterError

_SVG_NS = "http://www.w3.org/2000/svg"

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f")

#: Shapes per bulk path formatting, which bounds its temporaries.
_CHUNK = 16

# The zeros "%.3f" numbers lose in a drawing. Every number is followed by a
# space, and a finite "%.3f" number ends in a point and three decimals, so a
# run of zeros before a space is trailing; it takes the point along when all
# three decimals are zero. nan and inf hold no zero.
_TRAILING_ZEROS = re.compile(r"[.0]0* ")


def _numbers(*values: float) -> list[str]:
    """Each value as a drawing writes it: "%.3f" less its trailing zeros,
    and less its point when all three decimals are zero."""
    return _TRAILING_ZEROS.sub(" ", "%.3f " * len(values) % values).split()


def _path_data(views: np.ndarray) -> list[str]:
    """The closed path "M x y L x y ... Z" of each (n, 2) slice of a
    (k, n, 2) stack of view coordinates: in bulk where
    :func:`codec.path_data` settles the slice, else number by number."""
    paths = codec.path_data(views)
    for i in (i for i, d in enumerate(paths) if d is None):
        numbers = iter(_numbers(*views[i].ravel().tolist()))
        paths[i] = "M " + " L ".join(
            f"{x} {y}" for x, y in zip(numbers, numbers)) + " Z"
    return paths


class _Canvas:
    """Maps data coordinates into a y-flipped viewport with margins: one
    frame for corners ``lo`` and ``hi`` of shape (2,), or one frame per
    shape of a (k, n, 2) stack for corners of shape (k, 2)."""

    def __init__(self, lo: np.ndarray, hi: np.ndarray, width: float,
                 height: float, margin: float):
        span = np.maximum(hi - lo, 1e-12)
        room = np.array([width, height]) - 2 * margin
        fit = room / span
        scale = np.where(fit[..., 1] < fit[..., 0], fit[..., 1], fit[..., 0])
        self.scale = scale[..., None]
        self.lo = lo[..., None, :]
        self.offset = (margin + 0.5 * (room - self.scale * span))[..., None, :]
        self.height = height

    def to_view(self, pts: np.ndarray) -> np.ndarray:
        """View coordinates of an (n, 2) shape or a (k, n, 2) stack, one
        column at a time, so that each loop runs over landmarks."""
        out = np.empty(pts.shape)
        for c in range(2):
            view = out[..., c]
            np.subtract(pts[..., c], self.lo[..., c], out=view)
            view *= self.scale
            view += self.offset[..., c]
        out[..., 1] = self.height - out[..., 1]
        return out


def _document(width: float, height: float) -> ET.Element:
    width, height = _numbers(width, height)
    return ET.Element("svg", {
        "xmlns": _SVG_NS,
        "width": width,
        "height": height,
        "viewBox": f"0 0 {width} {height}",
    })


def _closed_paths(parent: ET.Element, views: np.ndarray, start: int,
                  width: str = "1") -> None:
    """One closed path per (n, 2) slice of ``views``, the first coloured as
    shape ``start`` of the drawing."""
    for i, d in enumerate(_path_data(views), start):
        ET.SubElement(parent, "path", {
            "d": d,
            "stroke": _PALETTE[i % len(_PALETTE)],
            "fill": "none",
            "stroke-width": width,
        })


def _chunks(runs: Sequence[np.ndarray]):
    """``(start, stack)`` for each run of ``runs`` in turn, as float
    (k, n, 2) stacks of at most ``_CHUNK`` shapes, sliced, not copied;
    ``start`` counts the shapes of the drawing before the stack."""
    start = 0
    for run in runs:
        run = np.asarray(run, dtype=float)
        if run.ndim != 3 or run.shape[2] != 2:
            raise ParameterError(
                f"shapes must come as (k, n, 2) stacks, got shape {run.shape}")
        for i in range(0, len(run), _CHUNK):
            yield start + i, run[i:i + _CHUNK]
        start += len(run)


def _corners(stack: np.ndarray, axis: int | None):
    """Lowest and highest coordinates of a (k, n, 2) stack, over ``axis``
    of each column (k, n), one column at a time, so that each loop runs
    over landmarks."""
    columns = stack[..., 0], stack[..., 1]
    return (np.stack([c.min(axis=axis) for c in columns], axis=-1),
            np.stack([c.max(axis=axis) for c in columns], axis=-1))


def _to_string(root: ET.Element) -> str:
    return ET.tostring(root, encoding="unicode") + "\n"


def render_shapes(runs: Sequence[np.ndarray]) -> str:
    """All shapes overlaid in one frame, one closed path each, coloured in
    drawing order. ``runs`` is a sequence of (k, n, 2) stacks, whose
    landmark counts may differ; the first run that is not such a stack
    raises ``ParameterError``, as does a drawing with no shape."""
    if sum(map(len, runs)) == 0:
        raise ParameterError("nothing to render")
    width, height = 720.0, 360.0
    lows, highs = zip(*[_corners(s, None) for _, s in _chunks(runs)])
    lo, hi = np.min(lows, axis=0), np.max(highs, axis=0)
    canvas = _Canvas(lo, hi, width, height, 20.0)
    root = _document(width, height)
    for start, stack in _chunks(runs):
        _closed_paths(root, canvas.to_view(stack), start)
    return _to_string(root)


def render_strip(runs: Sequence[np.ndarray]) -> str:
    """Small multiples left to right, up to ten a row; one path per shape,
    each scaled to its own cell. ``runs`` and its errors are as for
    :func:`render_shapes`."""
    count = sum(map(len, runs))
    if count == 0:
        raise ParameterError("nothing to render")
    cell = 130.0
    columns = min(10, count)
    rows = (count + columns - 1) // columns
    width, height = columns * cell, rows * cell
    root = _document(width, height)
    for start, stack in _chunks(runs):
        canvas = _Canvas(*_corners(stack, 1), cell, cell, 10.0)
        view = canvas.to_view(stack)
        index = np.arange(start, start + len(stack))[:, None]
        view[..., 0] += (index % columns) * cell
        view[..., 1] += (index // columns) * cell
        _closed_paths(root, view, start)
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
    ox, oy, right, bottom = _numbers(
        *canvas.to_view(np.zeros((1, 2)))[0].tolist(), width, height)
    ET.SubElement(root, "line", {
        "x1": "0", "y1": oy, "x2": right, "y2": oy, "stroke": "#cccccc",
        "stroke-width": "1"})
    ET.SubElement(root, "line", {
        "x1": ox, "y1": "0", "x2": ox, "y2": bottom, "stroke": "#cccccc",
        "stroke-width": "1"})
    numbers = iter(_numbers(*canvas.to_view(points).ravel().tolist()))
    for x, y in zip(numbers, numbers):
        ET.SubElement(root, "circle", {
            "cx": x, "cy": y, "r": "2.2",
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
    for start, stack in _chunks([sections]):
        _closed_paths(root, canvas.to_view(stack), start, width="0.8")
    return _to_string(root)
