"""Intrinsic mean and principal-geodesic design spaces.

Given standardized shapes as points on the subspace manifold, this module
finds their Karcher mean by fixed-point iteration, fits an ``r``-dimensional
tangent-space basis by eigendecomposition of the second-moment matrix of
the logarithms at that mean, and exposes the resulting normal-coordinate
design space: coordinates of shapes, synthesis of new shapes, straight-line
sweeps, and a membership test for the region covered by training data.

Tangent matrices flatten column-major (all first coordinates, then all
second coordinates), and the convention is recorded in serialized models.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    CutLocusError,
    DimensionError,
    IterationLimitError,
    ParameterError,
    array_argument,
    integer_argument,
)
from .geometry import MAX_COORDINATE, sweep_points
from .grassmann import (
    GrassmannPoint,
    TangentVector,
    as_frames,
    check_tangents,
    exp_map,
    exp_map_stack,
    log_map_stack,
)

#: Flattening convention for tangent matrices in models and files.
FLATTEN_ORDER = "column-major"

_DOMAIN_MARGIN = 1.1


def flatten_tangent(mat: np.ndarray) -> np.ndarray:
    """Column-major flattening of one tangent matrix, or of each of a stack."""
    return mat.swapaxes(-1, -2).reshape(*mat.shape[:-2],
                                        mat.shape[-2] * mat.shape[-1])


def unflatten_tangent(vec: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`flatten_tangent`, as a view."""
    return vec.reshape(*vec.shape[:-1], -1, n).swapaxes(-1, -2)


@dataclass(frozen=True, eq=False)
class PgaModel:
    """Fitted design space as read-only arrays: ``mean`` ``(n, 2)``,
    ``basis`` ``(r, n, 2)``, ``eigenvalues``, the domain's ``bounds_min``,
    ``bounds_max`` and ``ellipsoid_radii`` (the box of the training
    coordinates, and an origin-centered ellipsoid that holds them with a
    1.1x margin), each ``(r,)``, and ``training_coords`` ``(N, r)``. The
    mean is checked as a :class:`GrassmannPoint` and the directions by
    :func:`~grassfoil.grassmann.check_tangents`; the first faulty one
    raises, with ``shape_index``. Then, as :func:`~grassfoil.io.read_model`
    requires, ``r`` and ``N`` are at least 1 and every entry is finite and
    at most ``MAX_COORDINATE`` in magnitude.
    """

    mean: np.ndarray
    basis: np.ndarray
    eigenvalues: np.ndarray
    bounds_min: np.ndarray
    bounds_max: np.ndarray
    ellipsoid_radii: np.ndarray
    training_coords: np.ndarray

    def __post_init__(self):
        point = GrassmannPoint(self.mean)
        object.__setattr__(self, "mean", point.rep)
        for name in ("basis", "eigenvalues", "bounds_min", "bounds_max",
                     "ellipsoid_radii", "training_coords"):
            arr = array_argument(getattr(self, name), name,
                                 DimensionError).copy(order="K")
            if name == "basis":
                if (point.q != 2 or arr.ndim != 3 or not len(arr)
                        or arr.shape[1:] != point.rep.shape):
                    raise DimensionError(
                        f"expected an (n, 2) mean and an (r, n, 2) basis with "
                        f"r >= 1, got shapes {point.rep.shape} and {arr.shape}")
                check_tangents(point.rep, arr)
                r = len(arr)
            elif name == "training_coords":
                if arr.ndim != 2 or not len(arr) or arr.shape[1] != r:
                    raise DimensionError(
                        f"training coordinates must be (N, r) with N >= 1 and "
                        f"r = {r}, got shape {arr.shape}")
            elif arr.shape != (r,):
                raise DimensionError(
                    f"{name} must be one-dimensional with one entry per basis "
                    f"direction, got shape {arr.shape}")
            peak = np.abs(arr).max()
            if not np.isfinite(peak):
                raise DimensionError(f"{name} contains non-finite values")
            if peak > MAX_COORDINATE:
                raise DimensionError(
                    f"{name} exceeds {MAX_COORDINATE:.0e} in magnitude")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def r(self) -> int:
        return len(self.basis)

    @property
    def n(self) -> int:
        return len(self.mean)

    def checked_coords(self, t) -> np.ndarray:
        """``t`` as a finite float vector of this model's ``r`` normal
        coordinates."""
        t = array_argument(t, "coordinates", DimensionError)
        if t.shape != (self.r,):
            raise DimensionError(
                f"expected {self.r} coordinates, got shape {t.shape}")
        if not np.isfinite(t).all():
            raise DimensionError("coordinates contain non-finite values")
        return t

    def direction(self, t) -> np.ndarray:
        """Tangent matrix at the mean with normal coordinates ``t``, or the
        ``(m, n, 2)`` stack of them for an ``(m, r)`` stack of coordinates,
        each row checked as :meth:`checked_coords` checks one."""
        t = array_argument(t, "coordinates", DimensionError)
        if t.ndim != 2:
            t = self.checked_coords(t)
        elif t.shape[1] != self.r or not np.isfinite(t).all():
            raise DimensionError(f"expected an (m, {self.r}) stack of finite "
                                 f"coordinates, got shape {t.shape}")
        # one vector-matrix product per row keeps the bits of a single one
        flat = np.matmul(t[..., None, :], self.basis.reshape(self.r, -1))
        return flat.reshape(*t.shape[:-1], self.n, 2)


# ---------------------------------------------------------------------------
# intrinsic mean


def logs_at(base, frames) -> np.ndarray:
    """Logarithms at the ``(n, 2)`` frame ``base`` of an ``(N, n, 2)`` stack
    of frames, as one (N, 2n) array of flattened rows.

    A shape at the cut locus of ``base`` is named by its index.
    """
    try:
        logs = log_map_stack(base, frames)
    except CutLocusError as err:
        err.args = (f"shape {err.shape_index} is at the cut locus of the "
                    f"mean: {err}",)
        raise
    return flatten_tangent(logs)


@dataclass(frozen=True, eq=False)
class KarcherResult:
    """Intrinsic mean frame, its gradient norm, steps taken, and logs there."""

    point: np.ndarray
    residual: float
    iterations: int
    logs: np.ndarray


def karcher_mean(shapes, tol: float = 1e-10,
                 max_iter: int = 200) -> KarcherResult:
    """Fixed-point intrinsic mean of an ``(N, n, 2)`` stack of
    representatives: repeatedly exponentiate the mean logarithm.

    Starts from the first shape; stops when the mean tangent's norm (the
    gradient of the summed squared distance, up to a factor) drops below
    ``tol``. The result carries that norm as ``residual``, the number of
    exponential steps as ``iterations``, and the last pass's read-only
    logarithms as ``logs``. The summation order is fixed, so reruns agree.
    Past ``max_iter`` steps, the error states the last contraction ratio.
    """
    shapes = array_argument(shapes, "representatives", DimensionError)
    if shapes.ndim and not len(shapes):
        raise ParameterError("cannot average an empty set of shapes")
    if not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol > 0.0):
        raise ParameterError(f"tol must be finite and > 0, got {tol}")
    max_iter = integer_argument(max_iter, "max_iter")
    if max_iter < 0:
        raise ParameterError(f"max_iter must be >= 0, got {max_iter}")
    reps = as_frames(shapes)
    # The first base is a view into the stack, so numpy forms the first
    # shape's P'Q with the symmetric product of the one-shape log map.
    base = reps[0]
    mean = GrassmannPoint(base)
    residual = None
    for iterations in range(max_iter + 1):
        logs = logs_at(base, reps)
        grad = unflatten_tangent(logs.mean(axis=0), mean.n)
        previous, residual = residual, float(np.linalg.norm(grad))
        if residual < tol:
            logs.setflags(write=False)
            return KarcherResult(mean.rep, residual, iterations, logs)
        if iterations < max_iter:
            mean = exp_map(mean, TangentVector(grad, mean))
            base = mean.rep
    ratio = None if previous is None else residual / previous
    trend = "" if ratio is None else f", last contraction ratio {ratio:.4f}"
    raise IterationLimitError(
        f"intrinsic mean did not converge in {max_iter} iterations "
        f"(residual {residual:.3e}, tol {tol:.1e}{trend})",
        residual=residual, iterations=max_iter, ratio=ratio)


# ---------------------------------------------------------------------------
# principal geodesic fit


def pga_fit(mean, logs: np.ndarray, r: int) -> PgaModel:
    """Principal directions of the (N, 2n) logarithm rows at frame ``mean``.

    Eigendecomposes the second-moment matrix ``sum_i v_i v_i' / N`` of the
    rows, as ``logs_at`` and ``KarcherResult.logs`` give them; the mean is
    the centering, so the eigenvalue sum equals the mean squared logarithm
    norm exactly. Fewer samples than ambient dimensions take the N x N
    Gram matrix, which yields the same spectrum cheaper. ``logs`` that are
    not a finite numeric (N, 2n) array, or whose moments would overflow (an
    entry beyond ``MAX_COORDINATE``), raise ``DimensionError``.
    """
    mean = GrassmannPoint(mean).rep
    n = len(mean)
    r = integer_argument(r, "r")
    logs = array_argument(logs, "logs", DimensionError)
    if logs.ndim != 2 or logs.shape[1] != 2 * n:
        raise DimensionError(
            f"logarithms must be (N, {2 * n}) rows, got shape {logs.shape}")
    # a NaN makes both extremes NaN; neither reduction allocates a copy
    peak = max(-logs.min(initial=0.0), logs.max(initial=0.0))
    if not np.isfinite(peak):
        raise DimensionError("logarithms contain non-finite values")
    if peak > MAX_COORDINATE:
        raise DimensionError(
            f"logarithms exceed {MAX_COORDINATE:.0e} in magnitude; the "
            "moment matrix would overflow")
    n_samples = len(logs)
    max_r = min(n_samples, 2 * (n - 2))
    if not (1 <= r <= max_r):
        raise DimensionError(
            f"requested {r} directions; at most {max_r} are identifiable "
            f"from {n_samples} samples on a manifold of dimension {2 * (n - 2)}")
    if n_samples < 2 * n:
        vals, vecs = np.linalg.eigh((logs @ logs.T) / n_samples)
        vals = vals[::-1][:r]
        vecs = vecs[:, ::-1][:, :r]
        safe = np.sqrt(np.where(vals > 0.0, vals, 1.0) * n_samples)
        basis_flat = ((logs.T @ vecs) / safe).T
    else:
        vals, vecs = np.linalg.eigh((logs.T @ logs) / n_samples)
        vals = vals[::-1][:r]
        basis_flat = vecs[:, ::-1][:, :r].T
    eigenvalues = np.clip(vals, 0.0, None)
    basis = _clean_directions(basis_flat, eigenvalues, mean)
    coords = logs @ flatten_tangent(basis).T
    return PgaModel(mean, basis, eigenvalues,
                    *_fit_domain(coords, eigenvalues), coords)


def _clean_directions(basis_flat: np.ndarray, eigenvalues: np.ndarray,
                      mean: np.ndarray) -> np.ndarray:
    """Project directions horizontal, zero out numerically dead ones, fix signs.

    Eigenvectors with eigenvalue at rounding level (relative 1e-12) carry no
    information and, from the dense route, may even leave the horizontal
    space; they become zero matrices. Live directions get re-unitized after
    projection and a sign convention (largest-magnitude entry positive) so
    the Gram and dense routes produce identical bases.
    """
    cutoff = max(float(eigenvalues[0]) * 1e-12, 1e-24) if eigenvalues.size else 0.0
    mats = unflatten_tangent(np.array(basis_flat, order="C"), len(mean))
    mats -= mean @ (mean.T @ mats)
    for val, mat in zip(eigenvalues, mats):
        norm = float(np.linalg.norm(mat))
        if val <= cutoff or norm <= 0.5:
            mat[...] = 0.0
            continue
        mat /= norm
        flat = flatten_tangent(mat)
        if flat[np.argmax(np.abs(flat))] < 0.0:
            mat *= -1.0
    return mats


def _fit_domain(coords: np.ndarray, eigenvalues: np.ndarray):
    """``bounds_min``, ``bounds_max`` and ``ellipsoid_radii`` of a model."""
    scale = np.sqrt(eigenvalues)
    with np.errstate(divide="ignore", invalid="ignore"):
        normalized = np.where(scale > 0.0, coords / scale, 0.0)
    max_radius = float(np.max(np.linalg.norm(normalized, axis=1)))
    return (coords.min(axis=0), coords.max(axis=0),
            _DOMAIN_MARGIN * max(max_radius, 1.0e-12) * scale)


# ---------------------------------------------------------------------------
# the design space


def coords_of(model: PgaModel, frame) -> np.ndarray:
    """Normal coordinates: projections of the frame's logarithm at the mean
    on the basis; ``frame`` is checked as :func:`log_map_stack` checks one."""
    frame = array_argument(frame, "frame", DimensionError)
    v = flatten_tangent(log_map_stack(model.mean, frame[None]))[0]
    return flatten_tangent(model.basis) @ v


def synthesize(model: PgaModel, t: np.ndarray) -> np.ndarray:
    """The ``(n, 2)`` frame at ``t``: exponentiate the basis combination."""
    return exp_map_stack(model.mean, model.direction(t)[None])[0]


def domain_contains(model: PgaModel, t: np.ndarray) -> bool:
    """Whether coordinates fall inside the training-data ellipsoid. A
    coordinate beyond its radius is outside before any ratio is squared."""
    t = model.checked_coords(t)
    radii = model.ellipsoid_radii
    degenerate = radii <= 0.0
    if np.any(np.abs(t) > np.where(degenerate, 1e-12, radii)):
        return False
    ratio = np.where(degenerate, 0.0, t / np.where(degenerate, 1.0, radii))
    return float(np.sum(ratio**2)) <= 1.0


def corner_sweep(model: PgaModel, corner_a: np.ndarray, corner_b: np.ndarray,
                 steps: int) -> np.ndarray:
    """Frames along the straight segment between two coordinate corners, as
    one ``(steps, n, 2)`` stack: each step's frame is the one
    :func:`synthesize` gives at its coordinates."""
    points = sweep_points(corner_a, corner_b, steps)
    return exp_map_stack(model.mean, model.direction(points))
