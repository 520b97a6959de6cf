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
from dataclasses import dataclass

import numpy as np

from .errors import (
    CutLocusError,
    DimensionError,
    IterationLimitError,
    ParameterError,
)
from .geometry import sweep_points
from .grassmann import GrassmannPoint, TangentVector, exp_map, log_map

#: Flattening convention for tangent matrices in models and files.
FLATTEN_ORDER = "column-major"

_DOMAIN_MARGIN = 1.1


def flatten_tangent(mat: np.ndarray) -> np.ndarray:
    return mat.ravel(order="F")


def unflatten_tangent(vec: np.ndarray, n: int) -> np.ndarray:
    return vec.reshape((n, 2), order="F")


@dataclass(frozen=True, eq=False)
class CoordinateDomain:
    """Region of normal-coordinate space covered by the training set.

    Axis-aligned bounds plus an origin-centered ellipsoid whose semi-axes
    put every training sample inside with a 1.1x margin.
    """

    bounds_min: np.ndarray
    bounds_max: np.ndarray
    ellipsoid_radii: np.ndarray

    def __post_init__(self):
        for name in ("bounds_min", "bounds_max", "ellipsoid_radii"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise DimensionError(f"{name} must be one-dimensional")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (self.bounds_min.shape == self.bounds_max.shape
                == self.ellipsoid_radii.shape):
            raise DimensionError("domain arrays must share one length")


@dataclass(frozen=True, eq=False)
class PgaModel:
    """Fitted design space: mean, tangent basis, spectrum, domain, coords."""

    mean: GrassmannPoint
    basis: tuple[TangentVector, ...]
    eigenvalues: np.ndarray
    domain: CoordinateDomain
    training_coords: np.ndarray

    def __post_init__(self):
        ev = np.array(self.eigenvalues, dtype=float)
        tc = np.array(self.training_coords, dtype=float)
        if ev.shape != (len(self.basis),):
            raise DimensionError("one eigenvalue per basis direction required")
        if tc.ndim != 2 or tc.shape[1] != len(self.basis):
            raise DimensionError(
                "training coordinates must be (N, r) with r basis directions")
        ev.setflags(write=False)
        tc.setflags(write=False)
        object.__setattr__(self, "eigenvalues", ev)
        object.__setattr__(self, "training_coords", tc)
        object.__setattr__(self, "basis", tuple(self.basis))

    @property
    def r(self) -> int:
        return len(self.basis)

    @property
    def n(self) -> int:
        return self.mean.n

    def basis_matrix(self) -> np.ndarray:
        """Basis stacked as an (r, 2n) array of flattened tangents."""
        return np.array([flatten_tangent(b.mat) for b in self.basis])

    def checked_coords(self, t) -> np.ndarray:
        """``t`` as a float vector of this model's ``r`` normal coordinates."""
        t = np.asarray(t, dtype=float)
        if t.shape != (self.r,):
            raise DimensionError(
                f"expected {self.r} coordinates, got shape {t.shape}")
        return t

    def direction(self, t) -> np.ndarray:
        """Tangent matrix at the mean with normal coordinates ``t``."""
        return np.tensordot(self.checked_coords(t),
                            np.array([b.mat for b in self.basis]), axes=(0, 0))


# ---------------------------------------------------------------------------
# intrinsic mean


def logs_at(mean: GrassmannPoint, shapes: list[GrassmannPoint]) -> np.ndarray:
    """Logarithms at ``mean`` as one (N, 2n) array of flattened rows.

    A shape at the cut locus of ``mean`` is named by its index.
    """
    logs = np.empty((len(shapes), 2 * mean.n))
    for i, shape in enumerate(shapes):
        try:
            logs[i] = flatten_tangent(log_map(mean, shape).mat)
        except CutLocusError as err:
            raise CutLocusError(
                f"shape {i} is at the cut locus of the mean: {err}",
                max_angle=err.max_angle, shape_index=i) from err
    return logs


@dataclass(frozen=True, eq=False)
class KarcherResult:
    """Intrinsic mean, its gradient norm, steps taken, and logs there."""

    point: GrassmannPoint
    residual: float
    iterations: int
    logs: np.ndarray


def karcher_mean(shapes: list[GrassmannPoint], tol: float = 1e-10,
                 max_iter: int = 200) -> KarcherResult:
    """Fixed-point intrinsic mean: repeatedly exponentiate the mean logarithm.

    Starts from the first shape; stops when the mean tangent's norm (the
    gradient of the summed squared distance, up to a factor) drops below
    ``tol``. The result carries that norm as ``residual``, the number of
    exponential steps as ``iterations``, and the last pass's read-only
    logarithms as ``logs``. The summation order is fixed, so reruns agree.
    """
    if not shapes:
        raise ParameterError("cannot average an empty set of shapes")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ParameterError(f"tol must be finite and > 0, got {tol}")
    if max_iter < 0:
        raise ParameterError(f"max_iter must be >= 0, got {max_iter}")
    mean = shapes[0]
    for iterations in range(max_iter + 1):
        logs = logs_at(mean, shapes)
        grad = unflatten_tangent(logs.mean(axis=0), mean.n)
        residual = float(np.linalg.norm(grad))
        if residual < tol:
            logs.setflags(write=False)
            return KarcherResult(mean, residual, iterations, logs)
        if iterations < max_iter:
            mean = exp_map(mean, TangentVector(grad, mean))
    raise IterationLimitError(
        f"intrinsic mean did not converge in {max_iter} iterations "
        f"(residual {residual:.3e}, tol {tol:.1e})",
        residual=residual, iterations=max_iter)


# ---------------------------------------------------------------------------
# principal geodesic fit


def pga_fit(mean: GrassmannPoint, logs: np.ndarray, r: int) -> PgaModel:
    """Principal directions of the (N, 2n) logarithm rows at ``mean``.

    Eigendecomposes the second-moment matrix ``sum_i v_i v_i' / N`` of the
    rows, as ``logs_at`` and ``KarcherResult.logs`` give them; the mean is
    the centering, so the eigenvalue sum equals the mean squared logarithm
    norm exactly. Fewer samples than ambient dimensions take the N x N
    Gram matrix, which yields the same spectrum cheaper.
    """
    n = mean.n
    if logs.ndim != 2 or logs.shape[1] != 2 * n:
        raise DimensionError(
            f"logarithms must be (N, {2 * n}) rows, got shape {logs.shape}")
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
    mats = _clean_directions(basis_flat, eigenvalues, mean)
    basis = tuple(TangentVector(m, mean) for m in mats)
    basis_flat = np.array([flatten_tangent(m) for m in mats])
    coords = logs @ basis_flat.T
    domain = _fit_domain(coords, eigenvalues)
    return PgaModel(mean, basis, eigenvalues, domain, coords)


def _clean_directions(basis_flat: np.ndarray, eigenvalues: np.ndarray,
                      mean: GrassmannPoint) -> list[np.ndarray]:
    """Project directions horizontal, zero out numerically dead ones, fix signs.

    Eigenvectors with eigenvalue at rounding level (relative 1e-12) carry no
    information and, from the dense route, may even leave the horizontal
    space; they become zero matrices. Live directions get re-unitized after
    projection and a sign convention (largest-magnitude entry positive) so
    the Gram and dense routes produce identical bases.
    """
    cutoff = max(float(eigenvalues[0]) * 1e-12, 1e-24) if eigenvalues.size else 0.0
    n = mean.n
    out = []
    for val, row in zip(eigenvalues, basis_flat):
        mat = unflatten_tangent(np.array(row, dtype=float), n)
        mat -= mean.rep @ (mean.rep.T @ mat)
        norm = float(np.linalg.norm(mat))
        if val <= cutoff or norm <= 0.5:
            out.append(np.zeros((n, 2)))
            continue
        mat /= norm
        flat = flatten_tangent(mat)
        if flat[np.argmax(np.abs(flat))] < 0.0:
            mat = -mat
        out.append(mat)
    return out


def _fit_domain(coords: np.ndarray, eigenvalues: np.ndarray) -> CoordinateDomain:
    scale = np.sqrt(eigenvalues)
    with np.errstate(divide="ignore", invalid="ignore"):
        normalized = np.where(scale > 0.0, coords / scale, 0.0)
    max_radius = float(np.max(np.linalg.norm(normalized, axis=1))) if len(coords) else 0.0
    return CoordinateDomain(
        bounds_min=coords.min(axis=0),
        bounds_max=coords.max(axis=0),
        ellipsoid_radii=_DOMAIN_MARGIN * max(max_radius, 1.0e-12) * scale,
    )


# ---------------------------------------------------------------------------
# the design space


def coords_of(model: PgaModel, shape: GrassmannPoint) -> np.ndarray:
    """Normal coordinates: projections of the shape's logarithm on the basis."""
    v = flatten_tangent(log_map(model.mean, shape).mat)
    return model.basis_matrix() @ v


def synthesize(model: PgaModel, t: np.ndarray) -> GrassmannPoint:
    """Shape at normal coordinates ``t``: exponentiate the basis combination."""
    return exp_map(model.mean, TangentVector(model.direction(t), model.mean))


def domain_contains(model: PgaModel, t: np.ndarray) -> bool:
    """Whether coordinates fall inside the training-data ellipsoid."""
    t = model.checked_coords(t)
    radii = model.domain.ellipsoid_radii
    degenerate = radii <= 0.0
    if np.any(degenerate & (np.abs(t) > 1e-12)):
        return False
    ratio = np.where(degenerate, 0.0, t / np.where(degenerate, 1.0, radii))
    return float(np.sum(ratio**2)) <= 1.0


def corner_sweep(model: PgaModel, corner_a: np.ndarray, corner_b: np.ndarray,
                 steps: int) -> list[GrassmannPoint]:
    """Shapes along the straight segment between two coordinate corners."""
    return [synthesize(model, t) for t in sweep_points(corner_a, corner_b, steps)]
