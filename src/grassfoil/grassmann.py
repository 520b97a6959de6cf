"""Affine-invariant subspace representation and its Riemannian toolkit.

A full-rank landmark matrix factors as ``X = rep @ M + outer(1, b)`` with
``rep`` an ``(n, 2)`` orthonormal, column-centered frame, ``M`` invertible
and ``b`` the center of mass. The frame is a representative of a point on
the manifold of 2-dimensional subspaces of R^n; all ambient-space scaling,
shearing, rotation and translation lives in ``(M, b)``. Every operation
here works on such representatives, with the metric ``<A, B> = tr(A' B)``,
and returns quantities invariant to the 2x2 orthogonal representative
ambiguity wherever the math provides it.

Closed forms follow the standard SVD recipes for subspace manifolds:
exponential, logarithm, principal angles, geodesics and parallel
transport all reduce to small dense decompositions of 2-column blocks.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CutLocusError,
    DegenerateShapeError,
    DimensionError,
    TangencyError,
)
from .geometry import RANK_RATIO_TOL, AffineMap, LandmarkMatrix, affine_apply

_ORTHO_TOL = 1e-12
_HORIZONTAL_TOL = 1e-10
_EXP_HORIZONTAL_TOL = 1e-8
_CUT_LOCUS_MARGIN = 1e-8
#: Magnitude beyond which a landmark or a stored value is rejected: the
#: affine factor's determinant and other products of two would overflow.
MAX_COORDINATE = 1e150


def _horizontal(rep: np.ndarray, mat: np.ndarray, tol: float) -> bool:
    """Whether ``rep' mat`` vanishes to ``tol`` scaled by max(1, |mat|)."""
    err = np.max(np.abs(rep.T @ mat))
    return err <= tol or err <= tol * float(np.abs(mat).max())


def orthonormalize(mat: np.ndarray) -> np.ndarray:
    """Thin QR with the sign of each diagonal pinned positive.

    The sign fix keeps the output close to the input when the input is
    already near-orthonormal, which makes repeated correction drift-free.
    """
    q, r = np.linalg.qr(mat)
    diag = np.diagonal(r)
    if np.any(np.abs(diag) <= _ORTHO_TOL * max(1.0, float(np.abs(mat).max()))):
        raise DegenerateShapeError("frame is numerically rank deficient")
    signs = np.where(diag < 0.0, -1.0, 1.0)
    return q * signs


@dataclass(frozen=True, eq=False)
class GrassmannPoint:
    """Orthonormal ``(n, 2)`` representative of a 2-subspace of R^n.

    Construction re-orthonormalizes only when the Gram matrix strays beyond
    1e-12 from the identity, so frames that are already clean keep their
    exact bits (serialization round-trips untouched).
    """

    rep: np.ndarray

    def __post_init__(self):
        rep = np.array(self.rep, dtype=float)
        if rep.ndim != 2 or rep.shape[0] <= rep.shape[1]:
            raise DimensionError(
                f"representative must be a tall matrix, got shape {rep.shape}")
        if not np.all(np.isfinite(rep)):
            raise DimensionError("representative contains non-finite values")
        gram = rep.T @ rep
        if np.max(np.abs(gram - np.eye(rep.shape[1]))) > _ORTHO_TOL:
            rep = orthonormalize(rep)
        rep.setflags(write=False)
        object.__setattr__(self, "rep", rep)

    @property
    def n(self) -> int:
        return self.rep.shape[0]

    @property
    def q(self) -> int:
        return self.rep.shape[1]


@dataclass(frozen=True, eq=False)
class TangentVector:
    """Horizontal tangent vector at a base point: ``base.rep' @ mat == 0``."""

    mat: np.ndarray
    base: GrassmannPoint

    def __post_init__(self):
        mat = np.array(self.mat, dtype=float)
        if mat.shape != self.base.rep.shape:
            raise DimensionError(
                f"tangent shape {mat.shape} does not match base "
                f"{self.base.rep.shape}")
        if not np.all(np.isfinite(mat)):
            raise DimensionError("tangent vector contains non-finite values")
        if not _horizontal(self.base.rep, mat, _HORIZONTAL_TOL):
            raise TangencyError(
                "vector is not horizontal at its base point")
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.mat))


def inner(u: TangentVector, v: TangentVector) -> float:
    """Trace inner product ``tr(u' v)`` of two tangent vectors."""
    return float(np.sum(u.mat * v.mat))


@dataclass(frozen=True, eq=False)
class LaDecomposition:
    """Standardized shape: subspace representative plus its affine factor."""

    point: GrassmannPoint
    affine: AffineMap


def _require_same_shape(p: GrassmannPoint, q: GrassmannPoint):
    if p.rep.shape != q.rep.shape:
        raise DimensionError(
            f"mismatched representatives: {p.rep.shape} vs {q.rep.shape}")


# ---------------------------------------------------------------------------
# standardization


def la_standardize(shape: LandmarkMatrix) -> LaDecomposition:
    """Split a landmark matrix into an orthonormal frame and an affine factor.

    The translation is the landmark center of mass; the frame is the left
    factor of the thin SVD of the centered landmarks, with a deterministic
    sign convention (each right-singular column's leading nonzero entry made
    positive, the matching flip applied to the left factor) so equal inputs
    give bit-equal outputs. ``rep @ M + outer(1, b)`` reconstructs the input.
    """
    if np.abs(shape.points).max() > MAX_COORDINATE:
        raise DegenerateShapeError(
            f"landmark coordinates exceed {MAX_COORDINATE:.0e} in magnitude; "
            "the factorization would overflow")
    b = shape.points.mean(axis=0)
    centered = shape.points - b
    u, s, vt = np.linalg.svd(centered, full_matrices=False)
    if s[0] <= 0.0 or s[1] / s[0] <= RANK_RATIO_TOL:
        raise DegenerateShapeError(
            "centered landmarks are numerically collinear; no stable "
            "full-rank factorization exists")
    v = vt.T
    for k in range(2):
        lead = v[0, k] if v[0, k] != 0.0 else v[1, k]
        if lead < 0.0:
            v[:, k] = -v[:, k]
            u[:, k] = -u[:, k]
    m = (s[:, None] * v.T)
    return LaDecomposition(GrassmannPoint(u), AffineMap(m, b))


def reconstruct_with(point: GrassmannPoint,
                     affine: AffineMap) -> LandmarkMatrix:
    """The landmarks ``rep @ M + outer(1, b)`` of a frame and affine factor."""
    return affine_apply(LandmarkMatrix(point.rep), affine)


def mean_affine(affines: Iterable[AffineMap]) -> AffineMap:
    """Entrywise average of affine factors over a shape family."""
    affines = list(affines)
    if not affines:
        raise DimensionError("need at least one affine map to average")
    linear = np.mean([a.linear for a in affines], axis=0)
    translation = np.mean([a.translation for a in affines], axis=0)
    return AffineMap(linear, translation)


# ---------------------------------------------------------------------------
# metric structure


def principal_angles(p: GrassmannPoint, q: GrassmannPoint) -> np.ndarray:
    """Principal angles between two subspaces, ascending, in [0, pi/2].

    Angles are cosines of the singular values of ``P' Q``; because arccos
    cannot resolve angles below ~1e-8, angles smaller than pi/4 are taken
    from the sines (singular values of ``(I - P P') Q``) instead, keeping
    near-zero separations measurable down to machine precision.
    """
    _require_same_shape(p, q)
    a = p.rep.T @ q.rep
    cosines = np.clip(np.linalg.svd(a, compute_uv=False), 0.0, 1.0)
    sines = np.clip(np.linalg.svd(q.rep - p.rep @ a, compute_uv=False),
                    0.0, 1.0)[::-1]
    return np.where(cosines > np.sqrt(0.5),
                    np.arcsin(sines), np.arccos(cosines))


def distance(p: GrassmannPoint, q: GrassmannPoint) -> float:
    """Geodesic distance: the 2-norm of the principal angles."""
    return float(np.linalg.norm(principal_angles(p, q)))


def log_map(p: GrassmannPoint, q: GrassmannPoint) -> TangentVector:
    """Tangent vector at ``p`` whose exponential reaches the subspace of ``q``.

    Built from principal vectors: with ``P' Q = W C Z'``, the residual
    ``Q Z - P W C`` has exactly-orthogonal columns of norm ``sin(theta_i)``,
    so each angle comes from ``arctan2(sin, cos)`` and the logarithm is
    ``G diag(theta) W'`` with ``G`` the normalized residual columns. Stable
    across the whole angle range because no inverse of ``P' Q`` appears;
    its singular values are the principal angles, so the norm equals the
    geodesic distance.
    """
    _require_same_shape(p, q)
    a = p.rep.T @ q.rep
    w, c, zt = np.linalg.svd(a)
    if c[-1] <= np.sin(_CUT_LOCUS_MARGIN):
        angle = float(np.arccos(np.clip(c[-1], 0.0, 1.0)))
        raise CutLocusError(
            f"largest principal angle {angle:.6f} is within 1e-8 of pi/2; "
            "the connecting geodesic is not unique", max_angle=angle)
    residual = q.rep @ zt.T - p.rep @ (w * c)
    sines = np.linalg.norm(residual, axis=0)
    thetas = np.arctan2(sines, c)
    g = residual / np.where(sines > 0.0, sines, 1.0)
    delta = (g * thetas) @ w.T
    delta -= p.rep @ (p.rep.T @ delta)
    return TangentVector(delta, p)


class Geodesic:
    """Geodesic leaving ``p`` with initial velocity ``direction``, factored once.

    With the thin SVD ``direction = U S V'``, the point at ``t`` is
    ``P V cos(tS) V' + U sin(tS) V'`` and transport to it is
    ``w -> (-P V sin(tS) U' + U cos(tS) U' + (I - U U')) w``, an isometry.
    Points are re-orthonormalized so drift cannot accumulate over chained
    calls; an exactly-zero direction stays at ``p``.
    """

    def __init__(self, p: GrassmannPoint, direction: TangentVector):
        if direction.mat.shape != p.rep.shape:
            raise DimensionError(
                f"tangent shape {direction.mat.shape} does not match base "
                f"{p.rep.shape}")
        if not _horizontal(p.rep, direction.mat, _EXP_HORIZONTAL_TOL):
            raise TangencyError("tangent vector is not horizontal at this base")
        self.p = p
        self._factors = (np.linalg.svd(direction.mat, full_matrices=False)
                         if np.any(direction.mat) else None)

    def point(self, t: float) -> GrassmannPoint:
        """The geodesic's point at parameter ``t``."""
        if self._factors is None:
            return self.p
        u, s, vt = self._factors
        y = self.p.rep @ (vt.T * np.cos(t * s)) @ vt + (u * np.sin(t * s)) @ vt
        return GrassmannPoint(orthonormalize(y))

    def transport(self, mats: Sequence[np.ndarray],
                  t: float) -> list[TangentVector]:
        """Transport each matrix to ``point(t)``, projected horizontal there."""
        mats = np.array(mats, dtype=float)
        if self._factors is not None:
            u, s, vt = self._factors
            rotate = u * np.cos(t * s) - self.p.rep @ (vt.T * np.sin(t * s))
            um = u.T @ mats
            mats = mats - u @ um + rotate @ um
        end = self.point(t)
        mats -= end.rep @ (end.rep.T @ mats)
        return [TangentVector(m, end) for m in mats]


def exp_map(p: GrassmannPoint, delta: TangentVector) -> GrassmannPoint:
    """Geodesic endpoint reached from ``p`` along ``delta``."""
    return Geodesic(p, delta).point(1.0)


def geodesic_point(p: GrassmannPoint, q: GrassmannPoint, t: float) -> GrassmannPoint:
    """Point a fraction ``t`` along the geodesic from ``p`` toward ``q``."""
    delta = log_map(p, q)
    return exp_map(p, TangentVector(t * delta.mat, p))


def parallel_transport(p: GrassmannPoint, direction: TangentVector,
                       w: TangentVector, t: float) -> TangentVector:
    """Transport ``w`` along the geodesic leaving ``p`` with velocity ``direction``.

    The result is horizontal at the geodesic point reached at ``t``;
    transporting ``direction`` itself yields the geodesic's own velocity
    there.
    """
    if t == 0.0:
        return w
    return Geodesic(p, direction).transport([w.mat], t)[0]


# ---------------------------------------------------------------------------
# alignment


def procrustes_rotation(p: GrassmannPoint, q: GrassmannPoint) -> np.ndarray:
    """Rotation ``R`` (det +1) minimizing ``||P - Q R||_F``.

    SVD of ``Q' P`` with the determinant of the product corrected into the
    rotation group, the classic closed form for orthogonal alignment.
    """
    _require_same_shape(p, q)
    a = q.rep.T @ p.rep
    u, _, vt = np.linalg.svd(a)
    d = float(np.sign(np.linalg.det(u @ vt)))
    return (u * np.array([1.0, d])) @ vt
