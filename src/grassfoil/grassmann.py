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
from typing import Sequence

import numpy as np

from .errors import (
    CutLocusError,
    DegenerateShapeError,
    DimensionError,
    ParameterError,
    TangencyError,
    array_argument,
)
from .geometry import (MAX_COORDINATE, RANK_RATIO_TOL, AffineMap,
                       LandmarkMatrix, affine_apply, singular_linear)

_ORTHO_TOL = 1e-12
_HORIZONTAL_TOL = 1e-10
_EXP_HORIZONTAL_TOL = 1e-8
_CUT_LOCUS_MARGIN = 1e-8
#: Shapes per stacked decomposition, which bounds the kernels' temporaries.
_CHUNK = 64


def _horizontal(rep: np.ndarray, mat: np.ndarray, tol: float):
    """Whether ``rep' mat`` vanishes to ``tol`` scaled by max(1, |mat|), for
    one matrix or for each slice of an ``(N, n, q)`` stack."""
    err = np.abs(np.matmul(rep.T, mat)).max(axis=(-2, -1))
    return (err <= tol) | (err <= tol * np.abs(mat).max(axis=(-2, -1)))


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


def as_frames(reps) -> np.ndarray:
    """``reps`` as an ``(N, n, q)`` stack of orthonormal frames, each slice
    checked as :class:`GrassmannPoint` checks one: slices whose Gram matrix
    strays beyond 1e-12 from the identity are re-orthonormalized in a copy,
    and clean slices keep their exact bits."""
    reps = np.asarray(reps, dtype=float)
    if reps.ndim != 3 or reps.shape[1] <= reps.shape[2]:
        raise DimensionError(
            f"representatives must be a stack of tall matrices, got shape "
            f"{reps.shape}")
    if not np.all(np.isfinite(reps)):
        raise DimensionError("representative contains non-finite values")
    gram = np.matmul(reps.swapaxes(1, 2), reps)
    stray = np.abs(gram - np.eye(reps.shape[2])).max(axis=(1, 2)) > _ORTHO_TOL
    if stray.any():
        reps = reps.copy()
    for i in np.flatnonzero(stray):
        try:
            reps[i] = orthonormalize(reps[i])
        except DegenerateShapeError as err:
            raise DegenerateShapeError(str(err), shape_index=int(i)) from None
    return reps


def _fault(bad: np.ndarray, stop: int, error, make):
    """``(stop, error)`` after a check that marks ``bad`` shapes of a chunk.

    Checks run in the one-shape order, each over the shapes before the
    earliest fault found so far, so a fault found there comes earlier in
    the stack and ``make(index)`` gives the error its one-shape call raises.
    """
    hits = np.flatnonzero(bad[:stop])
    return (int(hits[0]), make(int(hits[0]))) if hits.size else (stop, error)


@dataclass(frozen=True, eq=False)
class GrassmannPoint:
    """Orthonormal ``(n, 2)`` representative of a 2-subspace of R^n.

    Construction checks the frame as :func:`as_frames` checks each of a
    stack: it re-orthonormalizes only when the Gram matrix strays beyond
    1e-12 from the identity, so frames that are already clean keep their
    exact bits (serialization round-trips untouched).
    """

    rep: np.ndarray

    def __post_init__(self):
        rep = np.array(self.rep, dtype=float)
        if rep.ndim != 2 or rep.shape[0] <= rep.shape[1]:
            raise DimensionError(
                f"representative must be a tall matrix, got shape {rep.shape}")
        rep = as_frames(rep[None])[0]
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


def standardize_stack(points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frames, linear factors and translations of an ``(N, n, 2)`` landmark
    stack, as ``(N, n, 2)``, ``(N, 2, 2)`` and ``(N, 2)`` arrays.

    Each translation is the landmark center of mass; each frame is the left
    factor of the thin SVD of the centered landmarks, with a deterministic
    sign convention (each right-singular column's leading nonzero entry made
    positive, the matching flip applied to the left factor) so equal inputs
    give bit-equal outputs. ``frame @ M + outer(1, b)`` reconstructs each
    input. A chunk of shapes shares one stacked SVD. A shape that fails a
    check raises what its one-shape call would, a ``DegenerateShapeError``
    with its index as ``shape_index``; of several, the first raises.
    """
    points = array_argument(points, "points", DimensionError)
    if points.ndim != 3 or points.shape[1] < 3 or points.shape[2] != 2:
        raise DimensionError("expected an (N, n, 2) landmark stack with "
                             f"n >= 3, got shape {points.shape}")
    count = len(points)
    frames = np.empty(points.shape)
    linear = np.empty((count, 2, 2))
    translation = np.empty((count, 2))
    for start in range(0, count, _CHUNK):
        x = points[start:start + _CHUNK]
        size = np.abs(x).max(axis=(1, 2))
        stop, error = _fault(~np.isfinite(size), len(x), None, lambda i: (
            ParameterError("landmark matrix contains non-finite values")))
        stop, error = _fault(size > MAX_COORDINATE, stop, error, lambda i: (
            DegenerateShapeError(
                f"landmark coordinates exceed {MAX_COORDINATE:.0e} in magnitude;"
                " the factorization would overflow", shape_index=start + i)))
        b = x[:stop].mean(axis=1)
        u, s, vt = np.linalg.svd(x[:stop] - b[:, None], full_matrices=False)
        ratio = np.divide(s[:, 1], s[:, 0], out=np.zeros(stop),
                          where=s[:, 0] > 0.0)
        bad = (s[:, 0] <= 0.0) | (ratio <= RANK_RATIO_TOL)
        stop, error = _fault(bad, stop, error, lambda i: DegenerateShapeError(
            "centered landmarks are numerically collinear; no stable "
            "full-rank factorization exists", shape_index=start + i))
        lead = np.where(vt[:stop, :, 0] != 0.0, vt[:stop, :, 0], vt[:stop, :, 1])
        signs = np.where(lead < 0.0, -1.0, 1.0)
        try:
            u = as_frames(u[:stop] * signs[:, None, :])
        except DegenerateShapeError as err:
            stop, error = err.shape_index, DegenerateShapeError(
                str(err), shape_index=start + err.shape_index)
        m = s[:stop, :, None] * (vt[:stop] * signs[:stop, :, None])
        singular = np.flatnonzero(singular_linear(m))
        if singular.size:  # every earlier shape passed: its map raises
            AffineMap(m[singular[0]], b[singular[0]])
        if error is not None:
            raise error
        frames[start:start + stop] = u
        linear[start:start + stop] = m
        translation[start:start + stop] = b
    return frames, linear, translation


def la_standardize(shape: LandmarkMatrix) -> LaDecomposition:
    """Split a landmark matrix into an orthonormal frame and an affine factor,
    as :func:`standardize_stack` splits a stack of one."""
    frames, linear, translation = standardize_stack(shape.points[None])
    return LaDecomposition(GrassmannPoint(frames[0]),
                           AffineMap(linear[0], translation[0]))


def reconstruct_with(point: GrassmannPoint,
                     affine: AffineMap) -> LandmarkMatrix:
    """The landmarks ``rep @ M + outer(1, b)`` of a frame and affine factor."""
    return affine_apply(LandmarkMatrix(point.rep), affine)


def mean_affine(linear: np.ndarray, translation: np.ndarray) -> AffineMap:
    """Entrywise average of a shape family's affine factors, given as its
    ``(N, 2, 2)`` linear factors and ``(N, 2)`` translations."""
    if len(linear) == 0:
        raise DimensionError("need at least one affine map to average")
    return AffineMap(np.mean(linear, axis=0), np.mean(translation, axis=0))


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


def log_map_stack(base: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """Logarithms at the frame ``base`` toward each frame of an ``(N, n, q)``
    stack, as the ``(N, n, q)`` stack of horizontal tangents at ``base``.

    Built from principal vectors: with ``P' Q = W C Z'``, the residual
    ``Q Z - P W C`` has exactly-orthogonal columns of norm ``sin(theta_i)``,
    so each angle comes from ``arctan2(sin, cos)`` and the logarithm is
    ``G diag(theta) W'`` with ``G`` the normalized residual columns. Stable
    across the whole angle range because no inverse of ``P' Q`` appears;
    its singular values are the principal angles, so the norm equals the
    geodesic distance. A chunk of frames shares each stacked product and
    SVD. Tangents are stored column by column, as models flatten them, so
    their flattened rows are a view. A frame at the cut locus raises
    ``CutLocusError`` with its index as ``shape_index``; of several faults,
    the first in the stack raises. A ``base`` that is a frame of the stack
    should be the view ``reps[i]``: numpy then forms that slice's ``P' Q``
    with the one-shape call's symmetric product. A ``base`` or a frame that
    is not finite raises ``DimensionError``. The frames are checked through
    their products with ``base``, which a non-finite entry makes
    non-finite, so a float stack pays for no pass of its own.
    """
    base = array_argument(base, "base", DimensionError)
    reps = array_argument(reps, "reps", DimensionError)
    if reps.ndim != 3 or reps.shape[1:] != base.shape:
        raise DimensionError(
            f"mismatched representatives: {base.shape} vs {reps.shape[1:]}")
    if not np.all(np.isfinite(base)):
        raise DimensionError("base contains non-finite values")
    out = np.empty((len(reps), reps.shape[2], reps.shape[1])).swapaxes(1, 2)
    for start in range(0, len(reps), _CHUNK):
        q = reps[start:start + _CHUNK]
        with np.errstate(over="ignore", invalid="ignore"):
            products = np.matmul(base.T, q)
        stop, error = _fault(~np.isfinite(products).all(axis=(1, 2)), len(q),
                             None, lambda i: DimensionError(
                                 f"reps[{start + i}] is not finite, or too "
                                 "large to pair with base"))
        w, c, zt = np.linalg.svd(products[:stop])
        stop, error = _fault(c[:, -1] <= np.sin(_CUT_LOCUS_MARGIN), stop,
                             error, lambda i: _cut_locus(c[i, -1], start + i))
        w, c = w[:stop], c[:stop]
        residual = q[:stop] @ zt[:stop].swapaxes(1, 2) - base @ (w * c[:, None])
        sines = np.linalg.norm(residual, axis=1)
        thetas = np.arctan2(sines, c)
        g = residual / np.where(sines > 0.0, sines, 1.0)[:, None]
        delta = (g * thetas[:, None]) @ w.swapaxes(1, 2)
        delta -= base @ (base.T @ delta)
        bad = ~_horizontal(base, delta, _HORIZONTAL_TOL)
        stop, error = _fault(bad, stop, error, lambda i: TangencyError(
            "vector is not horizontal at its base point"))
        if error is not None:
            raise error
        out[start:start + stop] = delta
    return out


def _cut_locus(cosine: float, index: int) -> CutLocusError:
    angle = float(np.arccos(np.clip(cosine, 0.0, 1.0)))
    return CutLocusError(
        f"largest principal angle {angle:.6f} is within 1e-8 of pi/2; "
        "the connecting geodesic is not unique", max_angle=angle,
        shape_index=index)


def log_map(p: GrassmannPoint, q: GrassmannPoint) -> TangentVector:
    """Tangent vector at ``p`` whose exponential reaches the subspace of
    ``q``: :func:`log_map_stack` on a stack of one."""
    return TangentVector(log_map_stack(p.rep, q.rep[None])[0], p)


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
