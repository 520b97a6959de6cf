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
The stack kernels apply each shape's factors column by column
(:func:`~grassfoil.stacks.per_shape`) and sum over landmarks with
:func:`~grassfoil.stacks.landmark_sum`: numpy would run either over an
``(N, n, 2)`` stack with an inner loop over the 2 columns, at 10-40 times
the cost, and these keep its bits.
"""
from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    CutLocusError,
    DegenerateShapeError,
    DimensionError,
    ParameterError,
    TangencyError,
    array_argument,
    in_order,
)
from .geometry import (MAX_COORDINATE, RANK_RATIO_TOL, AffineMap,
                       LandmarkMatrix, affine_apply, check_affines,
                       one_shape_stack)
from .stacks import landmark_sum, per_shape

_ORTHO_TOL = 1e-12
_HORIZONTAL_TOL = 1e-10
_CUT_LOCUS_MARGIN = 1e-8
#: Shapes per stacked decomposition, which bounds the kernels' temporaries.
_CHUNK = 64


def _horizontal(rep: np.ndarray, mat: np.ndarray, tol: float):
    """Whether ``rep' mat`` vanishes to ``tol`` scaled by max(1, |mat|), for
    one matrix or for each slice of an ``(N, n, q)`` stack, at one ``rep`` or
    at a ``rep`` per slice."""
    err = np.abs(np.matmul(rep.swapaxes(-1, -2), mat)).max(axis=(-2, -1))
    return (err <= tol) | (err <= tol * np.abs(mat).max(axis=(-2, -1)))


def check_tangents(base: np.ndarray, mats: np.ndarray) -> None:
    """Check an ``(N, n, q)`` stack of tangents at the frame ``base``, one
    frame or a frame per tangent: a tangent that is not finite raises
    ``DimensionError``, and one that is not horizontal at its base, or whose
    product with it overflows, then raises ``TangencyError``. The first
    faulty tangent raises, with its position as ``shape_index``."""
    def run(rows: range):
        at = slice(rows.start, rows.stop)
        mat, rep = mats[at], (base[at] if base.ndim == 3 else base)
        if not np.isfinite(mat).all():
            raise DimensionError("tangent vector contains non-finite values")
        with np.errstate(over="ignore", invalid="ignore"):
            if not _horizontal(rep, mat, _HORIZONTAL_TOL).all():
                raise TangencyError(
                    "vector is not horizontal at its base point")
    in_order(run, len(mats), _CHUNK)


def orthonormalize(mat: np.ndarray) -> np.ndarray:
    """Thin QR with the sign of each diagonal pinned positive, of one matrix
    or of each of a stack.

    The sign fix keeps the output close to the input when the input is
    already near-orthonormal, which makes repeated correction drift-free.
    """
    q, r = np.linalg.qr(mat)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    scale = np.maximum(1.0, np.abs(mat).max(axis=(-2, -1)))[..., None]
    if np.any(np.abs(diag) <= _ORTHO_TOL * scale):
        raise DegenerateShapeError("frame is numerically rank deficient")
    signs = np.where(diag < 0.0, -1.0, 1.0)
    return q * signs[..., None, :]


def _stray(reps: np.ndarray) -> np.ndarray:
    """Whether the Gram matrix of each frame of an ``(N, n, q)`` stack strays
    beyond 1e-12 from the identity; a non-finite frame always strays."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.matmul(reps.swapaxes(1, 2), reps) - np.eye(reps.shape[2])
        return ~(np.abs(gram).max(axis=(1, 2)) <= _ORTHO_TOL)


def as_frames(reps) -> np.ndarray:
    """``reps`` as an ``(N, n, q)`` stack of orthonormal frames, each slice
    checked as :class:`GrassmannPoint` checks one: slices whose Gram matrix
    strays beyond 1e-12 from the identity are re-orthonormalized in a copy,
    and clean slices keep their exact bits. The first faulty slice raises,
    with its position as ``shape_index``."""
    reps = array_argument(reps, "representatives", DimensionError)
    if reps.ndim != 3 or reps.shape[1] <= reps.shape[2]:
        raise DimensionError(
            f"representatives must be a stack of tall matrices, got shape "
            f"{reps.shape}")
    stray = _stray(reps)
    if stray.any():
        reps = reps.copy()
    for i in np.flatnonzero(stray).tolist():
        if not np.isfinite(reps[i]).all():
            raise DimensionError("representative contains non-finite values",
                                 shape_index=i)
        try:
            reps[i] = orthonormalize(reps[i])
        except DegenerateShapeError as err:
            err.shape_index = i
            raise
    return reps


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
        rep = array_argument(self.rep, "representative",
                             DimensionError).copy(order="K")
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
        mat = array_argument(self.mat, "tangent", DimensionError).copy(
            order="K")
        if mat.shape != self.base.rep.shape:
            raise DimensionError(
                f"tangent shape {mat.shape} does not match base "
                f"{self.base.rep.shape}")
        check_tangents(self.base.rep, mat[None])
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
    input. A chunk of shapes shares one stacked SVD; a chunk that fails runs
    again shape by shape, so the first faulty shape raises what its one-shape
    call would, with its index as ``shape_index``.
    """
    points = array_argument(points, "points", DimensionError)
    if points.ndim != 3 or points.shape[1] < 3 or points.shape[2] != 2:
        raise DimensionError("expected an (N, n, 2) landmark stack with "
                             f"n >= 3, got shape {points.shape}")
    count = len(points)
    frames = np.empty(points.shape)
    linear = np.empty((count, 2, 2))
    translation = np.empty((count, 2))

    def run(rows: range):
        at = slice(rows.start, rows.stop)
        x = points[at]
        size = np.abs(x).max(axis=(1, 2))
        if not np.isfinite(size).all():
            raise ParameterError("landmark matrix contains non-finite values")
        if (size > MAX_COORDINATE).any():
            raise DegenerateShapeError(
                f"landmark coordinates exceed {MAX_COORDINATE:.0e} in magnitude;"
                " the factorization would overflow")
        b = landmark_sum(x) / x.shape[1]
        u, s, vt = np.linalg.svd(per_shape(np.subtract, x, b),
                                 full_matrices=False)
        ratio = np.divide(s[:, 1], s[:, 0], out=np.zeros(len(x)),
                          where=s[:, 0] > 0.0)
        if ((s[:, 0] <= 0.0) | (ratio <= RANK_RATIO_TOL)).any():
            raise DegenerateShapeError(
                "centered landmarks are numerically collinear; no stable "
                "full-rank factorization exists")
        lead = np.where(vt[:, :, 0] != 0.0, vt[:, :, 0], vt[:, :, 1])
        signs = np.where(lead < 0.0, -1.0, 1.0)
        frames[at] = as_frames(per_shape(np.multiply, u, signs, out=u))
        m = s[:, :, None] * (vt * signs[:, :, None])
        check_affines(m, b)
        linear[at] = m
        translation[at] = b
    in_order(run, count, _CHUNK)
    return frames, linear, translation


def la_standardize(shape) -> LaDecomposition:
    """Split one shape, a :class:`LandmarkMatrix` or an ``(n, 2)`` array, into
    an orthonormal frame and an affine factor, as :func:`standardize_stack`
    splits a stack of one."""
    frames, linear, translation = standardize_stack(
        one_shape_stack(shape, DimensionError))
    return LaDecomposition(GrassmannPoint(frames[0]),
                           AffineMap(linear[0], translation[0]))


def reconstruct_with(frame, affine: AffineMap) -> LandmarkMatrix:
    """The landmarks ``frame @ M + outer(1, b)`` of an ``(n, 2)`` frame,
    checked as :class:`GrassmannPoint` checks one, and an affine factor."""
    return affine_apply(LandmarkMatrix(GrassmannPoint(frame).rep), affine)


def mean_affine(linear: np.ndarray, translation: np.ndarray) -> AffineMap:
    """Entrywise average of a shape family's affine factors, given as its
    ``(N, 2, 2)`` linear factors and ``(N, 2)`` translations; stacks of
    other shapes raise ``DimensionError``."""
    linear = array_argument(linear, "linear", DimensionError)
    translation = array_argument(translation, "translation", DimensionError)
    if (linear.ndim != 3 or linear.shape[1:] != (2, 2)
            or translation.shape != (len(linear), 2)):
        raise DimensionError(
            "expected (N, 2, 2) linear factors and (N, 2) translations, got "
            f"shapes {linear.shape} and {translation.shape}")
    if len(linear) == 0:
        raise DimensionError("need at least one affine map to average")
    # a non-finite mean, from the input or an overflow, fails the map's check
    with np.errstate(over="ignore", invalid="ignore"):
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
    their flattened rows are a view. A ``base`` that is a frame of the stack
    should be the view ``reps[i]``: numpy then forms that slice's ``P' Q``
    with the one-shape call's symmetric product. A ``base`` that is not a
    finite orthonormal frame, or a frame that is not finite (checked through
    its product with ``base``), raises ``DimensionError``; frames are then
    checked as :func:`as_frames` checks them, and a frame at the cut locus
    raises ``CutLocusError``. The first faulty frame raises, with its index
    as ``shape_index``.
    """
    base = array_argument(base, "base", DimensionError)
    reps = array_argument(reps, "reps", DimensionError)
    if reps.ndim != 3 or reps.shape[1:] != base.shape:
        raise DimensionError(
            f"mismatched representatives: {base.shape} vs {reps.shape[1:]}")
    if not np.all(np.isfinite(base)):
        raise DimensionError("base contains non-finite values")
    if _stray(base[None])[0]:
        raise DimensionError("base is not an orthonormal frame")
    out = np.empty((len(reps), reps.shape[2], reps.shape[1])).swapaxes(1, 2)

    def run(rows: range):
        q = reps[rows.start:rows.stop]
        with np.errstate(over="ignore", invalid="ignore"):
            products = np.matmul(base.T, q)
        unusable = (f"reps[{rows.start}] is not finite, or too large to pair "
                    "with base")
        if not np.isfinite(products).all():
            raise DimensionError(unusable)
        frames = as_frames(q)
        if frames is not q:
            q, products = frames, np.matmul(base.T, frames)
        w, c, zt = np.linalg.svd(products)
        cut = c[:, -1] <= np.sin(_CUT_LOCUS_MARGIN)
        if cut.any():
            angle = float(np.arccos(np.clip(c[cut.argmax(), -1], 0.0, 1.0)))
            raise CutLocusError(
                f"largest principal angle {angle:.6f} is within 1e-8 of "
                "pi/2; the connecting geodesic is not unique", max_angle=angle)
        with np.errstate(over="ignore", invalid="ignore"):
            residual = q @ zt.swapaxes(1, 2) - base @ (w * c[:, None])
            sines = np.sqrt(landmark_sum(residual * residual))
        if not np.isfinite(sines).all():
            raise DimensionError(unusable)
        thetas = np.arctan2(sines, c)
        g = per_shape(np.divide, residual, np.where(sines > 0.0, sines, 1.0),
                      out=residual)
        delta = per_shape(np.multiply, g, thetas, out=g) @ w.swapaxes(1, 2)
        delta -= base @ (base.T @ delta)
        if not _horizontal(base, delta, _HORIZONTAL_TOL).all():
            raise TangencyError("vector is not horizontal at its base point")
        out[rows.start:rows.stop] = delta
    in_order(run, len(reps), _CHUNK)
    return out


def log_map(p: GrassmannPoint, q: GrassmannPoint) -> TangentVector:
    """Tangent vector at ``p`` whose exponential reaches the subspace of
    ``q``: :func:`log_map_stack` on a stack of one."""
    return TangentVector(log_map_stack(p.rep, q.rep[None])[0], p)


def transport_stack(base, directions, mats,
                    t: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Points at ``t`` along an ``(N, n, q)`` stack of horizontal directions
    from ``base``, one frame or a frame per direction, and the ``(k, n, q)``
    ``mats`` transported to each, as ``(N, n, q)`` and ``(N, k, n, q)`` stacks.

    With ``direction = U S V'``, the point is ``P V cos(tS) V' + U sin(tS)
    V'``, re-orthonormalized, and transport is the isometry ``w -> (-P V
    sin(tS) U' + U cos(tS) U' + I - U U') w``, projected horizontal at the
    point; a zero direction stays at its base. A chunk of directions shares
    each stacked SVD, product and QR. A base that is not a finite orthonormal
    frame, or arguments that are not finite or overflow, raise
    ``DimensionError`` or ``ParameterError``, and a direction that is not
    horizontal at its base ``TangencyError``; the first faulty direction
    raises, with its index as ``shape_index``.
    """
    base = array_argument(base, "base", DimensionError)
    directions = array_argument(directions, "directions", DimensionError)
    mats = array_argument(mats, "mats", DimensionError)
    if directions.ndim != 3 or base.shape not in (directions.shape[1:],
                                                  directions.shape):
        raise DimensionError(f"directions {directions.shape} do not match "
                             f"base {base.shape}")
    if mats.shape[1:] != directions.shape[1:]:
        raise DimensionError(f"mats {mats.shape} do not match directions "
                             f"{directions.shape}")
    if not np.isfinite(mats).all():
        raise DimensionError("mats contain non-finite values")
    if not (isinstance(t, numbers.Real) and abs(t) <= sys.float_info.max):
        raise ParameterError(f"t must be a finite number, got {t!r}")
    ends = np.empty(directions.shape)
    moved = np.empty((len(directions), *mats.shape))

    def run(rows: range):
        at = slice(rows.start, rows.stop)
        p, d = (base[at] if base.ndim == 3 else base), directions[at]
        if _stray(p.reshape(-1, *d.shape[1:])).any():
            raise DimensionError("base is not a finite orthonormal frame")
        check_tangents(p, d)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            u, s, vt = np.linalg.svd(d, full_matrices=False)
            v, ts = vt.swapaxes(1, 2), t * s
            if not np.isfinite(ts).all():
                raise DimensionError("direction is too long to follow")
            cos, sin = np.cos(ts), np.sin(ts)
            zero = ~d.any(axis=(1, 2))[:, None, None]
            ends[at] = end = np.where(zero, p, orthonormalize(
                p @ (v * cos[:, None]) @ vt
                + per_shape(np.multiply, u, sin) @ vt))
            um = u.swapaxes(1, 2)[:, None] @ mats
            w = np.where(zero[:, None], mats, mats - u[:, None] @ um
                         + (per_shape(np.multiply, u, cos)
                            - p @ (v * sin[:, None]))[:, None] @ um)
            moved[at] = w - end[:, None] @ (end.swapaxes(1, 2)[:, None] @ w)
        if not np.isfinite(moved[at]).all():
            raise DimensionError("transported mats overflow")
    in_order(run, len(directions), _CHUNK)
    return ends, moved


def exp_map_stack(base, directions, t: float = 1.0) -> np.ndarray:
    """The points of :func:`transport_stack`, with nothing to transport."""
    directions = array_argument(directions, "directions", DimensionError)
    return transport_stack(base, directions,
                           np.empty((0, *directions.shape[1:])), t)[0]


def exp_map(p: GrassmannPoint, delta: TangentVector) -> GrassmannPoint:
    """Geodesic endpoint reached from ``p`` along ``delta``:
    :func:`exp_map_stack` on a stack of one."""
    return GrassmannPoint(exp_map_stack(p.rep, delta.mat[None])[0])


def parallel_transport(p: GrassmannPoint, direction: TangentVector,
                       w: TangentVector, t: float) -> TangentVector:
    """Transport ``w`` along the geodesic leaving ``p`` with velocity
    ``direction``: :func:`transport_stack` on a stack of one. At ``t = 0``
    ``w`` comes back as it is."""
    if t == 0.0:
        return w
    ends, moved = transport_stack(p.rep, direction.mat[None], w.mat[None], t)
    return TangentVector(moved[0, 0], GrassmannPoint(ends[0]))


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
