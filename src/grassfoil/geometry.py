"""Airfoil synthesis, affine deformations, and dataset generation.

Shapes are discrete boundaries: ``n`` landmarks stacked as an ``(n, 2)``
matrix, ordered trailing edge -> upper surface -> leading edge -> lower
surface -> trailing edge. Surfaces come from a class/shape transformation:
each surface height is ``C(psi) * S(psi)`` with class function
``C(psi) = psi**0.5 * (1 - psi)**1.0`` and ``S`` a degree-8 Bernstein
expansion of that surface's 9 coefficients, evaluated on cosine-spaced
chord stations shared by every shape of a given landmark count.

Affine deformations act on the right, ``X @ M + outer(1, b)``, so that the
linear factor composes with the subspace representation downstream.
"""
from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    GenerationError,
    Gl2ViolationError,
    ParameterError,
    SamplingError,
    array_argument,
    in_order,
    integer_argument,
)
from .stacks import landmark_sum, per_shape

logger = logging.getLogger(__name__)

#: Class-function exponents: square-root leading edge, sharp trailing edge.
CLASS_EXPONENT_LE = 0.5
CLASS_EXPONENT_TE = 1.0

#: Bernstein degree per surface; 9 coefficients each side, 18 free in total.
BERNSTEIN_DEGREE = 8
COEFFS_PER_SURFACE = BERNSTEIN_DEGREE + 1

#: Default landmark count: 201 points per surface sharing the leading edge.
DEFAULT_LANDMARK_COUNT = 401

#: Smallest singular-value ratio of centered landmarks that counts as full rank.
RANK_RATIO_TOL = 1e-10
#: Magnitude beyond which a landmark or a stored value is rejected: the
#: affine factor's determinant and other products of two would overflow.
MAX_COORDINATE = 1e150
_DET_TOL = 1e-12
#: Shapes per stacked validation, which bounds its temporaries.
_CHUNK = 64


# ---------------------------------------------------------------------------
# value types


@dataclass(frozen=True, eq=False)
class LandmarkMatrix:
    """An ``(n, 2)`` matrix of boundary landmarks, immutable after creation."""

    points: np.ndarray

    def __post_init__(self):
        pts = array_argument(self.points, "landmarks").copy(order="K")
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ParameterError(
                f"expected an (n, 2) array, got shape {pts.shape}")
        if pts.shape[0] < 3:
            raise ParameterError(
                f"landmark matrix needs at least 3 rows, got {pts.shape[0]}")
        if not np.all(np.isfinite(pts)):
            raise ParameterError("landmark matrix contains non-finite values")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]


#: Order of the six affine components in tables, profiles and vectors.
AFFINE_COMPONENT_NAMES = ("m00", "m01", "m10", "m11", "b0", "b1")


def affine_vectors(linear: np.ndarray, translation: np.ndarray) -> np.ndarray:
    """The six components of an affine factor, or a row of them for each
    of a stack, in :data:`AFFINE_COMPONENT_NAMES` order."""
    return np.concatenate([linear.reshape(*linear.shape[:-2], 4), translation],
                          axis=-1)


def check_affines(linear: np.ndarray, translation: np.ndarray) -> None:
    """Check ``(N, 2, 2)`` linear factors and their ``(N, 2)`` translations
    as affine factors: an entry that is not finite, or beyond 1e150 in
    magnitude, raises ``ParameterError``, and a linear factor with ``|det|
    <= 1e-12`` then raises ``Gl2ViolationError``. The first faulty factor
    raises, with its position as ``shape_index``."""
    vectors = affine_vectors(linear, translation)

    def run(rows: range):
        at = slice(rows.start, rows.stop)
        size = np.abs(vectors[at]).max(axis=1)
        if not np.isfinite(size).all():
            raise ParameterError("affine map contains non-finite values")
        if (size > MAX_COORDINATE).any():
            raise ParameterError(
                f"affine map exceeds {MAX_COORDINATE:.0e} in magnitude")
        with np.errstate(divide="ignore"):  # a subnormal pivot gives 0
            det = np.linalg.det(linear[at])
        if (np.abs(det) <= _DET_TOL).any():
            raise Gl2ViolationError(
                "linear factor is rank deficient (|det| <= 1e-12); the "
                "deformation would collapse landmarks onto a line")
    in_order(run, len(linear), _CHUNK)


@dataclass(frozen=True, eq=False)
class AffineMap:
    """Right-acting affine deformation ``X -> X @ linear + outer(1, translation)``."""

    linear: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        m = array_argument(self.linear, "linear factor").copy(order="K")
        b = array_argument(self.translation, "translation").copy(order="K")
        if m.shape != (2, 2):
            raise ParameterError(f"linear factor must be 2x2, got {m.shape}")
        if b.shape != (2,):
            raise ParameterError(
                f"translation must have shape (2,), got {b.shape}")
        check_affines(m[None], b[None])
        m.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "linear", m)
        object.__setattr__(self, "translation", b)

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.linear))

    def as_vector(self) -> np.ndarray:
        """The six components in :data:`AFFINE_COMPONENT_NAMES` order."""
        return affine_vectors(self.linear, self.translation)

    def inverse(self) -> "AffineMap":
        """The affine map undoing this one under the right action."""
        inv = np.linalg.inv(self.linear)
        return AffineMap(inv, -self.translation @ inv)


def compose_affine(first: AffineMap, second: AffineMap) -> AffineMap:
    """Map equivalent to applying ``first`` then ``second``."""
    return AffineMap(first.linear @ second.linear,
                     first.translation @ second.linear + second.translation)


@dataclass(frozen=True, eq=False)
class CstParams:
    """Coefficients of one airfoil: 9 per surface plus trailing-edge thickness.

    The trailing-edge thickness stays 0 throughout the shipped dataset; the
    field exists so externally supplied airfoils round-trip faithfully.
    """

    upper: np.ndarray
    lower: np.ndarray
    te_thickness: float = 0.0

    def __post_init__(self):
        for name in ("upper", "lower"):
            arr = array_argument(getattr(self, name), f"{name} coefficients"
                                 ).copy(order="K")
            if arr.shape != (COEFFS_PER_SURFACE,):
                raise ParameterError(
                    f"{name} surface needs exactly {COEFFS_PER_SURFACE} "
                    f"coefficients, got shape {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ParameterError(f"{name} coefficients are not finite")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        te = array_argument(self.te_thickness, "trailing-edge thickness")
        if te.ndim:
            raise ParameterError("trailing-edge thickness must be one number, "
                                 f"got shape {te.shape}")
        if not np.isfinite(te):
            raise ParameterError("trailing-edge thickness is not finite")
        object.__setattr__(self, "te_thickness", float(te))

    def as_vector(self) -> np.ndarray:
        """The 18 free coefficients, upper surface first."""
        return np.concatenate([self.upper, self.lower])

    @classmethod
    def from_vector(cls, vec: np.ndarray, te_thickness: float = 0.0) -> "CstParams":
        vec = array_argument(vec, "coefficient vector")
        if vec.shape != (2 * COEFFS_PER_SURFACE,):
            raise ParameterError(
                f"coefficient vector needs {2 * COEFFS_PER_SURFACE} entries, "
                f"got shape {vec.shape}")
        return cls(vec[:COEFFS_PER_SURFACE], vec[COEFFS_PER_SURFACE:],
                   te_thickness)


@dataclass(frozen=True)
class ShapeDiagnostics:
    """Validity report for one landmark matrix; advisory, never raised."""

    rank_ratio: float
    rank_ok: bool
    simple: bool
    single_le_extremum: bool
    positive_orientation: bool

    @property
    def ordering_ok(self) -> bool:
        return self.single_le_extremum and self.positive_orientation

    @property
    def passed(self) -> bool:
        return self.rank_ok and self.simple and self.ordering_ok


# ---------------------------------------------------------------------------
# evaluation


def chord_stations(n: int) -> np.ndarray:
    """Cosine-spaced chord stations for one surface of an ``n``-landmark shape.

    Returns ``(1 - cos(pi * j / m)) / 2`` for ``j = 0..m`` with
    ``m = (n - 1) // 2``: leading edge at 0, trailing edge at 1, points
    clustered toward both ends where curvature concentrates.
    """
    n = integer_argument(n, "landmark count", SamplingError)
    if n % 2 == 0:
        raise SamplingError(f"landmark count must be odd, got {n}")
    if n < 7:
        raise SamplingError(f"landmark count must be at least 7, got {n}")
    m = (n - 1) // 2
    return (1.0 - np.cos(np.pi * np.arange(m + 1) / m)) / 2.0


def _bernstein_design(psi: np.ndarray) -> np.ndarray:
    """Design matrix of degree-8 Bernstein polynomials at the stations."""
    j = np.arange(COEFFS_PER_SURFACE)
    binom = np.array([math.comb(BERNSTEIN_DEGREE, k) for k in j], dtype=float)
    p = psi[:, None]
    return binom * p ** j * (1.0 - p) ** (BERNSTEIN_DEGREE - j)


def _class_function(psi: np.ndarray) -> np.ndarray:
    return psi ** CLASS_EXPONENT_LE * (1.0 - psi) ** CLASS_EXPONENT_TE


def cst_evaluate_stack(coeffs, n: int = DEFAULT_LANDMARK_COUNT,
                       te_thickness=0.0) -> np.ndarray:
    """Airfoil boundaries of an ``(N, 18)`` coefficient stack, upper surface
    first, at ``n`` landmarks each, as an ``(N, n, 2)`` array.

    Each boundary runs trailing edge -> upper surface -> leading edge ->
    lower surface -> trailing edge, with the leading-edge point shared, so
    each surface carries ``(n + 1) // 2`` of the ``n`` landmarks. All shapes
    with the same ``n`` share identical chordwise station values, which is
    what makes landmark-wise correspondence across a dataset meaningful.
    ``te_thickness`` is one trailing-edge thickness or one per row. Each
    surface is a batched matrix-vector product, which gives every row the
    bits of its own one-row call.
    """
    psi = chord_stations(n)
    coeffs = array_argument(coeffs, "coeffs")
    te_half = array_argument(te_thickness, "te_thickness") / 2.0
    if (coeffs.ndim != 2 or coeffs.shape[1] != 2 * COEFFS_PER_SURFACE
            or te_half.shape not in ((), (len(coeffs),))):
        raise ParameterError(
            f"expected an (N, 18) coefficient stack and one trailing-edge "
            f"thickness or N, got shapes {coeffs.shape} and {te_half.shape}")
    if not (np.all(np.isfinite(coeffs)) and np.all(np.isfinite(te_half))):
        raise ParameterError("coefficients are not finite")
    design = _bernstein_design(psi)
    # one matrix-vector product per row and surface: a matrix product over
    # all rows at once would round differently
    surfaces = _class_function(psi) * np.matmul(
        design, coeffs.reshape(-1, 2, COEFFS_PER_SURFACE, 1))[..., 0]
    te = psi * te_half[..., None]
    y = np.concatenate([(surfaces[:, 0] + te)[:, ::-1],
                        (surfaces[:, 1] - te)[:, 1:]], axis=1)
    x = np.concatenate([psi[::-1], psi[1:]])
    return np.stack([np.broadcast_to(x, y.shape), y], axis=-1)


def cst_evaluate(params: CstParams, n: int = DEFAULT_LANDMARK_COUNT) -> LandmarkMatrix:
    """One airfoil boundary: :func:`cst_evaluate_stack` of a stack of one."""
    return LandmarkMatrix(cst_evaluate_stack(
        params.as_vector()[None], n, params.te_thickness)[0])


def _check_draw(fraction: float, seed: int) -> int:
    """``seed`` as an ``int``, once the fraction and seed of a draw pass."""
    if not (isinstance(fraction, numbers.Real) and 0.0 <= fraction <= 1.0):
        raise ParameterError(
            f"perturbation fraction must lie in [0, 1], got {fraction}")
    seed = integer_argument(seed, "seed")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    return seed


def _coefficient_rows(params) -> np.ndarray:
    """The ``(N, 18)`` coefficient rows of a non-empty list of
    :class:`CstParams`."""
    if not all(isinstance(p, CstParams) for p in params):
        raise ParameterError("expected a list of CstParams coefficient sets")
    return np.reshape([p.as_vector() for p in params], (len(params), -1))


def _scaled_draws(rows: np.ndarray, fraction: float, seeds) -> np.ndarray:
    """Each coefficient row times ``1 + fraction * u``, ``u`` the 18
    ``U[-1, 1]`` draws of the row's own seed; a product past the float range
    is left infinite, for the caller's finiteness check."""
    u = np.reshape([np.random.default_rng(s).uniform(-1.0, 1.0, rows.shape[-1])
                    for s in seeds], (-1, rows.shape[-1]))
    with np.errstate(over="ignore"):
        return rows * (1.0 + fraction * u)


def perturb_cst(params: CstParams, fraction: float, seed: int) -> CstParams:
    """Scale every free coefficient by ``1 + fraction * u`` with ``u ~ U[-1, 1]``.

    Each coefficient moves by at most ``fraction`` of its own magnitude, so
    sign patterns survive. Identical seeds reproduce identical draws.
    """
    seed = _check_draw(fraction, seed)
    row = _scaled_draws(_coefficient_rows([params]), fraction, [seed])[0]
    return CstParams.from_vector(row, params.te_thickness)


# ---------------------------------------------------------------------------
# affine deformations

SUBGROUP_KINDS = ("thickness", "camber", "chord", "twist")


def affine_subgroup(kind: str, t: float) -> AffineMap:
    """One-parameter family of named deformations, ``t`` in the open (0, 1).

    thickness  diag(1, t)            scales heights only
    camber     2 * diag(1 - t, t)    rebalances the two coordinates
    chord      diag(t, 1)            scales the chordwise coordinate
    twist      rotation by t * pi/2
    """
    if kind not in SUBGROUP_KINDS:
        raise ParameterError(
            f"unknown deformation kind {kind!r}; expected one of "
            f"{', '.join(SUBGROUP_KINDS)}")
    if not (0.0 < t < 1.0):
        raise DomainError(
            f"deformation parameter must lie strictly inside (0, 1), got {t}")
    if kind == "thickness":
        m = np.diag([1.0, t])
    elif kind == "camber":
        m = 2.0 * np.diag([1.0 - t, t])
    elif kind == "chord":
        m = np.diag([t, 1.0])
    else:
        angle = t * np.pi / 2.0
        c, s = np.cos(angle), np.sin(angle)
        m = np.array([[c, -s], [s, c]])
    return AffineMap(m, np.zeros(2))


def affine_apply(shape: LandmarkMatrix, affine: AffineMap) -> LandmarkMatrix:
    """Apply the right action ``X @ M + outer(1, b)``."""
    return LandmarkMatrix(shape.points @ affine.linear + affine.translation)


# ---------------------------------------------------------------------------
# validity


def _single_le_extremum(x: np.ndarray) -> bool:
    """True when x descends once to a single minimum and ascends back.

    Exactly the profile of a well-ordered boundary: trailing edge down the
    upper surface to the leading edge, then back along the lower surface.
    """
    d = np.diff(x)
    d = d[d != 0.0]
    if d.size < 2:
        return False
    s = np.sign(d)
    changes = int(np.count_nonzero(s[1:] != s[:-1]))
    return bool(changes == 1 and s[0] < 0)


def _has_proper_crossing(pts: np.ndarray) -> bool:
    """Exact O(n^2) proper-crossing test over the closed polyline.

    Two segments cross properly when each one's endpoints lie strictly on
    opposite sides of the other's line. Segments adjacent in index order are
    never compared. Zero-length segments and segments that merely touch at
    an endpoint never count: an orientation within ``1e-12 * span**2`` of
    zero (``span`` the largest coordinate deviation from the centroid) reads
    as collinear, so shapes whose surfaces meet at a shared endpoint survive
    reconstruction noise. :func:`validate_stack` calls this only when
    :func:`_separated_chains` cannot certify the shape; it is also the
    oracle that certificate is tested against.
    """
    a = pts
    b = np.roll(pts, -1, axis=0)
    d = b - a
    # cross[i, j] = d_i x (p_j - a_i), expanded into outer products so no
    # (n, n, 2) temporaries get built
    offset = d[:, 0] * a[:, 1] - d[:, 1] * a[:, 0]
    cross_start = (np.outer(d[:, 0], a[:, 1]) - np.outer(d[:, 1], a[:, 0])
                   - offset[:, None])
    cross_end = (np.outer(d[:, 0], b[:, 1]) - np.outer(d[:, 1], b[:, 0])
                 - offset[:, None])
    span = float(np.max(np.abs(pts - pts.mean(axis=0)), initial=0.0))
    tol = 1e-12 * span * span
    straddle = (((cross_start > tol) & (cross_end < -tol))
                | ((cross_start < -tol) & (cross_end > tol)))
    proper = straddle & straddle.T
    nseg = len(pts)
    idx = np.arange(nseg)
    gap = np.abs(idx[:, None] - idx[None, :])
    adjacent = (gap <= 1) | (gap == nseg - 1)
    return bool(np.any(proper & ~adjacent))


# Largest |coordinate| / span at which _has_proper_crossing's rounding error
# (at most 40 * 2**-53 * span * |coordinate| per orientation) stays below a
# third of its 1e-12 * span**2 tolerance.
_CERTIFIED_OFFSET = 64.0


def _separated_chains(run: np.ndarray, span: np.ndarray,
                      moving: np.ndarray) -> np.ndarray:
    """O(n) certificate that no closed polyline of a run has a proper
    crossing. The ``(R, n, 2)`` shapes of ``run`` share their x column and
    ``moving``, the mask of their nonzero-length edges (edge i runs from
    vertex i to the next); ``span`` is each one's largest coordinate
    deviation from its centroid.

    True only when, after dropping zero-length segments, the boundary splits
    at its min-x and max-x ends into two strictly x-monotone chains, joined
    there by a shared vertex or one vertical segment, and one chain lies
    strictly above the other at every interior breakpoint of either chain
    and above or level at both ends. The split depends only on what the run
    shares. :func:`_gap_signs` makes each sign exact. The gap is linear
    between breakpoints, so the chains meet nowhere but at shared ends, and
    each chain's own segments occupy disjoint x-ranges: no two segments
    meet except at a shared vertex. While every coordinate is within
    ``_CERTIFIED_OFFSET * span`` of the origin, :func:`_has_proper_crossing`
    cannot mistake rounding for a straddle, so it finds no crossing either.
    False means "not certified", not "crossing".
    """
    certified = np.zeros(len(run), dtype=bool)
    # the span bounds keep products of coordinates clear of under/overflow
    inside = ((1e-100 < span) & (span < 1e100)
              & (np.abs(run).max(axis=(1, 2)) <= _CERTIFIED_OFFSET * span))
    # drop the start of each zero-length edge: the vertices skipped coincide
    # with the next one kept, so every kept edge keeps its dx
    x, y = run[0, moving, 0], run[inside][:, moving, 1]
    dx = (np.roll(run[0, :, 0], -1) - run[0, :, 0])[moving]
    m = x.size
    if m < 3 or not inside.any():
        return certified
    # the rising chain starts at the min-x vertex, or at the far end of a
    # vertical segment there; the checks below hold whatever k is chosen
    k = int(np.argmin(x))
    if dx[k] == 0.0:
        k = (k + 1) % m
    dx = np.roll(dx, -k)
    p = int(np.argmin(dx > 0.0))
    rest = dx[p:]
    z1, z2 = int(rest[0] == 0.0), int(rest[-1] == 0.0)
    falling = rest[z1:rest.size - z2]
    if falling.size == 0 or falling.max() >= 0.0:
        return certified
    x = np.concatenate([x[k:], x[:k + 1]])
    y = np.concatenate([y[:, k:], y[:, :k + 1]], axis=1)
    ax, ay = x[:p + 1], y[:, :p + 1]
    bx, by = x[p + z1:m + 1 - z2][::-1], y[:, p + z1:m + 1 - z2][:, ::-1]
    margin = 1e-12 * span[inside, None]
    gaps = np.concatenate([
        _gap_signs(ax[1:-1], ay[:, 1:-1], bx, by, margin),
        -_gap_signs(bx[1:-1], by[:, 1:-1], ax, ay, margin)], axis=1)
    ends = np.column_stack([by[:, 0] - ay[:, 0], by[:, -1] - ay[:, -1]])
    above = (gaps.min(axis=1, initial=math.inf) > 0.0) & (ends.min(1) >= 0.0)
    below = (gaps.max(axis=1, initial=-math.inf) < 0.0) & (ends.max(1) <= 0.0)
    certified[inside] = above | below
    return certified


def _gap_signs(xq: np.ndarray, yq: np.ndarray, x: np.ndarray, y: np.ndarray,
               margin: np.ndarray) -> np.ndarray:
    """Chains ``(x, y[r])`` minus ``yq[r]`` at points ``xq`` inside them,
    correct in sign.

    Each value is computed as ``np.interp`` computes it. Within the
    certificate's coordinate bound that errs by less than ``1e-14 * span``,
    far below ``margin``; a gap no wider than its row's ``margin``, such as
    next to a trailing edge split by rounding noise, is replaced by its
    sign in exact rational arithmetic.
    """
    j = np.searchsorted(x, xq, side="right") - 1
    # a query strictly inside the chain has a breakpoint j + 1; a slope
    # may overflow, and the product of an infinite one is discarded
    with np.errstate(over="ignore", invalid="ignore"):
        slope = (y[:, j + 1] - y[:, j]) / (x[j + 1] - x[j])
        gaps = np.where(xq == x[j], y[:, j], slope * (xq - x[j]) + y[:, j]) - yq
    for r, i in zip(*np.nonzero(np.abs(gaps) <= margin)):
        # imported on first need: most shapes never get here, and it would
        # add to every import of the package
        from fractions import Fraction
        x0, x1, y0, y1, xv, yv = map(Fraction, (
            x[j[i]], x[j[i] + 1], y[r, j[i]], y[r, j[i] + 1], xq[i], yq[r, i]))
        gap = y0 + (y1 - y0) * (xv - x0) / (x1 - x0) - yv
        gaps[r, i] = (gap > 0) - (gap < 0)
    return gaps


def validate_stack(points) -> list[ShapeDiagnostics]:
    """Diagnose each shape of an ``(N, n, 2)`` landmark stack; reports
    findings instead of raising.

    Checks the effective rank of the centered landmarks (collinear inputs,
    anywhere in the plane, are what make the downstream decomposition
    unstable), boundary simplicity of the closed polyline, and ordering
    sanity: a single leading-edge extremum in the first coordinate plus
    positive boundary orientation. ``simple`` is decided in O(n) by
    :func:`_separated_chains` when it certifies the shape, as it does every
    generated airfoil, and otherwise by the exact
    :func:`_has_proper_crossing`; the verdict is the exact test's either way.
    A chunk of shapes shares one stacked SVD, and each run of consecutive
    shapes with the same x column and zero-length edges shares one chain
    split and one leading-edge test. Coordinates that are not finite or
    too large raise ``ParameterError``; the first such shape raises.
    """
    points = array_argument(points, "points")
    if points.ndim != 3 or points.shape[1] < 3 or points.shape[2] != 2:
        raise ParameterError("expected an (N, n, 2) landmark stack with "
                             f"n >= 3, got shape {points.shape}")
    out = []

    def run(rows: range):
        pts = points[rows.start:rows.stop]
        size = np.abs(pts).max(axis=(1, 2), initial=0.0)
        if not np.all(np.isfinite(size)):
            raise ParameterError("landmark stack contains non-finite values")
        if np.any(size > MAX_COORDINATE):
            raise ParameterError(
                f"landmark coordinates exceed {MAX_COORDINATE:.0e} in "
                "magnitude; validation products would overflow")
        centered = per_shape(np.subtract, pts,
                             landmark_sum(pts) / pts.shape[1])
        sv = np.linalg.svd(centered, compute_uv=False)
        ratio = np.divide(sv[:, 1], sv[:, 0], out=np.zeros(len(pts)),
                          where=sv[:, 0] > 0.0)
        span = np.abs(centered).max(axis=(1, 2))
        x, y = pts[:, :, 0], pts[:, :, 1]
        nx, ny = np.roll(x, -1, 1), np.roll(y, -1, 1)
        area = 0.5 * (x * ny - nx * y).sum(axis=1)
        moving = (nx != x) | (ny != y)
        shared = np.all(x[1:] == x[:-1], 1) & np.all(moving[1:] == moving[:-1], 1)
        cuts = [0, *(np.flatnonzero(~shared) + 1).tolist(), len(pts)]
        simple, leading = np.empty((2, len(pts)), dtype=bool)
        for a, b in zip(cuts[:-1], cuts[1:]):
            simple[a:b] = _separated_chains(pts[a:b], span[a:b], moving[a])
            leading[a:b] = _single_le_extremum(x[a])
        for i in np.flatnonzero(~simple):
            simple[i] = not _has_proper_crossing(pts[i])
        out.extend(ShapeDiagnostics(r, r > RANK_RATIO_TOL, *flags, a > 0.0)
                   for r, *flags, a in zip(ratio.tolist(), simple.tolist(),
                                           leading.tolist(), area.tolist()))
    in_order(run, len(points), _CHUNK)
    return out


def one_shape_stack(shape, error: type = ParameterError) -> np.ndarray:
    """One shape, a :class:`LandmarkMatrix` or an ``(n, 2)`` array, as a
    float stack of one; an array of another rank raises ``error``."""
    points = array_argument(
        shape.points if isinstance(shape, LandmarkMatrix) else shape,
        "landmarks", error)
    if points.ndim != 2:
        raise error(f"expected an (n, 2) landmark matrix, got shape "
                    f"{points.shape}")
    return points[None]


def validate_shape(shape) -> ShapeDiagnostics:
    """Diagnose one shape, a :class:`LandmarkMatrix` or an ``(n, 2)`` array:
    :func:`validate_stack` of a stack of one."""
    return validate_stack(one_shape_stack(shape))[0]


# ---------------------------------------------------------------------------
# baseline family

# Thickness distributions (always positive) and camber distributions, as
# unit profiles over the 9 Bernstein coefficients; each baseline scales one
# of each. Keeping every |camber| strictly below the local thickness keeps
# the family and its bounded perturbations free of surface crossings.
_THICKNESS_PROFILES = {
    "flat": np.ones(9),
    "front": np.array([1.25, 1.15, 1.05, 1.00, 0.95, 0.90, 0.88, 0.86, 0.85]),
    "aft": np.array([0.85, 0.88, 0.92, 0.96, 1.00, 1.05, 1.08, 1.10, 1.12]),
}

_CAMBER_PROFILES = {
    "none": np.zeros(9),
    "mid": np.array([0.15, 0.35, 0.60, 0.80, 0.90, 0.85, 0.70, 0.50, 0.30]),
    "aft": np.array([0.08, 0.18, 0.32, 0.50, 0.68, 0.85, 0.95, 1.00, 0.90]),
    "reflex": np.array([0.20, 0.50, 0.80, 0.90, 0.80, 0.50, 0.10, -0.20, -0.35]),
}

# name, thickness profile, thickness scale, camber profile, camber scale
_BASELINE_RECIPES = (
    ("sym-thin-07", "flat", 0.07, "none", 0.0),
    ("sym-10", "flat", 0.10, "none", 0.0),
    ("sym-front-15", "front", 0.15, "none", 0.0),
    ("sym-21", "flat", 0.21, "none", 0.0),
    ("sym-front-24", "front", 0.24, "none", 0.0),
    ("camber-thin-09", "flat", 0.09, "mid", 0.030),
    ("camber-front-11", "front", 0.11, "mid", 0.045),
    ("camber-aft-12", "flat", 0.12, "aft", 0.050),
    ("camber-front-15", "front", 0.15, "mid", 0.060),
    ("camber-aft-18", "aft", 0.18, "aft", 0.060),
    ("camber-21", "flat", 0.21, "mid", 0.050),
    ("thick-aft-24", "aft", 0.24, "aft", 0.070),
    ("reflex-front-12", "front", 0.12, "reflex", 0.050),
    ("reflex-18", "flat", 0.18, "reflex", 0.060),
    ("thin-aft-08", "flat", 0.08, "aft", 0.028),
    ("thick-front-30", "front", 0.30, "mid", 0.080),
)


def baseline_names() -> list[str]:
    return [name for name, *_ in _BASELINE_RECIPES]


def default_baselines() -> list[CstParams]:
    """The 16 built-in baseline airfoils, thin-to-thick and symmetric-to-cambered."""
    out = []
    for _, t_name, t_scale, c_name, c_scale in _BASELINE_RECIPES:
        thick = t_scale * _THICKNESS_PROFILES[t_name]
        camber = c_scale * _CAMBER_PROFILES[c_name]
        out.append(CstParams(thick + camber, camber - thick))
    return out


# ---------------------------------------------------------------------------
# dataset generation

# Draws per perturbation before generation gives up on it.
_MAX_ATTEMPTS = 50


@dataclass(frozen=True, eq=False)
class DatasetShape:
    """One generated shape with its provenance. ``coefficients``, the 18
    upper surface first, and the ``(n, 2)`` ``landmarks`` are read-only
    rows of the dataset's stacks; the trailing-edge thickness is the
    baseline's."""

    index: int
    baseline_index: int
    coefficients: np.ndarray
    landmarks: np.ndarray
    attempts: int


def _derived_seed(seed: int, *key: int) -> int:
    """Per-shape integer seed; independent of generation order."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def _trials(coeffs: np.ndarray, te, n: int) -> tuple[np.ndarray, list]:
    """Landmarks and diagnostics of coefficient rows, evaluated and
    validated as one stack."""
    points = cst_evaluate_stack(coeffs, n, te)
    return points, validate_stack(points)


def _generate(baselines: list[CstParams], n_perturbations: int,
              fraction: float, seed: int, n: int):
    """The coefficient rows, landmarks, baseline indices and attempt counts
    of the shapes :func:`gen_dataset_detailed` describes."""
    if not (isinstance(baselines, (list, tuple)) and baselines):
        raise ParameterError("need a non-empty list of baselines")
    base = _coefficient_rows(baselines)
    te = np.array([p.te_thickness for p in baselines])
    n_perturbations = integer_argument(n_perturbations, "perturbation count")
    if n_perturbations < 0:
        raise ParameterError("perturbation count cannot be negative")
    seed = _check_draw(fraction, seed)
    points, diags = _trials(base, te, n)
    for b_idx, diag in enumerate(diags):
        if not diag.passed:
            raise GenerationError(
                f"baseline {b_idx} fails validation (rank_ok={diag.rank_ok}, "
                f"simple={diag.simple}, ordering_ok={diag.ordering_ok})")
    each, extra = divmod(n_perturbations, len(base))
    slots = [(b_idx, k) for b_idx in range(len(base))
             for k in range(each + (b_idx < extra))]
    owner = np.array([b_idx for b_idx, _ in slots], dtype=int)
    # no first draw raises: its arguments and its baseline passed the checks
    firsts = _scaled_draws(base[owner], fraction,
                           [_derived_seed(seed, *slot, 0) for slot in slots])
    drawn, diags = _trials(firsts, te[owner], n)
    coeffs = np.concatenate([base, firsts])
    points = np.concatenate([points, drawn])
    attempts = np.ones(len(coeffs), dtype=int)
    for row, ((b_idx, k), diag) in enumerate(zip(slots, diags), len(base)):
        attempt = 0
        while not diag.passed:
            logger.warning("rejected perturbation (baseline %d, index %d, "
                           "attempt %d); resampling", b_idx, k, attempt)
            attempt += 1
            if attempt == _MAX_ATTEMPTS:
                raise GenerationError(
                    f"no valid perturbation of baseline {b_idx} after "
                    f"{_MAX_ATTEMPTS} attempts")
            coeffs[row] = _scaled_draws(
                base[b_idx], fraction,
                [_derived_seed(seed, b_idx, k, attempt)])[0]
            points[row:row + 1], (diag,) = _trials(coeffs[row:row + 1],
                                                   te[b_idx], n)
        attempts[row] = attempt + 1
    return (coeffs, points, np.concatenate([np.arange(len(base)), owner]),
            attempts)


def gen_dataset_detailed(baselines: list[CstParams], n_perturbations: int,
                         fraction: float, seed: int,
                         n: int = DEFAULT_LANDMARK_COUNT) -> list[DatasetShape]:
    """Baselines plus seeded perturbations, each validated on the way out.

    ``n_perturbations`` is the total across all baselines, distributed as
    evenly as possible, the first baselines taking one extra each when it
    does not divide. Shapes failing :func:`validate_shape` are resampled
    with a fresh derived seed (logged); generation is reproducible because
    every draw's seed depends only on ``(seed, baseline, index, attempt)``.
    All first draws are evaluated and validated as one stack; then, slot by
    slot, each rejected draw is logged and the slot drawn again on its own,
    so the shapes, warnings and errors are those of drawing each in turn.
    """
    coeffs, points, baseline, attempts = _generate(
        baselines, n_perturbations, fraction, seed, n)
    coeffs.setflags(write=False)
    points.setflags(write=False)
    return [DatasetShape(i, *fields) for i, fields in enumerate(zip(
        baseline.tolist(), coeffs, points, attempts.tolist()))]


def gen_dataset(baselines: list[CstParams], n_perturbations: int,
                fraction: float, seed: int,
                n: int = DEFAULT_LANDMARK_COUNT) -> np.ndarray:
    """The ``(N, n, 2)`` landmarks of the shapes of
    :func:`gen_dataset_detailed`: the baselines, then their perturbations."""
    return _generate(baselines, n_perturbations, fraction, seed, n)[1]


# ---------------------------------------------------------------------------
# straight sweeps, shared by coefficient space and normal coordinates


def sweep_points(a: np.ndarray, b: np.ndarray, steps: int) -> np.ndarray:
    """``steps`` points from ``a`` to ``b``: row i is ``(1 - s) * a + s * b``
    at ``s = i / (steps - 1)``. The corners must be finite numeric arrays
    of one shape."""
    steps = integer_argument(steps, "steps")
    if steps < 2:
        raise ParameterError(f"a sweep needs at least 2 steps, got {steps}")
    a, b = array_argument(a, "corner a"), array_argument(b, "corner b")
    if a.shape != b.shape:
        raise ParameterError(
            f"sweep corners differ in shape: {a.shape} and {b.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ParameterError("sweep corners contain non-finite values")
    s = np.arange(steps)[:, None] / (steps - 1)
    return (1.0 - s) * a + s * b


def cst_sweep(corner_a: CstParams, corner_b: CstParams, steps: int,
              n: int = DEFAULT_LANDMARK_COUNT) -> np.ndarray:
    """Shapes along the straight segment between two coefficient vectors,
    as one ``(steps, n, 2)`` stack.

    Linear interpolation in raw coefficient space; unlike sweeps in the
    learned design space, intermediate shapes carry no validity guarantee.
    The trailing-edge thickness is ``corner_a``'s throughout.
    """
    a, b = _coefficient_rows([corner_a, corner_b])
    return cst_evaluate_stack(sweep_points(a, b, steps), n,
                              corner_a.te_thickness)
