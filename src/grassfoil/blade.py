"""Blade assembly from ordered cross-sections.

A blade is a sequence of airfoil sections at increasing normalized span
positions eta in [0, 1]. Each section is standardized to a subspace
representative plus an affine factor; representatives are clustered by
optimal rotations so that adjacent sections connect smoothly, spans are
filled in by piecewise geodesics, and the affine factors follow
monotone-preserving cubic profiles in eta. Perturbations move every
section along parallel-transported copies of one tangent direction, so a
single coordinate vector deforms the whole blade consistently.
"""
from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BladeDefinitionError,
    ConsistencyError,
    CutLocusError,
    DimensionError,
    ParameterError,
    SpanRangeError,
    array_argument,
    in_order,
    integer_argument,
)
from .geometry import (MAX_COORDINATE, LandmarkMatrix, affine_vectors,
                       check_affines)
from .grassmann import (
    GrassmannPoint,
    as_frames,
    exp_map_stack,
    log_map_stack,
    procrustes_rotation,
    standardize_stack,
    transport_stack,
)
from .pga import PgaModel

def _pchip_end_slope(h0, h1, m0, m1) -> np.ndarray:
    """One-sided three-point slope at an end, clipped to preserve shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    flip = np.sign(d) != np.sign(m0)
    overshoot = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    return np.where(flip, 0.0, np.where(overshoot, 3.0 * m0, d))


def _pchip_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cubic coefficients (4, knots - 1, components), highest power first.

    Row k multiplies (eta - x[i]) ** (3 - k) on segment i.
    """
    h = np.diff(x)[:, None]
    m = np.diff(y, axis=0) / h
    if len(x) == 2:
        d = np.concatenate([m, m])
    else:
        d = np.zeros_like(y)
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
            d[1:-1] = np.where(flat, 0.0, 1.0 / whmean)
        d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))


class AffineProfiles:
    """Componentwise monotone cubic profiles of the affine factor over span.

    One PCHIP interpolant (Fritsch & Carlson 1980) per entry of the 2x2
    matrix and the offset pair, exact at the knots: interior slopes are
    the weighted harmonic means of Fritsch & Butland (1984), end slopes the
    shape-preserving one-sided estimate of Moler (2004), and two knots give
    a straight line. The operations and their order are those of the
    reference PCHIP the tests hold it to, so values match it bit for bit.
    """

    def __init__(self, etas: np.ndarray, values: np.ndarray):
        etas = np.array(etas, dtype=float)
        values = np.array(values, dtype=float)
        if etas.ndim != 1 or len(etas) < 2:
            raise BladeDefinitionError("profiles need at least 2 station spans")
        if not np.all(np.isfinite(etas)):
            raise BladeDefinitionError("station spans must be finite")
        if np.any(np.diff(etas) <= 0.0):
            raise BladeDefinitionError("station spans must be strictly increasing")
        if values.shape != (len(etas), 6):
            raise DimensionError(
                f"expected ({len(etas)}, 6) component values, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise BladeDefinitionError("profile knot values must be finite")
        # On a segment of width h, the sum of |c_k| h**(3 - k) bounds every
        # partial sum that at() forms.
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = _pchip_coefficients(etas, values)
            h = np.diff(etas)[:, None]
            bound = sum(np.abs(c) * w
                        for c, w in zip(coeffs, ((h * h) * h, h * h, h, 1.0)))
        finite = np.isfinite(bound).all(axis=1)
        if not finite.all():
            i = int(finite.argmin())
            a, b = etas[i:i + 2].tolist()
            raise BladeDefinitionError(
                f"the affine profile between stations {i} and {i + 1} (eta "
                f"{a!r} and {b!r}) overflows: spans too far apart or too close")
        etas.setflags(write=False)
        values.setflags(write=False)
        self.etas = etas
        self.values = values
        self._coeffs = coeffs

    def at(self, etas, segments: np.ndarray | None = None) -> np.ndarray:
        """The six components at each of the spans ``etas``, as an array of
        shape ``etas.shape + (6,)``; a caller that has located the spans'
        segments (as ``_locate_segments`` does) passes them on."""
        etas = array_argument(etas, "spans", ParameterError)
        idx = _locate_segments(self.etas, etas) if segments is None else segments
        s = (etas - self.etas[idx])[..., None]
        c = self._coeffs[:, idx]
        # Lowest power first, starting from 0.0: the order fixes the last
        # bit and the sign of zero.
        return 0.0 + c[3] + c[2] * s + c[1] * (s * s) + c[0] * ((s * s) * s)

    @property
    def varying(self) -> np.ndarray:
        """Mask over the six components: does the profile actually change?

        Variation below 1e-12 relative to the component's magnitude reads
        as constant; aligning identical sections leaves rotation residue
        around 1e-16 that must not count as a design parameter.
        """
        scale = np.maximum(np.abs(self.values).max(axis=0), 1.0)
        return np.ptp(self.values, axis=0) > 1e-12 * scale

    def varying_count(self) -> int:
        return int(np.count_nonzero(self.varying))


@dataclass(frozen=True, eq=False)
class BladeDefinition:
    """Ordered stations as read-only arrays: spans ``etas (S,)``, measured
    ``sections (S, n, 2)``, clustered ``frames (S, n, 2)`` and the affine
    factors against those frames, ``linear (S, 2, 2)`` and ``translation
    (S, 2)``. The affine ``profiles``, whose knots ``etas`` is, are derived
    when the blade is made. Of several faulty stations, the first raises,
    with its position as ``shape_index``.
    """

    etas: np.ndarray
    sections: np.ndarray
    frames: np.ndarray
    linear: np.ndarray
    translation: np.ndarray
    profiles: AffineProfiles = field(init=False, repr=False)

    def __post_init__(self):
        etas = array_argument(self.etas, "station spans", BladeDefinitionError)
        names = ("sections", "frames", "linear", "translation")
        arrays = [array_argument(getattr(self, name), name, DimensionError).copy()
                  for name in names]
        sections, frames, linear, translation = arrays
        if etas.ndim != 1 or any(a.shape[:1] != etas.shape for a in arrays):
            raise BladeDefinitionError(
                "one aligned representative per station required, and one "
                "span, section and affine factor")
        if (frames.shape != sections.shape or sections.shape[2:] != (2,)
                or linear.shape[1:] != (2, 2) or translation.shape[1:] != (2,)):
            raise DimensionError(
                "all stations must share one landmark count, in (n, 2) sections "
                "and frames, with 2x2 linear factors and 2-vector translations")

        def run(rows: range):
            at = slice(rows.start, rows.stop)
            size = np.abs(sections[at]).max(initial=0.0)
            if not np.isfinite(size):
                raise ParameterError("landmark matrix contains non-finite values")
            if size > MAX_COORDINATE:
                raise ParameterError(
                    f"landmark coordinates exceed {MAX_COORDINATE:.0e} in "
                    "magnitude")
            check_affines(linear[at], translation[at])
            frames[at] = as_frames(frames[at])
        in_order(run, len(etas), max(len(etas), 1))
        profiles = AffineProfiles(etas, affine_vectors(linear, translation))
        object.__setattr__(self, "etas", profiles.etas)
        for name, value in zip(names, arrays):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "profiles", profiles)

    @property
    def n(self) -> int:
        return self.sections.shape[1]

    @property
    def n_stations(self) -> int:
        return len(self.etas)


def procrustes_cluster(frames) -> np.ndarray:
    """Rotate each frame of an ``(S, n, 2)`` stack onto its already-aligned
    neighbor, as a new stack.

    Every station keeps its subspace; only the in-plane rotation gauge
    changes, which is what makes adjacent geodesic segments meet without
    spurious twisting. The last station is fixed and the walk goes down
    from tip to hub.
    """
    frames = as_frames(frames)
    if len(frames) < 2:
        raise ParameterError("clustering needs at least 2 points")
    aligned = [GrassmannPoint(frames[-1])]
    for frame in frames[-2::-1]:
        rot = procrustes_rotation(aligned[-1], GrassmannPoint(frame))
        aligned.append(GrassmannPoint(frame @ rot))
    return np.array([point.rep for point in aligned[::-1]])


def build_blade(etas, sections) -> BladeDefinition:
    """Standardize, cluster, and spline an ``(S, n, 2)`` stack of sections
    into a blade.

    The affine factor stored per station is re-expressed against the
    clustered frame (the clustering rotation is folded into the matrix
    part), so reconstruction from stored pieces is exact. Spans that are not
    one number per section raise ``BladeDefinitionError``, and sections that
    are not a numeric stack ``DimensionError``.
    """
    etas = array_argument(etas, "station spans", BladeDefinitionError)
    sections = array_argument(sections, "sections", DimensionError)
    count = len(sections) if sections.ndim else 0
    if etas.ndim != 1 or len(etas) != count:
        raise BladeDefinitionError(
            f"{etas.size} span positions for {count} sections")
    if count < 2:
        raise BladeDefinitionError("a blade needs at least 2 stations")
    raw, _, translation = standardize_stack(sections)
    frames = procrustes_cluster(raw)
    linear = frames.swapaxes(1, 2) @ (sections - translation[:, None])
    return BladeDefinition(etas, sections, frames, linear, translation)


def _locate_segments(knots: np.ndarray, etas: np.ndarray) -> np.ndarray:
    """Index i of the segment knots[i] <= eta < knots[i + 1] of each span
    ``eta``, the last closed; the first span outside the knots raises."""
    outside = ~((etas >= knots[0]) & (etas <= knots[-1]))
    if outside.any():
        eta = float(etas[outside][0])
        raise SpanRangeError(
            f"span {eta!r} outside [{knots[0]:g}, {knots[-1]:g}]; "
            "extrapolation is not supported")
    idx = np.searchsorted(knots, etas, side="right") - 1
    return np.minimum(idx, len(knots) - 2)


def interpolate_section(blade: BladeDefinition, eta: float) -> LandmarkMatrix:
    """Physical cross-section at any span inside the blade.

    Piecewise geodesic between the bracketing aligned representatives with
    a segment-local parameter linear in eta, rendered through the affine
    profiles. At a knot this reproduces the stored section. A span that is
    not a real number of float range raises ``ParameterError``.
    """
    if not isinstance(eta, numbers.Real) or (
            isinstance(eta, numbers.Integral) and abs(eta) > sys.float_info.max):
        raise ParameterError(f"span must be a real number, got {eta!r}")
    (_, sections), = _segments(blade, np.array([float(eta)]))
    return LandmarkMatrix(sections[0])


def _segments(blade: BladeDefinition, etas: np.ndarray):
    """Per blade segment holding some of the spans ``etas``, their positions
    and their sections' ``(m, n, 2)`` landmarks: one logarithm, one stacked
    exponential along ``s * log`` and the affine profiles at each span. The
    interpolated factors are checked by
    :func:`~grassfoil.geometry.check_affines` before any section is made."""
    knots = blade.etas
    idx = _locate_segments(knots, etas)
    s = (etas - knots[idx]) / (knots[idx + 1] - knots[idx])
    affine = blade.profiles.at(etas, idx)
    linear, translation = affine[:, :4].reshape(-1, 2, 2), affine[:, 4:]
    check_affines(linear, translation)
    for i in np.unique(idx).tolist():
        rows = np.flatnonzero(idx == i)
        p = blade.frames[i]
        log = log_map_stack(p, blade.frames[i + 1][None])[0]
        yield rows, (exp_map_stack(p, s[rows, None, None] * log)
                     @ linear[rows] + translation[rows, None])


def perturb_blade(blade: BladeDefinition, model: PgaModel, t: np.ndarray,
                  consistency_tol: float = 1e-9) -> BladeDefinition:
    """Deform every station along one transported tangent direction.

    The coordinate vector t picks a tangent at the model mean; parallel
    transport carries it along the geodesic to each station, where it is
    re-expressed in that station's rotation gauge and exponentiated. Being
    an isometry, transport preserves the coordinates against the
    transported basis; that is checked per station and per direction.
    Affine factors and profiles are untouched: only subspaces move, and
    each section is its new frame under the station's affine factor. Of
    several faulty stations, the first raises its own error.
    """
    if not (isinstance(consistency_tol, numbers.Real)
            and np.isfinite(consistency_tol) and consistency_tol >= 0.0):
        raise ParameterError("consistency tolerance must be finite and >= 0, "
                             f"got {consistency_tol}")
    t = model.checked_coords(t)
    if model.n != blade.n:
        raise DimensionError(
            f"model landmarks ({model.n}) do not match blade ({blade.n})")
    if not np.any(t):
        return blade
    mats = np.concatenate([model.direction(t)[None], model.basis])
    reps = blade.frames
    frames = np.empty(reps.shape)

    def run(rows: range):
        at = slice(rows.start, rows.stop)
        try:
            directions = log_map_stack(model.mean, reps[at])
        except CutLocusError as err:
            k = rows[err.shape_index]
            err.args = (f"station {k} is at the cut locus of the model mean: "
                        f"{err}",)
            raise
        ends, moved = transport_stack(model.mean, directions, mats)
        with np.errstate(over="ignore", invalid="ignore"):  # drifts past any tol
            coords = np.sum(moved[:, :1] * moved[:, 1:], axis=(2, 3))
            drift = np.abs(coords - t).max(axis=1)
        k = int(drift.argmax())
        if not drift[k] <= consistency_tol:
            raise ConsistencyError(
                f"transported coordinates at station {rows[k]} drifted by "
                f"{drift[k]:.3e} (tolerance {consistency_tol:.1e})")
        gauge = ends.swapaxes(1, 2) @ reps[at]
        frames[at] = exp_map_stack(reps[at], moved[:, 0] @ gauge)
    in_order(run, len(reps), len(reps))
    return BladeDefinition(
        blade.etas, frames @ blade.linear + blade.translation[:, None], frames,
        blade.linear, blade.translation)


def export_wireframe(blade: BladeDefinition, spans: int,
                     samples_per_section: int | None = None) -> np.ndarray:
    """Interpolated sections on a uniform span grid, stacked as (spans, n, 3).

    The third coordinate is the span position itself, giving a plottable
    wireframe. ``samples_per_section`` thins each section to an evenly
    spaced landmark subset.
    """
    spans = integer_argument(spans, "spans")
    if spans < 2:
        raise ParameterError(f"a wireframe needs at least 2 spans, got {spans}")
    n = blade.n
    if samples_per_section is None:
        take = np.arange(n)
    else:
        samples_per_section = integer_argument(samples_per_section,
                                               "samples per section")
        if not (3 <= samples_per_section <= n):
            raise ParameterError(
                f"samples per section must be in [3, {n}], got {samples_per_section}")
        take = np.round(np.linspace(0.0, n - 1, samples_per_section)).astype(int)
    etas = blade.etas
    grid_etas = np.linspace(etas[0], etas[-1], spans)
    grid = np.empty((spans, len(take), 3))
    for rows, sections in _segments(blade, grid_etas):
        grid[rows, :, :2] = sections[:, take]
    grid[:, :, 2] = grid_etas[:, None]
    return grid


def design_parameter_count(blade: BladeDefinition, model: PgaModel) -> int:
    """Independent design parameters: model coordinates plus varying profiles."""
    return model.r + blade.profiles.varying_count()
