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

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    BladeDefinitionError,
    ConsistencyError,
    CutLocusError,
    DimensionError,
    ParameterError,
    SpanRangeError,
    in_order,
)
from .geometry import AffineMap, LandmarkMatrix
from .grassmann import (
    Geodesic,
    GrassmannPoint,
    TangentVector,
    exp_map,
    inner,
    log_map,
    log_map_stack,
    procrustes_rotation,
    reconstruct_with,
    standardize_stack,
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


@dataclass(frozen=True, eq=False)
class BladeStation:
    """One cross-section: span position, landmarks, and its affine factor.

    The affine factor is expressed against the clustered representative,
    so section = aligned_rep @ linear + translation per row holds exactly.
    """

    eta: float
    section: LandmarkMatrix
    affine: AffineMap


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
        # partial sum that affine_at forms.
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

    def affine_at(self, eta: float, segment: int | None = None) -> AffineMap:
        """The profiles at span ``eta``; a caller that has located eta's
        segment (as ``_locate_segment`` does) passes it on."""
        eta = float(eta)
        idx = _locate_segment(self.etas, eta) if segment is None else segment
        s = eta - self.etas[idx]
        c = self._coeffs[:, idx]
        # Lowest power first, starting from 0.0: the order fixes the last
        # bit and the sign of zero.
        return AffineMap.from_vector(
            0.0 + c[3] + c[2] * s + c[1] * (s * s) + c[0] * ((s * s) * s))

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
    """Ordered stations and their clustered representatives.

    The affine profiles are derived from the stations' affine factors when
    the blade is made, so they always agree with the stations.
    """

    stations: tuple[BladeStation, ...]
    aligned: tuple[GrassmannPoint, ...]
    profiles: AffineProfiles = field(init=False, repr=False)

    def __post_init__(self):
        stations = tuple(self.stations)
        aligned = tuple(self.aligned)
        profiles = AffineProfiles([s.eta for s in stations],
                                  [s.affine.as_vector() for s in stations])
        if len(aligned) != len(stations):
            raise BladeDefinitionError(
                "one aligned representative per station required")
        n = stations[0].section.n
        for s, a in zip(stations, aligned):
            if s.section.n != n or a.n != n:
                raise DimensionError("all stations must share one landmark count")
        object.__setattr__(self, "stations", stations)
        object.__setattr__(self, "aligned", aligned)
        object.__setattr__(self, "profiles", profiles)

    @property
    def etas(self) -> np.ndarray:
        """Read-only station spans, the knots of the profiles."""
        return self.profiles.etas

    @property
    def n(self) -> int:
        return self.stations[0].section.n

    @property
    def n_stations(self) -> int:
        return len(self.stations)


def procrustes_cluster(points: Sequence[GrassmannPoint]) -> list[GrassmannPoint]:
    """Rotate each representative onto its already-aligned neighbor.

    Every station keeps its subspace; only the in-plane rotation gauge
    changes, which is what makes adjacent geodesic segments meet without
    spurious twisting. The last station is fixed and the walk goes down
    from tip to hub.
    """
    if len(points) < 2:
        raise ParameterError("clustering needs at least 2 points")
    aligned = list(points)
    for k in range(len(points) - 2, -1, -1):
        rot = procrustes_rotation(aligned[k + 1], aligned[k])
        aligned[k] = GrassmannPoint(aligned[k].rep @ rot)
    return aligned


def build_blade(etas: Sequence[float], sections: Sequence) -> BladeDefinition:
    """Standardize, cluster, and spline a sequence of sections into a blade.

    The affine factor stored per station is re-expressed against the
    clustered representative (the clustering rotation is folded into the
    matrix part), so reconstruction from stored pieces is exact.
    """
    if len(etas) != len(sections):
        raise BladeDefinitionError(
            f"{len(etas)} span positions for {len(sections)} sections")
    if len(sections) < 2:
        raise BladeDefinitionError("a blade needs at least 2 stations")
    shapes = [s if isinstance(s, LandmarkMatrix) else LandmarkMatrix(s)
              for s in sections]
    if len({s.n for s in shapes}) > 1:
        raise DimensionError("all stations must share one landmark count")
    frames, _, offsets = standardize_stack(np.array([s.points for s in shapes]))
    aligned = procrustes_cluster([GrassmannPoint(f) for f in frames])
    stations = []
    for eta, shape, offset, rep in zip(etas, shapes, offsets, aligned):
        linear = rep.rep.T @ (shape.points - offset)
        stations.append(BladeStation(float(eta), shape, AffineMap(linear, offset)))
    return BladeDefinition(tuple(stations), tuple(aligned))


def _locate_segment(etas: np.ndarray, eta: float) -> int:
    """Index i of the segment etas[i] <= eta < etas[i + 1], the last closed."""
    if not np.isfinite(eta) or eta < etas[0] or eta > etas[-1]:
        raise SpanRangeError(
            f"span {eta!r} outside [{etas[0]:g}, {etas[-1]:g}]; "
            "extrapolation is not supported")
    idx = int(np.searchsorted(etas, eta, side="right")) - 1
    return min(idx, len(etas) - 2)


def interpolate_section(blade: BladeDefinition, eta: float) -> LandmarkMatrix:
    """Physical cross-section at any span inside the blade.

    Piecewise geodesic between the bracketing aligned representatives with
    a segment-local parameter linear in eta, rendered through the affine
    profiles. At a knot this reproduces the stored section.
    """
    return _section_at(blade, float(eta), {})


def _section_at(blade: BladeDefinition, eta: float,
                logs: dict[int, TangentVector]) -> LandmarkMatrix:
    """:func:`interpolate_section`, reusing the segment logarithms kept in
    ``logs`` and adding the one it computes."""
    etas = blade.etas
    idx = _locate_segment(etas, eta)
    s = (eta - etas[idx]) / (etas[idx + 1] - etas[idx])
    p = blade.aligned[idx]
    if idx not in logs:
        logs[idx] = log_map(p, blade.aligned[idx + 1])
    point = exp_map(p, TangentVector(s * logs[idx].mat, p))
    return reconstruct_with(point, blade.profiles.affine_at(eta, idx))


def perturb_blade(blade: BladeDefinition, model: PgaModel, t: np.ndarray,
                  consistency_tol: float = 1e-9) -> BladeDefinition:
    """Deform every station along one transported tangent direction.

    The coordinate vector t picks a tangent at the model mean; parallel
    transport carries it along the geodesic to each station, where it is
    re-expressed in that station's rotation gauge and exponentiated. Being
    an isometry, transport preserves the coordinates against the
    transported basis; that is checked per station and per direction.
    Affine factors and profiles are untouched: only subspaces move. Of
    several faulty stations, the first raises its own error.
    """
    if not (np.isfinite(consistency_tol) and consistency_tol >= 0.0):
        raise ParameterError("consistency tolerance must be finite and >= 0, "
                             f"got {consistency_tol}")
    t = model.checked_coords(t)
    if model.n != blade.n:
        raise DimensionError(
            f"model landmarks ({model.n}) do not match blade ({blade.n})")
    if not np.any(t):
        return blade
    basis_mats = [b.mat for b in model.basis]
    v = model.direction(t)
    reps = np.array([rep.rep for rep in blade.aligned])
    new_stations = [None] * len(reps)
    new_aligned = [None] * len(reps)

    def run(rows: range):
        try:
            directions = log_map_stack(model.mean.rep,
                                       reps[rows.start:rows.stop])
        except CutLocusError as err:
            k = rows[err.shape_index]
            raise CutLocusError(
                f"station {k} is at the cut locus of the model mean",
                max_angle=err.max_angle, station_index=k) from err
        for k, log in zip(rows, directions):
            station, rep = blade.stations[k], blade.aligned[k]
            direction = TangentVector(log, model.mean)
            tau_v, *tau_basis = Geodesic(model.mean, direction).transport(
                [v] + basis_mats, 1.0)
            coords = np.array([inner(tau_v, tb) for tb in tau_basis])
            drift = np.max(np.abs(coords - t))
            if drift > consistency_tol:
                raise ConsistencyError(
                    f"transported coordinates at station {k} drifted by "
                    f"{drift:.3e} (tolerance {consistency_tol:.1e})")
            gauge = tau_v.base.rep.T @ rep.rep
            delta = TangentVector(tau_v.mat @ gauge, rep)
            new_aligned[k] = exp_map(rep, delta)
            new_stations[k] = BladeStation(
                station.eta, reconstruct_with(new_aligned[k], station.affine),
                station.affine)
    in_order(run, len(reps), len(reps))
    return BladeDefinition(tuple(new_stations), tuple(new_aligned))


def export_wireframe(blade: BladeDefinition, spans: int,
                     samples_per_section: int | None = None) -> np.ndarray:
    """Interpolated sections on a uniform span grid, stacked as (spans, n, 3).

    The third coordinate is the span position itself, giving a plottable
    wireframe. ``samples_per_section`` thins each section to an evenly
    spaced landmark subset.
    """
    if spans < 2:
        raise ParameterError(f"a wireframe needs at least 2 spans, got {spans}")
    n = blade.n
    if samples_per_section is None:
        take = np.arange(n)
    else:
        if not (3 <= samples_per_section <= n):
            raise ParameterError(
                f"samples per section must be in [3, {n}], got {samples_per_section}")
        take = np.round(np.linspace(0.0, n - 1, samples_per_section)).astype(int)
    etas = blade.etas
    grid_etas = np.linspace(etas[0], etas[-1], spans)
    grid = np.empty((spans, len(take), 3))
    logs = {}  # one logarithm per blade segment, shared by its sections
    for i, eta in enumerate(grid_etas):
        section = _section_at(blade, float(eta), logs)
        grid[i, :, :2] = section.points[take]
        grid[i, :, 2] = eta
    return grid


def design_parameter_count(blade: BladeDefinition, model: PgaModel) -> int:
    """Independent design parameters: model coordinates plus varying profiles."""
    return model.r + blade.profiles.varying_count()
