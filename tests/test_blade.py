"""Tests for blade construction, interpolation, and consistent perturbation."""

import warnings

import numpy as np
import pytest

from grassfoil import blade as blade_module
from grassfoil import grassmann
from grassfoil.blade import (AffineProfiles, BladeDefinition, BladeStation,
                             build_blade, design_parameter_count,
                             export_wireframe, interpolate_section,
                             perturb_blade, procrustes_cluster)
from grassfoil.errors import (BladeDefinitionError, ConsistencyError,
                              CutLocusError, ParameterError, SpanRangeError)
from grassfoil.geometry import (AFFINE_COMPONENT_NAMES, AffineMap,
                                LandmarkMatrix, affine_apply, affine_subgroup,
                                compose_affine, cst_evaluate,
                                default_baselines, perturb_cst, validate_shape)
from grassfoil.grassmann import (GrassmannPoint, distance, exp_map,
                                 la_standardize)
from grassfoil.pga import karcher_mean, logs_at, pga_fit, synthesize

from conftest import random_horizontal, random_point, stack

ETAS = (0.0, 0.25, 0.5, 0.75, 1.0)


def make_sections(n=101, twist=True):
    sections = []
    for k, eta in enumerate(ETAS):
        params = perturb_cst(default_baselines()[4], 0.10, seed=100 + k)
        shape = cst_evaluate(params, n)
        aff = affine_subgroup("chord", 0.95 - 0.45 * eta)
        if twist:
            aff = compose_affine(aff, affine_subgroup("twist",
                                                      0.05 + 0.20 * eta))
        sections.append(affine_apply(shape, aff))
    return sections


@pytest.fixture(scope="module")
def blade():
    return build_blade(ETAS, make_sections())


@pytest.fixture(scope="module")
def blade_model(blade):
    points = list(blade.aligned)
    result = karcher_mean(stack(points), tol=1e-12)
    return pga_fit(result.point, result.logs, 4)


# ---------------------------------------------------------------------------
# construction and clustering


def test_blade_reproduces_knots(blade):
    for eta, station in zip(ETAS, blade.stations):
        got = interpolate_section(blade, eta)
        ref = np.linalg.norm(station.section.points)
        gap = np.linalg.norm(got.points - station.section.points)
        assert gap / ref < 1e-8


def test_cluster_preserves_subspaces():
    sections = make_sections()
    points = [la_standardize(s).point for s in sections]
    aligned = procrustes_cluster(points)
    for before, after in zip(points, aligned):
        assert distance(before, after) < 1e-12


def test_cluster_fixes_planted_rotations():
    rng = np.random.default_rng(0)
    base = random_point(rng, 40)
    chain = [base]
    for _ in range(4):
        step = random_horizontal(rng, chain[-1], scale=0.05)
        chain.append(exp_map(chain[-1], step))
    phis = rng.uniform(-3.0, 3.0, size=len(chain))
    twisted = []
    for point, phi in zip(chain, phis):
        c, s = np.cos(phi), np.sin(phi)
        twisted.append(GrassmannPoint(point.rep @ np.array([[c, -s], [s, c]])))
    aligned = procrustes_cluster(twisted)
    # once aligned, adjacent representatives are nearly Procrustes-identical
    for a, b in zip(aligned, aligned[1:]):
        gram = a.rep.T @ b.rep
        assert np.max(np.abs(gram - gram.T)) < 1e-12


def test_cluster_of_identical_points_is_near_identity():
    rng = np.random.default_rng(1)
    p = random_point(rng, 30)
    aligned = procrustes_cluster([p, p, p])
    for a in aligned:
        assert np.max(np.abs(a.rep - p.rep)) < 1e-12


def test_blade_validation():
    sections = make_sections()
    with pytest.raises(BladeDefinitionError):
        build_blade([0.0], sections[:1])
    with pytest.raises(BladeDefinitionError):
        build_blade([0.0, 0.5, 0.5, 0.75, 1.0], sections)
    mixed = sections[:4] + [cst_evaluate(default_baselines()[0], 51)]
    with pytest.raises(Exception):
        build_blade(ETAS, mixed)


def test_blade_station_affines_reproduce_sections(blade):
    for station, rep in zip(blade.stations, blade.aligned):
        rebuilt = rep.rep @ station.affine.linear + station.affine.translation
        ref = np.linalg.norm(station.section.points)
        assert np.linalg.norm(rebuilt - station.section.points) / ref < 1e-12


# ---------------------------------------------------------------------------
# interpolation


def test_dense_span_scan_valid(blade):
    for eta in np.linspace(0.0, 1.0, 60):
        shape = interpolate_section(blade, float(eta))
        diag = validate_shape(shape)
        assert diag.rank_ok and diag.simple, f"invalid section at eta={eta}"


def test_interior_knot_continuity(blade):
    h = 1e-12
    for eta in ETAS[1:-1]:
        left = interpolate_section(blade, eta - h).points
        right = interpolate_section(blade, eta + h).points
        assert np.max(np.abs(left - right)) < 1e-10


def test_out_of_range_span_rejected(blade):
    for bad in (-0.1, 1.1, np.nan):
        with pytest.raises(SpanRangeError):
            interpolate_section(blade, bad)


def test_constant_blade_never_drifts():
    section = cst_evaluate(default_baselines()[3], 101)
    blade = build_blade([0.0, 0.5, 1.0], [section, section, section])
    for eta in (0.1, 0.37, 0.88):
        got = interpolate_section(blade, eta)
        assert np.max(np.abs(got.points - section.points)) < 1e-12
    assert blade.profiles.varying_count() == 0


def test_two_station_blade_uses_linear_profiles():
    # identical shape, different affines: the subspace geodesic is constant
    # and the midway section is that subspace under the midpoint affine
    shape = cst_evaluate(default_baselines()[2], 101)
    a0 = affine_subgroup("chord", 0.9)
    a1 = affine_subgroup("chord", 0.5)
    blade = build_blade([0.0, 1.0],
                        [affine_apply(shape, a0), affine_apply(shape, a1)])
    mid = interpolate_section(blade, 0.5)
    vals = blade.profiles.values
    mid_components = 0.5 * (vals[0] + vals[1])
    rep = blade.aligned[0].rep
    expected = rep @ mid_components[:4].reshape(2, 2) + mid_components[4:]
    assert np.max(np.abs(mid.points - expected)) < 1e-12
    assert distance(blade.aligned[0], blade.aligned[1]) < 1e-10


def test_profiles_reject_unsorted_etas():
    sections = make_sections()
    stations = [
        BladeStation(eta, s, la_standardize(s).affine)
        for eta, s in zip((0.0, 0.5, 0.25, 0.75, 1.0), sections)
    ]
    with pytest.raises(BladeDefinitionError):
        AffineProfiles([s.eta for s in stations],
                       [s.affine.as_vector() for s in stations])


@pytest.mark.parametrize("etas, pair", [
    ((0.0, 0.5, 1e120), "stations 1 and 2 (eta 0.5 and 1e+120)"),
    ((0.0, 1e-170, 1.0), "stations 0 and 1 (eta 0.0 and 1e-170)")],
    ids=["far-apart", "too-close"])
def test_spans_whose_profile_overflows_are_rejected(etas, pair):
    sections = make_sections()[:3]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BladeDefinitionError) as err:
            build_blade(etas, sections)
    assert pair in str(err.value)


def test_blade_etas_are_the_profile_knots(blade):
    assert blade.etas is blade.profiles.etas
    assert not blade.etas.flags.writeable
    assert blade.etas.tolist() == list(ETAS)


def test_profiles_derive_from_the_stations(blade):
    expected = AffineProfiles(blade.etas,
                              [s.affine.as_vector() for s in blade.stations])
    assert blade.profiles.etas.tobytes() == expected.etas.tobytes()
    assert blade.profiles.values.tobytes() == expected.values.tobytes()
    for eta in (0.0, 0.13, 0.5, 0.81, 1.0):
        got, want = blade.profiles.affine_at(eta), expected.affine_at(eta)
        assert got.as_vector().tobytes() == want.as_vector().tobytes()


def _profile_knots(rng, etas):
    """Knot values that keep the 2x2 part invertible along the whole span.

    PCHIP stays inside each segment's range, so diagonals in [1.7, 2.3] and
    off-diagonals in [-0.4, 0.4] bound the determinant away from zero. The
    b0 column falls ever faster through a -0.0 knot, where the sign of the
    zero the sum lands on depends on the order of its terms.
    """
    k = len(etas)
    vals = rng.normal(size=(k, 6))
    vals[:, [0, 3]] = 2.0 + 0.3 * np.tanh(vals[:, [0, 3]])
    vals[:, 1] = 0.4 * np.tanh(vals[:, 1])
    vals[:k // 2 + 1, 1] = vals[0, 1]                        # flat run
    vals[:, 2] = rng.choice([-0.3, 0.3, 0.0], size=k)        # sign changes
    vals[:, 5] = np.where(np.arange(k) % 2 == 0, 1.0, -1.0)  # alternating
    vals[:, 4] = 1.0 - np.exp(2.0 * (etas - etas[k // 2]))
    vals[k // 2, 4] = -0.0
    return vals


@pytest.mark.parametrize("k", [2, 3, 9])
def test_profiles_match_reference_pchip_bitwise(k):
    interpolate = pytest.importorskip("scipy.interpolate")
    rng = np.random.default_rng(40 + k)
    for trial in range(20):
        etas = np.sort(rng.uniform(-0.5, 1.5, k))
        if trial % 2:
            etas = np.linspace(0.0, 1.0, k)
        vals = _profile_knots(rng, etas)
        profiles = AffineProfiles(etas, vals)
        ref = interpolate.PchipInterpolator(etas, vals, axis=0)
        inner = rng.uniform(etas[0], etas[-1], 25)
        mids = 0.5 * (etas[1:] + etas[:-1])
        for eta in np.concatenate([etas, inner, mids]):
            affine = profiles.affine_at(eta)
            got = np.concatenate([affine.linear.ravel(), affine.translation])
            want = ref(eta)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_profiles_refuse_to_extrapolate():
    etas = np.array([0.0, 0.5, 1.0])
    profiles = AffineProfiles(etas, _profile_knots(np.random.default_rng(3),
                                                   etas))
    for bad in (-1e-9, 1.0 + 1e-9, np.nan, np.inf):
        with pytest.raises(SpanRangeError):
            profiles.affine_at(bad)


# ---------------------------------------------------------------------------
# wireframe export


def test_wireframe_shape_and_span_column(blade):
    grid = export_wireframe(blade, 7)
    assert grid.shape == (7, 101, 3)
    np.testing.assert_allclose(grid[:, 0, 2], np.linspace(0.0, 1.0, 7),
                               atol=1e-15)
    assert np.all(grid[:, :, 2] == grid[:, :1, 2])


def test_wireframe_at_knot_count_reproduces_stations(blade):
    grid = export_wireframe(blade, 5)
    for k, station in enumerate(blade.stations):
        ref = np.linalg.norm(station.section.points)
        gap = np.linalg.norm(grid[k, :, :2] - station.section.points)
        assert gap / ref < 1e-8


def test_wireframe_thinning(blade):
    grid = export_wireframe(blade, 4, samples_per_section=25)
    assert grid.shape == (4, 25, 3)
    with pytest.raises(ParameterError):
        export_wireframe(blade, 4, samples_per_section=2)
    with pytest.raises(ParameterError):
        export_wireframe(blade, 4, samples_per_section=500)
    with pytest.raises(ParameterError):
        export_wireframe(blade, 1)


# ---------------------------------------------------------------------------
# perturbation


def test_perturb_zero_is_identity(blade, blade_model):
    out = perturb_blade(blade, blade_model, np.zeros(4))
    assert out is blade


def test_perturb_moves_all_stations_equally(blade, blade_model):
    t = np.array([0.02, -0.01, 0.004, 0.0])
    out = perturb_blade(blade, blade_model, t)
    norms = [
        distance(a, b) for a, b in zip(blade.aligned, out.aligned)
    ]
    assert np.max(norms) - np.min(norms) < 1e-10
    assert norms[0] == pytest.approx(float(np.linalg.norm(t)), abs=1e-9)
    assert out.profiles.values.tobytes() == blade.profiles.values.tobytes()


def test_perturbed_knots_stay_valid(blade, blade_model):
    out = perturb_blade(blade, blade_model, np.array([0.02, -0.01, 0.004, 0.0]))
    for station in out.stations:
        diag = validate_shape(station.section)
        assert diag.rank_ok and diag.simple


def test_perturbed_blade_still_continuous(blade, blade_model):
    out = perturb_blade(blade, blade_model, np.array([0.01, 0.005, 0.0, 0.0]))
    h = 1e-12
    for eta in ETAS[1:-1]:
        left = interpolate_section(out, eta - h).points
        right = interpolate_section(out, eta + h).points
        assert np.max(np.abs(left - right)) < 1e-10


def test_perturbation_independent_of_cluster_gauge(blade, blade_model):
    # a second gauge by hand: turn every representative by its own rotation
    # and fold the inverse rotation into that station's affine factor
    stations = []
    aligned = []
    for phi, station, rep in zip((0.3, -1.1, 2.0, 0.0, -2.7), blade.stations,
                                 blade.aligned):
        c, s = np.cos(phi), np.sin(phi)
        rot = np.array([[c, -s], [s, c]])
        affine = AffineMap(rot.T @ station.affine.linear,
                           station.affine.translation)
        stations.append(BladeStation(station.eta, station.section, affine))
        aligned.append(GrassmannPoint(rep.rep @ rot))
    regauged = BladeDefinition(tuple(stations), tuple(aligned))
    t = np.array([0.015, -0.007, 0.002, 0.0])
    out_f = perturb_blade(blade, blade_model, t)
    out_r = perturb_blade(regauged, blade_model, t)
    for a, b in zip(out_f.aligned, out_r.aligned):
        assert distance(a, b) < 1e-10
    # and the rendered sections agree because the affines re-gauge too
    for sa, sb in zip(out_f.stations, out_r.stations):
        assert np.max(np.abs(sa.section.points - sb.section.points)) < 1e-9


def test_perturbing_mean_blade_matches_synthesize(blade_model):
    # stations parked at the model mean under rotated gauges: perturbation
    # must land every station on synthesize(model, t)
    mean = blade_model.mean
    reps = []
    for phi in (0.0, 0.8, -1.3):
        c, s = np.cos(phi), np.sin(phi)
        reps.append(GrassmannPoint(mean.rep @ np.array([[c, -s], [s, c]])))
    stations = []
    for k, rep in enumerate(reps):
        pts = rep.rep @ np.diag([2.0, 0.5]) + np.array([0.5, 0.0])
        stations.append(BladeStation(
            float(k) / 2.0, LandmarkMatrix(pts),
            AffineMap(np.diag([2.0, 0.5]), np.array([0.5, 0.0]))))
    b = BladeDefinition(tuple(stations), tuple(reps))
    t = np.array([0.02, -0.01, 0.003, 0.001])
    out = perturb_blade(b, blade_model, t)
    target = synthesize(blade_model, t)
    for rep in out.aligned:
        assert distance(rep, target) < 1e-8


def test_perturb_consistency_tolerance_enforced(blade, blade_model):
    with pytest.raises(ConsistencyError):
        perturb_blade(blade, blade_model, np.array([0.02, -0.01, 0.004, 0.0]),
                      consistency_tol=1e-18)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
def test_perturb_rejects_unusable_tolerance(blade, blade_model, tol):
    with pytest.raises(ParameterError, match="consistency tolerance"):
        perturb_blade(blade, blade_model, np.array([0.02, -0.01, 0.004, 0.0]),
                      consistency_tol=tol)


def test_perturb_reports_cut_locus_station():
    def plane(i, j):
        rep = np.zeros((6, 2))
        rep[i, 0] = 1.0
        rep[j, 1] = 1.0
        return GrassmannPoint(rep)

    mean = plane(0, 1)
    rng = np.random.default_rng(2)
    samples = [
        exp_map(mean, random_horizontal(rng, mean, scale=0.05))
        for _ in range(6)
    ]
    model = pga_fit(mean, logs_at(mean, stack(samples)), 1)

    good = exp_map(mean, random_horizontal(rng, mean, scale=0.1))
    bad = plane(2, 3)  # orthogonal to the mean plane
    stations = []
    for k, rep in enumerate((good, bad)):
        pts = rep.rep @ np.eye(2) + np.array([3.0, 0.0])
        stations.append(BladeStation(
            float(k), LandmarkMatrix(pts),
            AffineMap(np.eye(2), np.array([3.0, 0.0]))))
    blade = BladeDefinition(tuple(stations), (good, bad))
    with pytest.raises(CutLocusError) as err:
        perturb_blade(blade, model, np.array([0.01]))
    assert err.value.station_index == 1


def test_perturb_reports_an_earlier_station_before_a_cut_locus(monkeypatch):
    mean = GrassmannPoint(np.eye(6)[:, :2])
    rng = np.random.default_rng(2)
    samples = [exp_map(mean, random_horizontal(rng, mean, scale=0.05))
               for _ in range(6)]
    model = pga_fit(mean, logs_at(mean, stack(samples)), 1)
    good = exp_map(mean, random_horizontal(rng, mean, scale=0.1))
    bad = GrassmannPoint(np.eye(6)[:, 2:4])  # orthogonal to the mean plane
    stations = tuple(
        BladeStation(float(k), LandmarkMatrix(rep.rep + [3.0, 0.0]),
                     AffineMap(np.eye(2), np.array([3.0, 0.0])))
        for k, rep in enumerate((good, bad)))
    blade = BladeDefinition(stations, (good, bad))
    # every transported coordinate drifts: station 0 fails its check
    monkeypatch.setattr(blade_module, "inner",
                        lambda u, v: grassmann.inner(u, v) + 1.0)
    with pytest.raises(ConsistencyError, match="at station 0 drifted"):
        perturb_blade(blade, model, np.array([0.01]))


def test_design_parameter_count(blade, blade_model):
    assert design_parameter_count(blade, blade_model) == 4 + 6
    section = cst_evaluate(default_baselines()[3], 101)
    frozen = build_blade([0.0, 1.0], [section, section])
    points = list(frozen.aligned)
    result = karcher_mean(stack(points))
    model = pga_fit(result.point, result.logs, 2)
    assert design_parameter_count(frozen, model) == 2


def test_affine_component_names_order():
    assert AFFINE_COMPONENT_NAMES == ("m00", "m01", "m10", "m11", "b0", "b1")
    affine = AffineMap(np.array([[1.0, 2.0], [3.0, 4.0]]),
                       np.array([5.0, 6.0]))
    assert affine.as_vector().tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
