"""Tests for blade construction, interpolation, and consistent perturbation."""

import warnings

import numpy as np
import pytest

from grassfoil import blade as blade_module
from grassfoil import grassmann
from grassfoil.blade import (AffineProfiles, BladeDefinition, build_blade,
                             design_parameter_count, export_wireframe,
                             interpolate_section, perturb_blade,
                             procrustes_cluster)
from grassfoil.errors import (BladeDefinitionError, ConsistencyError,
                              CutLocusError, DegenerateShapeError,
                              DimensionError, Gl2ViolationError,
                              ParameterError, SpanRangeError)
from grassfoil.geometry import (AFFINE_COMPONENT_NAMES, AffineMap,
                                LandmarkMatrix, affine_apply, affine_subgroup,
                                affine_vectors, compose_affine, cst_evaluate,
                                default_baselines, perturb_cst, validate_shape)
from grassfoil.grassmann import (GrassmannPoint, distance, exp_map,
                                 procrustes_rotation, reconstruct_with,
                                 standardize_stack)
from grassfoil.pga import karcher_mean, logs_at, pga_fit, synthesize

from conftest import landmarks, random_horizontal, random_point, stack

ETAS = (0.0, 0.25, 0.5, 0.75, 1.0)


def make_sections(n=101, twist=True, seed=100):
    """The (5, n, 2) landmark stack of the sections at ETAS; ``n=401,
    seed=300`` gives the acceptance blade's."""
    sections = []
    for k, eta in enumerate(ETAS):
        params = perturb_cst(default_baselines()[4], 0.10, seed=seed + k)
        shape = cst_evaluate(params, n)
        aff = affine_subgroup("chord", 0.95 - 0.45 * eta)
        if twist:
            aff = compose_affine(aff, affine_subgroup("twist",
                                                      0.05 + 0.20 * eta))
        sections.append(affine_apply(shape, aff))
    return landmarks(sections)


@pytest.fixture(scope="module")
def blade():
    return build_blade(ETAS, make_sections())


@pytest.fixture(scope="module")
def blade_model(blade):
    result = karcher_mean(blade.frames, tol=1e-12)
    return pga_fit(result.point, result.logs, 4)


# ---------------------------------------------------------------------------
# construction and clustering


def test_blade_reproduces_knots(blade):
    for eta, section in zip(ETAS, blade.sections):
        got = interpolate_section(blade, eta)
        ref = np.linalg.norm(section)
        gap = np.linalg.norm(got.points - section)
        assert gap / ref < 1e-8


def test_cluster_preserves_subspaces():
    frames = standardize_stack(make_sections())[0]
    aligned = procrustes_cluster(frames)
    for before, after in zip(frames, aligned):
        assert distance(GrassmannPoint(before), GrassmannPoint(after)) < 1e-12


def point_wrapped_cluster(frames):
    """The clustering walk on points: each frame and each rotated frame is
    checked as a GrassmannPoint."""
    aligned = [GrassmannPoint(frames[-1])]
    for frame in frames[-2::-1]:
        rot = procrustes_rotation(aligned[-1], GrassmannPoint(frame))
        aligned.append(GrassmannPoint(frame @ rot))
    return np.array([point.rep for point in aligned[::-1]])


def test_cluster_on_arrays_keeps_the_bits_of_points():
    frames = standardize_stack(make_sections(401, seed=300))[0]
    aligned = procrustes_cluster(frames)
    assert aligned.tobytes() == point_wrapped_cluster(frames).tobytes()
    # A frame whose Gram matrix is off by 0.9e-12 in every entry is clean,
    # but turned by 45 degrees onto its neighbor it strays by 1.8e-12.
    q = random_point(np.random.default_rng(5), 401).rep
    c = np.sqrt(0.5)
    frame = q @ (np.eye(2) + 0.45e-12 * np.ones((2, 2)))
    pair = np.array([frame, q @ np.array([[c, -c], [c, c]])])
    moved = frame @ procrustes_rotation(pair[1], frame)
    assert np.abs(frame.T @ frame - np.eye(2)).max() <= 1e-12
    assert np.abs(moved.T @ moved - np.eye(2)).max() > 1e-12
    aligned = procrustes_cluster(pair)
    assert aligned.tobytes() == point_wrapped_cluster(pair).tobytes()
    assert not np.array_equal(aligned[0], moved)
    assert np.abs(aligned[0].T @ aligned[0] - np.eye(2)).max() < 1e-15
    assert np.abs(aligned[0] - moved).max() < 1e-11


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
    aligned = procrustes_cluster(stack(twisted))
    # once aligned, adjacent representatives are nearly Procrustes-identical
    for a, b in zip(aligned, aligned[1:]):
        gram = a.T @ b
        assert np.max(np.abs(gram - gram.T)) < 1e-12


def test_cluster_of_identical_points_is_near_identity():
    rng = np.random.default_rng(1)
    p = random_point(rng, 30)
    aligned = procrustes_cluster(stack([p, p, p]))
    for a in aligned:
        assert np.max(np.abs(a - p.rep)) < 1e-12


def test_blade_validation():
    sections = make_sections()
    with pytest.raises(BladeDefinitionError):
        build_blade([0.0], sections[:1])
    with pytest.raises(BladeDefinitionError):
        build_blade([0.0, 0.5, 0.5, 0.75, 1.0], sections)
    with pytest.raises(BladeDefinitionError,
                       match="4 span positions for 5 sections"):
        build_blade(ETAS[:4], sections)
    mixed = [*sections[:4], cst_evaluate(default_baselines()[0], 51).points]
    with pytest.raises(DimensionError):
        build_blade(ETAS, mixed)


@pytest.mark.parametrize("etas", [["a", "b"], [0.0, 10**400]],
                         ids=["text", "past-float-range"])
def test_station_spans_that_are_no_numbers_are_refused(etas):
    sections = make_sections()[:2]
    with pytest.raises(BladeDefinitionError, match="station spans must be"):
        build_blade(etas, sections)


@pytest.mark.parametrize("sections", [None, "text"], ids=["none", "text"])
def test_sections_that_are_no_numeric_stack_are_refused(sections):
    if sections == "text":
        sections = make_sections()[:2].astype(str)
    with pytest.raises(DimensionError, match="sections must be a rectangular"):
        build_blade([0.0, 1.0], sections)


def test_blade_station_affines_reproduce_sections(blade):
    rebuilt = blade.frames @ blade.linear + blade.translation[:, None]
    for got, section in zip(rebuilt, blade.sections):
        ref = np.linalg.norm(section)
        assert np.linalg.norm(got - section) / ref < 1e-12


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


def test_a_singular_interpolated_factor_raises_for_its_span():
    # m00 falls linearly from 1 to -1, so the factor is singular midway
    frames = np.array([np.eye(6)[:, :2]] * 2)
    linear = np.array([np.eye(2), np.diag([-1.0, 1.0])])
    b = BladeDefinition([0.0, 1.0], frames @ linear, frames, linear,
                        np.zeros((2, 2)))
    assert interpolate_section(b, 0.25).n == 6
    for make in (lambda: interpolate_section(b, 0.5),
                 lambda: export_wireframe(b, 5)):
        with pytest.raises(Gl2ViolationError, match="rank deficient"):
            make()


@pytest.mark.parametrize("eta", ["x", None, 10**400],
                         ids=["text", "none", "past-float-range"])
def test_query_spans_that_are_no_numbers_are_refused(blade, eta):
    with pytest.raises(ParameterError, match="span must be a real number"):
        interpolate_section(blade, eta)


def test_sections_match_the_one_span_path_bitwise(blade):
    # 13 spans hit every knot, so each segment's stack holds a zero step
    grid = export_wireframe(blade, 13)
    for row in grid:
        eta = float(row[0, 2])
        assert np.array_equal(row[:, :2], interpolate_section(blade, eta).points)


def test_constant_blade_never_drifts():
    section = cst_evaluate(default_baselines()[3], 101)
    blade = build_blade([0.0, 0.5, 1.0], landmarks([section] * 3))
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
    blade = build_blade([0.0, 1.0], landmarks(
        [affine_apply(shape, a0), affine_apply(shape, a1)]))
    mid = interpolate_section(blade, 0.5)
    vals = blade.profiles.values
    mid_components = 0.5 * (vals[0] + vals[1])
    rep = blade.frames[0]
    expected = rep @ mid_components[:4].reshape(2, 2) + mid_components[4:]
    assert np.max(np.abs(mid.points - expected)) < 1e-12
    p, q = (GrassmannPoint(f) for f in blade.frames)
    assert distance(p, q) < 1e-10


def test_profiles_reject_unsorted_etas():
    _, linear, translation = standardize_stack(make_sections())
    with pytest.raises(BladeDefinitionError):
        AffineProfiles((0.0, 0.5, 0.25, 0.75, 1.0),
                       affine_vectors(linear, translation))


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


@pytest.mark.parametrize("etas, values, error, message", [
    ([0.0], np.zeros((1, 6)), BladeDefinitionError, "at least 2 station spans"),
    ([[0.0, 1.0]], np.zeros((2, 6)), BladeDefinitionError,
     "at least 2 station spans"),
    ([0.0, np.nan], np.zeros((2, 6)), BladeDefinitionError,
     "station spans must be finite"),
    ([0.0, 1.0], np.zeros((2, 5)), DimensionError,
     r"expected \(2, 6\) component values, got \(2, 5\)"),
    ([0.0, 1.0], [[0.0] * 6, [np.inf] * 6], BladeDefinitionError,
     "profile knot values must be finite"),
])
def test_profiles_reject_bad_knots(etas, values, error, message):
    with pytest.raises(error, match=message):
        AffineProfiles(etas, values)


def parts(blade):
    """The five arrays a BladeDefinition is made of, as writeable copies."""
    return [getattr(blade, name).copy() for name in
            ("etas", "sections", "frames", "linear", "translation")]


def test_blade_definition_checks_its_stations(blade):
    etas, sections, frames, linear, translation = parts(blade)
    with pytest.raises(BladeDefinitionError,
                       match="one aligned representative per station"):
        BladeDefinition(etas, sections, frames[:-1], linear, translation)
    with pytest.raises(DimensionError, match="share one landmark count"):
        BladeDefinition(etas, sections, frames[:, :51], linear, translation)


# a fault of one station: the index of the array in parts(), the value
# the station gets there, and the error it raises
STATION_FAULTS = {
    "singular": (3, 1e-7 * np.eye(2), Gl2ViolationError, "rank deficient"),
    "frame-nan": (2, np.nan, DimensionError, "non-finite"),
    "flat-frame": (2, 1.0, DegenerateShapeError, "rank deficient"),
    "section-inf": (1, np.inf, ParameterError,
                    "landmark matrix contains non-finite"),
    "huge-section": (1, -1e151, ParameterError,
                     r"landmark coordinates exceed 1e\+150 in magnitude"),
    "huge-translation": (4, 1e151, ParameterError, r"exceeds 1e\+150"),
}


@pytest.mark.parametrize("kind", sorted(STATION_FAULTS))
@pytest.mark.parametrize("station", [0, 2, 4])
def test_blade_definition_names_the_first_faulty_station(blade, kind,
                                                         station):
    part, value, error, message = STATION_FAULTS[kind]
    arrays = parts(blade)
    arrays[part][station] = value
    arrays[3][station + 1:] = 0.0  # every later station is singular too
    with pytest.raises(error, match=message) as err:
        BladeDefinition(*arrays)
    assert err.value.shape_index == station


def test_blade_definition_holds_read_only_copies(blade):
    arrays = parts(blade)
    copy = BladeDefinition(*arrays)
    for name, given in zip(("etas", "sections", "frames", "linear",
                            "translation"), arrays):
        held = getattr(copy, name)
        assert held is not given and not held.flags.writeable
        assert np.array_equal(held, given)
    assert copy.n == blade.n and copy.n_stations == 5


def test_perturb_needs_a_model_of_the_blade_landmark_count(blade):
    coarse = build_blade(ETAS, make_sections(n=51))
    result = karcher_mean(coarse.frames, tol=1e-12)
    model = pga_fit(result.point, result.logs, 2)
    with pytest.raises(DimensionError,
                       match=r"model landmarks \(51\) do not match blade "
                             r"\(101\)"):
        perturb_blade(blade, model, np.array([0.01, 0.0]))


def test_blade_etas_are_the_profile_knots(blade):
    assert blade.etas is blade.profiles.etas
    assert not blade.etas.flags.writeable
    assert blade.etas.tolist() == list(ETAS)


def test_profiles_derive_from_the_stations(blade):
    expected = AffineProfiles(blade.etas,
                              affine_vectors(blade.linear, blade.translation))
    assert blade.profiles.etas.tobytes() == expected.etas.tobytes()
    assert blade.profiles.values.tobytes() == expected.values.tobytes()
    spans = np.array([0.0, 0.13, 0.5, 0.81, 1.0])
    assert blade.profiles.at(spans).tobytes() == expected.at(spans).tobytes()


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
        spans = np.concatenate([etas, inner, mids])
        got = profiles.at(spans)
        for eta, row in zip(spans, got):
            want = ref(eta)
            assert np.array_equal(row, want)
            assert np.array_equal(np.signbit(row), np.signbit(want))


def test_profiles_refuse_to_extrapolate():
    etas = np.array([0.0, 0.5, 1.0])
    profiles = AffineProfiles(etas, _profile_knots(np.random.default_rng(3),
                                                   etas))
    for bad in (-1e-9, 1.0 + 1e-9, np.nan, np.inf):
        with pytest.raises(SpanRangeError, match=f"span {bad!r} outside"):
            profiles.at([0.5, bad, -1.0])


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
    for k, section in enumerate(blade.sections):
        ref = np.linalg.norm(section)
        gap = np.linalg.norm(grid[k, :, :2] - section)
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


@pytest.mark.parametrize("spans, samples, message", [
    (2.5, None, "spans must be an integer, got 2.5"),
    (True, None, "spans must be an integer, got True"),
    (4, 25.0, "samples per section must be an integer, got 25.0"),
    (4, "25", "samples per section must be an integer, got '25'"),
])
def test_wireframe_counts_must_be_integers(blade, spans, samples, message):
    with pytest.raises(ParameterError, match=message):
        export_wireframe(blade, spans, samples)


# ---------------------------------------------------------------------------
# perturbation


def test_perturb_zero_is_identity(blade, blade_model):
    out = perturb_blade(blade, blade_model, np.zeros(4))
    assert out is blade


def test_perturb_moves_all_stations_equally(blade, blade_model):
    t = np.array([0.02, -0.01, 0.004, 0.0])
    out = perturb_blade(blade, blade_model, t)
    norms = [distance(GrassmannPoint(a), GrassmannPoint(b))
             for a, b in zip(blade.frames, out.frames)]
    assert np.max(norms) - np.min(norms) < 1e-10
    assert norms[0] == pytest.approx(float(np.linalg.norm(t)), abs=1e-9)
    assert out.profiles.values.tobytes() == blade.profiles.values.tobytes()


def test_perturbed_knots_stay_valid(blade, blade_model):
    out = perturb_blade(blade, blade_model, np.array([0.02, -0.01, 0.004, 0.0]))
    for section in out.sections:
        diag = validate_shape(LandmarkMatrix(section))
        assert diag.rank_ok and diag.simple


def test_perturbed_sections_match_the_one_station_reconstruction(blade,
                                                                 blade_model):
    out = perturb_blade(blade, blade_model, np.array([0.02, -0.01, 0.004, 0.0]))
    for k in range(out.n_stations):
        one = reconstruct_with(out.frames[k],
                               AffineMap(out.linear[k], out.translation[k]))
        assert np.array_equal(out.sections[k], one.points)


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
    phi = np.array([0.3, -1.1, 2.0, 0.0, -2.7])
    c, s = np.cos(phi), np.sin(phi)
    rot = np.stack([np.stack([c, -s], axis=1), np.stack([s, c], axis=1)],
                   axis=1)
    regauged = BladeDefinition(blade.etas, blade.sections, blade.frames @ rot,
                               rot.swapaxes(1, 2) @ blade.linear,
                               blade.translation)
    t = np.array([0.015, -0.007, 0.002, 0.0])
    out_f = perturb_blade(blade, blade_model, t)
    out_r = perturb_blade(regauged, blade_model, t)
    for a, b in zip(out_f.frames, out_r.frames):
        assert distance(GrassmannPoint(a), GrassmannPoint(b)) < 1e-10
    # and the rendered sections agree because the affines re-gauge too
    assert np.max(np.abs(out_f.sections - out_r.sections)) < 1e-9


def test_perturbing_mean_blade_matches_synthesize(blade_model):
    # stations parked at the model mean under rotated gauges: perturbation
    # must land every station on synthesize(model, t)
    mean = blade_model.mean
    reps = stack(
        GrassmannPoint(mean @ np.array([[np.cos(phi), -np.sin(phi)],
                                        [np.sin(phi), np.cos(phi)]]))
        for phi in (0.0, 0.8, -1.3))
    linear, translation = np.diag([2.0, 0.5]), np.array([0.5, 0.0])
    b = BladeDefinition([0.0, 0.5, 1.0], reps @ linear + translation, reps,
                        [linear] * 3, [translation] * 3)
    t = np.array([0.02, -0.01, 0.003, 0.001])
    out = perturb_blade(b, blade_model, t)
    target = GrassmannPoint(synthesize(blade_model, t))
    for rep in out.frames:
        assert distance(GrassmannPoint(rep), target) < 1e-8


def test_perturb_consistency_tolerance_enforced(blade, blade_model):
    with pytest.raises(ConsistencyError):
        perturb_blade(blade, blade_model, np.array([0.02, -0.01, 0.004, 0.0]),
                      consistency_tol=1e-18)


def test_perturb_past_the_float_range_drifts_without_a_warning():
    # the transported coordinates' sum overflows; pytest turns the warning
    # into an error
    points = landmarks(cst_evaluate(p, 11) for p in default_baselines()[:4])
    frames = standardize_stack(points)[0]
    model = pga_fit(frames[0], logs_at(frames[0], frames), 2)
    blade = build_blade([0.0, 0.4, 1.0], points[:3])
    with pytest.raises(ConsistencyError, match="drifted by inf"):
        perturb_blade(blade, model, [1.7976931348623157e308, 0.0])


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9, "x",
                                 None])
def test_perturb_rejects_unusable_tolerance(blade, blade_model, tol):
    with pytest.raises(ParameterError, match="consistency tolerance"):
        perturb_blade(blade, blade_model, np.array([0.02, -0.01, 0.004, 0.0]),
                      consistency_tol=tol)


def shifted_blade(frames):
    """Stations at spans 0, 1, ... whose sections are their frames moved
    by (3, 0)."""
    count = len(frames)
    return BladeDefinition(np.arange(count, dtype=float), frames + [3.0, 0.0],
                           frames, [np.eye(2)] * count, [[3.0, 0.0]] * count)


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
    model = pga_fit(mean.rep, logs_at(mean.rep, stack(samples)), 1)

    good = exp_map(mean, random_horizontal(rng, mean, scale=0.1))
    bad = plane(2, 3)  # orthogonal to the mean plane
    blade = shifted_blade(stack([good, bad]))
    with pytest.raises(CutLocusError) as err:
        perturb_blade(blade, model, np.array([0.01]))
    assert str(err.value).startswith(
        "station 1 is at the cut locus of the model mean: ")
    assert err.value.max_angle is not None
    assert err.value.shape_index == 1  # the outer stack: stations


def test_perturb_reports_an_earlier_station_before_a_cut_locus(monkeypatch):
    mean = GrassmannPoint(np.eye(6)[:, :2])
    rng = np.random.default_rng(2)
    samples = [exp_map(mean, random_horizontal(rng, mean, scale=0.05))
               for _ in range(6)]
    model = pga_fit(mean.rep, logs_at(mean.rep, stack(samples)), 1)
    good = exp_map(mean, random_horizontal(rng, mean, scale=0.1))
    bad = np.eye(6)[:, 2:4]  # orthogonal to the mean plane
    blade = shifted_blade(np.array([good.rep, bad]))
    # every transported coordinate drifts: station 0 fails its check
    def doubled(*args):
        ends, moved = grassmann.transport_stack(*args)
        return ends, 2.0 * moved
    monkeypatch.setattr(blade_module, "transport_stack", doubled)
    with pytest.raises(ConsistencyError, match="at station 0 drifted"):
        perturb_blade(blade, model, np.array([0.01]))


def test_design_parameter_count(blade, blade_model):
    assert design_parameter_count(blade, blade_model) == 4 + 6
    section = cst_evaluate(default_baselines()[3], 101)
    frozen = build_blade([0.0, 1.0], landmarks([section] * 2))
    result = karcher_mean(frozen.frames)
    model = pga_fit(result.point, result.logs, 2)
    assert design_parameter_count(frozen, model) == 2


def test_affine_component_names_order():
    assert AFFINE_COMPONENT_NAMES == ("m00", "m01", "m10", "m11", "b0", "b1")
    affine = AffineMap(np.array([[1.0, 2.0], [3.0, 4.0]]),
                       np.array([5.0, 6.0]))
    assert affine.as_vector().tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
