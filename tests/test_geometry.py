"""Tests for CST evaluation, affine deformations, validity, and the dataset."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassfoil.errors import (DomainError, GenerationError, ParameterError,
                              SamplingError)
from grassfoil.geometry import (AffineMap, CstParams, LandmarkMatrix,
                                _has_proper_crossing, _separated_chains,
                                affine_apply, affine_subgroup, baseline_names,
                                chord_stations, compose_affine, cst_evaluate,
                                cst_sweep, default_baselines, gen_dataset,
                                gen_dataset_detailed, perturb_cst,
                                sweep_points, validate_shape)
from grassfoil.grassmann import la_standardize, reconstruct_with

UNIFORM = CstParams(np.full(9, 0.2), np.full(9, -0.2))


def bernstein_de_casteljau(coeffs, psi):
    """Degree-8 Bernstein sum evaluated by de Casteljau recursion.

    Independent of the vectorized design-matrix evaluation under test.
    """
    b = list(coeffs)
    for _ in range(len(coeffs) - 1):
        b = [(1.0 - psi) * b[i] + psi * b[i + 1] for i in range(len(b) - 1)]
    return b[0]


def closed_form_surface(coeffs, psi):
    return psi**0.5 * (1.0 - psi) ** 1.0 * bernstein_de_casteljau(coeffs, psi)


# ---------------------------------------------------------------------------
# stations and evaluation


def test_chord_stations_structure():
    psi = chord_stations(401)
    assert psi.shape == (201,)
    assert psi[0] == 0.0
    assert psi[-1] == 1.0
    assert np.all(np.diff(psi) > 0)
    # cosine clustering: spacing near the ends is much finer than mid-chord
    assert psi[1] < 1e-3
    assert (1.0 - psi[-2]) < 1e-3


@pytest.mark.parametrize("bad", [8, 100, 5, 3, 4])
def test_chord_stations_rejects_bad_counts(bad):
    with pytest.raises(SamplingError):
        chord_stations(bad)


def test_cst_evaluate_ordering_and_endpoints():
    shape = cst_evaluate(UNIFORM, 401)
    pts = shape.points
    assert pts.shape == (401, 2)
    # duplicated trailing edge at both ends, shared leading edge mid-loop
    assert pts[0, 0] == 1.0 and pts[-1, 0] == 1.0
    assert pts[0, 1] == 0.0 and pts[-1, 1] == 0.0
    le = (401 - 1) // 2
    assert pts[le, 0] == 0.0 and pts[le, 1] == 0.0
    # upper surface first (positive y), then lower (negative y)
    assert np.all(pts[1:le, 1] > 0)
    assert np.all(pts[le + 1:-1, 1] < 0)
    diag = validate_shape(shape)
    assert diag.passed


def test_zero_coefficients_degenerate_but_evaluates():
    shape = cst_evaluate(CstParams(np.zeros(9), np.zeros(9)), 101)
    assert np.all(shape.points[:, 1] == 0.0)
    diag = validate_shape(shape)
    assert not diag.rank_ok
    assert not diag.passed


def test_symmetric_coefficients_give_mirror_symmetry():
    coeffs = np.linspace(0.05, 0.25, 9)
    shape = cst_evaluate(CstParams(coeffs, -coeffs), 401)
    pts = shape.points
    le = 200
    upper = pts[:le + 1][::-1]
    lower = pts[le:]
    assert np.array_equal(upper[:, 0], lower[:, 0])
    assert np.array_equal(upper[:, 1], -lower[:, 1])


def test_max_thickness_matches_dense_closed_form():
    # independent oracle: 1e5-point uniform sampling of the closed-form
    # surface curves, Bernstein sums via de Casteljau
    psi = np.linspace(0.0, 1.0, 100_001)
    thickness = closed_form_surface(UNIFORM.upper, psi) - closed_form_surface(
        UNIFORM.lower, psi)
    dense_max = float(np.max(thickness))
    assert dense_max == pytest.approx(0.15396007177812668, abs=1e-12)

    shape = cst_evaluate(UNIFORM, 401)
    pts = shape.points
    le = 200
    y_upper = pts[:le + 1][::-1, 1]
    y_lower = pts[le:, 1]
    landmark_max = float(np.max(y_upper - y_lower))
    assert landmark_max <= dense_max + 1e-12
    assert abs(landmark_max - dense_max) < 1e-4


@pytest.mark.parametrize("n", [9.0, True, "9", None])
def test_cst_evaluate_needs_an_integer_landmark_count(n):
    with pytest.raises(SamplingError,
                       match=f"landmark count must be an integer, got {n!r}"):
        cst_evaluate(UNIFORM, n)


def test_te_thickness_opens_trailing_edge():
    shape = cst_evaluate(
        CstParams(np.full(9, 0.2), np.full(9, -0.2), te_thickness=0.01), 101)
    pts = shape.points
    assert pts[0, 1] == pytest.approx(0.005)
    assert pts[-1, 1] == pytest.approx(-0.005)


# ---------------------------------------------------------------------------
# perturbation


def test_perturb_zero_fraction_is_identity():
    out = perturb_cst(UNIFORM, 0.0, seed=5)
    assert np.array_equal(out.upper, UNIFORM.upper)
    assert np.array_equal(out.lower, UNIFORM.lower)


def test_perturb_deterministic_and_bounded():
    a = perturb_cst(UNIFORM, 0.2, seed=11)
    b = perturb_cst(UNIFORM, 0.2, seed=11)
    assert np.array_equal(a.as_vector(), b.as_vector())
    c = perturb_cst(UNIFORM, 0.2, seed=12)
    assert not np.array_equal(a.as_vector(), c.as_vector())
    rel = np.abs(a.as_vector() - UNIFORM.as_vector()) / np.abs(
        UNIFORM.as_vector())
    assert np.all(rel <= 0.2 + 1e-15)


def test_perturb_rejects_negative_seed():
    with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
        perturb_cst(default_baselines()[0], 0.1, -1)


@pytest.mark.parametrize("seed", [1.5, 2.0, True, "3"])
def test_perturb_needs_an_integer_seed(seed):
    with pytest.raises(ParameterError,
                       match=f"seed must be an integer, got {seed!r}"):
        perturb_cst(default_baselines()[0], 0.1, seed)


def test_perturb_keeps_te_thickness():
    params = CstParams(np.full(9, 0.2), np.full(9, -0.2), te_thickness=0.02)
    assert perturb_cst(params, 0.2, seed=1).te_thickness == 0.02


def test_perturb_rejects_bad_fraction():
    with pytest.raises(ParameterError):
        perturb_cst(UNIFORM, -0.1, seed=1)
    with pytest.raises(ParameterError):
        perturb_cst(UNIFORM, 1.5, seed=1)
    with pytest.raises(ParameterError, match="fraction must lie in"):
        perturb_cst(UNIFORM, "0.1", seed=1)


# ---------------------------------------------------------------------------
# affine deformations


def test_subgroup_kinds_and_domain():
    for kind in ("thickness", "camber", "chord", "twist"):
        aff = affine_subgroup(kind, 0.3)
        assert abs(aff.det) > 1e-12
    with pytest.raises(DomainError):
        affine_subgroup("thickness", 0.0)
    with pytest.raises(DomainError):
        affine_subgroup("twist", 1.0)
    with pytest.raises(ParameterError):
        affine_subgroup("shear", 0.5)


def test_twist_is_rotation():
    aff = affine_subgroup("twist", 0.5)
    expected = np.array([[math.cos(math.pi / 4), -math.sin(math.pi / 4)],
                         [math.sin(math.pi / 4), math.cos(math.pi / 4)]])
    np.testing.assert_allclose(aff.linear, expected, atol=1e-15)


def test_compose_matches_direct_matrix_oracle():
    rng = np.random.default_rng(2)
    shape = cst_evaluate(UNIFORM, 101)
    for _ in range(20):
        m1 = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
        m2 = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
        b1, b2 = rng.normal(size=2), rng.normal(size=2)
        a1, a2 = AffineMap(m1, b1), AffineMap(m2, b2)
        seq = affine_apply(affine_apply(shape, a1), a2)
        combined = AffineMap(m1 @ m2, b1 @ m2 + b2)
        direct = affine_apply(shape, combined)
        np.testing.assert_allclose(seq.points, direct.points, atol=1e-12)
        via_compose = affine_apply(shape, compose_affine(a1, a2))
        np.testing.assert_allclose(seq.points, via_compose.points, atol=1e-12)


def test_identity_and_inverse():
    shape = cst_evaluate(UNIFORM, 101)
    same = affine_apply(shape, AffineMap(np.eye(2), np.zeros(2)))
    assert np.array_equal(same.points, shape.points)
    aff = AffineMap(np.array([[1.4, 0.2], [-0.1, 0.8]]), np.array([0.3, -0.2]))
    back = affine_apply(affine_apply(shape, aff), aff.inverse())
    np.testing.assert_allclose(back.points, shape.points, atol=1e-12)


@pytest.mark.parametrize("make, message", [
    (lambda: LandmarkMatrix(np.ones(6)), r"expected an \(n, 2\) array"),
    (lambda: LandmarkMatrix(np.ones((4, 3))), r"expected an \(n, 2\) array"),
    (lambda: LandmarkMatrix(np.eye(2)), "needs at least 3 rows, got 2"),
    (lambda: LandmarkMatrix([[0.0, 0.0], [1.0, math.nan], [0.0, 1.0]]),
     "landmark matrix contains non-finite values"),
    (lambda: AffineMap(np.eye(3), np.zeros(2)), "must be 2x2, got"),
    (lambda: AffineMap(np.eye(2), np.zeros(3)),
     r"translation must have shape \(2,\)"),
    (lambda: AffineMap(np.eye(2), [0.0, math.inf]),
     "affine map contains non-finite values"),
    (lambda: CstParams(np.ones(8), np.ones(9)),
     "upper surface needs exactly 9 coefficients"),
    (lambda: CstParams(np.ones(9), np.full(9, math.nan)),
     "lower coefficients are not finite"),
    (lambda: CstParams(np.ones(9), -np.ones(9), math.inf),
     "trailing-edge thickness is not finite"),
    (lambda: CstParams.from_vector(np.ones(17)),
     "coefficient vector needs 18 entries"),
    (lambda: CstParams.from_vector(np.ones((2, 9))),
     "coefficient vector needs 18 entries"),
    (lambda: LandmarkMatrix([[0.0, 0.0], [1.0], [0.0, 1.0]]),
     "^landmarks must be a rectangular numeric array"),
    (lambda: LandmarkMatrix(object()),
     "^landmarks must be a rectangular numeric array"),
    (lambda: LandmarkMatrix(np.ones((4, 2)).astype(str)),
     "^landmarks must be a rectangular numeric array"),
    (lambda: AffineMap(np.eye(2), ["0", "1"]),
     "^translation must be a rectangular numeric array"),
    (lambda: AffineMap(np.eye(2) * 1e200, np.zeros(2)),
     r"affine map exceeds 1e\+150 in magnitude"),
    (lambda: AffineMap(np.eye(2), [0.0, -1e151]),
     r"affine map exceeds 1e\+150 in magnitude"),
    (lambda: CstParams(np.ones(9).astype(str), np.ones(9)),
     "^upper coefficients must be a rectangular numeric array"),
    (lambda: CstParams(np.ones(9), -np.ones(9), "x"),
     "^trailing-edge thickness must be a rectangular numeric array"),
    (lambda: CstParams(np.ones(9), -np.ones(9), None),
     "^trailing-edge thickness must be a rectangular numeric array"),
    (lambda: CstParams(np.ones(9), -np.ones(9), [0.0, 0.1]),
     "trailing-edge thickness must be one number"),
    (lambda: CstParams.from_vector(["1"] * 18),
     "^coefficient vector must be a rectangular numeric array"),
])
def test_value_types_reject_bad_input(make, message):
    with pytest.raises(ParameterError, match=message):
        make()


def test_value_types_keep_read_only_copies_in_their_memory_order():
    points = np.asfortranarray(cst_evaluate(UNIFORM, 11).points)
    linear = np.asfortranarray([[1.0, 0.2], [0.1, 1.0]])
    for given, kept in ((points, LandmarkMatrix(points).points),
                        (linear, AffineMap(linear, [0, 1]).linear)):
        assert np.array_equal(kept, given) and kept.flags.f_contiguous
        assert not np.shares_memory(kept, given)
        assert not kept.flags.writeable
    params = CstParams(np.arange(9), np.ones(9), np.float32(0.25))
    assert params.upper.dtype == float and not params.upper.flags.writeable
    assert params.te_thickness == 0.25 and type(params.te_thickness) is float


def test_singular_affine_rejected():
    with pytest.raises(Exception):
        AffineMap(np.array([[1.0, 2.0], [0.5, 1.0]]), np.zeros(2))


# ---------------------------------------------------------------------------
# validity diagnostics


def test_collinear_flags_rank():
    pts = np.column_stack([np.linspace(0, 1, 50), np.linspace(0, 2, 50)])
    diag = validate_shape(LandmarkMatrix(pts))
    assert not diag.rank_ok


def test_figure_eight_interior_crossing_flagged():
    # parameter offset keeps the crossing inside segment interiors rather
    # than exactly on a shared vertex
    t = np.linspace(0.0, 2.0 * np.pi, 40, endpoint=False) + 0.037
    pts = np.column_stack([np.sin(2.0 * t), np.sin(t)])
    assert not validate_shape(LandmarkMatrix(pts)).simple


def test_diamond_is_simple():
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    diag = validate_shape(LandmarkMatrix(pts))
    assert diag.simple
    assert diag.positive_orientation


def test_noise_separated_duplicate_point_not_a_crossing():
    # reconstruction of an exactly duplicated trailing edge lands a pair of
    # points ~1e-16 apart; the crossing test must read that as degenerate
    shape = cst_evaluate(UNIFORM, 101)
    pts = shape.points.copy()
    pts[-1] = pts[0] + np.array([1e-16, -1e-16])
    assert validate_shape(LandmarkMatrix(pts)).simple


def test_small_genuine_crossing_still_flagged():
    # a genuine bowtie at 1e-6 scale is far above rounding noise
    s = 1e-6
    pts = np.array([[0.0, 0.0], [s, s], [s, 0.0], [0.0, s]])
    assert not validate_shape(LandmarkMatrix(pts)).simple


def test_nominal_dataset_shapes_all_pass():
    for params in default_baselines()[:4]:
        assert validate_shape(cst_evaluate(params, 101)).passed


def test_reversed_ordering_detected():
    shape = cst_evaluate(UNIFORM, 101)
    diag = validate_shape(LandmarkMatrix(shape.points[::-1]))
    assert not diag.positive_orientation
    assert not diag.passed


# ---------------------------------------------------------------------------
# the O(n) simplicity certificate against the exact O(n^2) test


def span_of(pts):
    return float(np.max(np.abs(pts - pts.mean(axis=0))))


def moving_edges(pts):
    """Which edges of a closed polyline have nonzero length."""
    return np.any(np.roll(pts, -1, axis=0) != pts, axis=1)


def certified(pts):
    """The certificate on a run of one shape."""
    return bool(_separated_chains(pts[None], np.array([span_of(pts)]),
                                  moving_edges(pts))[0])


def assert_simple_matches_exact(pts):
    simple = validate_shape(LandmarkMatrix(pts)).simple
    assert simple == (not _has_proper_crossing(pts))


def rotate(pts, angle):
    c, s = math.cos(angle), math.sin(angle)
    return pts @ np.array([[c, s], [-s, c]])


def airfoil_variants(pts):
    """The shape mirrored, reversed, mirrored and reversed, and rotated."""
    return [pts, pts * [-1.0, 1.0], pts[::-1], (pts * [-1.0, 1.0])[::-1],
            rotate(pts, 0.3), rotate(pts, -1.2), rotate(pts[::-1], 2.5)]


grid_coords = st.integers(min_value=-3, max_value=3).map(float)
float_coords = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@given(st.lists(st.tuples(grid_coords, grid_coords), min_size=3, max_size=9)
       | st.lists(st.tuples(float_coords, float_coords), min_size=3,
                  max_size=9))
@settings(max_examples=300)
def test_simple_matches_exact_test_on_random_polygons(vertices):
    # integer grids make shared endpoints, collinear runs and touching
    # vertices common; free floats make general position common
    assert_simple_matches_exact(np.array(vertices))


@given(st.integers(min_value=2, max_value=12),
       st.floats(min_value=-1e-9, max_value=1e-9, allow_nan=False),
       st.sampled_from([0.0, 1e-16, 1e-13, 1e-11, 1e-6]),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=200)
def test_simple_matches_exact_test_near_touching(m, shift, te_gap, variant):
    # two chains sharing their ends that nearly touch, touch or cross
    # mid-chord, with the closing vertex split by a noise-sized gap
    x = (1.0 - np.cos(np.pi * np.arange(m + 1) / m)) / 2.0
    upper = 1e-3 * np.sin(np.pi * x) + shift
    lower = -1e-3 * np.sin(np.pi * x)
    upper[0] = lower[0] = 0.0
    upper[-1] = lower[-1] = 0.0
    pts = np.column_stack([np.concatenate([x[::-1], x[1:]]),
                           np.concatenate([upper[::-1], lower[1:]])])
    pts[-1, 1] -= te_gap
    assert_simple_matches_exact(airfoil_variants(pts)[variant])


@given(st.integers(min_value=0, max_value=15),
       st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=0, max_value=2**31 - 1),
       st.sampled_from([0.0, 0.004, 0.02]),
       st.integers(min_value=0, max_value=6))
@settings(max_examples=60, deadline=None)
def test_simple_matches_exact_test_on_transformed_airfoils(
        baseline, fraction, seed, te_thickness, variant):
    params = perturb_cst(default_baselines()[baseline], fraction, seed)
    params = CstParams(params.upper, params.lower, te_thickness)
    pts = cst_evaluate(params, 101).points
    assert_simple_matches_exact(airfoil_variants(pts)[variant])


def test_noise_separated_trailing_edge_matches_exact_test():
    pts = cst_evaluate(UNIFORM, 101).points.copy()
    pts[-1] = pts[0] + np.array([1e-16, -1e-16])
    for variant in airfoil_variants(pts):
        assert_simple_matches_exact(variant)
    assert certified(pts)


def test_certificate_covers_mirrored_reversed_and_open_airfoils():
    open_te = CstParams(UNIFORM.upper, UNIFORM.lower, te_thickness=0.01)
    for params in (UNIFORM, open_te, default_baselines()[12]):
        pts = cst_evaluate(params, 101).points
        for variant in airfoil_variants(pts)[:4]:
            assert certified(variant)


def test_certificate_skips_repeated_landmarks():
    pts = cst_evaluate(UNIFORM, 101).points
    repeated = np.insert(pts, [30, 30, 70], pts[[30, 30, 70]], axis=0)
    assert certified(repeated)
    assert_simple_matches_exact(repeated)


def test_certificate_covers_reconstructed_airfoils():
    # reconstruction splits the duplicated trailing edge by rounding noise,
    # so the chains' last breakpoints sit ~1e-15 apart
    for params in (UNIFORM, default_baselines()[9]):
        d = la_standardize(cst_evaluate(params, 101))
        back = reconstruct_with(d.point.rep, d.affine)
        assert not np.array_equal(back.points[0], back.points[-1])
        for variant in airfoil_variants(back.points)[:4]:
            assert certified(variant)
            assert_simple_matches_exact(variant)


def test_certificate_settles_tiny_gaps_exactly():
    # the upper chain dips 1e-13 below the lower one, inside the
    # interpolation margin: a crossing the certificate must not pass,
    # though the exact test reads it as touching
    dip = np.array([[0.0, 0.0], [2.0, 0.0], [1.5, 1.0], [1.0, -1e-13],
                    [0.5, 1.0]])
    assert not certified(dip)
    assert_simple_matches_exact(dip)
    lifted = dip.copy()
    lifted[3, 1] = 1e-13
    assert certified(lifted)
    assert_simple_matches_exact(lifted)


def test_certificate_declines_crossings_and_far_offsets():
    t = np.linspace(0.0, 2.0 * np.pi, 40, endpoint=False) + 0.037
    assert not certified(np.column_stack([np.sin(2.0 * t), np.sin(t)]))
    # equal vertex counts on different stations: the chains cross at 4/3
    # although the second vertices of each are in upper-over-lower order
    staggered = np.array([[0.0, 0.0], [1.0, 0.5], [4.0, 0.0], [3.0, 1.0]])
    assert not certified(staggered)
    assert not validate_shape(LandmarkMatrix(staggered)).simple
    pts = cst_evaluate(UNIFORM, 101).points
    assert not certified(pts + 1e3)
    assert validate_shape(LandmarkMatrix(pts + 1e3)).simple


def test_certificate_alone_accepts_the_full_dataset():
    shapes = gen_dataset(default_baselines(), 1000, 0.2, seed=1)
    assert shapes.shape == (1016, 401, 2)
    assert all(certified(s) for s in shapes)


def test_validate_shape_allocates_no_quadratic_temporaries():
    shape = cst_evaluate(default_baselines()[7], 401)
    validate_shape(shape)
    tracemalloc.start()
    try:
        validate_shape(shape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6


# ---------------------------------------------------------------------------
# dataset generation


def test_baseline_catalog():
    names = baseline_names()
    baselines = default_baselines()
    assert len(names) == 16
    assert len(baselines) == 16
    assert len(set(names)) == 16


def test_gen_dataset_counts_and_order():
    baselines = default_baselines()[:3]
    shapes = gen_dataset(baselines, 7, 0.2, seed=3, n=101)
    assert isinstance(shapes, np.ndarray) and shapes.shape == (10, 101, 2)
    for params, shape in zip(baselines, shapes[:3]):
        assert np.array_equal(shape, cst_evaluate(params, 101).points)


def test_gen_dataset_splits_an_uneven_total():
    detail = gen_dataset_detailed(default_baselines()[:3], 7, 0.2, seed=3,
                                  n=101)
    assert [d.baseline_index for d in detail] == (
        [0, 1, 2] + [0] * 3 + [1] * 2 + [2] * 2)


def test_gen_dataset_bit_identical_rerun():
    baselines = default_baselines()[:4]
    a = gen_dataset_detailed(baselines, 12, 0.2, seed=9, n=101)
    b = gen_dataset_detailed(baselines, 12, 0.2, seed=9, n=101)
    for da, db in zip(a, b):
        assert np.array_equal(da.landmarks, db.landmarks)
        assert np.array_equal(da.coefficients, db.coefficients)


def test_gen_dataset_all_valid():
    for d in gen_dataset_detailed(default_baselines()[:4], 12, 0.2, seed=9,
                                  n=101):
        assert validate_shape(LandmarkMatrix(d.landmarks)).passed


@pytest.mark.parametrize("args, error, message", [
    ({"n_perturbations": 1.5}, ParameterError,
     "perturbation count must be an integer, got 1.5"),
    ({"n_perturbations": 4.0}, ParameterError,
     "perturbation count must be an integer, got 4.0"),
    ({"n": 21.0}, SamplingError, "landmark count must be an integer, got 21.0"),
    ({"fraction": 1.5}, ParameterError,
     r"fraction must lie in \[0, 1\], got 1.5"),
    ({"seed": 1.5}, ParameterError, "seed must be an integer, got 1.5"),
])
def test_gen_dataset_rejects_bad_arguments(args, error, message):
    # checked before anything is drawn, even when nothing would be
    kwargs = {"n_perturbations": 4, "fraction": 0.2, "seed": 1, "n": 21}
    for total in ({}, {"n_perturbations": 0}):
        with pytest.raises(error, match=message):
            gen_dataset(default_baselines()[:2], **{**kwargs, **total, **args})


def test_gen_dataset_rejects_invalid_baseline():
    degenerate = CstParams(np.zeros(9), np.zeros(9))
    with pytest.raises(GenerationError):
        gen_dataset([degenerate], 2, 0.2, seed=1, n=101)


# ---------------------------------------------------------------------------
# sweeps


@pytest.mark.parametrize("steps", [2, 3, 20, 40, 1999])
def test_sweep_points_blend_at_step_fractions(steps):
    rng = np.random.default_rng(steps)
    a, b = rng.normal(size=(2, 5))
    points = sweep_points(a, b, steps)
    assert points.shape == (steps, 5)
    for i, row in enumerate(points):
        s = i / (steps - 1)
        assert np.array_equal(row, (1.0 - s) * a + s * b), i
    assert np.array_equal(points[0], a) and np.array_equal(points[-1], b)


def test_sweep_points_need_two_steps():
    with pytest.raises(ParameterError, match="at least 2 steps, got 1"):
        sweep_points(np.zeros(3), np.ones(3), 1)


def test_sweep_points_reject_corners_of_different_shapes():
    with pytest.raises(ParameterError, match=r"differ in shape: \(2,\) and"):
        sweep_points([0.0, 1.0], [1.0], 3)


@pytest.mark.parametrize("a, b, name", [
    ("a", "b", "corner a"),
    ([0.0, 1.0], [[1.0, 2.0], [3.0]], "corner b"),
    ([[0.0], [1.0, 2.0]], [0.0, 1.0], "corner a"),
    ([0.0, None], [1.0, 2.0], "corner a"),
])
def test_sweep_points_reject_corners_that_are_not_numeric_arrays(a, b, name):
    with pytest.raises(ParameterError,
                       match=f"^{name} must be a rectangular numeric array"):
        sweep_points(a, b, 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sweep_points_reject_non_finite_corners(bad):
    with pytest.raises(ParameterError, match="non-finite"):
        sweep_points([bad], [1.0], 3)
    with pytest.raises(ParameterError, match="non-finite"):
        sweep_points([0.0, 1.0], [1.0, bad], 3)


@pytest.mark.parametrize("steps", [2.5, 3.0, True])
def test_sweep_points_need_an_integer_step_count(steps):
    with pytest.raises(ParameterError,
                       match=f"steps must be an integer, got {steps}"):
        sweep_points(np.zeros(3), np.ones(3), steps)


def test_cst_sweep_endpoints_exact():
    a = default_baselines()[0]
    b = default_baselines()[5]
    shapes = cst_sweep(a, b, 2, n=101)
    assert isinstance(shapes, np.ndarray) and shapes.shape == (2, 101, 2)
    assert np.array_equal(shapes[0], cst_evaluate(a, 101).points)
    assert np.array_equal(shapes[1], cst_evaluate(b, 101).points)


def test_cst_sweep_needs_two_steps():
    a = default_baselines()[0]
    with pytest.raises(ParameterError):
        cst_sweep(a, a, 1, n=101)


# ---------------------------------------------------------------------------
# properties


@given(st.integers(min_value=3, max_value=60).map(lambda m: 2 * m + 1))
def test_stations_always_span_unit_interval(n):
    psi = chord_stations(n)
    assert psi[0] == 0.0 and psi[-1] == 1.0
    assert np.all((psi >= 0.0) & (psi <= 1.0))
    assert np.all(np.diff(psi) > 0)


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=50)
def test_perturbation_never_exceeds_fraction(fraction, seed):
    out = perturb_cst(UNIFORM, fraction, seed)
    rel = np.abs(out.as_vector() - UNIFORM.as_vector()) / 0.2
    assert np.all(rel <= fraction + 1e-12)


@given(st.sampled_from(["thickness", "camber", "chord", "twist"]),
       st.floats(min_value=1e-3, max_value=1.0 - 1e-3))
@settings(max_examples=50)
def test_subgroup_always_invertible(kind, t):
    aff = affine_subgroup(kind, t)
    assert abs(aff.det) > 1e-12
    prod = aff.linear @ aff.inverse().linear
    np.testing.assert_allclose(prod, np.eye(2), atol=1e-12)
