"""Tests for Karcher means, principal geodesic analysis, and synthesis."""

import numpy as np
import pytest

from grassfoil.errors import (CutLocusError, DimensionError,
                              IterationLimitError, ParameterError)
from grassfoil.geometry import AffineMap
from grassfoil.grassmann import (GrassmannPoint, TangentVector, distance,
                                 exp_map, geodesic_point, inner, log_map,
                                 reconstruct_with)
from grassfoil.pga import (coords_of, corner_sweep, domain_contains,
                           flatten_tangent, karcher_mean, logs_at, pga_fit,
                           synthesize, unflatten_tangent)

from conftest import random_horizontal, random_point


def planted_family(n=60, samples=300, stddevs=(0.05, 0.02), seed=42):
    """Samples scattered along two orthonormal tangent directions.

    Coefficients come in exact +/- pairs with orthogonalized columns, so
    the planted base point is an exact stationary point of the mean
    functional and the empirical second-moment matrix is exactly diagonal.
    """
    rng = np.random.default_rng(seed)
    base = random_point(rng, n)
    b1 = random_horizontal(rng, base)
    raw = random_horizontal(rng, base).mat.copy()
    raw -= inner(TangentVector(raw, base), b1) * b1.mat
    b2 = TangentVector(raw / np.linalg.norm(raw), base)

    half = rng.normal(size=(samples // 2, 2)) * np.array(stddevs)
    coeffs = np.vstack([half, -half])
    # orthogonalize the coefficient columns so the cross-moment vanishes
    coeffs[:, 1] -= coeffs[:, 0] * (
        coeffs[:, 0] @ coeffs[:, 1]) / (coeffs[:, 0] @ coeffs[:, 0])
    order = np.argsort(-np.abs(coeffs[:, 0]))  # any fixed order works
    coeffs = coeffs[order]
    shapes = [
        exp_map(base, TangentVector(c1 * b1.mat + c2 * b2.mat, base))
        for c1, c2 in coeffs
    ]
    return base, (b1, b2), coeffs, shapes


# ---------------------------------------------------------------------------
# Karcher mean


def test_two_point_mean_is_equidistant_midpoint():
    rng = np.random.default_rng(0)
    p, q = random_point(rng, 40), random_point(rng, 40)
    mean = karcher_mean([p, q]).point
    assert abs(distance(mean, p) - distance(mean, q)) < 1e-9
    assert distance(mean, geodesic_point(p, q, 0.5)) < 1e-9


def test_single_shape_mean_is_that_shape():
    rng = np.random.default_rng(1)
    p = random_point(rng, 30)
    assert distance(karcher_mean([p]).point, p) < 1e-15


def test_identical_shapes_mean_converges_immediately():
    rng = np.random.default_rng(2)
    p = random_point(rng, 30)
    result = karcher_mean([p, p, p])
    assert distance(result.point, p) < 1e-15
    assert result.iterations == 0


def test_planted_mean_recovered():
    base, _, _, shapes = planted_family()
    mean = karcher_mean(shapes, tol=1e-12).point
    assert distance(mean, base) < 1e-9


def test_mean_gradient_residual(airfoil_points):
    result = karcher_mean(airfoil_points, tol=1e-10)
    logs = np.array([log_map(result.point, p).mat for p in airfoil_points])
    assert result.residual == float(np.linalg.norm(logs.mean(axis=0)))
    assert result.residual < 1e-10
    assert result.iterations >= 1


def test_mean_hands_over_its_last_log_pass(airfoil_points):
    result = karcher_mean(airfoil_points, tol=1e-10)
    logs = np.array([flatten_tangent(log_map(result.point, s).mat)
                     for s in airfoil_points])
    assert result.logs.shape == logs.shape
    assert np.array_equal(result.logs, logs)
    assert not result.logs.flags.writeable


def test_mean_iteration_limit_is_honest():
    rng = np.random.default_rng(3)
    shapes = [random_point(rng, 25) for _ in range(6)]
    with pytest.raises(IterationLimitError) as err:
        karcher_mean(shapes, tol=1e-30, max_iter=2)
    assert err.value.iterations == 2
    assert err.value.residual > 0.0


def plane(i, j, n=4):
    """Coordinate 2-plane spanned by axes i and j of R^n."""
    rep = np.zeros((n, 2))
    rep[i, 0] = 1.0
    rep[j, 1] = 1.0
    return GrassmannPoint(rep)


def test_mean_names_the_shape_at_the_cut_locus():
    # the mean starts at shape 0; shape 2 is orthogonal to it
    with pytest.raises(CutLocusError) as err:
        karcher_mean([plane(0, 1), plane(0, 1), plane(2, 3)])
    assert err.value.shape_index == 2
    assert str(err.value).startswith("shape 2 is at the cut locus")
    assert err.value.max_angle == pytest.approx(np.pi / 2.0)


def test_logs_at_names_the_shape_at_the_cut_locus():
    with pytest.raises(CutLocusError) as err:
        logs_at(plane(0, 1), [plane(0, 1), plane(2, 3), plane(0, 1)])
    assert err.value.shape_index == 1
    assert str(err.value).startswith("shape 1 is at the cut locus")


def test_mean_rejects_empty():
    with pytest.raises(ParameterError):
        karcher_mean([])


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_mean_rejects_unusable_tolerance(airfoil_points, tol):
    with pytest.raises(ParameterError, match="tol must be finite"):
        karcher_mean(airfoil_points, tol=tol)


# ---------------------------------------------------------------------------
# PGA fit


def test_planted_directions_recovered_exactly():
    base, (b1, b2), coeffs, shapes = planted_family()
    model = pga_fit(base, logs_at(base, shapes), 2)
    planted = np.column_stack(
        [flatten_tangent(b1.mat), flatten_tangent(b2.mat)])
    fitted = np.column_stack(
        [flatten_tangent(v.mat) for v in model.basis])
    # principal-angle sines; arccos of the cosines cannot see below ~2e-8
    residual = fitted - planted @ (planted.T @ fitted)
    sines = np.linalg.svd(residual, compute_uv=False)
    assert np.max(sines) < 1e-9

    second_moments = np.sort(np.mean(coeffs**2, axis=0))[::-1]
    np.testing.assert_allclose(model.eigenvalues, second_moments, atol=1e-12)


def test_eigenvalue_trace_identity():
    # the scatter has rank 2, so a handful of components carries the trace
    base, _, _, shapes = planted_family()
    full = pga_fit(base, logs_at(base, shapes), 6)
    logs = [log_map(base, s) for s in shapes]
    mean_sq = float(np.mean([v.norm**2 for v in logs]))
    total = float(np.sum(full.eigenvalues))
    assert abs(total - mean_sq) <= 1e-8 * mean_sq


def other_route(mean, logs, r):
    """Spectrum, basis and coordinates from the route ``pga_fit`` skips.

    ``pga_fit`` takes the N x N Gram matrix when N < 2n and the 2n x 2n
    moment matrix otherwise; this takes the other one, then cleans the
    directions the same way: horizontal projection, dead directions
    zeroed, unit norm, largest-magnitude entry positive.
    """
    count = len(logs)
    if count < logs.shape[1]:
        vals, vecs = np.linalg.eigh((logs.T @ logs) / count)
        rows = vecs[:, ::-1][:, :r].T
    else:
        vals, vecs = np.linalg.eigh((logs @ logs.T) / count)
        top = vals[::-1][:r]
        rows = ((logs.T @ vecs[:, ::-1][:, :r])
                / np.sqrt(np.where(top > 0.0, top, 1.0) * count)).T
    vals = np.clip(vals[::-1][:r], 0.0, None)
    cutoff = max(float(vals[0]) * 1e-12, 1e-24)
    basis = np.zeros((r, logs.shape[1]))
    for k, (val, row) in enumerate(zip(vals, rows)):
        mat = unflatten_tangent(row, mean.n).copy()
        mat -= mean.rep @ (mean.rep.T @ mat)
        norm = np.linalg.norm(mat)
        if val <= cutoff or norm <= 0.5:
            continue
        flat = flatten_tangent(mat / norm)
        basis[k] = flat if flat[np.argmax(np.abs(flat))] > 0.0 else -flat
    return vals, basis, logs @ basis.T


def test_gram_and_direct_routes_agree():
    # 40 samples of G(60, 2) take the Gram route, 60 of G(20, 2) the direct
    for n, samples in ((60, 40), (20, 60)):
        base, _, _, shapes = planted_family(n=n, samples=samples)
        logs = logs_at(base, shapes)
        model = pga_fit(base, logs, 6)
        vals, basis, coords = other_route(base, logs, 6)
        np.testing.assert_allclose(model.eigenvalues, vals, atol=1e-15)
        assert np.max(np.abs(model.basis_matrix() - basis)) < 1e-9
        np.testing.assert_allclose(model.training_coords, coords, atol=1e-9)


def test_pga_fit_checks_the_log_rows():
    base, _, _, shapes = planted_family(n=20, samples=10)
    logs = logs_at(base, shapes)
    for bad in (logs[:, :-1], logs.reshape(10, 20, 2), logs[0]):
        with pytest.raises(DimensionError, match="logarithms must be"):
            pga_fit(base, bad, 2)


def test_model_invariants(airfoil_points):
    result = karcher_mean(airfoil_points)
    model = pga_fit(result.point, result.logs, 4)
    assert model.r == 4
    assert np.all(np.diff(model.eigenvalues) <= 1e-18)
    for i, u in enumerate(model.basis):
        for j, v in enumerate(model.basis):
            expected = 1.0 if i == j else 0.0
            assert abs(inner(u, v) - expected) < 1e-10
    assert model.training_coords.shape == (len(airfoil_points), 4)


def test_rank_limit_enforced():
    rng = np.random.default_rng(4)
    shapes = [random_point(rng, 10) for _ in range(5)]
    result = karcher_mean(shapes)
    with pytest.raises(DimensionError):
        pga_fit(result.point, result.logs, 6)  # only 5 samples
    with pytest.raises(DimensionError):
        pga_fit(result.point,
                logs_at(result.point,
                        [random_point(rng, 10) for _ in range(30)]),
                17)  # 2(n-2) = 16


def test_identical_shapes_fit_collapses():
    rng = np.random.default_rng(5)
    p = random_point(rng, 20)
    model = pga_fit(p, logs_at(p, [p, p, p, p]), 3)
    assert np.all(model.eigenvalues <= 1e-20)
    for v in model.basis:
        assert np.all(v.mat == 0.0)


def test_coords_of_matches_training(airfoil_points):
    result = karcher_mean(airfoil_points)
    model = pga_fit(result.point, result.logs, 4)
    for i, p in enumerate(airfoil_points):
        got = coords_of(model, p)
        np.testing.assert_allclose(got, model.training_coords[i], atol=1e-12)


def test_flatten_round_trip():
    rng = np.random.default_rng(6)
    mat = rng.normal(size=(9, 2))
    assert np.array_equal(unflatten_tangent(flatten_tangent(mat), 9), mat)


# ---------------------------------------------------------------------------
# synthesis


def test_synthesize_zero_is_the_mean(airfoil_points):
    result = karcher_mean(airfoil_points)
    mean = result.point
    model = pga_fit(mean, result.logs, 4)
    out = synthesize(model, np.zeros(4))
    assert np.array_equal(out.rep, mean.rep)


def test_synthesize_distance_is_coordinate_norm(airfoil_points):
    result = karcher_mean(airfoil_points)
    mean = result.point
    model = pga_fit(mean, result.logs, 4)
    rng = np.random.default_rng(7)
    for _ in range(10):
        t = rng.normal(scale=0.05, size=4)
        out = synthesize(model, t)
        assert distance(mean, out) == pytest.approx(
            float(np.linalg.norm(t)), abs=1e-10)


def test_synthesize_symmetry(airfoil_points):
    result = karcher_mean(airfoil_points)
    mean = result.point
    model = pga_fit(mean, result.logs, 4)
    t = np.array([0.04, -0.02, 0.01, 0.005])
    plus = synthesize(model, t)
    minus = synthesize(model, -t)
    mid = geodesic_point(plus, minus, 0.5)
    assert distance(mid, mean) < 1e-8


def test_coords_synthesize_round_trip(airfoil_points):
    result = karcher_mean(airfoil_points)
    model = pga_fit(result.point, result.logs, 4)
    rng = np.random.default_rng(8)
    scale = np.sqrt(np.maximum(model.eigenvalues, 1e-30))
    for _ in range(25):
        t = rng.uniform(-1.0, 1.0, size=4) * scale
        back = coords_of(model, synthesize(model, t))
        assert np.max(np.abs(back - t)) < 1e-8


def test_synthesize_checks_length(airfoil_points):
    result = karcher_mean(airfoil_points)
    model = pga_fit(result.point, result.logs, 4)
    with pytest.raises(DimensionError):
        synthesize(model, np.zeros(3))
    with pytest.raises(DimensionError, match="expected 4 coordinates"):
        domain_contains(model, np.zeros((4, 1)))


def test_direction_combines_the_basis(airfoil_points):
    result = karcher_mean(airfoil_points)
    model = pga_fit(result.point, result.logs, 4)
    t = np.array([0.3, -0.1, 0.02, 0.0])
    expected = sum(tj * b.mat for tj, b in zip(t, model.basis))
    np.testing.assert_allclose(model.direction(t), expected, atol=1e-15)
    assert np.array_equal(model.checked_coords([1, 2, 3, 4]),
                          [1.0, 2.0, 3.0, 4.0])


# ---------------------------------------------------------------------------
# domain


def test_domain_contains_training_and_origin(airfoil_points):
    result = karcher_mean(airfoil_points)
    model = pga_fit(result.point, result.logs, 4)
    assert domain_contains(model, np.zeros(4))
    for row in model.training_coords:
        assert domain_contains(model, row)


def test_domain_excludes_far_points(airfoil_points):
    result = karcher_mean(airfoil_points)
    model = pga_fit(result.point, result.logs, 4)
    far = 50.0 * np.sqrt(np.maximum(model.eigenvalues, 1e-12))
    assert not domain_contains(model, far)


def test_degenerate_axes_require_zero_coordinate():
    rng = np.random.default_rng(9)
    p = random_point(rng, 20)
    model = pga_fit(p, logs_at(p, [p, p, p]), 2)
    assert domain_contains(model, np.zeros(2))
    assert not domain_contains(model, np.array([1e-6, 0.0]))


# ---------------------------------------------------------------------------
# sweeps and reconstruction


def test_corner_sweep_two_steps_hits_corners(airfoil_points):
    result = karcher_mean(airfoil_points)
    model = pga_fit(result.point, result.logs, 4)
    a = model.domain.bounds_min
    b = model.domain.bounds_max
    out = corner_sweep(model, a, b, 2)
    assert len(out) == 2
    assert distance(out[0], synthesize(model, a)) < 1e-12
    assert distance(out[1], synthesize(model, b)) < 1e-12


def test_corner_sweep_validates_steps(airfoil_points):
    result = karcher_mean(airfoil_points)
    model = pga_fit(result.point, result.logs, 4)
    with pytest.raises(ParameterError):
        corner_sweep(model, model.domain.bounds_min,
                     model.domain.bounds_max, 1)


def test_reconstruct_with_applies_affine(airfoil_points):
    point = airfoil_points[0]
    affine = AffineMap(np.array([[2.0, 0.1], [0.0, 0.5]]),
                       np.array([1.0, -0.5]))
    shape = reconstruct_with(point, affine)
    expected = point.rep @ affine.linear + affine.translation
    np.testing.assert_allclose(shape.points, expected, atol=1e-15)
