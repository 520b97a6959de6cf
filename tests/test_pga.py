"""Tests for Karcher means, principal geodesic analysis, and synthesis."""

import dataclasses
import math

import numpy as np
import pytest

from grassfoil.errors import (CutLocusError, DimensionError,
                              IterationLimitError, ParameterError,
                              TangencyError)
from grassfoil.geometry import AffineMap
from grassfoil.grassmann import (GrassmannPoint, TangentVector, distance,
                                 exp_map, inner, log_map,
                                 reconstruct_with)
from grassfoil.pga import (PgaModel, _clean_directions, coords_of,
                           corner_sweep, domain_contains, flatten_tangent,
                           karcher_mean, logs_at, pga_fit, synthesize,
                           unflatten_tangent)

from conftest import along, random_horizontal, random_point, stack


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
    mean = GrassmannPoint(karcher_mean(stack([p, q])).point)
    assert abs(distance(mean, p) - distance(mean, q)) < 1e-9
    assert distance(mean, along(p, q, 0.5)) < 1e-9


def test_single_shape_mean_is_that_shape():
    rng = np.random.default_rng(1)
    p = random_point(rng, 30)
    assert distance(GrassmannPoint(karcher_mean(stack([p])).point), p) < 1e-15


def test_identical_shapes_mean_converges_immediately():
    rng = np.random.default_rng(2)
    p = random_point(rng, 30)
    result = karcher_mean(stack([p, p, p]))
    assert distance(GrassmannPoint(result.point), p) < 1e-15
    assert result.iterations == 0


def test_planted_mean_recovered():
    base, _, _, shapes = planted_family()
    mean = GrassmannPoint(karcher_mean(stack(shapes), tol=1e-12).point)
    assert distance(mean, base) < 1e-9


def test_mean_gradient_residual(airfoil_points):
    result = karcher_mean(stack(airfoil_points), tol=1e-10)
    mean = GrassmannPoint(result.point)
    logs = np.array([log_map(mean, p).mat for p in airfoil_points])
    assert result.residual == float(np.linalg.norm(logs.mean(axis=0)))
    assert result.residual < 1e-10
    assert result.iterations >= 1


def test_mean_hands_over_its_last_log_pass(airfoil_points):
    result = karcher_mean(stack(airfoil_points), tol=1e-10)
    mean = GrassmannPoint(result.point)
    logs = np.array([flatten_tangent(log_map(mean, s).mat)
                     for s in airfoil_points])
    assert result.logs.shape == logs.shape
    assert np.array_equal(result.logs, logs)
    assert not result.logs.flags.writeable
    assert result.point.shape == (101, 2)
    assert not result.point.flags.writeable


def test_mean_iteration_limit_is_honest():
    rng = np.random.default_rng(3)
    shapes = [random_point(rng, 25) for _ in range(6)]
    with pytest.raises(IterationLimitError) as err:
        karcher_mean(stack(shapes), tol=1e-30, max_iter=2)
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
        karcher_mean(stack([plane(0, 1), plane(0, 1), plane(2, 3)]))
    assert err.value.shape_index == 2
    assert str(err.value).startswith("shape 2 is at the cut locus")
    assert err.value.max_angle == pytest.approx(np.pi / 2.0)


def test_logs_at_names_the_shape_at_the_cut_locus():
    with pytest.raises(CutLocusError) as err:
        logs_at(plane(0, 1).rep,
                stack([plane(0, 1), plane(2, 3), plane(0, 1)]))
    assert err.value.shape_index == 1
    assert str(err.value).startswith("shape 1 is at the cut locus")


def test_mean_rejects_empty():
    with pytest.raises(ParameterError):
        karcher_mean([])


@pytest.mark.parametrize("shapes", [np.float64(1.0), 5, "abc",
                                    [[1.0], [2.0, 3.0]]])
def test_mean_rejects_a_scalar_or_ragged_input_with_a_typed_error(shapes):
    with pytest.raises(DimensionError, match="^representatives must be"):
        karcher_mean(shapes)


@pytest.mark.parametrize("max_iter", [2.5, 3.0, True])
def test_mean_rejects_a_max_iter_that_is_not_an_integer(airfoil_points,
                                                        max_iter):
    with pytest.raises(ParameterError,
                       match=f"max_iter must be an integer, got {max_iter}"):
        karcher_mean(stack(airfoil_points), max_iter=max_iter)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0, "x",
                                 None])
def test_mean_rejects_unusable_tolerance(airfoil_points, tol):
    with pytest.raises(ParameterError, match="tol must be finite"):
        karcher_mean(stack(airfoil_points), tol=tol)


# ---------------------------------------------------------------------------
# PGA fit


def test_planted_directions_recovered_exactly():
    base, (b1, b2), coeffs, shapes = planted_family()
    model = pga_fit(base.rep, logs_at(base.rep, stack(shapes)), 2)
    planted = np.column_stack(
        [flatten_tangent(b1.mat), flatten_tangent(b2.mat)])
    fitted = flatten_tangent(model.basis).T
    # principal-angle sines; arccos of the cosines cannot see below ~2e-8
    residual = fitted - planted @ (planted.T @ fitted)
    sines = np.linalg.svd(residual, compute_uv=False)
    assert np.max(sines) < 1e-9

    second_moments = np.sort(np.mean(coeffs**2, axis=0))[::-1]
    np.testing.assert_allclose(model.eigenvalues, second_moments, atol=1e-12)


def test_eigenvalue_trace_identity():
    # the scatter has rank 2, so a handful of components carries the trace
    base, _, _, shapes = planted_family()
    full = pga_fit(base.rep, logs_at(base.rep, stack(shapes)), 6)
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
        mat = unflatten_tangent(row, len(mean)).copy()
        mat -= mean @ (mean.T @ mat)
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
        logs = logs_at(base.rep, stack(shapes))
        model = pga_fit(base.rep, logs, 6)
        vals, basis, coords = other_route(base.rep, logs, 6)
        np.testing.assert_allclose(model.eigenvalues, vals, atol=1e-15)
        assert np.max(np.abs(flatten_tangent(model.basis) - basis)) < 1e-9
        np.testing.assert_allclose(model.training_coords, coords, atol=1e-9)


def test_pga_fit_checks_the_log_rows():
    base, _, _, shapes = planted_family(n=20, samples=10)
    base = base.rep
    logs = logs_at(base, stack(shapes))
    for bad in (logs[:, :-1], logs.reshape(10, 20, 2), logs[0]):
        with pytest.raises(DimensionError, match="logarithms must be"):
            pga_fit(base, bad, 2)


def test_pga_fit_rejects_log_rows_that_are_not_finite_numbers():
    base, _, _, shapes = planted_family(n=20, samples=10)
    base = base.rep
    logs = logs_at(base, stack(shapes))
    assert pga_fit(base, logs.tolist(), 2).eigenvalues.tolist() == (
        pga_fit(base, logs, 2).eigenvalues.tolist())
    with pytest.raises(DimensionError, match="^logs must be a rectangular"):
        pga_fit(base, [list(logs[0]), list(logs[1, :-1])], 2)
    logs[4, 7] = np.nan
    with pytest.raises(DimensionError, match="non-finite"):
        pga_fit(base, logs, 2)


def test_pga_fit_rejects_log_rows_whose_moments_would_overflow():
    base, _, _, shapes = planted_family(n=20, samples=10)
    base = base.rep
    logs = logs_at(base, stack(shapes))
    with pytest.raises(DimensionError, match="exceed 1e\\+150 in magnitude"):
        pga_fit(base, logs * 1e155, 2)
    logs[3, 5] = -1e200
    with pytest.raises(DimensionError, match="exceed 1e\\+150 in magnitude"):
        pga_fit(base, logs, 2)


@pytest.mark.parametrize("r", [1.5, 2.0, True])
def test_pga_fit_rejects_an_r_that_is_not_an_integer(r):
    base, _, _, shapes = planted_family(n=20, samples=10)
    with pytest.raises(ParameterError, match=f"r must be an integer, got {r}"):
        pga_fit(base.rep, logs_at(base.rep, stack(shapes)), r)


def test_model_invariants(airfoil_points):
    result = karcher_mean(stack(airfoil_points))
    model = pga_fit(result.point, result.logs, 4)
    assert model.r == 4
    assert np.all(np.diff(model.eigenvalues) <= 1e-18)
    mean = GrassmannPoint(model.mean)
    for i, u in enumerate(model.basis):
        for j, v in enumerate(model.basis):
            expected = 1.0 if i == j else 0.0
            assert abs(inner(TangentVector(u, mean), TangentVector(v, mean))
                       - expected) < 1e-10
    assert model.training_coords.shape == (len(airfoil_points), 4)


def test_dead_direction_cutoff_is_relative_1e_12():
    # eigenvalues just above and just below 1e-12 of the largest one
    rng = np.random.default_rng(8)
    mean = random_point(rng, 12)
    dirs = np.array([random_horizontal(rng, mean).mat for _ in range(3)])
    values = 4.0 * np.array([1.0, 1.01e-12, 0.99e-12])
    basis = _clean_directions(flatten_tangent(dirs), values, mean.rep)
    norms = np.linalg.norm(basis, axis=(1, 2))
    assert norms[:2] == pytest.approx(1.0, abs=1e-12)
    assert not basis[2].any()


def test_rank_limit_enforced():
    rng = np.random.default_rng(4)
    shapes = [random_point(rng, 10) for _ in range(5)]
    result = karcher_mean(stack(shapes))
    with pytest.raises(DimensionError):
        pga_fit(result.point, result.logs, 6)  # only 5 samples
    with pytest.raises(DimensionError):
        pga_fit(result.point,
                logs_at(result.point,
                        stack([random_point(rng, 10) for _ in range(30)])),
                17)  # 2(n-2) = 16


def test_identical_shapes_fit_collapses():
    rng = np.random.default_rng(5)
    p = random_point(rng, 20)
    model = pga_fit(p.rep, logs_at(p.rep, stack([p, p, p, p])), 3)
    assert np.all(model.eigenvalues <= 1e-20)
    assert np.all(model.basis == 0.0)


def test_coords_of_matches_training(airfoil_points):
    result = karcher_mean(stack(airfoil_points))
    model = pga_fit(result.point, result.logs, 4)
    for i, p in enumerate(airfoil_points):
        got = coords_of(model, p.rep)
        np.testing.assert_allclose(got, model.training_coords[i], atol=1e-12)


@pytest.mark.parametrize("frame", [None, "point", "strings"])
def test_coords_of_refuses_what_is_no_frame(airfoil_points, frame):
    result = karcher_mean(stack(airfoil_points))
    model = pga_fit(result.point, result.logs, 4)
    frame = {"point": airfoil_points[0],
             "strings": airfoil_points[0].rep.astype(str)}.get(frame, frame)
    with pytest.raises(DimensionError, match="^frame must be a rectangular"):
        coords_of(model, frame)


def test_flatten_round_trip():
    rng = np.random.default_rng(6)
    mat = rng.normal(size=(9, 2))
    assert np.array_equal(unflatten_tangent(flatten_tangent(mat), 9), mat)
    mats = rng.normal(size=(3, 9, 2))
    assert np.array_equal(unflatten_tangent(flatten_tangent(mats), 9), mats)


# ---------------------------------------------------------------------------
# synthesis


def test_synthesize_zero_is_the_mean(airfoil_points):
    result = karcher_mean(stack(airfoil_points))
    mean = result.point
    model = pga_fit(mean, result.logs, 4)
    out = synthesize(model, np.zeros(4))
    assert np.array_equal(out, mean)


def test_synthesize_distance_is_coordinate_norm(airfoil_points):
    result = karcher_mean(stack(airfoil_points))
    mean = GrassmannPoint(result.point)
    model = pga_fit(result.point, result.logs, 4)
    rng = np.random.default_rng(7)
    for _ in range(10):
        t = rng.normal(scale=0.05, size=4)
        out = GrassmannPoint(synthesize(model, t))
        assert distance(mean, out) == pytest.approx(
            float(np.linalg.norm(t)), abs=1e-10)


def test_synthesize_symmetry(airfoil_points):
    result = karcher_mean(stack(airfoil_points))
    mean = GrassmannPoint(result.point)
    model = pga_fit(result.point, result.logs, 4)
    t = np.array([0.04, -0.02, 0.01, 0.005])
    plus = GrassmannPoint(synthesize(model, t))
    minus = GrassmannPoint(synthesize(model, -t))
    mid = along(plus, minus, 0.5)
    assert distance(mid, mean) < 1e-8


def test_coords_synthesize_round_trip(airfoil_points):
    result = karcher_mean(stack(airfoil_points))
    model = pga_fit(result.point, result.logs, 4)
    rng = np.random.default_rng(8)
    scale = np.sqrt(np.maximum(model.eigenvalues, 1e-30))
    for _ in range(25):
        t = rng.uniform(-1.0, 1.0, size=4) * scale
        back = coords_of(model, synthesize(model, t))
        assert np.max(np.abs(back - t)) < 1e-8


def test_synthesize_checks_length(airfoil_points):
    result = karcher_mean(stack(airfoil_points))
    model = pga_fit(result.point, result.logs, 4)
    with pytest.raises(DimensionError):
        synthesize(model, np.zeros(3))
    with pytest.raises(DimensionError, match="expected 4 coordinates"):
        domain_contains(model, np.zeros((4, 1)))


@pytest.mark.parametrize("t, message", [
    ("abcd", "^coordinates must be a rectangular numeric array"),
    ([math.nan] * 4, "^coordinates contain non-finite values"),
    ([0.0, math.inf, 0.0, 0.0], "^coordinates contain non-finite values")])
def test_coordinates_are_checked_before_use(airfoil_points, t, message):
    result = karcher_mean(stack(airfoil_points))
    model = pga_fit(result.point, result.logs, 4)
    for call in (synthesize, domain_contains):
        with pytest.raises(DimensionError, match=message):
            call(model, t)


def test_huge_coordinates_are_outside_without_a_warning(airfoil_points):
    result = karcher_mean(stack(airfoil_points))
    model = pga_fit(result.point, result.logs, 4)
    # pytest turns the overflow warning of squaring them into an error
    assert not domain_contains(model, [1e200] * 4)
    assert not domain_contains(model, [0.0, -1e308, 0.0, 0.0])


def test_direction_combines_the_basis(airfoil_points):
    result = karcher_mean(stack(airfoil_points))
    model = pga_fit(result.point, result.logs, 4)
    t = np.array([0.3, -0.1, 0.02, 0.0])
    expected = sum(tj * b for tj, b in zip(t, model.basis))
    np.testing.assert_allclose(model.direction(t), expected, atol=1e-15)
    assert np.array_equal(model.checked_coords([1, 2, 3, 4]),
                          [1.0, 2.0, 3.0, 4.0])


def test_direction_of_a_stack_is_each_row_s_direction(airfoil_points):
    result = karcher_mean(stack(airfoil_points))
    model = pga_fit(result.point, result.logs, 4)
    points = np.random.default_rng(5).normal(size=(40, 4)) * 0.05
    directions = model.direction(points)
    assert directions.shape == (40, model.n, 2)
    for t, direction in zip(points, directions):
        one = model.direction(t)
        assert one.tobytes() == direction.tobytes()
        assert one.tobytes() == np.tensordot(t, model.basis, (0, 0)).tobytes()
    assert model.direction(points[:0]).shape == (0, model.n, 2)
    for bad in (points[:, :3], points[None], np.full((2, 4), np.nan)):
        with pytest.raises(DimensionError, match="coordinates"):
            model.direction(bad)


# ---------------------------------------------------------------------------
# domain


def test_domain_contains_training_and_origin(airfoil_points):
    result = karcher_mean(stack(airfoil_points))
    model = pga_fit(result.point, result.logs, 4)
    assert domain_contains(model, np.zeros(4))
    for row in model.training_coords:
        assert domain_contains(model, row)


def test_domain_excludes_far_points(airfoil_points):
    result = karcher_mean(stack(airfoil_points))
    model = pga_fit(result.point, result.logs, 4)
    far = 50.0 * np.sqrt(np.maximum(model.eigenvalues, 1e-12))
    assert not domain_contains(model, far)


def test_degenerate_axes_require_zero_coordinate():
    rng = np.random.default_rng(9)
    p = random_point(rng, 20)
    model = pga_fit(p.rep, logs_at(p.rep, stack([p, p, p])), 2)
    assert domain_contains(model, np.zeros(2))
    assert not domain_contains(model, np.array([1e-6, 0.0]))


def test_a_zero_radius_admits_only_a_zero_coordinate(airfoil_points):
    result = karcher_mean(stack(airfoil_points))
    model = pga_fit(result.point, result.logs, 2)
    radii = np.array([0.0, 2.0])
    flat = dataclasses.replace(model, ellipsoid_radii=radii)
    assert domain_contains(flat, np.array([0.0, 1.5]))
    assert domain_contains(flat, np.array([1e-13, 1.5]))
    assert not domain_contains(flat, np.array([1e-11, 0.0]))
    assert not domain_contains(flat, np.array([0.0, 2.5]))


@pytest.mark.parametrize("make, message", [
    (lambda m: dataclasses.replace(m, bounds_min=np.zeros((2, 1)),
                                   bounds_max=np.zeros(2),
                                   ellipsoid_radii=np.ones(2)),
     "bounds_min must be one-dimensional"),
    (lambda m: dataclasses.replace(m, bounds_min=np.zeros(2),
                                   bounds_max=np.zeros(3),
                                   ellipsoid_radii=np.ones(2)),
     r"^bounds_max must be one-dimensional with one entry per basis "
     r"direction, got shape \(3,\)"),
    (lambda m: dataclasses.replace(m, eigenvalues=m.eigenvalues[:-1]),
     "^eigenvalues must be one-dimensional with one entry per basis "
     "direction"),
    (lambda m: dataclasses.replace(m, training_coords=m.training_coords[:, 1:]),
     r"training coordinates must be \(N, r\)"),
    (lambda m: dataclasses.replace(m, training_coords=m.training_coords[0]),
     r"training coordinates must be \(N, r\)"),
    (lambda m: dataclasses.replace(m, training_coords=m.training_coords[:0]),
     r"^training coordinates must be \(N, r\) with N >= 1 and r = 2, got "
     r"shape \(0, 2\)"),
    (lambda m: dataclasses.replace(m, bounds_min=["a", "b"],
                                   bounds_max=np.zeros(2),
                                   ellipsoid_radii=np.ones(2)),
     "^bounds_min must be a rectangular numeric array"),
    (lambda m: dataclasses.replace(m, bounds_min=np.zeros(2),
                                   bounds_max=[[0.0], [0.0, 1.0]],
                                   ellipsoid_radii=np.ones(2)),
     "^bounds_max must be a rectangular numeric array"),
    (lambda m: dataclasses.replace(m, bounds_min=np.zeros(2),
                                   bounds_max=np.zeros(2),
                                   ellipsoid_radii=[math.nan, 1.0]),
     "ellipsoid_radii contains non-finite values"),
    (lambda m: dataclasses.replace(m, bounds_min=np.ones(3),
                                   bounds_max=np.ones(3),
                                   ellipsoid_radii=np.ones(3)),
     r"^bounds_min must be one-dimensional with one entry per basis "
     r"direction, got shape \(3,\)"),
    (lambda m: dataclasses.replace(m, eigenvalues=[math.nan, 0.0]),
     "^eigenvalues contains non-finite values"),
    (lambda m: dataclasses.replace(m, training_coords=np.full((3, 2), math.inf)),
     "^training_coords contains non-finite values"),
    (lambda m: dataclasses.replace(m, eigenvalues=[1e151, 0.0]),
     r"^eigenvalues exceeds 1e\+150 in magnitude"),
    (lambda m: dataclasses.replace(m, bounds_min=[-1e151, 0.0]),
     r"^bounds_min exceeds 1e\+150 in magnitude"),
    (lambda m: dataclasses.replace(m, bounds_max=[0.0, 1e151]),
     r"^bounds_max exceeds 1e\+150 in magnitude"),
    (lambda m: dataclasses.replace(m, ellipsoid_radii=[1e151, 1.0]),
     r"^ellipsoid_radii exceeds 1e\+150 in magnitude"),
    (lambda m: dataclasses.replace(
        m, training_coords=np.vstack([m.training_coords, [-1e151, 0.0]])),
     r"^training_coords exceeds 1e\+150 in magnitude"),
    (lambda m: dataclasses.replace(m, basis=m.basis * 1e151),
     r"^basis exceeds 1e\+150 in magnitude"),
    (lambda m: dataclasses.replace(m, mean="abc"),
     "^representative must be a rectangular numeric array"),
    (lambda m: dataclasses.replace(m, mean=m.mean.T),
     "^representative must be a tall matrix"),
    (lambda m: dataclasses.replace(m, basis=m.basis[:, :-1]),
     r"^expected an \(n, 2\) mean and an \(r, n, 2\) basis"),
    (lambda m: dataclasses.replace(m, mean=np.eye(len(m.mean), 3)),
     r"^expected an \(n, 2\) mean and an \(r, n, 2\) basis"),
    (lambda m: dataclasses.replace(m, basis=m.basis[:0]),
     r"^expected an \(n, 2\) mean and an \(r, n, 2\) basis with r >= 1"),
])
def test_model_parts_must_agree(airfoil_points, make, message):
    result = karcher_mean(stack(airfoil_points))
    model = pga_fit(result.point, result.logs, 2)
    with pytest.raises(DimensionError, match=message):
        make(model)


def test_model_is_read_only_arrays(airfoil_points):
    result = karcher_mean(stack(airfoil_points))
    model = pga_fit(result.point, result.logs, 4)
    assert model.mean.shape == (101, 2) and model.basis.shape == (4, 101, 2)
    again = PgaModel(model.mean.tolist(), model.basis.tolist(),
                     model.eigenvalues.tolist(), model.bounds_min,
                     model.bounds_max, model.ellipsoid_radii,
                     model.training_coords.tolist())
    assert (again.n, again.r) == (101, 4)
    for name in ("mean", "basis", "eigenvalues", "training_coords"):
        value = getattr(again, name)
        assert np.array_equal(value, getattr(model, name))
        assert not value.flags.writeable
    # a mean keeps its memory order, which fixes the bits of its products
    fortran = PgaModel(np.asfortranarray(model.mean), model.basis,
                       model.eigenvalues, model.bounds_min, model.bounds_max,
                       model.ellipsoid_radii, model.training_coords)
    assert fortran.mean.flags.f_contiguous


def test_model_names_the_first_faulty_direction(airfoil_points):
    result = karcher_mean(stack(airfoil_points))
    model = pga_fit(result.point, result.logs, 4)
    other = airfoil_points[5].rep
    basis = model.basis.copy()
    # horizontal at another frame, then one that is not finite as well
    basis[1] -= other @ (other.T @ basis[1])
    basis[3, 7, 0] = math.nan
    with pytest.raises(TangencyError) as err:
        dataclasses.replace(model, basis=basis)
    assert err.value.shape_index == 1
    basis[1] = model.basis[1]
    with pytest.raises(DimensionError, match="non-finite") as err:
        dataclasses.replace(model, basis=basis)
    assert err.value.shape_index == 3


def test_pga_calls_check_their_frames(airfoil_points):
    result = karcher_mean(stack(airfoil_points))
    frames = stack(airfoil_points)
    for base in (None, "frame"):
        with pytest.raises(DimensionError, match="must be a rectangular"):
            pga_fit(base, result.logs, 2)
        with pytest.raises(DimensionError, match="^base must be a rectangular"):
            logs_at(base, frames)
    # a frame that strays from orthonormal is refused as a base
    with pytest.raises(DimensionError, match="not an orthonormal frame"):
        logs_at(2.0 * result.point, frames)
    # and checked as a GrassmannPoint would check it by the fit
    scaled = pga_fit(2.0 * result.point, result.logs, 2)
    assert np.array_equal(scaled.mean,
                          GrassmannPoint(2.0 * result.point).rep)


# ---------------------------------------------------------------------------
# sweeps and reconstruction


def test_corner_sweep_two_steps_hits_corners(airfoil_points):
    result = karcher_mean(stack(airfoil_points))
    model = pga_fit(result.point, result.logs, 4)
    a = model.bounds_min
    b = model.bounds_max
    out = corner_sweep(model, a, b, 2)
    assert out.shape == (2, model.n, 2)
    assert np.array_equal(out[0], synthesize(model, a))
    assert np.array_equal(out[1], synthesize(model, b))


def test_corner_sweep_validates_steps(airfoil_points):
    result = karcher_mean(stack(airfoil_points))
    model = pga_fit(result.point, result.logs, 4)
    with pytest.raises(ParameterError):
        corner_sweep(model, model.bounds_min,
                     model.bounds_max, 1)


def test_reconstruct_with_applies_affine(airfoil_points):
    point = airfoil_points[0]
    affine = AffineMap(np.array([[2.0, 0.1], [0.0, 0.5]]),
                       np.array([1.0, -0.5]))
    shape = reconstruct_with(point.rep, affine)
    expected = point.rep @ affine.linear + affine.translation
    np.testing.assert_allclose(shape.points, expected, atol=1e-15)
