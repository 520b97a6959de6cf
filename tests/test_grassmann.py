"""Tests for standardization, geodesics, transport, and Procrustes."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassfoil import grassmann
from grassfoil.errors import (CutLocusError, DegenerateShapeError,
                              DimensionError, GrassfoilError, ParameterError,
                              TangencyError)
from grassfoil.geometry import AffineMap, LandmarkMatrix, cst_evaluate
from grassfoil.geometry import default_baselines, validate_shape
from grassfoil.grassmann import (GrassmannPoint, TangentVector, as_frames,
                                 distance, exp_map, exp_map_stack, inner,
                                 la_standardize, log_map, log_map_stack,
                                 mean_affine, orthonormalize,
                                 parallel_transport, principal_angles,
                                 procrustes_rotation, reconstruct_with,
                                 standardize_stack, transport_stack)

from conftest import along, random_horizontal, random_point


def plane(n, i, j):
    """Coordinate 2-plane spanned by axes i and j of R^n."""
    rep = np.zeros((n, 2))
    rep[i, 0] = 1.0
    rep[j, 1] = 1.0
    return GrassmannPoint(rep)


def rotation(phi):
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, -s], [s, c]])


# ---------------------------------------------------------------------------
# representatives and tangents


def test_orthonormalize_is_deterministic_projection():
    rng = np.random.default_rng(0)
    raw = rng.normal(size=(30, 2))
    q = orthonormalize(raw)
    np.testing.assert_allclose(q.T @ q, np.eye(2), atol=1e-14)
    assert np.array_equal(q, orthonormalize(raw))
    # already-orthonormal input is preserved up to roundoff, not re-gauged
    np.testing.assert_allclose(orthonormalize(q), q, atol=1e-14)


def test_point_requires_full_rank():
    with pytest.raises(DegenerateShapeError):
        GrassmannPoint(np.ones((10, 2)))


@pytest.mark.parametrize("make, message", [
    (lambda p: GrassmannPoint(np.ones((2, 2))), "must be a tall matrix"),
    (lambda p: GrassmannPoint(np.ones(5)), "must be a tall matrix"),
    (lambda p: as_frames(np.ones((3, 2, 2))), "a stack of tall matrices"),
    (lambda p: as_frames(p.rep), "a stack of tall matrices"),
    (lambda p: TangentVector(np.zeros((p.n + 1, 2)), p),
     r"tangent shape \(21, 2\) does not match base \(20, 2\)"),
    (lambda p: TangentVector(np.full((p.n, 2), np.nan), p),
     "tangent vector contains non-finite values"),
    (lambda p: standardize_stack(np.ones((3, 2, 2))),
     r"landmark stack with n >= 3, got shape \(3, 2, 2\)"),
    (lambda p: standardize_stack(np.ones((3, 5))),
     r"landmark stack with n >= 3, got shape \(3, 5\)"),
    (lambda p: log_map_stack(p.rep, p.rep[None, :-1]),
     r"mismatched representatives: \(20, 2\) vs \(19, 2\)"),
    (lambda p: log_map_stack(p.rep, p.rep), "mismatched representatives"),
    (lambda p: GrassmannPoint([[1.0, 0.0], [0.0], [0.0, 1.0]]),
     "^representative must be a rectangular numeric array"),
    (lambda p: GrassmannPoint(p.rep.astype(str)),
     "^representative must be a rectangular numeric array"),
    (lambda p: TangentVector(object(), p),
     "^tangent must be a rectangular numeric array"),
    (lambda p: TangentVector(np.zeros((p.n, 2)).astype(str), p),
     "^tangent must be a rectangular numeric array"),
])
def test_frames_and_tangents_reject_bad_shapes(make, message):
    p = random_point(np.random.default_rng(4), 20)
    with pytest.raises(DimensionError, match=message):
        make(p)


def test_log_map_stack_raises_when_a_log_is_not_horizontal(monkeypatch):
    rng = np.random.default_rng(6)
    p, q = random_point(rng, 12), random_point(rng, 12)
    monkeypatch.setattr(grassmann, "_horizontal",
                        lambda rep, mat, tol: np.zeros(len(mat), dtype=bool))
    with pytest.raises(TangencyError, match="not horizontal") as err:
        log_map_stack(p.rep, np.array([q.rep, q.rep]))
    assert err.value.shape_index == 0


def test_tangent_must_be_horizontal():
    rng = np.random.default_rng(1)
    p = random_point(rng, 20)
    with pytest.raises(TangencyError):
        TangentVector(p.rep.copy(), p)
    # the projected residual is horizontal by construction
    v = random_horizontal(rng, p)
    assert np.max(np.abs(p.rep.T @ v.mat)) < 1e-12
    assert v.norm == pytest.approx(1.0)


def test_inner_is_the_trace_metric():
    rng = np.random.default_rng(2)
    p = random_point(rng, 20)
    u = random_horizontal(rng, p)
    w = random_horizontal(rng, p, scale=2.0)
    assert inner(u, u) == pytest.approx(1.0)
    assert inner(u, w) == pytest.approx(inner(w, u))
    assert inner(u, w) == pytest.approx(float(np.trace(u.mat.T @ w.mat)))


# ---------------------------------------------------------------------------
# LA standardization


def test_square_example_standardizes_to_scaled_identity():
    x = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    d = la_standardize(LandmarkMatrix(x))
    np.testing.assert_allclose(d.affine.translation, np.zeros(2), atol=1e-15)
    np.testing.assert_allclose(d.point.rep, x / np.sqrt(2.0), atol=1e-14)
    np.testing.assert_allclose(d.affine.linear, np.sqrt(2.0) * np.eye(2),
                               atol=1e-14)


def test_standardize_properties():
    shape = cst_evaluate(default_baselines()[2], 101)
    d = la_standardize(shape)
    rep = d.point.rep
    np.testing.assert_allclose(rep.T @ rep, np.eye(2), atol=1e-13)
    np.testing.assert_allclose(rep.mean(axis=0), np.zeros(2), atol=1e-14)
    np.testing.assert_allclose(d.affine.translation,
                               shape.points.mean(axis=0), atol=1e-14)
    back = reconstruct_with(d.point.rep, d.affine)
    assert np.max(np.abs(back.points - shape.points)) < 1e-10


def test_standardize_idempotent_on_representative():
    shape = cst_evaluate(default_baselines()[2], 101)
    rep = la_standardize(shape).point.rep
    again = la_standardize(LandmarkMatrix(rep))
    sigma = np.linalg.svd(again.affine.linear, compute_uv=False)
    np.testing.assert_allclose(sigma, np.ones(2), atol=1e-12)


def test_standardize_rejects_rank_deficient():
    pts = np.column_stack([np.linspace(0, 1, 20), np.linspace(0, 3, 20)])
    with pytest.raises(DegenerateShapeError):
        la_standardize(LandmarkMatrix(pts))


def test_rank_ratio_threshold_is_1e_10():
    def rhombus(ratio):
        # centered already, with singular values sqrt(2) and ratio * sqrt(2)
        return np.array([[1.0, 0.0], [0.0, ratio], [-1.0, 0.0], [0.0, -ratio]])

    assert la_standardize(rhombus(1.01e-10)).affine.det > 0.0
    assert validate_shape(rhombus(1.01e-10)).rank_ok
    with pytest.raises(DegenerateShapeError, match="numerically collinear"):
        la_standardize(rhombus(0.99e-10))
    assert not validate_shape(rhombus(0.99e-10)).rank_ok


@pytest.mark.parametrize("scale", [1e151, 1e300])
def test_standardize_rejects_coordinates_that_would_overflow(scale):
    # the affine factor's determinant, about scale**2, would overflow
    shape = LandmarkMatrix(cst_evaluate(default_baselines()[1], 101).points
                           * scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateShapeError, match="exceed 1e\\+150"):
            la_standardize(shape)


def test_gl2_invariance_including_reflections():
    rng = np.random.default_rng(3)
    shape = cst_evaluate(default_baselines()[1], 101)
    base = la_standardize(shape).point
    for k in range(30):
        m = rng.normal(size=(2, 2))
        while abs(np.linalg.det(m)) < 0.05:
            m = rng.normal(size=(2, 2))
        if k % 3 == 0:
            m[:, 0] *= -1.0  # force a reflection
        b = rng.normal(size=2)
        moved = LandmarkMatrix(shape.points @ m + b)
        other = la_standardize(moved).point
        assert distance(base, other) < 1e-10


def test_mean_affine_is_componentwise():
    a1 = AffineMap(np.array([[2.0, 0.0], [0.0, 1.0]]), np.array([1.0, 0.0]))
    a2 = AffineMap(np.array([[4.0, 2.0], [0.0, 3.0]]), np.array([3.0, 2.0]))
    m = mean_affine(np.array([a1.linear, a2.linear]),
                    np.array([a1.translation, a2.translation]))
    np.testing.assert_allclose(m.linear, [[3.0, 1.0], [0.0, 2.0]])
    np.testing.assert_allclose(m.translation, [2.0, 1.0])


@pytest.mark.parametrize("linear, translation, error, message", [
    (np.ones((3, 2, 2)), np.ones((2, 2)), DimensionError,
     r"got shapes \(3, 2, 2\) and \(2, 2\)"),
    (np.ones((3, 2, 2)), np.ones((4, 2)), DimensionError, "got shapes"),
    (np.ones((3, 2)), np.ones((3, 2)), DimensionError, "got shapes"),
    (np.ones((3, 3, 2)), np.ones((3, 2)), DimensionError, "got shapes"),
    ([np.eye(2), np.eye(2)[0]], np.zeros((2, 2)), DimensionError,
     "^linear must be a rectangular numeric array"),
    (np.ones((2, 2, 2)), [[0.0, 0.0], [0.0]], DimensionError,
     "^translation must be a rectangular numeric array"),
    (np.zeros((0, 2, 2)), np.zeros((0, 2)), DimensionError,
     "need at least one affine map"),
    (np.array([np.full((2, 2), np.inf), np.full((2, 2), -np.inf)]),
     np.zeros((2, 2)), ParameterError, "non-finite"),
    (np.array([np.eye(2) * 1e308] * 2), np.zeros((2, 2)), ParameterError,
     "non-finite"),
])
def test_mean_affine_rejects_mismatched_or_unusable_stacks(
        linear, translation, error, message):
    with pytest.raises(error, match=message):
        mean_affine(linear, translation)


# ---------------------------------------------------------------------------
# principal angles and distance


def test_planted_principal_angles():
    n = 10
    p = plane(n, 0, 1)
    theta = 0.3
    rep = np.zeros((n, 2))
    rep[0, 0] = np.cos(theta)
    rep[2, 0] = np.sin(theta)
    rep[1, 1] = 1.0
    q = GrassmannPoint(rep)
    angles = principal_angles(p, q)
    np.testing.assert_allclose(np.sort(angles), [0.0, theta], atol=1e-12)
    assert distance(p, q) == pytest.approx(theta, abs=1e-12)


def test_tiny_angles_resolved_by_sine_path():
    n, eps = 16, 1e-9
    p = plane(n, 0, 1)
    rep = p.rep.copy()
    rep[2, 0] = eps
    q = GrassmannPoint(orthonormalize(rep))
    angles = principal_angles(p, q)
    assert np.max(angles) == pytest.approx(eps, rel=1e-6)


def test_orthogonal_planes_distance():
    p = plane(4, 0, 1)
    q = plane(4, 2, 3)
    assert distance(p, q) == pytest.approx(np.pi / np.sqrt(2.0), abs=1e-12)


def test_distance_ignores_representative_rotation():
    rng = np.random.default_rng(4)
    p, q = random_point(rng, 25), random_point(rng, 25)
    rotated = GrassmannPoint(q.rep @ rotation(1.1))
    assert abs(distance(p, q) - distance(p, rotated)) < 1e-12


# ---------------------------------------------------------------------------
# exp / log


def test_exp_of_zero_is_identity():
    rng = np.random.default_rng(5)
    p = random_point(rng, 30)
    out = exp_map(p, TangentVector(np.zeros((30, 2)), p))
    assert np.array_equal(out.rep, p.rep)


def test_log_exp_round_trip_subspace():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        p, q = random_point(rng, 40), random_point(rng, 40)
        try:
            delta = log_map(p, q)
        except CutLocusError:
            continue
        back = exp_map(p, delta)
        worst = max(worst, distance(back, q))
    assert worst < 1e-9


def test_exp_log_tangent_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = random_point(rng, 40)
        v = random_horizontal(rng, p, scale=rng.uniform(0.05, 1.2))
        q = exp_map(p, v)
        back = log_map(p, q)
        assert np.max(np.abs(back.mat - v.mat)) < 1e-9


def test_exp_generated_pairs_round_trip_representatives():
    # when the cross-Gram is symmetric positive definite the log/exp pair
    # reproduces the exact representative, not just its span
    rng = np.random.default_rng(8)
    for _ in range(25):
        p = random_point(rng, 40)
        v = random_horizontal(rng, p, scale=rng.uniform(0.1, 1.3))
        q = exp_map(p, v)
        again = exp_map(p, log_map(p, q))
        assert np.max(np.abs(again.rep - q.rep)) < 1e-9


def test_log_distance_consistency():
    rng = np.random.default_rng(9)
    for _ in range(25):
        p, q = random_point(rng, 30), random_point(rng, 30)
        assert log_map(p, q).norm == pytest.approx(distance(p, q), abs=1e-10)


def test_log_invariant_to_target_rotation():
    rng = np.random.default_rng(10)
    p, q = random_point(rng, 30), random_point(rng, 30)
    delta = log_map(p, q)
    delta2 = log_map(p, GrassmannPoint(q.rep @ rotation(0.7)))
    assert np.max(np.abs(delta.mat - delta2.mat)) < 1e-12


@given(st.integers(0, 2**32 - 1), st.integers(1, 64), st.integers(3, 401),
       st.integers(-30, 30), st.sampled_from(["C", "F", "strided"]))
@settings(max_examples=60, deadline=None)
def test_contiguous_2x2_factors_keep_the_bits_of_swapped_views(
        seed, count, n, exponent, layout):
    # log_map_stack multiplies its (count, n, 2) stacks by contiguous copies
    # of its transposed SVD factors, which numpy runs on a faster route than
    # the swapped views; both routes must give the same bits
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((count, 2 * n, 2)) * 2.0**exponent
    stack = {"C": stack[:, :n].copy(), "F": np.asfortranarray(stack[:, :n]),
             "strided": stack[:, ::2]}[layout]
    swapped = np.linalg.svd(rng.standard_normal((count, 2, 2)))[0].swapaxes(1, 2)
    assert np.array_equal(stack @ np.ascontiguousarray(swapped),
                          stack @ swapped)


def test_cut_locus_raises():
    p = plane(4, 0, 1)
    q = plane(4, 2, 3)
    with pytest.raises(CutLocusError) as err:
        log_map(p, q)
    assert err.value.max_angle == pytest.approx(np.pi / 2.0, abs=1e-12)
    # sharing one direction still pins the other angle at pi/2
    with pytest.raises(CutLocusError):
        log_map(plane(4, 0, 1), plane(4, 1, 2))


def test_near_cut_locus_is_still_usable():
    theta = np.pi / 2.0 - 1e-5
    p = plane(6, 0, 1)
    rep = np.zeros((6, 2))
    rep[0, 0] = np.cos(theta)
    rep[2, 0] = np.sin(theta)
    rep[1, 1] = 1.0
    q = GrassmannPoint(rep)
    delta = log_map(p, q)
    assert delta.norm == pytest.approx(theta, abs=1e-9)
    assert distance(exp_map(p, delta), q) < 1e-9


# ---------------------------------------------------------------------------
# geodesics


def test_geodesic_endpoints_and_midpoint():
    rng = np.random.default_rng(11)
    p, q = random_point(rng, 35), random_point(rng, 35)
    assert distance(along(p, q, 0.0), p) < 1e-12
    assert distance(along(p, q, 1.0), q) < 1e-9
    mid = along(p, q, 0.5)
    d = distance(p, q)
    assert distance(p, mid) == pytest.approx(d / 2.0, abs=1e-9)
    assert distance(mid, q) == pytest.approx(d / 2.0, abs=1e-9)


def test_geodesic_is_unit_speed_linear():
    rng = np.random.default_rng(12)
    p, q = random_point(rng, 35), random_point(rng, 35)
    d = distance(p, q)
    for t in (0.2, 0.4, 0.7):
        assert distance(p, along(p, q, t)) == pytest.approx(
            t * d, abs=1e-9)


# ---------------------------------------------------------------------------
# parallel transport


def test_transport_at_zero_returns_input():
    rng = np.random.default_rng(13)
    p = random_point(rng, 30)
    v = random_horizontal(rng, p)
    w = random_horizontal(rng, p, scale=0.5)
    out = parallel_transport(p, v, w, 0.0)
    assert np.array_equal(out.mat, w.mat)


def test_transport_isometry():
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(60):
        p = random_point(rng, 30)
        v = random_horizontal(rng, p, scale=rng.uniform(0.1, 1.2))
        w1 = random_horizontal(rng, p, scale=rng.uniform(0.2, 2.0))
        w2 = random_horizontal(rng, p, scale=rng.uniform(0.2, 2.0))
        t1 = parallel_transport(p, v, w1, 1.0)
        t2 = parallel_transport(p, v, w2, 1.0)
        worst = max(worst, abs(inner(t1, t2) - inner(w1, w2)))
    assert worst < 1e-10


def test_transport_lands_horizontal_at_endpoint():
    rng = np.random.default_rng(15)
    p = random_point(rng, 30)
    v = random_horizontal(rng, p, scale=0.8)
    w = random_horizontal(rng, p, scale=1.5)
    out = parallel_transport(p, v, w, 1.0)
    end = exp_map(p, v)
    assert np.max(np.abs(end.rep.T @ out.mat)) < 1e-9


def test_transported_velocity_matches_finite_difference():
    rng = np.random.default_rng(16)
    p = random_point(rng, 30)
    v = random_horizontal(rng, p, scale=0.9)
    t, h = 0.6, 1e-6
    moved = parallel_transport(p, v, v, t)
    ahead = exp_map(p, TangentVector((t + h) * v.mat, p))
    behind = exp_map(p, TangentVector((t - h) * v.mat, p))
    fd = (ahead.rep - behind.rep) / (2.0 * h)
    assert np.max(np.abs(fd - moved.mat)) < 1e-6


def oracle_point(p, direction, t):
    """Geodesic point by the closed form, ``P V cos(tS) V' + U sin(tS) V'``."""
    u, s, vt = np.linalg.svd(direction.mat, full_matrices=False)
    v = vt.T
    y = p.rep @ (v * np.cos(t * s)) @ v.T + (u * np.sin(t * s)) @ v.T
    return GrassmannPoint(orthonormalize(y))


def oracle_transport(p, direction, w, t):
    """Closed-form transport of the matrix ``w``, then projection horizontal
    at the endpoint."""
    u, s, vt = np.linalg.svd(direction.mat, full_matrices=False)
    v = vt.T
    pv_sin = p.rep @ (v * np.sin(t * s))
    u_cos = u * np.cos(t * s)
    um = u.T @ w
    mat = w - u @ um + (u_cos - pv_sin) @ um
    end = oracle_point(p, direction, t)
    mat -= end.rep @ (end.rep.T @ mat)
    return mat


def test_geodesic_kernel_matches_closed_forms_bitwise(airfoil_points):
    rng = np.random.default_rng(18)
    cases = []
    for _ in range(20):
        p = random_point(rng, 30)
        cases.append((p, random_horizontal(rng, p, rng.uniform(0.1, 1.2)),
                      random_horizontal(rng, p, rng.uniform(0.2, 2.0))))
    p = airfoil_points[0]
    for q in airfoil_points[1:]:
        cases.append((p, log_map(p, q), random_horizontal(rng, p, 0.01)))
    for p, v, w in cases:
        assert np.array_equal(exp_map(p, v).rep, oracle_point(p, v, 1.0).rep)
        for t in (1.0, 0.6):
            assert np.array_equal(exp_map_stack(p.rep, v.mat[None], t)[0],
                                  oracle_point(p, v, t).rep)
            assert np.array_equal(parallel_transport(p, v, w, t).mat,
                                  oracle_transport(p, v, w.mat, t))


@pytest.mark.parametrize("count", [1, 63, 64, 65])
@pytest.mark.parametrize("stacked", [False, True], ids=["one-base", "bases"])
def test_geodesic_stack_matches_closed_forms_bitwise(count, stacked):
    # chunk boundaries at 64; the middle direction is exactly zero
    rng = np.random.default_rng(count)
    bases = ([random_point(rng, 30) for _ in range(count)] if stacked
             else [random_point(rng, 30)] * count)
    directions = [random_horizontal(rng, b, rng.uniform(0.05, 1.4))
                  for b in bases]
    zero = count // 2
    directions[zero] = TangentVector(np.zeros((30, 2)), bases[zero])
    mats = rng.normal(size=(3, 30, 2))
    base = np.array([b.rep for b in bases]) if stacked else bases[0].rep
    deltas = np.array([d.mat for d in directions])
    for t in (1.0, 0.6):
        ends, moved = transport_stack(base, deltas, mats, t)
        assert np.array_equal(exp_map_stack(base, deltas, t), ends)
        for k, (b, d) in enumerate(zip(bases, directions)):
            if k == zero:  # stays at its base, mats only projected there
                assert np.array_equal(ends[k], b.rep)
                for m, got in zip(mats, moved[k]):
                    assert np.array_equal(got, m - b.rep @ (b.rep.T @ m))
                continue
            assert np.array_equal(ends[k], oracle_point(b, d, t).rep)
            for m, got in zip(mats, moved[k]):
                assert np.array_equal(got, oracle_transport(b, d, m, t))


def test_geodesic_transports_many_at_once():
    rng = np.random.default_rng(19)
    p = random_point(rng, 30)
    v = random_horizontal(rng, p, scale=0.7)
    ws = [random_horizontal(rng, p) for _ in range(3)]
    ends, moved = transport_stack(p.rep, v.mat[None],
                                  np.array([w.mat for w in ws]), 0.6)
    assert np.array_equal(ends[0], oracle_point(p, v, 0.6).rep)
    for w, m in zip(ws, moved[0]):
        assert np.array_equal(m, parallel_transport(p, v, w, 0.6).mat)


def test_geodesic_rejects_non_horizontal_direction():
    rng = np.random.default_rng(20)
    p, q = random_point(rng, 30), random_point(rng, 30)
    with pytest.raises(TangencyError):
        exp_map(p, random_horizontal(rng, q))


@pytest.mark.parametrize("stacked", [False, True], ids=["one-base", "bases"])
def test_geodesic_stack_names_the_first_faulty_direction(stacked):
    rng = np.random.default_rng(22)
    bases = [random_point(rng, 12) for _ in range(70 if stacked else 1)] * (
        1 if stacked else 70)
    base = np.array([b.rep for b in bases]) if stacked else bases[0].rep
    deltas = np.array([random_horizontal(rng, b, 0.5).mat for b in bases])
    deltas[[66, 68]] = random_horizontal(rng, random_point(rng, 12)).mat
    with pytest.raises(TangencyError, match="not horizontal") as err:
        exp_map_stack(base, deltas)
    assert err.value.shape_index == 66
    deltas[[66, 68]] = np.nan
    with pytest.raises(DimensionError, match="non-finite") as err:
        transport_stack(base, deltas, deltas[:2] * 0.0)
    assert err.value.shape_index == 66


def test_geodesic_stack_names_the_first_rank_deficient_point(monkeypatch):
    # no finite horizontal direction leaves an orthonormal base's span, so a
    # stand-in QR flattens the points that stay on one marked plane
    rng = np.random.default_rng(23)
    marked = plane(12, 0, 1).rep
    bases = np.array([random_point(rng, 12).rep for _ in range(70)])
    bases[[65, 69]] = marked
    deltas = np.array([random_horizontal(rng, GrassmannPoint(b), 0.5).mat
                       for b in bases])
    deltas[[65, 69]] = 0.0
    real = grassmann.orthonormalize

    def flattening(mat):
        on_plane = np.abs(mat - marked).max(axis=(-2, -1)) < 1e-12
        return real(np.where(on_plane[..., None, None], 0.0, mat))
    monkeypatch.setattr(grassmann, "orthonormalize", flattening)
    with pytest.raises(DegenerateShapeError, match="rank deficient") as err:
        exp_map_stack(bases, deltas)
    assert err.value.shape_index == 65


@pytest.mark.parametrize("call, message", [
    (lambda p, d: exp_map_stack(p, d[None]), "do not match base"),
    (lambda p, d: exp_map_stack(p[:-1], d), "do not match base"),
    (lambda p, d: exp_map_stack(2.0 * p, d), "not a finite orthonormal"),
    (lambda p, d: exp_map_stack(p, d, t=np.inf), "t must be a finite"),
    (lambda p, d: exp_map_stack(p, d, t="1"), "t must be a finite"),
    (lambda p, d: exp_map_stack(p, d, t=10**400), "t must be a finite"),
    (lambda p, d: exp_map_stack(p, 1e300 * d, 1e10), "too long to follow"),
    (lambda p, d: transport_stack(p, d, d[0]), "do not match directions"),
    (lambda p, d: transport_stack(p, d, np.inf * d), "mats contain non-finite"),
    (lambda p, d: transport_stack(p, d, np.full((2, 12, 2), 1.5e308)),
     "transported mats overflow"),
])
def test_geodesic_stack_rejects_unusable_arguments(call, message):
    rng = np.random.default_rng(24)
    p = random_point(rng, 12)
    d = np.array([random_horizontal(rng, p).mat for _ in range(3)])
    with pytest.raises(GrassfoilError, match=message):
        call(p.rep, d)


# ---------------------------------------------------------------------------
# Procrustes


def test_procrustes_recovers_planted_rotation():
    rng = np.random.default_rng(17)
    for phi in (-2.5, -0.4, 0.0, 0.9, 3.0):
        p = random_point(rng, 25)
        q = GrassmannPoint(p.rep @ rotation(phi))
        r = procrustes_rotation(p, q)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(p.rep - q.rep @ r)) < 1e-12


def test_procrustes_never_beaten_by_grid_search():
    rng = np.random.default_rng(18)
    grid = np.linspace(0.0, 2.0 * np.pi, 3600, endpoint=False)
    for _ in range(10):
        p, q = random_point(rng, 20), random_point(rng, 20)
        r = procrustes_rotation(p, q)
        best = np.linalg.norm(p.rep - q.rep @ r)
        grid_best = min(
            np.linalg.norm(p.rep - q.rep @ rotation(phi)) for phi in grid)
        assert best <= grid_best + 1e-12


def test_procrustes_takes_frames_as_it_takes_points():
    rng = np.random.default_rng(20)
    p, q = random_point(rng, 25), random_point(rng, 25)
    r = procrustes_rotation(p, q)
    assert procrustes_rotation(p.rep, q.rep).tobytes() == r.tobytes()
    # a frame is checked as a point is: a scaled one is re-orthonormalized
    scaled = procrustes_rotation(p.rep, 3.0 * q.rep)
    assert scaled.tobytes() == procrustes_rotation(
        p, GrassmannPoint(3.0 * q.rep)).tobytes()
    with pytest.raises(DimensionError, match=r"mismatched representatives: "
                       r"\(25, 2\) vs \(24, 2\)"):
        procrustes_rotation(p.rep, q.rep[:-1])
    with pytest.raises(DimensionError, match="^representative must be a tall"):
        procrustes_rotation(p, q.rep.T)


def test_procrustes_stays_special_orthogonal():
    # even when a reflection would fit better, the result is a rotation
    rng = np.random.default_rng(19)
    p = random_point(rng, 25)
    q = GrassmannPoint(p.rep @ np.array([[1.0, 0.0], [0.0, -1.0]]))
    r = procrustes_rotation(p, q)
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# properties


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_distance_symmetry(seed):
    rng = np.random.default_rng(seed)
    p, q = random_point(rng, 15), random_point(rng, 15)
    assert abs(distance(p, q) - distance(q, p)) < 1e-10


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_distance_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    p, q, s = (random_point(rng, 15) for _ in range(3))
    assert distance(p, q) <= distance(p, s) + distance(s, q) + 1e-10


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_standardization_quotient_property(seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(12, 2))
    if abs(np.linalg.det(pts.T @ pts)) < 1e-8:
        return
    m = rng.normal(size=(2, 2))
    if abs(np.linalg.det(m)) < 1e-2:
        return
    b = rng.normal(size=2)
    base = la_standardize(LandmarkMatrix(pts)).point
    moved = la_standardize(LandmarkMatrix(pts @ m + b)).point
    assert distance(base, moved) < 1e-9
