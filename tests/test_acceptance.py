"""Acceptance suite: ten numbered criteria at full scale, n = 401.

Each test prints one PASS/FAIL line (visible under ``pytest -s``) and
asserts the same condition, so the suite gates CI while staying readable
as a checklist.
"""

import numpy as np
import pytest

from grassfoil.blade import (build_blade, design_parameter_count,
                             interpolate_section, perturb_blade)
from grassfoil.geometry import (LandmarkMatrix, affine_apply, affine_subgroup,
                                compose_affine, cst_evaluate,
                                default_baselines, gen_dataset_detailed,
                                perturb_cst, validate_shape)
from grassfoil.grassmann import (GrassmannPoint, TangentVector, distance,
                                 exp_map, inner,
                                 la_standardize, log_map, mean_affine,
                                 parallel_transport, procrustes_rotation,
                                 reconstruct_with)
from grassfoil.pga import (coords_of, domain_contains, flatten_tangent,
                           karcher_mean, logs_at, pga_fit, synthesize)

from conftest import along, landmarks, random_horizontal, random_point, stack

N_LANDMARKS = 401
N_PERTURBATIONS = 1000
SEED = 7


def report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"{status} criterion {num:2d}: {label}{suffix}")
    assert ok, f"criterion {num}: {label}{suffix}"


@pytest.fixture(scope="session")
def dataset():
    return gen_dataset_detailed(default_baselines(), N_PERTURBATIONS, 0.2,
                                seed=SEED, n=N_LANDMARKS)


@pytest.fixture(scope="session")
def decomposed(dataset):
    return [la_standardize(LandmarkMatrix(d.landmarks)) for d in dataset]


@pytest.fixture(scope="session")
def dataset_karcher(decomposed):
    return karcher_mean(stack([d.point for d in decomposed]), tol=1e-10,
                        max_iter=200)


@pytest.fixture(scope="session")
def model(dataset_karcher):
    return pga_fit(dataset_karcher.point, dataset_karcher.logs, 4)


@pytest.fixture(scope="session")
def synthetic_blade():
    etas = [0.0, 0.25, 0.5, 0.75, 1.0]
    sections = []
    for k, eta in enumerate(etas):
        params = perturb_cst(default_baselines()[4], 0.10, seed=300 + k)
        shape = cst_evaluate(params, N_LANDMARKS)
        aff = compose_affine(affine_subgroup("chord", 0.95 - 0.45 * eta),
                             affine_subgroup("twist", 0.05 + 0.20 * eta))
        sections.append(affine_apply(shape, aff))
    return build_blade(etas, landmarks(sections))


def test_criterion_01_gl2_decoupling(dataset):
    rng = np.random.default_rng(100)
    worst = 0.0
    for k in range(200):
        shape = LandmarkMatrix(dataset[k % len(dataset)].landmarks)
        m = rng.normal(size=(2, 2))
        while abs(np.linalg.det(m)) < 0.05:  # well-conditioned GL2 draw
            m = rng.normal(size=(2, 2))
        b = rng.normal(size=2)
        base = la_standardize(shape).point
        moved = la_standardize(
            LandmarkMatrix(shape.points @ m + b)).point
        worst = max(worst, distance(base, moved))
    report(1, "GL2 decoupling of standardization", worst < 1e-10,
           f"worst subspace distance {worst:.3e}")


def test_criterion_02_riemannian_kernel():
    rng = np.random.default_rng(200)
    worst_trip = 0.0
    for _ in range(500):
        p = random_point(rng, N_LANDMARKS)
        q = random_point(rng, N_LANDMARKS)
        back = exp_map(p, log_map(p, q))
        worst_trip = max(worst_trip, distance(back, q))

    worst_geo = 0.0
    for _ in range(20):
        p = random_point(rng, N_LANDMARKS)
        q = random_point(rng, N_LANDMARKS)
        d = distance(p, q)
        worst_geo = max(worst_geo, distance(along(p, q, 0.0), p),
                        distance(along(p, q, 1.0), q))
        for t in (0.25, 0.5, 0.75):
            mid = along(p, q, t)
            worst_geo = max(worst_geo, abs(distance(p, mid) - t * d))

    worst_iso = 0.0
    for _ in range(200):
        p = random_point(rng, N_LANDMARKS)
        v = random_horizontal(rng, p, scale=rng.uniform(0.1, 1.2))
        w1 = random_horizontal(rng, p, scale=rng.uniform(0.2, 2.0))
        w2 = random_horizontal(rng, p, scale=rng.uniform(0.2, 2.0))
        t1 = parallel_transport(p, v, w1, 1.0)
        t2 = parallel_transport(p, v, w2, 1.0)
        worst_iso = max(worst_iso, abs(inner(t1, t2) - inner(w1, w2)))

    ok = worst_trip < 1e-9 and worst_geo < 1e-9 and worst_iso < 1e-10
    report(2, "exp/log round trips, geodesics, transport isometry", ok,
           f"trip {worst_trip:.3e}, geodesic {worst_geo:.3e}, "
           f"isometry {worst_iso:.3e}")


def test_criterion_03_karcher_mean(decomposed, dataset_karcher):
    rng = np.random.default_rng(300)
    p, q = random_point(rng, N_LANDMARKS), random_point(rng, N_LANDMARKS)
    mid = GrassmannPoint(karcher_mean(stack([p, q])).point)
    equidistance = abs(distance(mid, p) - distance(mid, q))

    points = [d.point for d in decomposed]
    mean = GrassmannPoint(dataset_karcher.point)
    grad = np.zeros((N_LANDMARKS, 2))
    for point in points:
        grad += log_map(mean, point).mat
    residual = float(np.linalg.norm(grad / len(points)))

    ok = equidistance < 1e-9 and residual < 1e-10
    report(3, "Karcher mean midpoint and dataset convergence", ok,
           f"equidistance {equidistance:.3e}, gradient {residual:.3e}")


def test_criterion_04_pga_oracle():
    rng = np.random.default_rng(400)
    base = random_point(rng, N_LANDMARKS)
    b1 = random_horizontal(rng, base)
    raw = random_horizontal(rng, base).mat.copy()
    raw -= inner(TangentVector(raw, base), b1) * b1.mat
    b2 = TangentVector(raw / np.linalg.norm(raw), base)
    half = rng.normal(size=(150, 2)) * 0.05
    coeffs = np.vstack([half, -half])
    shapes = [
        exp_map(base, TangentVector(c1 * b1.mat + c2 * b2.mat, base))
        for c1, c2 in coeffs
    ]
    model = pga_fit(base.rep, logs_at(base.rep, stack(shapes)), 6)

    planted = np.column_stack(
        [flatten_tangent(b1.mat), flatten_tangent(b2.mat)])
    fitted = flatten_tangent(model.basis[:2]).T
    sines = np.linalg.svd(fitted - planted @ (planted.T @ fitted),
                          compute_uv=False)
    angle = float(np.max(sines))

    mean_sq = float(np.mean(
        [log_map(base, s).norm ** 2 for s in shapes]))
    trace_gap = abs(float(np.sum(model.eigenvalues)) - mean_sq) / mean_sq

    ok = angle < 1e-6 and trace_gap < 1e-8
    report(4, "planted PGA subspace and trace identity", ok,
           f"principal angle {angle:.3e}, trace gap {trace_gap:.3e}")


def test_criterion_05_dataset_regeneration(dataset):
    counts_ok = len(dataset) == 16 + N_PERTURBATIONS
    all_valid = all(validate_shape(LandmarkMatrix(d.landmarks)).passed
                    for d in dataset)
    rerun = gen_dataset_detailed(default_baselines(), N_PERTURBATIONS, 0.2,
                                 seed=SEED, n=N_LANDMARKS)
    identical = all(
        np.array_equal(a.landmarks, b.landmarks)
        and np.array_equal(a.coefficients, b.coefficients)
        for a, b in zip(dataset, rerun))
    ok = counts_ok and all_valid and identical
    report(5, "dataset regenerates valid and bit-identical", ok,
           f"shapes {len(dataset)}, all valid {all_valid}, "
           f"rerun identical {identical}")


def test_criterion_06_r4_pipeline(model):
    nonincreasing = bool(np.all(np.diff(model.eigenvalues) <= 0.0))
    rng = np.random.default_rng(600)
    worst = 0.0
    inside = 0
    for _ in range(100):
        u = rng.normal(size=4)
        u *= rng.uniform() ** 0.25 / np.linalg.norm(u)
        t = 0.9 * model.ellipsoid_radii * u
        if domain_contains(model, t):
            inside += 1
        back = coords_of(model, synthesize(model, t))
        worst = max(worst, float(np.max(np.abs(back - t))))
    ok = model.r == 4 and nonincreasing and inside == 100 and worst < 1e-8
    report(6, "r=4 model with coords/synthesize round trip", ok,
           f"eigenvalues non-increasing {nonincreasing}, "
           f"in-domain {inside}/100, worst round trip {worst:.3e}")


def test_criterion_07_sweep_validity(decomposed, model):
    affine = mean_affine(np.array([d.affine.linear for d in decomposed]),
                         np.array([d.affine.translation for d in decomposed]))
    lo = model.bounds_min
    hi = model.bounds_max
    rng = np.random.default_rng(700)
    valid = 0
    total = 0
    for _ in range(4):
        mask = rng.integers(0, 2, size=4).astype(bool)
        a = np.where(mask, hi, lo)
        b = np.where(mask, lo, hi)
        for i in range(20):
            s = i / 19.0
            point = synthesize(model, (1.0 - s) * a + s * b)
            diag = validate_shape(reconstruct_with(point, affine))
            total += 1
            valid += int(diag.rank_ok and diag.simple)
    report(7, "corner sweeps give full-rank simple shapes", valid == total,
           f"{valid}/{total} valid")


def test_criterion_08_blade_interpolation(synthetic_blade):
    blade = synthetic_blade
    worst_knot = 0.0
    for eta, section in zip(blade.etas, blade.sections):
        got = interpolate_section(blade, float(eta))
        gap = np.linalg.norm(got.points - section)
        worst_knot = max(worst_knot, gap / np.linalg.norm(section))

    scan_ok = True
    for eta in np.linspace(0.0, 1.0, 200):
        scan_ok = scan_ok and validate_shape(
            interpolate_section(blade, float(eta))).passed

    h = 1e-12
    worst_jump = 0.0
    for eta in blade.etas[1:-1]:
        left = interpolate_section(blade, float(eta) - h).points
        right = interpolate_section(blade, float(eta) + h).points
        worst_jump = max(worst_jump, float(np.max(np.abs(left - right))))

    ok = worst_knot < 1e-8 and scan_ok and worst_jump < 1e-10
    report(8, "blade reproduces knots, scans valid, continuous", ok,
           f"knot {worst_knot:.3e}, scan valid {scan_ok}, "
           f"knot jump {worst_jump:.3e}")


def test_criterion_09_consistent_perturbation(synthetic_blade, model):
    blade = synthetic_blade
    untouched = perturb_blade(blade, model, np.zeros(4))
    noop = untouched is blade

    t = np.array([0.01, -0.005, 0.002, 0.0])
    moved = perturb_blade(blade, model, t)
    norms = [distance(GrassmannPoint(a), GrassmannPoint(b))
             for a, b in zip(blade.frames, moved.frames)]
    spread = float(np.max(norms) - np.min(norms))

    count = design_parameter_count(blade, model)
    ok = noop and spread < 1e-10 and count == 10 and 7 <= count <= 10
    report(9, "perturbation is consistent across stations", ok,
           f"no-op {noop}, norm spread {spread:.3e}, parameters {count}")


def test_criterion_10_procrustes():
    rng = np.random.default_rng(1000)
    worst_recovery = 0.0
    for phi in rng.uniform(-np.pi, np.pi, size=20):
        p = random_point(rng, N_LANDMARKS)
        c, s = np.cos(phi), np.sin(phi)
        q = GrassmannPoint(p.rep @ np.array([[c, -s], [s, c]]))
        r = procrustes_rotation(p, q)
        worst_recovery = max(worst_recovery,
                             float(np.max(np.abs(p.rep - q.rep @ r))))

    grid = np.linspace(0.0, 2.0 * np.pi, 3600, endpoint=False)
    rotations = np.stack([
        np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
        for a in grid
    ])
    never_beaten = True
    for _ in range(10):
        p = random_point(rng, N_LANDMARKS)
        q = random_point(rng, N_LANDMARKS)
        r = procrustes_rotation(p, q)
        closed = float(np.linalg.norm(p.rep - q.rep @ r))
        candidates = np.einsum("nk,akj->anj", q.rep, rotations)
        grid_best = float(np.min(np.linalg.norm(
            candidates - p.rep[None], axis=(1, 2))))
        never_beaten = never_beaten and closed <= grid_best + 1e-12

    ok = worst_recovery < 1e-12 and never_beaten
    report(10, "Procrustes exact recovery, beats grid search", ok,
           f"recovery {worst_recovery:.3e}, "
           f"never beaten by grid {never_beaten}")
