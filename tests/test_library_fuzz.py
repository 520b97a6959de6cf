"""Library fuzz: each exported stack entry point, the design-space calls
that take normal coordinates or frames, the blade calls and the value
types, given malformed input, return a result or raise a GrassfoilError,
and never warn."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grassfoil
from grassfoil.blade import (BladeDefinition, build_blade, export_wireframe,
                             interpolate_section, perturb_blade)
from grassfoil.errors import GrassfoilError
from grassfoil.geometry import (AffineMap, CstParams, LandmarkMatrix,
                                cst_evaluate_stack, cst_sweep,
                                default_baselines, gen_dataset,
                                gen_dataset_detailed, perturb_cst,
                                sweep_points, validate_shape, validate_stack)
from grassfoil.grassmann import (GrassmannPoint, TangentVector, exp_map_stack,
                                 la_standardize, log_map_stack, mean_affine,
                                 standardize_stack, transport_stack)
from grassfoil.pga import (PgaModel, coords_of, corner_sweep, domain_contains,
                           karcher_mean, logs_at, pga_fit, synthesize)

COEFFS = np.array([p.as_vector() for p in default_baselines()[:4]])
POINTS = cst_evaluate_stack(COEFFS, 11)
FRAMES, LINEAR, TRANSLATION = standardize_stack(POINTS)
MEAN = FRAMES[0]
LOGS = logs_at(MEAN, FRAMES)
# a frame orthogonal to FRAMES[0], so at its cut locus
ANTIPODAL = np.linalg.qr(FRAMES[1] - FRAMES[0] @ (FRAMES[0].T @ FRAMES[1]))[0]

BAD_NUMBERS = [math.nan, math.inf, -math.inf, 1e155, -1e155]
RESHAPES = [
    lambda x: x[..., :-1],
    lambda x: x[None],
    lambda x: x.reshape(-1),
    lambda x: x[0],
    lambda x: x.swapaxes(0, -1),
    lambda x: x[:0],
]


def poisoned(x, index, value):
    x = x.copy()
    x.flat[index] = value
    return x


def ragged(x):
    rows = x.tolist()
    if x.ndim == 1:
        return [rows, rows[:-1]]
    rows[-1] = rows[-1][:-1]
    return rows


def with_antipodal(x):
    """``x`` with its last frame, or itself if it is one frame, replaced by
    ``ANTIPODAL``; other shapes as they are."""
    if x.shape == ANTIPODAL.shape:
        return ANTIPODAL.copy()
    x = x.copy()
    if x.shape[1:] == ANTIPODAL.shape:
        x[-1] = ANTIPODAL
    return x


def perturbed(valid, seed, scale):
    """``valid`` plus ``scale`` times the standard normal draws of ``seed``."""
    return valid + scale * np.random.default_rng(seed).standard_normal(
        valid.shape)


def arrays(valid):
    """``valid``, as it is or broken in one way: a wrong shape, a str, bool
    or object dtype, one entry set to any float (NaN, inf and 1e155 often),
    a small random perturbation, a ragged list, a stack that is not
    orthonormal, an antipodal frame, or repeated items."""
    return st.one_of(
        st.just(valid),
        st.sampled_from(RESHAPES).map(lambda reshape: reshape(valid)),
        st.sampled_from([str, bool, object]).map(valid.astype),
        st.tuples(st.integers(0, valid.size - 1),
                  st.sampled_from(BAD_NUMBERS) | FLOATS).map(
                      lambda fault: poisoned(valid, *fault)),
        st.tuples(st.integers(0, 2**32 - 1), st.floats(0.0, 1e-3)).map(
            lambda draw: perturbed(valid, *draw)),
        st.sampled_from([valid.tolist(), ragged(valid), valid * 1e155,
                         valid * 3.0, np.ones_like(valid),
                         np.zeros_like(valid), with_antipodal(valid),
                         valid[[0] * len(valid)]]))


# any float: NaN, +-inf, +-0, subnormal and huge
FLOATS = st.floats(allow_subnormal=True)


def counts(valid):
    return st.sampled_from([valid, np.int64(valid), float(valid), valid + 0.5,
                            True, False, str(valid), None, -1, 0, 1, 2]
                           ) | st.integers(-2, 200)


TOLERANCES = st.sampled_from([1e-10, np.float64(1e-10), math.nan, math.inf,
                              -math.inf, 0.0, -1.0, 1e155, True, "x", None]
                             ) | FLOATS
MEANS = arrays(MEAN) | st.just(MEAN[:9])
MODEL = pga_fit(MEAN, LOGS, 2)
COORDS = np.array([0.01, -0.02])
# huge but finite: far outside the domain, and past any square's range
HUGE_COORDS = st.sampled_from([COORDS * 1e200, np.full(2, 1.7e308),
                               np.array([-1e300, 1e-300]), [1e155, 0]]
                              ) | st.lists(FLOATS, min_size=1, max_size=3)

# a direction at each frame toward the next, and at FRAMES[0] toward each
STEPS = np.array([log_map_stack(f, FRAMES[[(i + 1) % len(FRAMES)]])[0]
                  for i, f in enumerate(FRAMES)])
DIRECTIONS = log_map_stack(FRAMES[0], FRAMES)
BASES = arrays(FRAMES[0]) | arrays(FRAMES)
PARAMETERS = st.sampled_from([1.0, 0.6, np.float64(0.5), 0, -2.0, 1e155,
                              math.nan, math.inf, True, "x", None])
BLADE = build_blade([0.0, 0.4, 1.0], POINTS[:3])
SPANS = st.sampled_from([0.3, 0, 1, np.float64(0.7), -0.1, 1.5, 1e155,
                         -1e155, math.nan, math.inf, 10**400, True, "x",
                         None, [0.3], np.array(0.3)]) | FLOATS
# frames: at the mean, near it, at its cut locus, of another landmark
# count, huge, anywhere along one geodesic, and a point object
SHAPES = st.sampled_from([MEAN, FRAMES[1], ANTIPODAL, FRAMES[0][:9],
                          FRAMES[2] * 1e155, GrassmannPoint(FRAMES[1])]
                         ) | st.floats(-20.0, 20.0).map(
    lambda t: exp_map_stack(FRAMES[0], t * DIRECTIONS[1:2])[0])
# base points of tangents: the mean, another frame, another landmark count
BASES_AT = st.sampled_from([GrassmannPoint(FRAMES[0]),
                            GrassmannPoint(FRAMES[1]),
                            GrassmannPoint(FRAMES[0][:9])])
# coefficient sets: valid, open at the trailing edge, collinear, crossing,
# too large to validate, past the float range once perturbed, and what is
# no CstParams
PARAMS = st.sampled_from([
    CstParams(COEFFS[0, :9], COEFFS[0, 9:]),
    CstParams(COEFFS[1, :9], COEFFS[1, 9:], 0.01),
    CstParams(np.zeros(9), np.zeros(9)),
    CstParams(-COEFFS[2, :9], -COEFFS[2, 9:]),
    CstParams(COEFFS[3, :9] * 1e200, COEFFS[3, 9:]),
    CstParams(np.full(9, 1.7e308), np.full(9, -1.7e308)),
    None, COEFFS[0], "x"])
BASELINES = st.lists(PARAMS, max_size=3) | st.sampled_from(
    [default_baselines()[:2], tuple(default_baselines()[2:4]), None,
     default_baselines()[0], COEFFS, "x"])
FRACTIONS = st.sampled_from([0.2, 0, 1, np.float64(0.5), -0.1, 1.5, math.nan,
                             math.inf, True, "x", None]) | st.floats(0.0, 1.0)
SEEDS = counts(3) | st.sampled_from([2**64, 2**200, np.uint64(2**63)])
ONE_SHAPE = arrays(POINTS[0]) | st.just(LandmarkMatrix(POINTS[1]))

FUZZED = {
    "standardize_stack": (standardize_stack, [arrays(POINTS)]),
    "log_map_stack": (log_map_stack, [arrays(FRAMES[0]), arrays(FRAMES)]),
    "validate_stack": (validate_stack, [arrays(POINTS)]),
    # one shape, as a plain array or as the value type
    "validate_shape": (validate_shape, [ONE_SHAPE]),
    "la_standardize": (la_standardize, [ONE_SHAPE]),
    "cst_evaluate_stack": (cst_evaluate_stack, [
        arrays(COEFFS), counts(11), arrays(np.full(len(COEFFS), 1e-3))]),
    "karcher_mean": (karcher_mean, [arrays(FRAMES), TOLERANCES, counts(50)]),
    "logs_at": (logs_at, [MEANS, arrays(FRAMES)]),
    "pga_fit": (pga_fit, [MEANS, arrays(LOGS), counts(2)]),
    "sweep_points": (sweep_points, [arrays(COEFFS[0]), arrays(COEFFS[1]),
                                    counts(5)]),
    "mean_affine": (mean_affine, [arrays(LINEAR), arrays(TRANSLATION)]),
    "synthesize": (synthesize, [st.just(MODEL), arrays(COORDS) | HUGE_COORDS]),
    "domain_contains": (domain_contains, [st.just(MODEL),
                                          arrays(COORDS) | HUGE_COORDS]),
    "exp_map_stack": (exp_map_stack, [BASES, arrays(DIRECTIONS)
                                      | arrays(STEPS), PARAMETERS]),
    "transport_stack": (transport_stack, [
        BASES, arrays(DIRECTIONS) | arrays(STEPS), arrays(DIRECTIONS[:2]),
        PARAMETERS]),
    "corner_sweep": (corner_sweep, [st.just(MODEL),
                                    arrays(COORDS) | HUGE_COORDS,
                                    arrays(-COORDS) | HUGE_COORDS, counts(5)]),
    "interpolate_section": (interpolate_section, [st.just(BLADE), SPANS]),
    "export_wireframe": (export_wireframe, [st.just(BLADE), counts(5),
                                            st.none() | counts(5)]),
    "perturb_blade": (perturb_blade, [st.just(BLADE), st.just(MODEL),
                                      arrays(COORDS) | HUGE_COORDS,
                                      TOLERANCES]),
    "build_blade": (build_blade, [arrays(BLADE.etas), arrays(POINTS[:3])
                                  | st.none()]),
    "BladeDefinition": (BladeDefinition, [
        arrays(getattr(BLADE, name)) for name in
        ("etas", "sections", "frames", "linear", "translation")]),
    "coords_of": (coords_of, [st.just(MODEL), SHAPES | arrays(FRAMES[0])
                              | st.none()]),
    "PgaModel": (PgaModel, [arrays(getattr(MODEL, name)) for name in (
        "mean", "basis", "eigenvalues", "bounds_min", "bounds_max",
        "ellipsoid_radii", "training_coords")]),
    "LandmarkMatrix": (LandmarkMatrix, [arrays(POINTS[0])]),
    "AffineMap": (AffineMap, [arrays(LINEAR[0]), arrays(TRANSLATION[0])]),
    "CstParams": (CstParams, [arrays(COEFFS[0, :9]), arrays(COEFFS[0, 9:]),
                              TOLERANCES | arrays(COEFFS[0, :2])]),
    "GrassmannPoint": (GrassmannPoint, [arrays(FRAMES[0])]),
    "perturb_cst": (perturb_cst, [PARAMS, FRACTIONS, SEEDS]),
    "cst_sweep": (cst_sweep, [PARAMS, PARAMS, counts(5), counts(11)]),
    "gen_dataset": (gen_dataset, [BASELINES, counts(6), FRACTIONS, SEEDS,
                                  counts(11)]),
    "gen_dataset_detailed": (gen_dataset_detailed, [
        BASELINES, counts(6), FRACTIONS, SEEDS, counts(11)]),
    "TangentVector": (TangentVector, [arrays(DIRECTIONS[1]), BASES_AT]),
}


@pytest.mark.parametrize("name", sorted(FUZZED))
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_entry_point_returns_or_raises_a_typed_error(name, data):
    call, slots = FUZZED[name]
    args = data.draw(st.tuples(*slots), label="args")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(*args)
        except GrassfoilError:
            pass


def test_every_exported_stack_function_is_fuzzed():
    stacks = {name for name in grassfoil.__all__ if name.endswith("_stack")}
    assert stacks and stacks <= set(FUZZED)
