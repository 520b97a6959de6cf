"""One rule, one outcome: every entry point that takes affine factors or
tangents raises, for the same fault, the type and message of the rule's
one owner (``geometry.check_affines``, ``grassmann.check_tangents``), with
the first faulty item's position as ``shape_index``."""

import math

import numpy as np
import pytest

from grassfoil.blade import (BladeDefinition, build_blade, export_wireframe,
                             interpolate_section)
from grassfoil.errors import (DimensionError, Gl2ViolationError,
                              GrassfoilError, ParameterError, TangencyError)
from grassfoil.geometry import AffineMap, cst_evaluate_stack, default_baselines
from grassfoil.grassmann import (GrassmannPoint, TangentVector, exp_map_stack,
                                 log_map_stack, standardize_stack,
                                 transport_stack)
from grassfoil.pga import PgaModel

POINTS = cst_evaluate_stack(
    np.array([p.as_vector() for p in default_baselines()[:4]]), 11)
BLADE = build_blade([0.0, 0.3, 0.6, 1.0], POINTS)
MEAN = BLADE.frames[0]
DIRECTIONS = log_map_stack(MEAN, BLADE.frames[1:])  # horizontal at MEAN


def raised(call):
    with pytest.raises(GrassfoilError) as err:
        call()
    return type(err.value), str(err.value), err.value.shape_index


def nan_entry(m, b):
    m = m.copy()
    m[0, 1] = math.nan
    return m, b


def huge_translation(m, b):
    return m, np.array([b[0], 1e151])


def singular(m, b):
    return 1e-7 * np.eye(2), b


def subnormal(m, b):
    """A singular factor of subnormal entries, whose LU pivot is 0."""
    return np.array([[0.0, 5e-324], [5e-324, 5e-324]]), b


# each fault of one affine factor, and the error its owner raises for it
AFFINE_FAULTS = {
    "nan": (nan_entry, ParameterError, "affine map contains non-finite values"),
    "huge": (huge_translation, ParameterError,
             "affine map exceeds 1e+150 in magnitude"),
    "singular": (singular, Gl2ViolationError,
                 "linear factor is rank deficient (|det| <= 1e-12); the "
                 "deformation would collapse landmarks onto a line"),
    "subnormal": (subnormal, Gl2ViolationError,
                  "linear factor is rank deficient (|det| <= 1e-12); the "
                  "deformation would collapse landmarks onto a line"),
}


def affine_map(fault, position):
    return lambda: AffineMap(*fault(BLADE.linear[0], BLADE.translation[0]))


def blade_definition(fault, position):
    arrays = [getattr(BLADE, name).copy() for name in
              ("etas", "sections", "frames", "linear", "translation")]
    linear, translation = arrays[3], arrays[4]
    linear[position], translation[position] = fault(linear[position],
                                                    translation[position])
    linear[-1] = 0.0  # a later station is singular too
    return lambda: BladeDefinition(*arrays)


def standardized(fault, position):
    points = POINTS.copy()
    points[[position, -1]] *= 1e-7  # |det| of the linear factor < 1e-12
    return lambda: standardize_stack(points)


# m00 falls linearly from 1 to -1 over the span, so the interpolated factor
# is singular at eta 0.5, the third span of a 5-span wireframe
FRAMES = np.array([np.eye(6)[:, :2]] * 2)
TURN = np.array([np.eye(2), np.diag([-1.0, 1.0])])
TURNING = BladeDefinition([0.0, 1.0], FRAMES @ TURN, FRAMES, TURN,
                          np.zeros((2, 2)))

# entry point: (make the call from a fault and a position, the positions it
# can take a fault at, the faults its input can carry). Landmarks and
# interpolated spans carry only a singular factor: standardization raises
# its own errors for landmarks that are not finite or too large, and the
# profiles of a checked blade stay finite and within its stations' range.
AFFINE_CALLS = {
    "AffineMap": (affine_map, [0], sorted(AFFINE_FAULTS)),
    "BladeDefinition": (blade_definition, [0, 2], sorted(AFFINE_FAULTS)),
    "standardize_stack": (standardized, [0, 2], ["singular"]),
    "interpolate_section": (lambda fault, position: lambda:
                            interpolate_section(TURNING, 0.5), [0],
                            ["singular"]),
    "export_wireframe": (lambda fault, position: lambda:
                         export_wireframe(TURNING, 5), [2], ["singular"]),
}


@pytest.mark.parametrize("entry, kind, position", [
    (entry, kind, position) for entry, (_, positions, kinds)
    in sorted(AFFINE_CALLS.items()) for kind in kinds for position in positions])
def test_an_affine_fault_raises_one_outcome_everywhere(entry, kind, position):
    make, _, _ = AFFINE_CALLS[entry]
    fault, error, message = AFFINE_FAULTS[kind]
    assert raised(make(fault, position)) == (error, message, position)


def nan_tangent(d):
    d = d.copy()
    d[0, 0] = math.nan
    return d


def vertical(d):
    return d + 0.1 * MEAN


TANGENT_FAULTS = {
    "nan": (nan_tangent, vertical, DimensionError,
            "tangent vector contains non-finite values"),
    "not-horizontal": (vertical, nan_tangent, TangencyError,
                       "vector is not horizontal at its base point"),
}


def faulty_directions(kind, position):
    """``DIRECTIONS`` with the fault ``kind`` at ``position`` and the other
    fault at the last direction."""
    fault, other, _, _ = TANGENT_FAULTS[kind]
    directions = DIRECTIONS.copy()
    directions[-1] = other(directions[-1])
    directions[position] = fault(directions[position])
    return directions


def pga_model(directions):
    r = len(directions)
    return PgaModel(MEAN, directions, np.ones(r),
                    -np.ones(r), np.ones(r), np.ones(r),
                    np.zeros((1, r)))


TANGENT_CALLS = {
    "TangentVector": (lambda d: TangentVector(d[0], GrassmannPoint(MEAN)),
                      [0]),
    "PgaModel": (pga_model, [0, 1]),
    "transport_stack": (lambda d: transport_stack(MEAN, d, DIRECTIONS[:1]),
                        [0, 1]),
    "exp_map_stack": (lambda d: exp_map_stack(MEAN, d), [0, 1]),
}


@pytest.mark.parametrize("entry, kind, position", [
    (entry, kind, position) for entry, (_, positions)
    in sorted(TANGENT_CALLS.items()) for kind in sorted(TANGENT_FAULTS)
    for position in positions])
def test_a_tangent_fault_raises_one_outcome_everywhere(entry, kind, position):
    call, _ = TANGENT_CALLS[entry]
    _, _, error, message = TANGENT_FAULTS[kind]
    directions = faulty_directions(kind, position)
    assert raised(lambda: call(directions)) == (error, message, position)
