"""Shared fixtures and random-object helpers for the test suite."""

import numpy as np
import pytest

from grassfoil.geometry import cst_evaluate, default_baselines, perturb_cst
from grassfoil.grassmann import (GrassmannPoint, TangentVector, exp_map_stack,
                                 la_standardize, log_map)


def random_point(rng: np.random.Generator, n: int) -> GrassmannPoint:
    """Uniform-ish random point of G(n, 2) from a Gaussian matrix."""
    return GrassmannPoint(rng.normal(size=(n, 2)))


def stack(points) -> np.ndarray:
    """The (N, n, 2) stack of the points' representatives."""
    return np.array([p.rep for p in points])


def landmarks(shapes) -> np.ndarray:
    """The (N, n, 2) stack of the shapes' landmarks."""
    return np.array([s.points for s in shapes])


def random_horizontal(rng: np.random.Generator, point: GrassmannPoint,
                      scale: float = 1.0) -> TangentVector:
    """Random horizontal tangent at ``point`` with Frobenius norm ``scale``."""
    raw = rng.normal(size=(point.n, 2))
    raw -= point.rep @ (point.rep.T @ raw)
    norm = np.linalg.norm(raw)
    if norm == 0.0:
        raise ValueError("degenerate random draw")
    return TangentVector(raw * (scale / norm), point)


def along(p: GrassmannPoint, q: GrassmannPoint, t: float) -> GrassmannPoint:
    """Point a fraction ``t`` along the geodesic from ``p`` toward ``q``."""
    return GrassmannPoint(exp_map_stack(p.rep, log_map(p, q).mat[None], t)[0])


@pytest.fixture(scope="session")
def airfoil_points():
    """Standardized Grassmann points for a small airfoil family, n = 101."""
    points = []
    for k in range(12):
        params = perturb_cst(default_baselines()[k % 16], 0.15, seed=900 + k)
        points.append(la_standardize(cst_evaluate(params, 101)).point)
    return points


def fmt(value: float) -> str:
    """A drawing's number, one at a time: "%.3f" less its trailing zeros and
    a bare point; the oracle of the bulk path formatting."""
    return f"{value:.3f}".rstrip("0").rstrip(".")


def per_coordinate_path(pts) -> str:
    """The closed path data of an (n, 2) shape, formatted by ``fmt``."""
    return "M " + " L ".join(f"{fmt(x)} {fmt(y)}" for x, y in pts) + " Z"
