"""Tests for ``codec.repr_text``, the bulk shortest round-trip float text.

``float.__repr__`` is the oracle: every element must come out byte for byte
as it writes it, whether the kernel settled it in bulk or handed it back.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassfoil import codec
from grassfoil import io as gio
from grassfoil.blade import build_blade, perturb_blade
from grassfoil.geometry import (affine_apply, affine_subgroup, compose_affine,
                                cst_evaluate, default_baselines, perturb_cst)
from grassfoil.grassmann import la_standardize
from grassfoil.pga import karcher_mean, pga_fit

from conftest import landmarks, stack


def reprs(values) -> list[str]:
    return [float.__repr__(v) for v in np.asarray(values, float).tolist()]


def kernel(values, bulk: bool = True) -> list[str]:
    """The kernel's tokens, with ``codec.EXACT_LONGDOUBLE`` as found or
    patched off, when every value goes to float.__repr__."""
    with pytest.MonkeyPatch.context() as patch:
        if not bulk:
            patch.setattr(codec, "EXACT_LONGDOUBLE", False)
        return codec.repr_text(values, b" ").split(" ")[:-1]


both = pytest.mark.parametrize("bulk", [True, False],
                               ids=["bulk", "longdouble-off"])


def neighbours(values) -> list[float]:
    return [w for v in values for w in (v, math.nextafter(v, 0.0),
                                        math.nextafter(v, math.inf))]


# one to seventeen digits, at every fixed-point exponent and just outside
SHORT = [float(f"{'12345678901234567'[:p]}e{e - p + 1}")
         for p in range(1, 18) for e in range(-6, 18)]
EDGES = (neighbours([2.0 ** k for k in range(-20, 60)]
                    + [10.0 ** k for k in range(-6, 18)]
                    + [1e-4, 1e16, 0.1, 0.3, 2.0 / 3.0, 9.999999999999999e15,
                       123456.0, 5e-324, 2.2250738585072014e-308,
                       1.7976931348623157e308])
         + neighbours(SHORT)
         + [0.0, math.nan, math.inf])
EDGES += [-v for v in EDGES]


@both
def test_edge_values_match_repr(bulk):
    assert kernel(EDGES, bulk) == reprs(EDGES)


# every exponent band, subnormals and non-finite values from the raw bits,
# and the fixed-point band more often
exponent_bits = st.integers(0, 2047) | st.integers(0x3F0, 0x434)
raw_floats = st.builds(
    lambda sign, exponent, fraction: float(np.uint64(
        sign << 63 | exponent << 52 | fraction).view(np.float64)),
    st.integers(0, 1), exponent_bits, st.integers(0, 2 ** 52 - 1)
    | st.sampled_from([0, 1, 2 ** 51, 2 ** 52 - 1]))


@both
@given(values=st.lists(raw_floats, max_size=40))
@settings(max_examples=200, deadline=None)
def test_raw_bit_patterns_match_repr(bulk, values):
    assert kernel(values, bulk) == reprs(values)  # and warns of nothing


@both
def test_random_values_match_repr(bulk):
    rng = np.random.default_rng(7)
    values = np.concatenate([rng.normal(size=2000) * scale for scale in
                             (1e-3, 1e-1, 1.0, 1e3, 1e8, 1e14)])
    rounded = np.array([round(v, k) for v, k in zip(
        rng.normal(size=2000).tolist(), rng.integers(0, 14, 2000).tolist())])
    assert kernel(values, bulk) == reprs(values)
    assert kernel(rounded, bulk) == reprs(rounded)


def test_separators_cycle_and_shapes_flatten():
    grid = np.arange(12.0).reshape(2, 2, 3) / 8
    assert codec.repr_text(grid, b",,\n") == "".join(
        f"{a!r},{b!r},{c!r}\n" for a, b, c in grid.reshape(-1, 3).tolist())
    assert codec.repr_text(np.zeros(0), b" ") == ""
    assert codec.repr_text([-0.0, 1e300], b";") == "-0.0;1e+300;"


# The blade-perturb payload: a bare benchmark-style blade (CST sections of
# one baseline under chord and twist affines), rebuilt and perturbed at a
# point inside the model's domain.
@pytest.fixture(scope="module")
def perturbed_blade():
    rng = np.random.default_rng([1, 3])
    base = default_baselines()[3]
    sections = []
    for eta in np.linspace(0.0, 1.0, 9):
        aff = compose_affine(affine_subgroup("chord", 0.95 - 0.45 * eta),
                             affine_subgroup("twist", 0.05 + 0.20 * eta))
        params = perturb_cst(base, 0.10, int(rng.integers(2 ** 31)))
        sections.append(affine_apply(cst_evaluate(params, 101), aff))
    blade = build_blade(np.linspace(0.0, 1.0, 9), landmarks(sections))
    points = [la_standardize(cst_evaluate(perturb_cst(
        default_baselines()[k], 0.15, seed=40 + k), 101)).point
        for k in range(8)]
    result = karcher_mean(stack(points))
    model = pga_fit(result.point, result.logs, 4)
    return perturb_blade(blade, model, 0.25 * model.ellipsoid_radii / 2)


def test_blade_payload_is_settled_in_bulk(tmp_path, monkeypatch,
                                          perturbed_blade):
    """The fast path runs: a kernel that handed every value to
    float.__repr__ would keep the bytes and lose the speed."""
    seen = []
    real = codec.repr_text

    def record(values, separators):
        seen.append(np.asarray(values, float).ravel())
        return real(values, separators)

    monkeypatch.setattr(codec, "repr_text", record)
    gio.write_blade(tmp_path / "blade.json", perturbed_blade)
    values = np.concatenate(seen)
    assert values.size == 9 * (2 * 101 * 2 + 6)
    settled = codec._shortest(values)[3]
    assert settled.mean() >= 0.95
    assert kernel(values) == reprs(values)
