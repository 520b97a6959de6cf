"""The kernels' stack arithmetic against the numpy expressions it replaced.

numpy reduces an ``(N, n, q)`` stack over its landmark axis, and broadcasts
an ``(N, 1, q)`` factor over it, with an inner loop over the q columns.
``stacks.landmark_sum`` and ``stacks.per_shape``, the drawing bounds and
view transform in ``svg`` and the integer keep words of
``codec.path_data`` do the same arithmetic with loops over shapes or
landmarks. Each is checked against the expression it replaced, kept here
as the oracle: sums, means, norms and per-shape factors to the bit, minima
and maxima to the value (they may take either of two signed zeros), and
drawings to the byte.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassfoil import codec, svg
from grassfoil import grassmann as gm
from grassfoil.stacks import landmark_sum, per_shape

CHUNK = gm._CHUNK
SIZES = [1, CHUNK - 1, CHUNK + 1, 1016]


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == \
        np.ascontiguousarray(b).tobytes()


@st.composite
def landmark_stacks(draw, columns=(2,)):
    """An ``(N, n, q)`` stack with N in ``SIZES``, an odd or even n, random
    signs and magnitudes between 1e-300 and 1e150, and some signed zeros."""
    shape = (draw(st.sampled_from(SIZES)),
             draw(st.sampled_from([3, 4, 40, 401])),
             draw(st.sampled_from(columns)))
    low = draw(st.integers(-300, 150))
    high = draw(st.integers(low, 150))
    zeros = draw(st.sampled_from([0.0, 0.1, 0.6]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(low, high, shape)
    return np.where(rng.random(shape) < zeros, np.copysign(0.0, x), x)


@given(landmark_stacks(columns=(2, 3)))
@settings(max_examples=40, deadline=None)
def test_landmark_sums_are_numpy_s_bits(x):
    assert same_bits(landmark_sum(x), x.sum(axis=1))
    assert same_bits(landmark_sum(x) / x.shape[1], x.mean(axis=1))
    assert same_bits(np.sqrt(landmark_sum(x * x)), np.linalg.norm(x, axis=1))


@given(landmark_stacks())
@settings(max_examples=10, deadline=None)
def test_landmark_sums_do_not_depend_on_the_layout(x):
    # numpy's own sum of a stack whose landmarks are its smallest stride
    # adds them pairwise; the landmark sum adds in order whatever the layout
    fortran = np.asfortranarray(x)
    swapped = np.ascontiguousarray(x.swapaxes(1, 2)).swapaxes(1, 2)
    for layout in (fortran, swapped):
        assert same_bits(landmark_sum(layout), x.sum(axis=1))


@pytest.mark.parametrize("op", [np.subtract, np.multiply, np.divide])
@given(x=landmark_stacks(columns=(1, 2, 3)),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=15, deadline=None)
def test_per_shape_factors_are_numpy_s_bits(op, x, seed):
    rng = np.random.default_rng(seed)
    factors = x[:, rng.integers(0, x.shape[1])].copy()  # zeros, huge, tiny
    with np.errstate(all="ignore"):
        expected = op(x, factors[:, None])
        assert same_bits(per_shape(op, x, factors), expected)
        assert same_bits(per_shape(op, x, factors, out=x), expected)


@given(landmark_stacks())
@settings(max_examples=30, deadline=None)
def test_drawing_corners_are_numpy_s_values(x):
    lo, hi = svg._corners(x, None)
    np.testing.assert_array_equal(lo, x.min(axis=(0, 1)))
    np.testing.assert_array_equal(hi, x.max(axis=(0, 1)))
    lo, hi = svg._corners(x, 1)
    np.testing.assert_array_equal(lo, x.min(axis=1))
    np.testing.assert_array_equal(hi, x.max(axis=1))


def parent_corners(stack, axis):
    axis = (0, 1) if axis is None else axis
    return stack.min(axis=axis), stack.max(axis=axis)


def parent_to_view(canvas, pts):
    out = canvas.offset + canvas.scale[..., None] * (pts - canvas.lo)
    out[..., 1] = canvas.height - out[..., 1]
    return out


@given(landmark_stacks())
@settings(max_examples=20, deadline=None)
def test_view_transform_is_the_parent_s_bits(x):
    x = x[:40]
    for canvas in (svg._Canvas(*parent_corners(x, None), 720.0, 360.0, 20.0),
                   svg._Canvas(*parent_corners(x, 1), 130.0, 130.0, 10.0)):
        with np.errstate(all="ignore"):
            assert same_bits(canvas.to_view(x), parent_to_view(canvas, x))


def signed_zero_family() -> np.ndarray:
    """Shapes over several drawing chunks whose extreme coordinates are
    zeros of both signs, alone in a column or beside other values."""
    rng = np.random.default_rng(5)
    shapes = rng.uniform(0.0, 1.0, (3 * svg._CHUNK + 5, 11, 2))
    shapes[:, :, 1] *= rng.choice([-1.0, 1.0], shapes.shape[:2])
    shapes[:, ::3, 0] = 0.0
    shapes[1::2, ::3, 0] = -0.0
    shapes[7] = np.copysign(0.0, shapes[7])
    shapes[-1, :, 1] = -0.0
    return shapes


@pytest.mark.parametrize("render", [svg.render_shapes, svg.render_strip])
def test_drawings_of_signed_zeros_are_the_parent_s_bytes(render, monkeypatch):
    family = signed_zero_family()
    runs = [family[:30], family[30:], family[7:8], np.zeros((2, 5, 2)),
            -np.zeros((2, 5, 2))]
    drawings = [render(runs), render([family])]
    monkeypatch.setattr(svg, "_corners", parent_corners)
    monkeypatch.setattr(svg._Canvas, "to_view", parent_to_view)
    assert drawings == [render(runs), render([family])]


@given(st.lists(st.integers(0, 7), min_size=1, max_size=60),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=50)
def test_integer_keep_words_are_the_parent_s_bytes(digits, seed):
    index = np.array(digits).reshape(1, -1)
    words = np.random.default_rng(seed).integers(
        0, 2 ** 32, (1, index.size, 4), dtype=np.uint64).astype("<u4")
    old_table = (np.arange(8) >= 7 - np.arange(8)[:, None]).view("<u4")
    expected = words.copy()
    expected[..., 1:3] = old_table[index]
    keep = words.copy()
    keep.view(np.uint8)[..., 4:12].view("<u8")[..., 0] = \
        codec._INTEGER_KEEP[index]
    assert keep.tobytes() == expected.tobytes()
