"""The SVG writer's path data against numbers formatted one at a time.

``codec.path_data`` formats a stack of views in bulk; ``svg._path_data``
adds the number-by-number fallback. Both must give the bytes that ``fmt``
gives coordinate by coordinate, and the bulk kernel must keep its
temporaries to a few times its input.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassfoil import codec, svg
from grassfoil.errors import ParameterError
from grassfoil.geometry import cst_evaluate, default_baselines

from conftest import per_coordinate_path


def path_data(pts):
    return svg._path_data(np.asarray(pts, dtype=float)[None])[0]


CRAFTED = [0.0, -0.0, 1.0, 10.0, 100.0, 1000.0, 2.1, 2.12, 2.01, 2.001,
           0.1, 0.12, 0.01, 0.001, -0.0004, 0.0004, 0.0005, -0.0005,
           1.0996, 0.9999, 9.9996, 99.9999, 109.9999, -0.9999, 10.1,
           720.0, 1300.0, 19.9995, 0.0625, 0.1875, 2.5625, -1299.9375,
           99999999.9994, 99999999.9995, 1e8, -1e8, 12345678.0625,
           1e20, -1e20, 1e-20, 5e-324,
           float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("x", CRAFTED)
def test_path_data_matches_per_coordinate_format_on_crafted_values(x):
    pts = [(x, 1.0), (0.5, x), (x, x), (-x, 2.0)]
    assert path_data(pts) == per_coordinate_path(pts)


def test_kernel_rounds_exact_ties_half_to_even():
    # multiples of 1/16 are exact, and every other one with a fourth
    # decimal of 5 sits exactly on a tie at three decimals
    values = np.arange(-2 ** 15, 2 ** 15) / 16
    views = np.stack([values, -values], axis=-1).reshape(64, -1, 2)
    got = codec.path_data(views)
    if codec.EXACT_LONGDOUBLE:
        assert None not in got
        assert got == [per_coordinate_path(view) for view in views]


def test_kernel_leaves_what_it_cannot_settle():
    views = np.zeros((5, 3, 2))
    views[1, 2, 0] = np.nan
    views[2, 0, 1] = -np.inf
    views[3, 1, 1] = 99999999.9995  # rounds up to nine integer digits
    views[4, 1, 1] = -99999999.9994
    got = codec.path_data(views)
    if codec.EXACT_LONGDOUBLE:
        assert [d is None for d in got] == [False, True, True, True, False]
        assert got[4] == per_coordinate_path(views[4])
    assert svg._path_data(views) == [per_coordinate_path(v) for v in views]


@given(st.lists(st.tuples(st.floats(), st.floats()), min_size=1, max_size=30))
@settings(max_examples=300)
def test_path_data_matches_per_coordinate_format(pairs):
    assert path_data(pairs) == per_coordinate_path(pairs)


@given(st.lists(st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)),
                min_size=1, max_size=30))
@settings(max_examples=300)
def test_path_data_matches_per_coordinate_format_in_viewport_range(pairs):
    assert path_data(pairs) == per_coordinate_path(pairs)


@given(st.lists(st.lists(st.tuples(st.floats(-2e3, 2e3),
                                   st.floats(-2e3, 2e3)),
                         min_size=4, max_size=4), min_size=1, max_size=20))
@settings(max_examples=100)
def test_kernel_matches_per_coordinate_format_on_stacks(shapes):
    views = np.array(shapes)
    assert svg._path_data(views) == [per_coordinate_path(v) for v in views]


def test_codec_off_gives_the_same_paths(monkeypatch):
    views = np.array([cst_evaluate(params, 41).points * 700.0 - 3.0
                      for params in default_baselines()])
    on = svg._path_data(views)
    monkeypatch.setattr(codec, "EXACT_LONGDOUBLE", False)
    assert codec.path_data(views) == [None] * len(views)
    assert svg._path_data(views) == on == [
        per_coordinate_path(v) for v in views]


def test_kernel_keeps_its_temporaries_to_a_few_times_its_input():
    views = np.array([cst_evaluate(default_baselines()[k], 401).points
                      for k in range(svg._CHUNK)]) * 700.0
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        paths = codec.path_data(views)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = sum(map(len, paths))
    assert peak - before - kept < 12 * views.nbytes


def test_render_holds_no_whole_family_temporaries():
    # the drawing's text lives three times over while ElementTree writes
    # it; a renderer that made every view, or formatted every shape, at
    # once would hold 6.5 MB of views or tens of MB of kernel arrays more
    shapes = np.array([cst_evaluate(default_baselines()[k % 16], 401).points
                       for k in range(1016)])
    for render in (svg.render_shapes, svg.render_strip):
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            text = render([shapes])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < 3 * len(text) + 2e6


@pytest.mark.parametrize("render, data", [
    (svg.render_scatter, np.zeros((0, 2))),
    (svg.render_scatter, np.zeros((3, 3))),
    (svg.render_scatter, np.zeros(4)),
    (svg.render_wireframe, np.zeros((2, 5, 2))),
    (svg.render_wireframe, np.zeros((5, 3))),
])
def test_drawings_refuse_arrays_of_the_wrong_shape(render, data):
    with pytest.raises(ParameterError, match=rf"got \({data.shape[0]},"):
        render(data)


def test_renderers_take_runs_of_stacks():
    shapes = np.array([cst_evaluate(default_baselines()[k % 16], 21).points
                       for k in range(2 * svg._CHUNK + 3)])
    odd = cst_evaluate(default_baselines()[0], 31).points[None]
    for render in (svg.render_shapes, svg.render_strip):
        whole = render([shapes])
        # a run boundary inside a chunk keeps the colours and cells of
        # drawing order
        assert render([shapes[:5], shapes[5:]]) == whole
        assert render([shapes[:5], shapes[5:5], shapes[5:]]) == whole
        text = render([shapes[:3], odd, shapes[3:]])
        assert text.count("<path ") == len(shapes) + 1
        assert text.count('stroke="#1f77b4"') == 5
        with pytest.raises(ParameterError, match="nothing to render"):
            render([])
        with pytest.raises(ParameterError, match="nothing to render"):
            render([shapes[:0]])
        with pytest.raises(ParameterError, match=r"\(k, n, 2\) stacks"):
            render([np.zeros((1, 5, 3))])
        with pytest.raises(ParameterError, match=r"\(k, n, 2\) stacks"):
            render(shapes[:2])
