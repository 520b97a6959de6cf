"""Tests for the SVG writer's path data."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassfoil.svg import _closed_path, _fmt


def path_data(pts):
    root = ET.Element("svg")
    _closed_path(root, np.asarray(pts, dtype=float), "#000000")
    return root[0].attrib["d"]


def per_coordinate_path_data(pts):
    """The path data as formatted one coordinate at a time by ``_fmt``."""
    return "M " + " L ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in pts) + " Z"


CRAFTED = [0.0, -0.0, 1.0, 10.0, 100.0, 1000.0, 2.1, 2.12, 2.01, 2.001,
           0.1, 0.12, 0.01, 0.001, -0.0004, 0.0004, 0.0005, -0.0005,
           1.0996, 0.9999, 9.9996, 99.9999, 109.9999, -0.9999, 10.1,
           720.0, 19.9995, 1e20, -1e20, 1e-20, 5e-324,
           float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("x", CRAFTED)
def test_path_data_matches_per_coordinate_format_on_crafted_values(x):
    pts = [(x, 1.0), (0.5, x), (x, x), (-x, 2.0)]
    assert path_data(pts) == per_coordinate_path_data(pts)


@given(st.lists(st.tuples(st.floats(), st.floats()), min_size=1, max_size=30))
@settings(max_examples=300)
def test_path_data_matches_per_coordinate_format(pairs):
    assert path_data(pairs) == per_coordinate_path_data(pairs)


@given(st.lists(st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)),
                min_size=1, max_size=30))
@settings(max_examples=300)
def test_path_data_matches_per_coordinate_format_in_viewport_range(pairs):
    assert path_data(pairs) == per_coordinate_path_data(pairs)
