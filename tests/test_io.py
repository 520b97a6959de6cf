"""Tests for coordinate, model, blade, and wireframe serialization."""

import itertools
import json
import os
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassfoil import codec
from grassfoil import io as gio
from grassfoil.blade import build_blade, export_wireframe
from grassfoil.cli import main
from grassfoil.errors import (BladeDefinitionError, FileFormatError,
                              FileParseError, GrassfoilError, SchemaError,
                              TooFewPointsError, VersionError)
from grassfoil.geometry import (AffineMap, LandmarkMatrix, affine_apply,
                                affine_subgroup, cst_evaluate,
                                default_baselines, perturb_cst)
from grassfoil.grassmann import la_standardize
from grassfoil.io import (_scan_coordinates, read_affine, read_blade,
                          read_coordinate_files, read_coordinates, read_json,
                          read_model, read_table, read_wireframe,
                          write_affine, write_blade, write_coordinate_files,
                          write_coordinates, write_json, write_model,
                          write_table, write_wireframe)
from grassfoil.pga import karcher_mean, pga_fit

from conftest import landmarks, stack


@pytest.fixture(scope="module")
def fitted_model():
    points = [
        la_standardize(
            cst_evaluate(perturb_cst(default_baselines()[k % 16], 0.15,
                                     seed=70 + k), 101)).point
        for k in range(8)
    ]
    result = karcher_mean(stack(points))
    return pga_fit(result.point, result.logs, 3)


@pytest.fixture(scope="module")
def small_blade():
    etas = [0.0, 0.5, 1.0]
    sections = []
    for k, eta in enumerate(etas):
        shape = cst_evaluate(default_baselines()[k], 51)
        sections.append(
            affine_apply(shape, affine_subgroup("chord", 0.9 - 0.3 * eta)))
    return build_blade(etas, landmarks(sections))


# ---------------------------------------------------------------------------
# coordinates


def test_coordinates_round_trip_bit_exact(tmp_path):
    shape = cst_evaluate(default_baselines()[0], 401)
    path = tmp_path / "shape.dat"
    write_coordinates(path, shape.points, "test-shape zeta")
    name, back = read_coordinates(path)
    assert name == "test-shape zeta"
    assert np.array_equal(back.points, shape.points)


def test_coordinates_rewrite_byte_identical(tmp_path):
    shape = cst_evaluate(default_baselines()[1], 101)
    a, b = tmp_path / "a.dat", tmp_path / "b.dat"
    write_coordinates(a, shape.points)
    write_coordinates(b, shape.points)
    assert a.read_bytes() == b.read_bytes()


def test_coordinates_name_must_be_single_line(tmp_path):
    shape = cst_evaluate(default_baselines()[0], 101)
    with pytest.raises(FileFormatError):
        write_coordinates(tmp_path / "x.dat", shape.points, "two\nlines")


def test_coordinates_refuse_what_reads_back_as_no_shape(tmp_path):
    for points in (np.zeros((2, 2)), np.zeros((5, 3)), np.zeros(8),
                   [[0, 0], [1, 0], "x"], [[0, 0], [1, np.nan], [0, 1]]):
        with pytest.raises(FileFormatError, match="landmarks"):
            write_coordinates(tmp_path / "x.dat", points)
    with pytest.raises(FileFormatError, match="2 paths, 1 shapes"):
        write_coordinate_files([tmp_path / "a.dat", tmp_path / "b.dat"],
                               np.zeros((1, 3, 2)), ["a", "b"])
    assert list(tmp_path.iterdir()) == []


def test_parse_error_cites_line_and_column(tmp_path):
    lines = ["bad-file"]
    for i in range(8):
        lines.append(f"{i}.0 {i * 2}.0")
    lines[7] = "0.5 oops"  # line 8 after the name line... line index check
    path = tmp_path / "bad.dat"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileParseError) as err:
        read_coordinates(path)
    assert err.value.line == 8
    assert err.value.column == 5


def test_wrong_token_count_rejected(tmp_path):
    path = tmp_path / "bad.dat"
    path.write_text("name\n1.0 2.0\n3.0\n4.0 5.0\n")
    with pytest.raises(FileParseError) as err:
        read_coordinates(path)
    assert err.value.line == 3


def test_non_finite_rejected(tmp_path):
    path = tmp_path / "bad.dat"
    path.write_text("name\n1.0 2.0\n3.0 nan\n4.0 5.0\n")
    with pytest.raises(FileParseError):
        read_coordinates(path)


def test_too_few_points(tmp_path):
    path = tmp_path / "tiny.dat"
    path.write_text("name\n1.0 2.0\n3.0 4.0\n")
    with pytest.raises(TooFewPointsError):
        read_coordinates(path)


def shapes_of(family):
    """Every file's (n, 2) landmarks of a read family, run after run."""
    return [shape for run in family.runs for shape in run]


def per_row_coordinates(shape, name):
    """The coordinate file text as written one formatted row at a time."""
    rows = [name] + [f"{'%.16e' % x} {'%.16e' % y}" for x, y in shape.points]
    return "\n".join(rows) + "\n"


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1e-310, 1e308, -1e308, 1.7976931348623157e308, 1.0 / 3.0]


finite_or_edge = (st.sampled_from(EDGE_FLOATS)
                  | st.floats(allow_nan=False, allow_infinity=False))


@given(st.lists(st.tuples(finite_or_edge, finite_or_edge), min_size=3,
                max_size=20))
@settings(max_examples=100)
def test_coordinates_written_byte_for_byte_as_per_row(pairs):
    shape = LandmarkMatrix(np.array(pairs))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.dat"
        write_coordinates(path, shape.points, "edge cases")
        assert path.read_text() == per_row_coordinates(shape, "edge cases")
        name, back = read_coordinates(path)
    assert name == "edge cases"
    assert back.points.tobytes() == shape.points.tobytes()


# Values at the edges of the bulk codec: zeros, subnormals, both ends of its
# exponent range (e-11 to e+16) and just past them, three-digit exponents,
# powers of ten and their neighbours, and a token whose long-double quotient
# falls on the midpoint between two doubles.
POWERS = [10.0 ** k for k in range(-15, 23)]
CODEC_EDGES = (EDGE_FLOATS + [1e-12, 1e-11, 1e16, 1e17, 9.999999999999999e16,
                              6.7528972387371347e+01]
               + POWERS + [float(np.nextafter(p, 0.0)) for p in POWERS]
               + [float(np.nextafter(p, np.inf)) for p in POWERS])
codec_float = (st.sampled_from(CODEC_EDGES) | st.floats(-2.0, 2.0)
               | st.floats(-1e17, 1e17)
               | st.floats(allow_nan=False, allow_infinity=False))
# a file of values the codec converts itself, or of anything finite
coordinate_pairs = st.one_of(
    st.lists(st.tuples(st.floats(-1e16, 1e16), st.floats(-2.0, 2.0)),
             min_size=3, max_size=12),
    st.lists(st.tuples(codec_float, codec_float), min_size=3, max_size=12))


@given(st.lists(coordinate_pairs, min_size=1, max_size=20))
@settings(max_examples=60, deadline=None)
def test_bulk_writer_matches_template_and_reads_back_bit_exact(files):
    shapes = [LandmarkMatrix(np.array(pairs)) for pairs in files]
    names = [f"file {i}" for i in range(len(shapes))]
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"s{i:02d}.dat" for i in range(len(shapes))]
        write_coordinate_files(paths, [s.points for s in shapes], names)
        for path, shape, name in zip(paths, shapes, names):
            assert path.read_text() == per_row_coordinates(shape, name)
        back = read_coordinate_files(paths)
    assert back.names == tuple(names)
    for read, shape in zip(shapes_of(back), shapes):
        assert read.tobytes() == shape.points.tobytes()


# "%.16e"-shaped tokens the writer never produced: any 17 digits, a leading
# zero included, with exponents inside and outside the codec's range
decimal_token = st.builds(
    lambda sign, digits, exp: f"{sign}{digits // 10 ** 16}."
                              f"{digits % 10 ** 16:016d}e{exp:+03d}",
    st.sampled_from(["", "-"]), st.integers(0, 10 ** 17 - 1),
    st.integers(-15, 20) | st.integers(-330, 300)) | st.sampled_from(
        ["6.7528972387371347e+01", "-6.7528972387371347e+01"])


@given(st.lists(st.lists(st.tuples(decimal_token, decimal_token),
                         min_size=3, max_size=12), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_bulk_reader_matches_float_on_any_17_digit_decimal(files):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"d{i}.dat" for i in range(len(files))]
        for path, pairs in zip(paths, files):
            path.write_text("decimals\n" + "".join(f"{a} {b}\n" for a, b in pairs))
        back = read_coordinate_files(paths)
    for read, pairs in zip(shapes_of(back), files):
        expected = np.array([float(t) for pair in pairs for t in pair])
        assert read.tobytes() == expected.tobytes()


def test_codec_off_gives_the_same_bytes_and_bits(tmp_path, monkeypatch):
    shapes = [cst_evaluate(perturb_cst(default_baselines()[k % 16], 0.2,
                                       seed=k), 101) for k in range(20)]
    shapes.append(LandmarkMatrix(np.array(CODEC_EDGES[:30]).reshape(-1, 2)))
    shapes.append(LandmarkMatrix(np.array(CODEC_EDGES[10:40]).reshape(-1, 2)))

    def write_and_read(folder):
        paths = [folder / f"s{i:02d}.dat" for i in range(len(shapes))]
        write_coordinate_files(paths, [s.points for s in shapes],
                               ["edge"] * len(paths))
        return ([p.read_bytes() for p in paths],
                [shape.tobytes()
                 for shape in shapes_of(read_coordinate_files(paths))])

    on = write_and_read(tmp_path / "on")
    monkeypatch.setattr(codec, "EXACT_LONGDOUBLE", False)
    assert write_and_read(tmp_path / "off") == on
    assert on[1] == [shape.points.tobytes() for shape in shapes]


def hand_edited(text: str, k: int) -> str:
    """One of several edits a person might make to a written file."""
    name, _, body = text.partition("\n")
    return [lambda: text,
            lambda: text.replace("\n", "\r\n"),
            lambda: text.replace(" ", "\t", 1),
            lambda: text[:-1],
            lambda: name + "\n" + body.replace("e+00", "e0"),
            lambda: text.replace("0000e", "e", 1),
            lambda: text.replace("\n", " \n", 2),
            lambda: text.replace("\n", "\r"),
            lambda: name + "\r\n" + body,
            lambda: "café " + text][k % 10]()


@pytest.mark.parametrize("data", [
    b"a\r\nb\rc\n", b"x\r\r\n\n\r", b"\xef\xbb\xbfname\n1 2\n",
    "caf\u00e9\r1 2".encode(), b""])
def test_read_text_reads_as_text_mode_does(tmp_path, data):
    path = tmp_path / "t.dat"
    path.write_bytes(data)
    assert gio.read_text(path) == path.read_text()


def oracle_reads(paths):
    """Name and landmark bits of each file, read one file at a time by the
    line scan from the text that ``Path.read_text`` gives."""
    return [(name, points.tobytes()) for name, points in
            (_scan_coordinates(p, p.read_text()) for p in paths)]


def family_reads(family):
    """Name and landmark bits of each file of a read family."""
    return [(name, shape.tobytes())
            for name, shape in zip(family.names, shapes_of(family))]


def test_multi_file_read_equals_per_file_reads(tmp_path):
    for k in range(40):  # more than two chunks of files
        shape = cst_evaluate(perturb_cst(default_baselines()[k % 16], 0.2,
                                         seed=k), 21)
        path = tmp_path / f"s{k:02d}.dat"
        write_coordinates(path, shape.points, f"shape {k}")
        if k % 3:
            path.write_bytes(hand_edited(path.read_text(), k).encode())
    paths = sorted(tmp_path.glob("*.dat"))
    family = read_coordinate_files(paths)
    single = [read_coordinates(p) for p in paths]
    assert [run.shape for run in family.runs] == [(40, 21, 2)]
    assert family_reads(family) == oracle_reads(paths) == [
        (name, shape.points.tobytes()) for name, shape in single]
    assert not any("\r" in name for name in family.names)
    assert "café shape 19" in family.names


@pytest.mark.parametrize("counts", [
    [21] * 5 + [11] * 9 + [21] * 3,  # runs across chunk boundaries
    [11, 21] * 6,                     # a run per file
    [21] * 16 + [7],                  # a short last run
])
def test_mixed_landmark_counts_read_as_runs(tmp_path, counts):
    for k, n in enumerate(counts):
        shape = cst_evaluate(perturb_cst(default_baselines()[k % 16], 0.2,
                                         seed=k), n)
        path = tmp_path / f"s{k:02d}.dat"
        write_coordinates(path, shape.points, f"shape {k}")
        if k % 4 == 1:
            path.write_bytes(hand_edited(path.read_text(), k).encode())
    paths = sorted(tmp_path.glob("*.dat"))
    family = read_coordinate_files(paths)
    sizes = [(len(list(run)), n) for n, run in itertools.groupby(counts)]
    assert [run.shape for run in family.runs] == [
        (size, n, 2) for size, n in sizes]
    assert family_reads(family) == oracle_reads(paths)
    assert len(shapes_of(family)) == len(counts)


def test_reading_a_family_holds_it_at_most_three_times(tmp_path):
    # 1016 shapes of 401 landmarks, the benchmark's family: the decoded
    # files are held until their run is stacked, so the family is held
    # twice at most, plus the bytes of one chunk of files
    family = np.random.default_rng(3).normal(size=(1016, 401, 2))
    paths = [tmp_path / f"s{k:04d}.dat" for k in range(len(family))]
    write_coordinate_files(paths, family, ["shape"] * len(paths))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        runs = read_coordinate_files(paths).runs
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(runs) == 1 and np.array_equal(runs[0], family)
    assert peak < 3 * family.nbytes


@pytest.mark.parametrize("count", [16, 19])
def test_a_bad_last_file_raises_its_own_error(tmp_path, count):
    # the faulty last chunk is read twice, the second time file by file:
    # its good files must not be kept from the first reading
    shape = cst_evaluate(default_baselines()[0], 21)
    for k in range(count):
        write_coordinates(tmp_path / f"s{k:02d}.dat", shape.points)
    (tmp_path / f"s{count - 1:02d}.dat").write_text("bad\n0 0\n1 zz\n0 1\n")
    with pytest.raises(FileParseError,
                       match=rf"s{count - 1:02d}\.dat:3:3: not a number"):
        read_coordinate_files(sorted(tmp_path.glob("*.dat")))


def test_multi_file_read_raises_for_the_first_bad_file(tmp_path):
    shape = cst_evaluate(default_baselines()[0], 21)
    for k in range(20):
        write_coordinates(tmp_path / f"s{k:02d}.dat", shape.points)
    (tmp_path / "s05.dat").write_text("bad\n0 0\n1 zz\n0 1\n")
    (tmp_path / "s03.dat").write_bytes(b"caf\xe9\n0 0\n1 0\n0 1\n")
    (tmp_path / "s09.dat").unlink()
    (tmp_path / "s09.dat").mkdir()  # a file that cannot be read
    (tmp_path / "s17.dat").write_text("short\n0 0\n")
    paths = sorted(tmp_path.glob("*.dat"))
    try:
        paths[3].read_text()
    except UnicodeDecodeError as err:
        reason = f"{err.reason} at byte {err.start}"
    with pytest.raises(FileFormatError) as err:
        read_coordinate_files(paths)
    assert str(err.value) == f"cannot decode {paths[3]}: {reason}"
    paths[3].write_text("fixed\n0 0\n1 0\n0 1\n")
    with pytest.raises(FileParseError, match="s05.dat:3:3"):
        read_coordinate_files(paths)
    paths[5].write_text("fixed\n0 0\n1 0\n0 1\n")
    with pytest.raises(FileFormatError) as err:
        read_coordinate_files(paths)
    assert str(err.value) == f"cannot read {paths[9]}: Is a directory"
    paths[9].rmdir()
    paths[9].write_text("fixed\n0 0\n1 0\n0 1\n")
    with pytest.raises(TooFewPointsError, match="s17.dat"):
        read_coordinate_files(paths)


def outcome(read):
    """What a reader returns or raises, in comparable form."""
    try:
        name, shape = read()
    except GrassfoilError as err:
        return type(err), str(err)
    return name, np.asarray(getattr(shape, "points", shape)).tobytes()


ODD_TOKENS = ["nan", "-inf", "inf", "1e400", "1_0", "zz", "0x10", "+.5",
              "\u0661\u0662", "1e-400", "--1", "2", "3.0", ""]
ODD_SPACES = [" ", "\t", "\u00a0", "\u2003", "\u3000", "\x1f", "\x0b"]
# Names that str.splitlines() breaks (or, for "\r", that reading breaks),
# next to ones it keeps whole.
ODD_NAMES = ["name", "", " ", "a b", "na\rme", "na\x0bme", "na\x1cme",
             "na\x85me", "name\x0b"]


@st.composite
def mutated_coordinate_text(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    fmt = draw(st.sampled_from([repr, "%.16e".__mod__]))
    rows = [[fmt(draw(st.floats(-2.0, 2.0))) for _ in range(2)]
            for _ in range(n)]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        row = draw(st.sampled_from(rows))
        action = draw(st.sampled_from(["replace", "extra", "missing"]))
        if action == "replace" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(
                st.sampled_from(ODD_TOKENS))
        elif action == "extra":
            row.append(draw(st.sampled_from(ODD_TOKENS)))
        elif row:
            row.pop()
    name = draw(st.sampled_from(ODD_NAMES))
    if draw(st.booleans()):  # the writer's layout: "a b\n" per row
        return name + "\n" + "".join(" ".join(row) + "\n" for row in rows)
    lines = [draw(st.sampled_from(ODD_SPACES)).join(row) for row in rows]
    return name + "\n" + "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def read_both(tmp_path, text):
    """Outcomes of the reader and of the line scan on one file's text."""
    path = tmp_path / "m.dat"
    path.write_text(text)
    fast = outcome(lambda: read_coordinates(path))
    slow = outcome(lambda: _scan_coordinates(path, text))
    return fast, slow


@given(mutated_coordinate_text())
@settings(max_examples=300, deadline=None)  # a file write and two reads each
def test_reader_matches_line_scan(text):
    with tempfile.TemporaryDirectory() as tmp:
        fast, slow = read_both(Path(tmp), text)
    assert fast == slow


@pytest.mark.parametrize("text", [
    "name\n1 2 3\n4\n5 6\n",          # even token total, uneven rows
    "name\n1 2\n3 4\n5 6\n7\n",       # odd token count
    "name\n1 2\n3 4\n5 6",             # no final newline
    "name\r\n1 2\r\n3 4\r\n5 6\r\n",  # CRLF line ends
    "name\n1 2\n",                     # one point
    "name\n1 2\n3 4\n",                # two points
    "name\x0bx\n1 2\n3 4\n5 6\n",      # a name line splitlines() breaks
    "name\x85\n1 2\n3 4\n5 6\n",
    "\n1 2\n3 4\n5 6\n",               # empty name
])
def test_reader_matches_line_scan_on_layout_edges(tmp_path, text):
    fast, slow = read_both(tmp_path, text)
    assert fast == slow


def test_empty_coordinate_file_rejected(tmp_path):
    path = tmp_path / "m.dat"
    path.write_text("")
    with pytest.raises(FileParseError) as err:
        read_coordinates(path)
    assert str(err.value).endswith("m.dat:1: empty coordinate file")


@pytest.mark.parametrize("body, expected", [
    ("1 2\n3 4\n5 6 7\n", "m.dat:4: expected 2 values per line, found 3"),
    ("1 2\n3\n5 6\n", "m.dat:3: expected 2 values per line, found 1"),
    ("1 2\n3 nan\n5 6\n", "m.dat:3:3: non-finite value: 'nan'"),
    ("1 2\n3 4\ninf 6\n", "m.dat:4:1: non-finite value: 'inf'"),
    ("1 2\n3 1_0\n5 6\n", None),
    ("1\u00a02\n3\u30004\n5 6\n", None),
    ("1 2\n3 4\n", "m.dat: a shape needs at least 3 points, file has 2"),
])
def test_reader_error_text(tmp_path, body, expected):
    path = tmp_path / "m.dat"
    path.write_text("name\n" + body)
    if expected is None:
        assert read_coordinates(path)[1].n == 3
    else:
        with pytest.raises(FileFormatError) as err:
            read_coordinates(path)
        assert str(err.value).endswith(expected)


# ---------------------------------------------------------------------------
# model files


def test_model_round_trip_bit_exact(tmp_path, fitted_model):
    path = tmp_path / "model.json"
    write_model(path, fitted_model)
    back = read_model(path)
    assert back.n == fitted_model.n
    assert back.r == fitted_model.r
    assert np.array_equal(back.mean, fitted_model.mean)
    assert np.array_equal(back.eigenvalues, fitted_model.eigenvalues)
    assert np.array_equal(back.basis, fitted_model.basis)
    assert np.array_equal(back.training_coords, fitted_model.training_coords)
    assert np.array_equal(back.domain.bounds_min,
                          fitted_model.domain.bounds_min)
    assert np.array_equal(back.domain.bounds_max,
                          fitted_model.domain.bounds_max)
    assert np.array_equal(back.domain.ellipsoid_radii,
                          fitted_model.domain.ellipsoid_radii)


def test_model_rewrite_byte_identical(tmp_path, fitted_model):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_model(a, fitted_model)
    write_model(b, read_model(a))
    assert a.read_bytes() == b.read_bytes()


def test_model_missing_key_names_it(tmp_path, fitted_model):
    path = tmp_path / "model.json"
    write_model(path, fitted_model)
    data = json.loads(path.read_text())
    del data["eigenvalues"]
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError) as err:
        read_model(path)
    assert "eigenvalues" in str(err.value)


def test_model_nested_key_path_reported(tmp_path, fitted_model):
    path = tmp_path / "model.json"
    write_model(path, fitted_model)
    data = json.loads(path.read_text())
    del data["domain"]["bounds_min"]
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError) as err:
        read_model(path)
    assert "domain.bounds_min" in str(err.value)


def test_model_version_checked(tmp_path, fitted_model):
    path = tmp_path / "model.json"
    write_model(path, fitted_model)
    data = json.loads(path.read_text())
    data["format_version"] = 99
    path.write_text(json.dumps(data))
    with pytest.raises(VersionError):
        read_model(path)


def test_model_bad_json_cites_position(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{\n "n": 5,\n broken\n}')
    with pytest.raises(FileParseError) as err:
        read_model(path)
    assert err.value.line == 3


# ---------------------------------------------------------------------------
# affine files


def test_affine_round_trip(tmp_path):
    affine = AffineMap(np.array([[1.25, -0.5], [0.125, 2.0]]),
                       np.array([0.75, -1.5]))
    path = tmp_path / "affine.json"
    write_affine(path, affine)
    back = read_affine(path)
    assert np.array_equal(back.linear, affine.linear)
    assert np.array_equal(back.translation, affine.translation)


# ---------------------------------------------------------------------------
# blade files


def test_blade_round_trip_bit_exact(tmp_path, small_blade):
    path = tmp_path / "blade.json"
    write_blade(path, small_blade)
    back = read_blade(path)
    assert back.n == small_blade.n
    for name in ("etas", "sections", "frames", "linear", "translation"):
        assert np.array_equal(getattr(back, name), getattr(small_blade, name))


def test_blade_bare_stations_rebuilt(tmp_path, small_blade):
    path = tmp_path / "blade.json"
    write_blade(path, small_blade)
    data = json.loads(path.read_text())
    for station in data["stations"]:
        del station["affine"]
        del station["representative"]
    path.write_text(json.dumps(data))
    rebuilt = read_blade(path)
    assert np.array_equal(rebuilt.sections, small_blade.sections)
    np.testing.assert_allclose(rebuilt.linear, small_blade.linear, atol=1e-12)
    np.testing.assert_allclose(rebuilt.frames, small_blade.frames, atol=1e-12)


@pytest.mark.parametrize("keep", [0, 1])
def test_blade_needs_two_stations(tmp_path, small_blade, keep):
    path = tmp_path / "blade.json"
    write_blade(path, small_blade)
    data = json.loads(path.read_text())
    data["stations"] = data["stations"][:keep]
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError,
                       match="'stations' must list at least 2 stations"):
        read_blade(path)


def test_blade_mixed_station_detail_rejected(tmp_path, small_blade):
    path = tmp_path / "blade.json"
    write_blade(path, small_blade)
    data = json.loads(path.read_text())
    del data["stations"][1]["representative"]
    del data["stations"][1]["affine"]
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError, match="stations mix explicit"):
        read_blade(path)


def test_blade_short_section_names_its_shape(tmp_path, small_blade):
    path = tmp_path / "blade.json"
    write_blade(path, small_blade)
    data = json.loads(path.read_text())
    data["stations"][1]["section"] = data["stations"][1]["section"][:3]
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError, match=r"key 'stations\[1\]\.section' "
                       r"has shape \(3, 2\), expected \(51, 2\)"):
        read_blade(path)


def test_blade_landmark_count_must_be_an_integer(tmp_path, small_blade):
    path = tmp_path / "blade.json"
    write_blade(path, small_blade)
    data = json.loads(path.read_text())
    data["n"] = str(data["n"])
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError, match="'n' must be an integer"):
        read_blade(path)


def test_blade_non_increasing_eta_rejected(tmp_path, small_blade):
    path = tmp_path / "blade.json"
    write_blade(path, small_blade)
    data = json.loads(path.read_text())
    data["stations"][1]["eta"] = -0.5
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError) as err:
        read_blade(path)
    assert isinstance(err.value.__cause__, BladeDefinitionError)
    assert err.value.path == path
    assert str(err.value) == (
        f"{path}: station spans must be strictly increasing")


# ---------------------------------------------------------------------------
# JSON layout: write_json must give json.dumps(indent=1, sort_keys=True) bytes


def stdlib_json(payload) -> bytes:
    """The stdlib's bytes, with each float64 array given as its tolist()."""
    return (json.dumps(payload, indent=1, sort_keys=True,
                       default=np.ndarray.tolist) + "\n").encode()


NAN, INF = float("nan"), float("inf")

JSON_CASES = {
    "signed-zero": [-0.0, 0.0, {"z": -0.0}],
    "extremes": [5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308],
    "non-finite-in-float-list": [1.0, NAN, INF, -INF],
    "non-finite-in-pairs": [[NAN, 1.0], [2.0, -INF], [INF, NAN]],
    "non-finite-scalars": {"a": NAN, "b": INF, "c": -INF, "d": [NAN, 1]},
    "empty-list": [],
    "empty-dict": {},
    "nested-empty": {"a": {}, "b": {"c": {}, "d": []}, "e": [[], {}]},
    "empty-rows": [[], [1.0]],
    "non-ascii-keys": {"é": 1, "ключ": "значение", "\u2028": "\x00\"\\\n"},
    "unsorted-keys": {"b": 1, "a": 2, "B": 3, "": 4, "aa": 5},
    "np-float64-elements": [np.float64(0.1), np.float64(-0.0), 2.5],
    "np-float64-in-pairs": [[np.float64(1) / 3, 2.0], [3.0, 4.0]],
    "np-float64-scalar": {"v": np.float64(2) / 3},
    "bool-in-float-list": [1.0, True, 2.0, False],
    "int-in-float-list": [1.0, 1, 2.0],
    "big-ints": [2**70, -5, 0],
    "ragged-rows": [[1.0, 2.0], [3.0], [4.0, 5.0, 6.0]],
    "row-and-float": [[1.0], 2.0],
    "float-and-row": [1.0, [2.0]],
    "tuples": {"t": (1.0, 2.0), "rows": [(1.0, 2.0), [3.0, 4.0]]},
    "deep-rows": [[[1.0, 2.0]], [[3.0]]],
    "top-level-list": [{"a": 1, "b": [0.5, 0.25]}, "s", None, True],
    "top-level-float": 0.1,
}


@pytest.mark.parametrize("case", sorted(JSON_CASES))
def test_write_json_matches_stdlib(tmp_path, case):
    path = tmp_path / "x.json"
    write_json(path, JSON_CASES[case])
    assert path.read_bytes() == stdlib_json(JSON_CASES[case])


json_floats = st.sampled_from(EDGE_FLOATS + [NAN, INF, -INF]) | st.floats()
json_strings = (st.sampled_from(['"', "\\", "\n", "\x00", "\x7f", "é",
                                 "\u2028", "\U0001f600"]) | st.text(max_size=6))
json_leaves = (st.none() | st.booleans() | st.integers() | json_floats
               | json_strings | st.lists(json_floats, max_size=4)
               | st.lists(st.lists(json_floats, max_size=3), max_size=4))
json_payloads = st.recursive(
    json_leaves,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.lists(kids, max_size=3).map(tuple)
                  | st.dictionaries(json_strings, kids, max_size=4)),
    max_leaves=16)


@given(json_payloads)
@settings(max_examples=50, deadline=None)
def test_write_json_matches_stdlib_on_nested_payloads(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.json"
        write_json(path, payload)
        assert path.read_bytes() == stdlib_json(payload)


@pytest.mark.parametrize("array", [np.zeros(2, int), np.zeros(2, bool),
                                   np.zeros(2, np.float32),
                                   np.array([0.5, "a"], object)])
def test_write_json_rejects_non_float64_arrays(tmp_path, array):
    with pytest.raises(TypeError):
        write_json(tmp_path / "x.json", {"a": array})
    assert not any(tmp_path.iterdir())


json_array_floats = (st.sampled_from(EDGE_FLOATS + [NAN, INF, -INF, 0.5, 1e16,
                                                    1e-4, 123456.0])
                     | st.floats())
json_arrays = st.integers(0, 3).flatmap(
    lambda ndim: st.lists(st.integers(0, 4), min_size=ndim, max_size=ndim)
    .flatmap(lambda shape: st.lists(
        json_array_floats, min_size=int(np.prod(shape)),
        max_size=int(np.prod(shape))).map(
            lambda values: np.array(values, float).reshape(shape))))
json_array_payloads = st.recursive(
    json_arrays | json_leaves,
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(json_strings | st.just("%s%%"), kids,
                                    max_size=3)),
    max_leaves=8)


@given(json_array_payloads)
@settings(max_examples=80, deadline=None)
def test_write_json_writes_arrays_as_their_lists(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.json"
        write_json(path, payload)
        assert path.read_bytes() == stdlib_json(payload)


def test_write_json_array_edges(tmp_path):
    payload = {"%d": np.array([[NAN, -INF], [INF, -0.0]]), "s": "100%",
               "t": [np.array(0.1), np.zeros((2, 0)), np.zeros((0, 3)),
                     np.arange(8.0).reshape(2, 2, 2)[:, ::-1]],
               "u": np.array(CODEC_EDGES)}
    write_json(tmp_path / "x.json", payload)
    assert (tmp_path / "x.json").read_bytes() == stdlib_json(payload)


@pytest.fixture
def json_writes(monkeypatch):
    """(path, payload) of every write_json call, passed to the real writer."""
    calls = []
    real = gio.write_json

    def record(path, payload):
        calls.append((path, payload))
        real(path, payload)

    monkeypatch.setattr(gio, "write_json", record)
    return calls


def test_artifacts_written_as_stdlib_json(tmp_path, json_writes, small_blade,
                                          fitted_model):
    write_blade(tmp_path / "blade.json", small_blade)
    write_model(tmp_path / "model.json", fitted_model)
    write_affine(tmp_path / "affine.json",
                 AffineMap(np.array([[1.25, -0.5], [0.125, 2.0]]),
                           np.array([1.0 / 3.0, -0.0])))
    assert main(["blade-interp", "--blade", str(tmp_path / "blade.json"),
                 "--eta", "0.25", "--eta", "0.7", "--eta", "1e-3",
                 "--out", str(tmp_path / "interp")]) == 0
    written = [Path(path).name for path, _ in json_writes]
    assert written == ["blade.json", "model.json", "affine.json",
                       "manifest.json"]
    assert json_writes[-1][1]["config"]["eta"] == [0.25, 0.7, 1e-3]
    for path, payload in json_writes:
        assert Path(path).read_bytes() == stdlib_json(payload)


# ---------------------------------------------------------------------------
# tables and wireframes


def test_write_table_layout(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ["i", "value"], [[0, 0.5], [1, 0.25]])
    lines = path.read_text().splitlines()
    assert lines[0] == "i,value"
    assert lines[1] == "0,0.5"
    assert len(lines) == 3


def test_table_columns_picked_by_name(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("c,file,a,b\n3.5,one.dat,1,-2e-3\n-0.0,two.dat,4,5\n")
    got = read_table(path, ["b", "a", "c"])
    assert got.tolist() == [[-2e-3, 1.0, 3.5], [5.0, 4.0, -0.0]]
    assert np.signbit(got[1, 2])


TABLE_FAULTS = {
    "empty": ("", ":1: empty table"),
    "no-records": ("a,b\n", ":2: table has no records"),
    "missing-column": ("a,c\n1,2\n", ":1: no column 'b' in the header"),
    "short-record": ("a,b\n1,2\n3\n", ":3: expected 2 fields, found 1"),
    "long-record": ("a,b\n1,2,3\n", ":2: expected 2 fields, found 3"),
    "blank-record": ("a,b\n\n1,2\n", ":2: expected 2 fields, found 1"),
    "not-a-number": ("a,b\n1,2\n1,x\n", ":3: not a number in column 'b'"),
    "nan": ("a,b\nnan,1\n", ":2: non-finite value in column 'a'"),
    "inf": ("a,b\n1,2\n1,-inf\n", ":3: non-finite value in column 'b'"),
}


@pytest.mark.parametrize("case", sorted(TABLE_FAULTS))
def test_table_faults_name_the_line(tmp_path, case):
    text, where = TABLE_FAULTS[case]
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(FileParseError) as err:
        read_table(path, ["a", "b"])
    assert str(err.value).startswith(f"{path}{where}")


def test_wireframe_round_trip(tmp_path, small_blade):
    grid = export_wireframe(small_blade, 4, samples_per_section=13)
    path = tmp_path / "wf.csv"
    write_wireframe(path, grid)
    back = read_wireframe(path)
    assert back.shape == grid.shape
    assert np.array_equal(back, grid)


def per_row_wireframe(path, grid):
    """The wireframe as written through write_table one row at a time."""
    rows = [[i, j, *map(float, grid[i, j])]
            for i in range(grid.shape[0]) for j in range(grid.shape[1])]
    write_table(path, ["section", "landmark", "x", "y", "eta"], rows)


@pytest.mark.parametrize("shape", [(4, 6, 3), (1, 12, 3), (0, 3, 3)])
def test_wireframe_written_byte_for_byte_as_per_row(tmp_path, shape):
    grid = np.random.default_rng(5).normal(size=shape)
    if grid.size:
        edges = np.array(EDGE_FLOATS)
        grid.ravel()[:edges.size] = edges
        grid.ravel()[-edges.size:] = -edges
    write_wireframe(tmp_path / "new.csv", grid)
    per_row_wireframe(tmp_path / "old.csv", grid)
    assert (tmp_path / "new.csv").read_bytes() == (
        tmp_path / "old.csv").read_bytes()


def reference_write_table(path, header, rows):
    """write_table as it was before the bulk writer: one repr per cell."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
            for v in row))
    gio.write_text(path, "\n".join(lines) + "\n")


def reference_write_wireframe(path, grid):
    """write_wireframe as it was before the bulk writer: one %r template."""
    template = ",".join(gio._WIREFRAME_HEADER) + "\n" + "".join(
        f"{i},{j},%r,%r,%r\n"
        for i, j in itertools.product(*map(range, grid.shape[:2])))
    gio.write_text(path, template % tuple(grid.ravel().tolist()))


table_cells = (st.integers() | st.booleans() | st.text("ab,\u00e9", max_size=3)
               | json_array_floats | json_array_floats.map(np.float64)
               | st.floats(width=32).map(np.float32))


@given(st.integers(0, 4).flatmap(lambda width: st.lists(
    st.lists(table_cells, min_size=width, max_size=width), max_size=6)),
    st.sampled_from([1, 5, 6000]))
@settings(max_examples=80, deadline=None)
def test_write_table_matches_reference(rows, chunk):
    header = [f"c{k}" for k in range(len(rows[0]) if rows else 2)]
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as patch:
        patch.setattr(gio, "_TEXT_CHUNK", chunk)
        write_table(Path(tmp) / "new.csv", header, rows)
        reference_write_table(Path(tmp) / "old.csv", header, rows)
        assert (Path(tmp) / "new.csv").read_bytes() == (
            Path(tmp) / "old.csv").read_bytes()


@pytest.mark.parametrize("shape", [(7, 5, 3), (1, 1, 3), (0, 4, 3), (3, 0, 3),
                                   (30, 101, 3)])
@pytest.mark.parametrize("chunk", [1, 14, 6000])
def test_wireframe_matches_reference(tmp_path, monkeypatch, shape, chunk):
    monkeypatch.setattr(gio, "_TEXT_CHUNK", chunk)
    grid = np.random.default_rng(11).normal(size=shape) * 10.0 ** (
        np.arange(np.prod(shape)).reshape(shape) % 9 - 4)
    if grid.size:
        edges = np.array(CODEC_EDGES + [NAN, INF, -INF, 0.25, 3.0])
        grid.ravel()[:min(edges.size, grid.size)] = edges[:grid.size]
    write_wireframe(tmp_path / "new.csv", grid)
    reference_write_wireframe(tmp_path / "old.csv", grid)
    assert (tmp_path / "new.csv").read_bytes() == (
        tmp_path / "old.csv").read_bytes()


def test_writers_refuse_malformed_tables_and_grids(tmp_path):
    with pytest.raises(FileFormatError, match="row has 1 fields, header has 2"):
        write_table(tmp_path / "t.csv", ["i", "value"], [[0, 0.5], [1]])
    for grid in (np.zeros((2, 3)), np.zeros((2, 3, 2))):
        with pytest.raises(FileFormatError,
                           match=r"must be \(spans, n, 3\), got"):
            write_wireframe(tmp_path / "w.csv", grid)
    assert not list(tmp_path.iterdir())


def test_wireframe_missing_record_detected(tmp_path, small_blade):
    grid = export_wireframe(small_blade, 3, samples_per_section=5)
    path = tmp_path / "wf.csv"
    write_wireframe(path, grid)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(FileParseError):
        read_wireframe(path)


@pytest.mark.parametrize("index", ["-1,1", "1,-1", "0.5,1", "1,1.5"])
def test_wireframe_rejects_negative_or_fractional_indices(tmp_path, index):
    path = tmp_path / "wf.csv"
    path.write_text("section,landmark,x,y,eta\n0,0,0,0,0\n0,1,1,0,0\n"
                    f"1,0,0,0,1\n{index},1,0,1\n")
    with pytest.raises(FileParseError) as err:
        read_wireframe(path)
    assert str(err.value).startswith(
        f"{path}:5: section and landmark must be non-negative integers")


# ---------------------------------------------------------------------------
# reader and writer boundaries


@pytest.mark.parametrize("reader", [read_coordinates, read_json,
                                    read_model, read_wireframe])
def test_missing_file_names_the_path(tmp_path, reader):
    path = tmp_path / "missing.txt"
    with pytest.raises(FileFormatError, match="missing.txt"):
        reader(path)


@pytest.mark.parametrize("reader", [read_coordinates, read_json,
                                    read_wireframe])
def test_undecodable_file_names_the_path(tmp_path, reader):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"caf\xe9 \xff\xfe\n")
    with pytest.raises(FileFormatError, match="latin1.txt"):
        reader(path)


def test_written_files_follow_the_umask(tmp_path):
    old = os.umask(0o022)
    try:
        write_json(tmp_path / "a.json", {"k": 1})
        write_table(tmp_path / "t.csv", ["i"], [[0]])
    finally:
        os.umask(old)
    for name in ("a.json", "t.csv"):
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o644
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "t.csv"]


def test_writers_make_missing_directories(tmp_path):
    target = tmp_path / "a" / "b" / "t.csv"
    write_table(target, ["i"], [[0]])
    assert target.read_text() == "i\n0\n"


def test_coordinate_files_make_each_directory_once(tmp_path, monkeypatch):
    made = []
    real_mkdir = Path.mkdir
    monkeypatch.setattr(Path, "mkdir", lambda self, *args, **kwargs: (
        made.append(self), real_mkdir(self, *args, **kwargs)))
    paths = [tmp_path / d / f"s{i:02d}.dat" for d in "ab" for i in range(20)]
    shape = np.array([[1.0, 0.0], [0.0, 0.5], [0.0, -0.5]])
    write_coordinate_files(paths, [shape] * len(paths), ["s"] * len(paths))
    assert sorted(made) == [tmp_path / "a", tmp_path / "b"]
    assert sorted(tmp_path.rglob("*.dat")) == sorted(paths)
    assert read_coordinates(paths[-1])[1].points.tolist() == shape.tolist()


def test_writer_under_a_file_names_the_path(tmp_path):
    (tmp_path / "plain").write_text("not a directory\n")
    target = tmp_path / "plain" / "x.json"
    with pytest.raises(FileFormatError) as err:
        write_json(target, {"k": 1})
    assert f"cannot write {target}: " in str(err.value)
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["plain"]
