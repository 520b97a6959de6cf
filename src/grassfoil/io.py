"""Deterministic text formats for shapes, models, blades, and tables.

Everything here is line-oriented or JSON text, written atomically
(create-then-rename) and byte-identical for identical input. Floats are
written with enough digits that reading recovers the exact bits, so
round trips are lossless. Readers reject malformed input with the line
or key that offended; nothing is repaired silently.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import os
import re
import sys
from dataclasses import dataclass
from io import BytesIO, TextIOWrapper
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import codec
from .blade import BladeDefinition, build_blade
from .errors import (
    FileFormatError,
    FileParseError,
    GrassfoilError,
    SchemaError,
    TooFewPointsError,
    VersionError,
    array_argument,
    in_order,
)
from .geometry import MAX_COORDINATE, AffineMap, LandmarkMatrix
from .pga import FLATTEN_ORDER, PgaModel, flatten_tangent, unflatten_tangent

FORMAT_VERSION = 1

_TOKEN = re.compile(r"\S+")


def read_text(path) -> str:
    """Whole text file; unreadable or undecodable files name the path."""
    return _decode(path, _read_bytes(path))


def _read_bytes(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as err:
        raise FileFormatError(f"cannot read {path}: {err.strerror}") from None


def _decode(path, data: bytes) -> str:
    """``data`` as text mode reads the file ``path`` that holds it: in the
    default encoding, every line end made "\\n"."""
    try:
        return TextIOWrapper(BytesIO(data)).read()
    except UnicodeDecodeError as err:
        raise FileFormatError(
            f"cannot decode {path}: {err.reason} at byte {err.start}") from None


def write_text(path, text) -> None:
    """Atomic create-then-rename write of ``text``, a string or an iterable
    of strings written in turn, into ``path``'s directory, made if missing;
    unwritable targets name the path."""
    _write_files([path], [text])


def _write_files(paths, texts) -> None:
    """:func:`write_text` of each of ``texts`` to its path in turn, making
    each distinct directory once."""
    made = set()
    for path, text in zip(paths, texts):
        path = Path(path)
        # Mode 0o666 less the umask, as open(path, "w") would create it.
        tmp = path.with_name(f"{path.name}.{os.urandom(4).hex()}.tmp")
        try:
            if path.parent not in made:
                path.parent.mkdir(parents=True, exist_ok=True)
                made.add(path.parent)
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            try:
                with os.fdopen(fd, "w") as fh:
                    fh.writelines([text] if isinstance(text, str) else text)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError as err:
            raise FileFormatError(
                f"cannot write {path}: {err.strerror}") from None


def remove_unwritten(directory, patterns, written) -> None:
    """Remove the files under ``directory`` that match one of the glob
    ``patterns`` but are not among the paths ``written``, so that a rerun
    leaves only its own outputs of those names; a file that cannot be
    removed names its path."""
    directory, written = Path(directory), set(map(Path, written))
    found = {path for pattern in patterns for path in directory.glob(pattern)}
    for stale in sorted(found - written):
        try:
            stale.unlink()
        except OSError as err:
            raise FileFormatError(
                f"cannot remove {stale}: {err.strerror}") from None


# ---------------------------------------------------------------------------
# coordinate listings

_CHUNK = 8  # files per bulk conversion, which bounds its temporaries


def write_coordinates(path, points, name: str = "section") -> None:
    """Name line followed by one "x y" pair per row of ``points``."""
    write_coordinate_files([path], [points], [name])


def write_coordinate_files(paths, shapes, names) -> None:
    """Write each ``(n, 2)`` array of ``shapes``, an ``(N, n, 2)`` stack or
    a sequence of arrays, to its path under its name line, as
    :func:`write_coordinates` does, formatting a chunk of files at a time.
    A shape that is not a finite ``(n, 2)`` array of at least 3 landmarks,
    or a name that is not one line, raises before its chunk is written."""
    paths, names = list(paths), list(names)
    if not len(paths) == len(shapes) == len(names):
        raise FileFormatError(
            f"{len(paths)} paths, {len(shapes)} shapes and {len(names)} names")

    def texts():
        for start in range(0, len(paths), _CHUNK):
            at = slice(start, start + _CHUNK)
            chunk = [array_argument(s, "landmarks", FileFormatError)
                     for s in shapes[at]]
            for points, name in zip(chunk, names[at]):
                if (points.ndim != 2 or points.shape[1] != 2
                        or len(points) < 3 or not np.isfinite(points).all()):
                    raise FileFormatError(
                        "expected finite (n, 2) landmarks with n >= 3, got "
                        f"shape {points.shape}")
                if not _one_line(name):
                    raise FileFormatError(
                        "coordinate name must be a single line")
            for name, body in zip(names[at], codec.encode_bodies(chunk)):
                yield f"{name}\n{body}"
    _write_files(paths, texts())


def _one_line(text: str) -> bool:
    """Whether ``str.splitlines`` reads ``text`` and a line end after it as
    the one line ``text``, as the coordinate reader does."""
    return (text + "\n").splitlines() == [text]


def read_coordinates(path) -> tuple[str, LandmarkMatrix]:
    """Name line and landmarks of a file written by :func:`write_coordinates`."""
    family = read_coordinate_files([path])
    return family.names[0], LandmarkMatrix(family.runs[0][0])


@dataclass(frozen=True, eq=False)
class CoordinateFamily:
    """Name lines and landmarks of coordinate files, in file order. Each run
    of consecutive files that share a landmark count ``n`` is one
    ``(N_run, n, 2)`` array of ``runs``."""

    names: tuple[str, ...]
    runs: tuple[np.ndarray, ...]


def read_coordinate_files(paths) -> CoordinateFamily:
    """Name lines and landmarks of coordinate files; the files of each run
    of equal landmark count are stacked into one array once all are read.

    Files are read as bytes. An ASCII file in the writer's exact layout (a
    name line that ``str.splitlines`` keeps whole, then "%.16e %.16e\\n"
    per landmark) is decoded in bulk, a chunk of files at a time. Every
    other file is decoded as :func:`read_text` decodes it and scanned line
    by line: other whitespace reads to the same values, and a fault is
    named by its line and column. A chunk of files that fails runs again
    one file at a time, so the first file that fails raises its own error.
    """
    paths = list(paths)
    names, shapes = [], []

    def run(rows: range):
        chunk = paths[rows.start:rows.stop]
        datas = [_read_bytes(path) for path in chunk]
        heads = [data.partition(b"\n") if data.isascii() else (b"", b"", b"")
                 for data in datas]
        decoded = codec.decode_bodies([body for _, _, body in heads])
        files = []
        for path, data, (head, _, _), values in zip(chunk, datas, heads,
                                                     decoded):
            name = head.decode("ascii")
            if values is not None and _one_line(name):
                files.append((name, values.reshape(-1, 2)))
            else:
                files.append(_scan_coordinates(path, _decode(path, data)))
        # only a range that decoded whole is kept: a faulty one runs again
        names.extend(name for name, _ in files)
        shapes.extend(points for _, points in files)
    in_order(run, len(paths), _CHUNK)
    return CoordinateFamily(tuple(names), tuple(
        np.array(list(group)) for _, group in itertools.groupby(shapes, len)))


def _scan_coordinates(path, text: str) -> tuple[str, np.ndarray]:
    """Line-by-line reading of a coordinate file; raises at the first fault.

    A line is split and converted whole; one that does not give two finite
    numbers that way goes to :func:`_line_fault`, which names the fault.
    """
    lines = text.splitlines()
    if not lines:
        raise FileParseError("empty coordinate file", path=path, line=1)
    name = lines[0]
    points = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            x, y = map(float, line.split())
        except ValueError:
            x = y = math.nan
        if not (math.isfinite(x) and math.isfinite(y)):
            _line_fault(path, lineno, line)
        points.append((x, y))
    if len(points) < 3:
        raise TooFewPointsError(
            f"a shape needs at least 3 points, file has {len(points)}",
            path=path)
    return name, np.array(points)


def _line_fault(path, lineno: int, line: str) -> NoReturn:
    """Raise the fault, token by token, of a line that ``str.split`` does
    not give two finite numbers; ``_TOKEN`` splits where it does."""
    tokens = list(_TOKEN.finditer(line))
    if len(tokens) != 2:
        raise FileParseError(
            f"expected 2 values per line, found {len(tokens)}", path=path,
            line=lineno)
    for tok in tokens:
        try:
            value = float(tok.group())
        except ValueError:
            raise FileParseError(
                f"not a number: {tok.group()!r}", path=path, line=lineno,
                column=tok.start() + 1) from None
        if not math.isfinite(value):
            raise FileParseError(
                f"non-finite value: {tok.group()!r}", path=path, line=lineno,
                column=tok.start() + 1)


# ---------------------------------------------------------------------------
# JSON plumbing


def write_json(path, payload) -> None:
    """``payload`` as ``json.dumps(payload, indent=1, sort_keys=True)``
    writes it, byte for byte, plus a newline: the stdlib's encoder lays out
    the file, so dict keys follow its rule (strings, or numbers, booleans
    and ``None``, which it writes as strings). A float64 array is written
    as its ``tolist()`` would be.

    Only the numbers of the non-empty 1-D and 2-D float64 arrays are
    formatted here, in one bulk call per file, each followed by ",", or ";"
    at the end of a row, or a NUL at the end of its array. The encoder
    writes ``null`` where each such array goes. Each array is laid out by
    replacing those marks, and "nan" and "inf", which no other token holds,
    and its text, indented like its line, replaces its ``null``.
    """
    parts, held = [], []

    def hold(value):
        if not (isinstance(value, np.ndarray) and value.dtype == np.float64):
            return json.JSONEncoder.default(encoder, value)  # raises
        if value.ndim not in (1, 2) or not value.size:
            return value.tolist()
        held.append((value, len(parts)))  # where the encoder puts its null
        return None

    encoder = json.JSONEncoder(indent=1, sort_keys=True, default=hold)
    for part in encoder.iterencode(payload):
        parts.append(part)
    marks = [np.full(array.shape, ord(","), np.uint8) for array, _ in held]
    for mark in marks:
        mark[..., -1] = ord(";")
        mark.flat[-1] = 0
    chunks = codec.repr_text(
        np.concatenate([array.ravel() for array, _ in held]),
        np.concatenate([mark.ravel() for mark in marks])).split(
            "\0") if held else []
    for (array, at), chunk in zip(held, chunks):
        start = at  # the null's line begins in the last part holding "\n"
        while start and "\n" not in parts[start - 1]:
            start -= 1
        line = "\n" + parts[start - 1].rpartition("\n")[2] if start else "\n"
        pad = line + " " * array.ndim
        row = pad[:-1]
        text = "[" + pad + chunk.replace("nan", "NaN").replace(
            "inf", "Infinity").replace(",", "," + pad).replace(
            ";", row + "]," + row + "[" + pad) + row + "]"
        parts[at] = (text if array.ndim == 1 else
                     "[" + row + text + row[:-1] + "]")
    parts.append("\n")
    write_text(path, parts)


def read_json(path):
    """Decoded JSON of ``path``; every decoder failure names the file."""
    text = read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise FileParseError(f"invalid JSON: {err.msg}", path=path,
                             line=err.lineno, column=err.colno) from None
    except RecursionError:
        raise FileParseError("invalid JSON: nested too deeply",
                             path=path) from None
    except ValueError as err:  # an int literal past CPython's digit limit
        raise FileParseError(
            f"invalid JSON: {str(err).split(';')[0].lower()}",
            path=path) from None


def _get(mapping, key: str, path: str = ""):
    full = f"{path}.{key}" if path else key
    if not isinstance(mapping, dict):
        raise SchemaError(f"expected an object at {path or 'top level'!r}")
    if key not in mapping:
        raise SchemaError(f"missing key {full!r}")
    return mapping[key]


def _get_int(mapping, key: str, least: int) -> int:
    value = _get(mapping, key)
    if not (type(value) is int and value >= least):
        raise SchemaError(
            f"key {key!r} must be an integer >= {least}, got {value!r}")
    return value


def _array(mapping, key: str, shape, where: str = "") -> np.ndarray:
    """Finite float array of the JSON numbers at ``mapping[key]``.

    A ``None`` length in ``shape`` matches any length. numpy gives strings,
    nulls, huge integers and all-boolean arrays a non-numeric dtype. A
    magnitude above ``MAX_COORDINATE`` would overflow later products and is
    rejected here. A boolean among numbers reads as 0 or 1, so only the
    elements equal to 0 or 1 are looked up in ``value`` to tell one from a
    number.
    """
    value = _get(mapping, key, where)
    full = f"{where}.{key}" if where else key
    try:
        arr = np.array(value)
    except ValueError:  # ragged, or nested past numpy's dimension limit
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise SchemaError(f"key {full!r} is not a numeric array")
    if arr.ndim != len(shape) or any(
            want not in (None, got) for got, want in zip(arr.shape, shape)):
        raise SchemaError(
            f"key {full!r} has shape {arr.shape}, expected {shape}")
    arr = arr.astype(float, copy=False)
    peak = np.abs(arr).max(initial=0.0)
    if not np.isfinite(peak):
        raise SchemaError(f"key {full!r} contains non-finite values")
    if peak > MAX_COORDINATE:
        raise SchemaError(
            f"key {full!r} exceeds {MAX_COORDINATE:.0e} in magnitude")
    hits = (arr * arr == arr).ravel().nonzero()[0]  # 0 and 1: |arr| <= 1e150
    if hits.size:
        for index in zip(*np.unravel_index(hits, arr.shape)):
            if type(functools.reduce(operator.getitem, index, value)) is bool:
                raise SchemaError(f"key {full!r} is not a numeric array")
    return arr


def _names_file(reader):
    """Let every error in the contents of ``reader``'s file name the file."""
    @functools.wraps(reader)
    def read(path):
        try:
            return reader(path)
        except FileFormatError as err:
            if isinstance(err, (SchemaError, VersionError)) and err.path is None:
                err.path = path
            raise
        except GrassfoilError as err:
            raise SchemaError(str(err), path=path) from err
    return read


def _check_version(data, kind: str) -> None:
    version = _get(data, "format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise VersionError(
            f"unsupported {kind} format_version {version!r}; "
            f"this build reads version {FORMAT_VERSION}")


# ---------------------------------------------------------------------------
# model files


def write_model(path, model: PgaModel) -> None:
    payload = {
        "format_version": FORMAT_VERSION,
        "n": model.n,
        "r": model.r,
        "flatten_order": FLATTEN_ORDER,
        "mean": flatten_tangent(model.mean),
        "eigenvalues": model.eigenvalues,
        "basis": flatten_tangent(model.basis),
        "domain": {
            "bounds_min": model.bounds_min,
            "bounds_max": model.bounds_max,
            "ellipsoid_radii": model.ellipsoid_radii,
        },
        "training_coords": model.training_coords,
    }
    write_json(path, payload)


@_names_file
def read_model(path) -> PgaModel:
    data = read_json(path)
    _check_version(data, "model")
    n = _get_int(data, "n", 3)
    r = _get_int(data, "r", 1)
    order = _get(data, "flatten_order")
    if order != FLATTEN_ORDER:
        raise SchemaError(
            f"key 'flatten_order' is {order!r}; this build reads {FLATTEN_ORDER!r}")
    mean = unflatten_tangent(_array(data, "mean", (2 * n,)), n)
    eigenvalues = _array(data, "eigenvalues", (r,))
    basis = unflatten_tangent(_array(data, "basis", (r, 2 * n)), n)
    domain = _get(data, "domain")
    return PgaModel(mean, basis, eigenvalues,
                    *(_array(domain, key, (r,), "domain") for key in
                      ("bounds_min", "bounds_max", "ellipsoid_radii")),
                    _array(data, "training_coords", (None, r)))


# ---------------------------------------------------------------------------
# affine maps


def write_affine(path, affine: AffineMap) -> None:
    write_json(path, {
        "format_version": FORMAT_VERSION,
        "linear": affine.linear,
        "translation": affine.translation,
    })


@_names_file
def read_affine(path) -> AffineMap:
    data = read_json(path)
    _check_version(data, "affine")
    return AffineMap(_array(data, "linear", (2, 2)),
                     _array(data, "translation", (2,)))


# ---------------------------------------------------------------------------
# blade files


def write_blade(path, blade: BladeDefinition) -> None:
    """Full-fidelity blade listing: every station keeps its clustered
    representative and corrected affine factor, so reading restores the
    exact object without re-running standardization."""
    stations = [{"eta": eta, "section": section,
                 "affine": {"linear": linear, "translation": translation},
                 "representative": frame}
                for eta, section, linear, translation, frame in zip(
                    blade.etas.tolist(), blade.sections, blade.linear,
                    blade.translation, blade.frames)]
    write_json(path, {
        "format_version": FORMAT_VERSION,
        "n": blade.n,
        "stations": stations,
    })


@_names_file
def read_blade(path) -> BladeDefinition:
    """Restore a blade; stations must be all-explicit or all-bare.

    Explicit stations carry representative and affine and are trusted
    bit-for-bit. Bare stations carry only eta and section and go through
    standardization and clustering again. Mixing the two styles would make
    the result depend on which stations were trusted, so it is rejected.
    """
    data = read_json(path)
    _check_version(data, "blade")
    n = _get_int(data, "n", 3)
    stations_raw = _get(data, "stations")
    if not isinstance(stations_raw, list) or len(stations_raw) < 2:
        raise SchemaError("key 'stations' must list at least 2 stations")
    etas, sections, linear, translation, frames = [], [], [], [], []
    for i, st in enumerate(stations_raw):
        key = f"stations[{i}]"
        if not isinstance(st, dict):
            raise SchemaError(f"key '{key}' must be an object")
        detail = "representative" in st or "affine" in st
        if i == 0:
            explicit = detail
        elif detail != explicit:
            raise SchemaError(
                "stations mix explicit representative/affine entries with "
                "bare ones; supply them for every station or for none")
        eta = _get(st, "eta", key)
        if type(eta) not in (int, float) or not abs(eta) <= sys.float_info.max:
            raise SchemaError(f"key '{key}.eta' must be a finite number")
        etas.append(float(eta))
        sections.append(_array(st, "section", (n, 2), key))
        if explicit:
            affine_data = _get(st, "affine", key)
            linear.append(
                _array(affine_data, "linear", (2, 2), f"{key}.affine"))
            translation.append(
                _array(affine_data, "translation", (2,), f"{key}.affine"))
            frames.append(_array(st, "representative", (n, 2), key))
    if not explicit:
        return build_blade(etas, sections)
    return BladeDefinition(etas, sections, frames, linear, translation)


# ---------------------------------------------------------------------------
# tables and wireframes


_WIREFRAME_HEADER = ["section", "landmark", "x", "y", "eta"]
#: Floats per bulk conversion in tables and wireframes, which bounds the
#: temporaries: strings for a table's cells, or a wireframe's lines.
_TEXT_CHUNK = 6000


def write_table(path, header: list[str], rows) -> None:
    """CSV with shortest-exact float formatting; the float cells of each
    chunk of rows are formatted in one bulk call. A row of another length
    than the header, or a text cell that holds a comma or a line break (by
    the reader's rule, :func:`_one_line`), would not read back as its
    fields, and raises before anything is written."""
    rows = list(rows)
    width = len(header)
    floating = (float, np.floating)
    for lineno, row in enumerate([header, *rows], start=1):
        if len(row) != width:
            raise FileFormatError(
                f"row has {len(row)} fields, header has {width}")
        for column, value in enumerate(row, start=1):
            if not isinstance(value, floating):
                cell = str(value)
                if "," in cell or not _one_line(cell):
                    raise FileFormatError(
                        f"table cell {cell!r} at line {lineno}, column "
                        f"{column} holds a comma or a line break")
    lines = [",".join(header)]
    step = max(1, _TEXT_CHUNK // (width or 1))
    for chunk in (rows[i:i + step] for i in range(0, len(rows), step)):
        tokens = iter(codec.repr_text(
            [v for row in chunk for v in row if isinstance(v, floating)],
            b" ").split())
        lines += (",".join(next(tokens) if isinstance(v, floating) else str(v)
                           for v in row) for row in chunk)
    write_text(path, "\n".join(lines) + "\n")


def write_wireframe(path, grid: np.ndarray) -> None:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 3 or grid.shape[2] != 3:
        raise FileFormatError(
            f"wireframe grid must be (spans, n, 3), got {grid.shape}")
    spans, per = grid.shape[:2]
    # one section's records, its index left as "#" and its numbers as "%s"
    section = "".join(f"#,{j},%s\n" for j in range(per))
    step = max(1, _TEXT_CHUNK // (3 * per or 1))

    def chunks():
        yield ",".join(_WIREFRAME_HEADER) + "\n"
        for first in range(0, spans, step):
            block = grid[first:first + step]
            lines = codec.repr_text(block, b",,\n").split("\n")
            for i in range(len(block)):
                yield section.replace("#", str(first + i)) % tuple(
                    lines[i * per:(i + 1) * per])
    write_text(path, chunks())


def read_table(path, columns) -> np.ndarray:
    """Finite float values of the named ``columns``, one row per record.

    The first line names the columns, comma-separated; columns are found
    by name, so their order in the file does not matter. Every record must
    have one field per header name, and there must be at least one record.
    Faults name the file and line.
    """
    lines = read_text(path).splitlines()
    if not lines:
        raise FileParseError("empty table", path=path, line=1)
    header = lines[0].split(",")
    for name in columns:
        if name not in header:
            raise FileParseError(f"no column {name!r} in the header",
                                 path=path, line=1)
    if len(lines) == 1:
        raise FileParseError("table has no records", path=path, line=2)
    picks = [header.index(name) for name in columns]
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != len(header):
            raise FileParseError(
                f"expected {len(header)} fields, found {len(fields)}",
                path=path, line=lineno)
        row = []
        for name, i in zip(columns, picks):
            try:
                value = float(fields[i])
            except ValueError:
                raise FileParseError(
                    f"not a number in column {name!r}: {fields[i]!r}",
                    path=path, line=lineno) from None
            if not math.isfinite(value):
                raise FileParseError(
                    f"non-finite value in column {name!r}: {fields[i]!r}",
                    path=path, line=lineno)
            row.append(value)
        rows.append(row)
    return np.array(rows)


def read_wireframe(path) -> np.ndarray:
    """The (spans, n, 3) grid of a file written by :func:`write_wireframe`."""
    table = read_table(path, _WIREFRAME_HEADER)
    index = table[:, :2]
    bad = np.flatnonzero(np.any((index < 0.0) | (index != np.floor(index)),
                                axis=1))
    if bad.size:
        raise FileParseError(
            "section and landmark must be non-negative integers",
            path=path, line=int(bad[0]) + 2)
    spans, per = (int(v) + 1 for v in index.max(axis=0))
    if len(table) != spans * per:
        raise FileParseError(
            f"expected {spans * per} records for a {spans} x {per} grid, "
            f"found {len(table)}", path=path, line=len(table) + 1)
    grid = np.full((spans, per, 3), np.nan)
    sections, landmarks = index.astype(int).T
    grid[sections, landmarks] = table[:, 2:]
    if np.any(np.isnan(grid)):
        raise FileParseError("grid has missing (section, landmark) records",
                             path=path, line=len(table) + 1)
    return grid
