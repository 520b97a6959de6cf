"""Batch command line for the full pipeline.

Each subcommand is a thin composition of module operations: generate a
dataset, standardize it, fit a mean or a full model, synthesize or sweep
shapes, interpolate or perturb blades, and render SVG views. Every run
writes a manifest.json next to its outputs echoing the parsed
configuration, so any artifact can be regenerated byte-identically.

:data:`COMMANDS` lists each subcommand's handler, help line and options.
:func:`main` builds the parser of the one subcommand its first argument
names, or of all of them for ``-h``, ``--version``, no arguments or an
unknown name; help, usage and error text read the same either way. A run
holds numpy's bundled OpenBLAS at one thread, so its bytes do not depend on
the caller's BLAS thread count.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import io as gio
from . import svg
from .blade import (
    design_parameter_count,
    export_wireframe,
    interpolate_section,
    perturb_blade,
)
from .errors import (DimensionError, FileFormatError, FileParseError,
                     GrassfoilError, ParameterError)
from .geometry import (
    AFFINE_COMPONENT_NAMES,
    ShapeDiagnostics,
    affine_vectors,
    baseline_names,
    cst_evaluate_stack,
    default_baselines,
    gen_dataset_detailed,
    sweep_points,
    validate_shape,
    validate_stack,
)
from .grassmann import mean_affine, reconstruct_with, standardize_stack
from .pga import (corner_sweep, domain_contains, karcher_mean, pga_fit,
                  synthesize)

_COEFF_COLUMNS = [f"u{i}" for i in range(9)] + [f"l{i}" for i in range(9)]


def _manifest(args: argparse.Namespace, results: dict) -> None:
    config = {key: str(value) if isinstance(value, Path) else value
              for key, value in vars(args).items() if key != "func"}
    gio.write_json(args.out / "manifest.json", {
        "package_version": __version__, "config": config, "results": results})


def _load_shapes(source) -> tuple[list[Path], gio.CoordinateFamily]:
    """The coordinate files under ``source``, sorted by path, and their
    names and landmarks."""
    src = Path(source)
    files = sorted(src.glob("*.dat")) if src.is_dir() else [src]
    if not files:
        raise FileFormatError(f"no .dat coordinate files under {src}")
    return files, gio.read_coordinate_files(files)


def _ascii_literal(convert):
    """``convert`` restricted to ASCII text without digit-group underscores,
    so an option value reads one way only; faults raise ValueError."""
    def parse(text: str):
        if not text.isascii() or "_" in text:
            raise ValueError(f"not a plain ASCII literal: {text!r}")
        return convert(text)
    parse.__name__ = convert.__name__  # argparse: "invalid int value: ..."
    return parse


_int = _ascii_literal(int)
_float = _ascii_literal(float)


def _path(text: str) -> Path:
    if not text:
        raise argparse.ArgumentTypeError("an empty path names no file")
    return Path(text)


def _parse_coord_vector(text: str, r: int) -> np.ndarray:
    try:
        values = np.array([_float(tok) for tok in text.split(",")])
    except ValueError:
        raise ParameterError(f"could not parse coordinates {text!r}") from None
    if not np.all(np.isfinite(values)):
        raise ParameterError(f"coordinates must be finite, got {text!r}")
    if values.shape != (r,):
        raise ParameterError(
            f"model has {r} coordinates, got {len(values)} in {text!r}")
    return values


def _naming_files(files: list[Path], start: int, call, *args, **kwargs):
    """``call(*args, **kwargs)`` on a stack of the shapes read from
    ``files[start:]``; an error raised for one shape leads with its file."""
    try:
        return call(*args, **kwargs)
    except GrassfoilError as err:
        if err.shape_index is not None:
            err.shape_index += start
            err.args = (f"{files[err.shape_index]}: {err}",)
        raise


def _standardized(source, one_count: bool = False):
    """The coordinate files under ``source``, their name lines, the frames
    of each run of equal landmark count, and the linear factors and
    translations of all shapes. With ``one_count``, a second landmark count
    raises before any shape is standardized. A failure names its file. The
    landmarks are not kept past the factorization."""
    files, family = _load_shapes(source)
    if one_count and len(family.runs) > 1:
        first, other = family.runs[:2]
        raise DimensionError(
            f"{files[len(first)]}: {other.shape[1]} landmarks, but "
            f"{files[0]} has {first.shape[1]}")
    runs, start = [], 0
    for points in family.runs:
        runs.append(_naming_files(files, start, standardize_stack, points))
        start += len(points)
    frames, linear, translation = zip(*runs)
    return (files, family.names, frames, np.concatenate(linear),
            np.concatenate(translation))


def _fit_mean(args):
    """Shared prologue of mean and pga-fit: load, standardize, average."""
    files, names, (frames,), linear, translation = _standardized(
        args.shapes, one_count=True)
    result = _naming_files(files, 0, karcher_mean, frames, tol=args.tol,
                           max_iter=args.max_iter)
    return files, names, result, mean_affine(linear, translation)


def _file_cells(files, names) -> list[str]:
    """The ``file`` cells of the shapes' table rows: the first token of each
    name line, or empty for a blank one. A token that holds a comma would
    split its row, so it raises, naming its file's name line."""
    cells = [(name.split() or [""])[0] for name in names]
    for path, cell in zip(files, cells):
        if "," in cell:
            raise FileParseError(
                f"name token {cell!r} holds a comma, which would split "
                "its table row", path=path, line=1)
    return cells


# ---------------------------------------------------------------------------
# subcommands: each reads and checks its inputs and computes its results
# before its first write, writes its own artifacts under args.out, and
# returns (manifest results, one-line summary)


def cmd_gen_dataset(args) -> tuple[dict, str]:
    recipes = default_baselines()
    names = baseline_names()
    if not (1 <= args.baselines <= len(recipes)):
        raise ParameterError(
            f"--baselines must be in [1, {len(recipes)}], got {args.baselines}")
    detail = gen_dataset_detailed(recipes[:args.baselines], args.total,
                                  args.fraction, args.seed, args.n)
    shape_dir = args.out / "shapes"
    kinds = ["baseline" if item.index < args.baselines else "perturb"
             for item in detail]
    paths = [shape_dir / f"shape-{item.index:04d}.dat" for item in detail]
    gio.write_coordinate_files(
        paths, [item.landmarks for item in detail],
        [f"{path.stem} {kind} {names[item.baseline_index]}"
         for path, item, kind in zip(paths, detail, kinds)])
    # a smaller earlier run's shapes would join this run's in later stages
    gio.remove_unwritten(shape_dir, ["shape-*.dat"], paths)
    rows = [[item.index, item.baseline_index, kind, *item.coefficients]
            for item, kind in zip(detail, kinds)]
    gio.write_table(args.out / "coefficients.csv",
                    ["index", "baseline", "kind", *_COEFF_COLUMNS], rows)
    return ({"shapes_written": len(detail)},
            f"wrote {len(detail)} shapes to {shape_dir}")


def cmd_standardize(args) -> tuple[dict, str]:
    files, names, _, linear, translation = _standardized(args.shapes)
    rows = [[cell, *vec] for cell, vec in zip(
        _file_cells(files, names), affine_vectors(linear, translation))]
    affine = mean_affine(linear, translation)
    gio.write_table(args.out / "affines.csv",
                    ["file", *AFFINE_COMPONENT_NAMES], rows)
    gio.write_affine(args.out / "mean_affine.json", affine)
    return ({"shapes_standardized": len(names)},
            f"standardized {len(names)} shapes")


def cmd_mean(args) -> tuple[dict, str]:
    _, names, result, affine = _fit_mean(args)
    mean = result.point
    gio.write_coordinates(args.out / "mean_rep.dat", mean,
                          "karcher-mean-representative")
    gio.write_affine(args.out / "mean_affine.json", affine)
    gio.write_coordinates(args.out / "mean_shape.dat",
                          reconstruct_with(mean, affine).points,
                          "karcher-mean-shape")
    return ({"residual": result.residual, "shapes": len(names),
             "tolerance": args.tol},
            f"mean of {len(names)} shapes, "
            f"gradient residual {result.residual:.3e}")


def cmd_pga_fit(args) -> tuple[dict, str]:
    files, names, result, affine = _fit_mean(args)
    model = pga_fit(result.point, result.logs, args.r)
    coord_rows = [[i, cell, *coords] for i, (cell, coords) in enumerate(
        zip(_file_cells(files, names), model.training_coords))]
    gio.write_model(args.out / "model.json", model)
    gio.write_affine(args.out / "mean_affine.json", affine)
    gio.write_table(args.out / "normal_coords.csv",
                    ["index", "file", *[f"t{j}" for j in range(model.r)]],
                    coord_rows)
    ev = model.eigenvalues
    ev_rows = [[j, ev[j], ev[j] / ev[j - 1] if j and ev[j - 1] > 0 else 1.0]
               for j in range(model.r)]
    gio.write_table(args.out / "eigenvalues.csv",
                    ["component", "eigenvalue", "ratio_to_previous"], ev_rows)
    return ({"residual": result.residual, "eigenvalues": ev.tolist(),
             "shapes": len(names), "tolerance": args.tol},
            f"fitted r={model.r} model on {len(names)} shapes; "
            f"eigenvalues {np.array2string(ev, precision=3)}")


def cmd_synth(args) -> tuple[dict, str]:
    model = gio.read_model(args.model)
    t = _parse_coord_vector(args.coords, model.r)
    affine = None if args.affine is None else gio.read_affine(args.affine)
    frame = synthesize(model, t)
    inside = domain_contains(model, t)
    results = {"in_domain": inside, "coords": t.tolist()}
    if affine is not None:
        shape = reconstruct_with(frame, affine)
        results.update(_validity(validate_shape(shape)))
    gio.write_coordinates(args.out / "representative.dat", frame,
                          "synthesized-representative")
    if affine is not None:
        gio.write_coordinates(args.out / "shape.dat", shape.points,
                              "synthesized-shape")
    else:  # an earlier run's shape is not of this frame
        gio.remove_unwritten(args.out, ["shape.dat"], [])
    return results, f"synthesized at t={t.tolist()}, in_domain={inside}"


# A shape counts as valid when it is full rank and non-self-intersecting.
# Orientation is reported separately: the shared reference affine mirrors
# shapes whose own affine factor had opposite handedness.
_VALIDITY_COLUMNS = ["valid", "rank_ok", "simple", "ordering_ok"]


def _validity(diag: ShapeDiagnostics) -> dict[str, bool]:
    flags = (diag.rank_ok and diag.simple, diag.rank_ok, diag.simple,
             diag.ordering_ok)
    return {name: bool(f) for name, f in zip(_VALIDITY_COLUMNS, flags)}


def cmd_sweep(args) -> tuple[dict, str]:
    if args.seed < 0:
        raise ParameterError(f"--seed must be >= 0, got {args.seed}")
    if args.count < 1:
        raise ParameterError(f"--count must be >= 1, got {args.count}")
    if args.space == "pga":
        if args.model is None or args.affine is None:
            raise ParameterError("--space pga needs --model and --affine")
        model = gio.read_model(args.model)
        affine = gio.read_affine(args.affine)
        lo, hi = model.bounds_min, model.bounds_max
        columns = [f"t{j}" for j in range(model.r)]

        def shapes_at(a, b):
            reps = corner_sweep(model, a, b, args.steps)
            return reps @ affine.linear + affine.translation
    else:
        if args.coefficients is None:
            raise ParameterError("--space cst needs --coefficients")
        coeffs = gio.read_table(args.coefficients, _COEFF_COLUMNS)
        lo, hi = coeffs.min(axis=0), coeffs.max(axis=0)
        columns = _COEFF_COLUMNS

        def shapes_at(a, b):
            return cst_evaluate_stack(sweep_points(a, b, args.steps), args.n)
    sweeps = []
    for k in range(args.count):
        rng = np.random.default_rng(np.random.SeedSequence([args.seed, k]))
        flip = rng.integers(0, 2, size=lo.shape).astype(bool)
        a, b = np.where(flip, hi, lo), np.where(flip, lo, hi)
        points = sweep_points(a, b, args.steps)
        try:
            shapes = shapes_at(a, b)
            diagnostics = validate_stack(shapes)
        except GrassfoilError as err:
            step = "" if err.shape_index is None else f", step {err.shape_index}"
            err.args = (f"sweep {k}{step}: {err}",)
            raise
        rows = [[i, *p, *map(int, _validity(d).values())]
                for i, (p, d) in enumerate(zip(points, diagnostics))]
        sweeps.append((rows, svg.render_strip([shapes])))
    for k, (rows, strip) in enumerate(sweeps):
        gio.write_table(args.out / f"sweep-{k}.csv",
                        ["step", *columns, *_VALIDITY_COLUMNS], rows)
        gio.write_text(args.out / f"sweep-{k}.svg", strip)
    gio.remove_unwritten(args.out, ["sweep-*.csv", "sweep-*.svg"], [
        args.out / f"sweep-{k}.{kind}" for k in range(args.count)
        for kind in ("csv", "svg")])
    valid = [sum(r[-4] for r in rows) for rows, _ in sweeps]
    return ({"sweeps": [{"sweep": k, "valid": v, "steps": args.steps}
                        for k, v in enumerate(valid)]},
            f"{args.count} sweeps x {args.steps} steps, "
            f"{sum(valid)}/{args.count * args.steps} valid shapes")


def cmd_blade_interp(args) -> tuple[dict, str]:
    if args.eta is None and args.spans is None:
        raise ParameterError("give --eta (repeatable) or --spans")
    if args.samples_per_section is not None and args.spans is None:
        raise ParameterError("--samples-per-section needs --spans")
    blade = gio.read_blade(args.blade)
    etas = args.eta or []
    sections = [interpolate_section(blade, eta) for eta in etas]
    grid = (None if args.spans is None
            else export_wireframe(blade, args.spans, args.samples_per_section))
    results, written = {}, []
    for i, (eta, section) in enumerate(zip(etas, sections)):
        written.append(args.out / "sections" / f"section-{i:03d}.dat")
        gio.write_coordinates(written[-1], section.points,
                              f"section eta={eta!r}")
    if args.eta is not None:
        results["sections"] = len(etas)
    if grid is not None:
        written.append(args.out / "wireframe.csv")
        gio.write_wireframe(written[-1], grid)
        results["wireframe_shape"] = list(grid.shape)
    gio.remove_unwritten(args.out, ["sections/section-*.dat", "wireframe.csv"],
                         written)
    return results, f"interpolated blade: {results}"


def cmd_blade_perturb(args) -> tuple[dict, str]:
    blade = gio.read_blade(args.blade)
    model = gio.read_model(args.model)
    t = _parse_coord_vector(args.coords, model.r)
    perturbed = perturb_blade(blade, model, t,
                              consistency_tol=args.consistency_tol)
    count = design_parameter_count(blade, model)
    results = {"in_domain": domain_contains(model, t),
               "design_parameters": count, "tolerance": args.consistency_tol}
    gio.write_blade(args.out / "blade.json", perturbed)
    return results, (f"perturbed {blade.n_stations} stations; "
                     f"design parameter count {count}")


def cmd_render(args) -> tuple[dict, str]:
    if args.kind in ("shapes", "strip"):
        if args.shapes is None:
            raise ParameterError(f"--kind {args.kind} needs --shapes")
        runs = _load_shapes(args.shapes)[1].runs
        text = (svg.render_shapes(runs) if args.kind == "shapes"
                else svg.render_strip(runs))
    elif args.kind == "scatter":
        if args.table is None:
            raise ParameterError("--kind scatter needs --table")
        try:
            i, j = (_int(v) for v in args.axes.split(","))
        except ValueError:
            raise ParameterError(
                f"--axes needs two integers, got {args.axes!r}") from None
        data = gio.read_table(args.table, [f"t{i}", f"t{j}"])
        text = svg.render_scatter(data)
    else:
        if args.wireframe is None:
            raise ParameterError("--kind wireframe needs --wireframe")
        text = svg.render_wireframe(gio.read_wireframe(args.wireframe))
    target = args.out / f"{args.kind}.svg"
    gio.write_text(target, text)
    return {"svg": target.name}, f"rendered {target}"


# ---------------------------------------------------------------------------
# parser


def _option(flag: str, type=_path, **kwargs) -> tuple[str, dict]:
    """One row of an option list: ``flag`` and its ``add_argument``
    keywords."""
    return flag, {"type": type, **kwargs}


_OUT, _SHAPES, _MODEL, _BLADE = (_option(flag, required=True) for flag in (
    "--out", "--shapes", "--model", "--blade"))
_COORDS = _option("--coords", None, required=True)
_TOL = _option("--tol", _float, default=1e-10)
_MAX_ITER = _option("--max-iter", _int, default=200)
_N = _option("--n", _int, default=401)

# name -> (handler, help, options); the namespace a handler receives, and so
# its manifest's config, holds the options in the order listed here
COMMANDS = {
    "gen-dataset": (cmd_gen_dataset, "generate baseline + perturbed shapes", [
        _OUT, _option("--baselines", _int, default=16),
        _option("--total", _int, default=1000,
                help="total perturbations split across baselines"),
        _option("--fraction", _float, default=0.2),
        _option("--seed", _int, default=7), _N]),
    "standardize": (cmd_standardize, "affine factors of a shape family",
                    [_SHAPES, _OUT]),
    "mean": (cmd_mean, "Karcher mean of standardized shapes",
             [_SHAPES, _OUT, _TOL, _MAX_ITER]),
    "pga-fit": (cmd_pga_fit, "principal-geodesic model of a family", [
        _SHAPES, _OUT, _option("--r", _int, default=4), _TOL, _MAX_ITER]),
    "synth": (cmd_synth, "shape at given normal coordinates", [
        _MODEL, _COORDS, _OUT,
        _option("--affine", help="affine file for physical reconstruction")]),
    "sweep": (cmd_sweep, "corner-to-corner design-space sweeps", [
        _option("--space", None, choices=("pga", "cst"), default="pga"),
        _option("--model"), _option("--affine"),
        _option("--coefficients", help="coefficients.csv for --space cst"),
        _option("--count", _int, default=4),
        _option("--steps", _int, default=20),
        _option("--seed", _int, default=0), _N, _OUT]),
    "blade-interp": (cmd_blade_interp, "sections or wireframe of a blade", [
        _BLADE, _OUT, _option("--eta", _float, action="append"),
        _option("--spans", _int), _option("--samples-per-section", _int)]),
    "blade-perturb": (cmd_blade_perturb, "consistent blade deformation", [
        _BLADE, _MODEL, _COORDS, _OUT,
        _option("--consistency-tol", _float, default=1e-9)]),
    "render": (cmd_render, "SVG views of shapes, scatters, blades", [
        _option("--kind", None, required=True,
                choices=("shapes", "strip", "scatter", "wireframe")),
        _OUT, _option("--shapes"), _option("--table"),
        _option("--axes", None, default="0,1"), _option("--wireframe")]),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``grassfoil`` parser with every subcommand of :data:`COMMANDS`,
    or only ``command``'s. Its usage lists every subcommand either way, so
    an error it reports reads the same."""
    parser = argparse.ArgumentParser(
        prog="grassfoil",
        description="Airfoil shape spaces on the Grassmannian: dataset "
                    "generation, standardization, intrinsic statistics, "
                    "blade assembly, and rendering.")
    parser.add_argument("--version", action="version", version=__version__)
    # a parser that leaves subcommands out lists them all in its usage line
    # through the metavar argparse derives from them; the full parser sets
    # none, because argparse would also name the argument by it in "argument
    # command: invalid choice" and "arguments are required: command"
    sub = parser.add_subparsers(dest="command", required=True, metavar=(
        None if command is None else "{" + ",".join(COMMANDS) + "}"))
    for name in COMMANDS if command is None else [command]:
        func, text, options = COMMANDS[name]
        p = sub.add_parser(name, help=text)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


@functools.cache
def _openblas_threads():
    """The thread-count getter and setter of numpy's bundled OpenBLAS, or
    None where numpy ships no such library (another BLAS, another layout)."""
    libs = Path(np.__file__).parents[1] / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so")):
        lib = ctypes.CDLL(str(path))
        try:
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Runs its body with numpy's BLAS on one thread, so that a product or
    an eigensolve adds in one order whatever the caller's thread count, and
    restores that count afterwards."""
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    count = get()
    set_(1)
    try:
        yield
    finally:
        set_(count)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    # argparse takes "--coords -0.1,0.2" for two options; glue the vector on.
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--coords" and re.match(r"-\.?\d", argv[i]):
            argv[i - 1:i + 1] = [f"--coords={argv[i]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        with _one_blas_thread():
            results, summary = args.func(args)
            _manifest(args, results)
    except GrassfoilError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
