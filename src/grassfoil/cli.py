"""Batch command line for the full pipeline.

Each subcommand is a thin composition of module operations: generate a
dataset, standardize it, fit a mean or a full model, synthesize or sweep
shapes, interpolate or perturb blades, and render SVG views. Every run
writes a manifest.json next to its outputs echoing the parsed
configuration, so any artifact can be regenerated byte-identically.
"""
from __future__ import annotations

import argparse
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
from .errors import (CutLocusError, DegenerateShapeError, DimensionError,
                     FileFormatError, GrassfoilError, ParameterError)
from .geometry import (
    AFFINE_COMPONENT_NAMES,
    CstParams,
    LandmarkMatrix,
    affine_vectors,
    baseline_names,
    cst_evaluate,
    default_baselines,
    gen_dataset_detailed,
    sweep_points,
    validate_shape,
)
from .grassmann import mean_affine, reconstruct_with, standardize_stack
from .pga import domain_contains, karcher_mean, pga_fit, synthesize

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
        try:
            runs.append(standardize_stack(points))
        except DegenerateShapeError as err:
            index = start + err.shape_index
            raise DegenerateShapeError(f"{files[index]}: {err}",
                                       shape_index=index) from None
        start += len(points)
    frames, linear, translation = zip(*runs)
    return (files, family.names, frames, np.concatenate(linear),
            np.concatenate(translation))


def _fit_mean(args):
    """Shared prologue of mean and pga-fit: load, standardize, average."""
    files, names, (frames,), linear, translation = _standardized(
        args.shapes, one_count=True)
    try:
        result = karcher_mean(frames, tol=args.tol, max_iter=args.max_iter)
    except CutLocusError as err:
        path = files[err.shape_index]
        raise CutLocusError(f"{path}: {err}", max_angle=err.max_angle,
                            shape_index=err.shape_index) from None
    return names, result, mean_affine(linear, translation)


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
    gio.write_coordinate_files(
        (shape_dir / f"shape-{item.index:04d}.dat", item.landmarks,
         f"shape-{item.index:04d} {kind} {names[item.baseline_index]}")
        for item, kind in zip(detail, kinds))
    rows = [[item.index, item.baseline_index, kind, *item.params.as_vector()]
            for item, kind in zip(detail, kinds)]
    gio.write_table(args.out / "coefficients.csv",
                    ["index", "baseline", "kind", *_COEFF_COLUMNS], rows)
    return ({"shapes_written": len(detail)},
            f"wrote {len(detail)} shapes to {shape_dir}")


def cmd_standardize(args) -> tuple[dict, str]:
    _, names, _, linear, translation = _standardized(args.shapes)
    rows = [[name.split()[0], *vec] for name, vec
            in zip(names, affine_vectors(linear, translation))]
    gio.write_table(args.out / "affines.csv",
                    ["file", *AFFINE_COMPONENT_NAMES], rows)
    gio.write_affine(args.out / "mean_affine.json",
                     mean_affine(linear, translation))
    return ({"shapes_standardized": len(names)},
            f"standardized {len(names)} shapes")


def cmd_mean(args) -> tuple[dict, str]:
    names, result, affine = _fit_mean(args)
    mean = result.point
    gio.write_coordinates(args.out / "mean_rep.dat", LandmarkMatrix(mean.rep),
                          "karcher-mean-representative")
    gio.write_affine(args.out / "mean_affine.json", affine)
    gio.write_coordinates(args.out / "mean_shape.dat",
                          reconstruct_with(mean, affine),
                          "karcher-mean-shape")
    return ({"residual": result.residual, "shapes": len(names),
             "tolerance": args.tol},
            f"mean of {len(names)} shapes, "
            f"gradient residual {result.residual:.3e}")


def cmd_pga_fit(args) -> tuple[dict, str]:
    names, result, affine = _fit_mean(args)
    model = pga_fit(result.point, result.logs, args.r)
    gio.write_model(args.out / "model.json", model)
    gio.write_affine(args.out / "mean_affine.json", affine)
    coord_rows = [[i, name.split()[0], *model.training_coords[i]]
                  for i, name in enumerate(names)]
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
    point = synthesize(model, t)
    inside = domain_contains(model, t)
    results = {"in_domain": inside, "coords": t.tolist()}
    if affine is not None:
        shape = reconstruct_with(point, affine)
        results.update(_validity(shape))
    gio.write_coordinates(args.out / "representative.dat",
                          LandmarkMatrix(point.rep),
                          "synthesized-representative")
    if affine is not None:
        gio.write_coordinates(args.out / "shape.dat", shape,
                              "synthesized-shape")
    return results, f"synthesized at t={t.tolist()}, in_domain={inside}"


# A shape counts as valid when it is full rank and non-self-intersecting.
# Orientation is reported separately: the shared reference affine mirrors
# shapes whose own affine factor had opposite handedness.
_VALIDITY_COLUMNS = ["valid", "rank_ok", "simple", "ordering_ok"]


def _validity(shape) -> dict[str, bool]:
    diag = validate_shape(shape)
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
        lo, hi = model.domain.bounds_min, model.domain.bounds_max
        columns = [f"t{j}" for j in range(model.r)]

        def shape_at(t):
            return reconstruct_with(synthesize(model, t), affine)
    else:
        if args.coefficients is None:
            raise ParameterError("--space cst needs --coefficients")
        coeffs = gio.read_table(args.coefficients, _COEFF_COLUMNS)
        lo, hi = coeffs.min(axis=0), coeffs.max(axis=0)
        columns = _COEFF_COLUMNS

        def shape_at(v):
            return cst_evaluate(CstParams.from_vector(v), args.n)
    sweeps = []
    for k in range(args.count):
        rng = np.random.default_rng(np.random.SeedSequence([args.seed, k]))
        flip = rng.integers(0, 2, size=lo.shape).astype(bool)
        points = sweep_points(np.where(flip, hi, lo), np.where(flip, lo, hi),
                              args.steps)
        shapes = [shape_at(p) for p in points]
        rows = [[i, *p, *map(int, _validity(s).values())]
                for i, (p, s) in enumerate(zip(points, shapes))]
        sweeps.append((rows, svg.render_strip(
            [np.array([s.points for s in shapes])])))
    for k, (rows, strip) in enumerate(sweeps):
        gio.write_table(args.out / f"sweep-{k}.csv",
                        ["step", *columns, *_VALIDITY_COLUMNS], rows)
        gio.write_text(args.out / f"sweep-{k}.svg", strip)
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
    results = {}
    for i, (eta, section) in enumerate(zip(etas, sections)):
        gio.write_coordinates(args.out / "sections" / f"section-{i:03d}.dat",
                              section, f"section eta={eta!r}")
    if args.eta is not None:
        results["sections"] = len(etas)
    if grid is not None:
        gio.write_wireframe(args.out / "wireframe.csv", grid)
        results["wireframe_shape"] = list(grid.shape)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grassfoil",
        description="Airfoil shape spaces on the Grassmannian: dataset "
                    "generation, standardization, intrinsic statistics, "
                    "blade assembly, and rendering.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-dataset", help="generate baseline + perturbed shapes")
    p.add_argument("--out", required=True, type=_path)
    p.add_argument("--baselines", type=_int, default=16)
    p.add_argument("--total", type=_int, default=1000,
                   help="total perturbations split across baselines")
    p.add_argument("--fraction", type=_float, default=0.2)
    p.add_argument("--seed", type=_int, default=7)
    p.add_argument("--n", type=_int, default=401)
    p.set_defaults(func=cmd_gen_dataset)

    p = sub.add_parser("standardize", help="affine factors of a shape family")
    p.add_argument("--shapes", required=True, type=_path)
    p.add_argument("--out", required=True, type=_path)
    p.set_defaults(func=cmd_standardize)

    p = sub.add_parser("mean", help="Karcher mean of standardized shapes")
    p.add_argument("--shapes", required=True, type=_path)
    p.add_argument("--out", required=True, type=_path)
    p.add_argument("--tol", type=_float, default=1e-10)
    p.add_argument("--max-iter", type=_int, default=200)
    p.set_defaults(func=cmd_mean)

    p = sub.add_parser("pga-fit", help="principal-geodesic model of a family")
    p.add_argument("--shapes", required=True, type=_path)
    p.add_argument("--out", required=True, type=_path)
    p.add_argument("--r", type=_int, default=4)
    p.add_argument("--tol", type=_float, default=1e-10)
    p.add_argument("--max-iter", type=_int, default=200)
    p.set_defaults(func=cmd_pga_fit)

    p = sub.add_parser("synth", help="shape at given normal coordinates")
    p.add_argument("--model", required=True, type=_path)
    p.add_argument("--coords", required=True)
    p.add_argument("--out", required=True, type=_path)
    p.add_argument("--affine", type=_path, default=None,
                   help="affine file for physical reconstruction")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("sweep", help="corner-to-corner design-space sweeps")
    p.add_argument("--space", choices=("pga", "cst"), default="pga")
    p.add_argument("--model", type=_path, default=None)
    p.add_argument("--affine", type=_path, default=None)
    p.add_argument("--coefficients", type=_path, default=None,
                   help="coefficients.csv for --space cst")
    p.add_argument("--count", type=_int, default=4)
    p.add_argument("--steps", type=_int, default=20)
    p.add_argument("--seed", type=_int, default=0)
    p.add_argument("--n", type=_int, default=401)
    p.add_argument("--out", required=True, type=_path)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("blade-interp", help="sections or wireframe of a blade")
    p.add_argument("--blade", required=True, type=_path)
    p.add_argument("--out", required=True, type=_path)
    p.add_argument("--eta", type=_float, action="append", default=None)
    p.add_argument("--spans", type=_int, default=None)
    p.add_argument("--samples-per-section", type=_int, default=None)
    p.set_defaults(func=cmd_blade_interp)

    p = sub.add_parser("blade-perturb", help="consistent blade deformation")
    p.add_argument("--blade", required=True, type=_path)
    p.add_argument("--model", required=True, type=_path)
    p.add_argument("--coords", required=True)
    p.add_argument("--out", required=True, type=_path)
    p.add_argument("--consistency-tol", type=_float, default=1e-9)
    p.set_defaults(func=cmd_blade_perturb)

    p = sub.add_parser("render", help="SVG views of shapes, scatters, blades")
    p.add_argument("--kind", choices=("shapes", "strip", "scatter", "wireframe"),
                   required=True)
    p.add_argument("--out", required=True, type=_path)
    p.add_argument("--shapes", type=_path, default=None)
    p.add_argument("--table", type=_path, default=None)
    p.add_argument("--axes", default="0,1")
    p.add_argument("--wireframe", type=_path, default=None)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
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
        results, summary = args.func(args)
        _manifest(args, results)
    except GrassfoilError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
