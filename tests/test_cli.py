"""End-to-end tests of the command line front end."""

import contextlib
import copy
import hashlib
import io
import json
import math
import tempfile
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from grassfoil import io as gio
from grassfoil import svg
from grassfoil.blade import build_blade
from grassfoil.cli import main
from grassfoil.geometry import (affine_apply, affine_subgroup, cst_evaluate,
                                default_baselines)

from conftest import landmarks, per_coordinate_path

N = 101


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Dataset, fitted model, and blade shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["gen-dataset", "--out", str(root / "data"),
                 "--baselines", "3", "--total", "6",
                 "--n", str(N), "--seed", "7"]) == 0
    assert main(["pga-fit", "--shapes", str(root / "data" / "shapes"),
                 "--r", "3", "--out", str(root / "fit")]) == 0
    etas = [0.0, 0.5, 1.0]
    sections = landmarks(
        affine_apply(cst_evaluate(default_baselines()[k], N),
                     affine_subgroup("chord", 0.9 - 0.2 * eta))
        for k, eta in enumerate(etas))
    gio.write_blade(root / "blade.json", build_blade(etas, sections))
    assert main(["blade-interp", "--blade", str(root / "blade.json"),
                 "--spans", "6", "--out", str(root / "interp")]) == 0
    return root


def read_manifest(path):
    return json.loads((path / "manifest.json").read_text())


# ---------------------------------------------------------------------------
# pipeline commands


def test_gen_dataset_outputs(workdir):
    shapes = sorted((workdir / "data" / "shapes").glob("*.dat"))
    assert len(shapes) == 9
    manifest = read_manifest(workdir / "data")
    assert manifest["package_version"]
    assert manifest["config"]["seed"] == 7
    assert manifest["results"]["shapes_written"] == 9
    table = (workdir / "data" / "coefficients.csv").read_text().splitlines()
    assert table[0].startswith("index,baseline,kind,u0")
    assert len(table) == 10


def test_gen_dataset_bytes_match_the_recorded_digests(tmp_path):
    # SHA-256 of every file that this run wrote before the generator worked
    # on stacks; any byte drift in generation or in the writers shows here
    digests = json.loads(
        (Path(__file__).parent / "gen_dataset_digests.json").read_text())
    assert main(["gen-dataset", "--baselines", "4", "--total", "60",
                 "--n", "101", "--seed", "1", "--out", str(tmp_path)]) == 0
    written = sorted(tmp_path.glob("shapes/*.dat")) + [
        tmp_path / "coefficients.csv"]
    got = {f.relative_to(tmp_path).as_posix():
           hashlib.sha256(f.read_bytes()).hexdigest() for f in written}
    assert len(digests) == 65
    assert got == digests


def test_a_smaller_rerun_leaves_only_its_own_shapes(tmp_path, capsys):
    out, shapes = tmp_path / "data", tmp_path / "data" / "shapes"
    args = ["gen-dataset", "--baselines", "2", "--n", "51", "--out", str(out)]
    assert main([*args, "--total", "20"]) == 0
    others = [shapes / "notes.txt", shapes / "mine.dat",
              out / "shape-0099.dat"]
    for path in others:
        path.write_text("kept\n")
    assert main([*args, "--total", "8"]) == 0
    assert sorted(p.name for p in shapes.glob("shape-*.dat")) == [
        f"shape-{k:04d}.dat" for k in range(10)]
    assert all(path.read_text() == "kept\n" for path in others)
    (shapes / "mine.dat").unlink()
    capsys.readouterr()
    assert main(["standardize", "--shapes", str(shapes),
                 "--out", str(tmp_path / "std")]) == 0
    assert capsys.readouterr().out == "standardized 10 shapes\n"


def rerun_files(out, first, second) -> list[str]:
    """The files under ``out`` after two runs into it, and a file of a
    name no command writes, which each rerun must leave alone."""
    assert main([*first, "--out", str(out)]) == 0
    (out / "notes.txt").write_text("kept\n")
    assert main([*second, "--out", str(out)]) == 0
    assert (out / "notes.txt").read_text() == "kept\n"
    return sorted(p.relative_to(out).as_posix() for p in out.rglob("*")
                  if p.is_file())


def test_a_smaller_sweep_rerun_leaves_only_its_own_sweeps(workdir, tmp_path):
    argv = ["sweep", "--space", "cst", "--coefficients",
            str(workdir / "data" / "coefficients.csv"), "--steps", "3",
            "--n", str(N)]
    files = rerun_files(tmp_path / "swp", [*argv, "--count", "3"],
                        [*argv, "--count", "1"])
    assert files == ["manifest.json", "notes.txt", "sweep-0.csv",
                     "sweep-0.svg"]


def test_a_synth_rerun_without_affine_leaves_no_shape(workdir, tmp_path):
    fit = workdir / "fit"
    argv = ["synth", "--model", str(fit / "model.json"), "--coords",
            "0.001,0,0"]
    files = rerun_files(tmp_path / "syn",
                        [*argv, "--affine", str(fit / "mean_affine.json")],
                        argv)
    assert files == ["manifest.json", "notes.txt", "representative.dat"]


def test_a_blade_interp_rerun_leaves_only_its_own_outputs(workdir, tmp_path):
    argv = ["blade-interp", "--blade", str(workdir / "blade.json")]
    files = rerun_files(tmp_path / "bi",
                        [*argv, "--eta", "0.2", "--eta", "0.4", "--eta",
                         "0.6", "--spans", "4"], [*argv, "--eta", "0.3"])
    assert files == ["manifest.json", "notes.txt", "sections/section-000.dat"]


# The reading stages, each run on a family of one landmark count and on a
# family that mixes counts and holds hand-edited files
READING_STAGES = {
    "standardize": (["standardize"], ("one", "mixed")),
    "mean": (["mean"], ("one",)),
    "pga-fit": (["pga-fit", "--r", "3"], ("one",)),
    "shapes": (["render", "--kind", "shapes"], ("one", "mixed")),
    "strip": (["render", "--kind", "strip"], ("one", "mixed")),
}


def reading_stage_digests(root: Path) -> dict[str, str]:
    """SHA-256 of every non-manifest file that the reading stages, and the
    wireframe and scatter drawings, write under ``root``, keyed by stage,
    family and file name."""
    assert main(["gen-dataset", "--baselines", "4", "--total", "20",
                 "--n", "101", "--seed", "1", "--out", str(root / "data")]) == 0
    one = root / "data" / "shapes"
    mixed = root / "mixed"
    mixed.mkdir()
    for k, path in enumerate(sorted(one.glob("*.dat"))):
        text = path.read_text()
        if k % 7 == 3:
            text = text.replace("\n", "\r\n")
        elif k % 7 == 5:
            text = text.replace(" ", "\t")
        (mixed / path.name).write_text(text, newline="")
    gio.write_coordinates(mixed / "shape-0011a.dat",
                          cst_evaluate(default_baselines()[5], 51).points,
                          "shape-0011a coarse")
    runs = [[*argv, "--shapes", str(one if family == "one" else mixed),
             "--out", str(root / "out" / f"{stage}-{family}")]
            for stage, (argv, families) in READING_STAGES.items()
            for family in families]
    # the other drawings share the path and number formatting
    etas = [0.0, 0.5, 1.0]
    gio.write_blade(root / "blade.json", build_blade(etas, landmarks(
        gio.read_coordinates(one / f"shape-{k:04d}.dat")[1] for k in range(3))))
    runs += [
        ["blade-interp", "--blade", str(root / "blade.json"), "--spans", "7",
         "--out", str(root / "interp")],
        ["render", "--kind", "wireframe", "--wireframe",
         str(root / "interp" / "wireframe.csv"),
         "--out", str(root / "out" / "wireframe")],
        ["render", "--kind", "scatter", "--table",
         str(root / "out" / "pga-fit-one" / "normal_coords.csv"),
         "--out", str(root / "out" / "scatter")]]
    for argv in runs:
        assert main(argv) == 0
    return {f.relative_to(root / "out").as_posix():
            hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted((root / "out").glob("*/*"))
            if f.name != "manifest.json"}


def test_reading_stage_bytes_match_the_recorded_digests(tmp_path):
    # recorded before the reader decoded whole families into one stack and
    # before the drawings wrote their numbers in bulk
    digests = json.loads(
        (Path(__file__).parent / "reading_stage_digests.json").read_text())
    assert len(digests) == 17
    assert reading_stage_digests(tmp_path) == digests


def sweep_digests(root: Path) -> dict[str, str]:
    """SHA-256 of every non-manifest file that a cst and a pga sweep write
    under ``root``, keyed by space and file name. The cst box spans a
    baseline and its mirror image, so its steps pass and fail every
    validity flag."""
    data, fit = root / "data", root / "fit"
    assert main(["gen-dataset", "--baselines", "4", "--total", "20",
                 "--n", "101", "--seed", "1", "--out", str(data)]) == 0
    assert main(["pga-fit", "--shapes", str(data / "shapes"), "--r", "3",
                 "--out", str(fit)]) == 0
    v = default_baselines()[0].as_vector()
    gio.write_table(root / "coefficients.csv",
                    [f"{c}{i}" for c in "ul" for i in range(9)],
                    [v, [*v[9:], *v[:9]]])
    common = ["--count", "3", "--steps", "9", "--seed", "2"]
    assert main(["sweep", "--space", "cst", "--coefficients",
                 str(root / "coefficients.csv"), "--n", "101", *common,
                 "--out", str(root / "out" / "cst")]) == 0
    assert main(["sweep", "--space", "pga", "--model", str(fit / "model.json"),
                 "--affine", str(fit / "mean_affine.json"), *common,
                 "--out", str(root / "out" / "pga")]) == 0
    return {f.relative_to(root / "out").as_posix():
            hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted((root / "out").glob("*/*"))
            if f.name != "manifest.json"}


def test_sweep_bytes_match_the_recorded_digests(tmp_path):
    # recorded while sweep still evaluated and validated one step at a time
    digests = json.loads(
        (Path(__file__).parent / "sweep_digests.json").read_text())
    assert len(digests) == 12
    assert sweep_digests(tmp_path) == digests


# Coordinates of a synthesized shape: the mean, a point inside the fitted
# domain and a point far outside it
SYNTH_POINTS = {"zero": ("0,0,0", True), "inside": ("0.01,-0.005,0.002", True),
                "outside": ("3,-2,1", False)}


def synth_digests(root: Path) -> dict[str, str]:
    """SHA-256 of the representative and the shape that ``synth --affine``
    writes at each of ``SYNTH_POINTS``, keyed by point and file name."""
    data, fit, out = root / "data", root / "fit", root / "out"
    assert main(["gen-dataset", "--baselines", "4", "--total", "20",
                 "--n", "101", "--seed", "1", "--out", str(data)]) == 0
    assert main(["pga-fit", "--shapes", str(data / "shapes"), "--r", "3",
                 "--out", str(fit)]) == 0
    for name, (coords, inside) in SYNTH_POINTS.items():
        assert main(["synth", "--model", str(fit / "model.json"),
                     f"--coords={coords}", "--affine",
                     str(fit / "mean_affine.json"),
                     "--out", str(out / name)]) == 0
        assert read_manifest(out / name)["results"]["in_domain"] is inside
    return {f.relative_to(out).as_posix():
            hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.glob("*/*"))
            if f.name != "manifest.json"}


def test_synth_bytes_match_the_recorded_digests(tmp_path):
    # recorded while the model still held its mean and basis as point and
    # tangent objects
    digests = json.loads(
        (Path(__file__).parent / "synth_digests.json").read_text())
    assert len(digests) == 6
    assert synth_digests(tmp_path) == digests


def blade_digests(root: Path) -> dict[str, str]:
    """SHA-256 of every non-manifest file that ``write_blade`` of a built
    3-section blade, ``blade-perturb`` of that blade and of its bare form,
    and ``blade-interp`` of it write under ``root``, keyed by run and file
    name."""
    data, fit, out = root / "data", root / "fit", root / "out"
    assert main(["gen-dataset", "--baselines", "4", "--total", "20",
                 "--n", "101", "--seed", "1", "--out", str(data)]) == 0
    assert main(["pga-fit", "--shapes", str(data / "shapes"), "--r", "3",
                 "--out", str(fit)]) == 0
    sections = np.array([
        affine_apply(gio.read_coordinates(data / "shapes" / f"shape-{k:04d}.dat")[1],
                     affine_subgroup("twist", 0.1 + 0.15 * k)).points
        for k in range(3)])
    gio.write_blade(out / "built" / "blade.json",
                    build_blade([0.0, 0.5, 1.0], sections))
    bare = json.loads((out / "built" / "blade.json").read_text())
    for station in bare["stations"]:
        del station["affine"], station["representative"]
    (root / "bare.json").write_text(json.dumps(bare))
    perturb = ["--model", str(fit / "model.json"), "--coords",
               "0.01,-0.005,0.002"]
    for name, blade in (("explicit", out / "built" / "blade.json"),
                        ("bare", root / "bare.json")):
        assert main(["blade-perturb", "--blade", str(blade), *perturb,
                     "--out", str(out / f"perturb-{name}")]) == 0
    assert main(["blade-interp", "--blade", str(out / "built" / "blade.json"),
                 "--spans", "7", "--samples-per-section", "11", "--eta", "0.5",
                 "--eta", "0.3", "--out", str(out / "interp")]) == 0
    return {f.relative_to(out).as_posix():
            hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.rglob("*"))
            if f.is_file() and f.name != "manifest.json"}


def test_blade_bytes_match_the_recorded_digests(tmp_path):
    # recorded while the blade still held one object per station and
    # evaluated its affine profiles one span at a time
    digests = json.loads(
        (Path(__file__).parent / "blade_digests.json").read_text())
    assert len(digests) == 6
    assert blade_digests(tmp_path) == digests


RERUNS = {
    "gen-dataset": ["gen-dataset", "--baselines", "3", "--total", "6",
                    "--n", str(N), "--seed", "7"],
    "standardize": ["standardize", "--shapes", "{data}/shapes"],
    "mean": ["mean", "--shapes", "{data}/shapes"],
    "pga-fit": ["pga-fit", "--shapes", "{data}/shapes", "--r", "3"],
    "sweep-pga": ["sweep", "--space", "pga", "--model", "{fit}/model.json",
                  "--affine", "{fit}/mean_affine.json", "--count", "2",
                  "--steps", "5", "--seed", "3"],
    "sweep-cst": ["sweep", "--space", "cst", "--coefficients",
                  "{data}/coefficients.csv", "--count", "2", "--steps", "5",
                  "--n", str(N), "--seed", "3"],
    "synth": ["synth", "--model", "{fit}/model.json", "--coords",
              "0.001,-0.002,0.0005", "--affine", "{fit}/mean_affine.json"],
    "blade-interp": ["blade-interp", "--blade", "{blade}", "--eta", "0.3",
                     "--spans", "4", "--samples-per-section", "11"],
    "blade-perturb": ["blade-perturb", "--blade", "{blade}", "--model",
                      "{fit}/model.json", "--coords", "0.002,-0.001,0.0"],
    "render-shapes": ["render", "--kind", "shapes", "--shapes",
                      "{data}/shapes"],
    "render-strip": ["render", "--kind", "strip", "--shapes", "{data}/shapes"],
    "render-wireframe": ["render", "--kind", "wireframe", "--wireframe",
                         "{interp}/wireframe.csv"],
}


def snapshot(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def rerun_argv(workdir, argv, out):
    """A RERUNS vector with its inputs under ``workdir`` and ``--out out``."""
    paths = {"fit": workdir / "fit", "data": workdir / "data",
             "blade": workdir / "blade.json", "interp": workdir / "interp"}
    return [a.format(**paths) for a in argv] + ["--out", out]


def test_rerun_byte_identical(workdir, tmp_path, monkeypatch):
    for command, argv in RERUNS.items():
        argv = rerun_argv(workdir, argv, command)
        runs = []
        for where in ("first", "second"):
            (tmp_path / where).mkdir(exist_ok=True)
            monkeypatch.chdir(tmp_path / where)  # same relative --out in both
            assert main(argv) == 0
            runs.append(snapshot(tmp_path / where / command))
        assert len(runs[0]) > 1 and runs[0] == runs[1], command


def test_standardize_writes_affine_table(workdir, tmp_path):
    out = tmp_path / "std"
    assert main(["standardize", "--shapes", str(workdir / "data" / "shapes"),
                 "--out", str(out)]) == 0
    lines = (out / "affines.csv").read_text().splitlines()
    assert lines[0] == "file,m00,m01,m10,m11,b0,b1"
    assert len(lines) == 10
    affine = gio.read_affine(out / "mean_affine.json")
    assert affine.linear.shape == (2, 2)


def test_mean_outputs(workdir, tmp_path):
    out = tmp_path / "mean"
    assert main(["mean", "--shapes", str(workdir / "data" / "shapes"),
                 "--out", str(out)]) == 0
    name, rep = gio.read_coordinates(out / "mean_rep.dat")
    assert rep.points.shape == (N, 2)
    np.testing.assert_allclose(rep.points.T @ rep.points, np.eye(2),
                               atol=1e-12)
    manifest = read_manifest(out)
    assert manifest["results"]["residual"] < 1e-10
    assert manifest["results"]["tolerance"] == 1e-10


def test_pga_fit_outputs(workdir):
    model = gio.read_model(workdir / "fit" / "model.json")
    assert model.r == 3
    assert np.all(np.diff(model.eigenvalues) <= 1e-18)
    coords = (workdir / "fit" / "normal_coords.csv").read_text().splitlines()
    assert coords[0] == "index,file,t0,t1,t2"
    assert len(coords) == 10
    ev = (workdir / "fit" / "eigenvalues.csv").read_text().splitlines()
    assert ev[0] == "component,eigenvalue,ratio_to_previous"


def named_shapes(root: Path, names: list[str]) -> Path:
    """A directory of baseline coordinate files under the name lines
    ``names``, in file order."""
    shapes = root / "shapes"
    gio.write_coordinate_files(
        [shapes / f"s{k}.dat" for k in range(len(names))],
        [cst_evaluate(default_baselines()[k], N).points
         for k in range(len(names))], names)
    return shapes


@pytest.mark.parametrize("blank", ["", " \t "])
def test_a_blank_name_line_gives_an_empty_file_cell(tmp_path, blank):
    shapes = named_shapes(tmp_path, ["a first", blank, "c"])
    assert main(["standardize", "--shapes", str(shapes),
                 "--out", str(tmp_path / "std")]) == 0
    assert main(["pga-fit", "--shapes", str(shapes), "--r", "2",
                 "--out", str(tmp_path / "fit")]) == 0
    affines = (tmp_path / "std" / "affines.csv").read_text().splitlines()
    coords = (tmp_path / "fit" / "normal_coords.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in affines[1:]] == ["a", "", "c"]
    assert [line.split(",")[1] for line in coords[1:]] == ["a", "", "c"]
    assert main(["render", "--kind", "scatter", "--table",
                 str(tmp_path / "fit" / "normal_coords.csv"),
                 "--out", str(tmp_path / "plot")]) == 0


@pytest.mark.parametrize("command", [["standardize"],
                                     ["pga-fit", "--r", "2"]])
def test_a_comma_in_a_name_token_fails_before_any_write(tmp_path, capsys,
                                                        command):
    shapes = named_shapes(tmp_path, ["a", "x,0 perturb", "c"])
    out = tmp_path / "out"
    assert main([*command, "--shapes", str(shapes), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {shapes / 's1.dat'}:1: name token 'x,0' holds a comma, "
        "which would split its table row\n")
    assert not out.exists()


def test_a_singular_mean_affine_fails_standardize_before_any_write(
        tmp_path, capsys):
    # a shape and its mirror image (y -> -y): the mean linear factor has
    # det 0
    points = cst_evaluate(default_baselines()[5], 51).points
    shapes = tmp_path / "shapes"
    gio.write_coordinate_files([shapes / "a.dat", shapes / "b.dat"],
                               [points, points * [1.0, -1.0]], ["a", "b"])
    out = tmp_path / "out"
    assert main(["standardize", "--shapes", str(shapes),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: linear factor is rank deficient")
    assert not out.exists()


def test_synth_and_domain_flag(workdir, tmp_path):
    out = tmp_path / "syn"
    assert main(["synth", "--model", str(workdir / "fit" / "model.json"),
                 "--coords", "0.001,0.0,0.0",
                 "--affine", str(workdir / "fit" / "mean_affine.json"),
                 "--out", str(out)]) == 0
    results = read_manifest(out)["results"]
    assert results["in_domain"] is True
    assert (out / "representative.dat").exists()
    assert (out / "shape.dat").exists()
    # horizontality is checked relative to the tangent's size, so a huge
    # coordinate is not blamed on an internal vector
    for k, coords in enumerate(["99.0,0.0,0.0", "1e8,0,0"]):
        far = tmp_path / f"far{k}"
        assert main(["synth", "--model", str(workdir / "fit" / "model.json"),
                     "--coords", coords, "--out", str(far)]) == 0
        assert read_manifest(far)["results"]["in_domain"] is False


@pytest.mark.parametrize("command", ["synth", "blade-perturb"])
def test_coords_may_start_with_a_minus(workdir, tmp_path, command):
    out = tmp_path / "neg"
    argv = {"synth": ["synth"],
            "blade-perturb": ["blade-perturb", "--blade",
                              str(workdir / "blade.json")]}[command]
    assert main(argv + ["--model", str(workdir / "fit" / "model.json"),
                        "--coords", "-0.001,0.001,0", "--out", str(out)]) == 0
    assert read_manifest(out)["config"]["coords"] == "-0.001,0.001,0"


def test_sweep_pga_space(workdir, tmp_path):
    out = tmp_path / "swp"
    assert main(["sweep", "--space", "pga",
                 "--model", str(workdir / "fit" / "model.json"),
                 "--affine", str(workdir / "fit" / "mean_affine.json"),
                 "--count", "2", "--steps", "4", "--seed", "5",
                 "--out", str(out)]) == 0
    for k in range(2):
        lines = (out / f"sweep-{k}.csv").read_text().splitlines()
        assert lines[0] == "step,t0,t1,t2,valid,rank_ok,simple,ordering_ok"
        assert len(lines) == 5
        ET.fromstring((out / f"sweep-{k}.svg").read_text())
    summary = read_manifest(out)["results"]["sweeps"]
    assert [s["steps"] for s in summary] == [4, 4]


def test_sweep_cst_space(workdir, tmp_path):
    out = tmp_path / "swc"
    assert main(["sweep", "--space", "cst",
                 "--coefficients", str(workdir / "data" / "coefficients.csv"),
                 "--count", "1", "--steps", "4", "--seed", "5",
                 "--n", str(N), "--out", str(out)]) == 0
    lines = (out / "sweep-0.csv").read_text().splitlines()
    assert lines[0].startswith("step,u0")
    assert lines[0].endswith("valid,rank_ok,simple,ordering_ok")


@pytest.mark.parametrize("space", ["pga", "cst"])
def test_sweep_rows_sit_at_the_shapes_fractions(workdir, tmp_path, space):
    # geometry.sweep_points owns step i at s = i / (steps - 1): the CLI
    # builds each shape from the very point it writes on that row
    inputs = {"pga": ["--model", str(workdir / "fit" / "model.json"),
                      "--affine", str(workdir / "fit" / "mean_affine.json")],
              "cst": ["--coefficients",
                      str(workdir / "data" / "coefficients.csv"),
                      "--n", str(N)]}[space]
    out = tmp_path / space
    assert main(["sweep", "--space", space, *inputs, "--count", "1",
                 "--steps", "20", "--seed", "5", "--out", str(out)]) == 0
    header = (out / "sweep-0.csv").read_text().splitlines()[0].split(",")
    rows = gio.read_table(out / "sweep-0.csv", header[1:-4])
    assert len(rows) == 20
    for i, row in enumerate(rows):
        s = i / 19
        assert np.array_equal(row, (1 - s) * rows[0] + s * rows[-1]), i


def test_synth_far_outside_the_domain_warns_nothing(workdir, tmp_path):
    out = tmp_path / "far"  # pytest turns any warning into an error
    assert main(["synth", "--model", str(workdir / "fit" / "model.json"),
                 "--coords=1e200,0,-1e300", "--out", str(out)]) == 0
    assert read_manifest(out)["results"]["in_domain"] is False


def test_sweep_requires_space_inputs(workdir, tmp_path):
    assert main(["sweep", "--space", "pga", "--out",
                 str(tmp_path / "x")]) == 1
    assert not (tmp_path / "x").exists()


def test_blade_interp(workdir, tmp_path):
    out = tmp_path / "bi"
    assert main(["blade-interp", "--blade", str(workdir / "blade.json"),
                 "--eta", "0.25", "--eta", "0.8", "--spans", "5",
                 "--out", str(out)]) == 0
    sections = sorted((out / "sections").glob("*.dat"))
    assert len(sections) == 2
    grid = gio.read_wireframe(out / "wireframe.csv")
    assert grid.shape == (5, N, 3)


def test_blade_interp_needs_a_request(workdir, tmp_path):
    assert main(["blade-interp", "--blade", str(workdir / "blade.json"),
                 "--out", str(tmp_path / "bi")]) == 1


def test_blade_perturb(workdir, tmp_path):
    out = tmp_path / "bp"
    assert main(["blade-perturb", "--blade", str(workdir / "blade.json"),
                 "--model", str(workdir / "fit" / "model.json"),
                 "--coords", "0.002,0.0,0.0", "--out", str(out)]) == 0
    perturbed = gio.read_blade(out / "blade.json")
    assert perturbed.n_stations == 3
    results = read_manifest(out)["results"]
    assert "design_parameters" in results


def test_render_shapes_and_strip(workdir, tmp_path):
    for kind in ("shapes", "strip"):
        out = tmp_path / kind
        assert main(["render", "--kind", kind,
                     "--shapes", str(workdir / "data" / "shapes"),
                     "--out", str(out)]) == 0
        root = ET.fromstring((out / f"{kind}.svg").read_text())
        paths = [el for el in root.iter() if el.tag.endswith("path")]
        assert len(paths) == 9  # one closed path per shape
        for el in paths:
            assert el.attrib["d"].endswith("Z")


def test_render_scatter(workdir, tmp_path):
    out = tmp_path / "sc"
    assert main(["render", "--kind", "scatter",
                 "--table", str(workdir / "fit" / "normal_coords.csv"),
                 "--axes", "0,1", "--out", str(out)]) == 0
    root = ET.fromstring((out / "scatter.svg").read_text())
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    assert len(circles) == 9


def test_render_wireframe(workdir, tmp_path):
    wf = tmp_path / "wf"
    assert main(["blade-interp", "--blade", str(workdir / "blade.json"),
                 "--spans", "6", "--out", str(wf)]) == 0
    out = tmp_path / "rw"
    assert main(["render", "--kind", "wireframe",
                 "--wireframe", str(wf / "wireframe.csv"),
                 "--out", str(out)]) == 0
    root = ET.fromstring((out / "wireframe.svg").read_text())
    paths = [el for el in root.iter() if el.tag.endswith("path")]
    assert len(paths) == 6


@pytest.mark.parametrize("kind", ["shapes", "strip", "wireframe"])
def test_render_bytes_match_per_coordinate_paths(workdir, tmp_path,
                                                 monkeypatch, kind):
    source = (["--wireframe", str(workdir / "interp" / "wireframe.csv")]
              if kind == "wireframe"
              else ["--shapes", str(workdir / "data" / "shapes")])
    texts = []
    for where in ("one-format", "per-coordinate"):
        if where == "per-coordinate":
            monkeypatch.setattr(svg, "_path_data", lambda views: [
                per_coordinate_path(view) for view in views])
        out = tmp_path / where
        assert main(["render", "--kind", kind, *source, "--out", str(out)]) == 0
        texts.append((out / f"{kind}.svg").read_bytes())
    assert texts[0] == texts[1]


# ---------------------------------------------------------------------------
# exit codes


def test_unknown_subcommand_exits_2(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_unknown_flag_exits_2(capsys):
    assert main(["gen-dataset", "--bogus"]) == 2
    capsys.readouterr()


def test_operation_error_exits_1(workdir, tmp_path, capsys):
    code = main(["synth", "--model", str(workdir / "fit" / "model.json"),
                 "--coords", "1,2", "--out", str(tmp_path / "syn")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1  # one-line diagnostic


def test_missing_input_exits_1(tmp_path):
    assert main(["mean", "--shapes", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "out")]) == 1


def test_pga_fit_has_no_method_option(workdir, tmp_path, capsys):
    assert main(["pga-fit", "--shapes", str(workdir / "data" / "shapes"),
                 "--method", "gram", "--out", str(tmp_path / "fit")]) == 2
    assert "--method" in capsys.readouterr().err
    assert not (tmp_path / "fit").exists()


def test_gen_dataset_has_no_per_baseline_option(tmp_path, capsys):
    assert main(["gen-dataset", "--per-baseline", "2",
                 "--out", str(tmp_path / "data")]) == 2
    assert "--per-baseline" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


def test_version_exits_0(capsys):
    assert main(["--version"]) == 0
    capsys.readouterr()


# each option value is malformed, or an empty path, so argparse rejects it
USAGE_ERRORS = {
    "steps-underscore": ["sweep", "--model", "{fit}/model.json", "--affine",
                         "{fit}/mean_affine.json", "--steps", "1_0"],
    "steps-arabic-indic": ["sweep", "--model", "{fit}/model.json", "--affine",
                           "{fit}/mean_affine.json", "--steps",
                           "\u0661\u0660"],
    "eta-underscore": ["blade-interp", "--blade", "{blade}", "--eta", "1_0"],
    "shapes-empty": ["mean", "--shapes", ""],
    "model-empty": ["synth", "--model", "", "--coords", "0,0,0"],
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_malformed_option_value_exits_2(workdir, tmp_path, monkeypatch,
                                        capsys, case):
    monkeypatch.chdir(tmp_path)  # an empty path would mean this directory
    assert main(rerun_argv(workdir, USAGE_ERRORS[case], "out")) == 2
    assert "error: argument --" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


BAD_INPUTS = {
    "missing-model": (["synth", "--model", "{tmp}/missing.json",
                       "--coords", "0,0,0"], "missing.json"),
    "non-utf8-dat": (["mean", "--shapes", "{tmp}/latin1.dat"], "latin1.dat"),
    "dat-cell-not-a-number": (["mean", "--shapes", "{tmp}/bad.dat"],
                              "bad.dat:3:3: not a number"),
    "invalid-json": (["synth", "--model", "{tmp}/broken.json",
                      "--coords", "0,0,0"], "broken.json:2:2: invalid JSON"),
    "axes-not-integers": (["render", "--kind", "scatter", "--table",
                           "{fit}/normal_coords.csv", "--axes", "x,y"],
                          "'x,y'"),
    "csv-cell-not-a-number": (["render", "--kind", "scatter", "--table",
                               "{tmp}/coords.csv"], "coords.csv:2: "),
    "coefficient-not-a-number": (["sweep", "--space", "cst",
                                  "--coefficients", "{tmp}/coeffs.csv"],
                                 "coeffs.csv:2: "),
    "out-is-a-file": (["gen-dataset", "--out", "{tmp}/latin1.dat"],
                      "latin1.dat"),
    "svg-target-is-a-directory": (["render", "--kind", "shapes", "--shapes",
                                   "{data}/shapes", "--out", "{tmp}/taken"],
                                  "shapes.svg"),
    "mean-negative-max-iter": (["mean", "--shapes", "{data}/shapes",
                                "--max-iter", "-1"], "max_iter must be >= 0"),
    "pga-fit-negative-max-iter": (["pga-fit", "--shapes", "{data}/shapes",
                                   "--max-iter", "-1"],
                                  "max_iter must be >= 0"),
    "dat-too-few-points": (["mean", "--shapes", "{tmp}/short.dat"],
                           "short.dat: a shape needs at least 3 points"),
    "dat-coordinates-overflow": (["mean", "--shapes", "{tmp}/huge.dat"],
                                 "exceed 1e+150 in magnitude"),
    "dat-mismatched-landmarks": (["mean", "--shapes", "{tmp}/mixed"],
                                 "{tmp}/mixed/six.dat: 6 landmarks, but "
                                 "{tmp}/mixed/five.dat has 5"),
    # b.dat is a.dat scaled by 1e-7: |det| of its linear factor < 1e-12
    **{f"dat-linear-factor-singular-{cmd}": (
        [cmd, "--shapes", "{tmp}/tiny"],
        "{tmp}/tiny/b.dat: linear factor is rank deficient")
       for cmd in ("standardize", "mean", "pga-fit")},
    "dat-collinear": (["standardize", "--shapes", "{tmp}/line.dat"],
                      "line.dat: centered landmarks are numerically collinear"),
    "model-missing-key": (["synth", "--model", "{tmp}/keyless.json",
                           "--coords", "0,0,0"],
                          "keyless.json: missing key 'n'"),
    "model-wrong-version": (["synth", "--model", "{tmp}/v2.json",
                             "--coords", "0,0,0"],
                            "v2.json: unsupported model format_version 2"),
    "csv-cell-not-finite": (["render", "--kind", "scatter", "--table",
                             "{tmp}/nan.csv"], "nan.csv:3: non-finite"),
    "wireframe-cell-not-finite": (["render", "--kind", "wireframe",
                                   "--wireframe", "{tmp}/wire.csv"],
                                  "wire.csv:3: non-finite"),
    "wireframe-negative-index": (["render", "--kind", "wireframe",
                                  "--wireframe", "{tmp}/negative.csv"],
                                 "negative.csv:5: section and landmark must "
                                 "be non-negative integers"),
    "gen-dataset-negative-seed": (["gen-dataset", "--seed", "-1",
                                   "--baselines", "1", "--total", "1",
                                   "--n", "21"], "seed must be >= 0, got -1"),
    # u0 runs from a baseline's value up to 1e200 in this sweep, so step 1
    # is the first too large to validate
    "sweep-cst-step-overflows": (["sweep", "--space", "cst", "--coefficients",
                                  "{tmp}/huge-coeffs.csv", "--n", "21",
                                  "--seed", "1"],
                                 "error: sweep 0, step 1: landmark "
                                 "coordinates exceed 1e+150 in magnitude"),
    "sweep-negative-seed": (["sweep", "--space", "cst", "--coefficients",
                             "{data}/coefficients.csv", "--seed", "-1"],
                            "--seed must be >= 0, got -1"),
    "mean-nan-tolerance": (["mean", "--shapes", "{data}/shapes",
                            "--tol", "nan"],
                           "tol must be finite and > 0, got nan"),
    "blade-perturb-nan-tolerance": (["blade-perturb", "--blade",
                                     "{fit}/../blade.json", "--model",
                                     "{fit}/model.json", "--coords",
                                     "0.01,0,0", "--consistency-tol", "nan"],
                                    "consistency tolerance must be finite "
                                    "and >= 0, got nan"),
    "dat-cut-locus": (["mean", "--shapes", "{tmp}/cut"],
                      "{tmp}/cut/b.dat: shape 1 is at the cut locus"),
    "affine-rank-deficient": (["synth", "--model", "{fit}/model.json",
                               "--coords", "0,0,0", "--affine",
                               "{tmp}/sing.json"],
                              "sing.json: linear factor is rank deficient"),
    "blade-repeated-eta": (["blade-interp", "--blade", "{tmp}/dup.json",
                            "--eta", "0"],
                           "dup.json: station spans must be strictly "
                           "increasing"),
    "model-mean-moved": (["synth", "--model", "{tmp}/moved.json",
                          "--coords", "0,0,0"],
                         "moved.json: vector is not horizontal"),
    "synth-nan-coords": (["synth", "--model", "{fit}/model.json",
                          "--coords", "nan,0,0"],
                         "coordinates must be finite, got 'nan,0,0'"),
    "blade-perturb-inf-coords": (["blade-perturb", "--blade",
                                  "{fit}/../blade.json", "--model",
                                  "{fit}/model.json", "--coords", "0,inf,0"],
                                 "coordinates must be finite, got '0,inf,0'"),
    "sweep-cst-without-coefficients": (["sweep", "--space", "cst"],
                                       "--space cst needs --coefficients"),
    "sweep-count-below-one": (["sweep", "--space", "cst", "--coefficients",
                               "{data}/coefficients.csv", "--count", "-2"],
                              "--count must be >= 1, got -2"),
    "sweep-one-step": (["sweep", "--space", "pga", "--model",
                        "{fit}/model.json", "--affine",
                        "{fit}/mean_affine.json", "--steps", "1"],
                       "a sweep needs at least 2 steps, got 1"),
    "blade-interp-eta-out-of-span": (["blade-interp", "--blade",
                                      "{fit}/../blade.json", "--eta", "0.5",
                                      "--eta", "2"], "span 2.0 outside [0, 1]"),
    "blade-interp-too-few-samples": (["blade-interp", "--blade",
                                      "{fit}/../blade.json", "--eta", "0.5",
                                      "--spans", "4",
                                      "--samples-per-section", "2"],
                                     "samples per section must be in "
                                     "[3, 101], got 2"),
    "blade-section-a-string": (["blade-interp", "--blade",
                                "{tmp}/nan-section.json", "--eta", "0.5"],
                               "nan-section.json: key 'stations[1].section' "
                               "is not a numeric array"),
    "blade-eta-huge-integer": (["blade-interp", "--blade",
                                "{tmp}/big-eta.json", "--eta", "0.5"],
                               "big-eta.json: key 'stations[1].eta' must be "
                               "a finite number"),
    "model-mean-as-strings": (["synth", "--model", "{tmp}/strings.json",
                               "--coords", "0,0,0"],
                              "strings.json: key 'mean' is not a numeric "
                              "array"),
    "model-null-eigenvalue": (["synth", "--model", "{tmp}/null.json",
                               "--coords", "0,0,0"],
                              "null.json: key 'eigenvalues' is not a numeric "
                              "array"),
    "model-r-true": (["synth", "--model", "{tmp}/rtrue.json",
                      "--coords", "0,0,0"],
                     "rtrue.json: key 'r' must be an integer >= 1, got True"),
    "model-version-true": (["synth", "--model", "{tmp}/vtrue.json",
                            "--coords", "0,0,0"],
                           "vtrue.json: unsupported model format_version "
                           "True"),
    "model-nested-too-deeply": (["synth", "--model", "{tmp}/deep.json",
                                 "--coords", "0,0,0"],
                                "deep.json: invalid JSON: nested too deeply"),
    "model-huge-integer": (["synth", "--model", "{tmp}/hugeint.json",
                            "--coords", "0,0,0"],
                           "hugeint.json: invalid JSON: exceeds the limit"),
    "synth-coords-underscore": (["synth", "--model", "{fit}/model.json",
                                 "--coords", "1_0e-3,0,0"],
                                "could not parse coordinates '1_0e-3,0,0'"),
    "synth-affine-huge-translation": (["synth", "--model", "{fit}/model.json",
                                       "--coords", "0,0,0", "--affine",
                                       "{tmp}/huge-affine.json"],
                                      "huge-affine.json: key 'translation' "
                                      "exceeds 1e+150 in magnitude"),
    "model-mean-huge": (["synth", "--model", "{tmp}/huge-mean.json",
                         "--coords", "0,0,0"],
                        "huge-mean.json: key 'mean' exceeds 1e+150 in "
                        "magnitude"),
    "blade-section-holds-true": (["blade-interp", "--blade",
                                  "{tmp}/true-section.json", "--eta", "0.3"],
                                 "true-section.json: key "
                                 "'stations[1].section' is not a numeric "
                                 "array"),
    "blade-interp-samples-without-spans": (["blade-interp", "--blade",
                                            "{fit}/../blade.json", "--eta",
                                            "0.5", "--samples-per-section",
                                            "11"],
                                           "--samples-per-section needs "
                                           "--spans"),
    "blade-spans-far-apart": (["blade-interp", "--blade", "{tmp}/far.json",
                               "--eta", "0.3", "--spans", "3"],
                              "far.json: the affine profile between stations "
                              "1 and 2 (eta 0.5 and 1e+120) overflows"),
    "blade-spans-too-close": (["blade-interp", "--blade", "{tmp}/close.json",
                               "--eta", "0.3", "--spans", "3"],
                              "close.json: the affine profile between "
                              "stations 0 and 1 (eta 0.0 and 1e-170) "
                              "overflows"),
    "model-top-level-list": (["synth", "--model", "{tmp}/list.json",
                              "--coords", "0,0,0"],
                             "list.json: expected an object at 'top level'"),
    "model-mean-ragged": (["synth", "--model", "{tmp}/ragged.json",
                           "--coords", "0,0,0"],
                          "ragged.json: key 'mean' is not a numeric array"),
    "model-eigenvalue-infinite": (["synth", "--model", "{tmp}/inf.json",
                                   "--coords", "0,0,0"],
                                  "inf.json: key 'eigenvalues' contains "
                                  "non-finite values"),
    "model-row-major": (["synth", "--model", "{tmp}/rows.json",
                         "--coords", "0,0,0"],
                        "rows.json: key 'flatten_order' is 'row-major'; "
                        "this build reads 'column-major'"),
    "blade-station-a-number": (["blade-interp", "--blade", "{tmp}/five.json",
                                "--eta", "0.5"],
                               "five.json: key 'stations[1]' must be an "
                               "object"),
    "shapes-directory-empty": (["mean", "--shapes", "{tmp}/empty"],
                               "no .dat coordinate files under {tmp}/empty"),
    "gen-dataset-no-baselines": (["gen-dataset", "--baselines", "0"],
                                 "--baselines must be in [1, 16], got 0"),
    # no perturbation is drawn, so only the generator's own check sees these
    "gen-dataset-fraction-above-one": (["gen-dataset", "--total", "0",
                                        "--fraction", "5"],
                                       "perturbation fraction must lie in "
                                       "[0, 1], got 5.0"),
    "gen-dataset-fraction-nan": (["gen-dataset", "--total", "0",
                                  "--fraction", "nan"],
                                 "perturbation fraction must lie in [0, 1], "
                                 "got nan"),
    "render-scatter-without-table": (["render", "--kind", "scatter"],
                                     "--kind scatter needs --table"),
    "render-wireframe-without-file": (["render", "--kind", "wireframe"],
                                      "--kind wireframe needs --wireframe"),
    "wireframe-record-repeated": (["render", "--kind", "wireframe",
                                   "--wireframe", "{tmp}/hole.csv"],
                                  "hole.csv:5: grid has missing (section, "
                                  "landmark) records"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_ends_in_one_error_line(workdir, tmp_path, capsys, case):
    (tmp_path / "latin1.dat").write_bytes(b"caf\xe9\n0 0\n1 0\n0 1\n")
    (tmp_path / "coords.csv").write_text("index,t0,t1\n0,0.5,zero\n")
    header, first = (
        workdir / "data" / "coefficients.csv").read_text().splitlines()[:2]
    broken = first.replace(",0.", ",x", 1)  # one u0..l8 cell loses its number
    (tmp_path / "coeffs.csv").write_text("\n".join([header, broken]) + "\n")
    cells = first.split(",")
    cells[3] = "1e200"  # u0
    (tmp_path / "huge-coeffs.csv").write_text(
        "\n".join([header, first, ",".join(cells)]) + "\n")
    (tmp_path / "bad.dat").write_text("bad\n0 0\n1 zz\n0 1\n")
    (tmp_path / "broken.json").write_text("{\n broken\n}\n")
    (tmp_path / "short.dat").write_text("short\n0 0\n1 0\n")
    (tmp_path / "huge.dat").write_text(
        "huge\n1e300 0\n0 1e300\n-1e300 -1e300\n")
    (tmp_path / "keyless.json").write_text('{"format_version": 1}\n')
    (tmp_path / "v2.json").write_text('{"format_version": 2}\n')
    (tmp_path / "nan.csv").write_text("index,t0,t1\n0,0.5,0.1\n1,nan,0.2\n")
    (tmp_path / "wire.csv").write_text(
        "section,landmark,x,y,eta\n0,0,0.0,0.0,0.0\n0,1,inf,0.0,0.0\n")
    (tmp_path / "negative.csv").write_text(
        "section,landmark,x,y,eta\n0,0,0.0,0.0,0.0\n0,1,1.0,0.0,0.0\n"
        "1,0,0.0,0.0,1.0\n-1,1,1.0,0.0,1.0\n")
    # the centred columns of a.dat and b.dat span orthogonal planes
    (tmp_path / "cut").mkdir()
    (tmp_path / "cut" / "a.dat").write_text("a\n1 0\n-1 0\n0 1\n0 -1\n0 0\n")
    (tmp_path / "cut" / "b.dat").write_text(
        "b\n1 1\n1 1\n-1 1\n-1 1\n0 -4\n")
    (tmp_path / "taken" / "shapes.svg").mkdir(parents=True)
    (tmp_path / "mixed").mkdir()
    (tmp_path / "mixed" / "five.dat").write_text(
        "five\n0 0\n1 0\n1 1\n0 1\n0.5 0.5\n")
    (tmp_path / "mixed" / "six.dat").write_text(
        "six\n0 0\n1 0\n1 1\n0 1\n0.5 0.5\n0.2 0.3\n")
    (tmp_path / "line.dat").write_text("line\n0 0\n1 1\n2 2\n")
    (tmp_path / "tiny").mkdir()
    for name, scale in [("a", 1.0), ("b", 1e-7)]:
        (tmp_path / "tiny" / f"{name}.dat").write_text(name + "\n" + "".join(
            f"{x * scale!r} {y * scale!r}\n"
            for x, y in [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.3)]))
    (tmp_path / "sing.json").write_text(json.dumps(
        {"format_version": 1, "linear": [[1, 2], [2, 4]],
         "translation": [0, 0]}))
    section = cst_evaluate(default_baselines()[0], 9).points.tolist()
    (tmp_path / "dup.json").write_text(json.dumps(
        {"format_version": 1, "n": 9,
         "stations": [{"eta": 0.0, "section": section}] * 2}))
    (tmp_path / "nan-section.json").write_text(json.dumps(
        {"format_version": 1, "n": 9,
         "stations": [{"eta": 0.0, "section": section},
                      {"eta": 1.0, "section": "NaN"}]}))
    flagged = [row[:] for row in section]
    flagged[4][1] = True  # reads as 1.0 unless it is caught
    (tmp_path / "true-section.json").write_text(json.dumps(
        {"format_version": 1, "n": 9,
         "stations": [{"eta": 0.0, "section": section},
                      {"eta": 1.0, "section": flagged}]}))
    affine = json.loads((workdir / "fit" / "mean_affine.json").read_text())
    affine["translation"][0] = 1e308
    (tmp_path / "huge-affine.json").write_text(json.dumps(affine))
    (tmp_path / "big-eta.json").write_text(json.dumps(
        {"format_version": 1, "n": 9,
         "stations": [{"eta": 0.0, "section": section},
                      {"eta": 10 ** 400, "section": section}]}))
    for name, etas in [("far", [0.0, 0.5, 1e120]),
                       ("close", [0.0, 1e-170, 1.0])]:
        (tmp_path / f"{name}.json").write_text(json.dumps(
            {"format_version": 1, "n": 9,
             "stations": [{"eta": eta, "section": section} for eta in etas]}))
    (tmp_path / "five.json").write_text(json.dumps(
        {"format_version": 1, "n": 9,
         "stations": [{"eta": 0.0, "section": section}, 5]}))
    (tmp_path / "empty").mkdir()
    (tmp_path / "hole.csv").write_text(
        "section,landmark,x,y,eta\n0,0,0.0,0.0,0.0\n0,0,1.0,0.0,0.0\n"
        "1,0,0.0,0.0,1.0\n1,1,1.0,0.0,1.0\n")
    model = json.loads((workdir / "fit" / "model.json").read_text())
    for name, key, value in [
            ("strings", "mean", [repr(v) for v in model["mean"]]),
            ("null", "eigenvalues", [None, *model["eigenvalues"][1:]]),
            ("rtrue", "r", True), ("vtrue", "format_version", True),
            ("huge-mean", "mean", [1e200, *model["mean"][1:]]),
            ("ragged", "mean", [model["mean"][:2], model["mean"][2:3]]),
            ("inf", "eigenvalues", [math.inf, *model["eigenvalues"][1:]]),
            ("rows", "flatten_order", "row-major")]:
        (tmp_path / f"{name}.json").write_text(
            json.dumps({**model, key: value}))
    (tmp_path / "list.json").write_text(json.dumps([model]))
    (tmp_path / "deep.json").write_text("[" * 100000)
    (tmp_path / "hugeint.json").write_text(
        '{"format_version": 1, "n": ' + "1" * 5000 + "}")
    model["mean"][0] += 0.5
    (tmp_path / "moved.json").write_text(json.dumps(model))
    argv, named = BAD_INPUTS[case]
    named = named.format(tmp=tmp_path)
    argv = [a.format(tmp=tmp_path, fit=workdir / "fit", data=workdir / "data")
            for a in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert named in err
    assert not (tmp_path / "out").exists()  # a failed command writes nothing


# ---------------------------------------------------------------------------
# fuzzing: mutated coordinate files never end in a traceback

FUZZ_TOKENS = ["nan", "inf", "1e308", "-1e308", "1e-320", "0", "-0.0", "1_0",
               "zz", "", "1 2", "\u00a01"]


@st.composite
def mutated_dat_files(draw):
    files = []
    for k in range(draw(st.integers(min_value=1, max_value=3))):
        pts = cst_evaluate(default_baselines()[k],
                           draw(st.sampled_from([7, 9]))).points.tolist()
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            i = draw(st.integers(min_value=0, max_value=len(pts) - 1))
            action = draw(st.sampled_from(["drop", "repeat", "scale", "same"]))
            if action == "drop":
                del pts[i]
            elif action == "repeat":
                pts.insert(i, pts[i])
            elif action == "scale":
                factor = draw(st.sampled_from([1e-300, 1e150, 1e300]))
                pts[i] = [v * factor for v in pts[i]]
            else:
                pts = [pts[i]] * len(pts)
            if not pts:
                break
        lines = [f"{x!r} {y!r}" for x, y in pts]
        if lines and draw(st.booleans()):
            i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
            tokens = lines[i].split()
            tokens[draw(st.integers(0, 1))] = draw(
                st.sampled_from(FUZZ_TOKENS))
            lines[i] = " ".join(tokens)
        data = ("\n".join([f"shape {k}"] + lines) + "\n").encode()
        if draw(st.integers(min_value=0, max_value=5)) == 5:
            data = data.replace(b"e", b"\xe9", 1)
        files.append(data)
    return files


@given(st.sampled_from(["standardize", "mean"]), mutated_dat_files())
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_cli_fuzz_mutated_shapes_end_in_one_error_line(command, files):
    with tempfile.TemporaryDirectory() as tmp:
        shapes = Path(tmp) / "shapes"
        shapes.mkdir()
        for k, data in enumerate(files):
            (shapes / f"s{k}.dat").write_bytes(data)
        stderr = io.StringIO()
        # a warning would reach a user's stderr too; make it fail the test
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--shapes", str(shapes),
                         "--out", str(Path(tmp) / "out")])
        out_left = (Path(tmp) / "out").exists()
    err = stderr.getvalue()
    assert code in (0, 1)
    if code == 1:
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out_left
    else:
        assert "error:" not in err


# ---------------------------------------------------------------------------
# fuzzing: every subcommand's arguments, one option dropped or replaced

ARG_TOKENS = ["-1", "0", "1", "2", "nan", "inf", "-inf", "1e308", "1_0", "",
              "x", "0,0"]
SIZE_OPTIONS = ("--n", "--spans", "--steps", "--count", "--total")


def test_arg_tokens_keep_sizes_small():
    # the options reject "1_0", but Python's int() reads it as 10; guard
    # anyway, so that no token may make a run large
    for argv in RERUNS.values():
        for flag, value in zip(argv, argv[1:]):
            if flag in SIZE_OPTIONS:
                for token in ARG_TOKENS:
                    try:
                        assert int(token) <= 10 * int(value), (flag, token)
                    except ValueError:
                        pass


@st.composite
def mutated_argv(draw):
    argv = list(RERUNS[draw(st.sampled_from(sorted(RERUNS)))])
    i = draw(st.sampled_from(
        [k for k, a in enumerate(argv) if a.startswith("--")]))
    if draw(st.booleans()):
        del argv[i:i + 2]
    else:
        argv[i + 1] = draw(st.sampled_from(ARG_TOKENS))
    return argv


@given(argv=mutated_argv())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_cli_fuzz_mutated_arguments(workdir, argv):
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(rerun_argv(workdir, argv, "out"))
        out_left = Path("out").exists()
    err = stderr.getvalue()
    assert code in (0, 1, 2)
    if code == 1:
        assert err.startswith("error:") and err.count("\n") == 1
    if code:
        assert not out_left


# ---------------------------------------------------------------------------
# fuzzing: mutated model, affine and blade files never end in a traceback

# Values that JSON cannot carry through json.dumps go in as placeholders.
JSON_SPLICES = {
    '"@HUGE@"': "1" * 5000,  # past CPython's int-digit limit
    '"@DEEP@"': "[" * 100000 + "]" * 100000,  # past the decoder's recursion
    '"@NESTED@"': "[" * 70 + "0.5" + "]" * 70,  # past numpy's dimensions
}
JSON_MUTANTS = ["0.5", "NaN", None, True, False, "x", {}, [], [[0.5]],
                0.5, 7, 1e308, float("nan"), 10 ** 400, "@DROP@",
                *(k.strip('"') for k in JSON_SPLICES)]
JSON_INPUTS = {
    "model": ["synth", "--model", "{file}", "--coords", "0.001,0,0"],
    "affine": ["synth", "--model", "{fit}/model.json", "--affine", "{file}",
               "--coords", "0.001,0,0"],
    "blade": ["blade-interp", "--blade", "{file}", "--eta", "0.3",
              "--spans", "3"],
    "bare-blade": ["blade-interp", "--blade", "{file}", "--eta", "0.3",
                   "--spans", "3"],
}


def json_source(workdir, kind):
    path = {"model": workdir / "fit" / "model.json",
            "affine": workdir / "fit" / "mean_affine.json"}.get(
                kind, workdir / "blade.json")
    doc = json.loads(path.read_text())
    if kind == "bare-blade":
        for station in doc["stations"]:
            del station["affine"], station["representative"]
    return doc


def mutate_somewhere(data, node):
    """Replace or drop one value at a random depth under ``node``."""
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    if not keys:
        return
    key = data.draw(st.sampled_from(keys))
    child = node[key]
    if (isinstance(child, (dict, list)) and child
            and data.draw(st.integers(0, 3))):  # mostly go deeper
        mutate_somewhere(data, child)
        return
    value = data.draw(st.sampled_from(JSON_MUTANTS))
    if value == "@DROP@":
        del node[key]
    else:
        node[key] = copy.deepcopy(value)  # later draws may mutate it


@given(data=st.data())
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_cli_fuzz_mutated_json_files(workdir, data):
    kind = data.draw(st.sampled_from(sorted(JSON_INPUTS)))
    doc = json_source(workdir, kind)
    for _ in range(data.draw(st.integers(min_value=1, max_value=2))):
        if type(doc.get("n")) is int and data.draw(st.integers(0, 4)) == 0:
            doc["n"] += data.draw(st.sampled_from([-1, 1]))  # a wrong n
        else:
            mutate_somewhere(data, doc)
    text = json.dumps(doc)
    for placeholder, literal in JSON_SPLICES.items():
        text = text.replace(placeholder, literal)
    if data.draw(st.integers(0, 4)) == 0:
        text = text[:data.draw(st.integers(0, len(text) - 1))]
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        Path("input.json").write_text(text)
        argv = [a.format(file="input.json", fit=workdir / "fit")
                for a in JSON_INPUTS[kind]]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv + ["--out", "out"])
        out_left = Path("out").exists()
    err = stderr.getvalue()
    assert code in (0, 1)
    if code == 1:
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out_left
    else:
        assert "error:" not in err


# ---------------------------------------------------------------------------
# fuzzing: mutated coefficient, normal-coordinate and wireframe tables never
# end in a traceback

CSV_INPUTS = {
    "coefficients": (["sweep", "--space", "cst", "--coefficients", "{file}",
                      "--count", "1", "--steps", "3", "--n", "21"],
                     "data/coefficients.csv"),
    "normal-coords": (["render", "--kind", "scatter", "--table", "{file}"],
                      "fit/normal_coords.csv"),
    "wireframe": (["render", "--kind", "wireframe", "--wireframe", "{file}"],
                  "interp/wireframe.csv"),
}
CSV_CELLS = ["x", "", "0x1", "1_0", "nan", "-inf", "1e400", "-1e400", "0.5",
             "-1", "7"]


def mutate_table(data, lines):
    """One edit of a CSV table's lines: a cell, a field, a header name or a
    duplicated record."""
    action = data.draw(st.sampled_from(
        ["cell", "drop-field", "extra-field", "header", "duplicate",
         "overwrite"]))
    i = data.draw(st.integers(1, len(lines) - 1))
    fields = lines[i].split(",")
    j = data.draw(st.integers(0, len(fields) - 1))
    if action == "cell":
        fields[j] = data.draw(st.sampled_from(CSV_CELLS))
    elif action == "drop-field":
        del fields[j]
    elif action == "extra-field":
        fields.insert(j, data.draw(st.sampled_from(CSV_CELLS)))
    elif action == "header":
        header = lines[0].split(",")
        header[data.draw(st.integers(0, len(header) - 1))] = "zz"
        lines[0] = ",".join(header)
    elif action == "duplicate":  # a repeated record
        lines.insert(i, lines[i])
    else:  # a record replaced by a copy of another
        fields = lines[data.draw(st.integers(1, len(lines) - 1))].split(",")
    lines[i] = ",".join(fields)


@given(data=st.data())
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_cli_fuzz_mutated_csv_files(workdir, data):
    kind = data.draw(st.sampled_from(sorted(CSV_INPUTS)))
    argv, source = CSV_INPUTS[kind]
    lines = (workdir / source).read_text().splitlines()
    for _ in range(data.draw(st.integers(min_value=1, max_value=2))):
        mutate_table(data, lines)
    text = "\n".join(lines) + "\n"
    if data.draw(st.integers(0, 4)) == 0:
        text = text[:data.draw(st.integers(0, len(text) - 1))]
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        Path("input.csv").write_text(text)
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([a.format(file="input.csv") for a in argv]
                        + ["--out", "out"])
        out_left = Path("out").exists()
    err = stderr.getvalue()
    assert code in (0, 1)
    if code == 1:
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out_left
    else:
        assert "error:" not in err
