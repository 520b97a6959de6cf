#!/usr/bin/env python3
"""Benchmark of the grassfoil CLI pipeline at full scale.

    python3 perfbench/run.py --workload design-space --seed 1 \\
        --seconds 30 --trace 0

Run from the root of a source checkout. The benchmark imports grassfoil
from ``src/`` and drives ``grassfoil.cli.main`` in this one process, each
CLI call starting after the previous one returns (a closed loop). Inputs
the timed passes need but do not time (a fitted model, a blade file) are
made with the program before timing starts. Human-readable lines come
first on standard output; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics with tracing off. ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics
from spans recorded around calls into each layer (see ``spans.py``), plus
the tracing overhead. ``--scale toy`` runs the same workloads at toy size;
``smoke.py`` uses it. Workloads and metrics are described in README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclasses.dataclass(frozen=True)
class Scale:
    n: int          # landmarks per shape
    baselines: int  # gen-dataset --baselines
    total: int      # gen-dataset --total (perturbations)
    sweeps: int     # sweep --count, per space
    steps: int      # sweep --steps
    queries: int    # synth / blade-perturb calls per pass
    spans: int      # blade-interp --spans
    samples: int    # blade-interp --samples-per-section
    stations: int   # blade stations
    imports: int    # fresh interpreters after each timed pass, for setup_s
                    # and blade.import_s


SCALES = {
    "full": Scale(n=401, baselines=16, total=1000, sweeps=8, steps=40,
                  queries=100, spans=400, samples=101, stations=9,
                  imports=3),
    "toy": Scale(n=101, baselines=2, total=8, sweeps=2, steps=5, queries=3,
                 spans=10, samples=11, stations=3, imports=1),
}

TOL = 1e-10  # mean / pga-fit --tol
R = 4        # pga-fit --r
# Share of the model's domain ellipsoid the query coordinates are drawn
# from: synth explores the whole design space, blade-perturb applies
# modest design changes to an existing blade.
SYNTH_REACH = 0.9
PERTURB_REACH = 0.25

# Time metrics take each call's fastest time over a run's passes, and the
# fastest fresh import, because the host's slow spells only ever add time
# (see README.md). The median pass and pooled call percentiles are printed
# and kept in the run record.
END_TO_END = {"wall_s": "s", "call_p50_ms": "ms", "setup_s": "s",
              "peak_rss_mb": "MB"}

SUBCOMMANDS = ("gen-dataset", "standardize", "mean", "pga-fit", "render",
               "sweep", "synth", "blade-interp", "blade-perturb")
LAYER_NAMES = ("geometry", "grassmann", "pga", "blade", "io", "svg")
_CALLS_AND_SELF = (
    "geometry.validate_shape", "geometry.cst_evaluate",
    "grassmann.la_standardize", "grassmann.log_map", "grassmann.exp_map",
    "grassmann.geodesic_point", "pga.synthesize", "blade.build_blade",
    "blade.interpolate_section", "io.read_coordinates",
    "io.write_coordinates")
_SELF_ONLY = (
    "pga.karcher_mean", "pga.pga_fit", "pga.corner_sweep",
    "blade.perturb_blade", "blade.export_wireframe", "io.read_model",
    "io.read_blade", "io.write_blade", "io.read_json", "io.write_json",
    "io.write_table", "io.write_wireframe", "svg.render_shapes",
    "svg.render_strip")

PER_LAYER = {
    **{f"{f}.calls": "count" for f in _CALLS_AND_SELF},
    **{f"{f}.self_s": "s" for f in _CALLS_AND_SELF + _SELF_ONLY},
    "grassmann.procrustes_rotation.calls": "count",
    "geometry.validate_shape.minflt": "count",
    "geometry.validate_shape.ordered_frac": "fraction",
    "geometry.gen_dataset.accept_ratio": "ratio",
    "pga.karcher_mean.iterations": "count",
    "pga.log_map_per_shape": "count",
    "blade.import_s": "s",
    "io.bytes_read": "computed_B",
    "io.bytes_written": "computed_B",
    **{f"cli.{sub}.s": "s" for sub in SUBCOMMANDS},
    "cli.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYER_NAMES},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.layer_frac": "fraction",
}


# ---------------------------------------------------------------------------
# CLI calls and their output checks


@dataclasses.dataclass
class Call:
    argv: list[str]
    out: str              # output directory the call writes
    check: object = None  # check(results, first) -> list of problems


def _results(out: str) -> dict:
    manifest = json.loads(Path(out, "manifest.json").read_text())
    return manifest.get("results", {})


def _expect(cond: bool, problem: str) -> list[str]:
    return [] if cond else [problem]


def _same_as_first(key: str, value, first: dict) -> list[str]:
    """Record ``value`` on the first pass; later passes must reproduce it."""
    expected = first.setdefault(key, value)
    return _expect(value == expected,
                   f"{key} is {value!r}, first pass {expected!r}")


def design_space_calls(cfg: Scale, seed: int, out: str,
                       ctx: dict) -> list[Call]:
    shapes = f"{out}/data/shapes"
    count = cfg.baselines + cfg.total

    def counted(key):
        return lambda res, first: _expect(res[key] == count,
                                          f"{key} is {res[key]}")

    def residual_ok(res, first):
        return _expect(res["residual"] < TOL,
                       f"residual {res['residual']} >= {TOL}")

    def pga_ok(res, first):
        ev = res["eigenvalues"]
        return residual_ok(res, first) + _expect(
            len(ev) == R and all(a >= b for a, b in zip(ev, ev[1:])),
            f"eigenvalues {ev} are not {R} non-increasing values")

    def svg_ok(res, first):
        return _expect(Path(out, "plot", "shapes.svg").stat().st_size > 0,
                       "empty shapes.svg")

    return [
        Call(["gen-dataset", "--out", f"{out}/data",
              "--baselines", str(cfg.baselines), "--total", str(cfg.total),
              "--fraction", "0.2", "--seed", str(seed), "--n", str(cfg.n)],
             f"{out}/data", counted("shapes_written")),
        Call(["standardize", "--shapes", shapes, "--out", f"{out}/affines"],
             f"{out}/affines", counted("shapes_standardized")),
        Call(["mean", "--shapes", shapes, "--out", f"{out}/mean",
              "--tol", str(TOL)], f"{out}/mean", residual_ok),
        Call(["pga-fit", "--shapes", shapes, "--out", f"{out}/model",
              "--r", str(R), "--tol", str(TOL)], f"{out}/model", pga_ok),
        Call(["render", "--kind", "shapes", "--shapes", shapes,
              "--out", f"{out}/plot"], f"{out}/plot", svg_ok),
    ]


def _sweep_ok(key: str, cfg: Scale):
    def check(res, first):
        sweeps = res["sweeps"]
        return (_expect(len(sweeps) == cfg.sweeps
                        and all(s["steps"] == cfg.steps for s in sweeps),
                        f"sweep summary {sweeps}")
                + _same_as_first(key, [s["valid"] for s in sweeps], first))
    return check


def _in_domain(res, first):
    return _expect(res["in_domain"] is True,
                   "query coordinates left the domain")


def design_query_calls(cfg: Scale, seed: int, out: str,
                       ctx: dict) -> list[Call]:
    model, affine = "prep/model/model.json", "prep/model/mean_affine.json"
    sweep = ["--count", str(cfg.sweeps), "--steps", str(cfg.steps),
             "--seed", str(seed)]
    calls = [
        Call(["sweep", "--space", "pga", "--model", model, "--affine", affine,
              *sweep, "--out", f"{out}/sweep-pga"],
             f"{out}/sweep-pga", _sweep_ok("valid steps (pga)", cfg)),
        Call(["sweep", "--space", "cst",
              "--coefficients", "prep/data/coefficients.csv", *sweep,
              "--n", str(cfg.n), "--out", f"{out}/sweep-cst"],
             f"{out}/sweep-cst", _sweep_ok("valid steps (cst)", cfg)),
    ]
    # --coords=VALUE: argparse would read a vector starting with '-' as
    # an option
    for i, coords in enumerate(ctx["synth_coords"][:cfg.queries]):
        target = f"{out}/synth-{i:03d}"
        calls.append(Call(["synth", "--model", model, f"--coords={coords}",
                           "--affine", affine, "--out", target],
                          target, _in_domain))
    return calls


def blade_calls(cfg: Scale, seed: int, out: str, ctx: dict) -> list[Call]:
    grid = [cfg.spans, cfg.samples, 3]

    def grid_ok(res, first):
        return _expect(res["wireframe_shape"] == grid,
                       f"wireframe shape {res['wireframe_shape']}")

    def perturb_ok(res, first):
        return _in_domain(res, first) + _same_as_first(
            "design parameters", res["design_parameters"], first)

    calls = [Call(["blade-interp", "--blade", "prep/blade.json",
                   "--out", f"{out}/interp", "--spans", str(cfg.spans),
                   "--samples-per-section", str(cfg.samples)],
                  f"{out}/interp", grid_ok)]
    for i, coords in enumerate(ctx["perturb_coords"][:cfg.queries]):
        target = f"{out}/perturb-{i:03d}"
        calls.append(Call(["blade-perturb", "--blade", "prep/blade.json",
                           "--model", "prep/model/model.json",
                           f"--coords={coords}", "--out", target],
                          target, perturb_ok))
    return calls


# ---------------------------------------------------------------------------
# inputs made before timing


def _child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def _run_cli_child(argvs: list[list[str]]) -> None:
    """Run CLI calls in a child interpreter so their memory is not ours."""
    code = ("import json, sys\nfrom grassfoil.cli import main\n"
            "sys.exit(int(any(main(a) for a in json.loads(sys.argv[1]))))")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                          env=_child_env(), capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"input preparation failed: {proc.stderr}")


def _query_coords(seed: int, stream: int, model_path: str, count: int,
                  reach: float) -> list[str]:
    """Seeded points inside ``reach`` times the model's domain ellipsoid."""
    import numpy as np
    model = json.loads(Path(model_path).read_text())
    radii = np.array(model["domain"]["ellipsoid_radii"])
    rng = np.random.default_rng([seed, stream])
    direction = rng.standard_normal((count, len(radii)))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radius = reach * rng.uniform(size=count) ** (1.0 / len(radii))
    return [",".join(repr(float(v)) for v in row)
            for row in direction * radius[:, None] * radii]


def prepare_model(cfg: Scale, seed: int, ctx: dict) -> None:
    _run_cli_child([
        ["gen-dataset", "--out", "prep/data",
         "--baselines", str(cfg.baselines), "--total", str(cfg.total),
         "--fraction", "0.2", "--seed", str(seed), "--n", str(cfg.n)],
        ["pga-fit", "--shapes", "prep/data/shapes", "--out", "prep/model",
         "--r", str(R), "--tol", str(TOL)],
    ])
    model = "prep/model/model.json"
    ctx["synth_coords"] = _query_coords(seed, 1, model, cfg.queries,
                                        SYNTH_REACH)
    ctx["perturb_coords"] = _query_coords(seed, 2, model, cfg.queries,
                                          PERTURB_REACH)


def prepare_blade(cfg: Scale, seed: int, ctx: dict) -> None:
    """The design-query model plus a bare blade of seeded CST sections.

    Stations carry only eta and section, so every read_blade standardizes
    and clusters them again. Chord shrinks and twist grows along the span,
    as in the acceptance-test blade.
    """
    import numpy as np
    from grassfoil import io as gio
    from grassfoil.geometry import (affine_apply, affine_subgroup,
                                    compose_affine, cst_evaluate,
                                    default_baselines, perturb_cst)
    prepare_model(cfg, seed, ctx)
    rng = np.random.default_rng([seed, 3])
    baselines = default_baselines()
    base = baselines[int(rng.integers(len(baselines)))]
    stations = []
    for eta in np.linspace(0.0, 1.0, cfg.stations):
        params = perturb_cst(base, 0.10, int(rng.integers(2**31)))
        aff = compose_affine(affine_subgroup("chord", 0.95 - 0.45 * eta),
                             affine_subgroup("twist", 0.05 + 0.20 * eta))
        section = affine_apply(cst_evaluate(params, cfg.n), aff)
        stations.append({"eta": float(eta),
                         "section": section.points.tolist()})
    gio.write_json("prep/blade.json",
                   {"format_version": 1, "n": cfg.n, "stations": stations})


@dataclasses.dataclass(frozen=True)
class Workload:
    calls: object      # (cfg, seed, out, ctx) -> list[Call]
    prepare: object    # (cfg, seed, ctx) -> None, or None
    query: str         # subcommand whose latency call_p50_ms reports
    warm: object       # Scale -> the Scale of the warm-up pass


WORKLOADS = {
    # design-space repeats no query call; gen-dataset is the stage that
    # ROADMAP item 2 promises to make 5x faster
    "design-space": Workload(
        design_space_calls, None, "gen-dataset",
        lambda cfg: dataclasses.replace(cfg, total=min(cfg.total, 100))),
    "design-query": Workload(
        design_query_calls, prepare_model, "synth",
        lambda cfg: dataclasses.replace(cfg, sweeps=1, queries=5)),
    "blade": Workload(blade_calls, prepare_blade, "blade-perturb",
                      lambda cfg: dataclasses.replace(cfg, queries=5)),
}


# ---------------------------------------------------------------------------
# passes


@dataclasses.dataclass
class Pass:
    traced: bool
    wall: float
    durations: list[float]
    failed: int = 0
    artifacts: dict | None = None  # path -> (sha256, size)


def _invoke(main, argv: list[str], tracer) -> tuple[int, str]:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        sid = tracer.open("cli." + argv[0]) if tracer.active else None
        try:
            rc = main(argv)
        except Exception as err:  # a traceback fails the call, not the run
            rc = -1
            sink.write(f"{type(err).__name__}: {err}")
        finally:
            if sid is not None:
                tracer.close(sid)
    return rc, sink.getvalue()


def _artifacts(out: str) -> dict[str, tuple[str, int]]:
    found = {}
    for path in sorted(Path(out).rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            found[path.as_posix()] = (hashlib.sha256(data).hexdigest(),
                                      len(data))
    return found


def run_pass(main, calls: list[Call], tracer, traced: bool, first: dict,
             problems: list[str]) -> Pass:
    """Time one closed-loop pass, then check its outputs outside the timing."""
    shutil.rmtree("pass", ignore_errors=True)
    tracer.active = traced
    outcomes, durations = [], []
    start = time.perf_counter()
    for call in calls:
        t0 = time.perf_counter()
        outcomes.append(_invoke(main, call.argv, tracer))
        durations.append(time.perf_counter() - t0)
    wall = time.perf_counter() - start
    tracer.active = False
    done = Pass(traced, wall, durations)
    for call, (rc, text) in zip(calls, outcomes):
        issues = [f"exit {rc}: {text.strip()[-300:]}"] if rc != 0 else []
        if not issues and call.check is not None:
            try:
                issues = call.check(_results(call.out), first)
            except (OSError, KeyError, TypeError, ValueError) as err:
                issues = [f"unreadable output: {type(err).__name__}: {err}"]
        if issues:
            done.failed += 1
            problems.append(f"{call.argv[0]} -> {call.out}: "
                            + "; ".join(issues))
    done.artifacts = _artifacts("pass")
    return done


def _digest(artifacts: dict) -> str:
    lines = "".join(f"{sha}  {path}\n"
                    for path, (sha, _) in artifacts.items())
    return hashlib.sha256(lines.encode()).hexdigest()


# ---------------------------------------------------------------------------
# set-up time and the run record


def _fresh_import(flags: list[str]) -> subprocess.CompletedProcess:
    code = ("import time\nt = time.perf_counter()\nimport grassfoil.cli\n"
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, *flags, "-c", code],
                          env=_child_env(), capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"import grassfoil.cli failed: {proc.stderr}")
    return proc


def setup_seconds(runs: int) -> list[float]:
    """Fresh-interpreter ``import grassfoil.cli``; every CLI call pays it."""
    return [float(_fresh_import([]).stdout) for _ in range(runs)]


def blade_import_seconds(runs: int) -> list[float]:
    """Cumulative import of grassfoil.blade, scipy included (-X importtime)."""
    pattern = re.compile(
        r"^import time:\s*\d+ \|\s*(\d+) \|\s*grassfoil\.blade$", re.M)
    values = []
    for _ in range(runs):
        match = pattern.search(_fresh_import(["-X", "importtime"]).stderr)
        if match is None:
            raise RuntimeError("no grassfoil.blade line from -X importtime")
        values.append(int(match.group(1)) * 1e-6)
    return values


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def run_record(args) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = hashlib.sha256()
    for path in sorted((SRC / "grassfoil").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
        "machine": {"nproc": NPROC, "cpu_model": _cpu_model(),
                    "platform": platform.platform()},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": {var: os.environ[var] for var in BLAS_THREADS}},
        "git_commit": _git_commit(), "source_sha256": sources.hexdigest(),
    }


# ---------------------------------------------------------------------------
# metrics


def best_times(passes: list[Pass]) -> list[float]:
    """Each call's fastest time over the passes, in pass order."""
    return [min(times) for times in zip(*(p.durations for p in passes))]


def end_to_end(passes: list[Pass], calls: list[Call], query: str,
               setup: list[float]) -> tuple[dict, int]:
    def queried(times):
        return [t for call, t in zip(calls, times)
                if call.argv[0] == query]

    best = best_times(passes)
    pooled = [t for p in passes for t in queried(p.durations)]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": sum(best),
        "call_p50_ms": 1e3 * statistics.median(queried(best)),
        "setup_s": min(setup),
        "peak_rss_mb": rss_kb / 1024.0,
        "median_pass_s": statistics.median(p.wall for p in passes),
        "pooled_call_p50_ms": 1e3 * statistics.median(pooled),
        "pooled_call_p90_ms": 1e3 * statistics.quantiles(
            pooled, n=10, method="inclusive")[8],
        "median_setup_s": statistics.median(setup),
    }, len(pooled)


def per_layer(tracer, traced: list[Pass], untraced: list[Pass],
              shapes: int, import_s: list[float]) -> dict:
    """Per-layer metrics, each per traced pass, from the recorded spans."""
    from spans import self_times
    spans, counters = tracer.spans, tracer.counters
    calls, self_s, root = self_times(spans)
    k = len(traced)

    def ratio(num, den):
        return num / den if den else 0.0

    def in_layer(prefix):
        return sum(v for name, v in self_s.items()
                   if name.startswith(prefix)) / k

    m = {f"{f}.calls": calls[f] / k for f in _CALLS_AND_SELF}
    m.update({f"{f}.self_s": self_s[f] / k
              for f in _CALLS_AND_SELF + _SELF_ONLY})
    m["grassmann.procrustes_rotation.calls"] = (
        calls["grassmann.procrustes_rotation"] / k)
    m["geometry.validate_shape.minflt"] = (
        counters["geometry.validate_shape.minflt"] / k)
    m["geometry.validate_shape.ordered_frac"] = ratio(
        counters["geometry.validate_shape.ordered"],
        calls["geometry.validate_shape"])
    m["geometry.gen_dataset.accept_ratio"] = ratio(
        counters["geometry.gen_dataset.kept"],
        counters["geometry.gen_dataset.evaluated"])
    karcher_steps = sum(1 for name, _, _, parent in spans
                        if name == "grassmann.exp_map" and parent >= 0
                        and spans[parent][0] == "pga.karcher_mean")
    m["pga.karcher_mean.iterations"] = ratio(karcher_steps,
                                             calls["pga.karcher_mean"])
    fit_logs = sum(1 for sid, span in enumerate(spans)
                   if span[0] == "grassmann.log_map"
                   and spans[root[sid]][0] in ("cli.mean", "cli.pga-fit"))
    m["pga.log_map_per_shape"] = fit_logs / (shapes * k)
    m["blade.import_s"] = min(import_s)
    m["io.bytes_read"] = counters["io.bytes_read"] / k
    m["io.bytes_written"] = sum(size for p in traced
                                for _, size in p.artifacts.values()) / k
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}.s"] = sum(end - start for name, start, end, _ in spans
                                if name == f"cli.{sub}") / k
    m["cli.self_s"] = in_layer("cli.")
    for layer in LAYER_NAMES:
        m[f"{layer}.self_s"] = in_layer(layer + ".")
    traced_wall = sum(best_times(traced))
    untraced_wall = sum(best_times(untraced))
    m["trace.wall_s"] = traced_wall
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    # the self times of all spans add up to the cli.* root spans, so the
    # share of the traced wall that only layer spans cover is the coverage
    m["trace.layer_frac"] = (sum(m[f"{layer}.self_s"] for layer in LAYER_NAMES)
                             / statistics.fmean(p.wall for p in traced))
    return m


# ---------------------------------------------------------------------------
# main


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def _one_blas_thread() -> None:
    """One BLAS thread, set before numpy loads.

    The matrices are small, and a multi-threaded BLAS waits at every call
    for its slowest thread, so a core that another process takes slows the
    whole call.
    """
    for var in BLAS_THREADS:
        os.environ[var] = "1"


def _prime_allocator() -> None:
    """Leave malloc as a long-running process leaves it, before warming up.

    glibc serves large blocks with mmap and returns them on free, until
    freeing one raises its mmap and trim thresholds to that block's size.
    Full-scale arrays (the 1016 shapes of 401 x 2 landmarks are 6.5 MB)
    stay below the 30 MB block freed here, so they reuse heap pages instead
    of faulting in fresh ones on every call. Without this, after a warm-up
    on 100 perturbations the first timed design-space pass ran 20-50%
    slower than the second in every stage; a full-scale warm-up pass fixed
    that too, but took 12 s of every run.
    """
    import numpy as np
    # untouched, so it never counts in the peak RSS
    np.empty(30 << 17)  # 30 MB of float64, freed at once


def measure(args, main, tracer):
    """Prepare inputs, warm up, then run passes for ``args.seconds``.

    Fresh-interpreter imports follow each timed pass, so the set-up samples
    are spread over the whole run like the passes are. At least two passes
    run, so a --trace 1 run has one of each kind and a pass longer than
    ``args.seconds`` is never the only sample.
    """
    cfg = SCALES[args.scale]
    workload = WORKLOADS[args.workload]
    time_imports = blade_import_seconds if args.trace else setup_seconds
    imports: list[float] = []
    ctx: dict = {}
    if workload.prepare is not None:
        workload.prepare(cfg, args.seed, ctx)
    _prime_allocator()
    for call in workload.calls(workload.warm(cfg), args.seed, "pass", ctx):
        _invoke(main, call.argv, tracer)
    calls = workload.calls(cfg, args.seed, "pass", ctx)
    first: dict = {}
    problems: list[str] = []
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(main, calls, tracer, traced, first, problems))
        imports += time_imports(cfg.imports)
        if len(passes) >= 2 and time.perf_counter() - start >= args.seconds:
            return calls, passes, problems, imports


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "grassfoil" / "cli.py").is_file():
        print(f"perfbench: no grassfoil sources at {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 1
    _one_blas_thread()
    sys.path.insert(0, str(SRC))
    import grassfoil.cli
    from spans import Tracer
    if Path(grassfoil.cli.__file__).resolve().parent != SRC / "grassfoil":
        print(f"perfbench: imported grassfoil from {grassfoil.cli.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 1

    cfg = SCALES[args.scale]
    tracer = Tracer()
    if args.trace:
        tracer.install()
    record = run_record(args)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        os.chdir(work)
        calls, passes, problems, imports = measure(args, grassfoil.cli.main,
                                                   tracer)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)

    reference = passes[0].artifacts
    mismatched = sum(p.artifacts != reference for p in passes[1:])
    if mismatched:
        problems.append(f"{mismatched} of {len(passes) - 1} later passes "
                        "wrote artifacts that differ from the first pass")
    attempted = len(calls) * len(passes) + len(passes) - 1
    failed = sum(p.failed for p in passes) + mismatched
    digest = _digest(reference)
    tag = f"{args.workload}-seed{args.seed}"
    if args.scale != "full":
        tag += f"-{args.scale}"

    if args.trace:
        traced = [p for p in passes if p.traced]
        untraced = [p for p in passes if not p.traced]
        metrics = per_layer(tracer, traced, untraced,
                            cfg.baselines + cfg.total, imports)
        units = PER_LAYER
        tracer.write(OUT / f"trace-{tag}.jsonl")
        print(f"perfbench: {len(tracer.spans)} spans -> "
              f"{OUT.name}/trace-{tag}.jsonl")
        print(f"perfbench: tracing overhead {metrics['trace.overhead_s']:+.3f}"
              f" s ({100 * metrics['trace.overhead_frac']:+.1f}%) on wall_s "
              f"{metrics['trace.untraced_wall_s']:.3f} s over "
              f"{len(untraced)} untraced and {len(traced)} traced passes; "
              f"layer spans cover {100 * metrics['trace.layer_frac']:.1f}%"
              " of the traced wall_s")
    else:
        workload = WORKLOADS[args.workload]
        metrics, samples = end_to_end(passes, calls, workload.query, imports)
        units = END_TO_END
        q1, q3 = statistics.quantiles([p.wall for p in passes], n=4,
                                      method="inclusive")[::2]
        print(f"perfbench: {args.workload} seed {args.seed}: {len(passes)} "
              f"passes of {len(calls)} CLI calls; wall_s (fastest time of "
              f"each call, summed) {metrics['wall_s']:.3f} s; pass median "
              f"{metrics['median_pass_s']:.3f} s (quartiles {q1:.3f}, "
              f"{q3:.3f})")
        print(f"perfbench: {workload.query} calls: call_p50_ms "
              f"(fastest times) {metrics['call_p50_ms']:.2f} ms; over all "
              f"{samples} samples p50 {metrics['pooled_call_p50_ms']:.2f} ms,"
              f" p90 {metrics['pooled_call_p90_ms']:.2f} ms")
        print(f"perfbench: setup_s (fastest of {len(imports)} fresh imports) "
              f"{metrics['setup_s']:.3f} s, median "
              f"{metrics['median_setup_s']:.3f} s; peak RSS "
              f"{metrics['peak_rss_mb']:.1f} MB")
    print(f"perfbench: failed_frac {failed}/{attempted} = "
          f"{failed / attempted:g}")
    for problem in problems[:20]:
        print(f"perfbench: FAILED {problem}")
    print(f"perfbench: artifact digest {digest} ({len(reference)} files, "
          f"{'NOT ' if mismatched else ''}identical across "
          f"{len(passes)} passes)")

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    run_file = OUT / f"run-{tag}-trace{args.trace}.json"
    run_file.write_text(json.dumps({
        "record": record, "result": result, "all_metrics": metrics,
        "failed_frac": failed / attempted, "problems": problems,
        "import_s": imports,
        "digest": digest,
        "artifacts": {path: sha for path, (sha, _) in reference.items()},
        "passes": [{"traced": p.traced, "wall_s": p.wall,
                    "call_s": p.durations} for p in passes],
    }, indent=1) + "\n")
    print(f"perfbench: run record -> {OUT.name}/{run_file.name}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
