"""Stacked standardization and log kernels against the one-shape formulas.

The oracles below are the per-shape bodies that ``la_standardize`` and
``log_map`` had before the kernels worked on stacks; the kernels must give
the same bits, raise the error the one-shape loop raised first, and keep
their temporaries to a bounded number of chunks.
"""

import importlib.util
import inspect
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grassfoil
from grassfoil import blade
from grassfoil import grassmann as gm
from grassfoil.cli import main
from grassfoil.errors import (CutLocusError, DegenerateShapeError,
                              DimensionError, Gl2ViolationError,
                              GrassfoilError, IterationLimitError,
                              ParameterError, array_argument, in_order)
from grassfoil.geometry import (RANK_RATIO_TOL, LandmarkMatrix, affine_apply,
                                affine_subgroup, cst_evaluate,
                                cst_evaluate_stack, default_baselines,
                                gen_dataset, validate_shape, validate_stack)
from grassfoil.grassmann import (MAX_COORDINATE, GrassmannPoint,
                                 TangentVector, exp_map, la_standardize,
                                 log_map, log_map_stack, standardize_stack)
from grassfoil.pga import flatten_tangent, karcher_mean, logs_at

CHUNK = gm._CHUNK
SIZES = [1, CHUNK - 1, CHUNK, CHUNK + 1, 1016]
ROOT = Path(__file__).resolve().parent.parent


def oracle_standardize(points):
    """(frame, linear, translation) of one shape, the one-shape way."""
    if np.abs(points).max() > MAX_COORDINATE:
        raise DegenerateShapeError("exceed")
    b = points.mean(axis=0)
    u, s, vt = np.linalg.svd(points - b, full_matrices=False)
    if s[0] <= 0.0 or s[1] / s[0] <= RANK_RATIO_TOL:
        raise DegenerateShapeError("collinear")
    v = vt.T
    for k in range(2):
        lead = v[0, k] if v[0, k] != 0.0 else v[1, k]
        if lead < 0.0:
            v[:, k] = -v[:, k]
            u[:, k] = -u[:, k]
    return u, s[:, None] * v.T, b


def oracle_log(p, q):
    """Logarithm at frame ``p`` toward frame ``q``, the one-shape way."""
    a = p.T @ q
    w, c, zt = np.linalg.svd(a)
    if c[-1] <= np.sin(1e-8):
        raise CutLocusError("cut locus")
    residual = q @ zt.T - p @ (w * c)
    sines = np.linalg.norm(residual, axis=0)
    thetas = np.arctan2(sines, c)
    g = residual / np.where(sines > 0.0, sines, 1.0)
    delta = (g * thetas) @ w.T
    delta -= p @ (p.T @ delta)
    return delta


def oracle_karcher(points, tol=1e-10, max_iter=200):
    """The one-shape-at-a-time fixed point over GrassmannPoint objects."""
    mean = points[0]
    for iterations in range(max_iter + 1):
        logs = np.array([flatten_tangent(oracle_log(mean.rep, s.rep))
                         for s in points])
        grad = logs.mean(axis=0).reshape((mean.n, 2), order="F")
        residual = float(np.linalg.norm(grad))
        if residual < tol:
            return mean, residual, iterations, logs
        mean = exp_map(mean, TangentVector(grad, mean))
    raise AssertionError("oracle did not converge")


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == \
        np.ascontiguousarray(b).tobytes()


@pytest.fixture(scope="module")
def family():
    """The benchmark's shape family: 1016 shapes of 401 landmarks."""
    return gen_dataset(default_baselines(), 1000, 0.2, seed=7)


@pytest.fixture(scope="module")
def frames(family):
    return standardize_stack(family)[0]


# ---------------------------------------------------------------------------
# bits


@pytest.mark.parametrize("size", SIZES)
def test_standardize_stack_matches_the_one_shape_oracle(family, size):
    frames, linear, translation = standardize_stack(family[:size])
    for i in range(size):
        u, m, b = oracle_standardize(family[i])
        assert same_bits(frames[i], u)
        assert same_bits(linear[i], m)
        assert same_bits(translation[i], b)


def test_la_standardize_is_the_stack_of_one():
    shape = cst_evaluate(default_baselines()[3], 401)
    d = la_standardize(shape)
    u, m, b = oracle_standardize(shape.points)
    assert same_bits(d.point.rep, u)
    assert same_bits(d.affine.linear, m)
    assert same_bits(d.affine.translation, b)


@pytest.mark.parametrize("size", SIZES)
def test_log_map_stack_matches_the_one_shape_oracle(frames, size):
    base = frames[-1].copy()
    logs = log_map_stack(base, frames[:size])
    for i in range(size):
        assert same_bits(logs[i], oracle_log(base, frames[i]))


@pytest.mark.parametrize("size", SIZES)
def test_log_map_stack_at_a_view_of_its_own_first_frame(frames, size):
    # the first Karcher iteration: the base is the stack's first frame, and
    # the one-shape call saw the same array on both sides
    reps = frames[:size].copy()
    logs = log_map_stack(reps[0], reps)
    assert same_bits(logs[0], oracle_log(reps[0], reps[0]))
    for i in range(1, size):
        assert same_bits(logs[i], oracle_log(reps[0], reps[i]))


def test_log_map_is_the_stack_of_one(frames):
    p, q = GrassmannPoint(frames[5]), GrassmannPoint(frames[900])
    assert same_bits(log_map(p, q).mat, oracle_log(p.rep, q.rep))
    assert same_bits(log_map(p, p).mat, oracle_log(p.rep, p.rep))


def test_karcher_mean_matches_the_one_shape_oracle(frames):
    result = karcher_mean(frames)
    point, residual, iterations, logs = oracle_karcher(
        [GrassmannPoint(f) for f in frames])
    assert same_bits(result.point, point.rep)
    assert result.residual == residual
    assert result.iterations == iterations == 4
    assert same_bits(result.logs, logs)
    assert same_bits(logs_at(result.point, frames), logs)


def test_as_frames_fixes_stray_slices_in_a_copy(frames):
    reps = frames[:4].copy()
    reps[1] *= 1.0 + 1e-9  # Gram matrix 2e-9 away from the identity
    fixed = gm.as_frames(reps)
    assert fixed is not reps and same_bits(reps[1], frames[1] * (1.0 + 1e-9))
    assert same_bits(fixed[1], gm.orthonormalize(reps[1]))
    assert same_bits(fixed[[0, 2, 3]], frames[[0, 2, 3]])
    assert gm.as_frames(frames) is frames  # clean stacks are not copied
    reps[2] = np.outer(np.ones(401), [1.0, 1.0])
    with pytest.raises(DegenerateShapeError, match="rank deficient") as err:
        gm.as_frames(reps)
    assert err.value.shape_index == 2


def test_as_frames_raises_for_the_first_faulty_slice(frames):
    reps = frames[:8].copy()
    reps[2] = 1.0  # rank deficient
    reps[5, 3, 0] = np.nan
    with pytest.raises(DegenerateShapeError, match="rank deficient") as err:
        karcher_mean(reps)
    assert err.value.shape_index == 2
    reps[2] = frames[2]
    reps[6, 0, 1] = np.inf
    with pytest.raises(DimensionError, match="non-finite") as err:
        karcher_mean(reps)
    assert err.value.shape_index == 5


def test_log_map_stack_checks_its_reps_as_frames(frames):
    # a scaled frame spans the same subspace, and its logarithm is that of
    # its re-orthonormalized frame, bit for bit
    scaled = 5.0 * frames[:70]
    logs = gm.log_map_stack(frames[3], scaled)
    assert same_bits(logs, gm.log_map_stack(frames[3], gm.as_frames(scaled)))
    assert np.abs(logs - gm.log_map_stack(frames[3], frames[:70])).max() < 1e-10


# ---------------------------------------------------------------------------
# memory


def _peak_beyond_outputs(kernel, *args):
    """Peak traced bytes of ``kernel(*args)`` beyond what it returns."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = kernel(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    outputs = out if isinstance(out, tuple) else (out,)
    kept = sum(a.nbytes if a.base is None else a.base.nbytes for a in outputs)
    return peak - before - kept


def test_kernels_keep_their_temporaries_to_a_few_chunks(family, frames):
    # an unchunked kernel holds whole-stack temporaries: 6.5 MB each here
    chunk_bytes = CHUNK * family.shape[1] * 2 * 8
    assert _peak_beyond_outputs(standardize_stack, family) < 8 * chunk_bytes
    assert _peak_beyond_outputs(log_map_stack, frames[3], frames) < 8 * chunk_bytes
    assert _peak_beyond_outputs(logs_at, frames[3], frames) < 8 * chunk_bytes


# ---------------------------------------------------------------------------
# faults


def test_first_faulty_shape_in_the_chunk_raises(family):
    points = family[:CHUNK].copy()
    points[3] = np.linspace(0.0, 1.0, 401)[:, None] * [1.0, 2.0]  # collinear
    points[5] *= 1e151  # too large: checked first for each shape
    with pytest.raises(DegenerateShapeError, match="collinear") as err:
        standardize_stack(points)
    assert err.value.shape_index == 3
    points[3], points[5] = points[5].copy(), points[3].copy()
    with pytest.raises(DegenerateShapeError, match="exceed 1e\\+150") as err:
        standardize_stack(points)
    assert err.value.shape_index == 3


def test_last_check_of_an_earlier_shape_wins_over_a_later_shape(family):
    points = family[CHUNK:2 * CHUNK].copy()
    points[2] *= 1e-7  # |det| of its linear factor falls below 1e-12
    points[4] *= 1e151
    with pytest.raises(Gl2ViolationError) as err:
        standardize_stack(points)
    assert err.value.shape_index == 2
    points[1] = points[0, :1]  # all landmarks equal: no rank at all
    with pytest.raises(DegenerateShapeError, match="collinear") as err:
        standardize_stack(points)
    assert err.value.shape_index == 1


def test_fault_past_the_first_chunk_keeps_its_stack_index(family):
    points = family[:200].copy()
    points[130] = points[130, :1]
    with pytest.raises(DegenerateShapeError) as err:
        standardize_stack(points)
    assert err.value.shape_index == 130


def plane(i, j, n=4):
    rep = np.zeros((n, 2))
    rep[i, 0] = rep[j, 1] = 1.0
    return rep


def test_a_chunk_fault_that_no_single_item_repeats_is_raised_as_it_is():
    calls = []

    def run(rows):
        calls.append((rows.start, rows.stop))
        if len(rows) > 1:
            raise ParameterError("the chunk as a whole")

    with pytest.raises(ParameterError, match="the chunk as a whole") as err:
        in_order(run, 6, 4)
    assert err.value.shape_index is None
    assert calls == [(0, 4), (0, 1), (1, 2), (2, 3), (3, 4)]


def test_ragged_stacks_raise_typed_errors_naming_the_argument(family):
    pts = family[0]
    with pytest.raises(ParameterError, match="^points must be a rectangular"):
        validate_stack([pts, pts[:-2]])
    with pytest.raises(ParameterError, match="^coeffs must be a rectangular"):
        cst_evaluate_stack([[0.1] * 18, [0.1] * 17])
    with pytest.raises(DimensionError, match="^points must be a rectangular"):
        standardize_stack([pts, pts[:-2]])
    frames = standardize_stack(family[:3])[0]
    with pytest.raises(DimensionError, match="^reps must be a rectangular"):
        log_map_stack(frames[0], [frames[1], frames[2][:-1]])
    with pytest.raises(DimensionError, match="^base must be a rectangular"):
        log_map_stack([[0.0, 1.0], [1.0]], frames)


def test_log_map_stack_takes_lists_of_frames(family):
    frames = standardize_stack(family[:5])[0]
    assert same_bits(log_map_stack(frames[2].tolist(), list(frames)),
                     log_map_stack(frames[2].copy(), frames))


def test_log_map_stack_names_non_finite_frames(family):
    frames = standardize_stack(family[:CHUNK + 5])[0]
    with pytest.raises(DimensionError, match="^base contains non-finite"):
        log_map_stack(frames[0] * np.nan, frames)
    frames[CHUNK + 3, 7, 1] = np.inf
    frames[CHUNK + 4, 2, 0] = np.nan
    with pytest.raises(DimensionError, match=rf"^reps\[{CHUNK + 3}\] is not"):
        log_map_stack(frames[0].copy(), frames)


def test_log_map_stack_rejects_a_base_that_is_not_a_frame(family):
    frames = standardize_stack(family[:3])[0]
    for base in (np.ones(frames[0].shape), frames[0] * (1.0 + 1e-9)):
        with pytest.raises(DimensionError, match="^base is not an orthonormal"):
            log_map_stack(base, frames)


def test_the_array_check_keeps_a_float_stack_as_it_is(family):
    assert array_argument(family, "points") is family
    assert array_argument(family[::2], "points").base is family


@pytest.mark.parametrize("scale", [1e149, 1e160, 1e300])
def test_validation_rejects_coordinates_beyond_the_bound(family, scale):
    shape = LandmarkMatrix(family[0] * scale)
    if scale < MAX_COORDINATE:
        assert validate_shape(shape).passed
        return
    with pytest.raises(ParameterError, match="exceed 1e\\+150"):
        validate_shape(shape)
    stack = family[:CHUNK + 2].copy()
    stack[CHUNK + 1] *= scale
    with pytest.raises(ParameterError, match="exceed 1e\\+150"):
        validate_stack(stack)


def test_cut_locus_past_the_first_chunk_is_named():
    reps = np.array([plane(0, 1)] * 100)
    reps[70] = plane(2, 3)
    reps[90] = plane(2, 3)
    with pytest.raises(CutLocusError) as err:
        logs_at(plane(0, 1), reps)
    assert err.value.shape_index == 70
    assert str(err.value).startswith("shape 70 is at the cut locus")
    with pytest.raises(CutLocusError) as err:
        karcher_mean(reps)
    assert err.value.shape_index == 70
    with pytest.raises(CutLocusError) as err:
        log_map_stack(reps[0], reps)
    assert err.value.shape_index == 70
    assert err.value.max_angle == pytest.approx(np.pi / 2.0)


def test_a_non_finite_shape_raises_after_an_earlier_fault(family):
    points = family[:CHUNK].copy()
    points[5, 7, 1] = np.nan
    with pytest.raises(ParameterError, match="non-finite"):
        standardize_stack(points)
    points[2] = points[2, :1]
    with pytest.raises(DegenerateShapeError, match="collinear") as err:
        standardize_stack(points)
    assert err.value.shape_index == 2
    points[2] = family[2] * 1e151
    with pytest.raises(ParameterError, match="exceed 1e\\+150"):
        validate_stack(points)


# The first-fault rule: a stacked call raises what the one-item call of its
# first faulty item raises, with that item's stack index.

SMALL = np.array([cst_evaluate(default_baselines()[k % 16], 21).points
                  for k in range(130)])
SMALL_FRAMES = standardize_stack(SMALL)[0]
SMALL_BASE = SMALL_FRAMES[7].copy()
_SPREAD = np.random.default_rng(0).normal(size=SMALL_BASE.shape)
# a plane orthogonal to the base: at its cut locus
ORTHOGONAL = np.linalg.qr(_SPREAD - SMALL_BASE @ (SMALL_BASE.T @ _SPREAD))[0]


def with_nan(rows):
    rows = rows.copy()
    rows[3] = np.nan
    return rows


SHAPE_FAULTS = {
    "nan": with_nan,
    "huge": lambda pts: pts * 1e151,
    "equal": lambda pts: np.repeat(pts[:1], len(pts), axis=0),
    "tiny": lambda pts: pts * 1e-7,  # |det| of the linear factor < 1e-12
}
FRAME_FAULTS = {
    "nan": with_nan,
    "orthogonal": lambda rep: ORTHOGONAL,
    "flat": np.ones_like,  # rank deficient, so as_frames refuses it
}


def fault_plans(kinds):
    """A stack size and 1 to 3 faults at distinct positions, as (position,
    kind) pairs."""
    return st.sampled_from([1, CHUNK - 1, CHUNK, CHUNK + 1, 130]).flatmap(
        lambda size: st.tuples(st.just(size), st.lists(
            st.tuples(st.integers(0, size - 1), st.sampled_from(kinds)),
            min_size=1, max_size=min(3, size),
            unique_by=lambda fault: fault[0])))


def first_fault(call, items):
    """(type, text, shape_index) of the first one-item call that raises,
    with the stack index that item has in ``items``."""
    for i in range(len(items)):
        try:
            call(items[i:i + 1])
        except GrassfoilError as err:
            return type(err), str(err).replace("reps[0]", f"reps[{i}]"), i
    raise AssertionError("no item raised")


def raised(call, items):
    with pytest.raises(GrassfoilError) as err:
        call(items)
    return type(err.value), str(err.value), err.value.shape_index


@given(fault_plans(sorted(SHAPE_FAULTS)))
@settings(max_examples=30, deadline=None)
def test_standardize_stack_raises_the_first_one_shape_fault(plan):
    size, faults = plan
    points = SMALL[:size].copy()
    for i, kind in faults:
        points[i] = SHAPE_FAULTS[kind](points[i])
    assert raised(standardize_stack, points) == first_fault(
        standardize_stack, points)


@given(fault_plans(["huge", "nan"]))
@settings(max_examples=30, deadline=None)
def test_validate_stack_raises_the_first_one_shape_fault(plan):
    size, faults = plan
    points = SMALL[:size].copy()
    for i, kind in faults:
        points[i] = SHAPE_FAULTS[kind](points[i])
    assert raised(validate_stack, points) == first_fault(
        validate_stack, points)


@given(fault_plans(sorted(FRAME_FAULTS)))
@settings(max_examples=30, deadline=None)
def test_log_map_stack_raises_the_first_one_frame_fault(plan):
    size, faults = plan
    reps = SMALL_FRAMES[:size].copy()
    for i, kind in faults:
        reps[i] = FRAME_FAULTS[kind](reps[i])

    def call(items):
        return log_map_stack(SMALL_BASE, items)

    assert raised(call, reps) == first_fault(call, reps)


def write_dat(path, points, name):
    body = "".join(f"{x:.16e} {y:.16e}\n" for x, y in points)
    path.write_text(f"{name}\n{body}")


def test_standardize_reads_mixed_landmark_counts(tmp_path):
    rng = np.random.default_rng(5)
    shapes = {f"s{k}.dat": rng.normal(size=(5 if k in (0, 1, 4) else 6, 2))
              for k in range(6)}
    for name, pts in shapes.items():
        write_dat(tmp_path / name, pts, name[:-4])
    assert main(["standardize", "--shapes", str(tmp_path),
                 "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "affines.csv").read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == [f"s{k}" for k in range(6)]
    for row, pts in zip(rows, shapes.values()):
        want = la_standardize(LandmarkMatrix(pts)).affine.as_vector()
        assert [float(v) for v in row.split(",")[1:]] == want.tolist()


def test_standardize_names_a_degenerate_file_in_a_later_run(tmp_path, capsys):
    rng = np.random.default_rng(6)
    for k in range(4):
        pts = rng.normal(size=(5 if k < 2 else 6, 2))
        if k == 3:
            pts = np.linspace(0.0, 1.0, 6)[:, None] * [1.0, -1.0]
        write_dat(tmp_path / f"s{k}.dat", pts, f"s{k}")
    assert main(["standardize", "--shapes", str(tmp_path),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 's3.dat'}: centered landmarks")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# the blade layer


def test_wireframe_locates_each_section_once(monkeypatch):
    sections = [affine_apply(cst_evaluate(default_baselines()[k], 101),
                             affine_subgroup("twist", 0.1 + 0.2 * k)).points
                for k in range(3)]
    b = blade.build_blade([0.0, 0.4, 1.0], np.array(sections))
    calls = []
    locate = blade._locate_segments
    monkeypatch.setattr(
        blade, "_locate_segments",
        lambda knots, etas: calls.append(etas.copy()) or locate(knots, etas))
    grid = blade.export_wireframe(b, 40)
    assert len(calls) == 1  # one locate for all spans
    assert np.array_equal(calls[0], grid[:, 0, 2])
    assert grid.shape == (40, 101, 3)


# ---------------------------------------------------------------------------
# the Karcher mean's failure report


def spread_family(seed):
    rng = np.random.default_rng(seed)
    n = rng.integers(4, 12)
    count = rng.integers(3, 30)
    return np.array([np.linalg.qr(rng.normal(size=(n, 2)))[0]
                     for _ in range(count)])


def test_iteration_limit_states_the_contraction_ratio():
    with pytest.raises(IterationLimitError) as err:
        karcher_mean(spread_family(25))
    e = err.value
    assert e.iterations == 200
    assert f"{e.residual:.3e}" == "1.889e-07"
    assert 0.9 < e.ratio < 1.0
    assert f"last contraction ratio {e.ratio:.4f}" in str(e)
    # the ratio is the last residual over the one before it
    with pytest.raises(IterationLimitError) as before:
        karcher_mean(spread_family(25), max_iter=199)
    assert e.ratio == e.residual / before.value.residual


def test_iteration_limit_without_a_previous_residual():
    with pytest.raises(IterationLimitError) as err:
        karcher_mean(spread_family(25), max_iter=0)
    assert err.value.ratio is None
    assert "contraction" not in str(err.value)


# ---------------------------------------------------------------------------
# the benchmark


def test_benchmark_counts_one_exp_map_span_per_karcher_step(monkeypatch):
    # the benchmark reads pga.karcher_mean.iterations as the traced
    # grassmann.exp_map spans whose parent is a karcher_mean span
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for ns in (grassfoil, *(getattr(grassfoil, m) for m in (*spans.LAYERS,
                                                             "cli"))):
        for attr, value in list(vars(ns).items()):
            if inspect.isfunction(value):  # restored after the test
                monkeypatch.setattr(ns, attr, value)
    tracer = spans.Tracer()
    tracer.install()
    tracer.active = True
    frames = np.array([la_standardize(cst_evaluate(p, 101)).point.rep
                       for p in default_baselines()[:6]])
    result = grassfoil.pga.karcher_mean(frames)
    tracer.active = False
    steps = sum(1 for name, _, _, parent in tracer.spans
                if name == "grassmann.exp_map" and parent >= 0
                and tracer.spans[parent][0] == "pga.karcher_mean")
    assert result.iterations >= 2
    assert steps == result.iterations


def test_benchmark_smoke_check_passes():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
