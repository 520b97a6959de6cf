"""Stacked CST evaluation, validation and generation against the one-shape
formulas.

The oracles below are the per-shape bodies that ``cst_evaluate``,
``validate_shape`` and ``gen_dataset_detailed`` had before the kernels
worked on stacks. The kernels must give the same bits and verdicts, the
generator the same shapes, warnings and errors as drawing each shape in
turn, and validation must keep its temporaries to a few chunks.
"""

import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassfoil import geometry
from grassfoil.errors import GenerationError, ParameterError
from grassfoil.geometry import (RANK_RATIO_TOL, CstParams, LandmarkMatrix,
                                ShapeDiagnostics, _has_proper_crossing,
                                _separated_chains, _single_le_extremum,
                                chord_stations, cst_evaluate,
                                cst_evaluate_stack, default_baselines,
                                gen_dataset_detailed, perturb_cst,
                                validate_shape, validate_stack)

CHUNK = geometry._CHUNK
SIZES = [1, CHUNK - 1, CHUNK, CHUNK + 1, 1016]


def oracle_cst_evaluate(params, n):
    psi = chord_stations(n)
    design = geometry._bernstein_design(psi)
    c = geometry._class_function(psi)
    te_half = params.te_thickness / 2.0
    y_upper = c * (design @ params.upper) + psi * te_half
    y_lower = c * (design @ params.lower) - psi * te_half
    x = np.concatenate([psi[::-1], psi[1:]])
    y = np.concatenate([y_upper[::-1], y_lower[1:]])
    return np.column_stack([x, y])


def oracle_gap_signs(xq, yq, x, y, margin):
    from fractions import Fraction
    gaps = np.interp(xq, x, y) - yq
    for i in np.flatnonzero(np.abs(gaps) <= margin):
        j = int(np.searchsorted(x, xq[i], side="right")) - 1
        x0, x1, y0, y1, xv, yv = map(
            Fraction, (x[j], x[j + 1], y[j], y[j + 1], xq[i], yq[i]))
        gap = y0 + (y1 - y0) * (xv - x0) / (x1 - x0) - yv
        gaps[i] = (gap > 0) - (gap < 0)
    return gaps


def oracle_separated_chains(pts, span):
    if (not 1e-100 < span < 1e100
            or np.abs(pts).max() > geometry._CERTIFIED_OFFSET * span):
        return False
    x, y = pts[:, 0], pts[:, 1]
    dx = np.concatenate([x[1:], x[:1]]) - x
    moving = (dx != 0.0) | (np.concatenate([y[1:], y[:1]]) != y)
    if not moving.all():
        x, y, dx = x[moving], y[moving], dx[moving]
    m = x.size
    if m < 3:
        return False
    k = int(np.argmin(x))
    if dx[k] == 0.0:
        k = (k + 1) % m
    dx = np.concatenate([dx[k:], dx[:k]])
    p = int(np.argmin(dx > 0.0))
    rest = dx[p:]
    z1, z2 = int(rest[0] == 0.0), int(rest[-1] == 0.0)
    falling = rest[z1:rest.size - z2]
    if falling.size == 0 or falling.max() >= 0.0:
        return False
    x = np.concatenate([x[k:], x[:k + 1]])
    y = np.concatenate([y[k:], y[:k + 1]])
    ax, ay = x[:p + 1], y[:p + 1]
    bx, by = x[p + z1:m + 1 - z2][::-1], y[p + z1:m + 1 - z2][::-1]
    margin = 1e-12 * span
    gaps = np.concatenate([
        oracle_gap_signs(ax[1:-1], ay[1:-1], bx, by, margin),
        -oracle_gap_signs(bx[1:-1], by[1:-1], ax, ay, margin)])
    ends = (by[0] - ay[0], by[-1] - ay[-1])
    return bool((gaps.min(initial=math.inf) > 0.0 and min(ends) >= 0.0)
                or (gaps.max(initial=-math.inf) < 0.0 and max(ends) <= 0.0))


def oracle_validate(pts):
    centered = pts - pts.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    ratio = float(sv[1] / sv[0]) if sv[0] > 0.0 else 0.0
    span = float(np.abs(centered).max())
    x, y = pts[:, 0], pts[:, 1]
    area = 0.5 * float((x * np.concatenate([y[1:], y[:1]])
                        - np.concatenate([x[1:], x[:1]]) * y).sum())
    return ShapeDiagnostics(
        rank_ratio=ratio, rank_ok=ratio > RANK_RATIO_TOL,
        simple=(oracle_separated_chains(pts, span)
                or not _has_proper_crossing(pts)),
        single_le_extremum=_single_le_extremum(x),
        positive_orientation=area > 0.0)


def oracle_gen_dataset(baselines, total, fraction, seed, n, log):
    """(index, baseline, params, landmarks, attempts) of each shape, drawn
    one at a time; each rejection's warning is appended to ``log``."""
    shapes = []
    for b_idx, params in enumerate(baselines):
        landmarks = LandmarkMatrix(oracle_cst_evaluate(params, n))
        diag = oracle_validate(landmarks.points)
        if not diag.passed:
            raise GenerationError(
                f"baseline {b_idx} fails validation (rank_ok={diag.rank_ok}, "
                f"simple={diag.simple}, ordering_ok={diag.ordering_ok})")
        shapes.append((len(shapes), b_idx, params, landmarks, 1))
    base, extra = divmod(total, len(baselines))
    counts = [base + (1 if i < extra else 0) for i in range(len(baselines))]
    for b_idx, params in enumerate(baselines):
        for k in range(counts[b_idx]):
            for attempt in range(geometry._MAX_ATTEMPTS):
                child = geometry._derived_seed(seed, b_idx, k, attempt)
                candidate = geometry.perturb_cst(params, fraction, child)
                landmarks = LandmarkMatrix(oracle_cst_evaluate(candidate, n))
                if oracle_validate(landmarks.points).passed:
                    shapes.append((len(shapes), b_idx, candidate, landmarks,
                                   attempt + 1))
                    break
                log.append(f"rejected perturbation (baseline {b_idx}, index "
                           f"{k}, attempt {attempt}); resampling")
            else:
                raise GenerationError(
                    f"no valid perturbation of baseline {b_idx} after "
                    f"{geometry._MAX_ATTEMPTS} attempts")
    return shapes


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == \
        np.ascontiguousarray(b).tobytes()


@pytest.fixture(scope="module")
def detail():
    """The benchmark's shape family: 1016 shapes of 401 landmarks."""
    return gen_dataset_detailed(default_baselines(), 1000, 0.2, seed=7)


@pytest.fixture(scope="module")
def family(detail):
    return np.array([d.landmarks for d in detail])


@pytest.fixture(scope="module")
def family_diagnostics(family):
    return [oracle_validate(pts) for pts in family]


# ---------------------------------------------------------------------------
# evaluation


@pytest.mark.parametrize("size", SIZES)
def test_cst_evaluate_stack_matches_the_one_shape_oracle(detail, size):
    coeffs = np.array([d.coefficients for d in detail[:size]])
    te = np.where(np.arange(size) % 3 == 1, 0.004, 0.0)
    for thickness in (0.0, te):
        points = cst_evaluate_stack(coeffs, 401, thickness)
        for i, row in enumerate(coeffs):
            one = CstParams.from_vector(row,
                                        np.broadcast_to(thickness, size)[i])
            assert same_bits(points[i], oracle_cst_evaluate(one, 401))


def test_cst_evaluate_is_the_stack_of_one():
    for params in (default_baselines()[12],
                   CstParams(np.full(9, 0.2), np.full(9, -0.2), 0.01)):
        assert same_bits(cst_evaluate(params, 101).points,
                         oracle_cst_evaluate(params, 101))


def test_cst_evaluate_stack_rejects_bad_stacks():
    coeffs = np.ones((2, 18))
    with pytest.raises(ParameterError, match="coefficient stack"):
        cst_evaluate_stack(coeffs[:, :9])
    with pytest.raises(ParameterError, match="trailing-edge thickness"):
        cst_evaluate_stack(coeffs, 101, [0.0, 0.0, 0.0])
    coeffs[1, 4] = np.nan
    with pytest.raises(ParameterError, match="not finite"):
        cst_evaluate_stack(coeffs, 101)
    assert cst_evaluate_stack(np.empty((0, 18)), 101).shape == (0, 101, 2)


# ---------------------------------------------------------------------------
# validation


@pytest.mark.parametrize("size", SIZES)
def test_validate_stack_matches_the_one_shape_oracle(family,
                                                     family_diagnostics, size):
    assert validate_stack(family[:size]) == family_diagnostics[:size]


def test_validate_shape_is_the_stack_of_one(family, family_diagnostics):
    for i in (0, 17, 1015):
        assert validate_shape(LandmarkMatrix(family[i])) == \
            family_diagnostics[i]


def mixed_stack():
    """Airfoils of 101 landmarks, in runs that share their x column and in
    runs of one: open trailing edges, repeated landmarks, mirrored and
    reversed shapes, a touching pair of chains, crossings, far offsets and
    coordinates past the certificate's span bound."""
    rng = np.random.default_rng(11)
    base = [perturb_cst(default_baselines()[k % 16], 0.2, 40 + k)
            for k in range(12)]
    closed = [cst_evaluate(p, 101).points for p in base]
    opened = [cst_evaluate(CstParams(p.upper, p.lower, 0.004), 101).points
              for p in base[:4]]
    shapes = closed + opened
    repeated = closed[0].copy()
    repeated[31] = repeated[30]
    touching = closed[1].copy()
    touching[100 - 20, 1] = touching[20, 1]  # lower meets upper at a station
    crossing = closed[2].copy()
    crossing[25, 1] = -0.3
    huge = closed[3] * [1.0, 1e102]
    shapes += [repeated, touching, crossing, huge, closed[4] + 1e3,
               closed[5] * [-1.0, 1.0], closed[6][::-1],
               (closed[7] * [-1.0, 1.0])[::-1]]
    order = rng.permutation(len(shapes))
    # keep runs of closed airfoils next to each other as well
    return np.array([shapes[i] for i in order] + closed[:6] + [huge, touching])


def moving_edges(pts):
    return np.any(np.roll(pts, -1, axis=0) != pts, axis=1)


def runs_of(stack):
    """Slices of consecutive shapes with equal x columns and zero-length
    edges, found one neighbour at a time."""
    runs = [slice(0, 1)]
    for i in range(1, len(stack)):
        if (np.array_equal(stack[i, :, 0], stack[i - 1, :, 0])
                and np.array_equal(moving_edges(stack[i]),
                                   moving_edges(stack[i - 1]))):
            runs[-1] = slice(runs[-1].start, i + 1)
        else:
            runs.append(slice(i, i + 1))
    return runs


def test_validate_stack_matches_the_oracle_on_mixed_runs():
    stack = mixed_stack()
    runs = runs_of(stack)
    assert len(runs) < len(stack) and max(r.stop - r.start for r in runs) >= 6
    spans = np.abs(stack - stack.mean(axis=1, keepdims=True)).max(axis=(1, 2))
    certified = np.concatenate([
        _separated_chains(stack[r], spans[r], moving_edges(stack[r.start]))
        for r in runs])
    want = [oracle_separated_chains(p, s) for p, s in zip(stack, spans)]
    assert certified.tolist() == want
    assert 0 < sum(want) < len(want)
    got = validate_stack(stack)
    assert got == [oracle_validate(p) for p in stack]
    assert not all(d.simple for d in got) and not all(d.passed for d in got)


@st.composite
def polygon_stacks(draw):
    """Stacks of small polygons, many of them sharing one x column."""
    n = draw(st.integers(min_value=3, max_value=9))
    coords = draw(st.sampled_from([
        st.integers(min_value=-3, max_value=3).map(float),
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)]))
    column = st.lists(coords, min_size=n, max_size=n)
    x = draw(column)
    shapes = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        xs = x if draw(st.booleans()) else draw(column)
        shapes.append(np.column_stack([xs, draw(column)]))
    return np.array(shapes)


@given(polygon_stacks())
@settings(max_examples=200, deadline=None)
def test_validate_stack_matches_the_oracle_on_random_polygons(stack):
    assert validate_stack(stack) == [oracle_validate(p) for p in stack]


def test_gap_signs_are_np_interp_bit_for_bit():
    rng = np.random.default_rng(3)
    x = np.concatenate([[0.0, 1e-300], np.sort(rng.uniform(0.01, 1.0, 38))])
    y = rng.normal(size=(6, 40))
    y[:, 1] = 1e101  # the first slope overflows
    xq = np.concatenate([x[1:-1], rng.uniform(x[0], x[-1], 30), [5e-301]])
    yq = rng.normal(size=(6, xq.size))
    gaps = geometry._gap_signs(xq, yq, x, y, np.zeros((6, 1)))
    for r in range(6):
        assert same_bits(gaps[r], np.interp(xq, x, y[r]) - yq[r])
    assert np.isinf(gaps).any()


def test_validate_stack_rejects_bad_stacks():
    with pytest.raises(ParameterError, match="landmark stack"):
        validate_stack(np.zeros((2, 2, 2)))
    with pytest.raises(ParameterError, match="non-finite"):
        validate_stack(np.full((1, 5, 2), np.inf))
    assert validate_stack(np.empty((0, 5, 2))) == []


def test_validate_stack_keeps_its_temporaries_to_a_few_chunks(family):
    # an unchunked pass holds whole-stack temporaries: 6.5 MB each here
    chunk_bytes = CHUNK * family.shape[1] * 2 * 8
    validate_stack(family[:2])
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        validate_stack(family)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 8 * chunk_bytes


# ---------------------------------------------------------------------------
# generation

REDRAW_BASELINES = [default_baselines()[0],
                    CstParams(np.full(9, 0.02), np.full(9, 0.012))]


def assert_same_dataset(got, want):
    assert len(got) == len(want)
    for shape, (index, b_idx, params, landmarks, attempts) in zip(got, want):
        assert (shape.index, shape.baseline_index, shape.attempts) == (
            index, b_idx, attempts)
        assert same_bits(shape.coefficients, params.as_vector())
        assert same_bits(shape.landmarks, landmarks.points)
        assert not (shape.coefficients.flags.writeable
                    or shape.landmarks.flags.writeable)


def warnings_of(caplog):
    return [r.getMessage() for r in caplog.records
            if r.name == "grassfoil.geometry"]


def test_redraws_match_drawing_each_shape_in_turn(caplog):
    caplog.set_level(logging.WARNING, logger="grassfoil.geometry")
    got = gen_dataset_detailed(REDRAW_BASELINES, 40, 0.9, 5, n=101)
    log = []
    want = oracle_gen_dataset(REDRAW_BASELINES, 40, 0.9, 5, 101, log)
    assert_same_dataset(got, want)
    assert warnings_of(caplog) == log
    attempts = [d.attempts for d in got[2:]]
    assert sum(a > 1 for a in attempts) == 11 and max(attempts) == 12
    assert len(log) == 45


def test_benchmark_family_matches_drawing_each_shape_in_turn(detail):
    want = oracle_gen_dataset(default_baselines(), 1000, 0.2, 7, 401, [])
    assert_same_dataset(detail, want)


def test_failing_baseline_raises_before_any_draw(monkeypatch, caplog):
    baselines = [REDRAW_BASELINES[1], default_baselines()[3],
                 CstParams(np.zeros(9), np.zeros(9))]
    with pytest.raises(GenerationError) as want:
        oracle_gen_dataset(baselines, 10, 0.2, 1, 101, [])

    def no_draw(*args):
        raise AssertionError("drew a perturbation")

    monkeypatch.setattr(geometry, "_scaled_draws", no_draw)
    with pytest.raises(GenerationError) as got:
        gen_dataset_detailed(baselines, 10, 0.2, 1, n=101)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("baseline 2 fails validation")
    assert warnings_of(caplog) == []


def test_exhausted_draws_raise_for_the_first_slot(monkeypatch, caplog):
    # four attempts: the slots (1, 4), (1, 6), (1, 9) and (1, 19) all run
    # out, and drawing in turn stops at the first of them
    monkeypatch.setattr(geometry, "_MAX_ATTEMPTS", 4)
    caplog.set_level(logging.WARNING, logger="grassfoil.geometry")
    log = []
    with pytest.raises(GenerationError) as want:
        oracle_gen_dataset(REDRAW_BASELINES, 40, 0.9, 5, 101, log)
    with pytest.raises(GenerationError) as got:
        gen_dataset_detailed(REDRAW_BASELINES, 40, 0.9, 5, n=101)
    assert str(got.value) == str(want.value) == (
        "no valid perturbation of baseline 1 after 4 attempts")
    assert warnings_of(caplog) == log
    assert len(log) == 6


def test_a_failed_draw_raises_where_drawing_in_turn_stops(monkeypatch, caplog):
    # the third draw of slot (1, 6) fails; slots (1, 9) and (1, 19), drawn
    # again in the same rounds, must log nothing
    target = geometry._derived_seed(5, 1, 6, 2)
    draw = geometry._scaled_draws

    def failing(rows, fraction, seeds):
        if target in seeds:
            raise ParameterError("upper coefficients are not finite")
        return draw(rows, fraction, seeds)

    # the oracle's perturb_cst draws through the same helper
    monkeypatch.setattr(geometry, "_scaled_draws", failing)
    caplog.set_level(logging.WARNING, logger="grassfoil.geometry")
    log = []
    with pytest.raises(ParameterError, match="not finite"):
        oracle_gen_dataset(REDRAW_BASELINES, 40, 0.9, 5, 101, log)
    with pytest.raises(ParameterError, match="not finite"):
        gen_dataset_detailed(REDRAW_BASELINES, 40, 0.9, 5, n=101)
    assert warnings_of(caplog) == log
    assert log[-1].startswith("rejected perturbation (baseline 1, index 6, "
                              "attempt 1)")


def test_generation_builds_no_per_shape_value_objects(monkeypatch):
    baselines = default_baselines()
    built = {LandmarkMatrix: 0, CstParams: 0}
    for cls in built:
        def counting(self, cls=cls, check=cls.__post_init__):
            built[cls] += 1
            check(self)
        monkeypatch.setattr(cls, "__post_init__", counting)
    detail = gen_dataset_detailed(baselines, 1000, 0.2, seed=7)
    assert len(detail) == 1016
    assert built == {LandmarkMatrix: 0, CstParams: 0}

