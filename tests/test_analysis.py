"""Geometry layer: level curves, kappa, winding counts, surveys, audits."""
from __future__ import annotations

import math
import tracemalloc
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np
import pytest

from dhratio import analysis, dhfun
from dhratio.analysis import (
    CLAIM_IDS,
    ComplexPoint,
    CurvePolyline,
    Rect,
    ZeroRecord,
    audit_claims,
    count_zeros_rect,
    kappa,
    kappa_detail,
    limit_probe,
    refine_zero,
    scan_critical_line,
    survey_zeros,
    trace_unit_curve,
)
from dhratio.dhfun import f_batch, z_function
from dhratio.errors import (
    AccuracyWarning,
    BoundaryZeroError,
    ConvergenceError,
    DegenerateCellWarning,
    DivergedError,
    DomainError,
    UndersampledError,
)
from dhratio.xratio import logabsx_many

KAPPA_REF = 1.2116357919123534

OFF_LINE_ZEROS = [
    0.8085171824566373855534 + 85.69934848537759217193j,
    0.6508300806097370824038 + 114.1633427307569809042j,
    0.5743560504508059907215 + 166.4793059131681558765j,
    0.7242576946268097802112 + 176.7024612428558250545j,
]

FIRST_LINE_ZEROS = [
    5.094159845,
    8.939914408,
    12.133545426,
    14.404003112,
    17.130239401,
    19.308800174,
    22.159707765,
    23.345370112,
]


# ----------------------------------------------------------------------
# rectangles and records
# ----------------------------------------------------------------------


def test_rect_validation():
    with pytest.raises(DomainError):
        Rect(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        Rect(0.0, 1.0, 2.0, 2.0)
    r = Rect(0.0, 1.0, -2.0, 2.0)
    assert r.width == 1.0 and r.height == 4.0


def test_zero_record_requires_exact_mirror_pairing():
    loc = ComplexPoint(0.5, 14.4)
    with pytest.raises(DomainError):
        ZeroRecord(
            location=loc,
            residual=1e-12,
            iterations=3,
            paired_location=ComplexPoint(0.5, 14.4),
            paired_residual=1e-12,
            abs_x_here=1.0,
            on_line=True,
            within_kappa=False,
        )


# ----------------------------------------------------------------------
# level-curve tracer
# ----------------------------------------------------------------------


def test_trace_vertices_lie_on_level_set():
    polys = trace_unit_curve(Rect(-2.0, 3.0, -2.2, 2.2), 0.02)
    verts = np.array([v.z for p in polys for v in p.vertices])
    assert len(verts) > 100
    assert np.abs(logabsx_many(verts)).max() < 1e-10
    assert all(p.excludes_line for p in polys)


def test_trace_is_mirror_symmetric():
    step = 0.02
    polys = trace_unit_curve(Rect(-2.0, 3.0, -2.2, 2.2), step)
    pts = np.array([v.z for p in polys for v in p.vertices])
    mirrored = 1.0 - np.conj(pts)
    gap = np.abs(pts[None, :] - mirrored[:, None]).min(axis=1).max()
    assert gap <= 2 * step


def test_trace_strip_apex_is_kappa():
    polys = trace_unit_curve(Rect(0.0, 1.0, -2.0, 2.0), 0.02)
    top = max(v.t for p in polys for v in p.vertices)
    assert abs(top - KAPPA_REF) < 1e-6, f"apex {top}"


def test_trace_consecutive_vertices_stay_within_cells():
    step = 0.02
    polys = trace_unit_curve(Rect(0.0, 1.0, -2.0, 2.0), step)
    for p in polys:
        pts = np.array([v.z for v in p.vertices])
        if len(pts) > 1:
            assert np.abs(np.diff(pts)).max() <= 2 * step


def test_trace_warns_on_singular_cells():
    # a coarse grid whose crossing cell also contains the pole at 2
    with pytest.warns(DegenerateCellWarning):
        trace_unit_curve(Rect(1.2, 3.2, -1.0, 1.0), 1.0)


def test_trace_warns_on_singular_cells_far_left():
    # the zero of X at sigma = -103 is found from the window itself
    with pytest.warns(DegenerateCellWarning):
        trace_unit_curve(Rect(-104.0, -102.0, -1.0, 1.0), 0.5)


def test_trace_warning_names_the_caller():
    with pytest.warns(DegenerateCellWarning) as caught:
        trace_unit_curve(Rect(1.2, 3.2, -1.0, 1.0), 1.0)
    assert [w.filename for w in caught] == [__file__]


def test_trace_warning_reaches_the_caller_from_a_worker_process():
    # the band is traced in a pool worker, which hands its flagged cell back
    with ProcessPoolExecutor(2) as pool:
        with pytest.warns(DegenerateCellWarning) as caught:
            trace_unit_curve(Rect(1.2, 3.2, -1.0, 1.0), 1.0, worker_map=pool.map)
    assert [w.filename for w in caught] == [__file__]


def test_trace_does_not_depend_on_worker_map():
    rect = Rect(-2.0, 3.0, -2.2, 2.2)  # 220 cell rows: eight bands of up to 31
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = trace_unit_curve(rect, 0.02, worker_map=pool.map)
    assert threaded == trace_unit_curve(rect, 0.02)


@pytest.mark.parametrize(
    "rect, step", [(Rect(-2.0, 3.0, -2.2, 2.2), 0.02), (Rect(1.2, 3.2, -1.0, 1.0), 1.0)]
)
def test_trace_does_not_depend_on_the_band_budget(monkeypatch, rect, step):
    # one band for the whole window, then one cell row a band, which puts a
    # band boundary at t = 0, where the flagged cells lie
    def trace():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            polys = trace_unit_curve(rect, step)
        return polys, [str(w.message) for w in caught]

    default = trace()
    for budget in (1 << 40, 1):
        monkeypatch.setattr(analysis, "_BAND_POINTS", budget)
        assert trace() == default


def _peak_bytes(func, *args):
    tracemalloc.start()
    try:
        func(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trace_memory_is_bounded_at_a_fine_step():
    # 626 x 301 grid points, traced in bands of at most _BAND_POINTS, each
    # band's |X| kernel in blocks of a quarter band (1.08 MB here)
    peak = _peak_bytes(trace_unit_curve, Rect(-2.0, 3.0, -1.2, 1.2), 0.008)
    assert peak <= 1.6e6, f"peak {peak / 1e6:.2f} MB"


def test_trace_memory_is_bounded_on_the_curve_window():
    # the CLI's curve window at step 0.02: 1.01 MB here, where whole-band
    # kernel blocks read 2.52 MB
    peak = _peak_bytes(trace_unit_curve, Rect(-2.0, 3.0, -2.2, 2.2), 0.02)
    assert peak <= 1.5e6, f"peak {peak / 1e6:.2f} MB"


def test_kappa_memory_is_bounded():
    # the 51 x 41 strip grid and the 321 x 10 apex zoom grid go in bands too
    # (0.70 MB here)
    peak = _peak_bytes(kappa_detail)
    assert peak <= 1.1e6, f"peak {peak / 1e6:.2f} MB"


def test_trace_subdivides_every_singular_cell():
    # crossed cells around the zeros of X at -3 and -1 and its pole at 2
    with pytest.warns(DegenerateCellWarning) as caught:
        polys = trace_unit_curve(Rect(-8.6, 3.2, -1.0, 1.0), 1.0)
    assert len(caught) == 3
    verts = np.array([v.z for p in polys for v in p.vertices])
    assert len(verts) > 10
    assert np.abs(logabsx_many(verts)).max() < 1e-10


# Marching-squares segments of one cell, keyed by its corner signs
# (bottom-left, bottom-right, top-left, top-right), for the two centre
# signs; only saddles read the centre.
B, L, R, T = "bottom", "left", "right", "top"
CELL_SEGMENTS = {
    "0000": ([], []),
    "1111": ([], []),
    "1000": ([(B, L)], [(B, L)]),
    "0111": ([(B, L)], [(B, L)]),
    "0100": ([(B, R)], [(B, R)]),
    "1011": ([(B, R)], [(B, R)]),
    "0010": ([(L, T)], [(L, T)]),
    "1101": ([(L, T)], [(L, T)]),
    "0001": ([(R, T)], [(R, T)]),
    "1110": ([(R, T)], [(R, T)]),
    "1100": ([(L, R)], [(L, R)]),
    "0011": ([(L, R)], [(L, R)]),
    "1010": ([(B, T)], [(B, T)]),
    "0101": ([(B, T)], [(B, T)]),
    # saddles: centre sign equal to the bottom-left corner's, or not
    "1001": ([(B, L), (T, R)], [(B, R), (L, T)]),
    "0110": ([(B, R), (L, T)], [(B, L), (T, R)]),
}


@pytest.mark.parametrize("pattern", sorted(CELL_SEGMENTS))
@pytest.mark.parametrize("centre", [False, True])
def test_cell_segments_table(pattern, centre):
    c00, c10, c01, c11 = (c == "1" for c in pattern)
    signs = np.array([[c00, c10], [c01, c11]])  # row 0 is the bottom row
    corners = analysis._corners(signs, np.array([0]), np.array([0]))
    segs = analysis._cell_segments(corners, np.array([centre]), np.array([[0, 1, 2, 3]]))
    names = (B, L, R, T)
    assert [(names[a], names[b]) for a, b in segs] == CELL_SEGMENTS[pattern][centre]


def test_trace_without_crossings_is_empty():
    assert trace_unit_curve(Rect(0.0, 1.0, 5.0, 6.0), 0.5) == []


def test_trace_rejects_bad_step():
    with pytest.raises(DomainError):
        trace_unit_curve(Rect(0.0, 1.0, 0.0, 1.0), 0.0)


# ----------------------------------------------------------------------
# kappa
# ----------------------------------------------------------------------


def test_kappa_two_methods_agree():
    kd = kappa_detail()
    assert abs(kd.root_value - KAPPA_REF) < 1e-12
    assert kd.agreement < 1e-6
    assert abs(kappa() - 1.21164) < 1e-3


def test_kappa_trace_steps_are_sized_to_their_stage():
    # the coarse trace (step 0.02) only finds the apex, on the sigma = 1/2
    # column at the line root; the 5e-4 zoom fits as well as a 1e-4 one
    root = analysis._kappa_root()
    polys = trace_unit_curve(Rect(0.0, 1.0, 0.8, 1.6), 0.02)
    apex = max((v for p in polys for v in p.vertices), key=lambda v: v.t)
    assert apex.sigma == 0.5 and abs(apex.t - root) < 1e-12
    kd = kappa_detail()
    assert kd.root_value == 1.2116357919123533
    assert abs(kd.trace_value - analysis._apex_fit(apex, 1e-4)) < 1e-10


def test_kappa_touches_no_linear_algebra_routine(monkeypatch):
    # the apex parabola is fitted by orthogonal polynomials, not by
    # polyfit's LAPACK least squares
    def refuse(*args, **kwargs):
        raise AssertionError("a numpy.linalg routine or polyfit was called")

    monkeypatch.setattr(np, "polyfit", refuse)
    for name in np.linalg.__all__:
        routine = getattr(np.linalg, name)
        if callable(routine) and not isinstance(routine, type):
            monkeypatch.setattr(np.linalg, name, refuse)
    assert abs(kappa_detail().trace_value - 1.2116358106975236) < 1e-15


def test_apex_vertex_agrees_with_polyfit(monkeypatch):
    # on the zoom vertices kappa fits, the recurrence's vertex is
    # polyfit's (LAPACK least squares) to 1e-13 in both coordinates
    seen = []
    fit = analysis._parabola_vertex

    def record(x, t):
        seen.append((x, t))
        return fit(x, t)

    monkeypatch.setattr(analysis, "_parabola_vertex", record)
    kappa_detail()
    (x, t), = seen
    coef = np.polyfit(x, t, 2)
    x_star = -coef[1] / (2.0 * coef[0])
    got = fit(x, t)
    assert len(x) == 240
    assert abs(got[0] - x_star) < 1e-13 and abs(got[1] - np.polyval(coef, x_star)) < 1e-13
    with pytest.raises(ConvergenceError, match="downward parabola"):
        fit(x, -t)


# ----------------------------------------------------------------------
# winding counts
# ----------------------------------------------------------------------


def test_count_examples_around_first_off_line_zero():
    assert count_zeros_rect(Rect(0.6, 0.95, 85.0, 86.5), 64) == 1
    assert count_zeros_rect(Rect(0.6, 0.95, 86.5, 88.0), 64) == 0


def test_count_includes_line_zeros():
    assert count_zeros_rect(Rect(0.0, 1.0, 5.0, 5.2), 64) == 1


def test_count_validation_and_boundary_guard():
    with pytest.raises(DomainError):
        count_zeros_rect(Rect(0.0, 1.0, 5.0, 5.2), 2)
    # a boundary running exactly through a zero trips the guard when
    # retries are disabled
    with pytest.raises(BoundaryZeroError):
        count_zeros_rect(Rect(0.3, 0.7, 14.404003112277501, 15.0), 4, max_retries=0)
    # with retries enabled the window inflates past the zero
    assert count_zeros_rect(Rect(0.3, 0.7, 14.404003112277501, 15.0), 16) == 1


def test_phase_changes_check_the_last_round(monkeypatch):
    # f turns by about -2.76 rad from 0.3+14.1i to 0.3+14.7i, past the
    # zero at 1/2+14.404i; one bisection leaves two steps near -1.38
    path = np.array([0.3 + 14.1j, 0.3 + 14.7j, 0.35 + 14.7j])
    vals, _ = f_batch(path)
    row = np.array([0, 0, 1])
    want = analysis._phase_changes(path, vals, row)
    assert want[0] == pytest.approx(-2.76, abs=0.01)
    monkeypatch.setattr(analysis, "_PHASE_ROUNDS", 1)
    got = analysis._phase_changes(path, vals, row)
    np.testing.assert_array_equal(got, want)
    monkeypatch.setattr(analysis, "_PHASE_ROUNDS", 0)
    with pytest.raises(UndersampledError):
        analysis._phase_changes(path, vals, row)


def test_phase_changes_cap_samples_per_path(monkeypatch):
    path = np.array([0.3 + 14.1j, 0.3 + 14.7j])
    vals, _ = f_batch(path)
    monkeypatch.setattr(analysis, "_EDGE_CAP", 2)
    with pytest.raises(UndersampledError, match="with 2 boundary samples"):
        analysis._phase_changes(path, vals, np.zeros(2, dtype=int))


# ----------------------------------------------------------------------
# refinement
# ----------------------------------------------------------------------


@pytest.mark.parametrize("target", OFF_LINE_ZEROS)
def test_refine_recovers_known_off_line_zeros(target):
    seed = complex(round(target.real, 6), round(target.imag, 6))
    rec = refine_zero(seed)
    assert abs(rec.location.z - target) < 1e-8
    assert rec.residual < 1e-8
    assert not rec.on_line
    assert not rec.within_kappa
    assert rec.paired_location.z == 1.0 - rec.location.z


def test_refine_snaps_line_zeros_to_exact_half():
    rec = refine_zero(0.5000001 + 14.404j)
    assert rec.location.sigma == 0.5
    assert rec.on_line
    assert abs(rec.location.t - 14.404003112) < 1e-6
    assert rec.abs_x_here == 1.0


def test_refine_diverges_cleanly_far_from_zeros():
    with pytest.raises(DivergedError):
        refine_zero(8.0 + 0.3j)


def test_lockstep_newton_warns_per_point(monkeypatch):
    monkeypatch.setattr(dhfun, "_WARN_REL_ERR", 1e-24)  # every evaluation counts as inaccurate
    seeds = np.array([0.808517 + 85.699348j, 0.650830 + 114.163343j])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        analysis._refine_many(seeds, np.full(2, 0.5))
    assert caught and all(issubclass(w.category, AccuracyWarning) for w in caught)
    for z, w in zip(seeds, caught[:2]):  # the first round names both seeds
        assert f"at s = {complex(z)}" in str(w.message)


def test_refine_rejects_bad_seed():
    with pytest.raises(DomainError):
        refine_zero(complex(math.inf, 1.0))


# ----------------------------------------------------------------------
# bracketed roots
# ----------------------------------------------------------------------


def _plain_bisection(func, a, b, fa):
    """Reference: plain bisection of every bracket until its interval
    collapses or its midpoint is an exact zero, all brackets in lockstep
    (one `func` call a round)."""
    a, b, fa = (np.array(v, dtype=np.float64) for v in (a, b, fa))
    roots = np.empty(len(a))
    live = np.arange(len(a))
    while len(live):
        mid = 0.5 * (a[live] + b[live])
        fm = np.asarray(func(mid))
        done = (mid == a[live]) | (mid == b[live]) | (fm == 0.0)
        roots[live[done]] = mid[done]
        up = (fm > 0.0) == (fa[live] > 0.0)
        a[live[up]], fa[live[up]] = mid[up], fm[up]
        b[live[~up]] = mid[~up]
        live = live[~done]
    return roots


def test_bracket_roots_agree_with_plain_bisection_on_z():
    ts = np.linspace(0.0, 120.0, 2401)
    zv = z_function(ts)
    flip = zv[:-1] * zv[1:] < 0.0
    a, b, za, zb = ts[:-1][flip], ts[1:][flip], zv[:-1][flip], zv[1:][flip]
    roots = analysis._bracket_roots(z_function, a, b, za, zb)
    assert len(roots) > 60
    want = _plain_bisection(z_function, a, b, za)
    for k, root in enumerate(roots):
        assert abs(root - want[k]) <= 4.0 * np.spacing(want[k]), f"bracket [{a[k]}, {b[k]}]"


def test_bracket_roots_exact_zeros():
    calls = []

    def line(x):
        calls.append(x.copy())
        return x - 0.5

    # a zero endpoint is returned as is, without evaluating anything
    got = analysis._bracket_roots(line, [0.5, 0.0], [1.0, 0.5], [0.0, -0.5], [0.5, 0.0])
    assert list(got) == [0.5, 0.5] and calls == []
    # a secant point that hits the root exactly stops there
    got = analysis._bracket_roots(line, [0.0], [1.0], [-0.5], [0.5])
    assert got[0] == 0.5 and len(calls) == 1


def test_bracket_roots_bisect_past_an_infinite_endpoint():
    calls = []

    def pole_at_zero(x):
        calls.append(x.copy())
        return np.where(x == 0.0, -np.inf, x - 0.3)

    got = analysis._bracket_roots(pole_at_zero, [0.0], [1.0], [-np.inf], [0.7])
    assert calls[0][0] == 0.5 and calls[1][0] == 0.25  # bisection while a value is -inf
    assert abs(got[0] - 0.3) <= 4.0 * np.spacing(0.3)
    # complex endpoints: a root along a segment
    seg = analysis._bracket_roots(
        lambda z: z.real - 0.3, [0.0 + 2.0j], [1.0 + 2.0j], [-0.3], [0.7]
    )
    assert abs(seg[0] - (0.3 + 2.0j)) <= 4.0 * np.spacing(2.0)


# ----------------------------------------------------------------------
# line scan
# ----------------------------------------------------------------------


def test_scan_finds_first_eight_line_zeros():
    recs = scan_critical_line(1.0, 25.0, 0.35)
    assert len(recs) == len(FIRST_LINE_ZEROS)
    for rec, want in zip(recs, FIRST_LINE_ZEROS):
        assert rec.location.sigma == 0.5
        assert abs(rec.location.t - want) < 1e-6
        assert rec.residual < 1e-10
    ts = [rec.location.t for rec in recs]
    assert ts == sorted(ts)


def test_scan_memory_is_bounded():
    # 30 001 heights, evaluated in fixed blocks
    peak = _peak_bytes(scan_critical_line, 0.0, 15.0, 0.0005)
    assert peak <= 6e6, f"peak {peak / 1e6:.1f} MB"


def test_scan_validation():
    with pytest.raises(DomainError):
        scan_critical_line(5.0, 1.0, 0.1)


# ----------------------------------------------------------------------
# survey
# ----------------------------------------------------------------------


def test_survey_matches_scan_on_quiet_stretch():
    recs = survey_zeros(Rect(0.0, 1.0, 0.4, 30.0))
    scan = scan_critical_line(0.4, 30.0, 0.2)
    assert len(recs) == len(scan)
    for a, b in zip(recs, scan):
        assert abs(a.location.z - b.location.z) < 1e-9
    assert all(r.on_line for r in recs)


def test_scan_matches_survey_line_zeros_to_120():
    scan = scan_critical_line(0.0, 120.0, 0.05)
    line = [r for r in survey_zeros(Rect(0.0, 1.0, 0.0, 120.0)) if r.on_line]
    assert len(scan) == len(line) == 64
    for a, b in zip(scan, line):
        assert a.location.sigma == b.location.sigma == 0.5
        assert abs(a.location.t - b.location.t) < 1e-9


def test_survey_near_first_off_line_pair():
    recs = survey_zeros(Rect(0.0, 1.0, 85.0, 86.0))
    off = [r for r in recs if not r.on_line]
    assert len(off) == 2
    sigmas = sorted(r.location.sigma for r in off)
    assert abs(sigmas[0] - (1.0 - OFF_LINE_ZEROS[0].real)) < 1e-6
    assert abs(sigmas[1] - OFF_LINE_ZEROS[0].real) < 1e-6


def test_band_counts_match_single_cell_counts():
    rect = Rect(0.0, 1.0, 84.0, 87.0)
    s_cuts, t_cuts = analysis._tiling(rect, 0.25, 0.0)
    samples = analysis._SURVEY_SAMPLES
    counts = analysis._grid_counts(s_cuts, t_cuts, samples)
    assert counts.shape == (len(t_cuts) - 1, len(s_cuts) - 1)
    for (j, i), c in np.ndenumerate(counts):
        cell = Rect(s_cuts[i], s_cuts[i + 1], t_cuts[j], t_cuts[j + 1])
        assert c == count_zeros_rect(cell, samples, max_retries=0), f"cell {cell}"
    assert counts.sum() == count_zeros_rect(rect, 64) > 0


def test_survey_records_do_not_depend_on_worker_map():
    rect = Rect(0.0, 1.0, 84.0, 87.0)  # 12 cell rows: two bands
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = survey_zeros(rect, worker_map=pool.map)
    assert threaded == survey_zeros(rect)


def test_records_with_equal_heights_are_ordered_by_sigma():
    # an off-line pair's t values come from separate Newton runs and may
    # differ in the last bit; the output order must not follow that bit
    t = 1012.0199814890879

    def record(sigma, height):
        loc = ComplexPoint(sigma, height)
        return ZeroRecord(loc, 0.0, 0, loc.mirror(), 0.0, 1.0, False, False)

    low, high = record(0.69, t), record(0.31, np.nextafter(t, 2000.0))
    for recs in ([low, high], [high, low]):
        assert [r.location.sigma for r in analysis._by_height(recs)] == [0.31, 0.69]
    apart = [record(0.69, t), record(0.31, t + 1e-5)]
    assert [r.location.sigma for r in analysis._by_height(apart)] == [0.69, 0.31]


def test_survey_raises_when_dedupe_loses_a_zero(monkeypatch):
    rect = Rect(0.0, 1.0, 85.0, 86.0)
    honest = survey_zeros(rect)
    assert len(honest) >= 2
    real_localize = analysis._localize

    def collapsing(cells):
        # every cell's Newton run lands on the same zero
        return [honest[0]] * len(real_localize(cells))

    monkeypatch.setattr(analysis, "_localize", collapsing)
    with pytest.raises(ConvergenceError):
        survey_zeros(rect)


def test_survey_retries_next_offset_after_a_lost_zero(monkeypatch):
    rect = Rect(0.0, 1.0, 85.0, 86.0)
    honest = survey_zeros(rect)
    real_localize = analysis._localize
    real_tiling = analysis._tiling
    offsets = []

    def tiling(r, cell_size, t_offset):
        offsets.append(t_offset)
        return real_tiling(r, cell_size, t_offset)

    def collapsing_first(cells):
        found = real_localize(cells)
        return [honest[0]] * len(found) if len(offsets) == 1 else found

    monkeypatch.setattr(analysis, "_tiling", tiling)
    monkeypatch.setattr(analysis, "_localize", collapsing_first)
    recs = survey_zeros(rect)
    assert offsets[:2] == [0.0, 0.04]
    assert len(recs) == len(honest)
    for b in honest:
        assert min(abs(a.location.z - b.location.z) for a in recs) < 1e-9


@pytest.mark.parametrize(
    "heights, zeros",
    [
        ((0.0, 120.0), 68),
        ((80.0, 120.0), 28),
        ((1000.0, 1020.0), 21),
        ((5000.0, 5010.0), 13),
        (tuple(np.arange(80.0, 120.5, 2.0)), 28),  # the survey's 20 bands
    ],
)
def test_strip_counts_are_exact(heights, zeros):
    # Backlund's count; (T / 2 pi) log(5 T / (2 pi e)) gives 67.97 at T = 120
    counts = analysis._strip_counts(heights)
    assert len(counts) == len(heights) - 1
    assert np.abs(counts - np.rint(counts)).max() < 1e-9
    assert np.rint(counts).sum() == zeros


def test_strip_counts_raise_off_an_integer(monkeypatch):
    real = analysis._log_x

    def skewed(s, arg=False):  # theta off by 0.1 t / 120
        log_abs, theta = real(s, arg)
        return log_abs, theta + 0.1 * s.imag / 120.0

    monkeypatch.setattr(analysis, "_log_x", skewed)
    with pytest.raises(UndersampledError):
        analysis._strip_counts([0.0, 120.0])


def _drop_line_root(monkeypatch, t_root):
    """Flip the sign of Z above t_root, so the survey's scan misses the
    root at t_root and pins every other one as before (Illinois steps do
    not see the sign)."""
    real = analysis.z_function
    monkeypatch.setattr(analysis, "z_function", lambda t: np.where(t > t_root, -1.0, 1.0) * real(t))


def _grid_bands(monkeypatch):
    """The bands the survey sends to the grid, as (t0, t1) pairs."""
    real = analysis._grid_band
    seen = []

    def band(s_cuts, t_cuts, expected):
        seen.append((t_cuts[0], t_cuts[-1]))
        return real(s_cuts, t_cuts, expected)

    monkeypatch.setattr(analysis, "_grid_band", band)
    return seen


def test_survey_takes_line_roots_only_where_they_match_the_count(monkeypatch):
    rect = Rect(0.0, 1.0, 80.0, 120.0)
    seen = _grid_bands(monkeypatch)
    recs = survey_zeros(rect)
    # the off-line pairs at t ~ 85.7 and 114.2: every other band is on the line
    assert seen == [(84.0, 86.0), (114.0, 116.0)]
    assert sum(not r.on_line for r in recs) == 4
    for r in recs:
        if not (84.0 < r.location.t < 86.0 or 114.0 < r.location.t < 116.0):
            assert r.iterations == 0 and r.location.sigma == 0.5


def test_survey_sends_a_band_with_a_dropped_line_root_to_the_grid(monkeypatch):
    rect = Rect(0.0, 1.0, 0.0, 20.0)
    honest = survey_zeros(rect)
    assert all(r.iterations == 0 for r in honest)
    _drop_line_root(monkeypatch, FIRST_LINE_ZEROS[0])
    seen = _grid_bands(monkeypatch)
    recs = survey_zeros(rect)
    assert seen == [(4.0, 6.0)]
    assert len(recs) == len(honest)
    for a, b in zip(recs, honest):
        assert a.on_line == b.on_line
        assert abs(a.location.z - b.location.z) < 1e-12
    assert [r.iterations > 0 for r in recs] == [4.0 < r.location.t < 6.0 for r in recs]


def _shift_phase(monkeypatch, start, end, delta):
    """Add delta to the phase change of the sampled path from start to end."""
    real = analysis._phase_changes

    def phases(points, values, row):
        out = real(points, values, row)
        first = np.flatnonzero(np.diff(row, prepend=-1))
        last = np.append(first[1:], len(row)) - 1
        out[(points[first] == start) & (points[last] == end)] += delta
        return out

    monkeypatch.setattr(analysis, "_phase_changes", phases)


def test_survey_raises_when_a_grid_band_loses_a_wrap(monkeypatch):
    # the left edge of the cell [0, 0.25] x [85.5, 85.75], which holds the
    # off-line zero 0.1915 + 85.6993i; a cell subtracts its left edge, run
    # upward, so 2 pi more there loses the zero
    rect = Rect(0.0, 1.0, 85.0, 86.0)
    assert len(survey_zeros(rect)) == 2
    _shift_phase(monkeypatch, 85.5j, 85.75j, 2.0 * math.pi)
    with pytest.raises(ConvergenceError, match="wind"):
        survey_zeros(rect)


def test_survey_raises_when_a_wrap_is_lost_beside_a_line_zero(monkeypatch):
    # 2 pi lost on the bottom edge of the cell that holds 0.5 + 12.1335i
    # leaves that cell's winding count at 0; the band goes to the grid
    # because its scan misses that root, and its count catches the loss
    rect = Rect(0.0, 1.0, 12.0335, 15.1335)
    assert len(survey_zeros(rect)) == 2
    band_top = analysis._tiling(rect, analysis._CELL_SIZE, 0.0)[1][analysis._BAND_ROWS]
    _drop_line_root(monkeypatch, FIRST_LINE_ZEROS[2])
    _shift_phase(monkeypatch, 0.25 + 12.0335j, 0.52 + 12.0335j, -2.0 * math.pi)
    seen = _grid_bands(monkeypatch)
    with pytest.raises(ConvergenceError, match="wind"):
        survey_zeros(rect)
    assert seen == [(12.0335, band_top)]


def test_survey_counts_the_zeros_right_of_a_narrow_window(monkeypatch):
    # the off-line pair at t ~ 85.7 lies outside [0.2, 0.8]: its band
    # goes to the grid, whose total falls two short of the band's count,
    # and the strip right of the window holds one zero of the pair
    wide = survey_zeros(Rect(0.0, 1.0, 80.0, 90.0))
    seen = _grid_bands(monkeypatch)
    recs = survey_zeros(Rect(0.2, 0.8, 80.0, 90.0))
    assert seen == [(84.0, 86.0)]
    assert len(recs) == len(wide) - 2
    assert [r.location.z for r in recs] == [r.location.z for r in wide if r.on_line]


def test_survey_finds_the_trivial_zeros_the_count_leaves_out(monkeypatch):
    # f(-1) = f(-3) = 0; the strip count covers -1/2 < sigma < 3/2 only,
    # and the band that holds t = 0 has no line zero to miss them by
    seen = _grid_bands(monkeypatch)
    recs = survey_zeros(Rect(-1.6, 1.0, -0.9, 1.0))
    assert seen == [(-0.9, 1.0)]
    assert [r.location.z for r in recs] == pytest.approx([-1.0], abs=1e-12)
    seen.clear()
    recs = survey_zeros(Rect(-3.6, 1.0, -0.6, 9.0))
    assert seen == [(-0.6, 1.4)]
    assert [r.location.z for r in recs] == pytest.approx(
        [-3.0, -1.0, 0.5 + 1j * FIRST_LINE_ZEROS[0], 0.5 + 1j * FIRST_LINE_ZEROS[1]], abs=1e-8
    )
    assert [r.iterations == 0 for r in recs] == [False, False, True, True]


def test_survey_keeps_sigma_cuts_off_the_trivial_zeros():
    # cells of 0.25 counted from an integer sigma put cuts on -3 and -1;
    # the t-offset retries move t-cuts only, so a zero there sat on a cell
    # boundary at every offset
    recs = survey_zeros(Rect(-3.5, -0.5, -1.0, 1.0))
    assert [r.location.z for r in recs] == pytest.approx([-3.0, -1.0], abs=1e-9)
    recs = survey_zeros(Rect(-2.0, 3.0, -1.0, 1.0))
    assert [r.location.z for r in recs] == pytest.approx([-1.0], abs=1e-9)
    s_cuts, _ = analysis._tiling(Rect(-4.0, 0.0, -1.0, 1.0), analysis._CELL_SIZE, 0.0)
    assert min(abs(c - z) for c in s_cuts[1:-1] for z in (-3.0, -1.0)) >= 0.02


def test_survey_off_the_line_keeps_the_grid_route(monkeypatch):
    # a window without sigma = 1/2: no count, no line samples, and the
    # records of the grid route alone
    rect = Rect(0.55, 1.0, 80.0, 120.0)

    def no_z(t):
        raise AssertionError("a window off the line sampled Z")

    monkeypatch.setattr(analysis, "z_function", no_z)
    recs = survey_zeros(rect)
    s_cuts, t_cuts = analysis._tiling(rect, analysis._CELL_SIZE, 0.0)
    rows = analysis._BAND_ROWS
    cells = [
        (Rect(s_cuts[i], s_cuts[i + 1], tc[j], tc[j + 1]), int(c))
        for tc in (t_cuts[lo : lo + rows + 1] for lo in range(0, len(t_cuts) - 1, rows))
        for (j, i), c in np.ndenumerate(analysis._grid_counts(s_cuts, tc, analysis._SURVEY_SAMPLES))
    ]
    assert recs == analysis._by_height(analysis._localize(cells))
    assert [r.location.z for r in recs] == pytest.approx(OFF_LINE_ZEROS[:2], abs=1e-9)


def test_survey_retries_when_a_line_zero_sits_on_a_band_boundary(monkeypatch):
    t_zero = 5.0941598445710952  # a line zero, to the last digit
    rect = Rect(0.0, 1.0, t_zero - 2.0, t_zero + 2.0)
    offsets = []
    real_tiling = analysis._tiling

    def tiling(r, cell_size, t_offset):
        offsets.append(t_offset)
        return real_tiling(r, cell_size, t_offset)

    monkeypatch.setattr(analysis, "_tiling", tiling)
    recs = survey_zeros(rect)
    assert offsets == [0.0, 0.04]
    assert min(abs(r.location.t - t_zero) for r in recs) < 1e-12


# ----------------------------------------------------------------------
# audits and limit probes
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def refined_sample():
    return [
        refine_zero(0.5 + 14.404j),
        refine_zero(0.808517 + 85.699348j),
        refine_zero(0.650830 + 114.163343j),
    ]


def test_refine_zero_matches_the_lockstep_batch(refined_sample):
    # refine_zero is the one-seed case of the lockstep refinement that the
    # survey runs on all its cells at once
    seeds = np.array([0.5 + 14.404j, 0.808517 + 85.699348j, 0.650830 + 114.163343j])
    locs, _, errors = analysis._refine_many(seeds, np.full(3, 0.5))
    assert errors == [None, None, None]
    for z, rec in zip(locs, refined_sample):
        assert abs(z - rec.location.z) < 1e-12
        window = Rect(0.0, 1.0, math.floor(rec.location.t), math.floor(rec.location.t) + 1.0)
        assert min(abs(r.location.z - z) for r in survey_zeros(window)) < 1e-9


# every claim's evidence keys in order: the CSV and JSON outputs list them so
_EVIDENCE_KEYS = {
    "Lemma1": ("abs_f", "abs_f_paired", "abs_x", "abs_x_minus_1"),
    "Lemma2": ("abs_x", "abs_x_minus_1", "t", "kappa"),
    "Corollary1": ("abs_x_minus_1",),
    "Lemma3_part1": (
        "gamma_upper_modulus",
        "gamma_lower_modulus",
        "dgamma_upper_dt",
        "dgamma_lower_dt",
        "log_abs_x",
    ),
    "Lemma3_part2": ("abs_f", "abs_f_paired", "dlogabsx_dt"),
    "Lemma3_part3": ("abs_x", "t", "kappa", "t_over_kappa"),
    "Puzzle1": ("abs_f", "abs_f_paired", "abs_difference"),
    "Puzzle2": ("t", "kappa", "t_over_kappa", "within_kappa"),
    "AppendixA_t": ("abs_x_probe", "abs_x_direct"),
    "AppendixA_sigma": ("abs_x_probe", "abs_x_direct"),
}


def test_audit_covers_every_claim(refined_sample):
    reports = audit_claims(refined_sample)
    assert tuple(r.claim_id for r in reports) == CLAIM_IDS == tuple(_EVIDENCE_KEYS)
    for r in reports:
        assert r.verdict_note
        assert r.evidence, f"{r.claim_id}: the sample has zeros on and off the line"
        for item in r.evidence:
            assert tuple(item) == ("input",) + _EVIDENCE_KEYS[r.claim_id], r.claim_id


def test_audit_reports_puzzle_quantities(refined_sample):
    reports = {r.claim_id: r for r in audit_claims(refined_sample)}
    puzzle1 = reports["Puzzle1"].evidence
    assert len(puzzle1) == 2  # the two off-line zeros
    for item in puzzle1:
        assert item["abs_f"] < 1e-6 and item["abs_f_paired"] < 1e-6
    puzzle2 = reports["Puzzle2"].evidence
    for item in puzzle2:
        assert item["t"] > 70.0 * item["kappa"]
        assert item["within_kappa"] is False
    lemma1 = reports["Lemma1"].evidence
    assert len(lemma1) == 3


def test_limit_probe_on_line_along_t_is_unity(refined_sample):
    radii = [10.0 ** (-k) for k in range(1, 7)]
    probes = limit_probe(refined_sample[0], "along_t", radii)
    assert all(abs(ax - 1.0) < 1e-9 for _, ax in probes)


def test_limit_probe_off_line_converges_to_direct_value(refined_sample):
    radii = [10.0 ** (-k) for k in range(1, 7)]
    probes = limit_probe(refined_sample[1], "along_t", radii)
    direct = refined_sample[1].abs_x_here
    gaps = [abs(ax - direct) for _, ax in probes]
    assert gaps[-1] < 1e-5
    assert gaps[-1] < gaps[0]  # the sequence closes in on the direct value


def test_limit_probe_makes_one_pq_call_per_ray(refined_sample, monkeypatch):
    calls = []

    def counted(sigma, t):
        calls.append(np.broadcast(sigma, t).size)
        return dhfun.pq(sigma, t)

    monkeypatch.setattr(analysis, "pq", counted)
    radii = [10.0 ** (-k) for k in range(1, 7)]
    for direction in ("along_t", "along_sigma"):
        probes = limit_probe(refined_sample[1], direction, radii)
        assert [r for r, _ in probes] == radii
    assert calls == [6, 6]


def test_limit_probe_validation(refined_sample):
    good = refined_sample[0]
    with pytest.raises(DomainError):
        limit_probe(good, "diagonally", [0.1])
    with pytest.raises(DomainError):
        limit_probe(good, "along_t", [0.1, 0.5])
    with pytest.raises(DomainError):
        limit_probe(good, "along_t", [])
    rough = ZeroRecord(
        location=good.location,
        residual=1e-3,
        iterations=1,
        paired_location=good.paired_location,
        paired_residual=1e-3,
        abs_x_here=1.0,
        on_line=True,
        within_kappa=False,
    )
    with pytest.raises(DomainError):
        limit_probe(rough, "along_t", [0.1])
