"""Geometry built on the series and its reflection ratio.

Four instruments:

  * a marching-squares tracer for the level set |X| = 1, run on the
    deflated field h = log|X| / (sigma - 1/2) so the identically-zero
    critical line drops out and only the bounded off-line branches
    remain; every grid edge has an integer id, and one array pass turns
    all crossed cells of a band into pairs of edge ids;
  * the height bound kappa of the off-line branch inside the strip,
    measured two independent ways (curve apex vs. digamma-equation
    root);
  * zero accounting: an exact count of each band of the strip from the
    functional equation, argument-principle winding counts over bands of
    grid cells that share their edge samples (one flat sample array
    tagged by edge, bisected in rounds), localization of every counted
    cell together in rounds, lockstep Newton refinement (f and f' from
    one evaluation pass per round), critical-line scanning through the
    real rotated form, and an exhaustive survey combining them;
  * audits that attach measured numbers to a fixed list of externally
    numbered claims, reporting values only and never a verdict.

Everything is a pure function of its inputs, computed in one process:
the bands of a survey or a trace, and the localization batches, depend
on the window alone, and merges are deterministic (sorted by t, then
sigma).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cache, partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dhfun import _evaluate, f_batch, pq, z_function
from .errors import (
    BoundaryZeroError,
    ConvergenceError,
    DegenerateCellWarning,
    DivergedError,
    DomainError,
    UndersampledError,
)
from .specfun import ELEMENT_BUDGET, ComplexPoint, log_abs_gamma
from .xratio import (
    _gamma_args,
    _log_x,
    dlogabsx_dt,
    dsigma_logabsx,
    gamma_modulus_dt,
    logabsx_many,
)

__all__ = [
    "Rect",
    "CurvePolyline",
    "ZeroRecord",
    "AuditReport",
    "KappaResult",
    "CLAIM_IDS",
    "LINE_TOL",
    "trace_unit_curve",
    "kappa",
    "kappa_detail",
    "count_zeros_rect",
    "refine_zero",
    "scan_critical_line",
    "survey_zeros",
    "audit_claims",
    "limit_probe",
]

LINE_TOL = 1e-6
_BOUNDARY_GUARD = 1e-8


# ----------------------------------------------------------------------
# domain types
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Rect:
    """An axis-aligned window [sigma_min, sigma_max] x [t_min, t_max]."""

    sigma_min: float
    sigma_max: float
    t_min: float
    t_max: float

    def __post_init__(self) -> None:
        vals = (self.sigma_min, self.sigma_max, self.t_min, self.t_max)
        if not all(math.isfinite(v) for v in vals):
            raise DomainError("rectangle coordinates must be finite")
        if not (self.sigma_min < self.sigma_max and self.t_min < self.t_max):
            raise DomainError(f"degenerate rectangle {vals}")
        if not (math.isfinite(self.width) and math.isfinite(self.height)):
            raise DomainError(f"the width or height of rectangle {vals} overflows float64")

    @property
    def width(self) -> float:
        return self.sigma_max - self.sigma_min

    @property
    def height(self) -> float:
        return self.t_max - self.t_min

    def contains(self, z: complex, slack: float = 0.0) -> bool:
        return (
            self.sigma_min - slack <= z.real <= self.sigma_max + slack
            and self.t_min - slack <= z.imag <= self.t_max + slack
        )


def _as_rect(window) -> Rect:
    if isinstance(window, Rect):
        return window
    return Rect(*(float(v) for v in window))


@dataclass(frozen=True)
class CurvePolyline:
    """One connected component of the traced level set."""

    component_id: int
    vertices: tuple[ComplexPoint, ...]
    closed: bool
    excludes_line: bool


@dataclass(frozen=True)
class ZeroRecord:
    """A refined zero and the reflection bookkeeping around it."""

    location: ComplexPoint
    residual: float
    iterations: int
    paired_location: ComplexPoint
    paired_residual: float
    abs_x_here: float
    on_line: bool
    within_kappa: bool

    def __post_init__(self) -> None:
        if not self.residual >= 0.0 or not self.paired_residual >= 0.0:
            raise DomainError("residuals must be non-negative")
        mirrored = self.location.mirror()
        if (
            self.paired_location.sigma != mirrored.sigma
            or self.paired_location.t != mirrored.t
        ):
            raise DomainError("paired_location must be exactly 1 - location")


@dataclass(frozen=True)
class KappaResult:
    """The strip height bound by two independent methods."""

    trace_value: float
    root_value: float

    @property
    def agreement(self) -> float:
        return abs(self.trace_value - self.root_value)


@dataclass(frozen=True)
class AuditReport:
    """Measured evidence for one externally numbered claim.

    Every evidence entry is a flat mapping that names its own probe
    input, so each number can be recomputed from the entry alone.  The
    verdict_note describes what was measured -- it never adjudicates.
    """

    claim_id: str
    evidence: tuple[dict, ...]
    verdict_note: str

    def __post_init__(self) -> None:
        if self.claim_id not in CLAIM_IDS:
            raise DomainError(f"unknown claim id {self.claim_id!r}")
        for item in self.evidence:
            if "input" not in item:
                raise DomainError("every evidence entry must name its input")


# ----------------------------------------------------------------------
# the deflated level-set field
# ----------------------------------------------------------------------


def _h_at(pts: np.ndarray) -> np.ndarray:
    """Deflated field h = log|X| / (sigma - 1/2) at arbitrary points.

    On the line itself h is the limiting value d(log|X|)/dsigma, which
    extends h smoothly through the removed component.  `logabsx_many`
    streams fixed blocks, so memory stays bounded for any point count.
    """
    out = np.empty(len(pts))
    on = pts.real == 0.5
    off = ~on
    if off.any():
        out[off] = logabsx_many(pts[off]) / (pts.real[off] - 0.5)
    if on.any():
        out[on] = dsigma_logabsx(pts[on])
    return out


# Most samples or cuts along one axis: 1 << 22 float64 values take 32 MB before
# the first evaluation, and a documented command builds at most 20 001.  More
# is a mistyped step or window, which would allocate or loop without bound.
_MAX_AXIS = 1 << 22


def _refuse_long_axis(count: float, what: str) -> None:
    if not count <= _MAX_AXIS:  # inf and NaN too
        raise DomainError(f"{count:.3g} {what} along one axis; at most {_MAX_AXIS}")


def _axis(lo: float, hi: float, step: float, snap_line: bool) -> np.ndarray:
    steps = (hi - lo) / step
    _refuse_long_axis(steps, f"steps of {step:g} over [{lo:g}, {hi:g}]")
    n = max(1, int(math.ceil(steps - 1e-9)))
    values = lo + step * np.arange(n + 1)
    values[-1] = min(values[-1], hi)
    if snap_line:
        near = np.abs(values - 0.5) < 1e-9
        values[near] = 0.5
    return values


# ----------------------------------------------------------------------
# bracketed roots
# ----------------------------------------------------------------------

_ROOT_MAX_ROUNDS = 80


def _ulp_toward(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """p moved by one ulp toward q in each coordinate (real or complex)."""
    re = np.nextafter(p.real, q.real)
    return re + 1j * np.nextafter(p.imag, q.imag) if np.iscomplexobj(p) else re


def _bracket_roots(func, a, b, fa, fb) -> np.ndarray:
    """One sign-change root per bracket, all brackets in lockstep.

    `func` maps an array of points (real, or complex along segments) to
    real values; fa, fb at the endpoints a, b have opposite signs (> 0
    against <= 0) or are zero.  Each round is one `func` call and one
    Illinois false-position step per live bracket (Dowell & Jarratt, BIT
    11, 1971): the secant point of a and the newest point b, halving the
    value at a whenever a is kept, moved one ulp inward if it rounds onto
    an endpoint.  A bracket bisects when the secant point leaves it or an
    endpoint value is not finite, and stops on an exact 0 or once it is
    at most 4 ulp wide in each coordinate.  Returns the midpoints.
    """
    a, b = np.array(a), np.array(b)
    fa, fb = np.array(fa, dtype=np.float64), np.array(fb, dtype=np.float64)
    b = np.where(fa == 0.0, a, b)
    a = np.where(fb == 0.0, b, a)
    for _ in range(_ROOT_MAX_ROUNDS):
        wide = np.zeros(len(a), dtype=bool)
        for part in (np.real, np.imag):
            lo, hi = part(a), part(b)
            wide |= np.abs(hi - lo) > 4.0 * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
        live = np.nonzero(wide)[0]
        if len(live) == 0:
            break
        al, bl, fal, fbl = a[live], b[live], fa[live], fb[live]
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = fbl / (fbl - fal)
        x = bl + lam * (al - bl)
        # a secant point that rounds onto an endpoint moves one ulp inward
        x = np.where(x == bl, _ulp_toward(bl, al), np.where(x == al, _ulp_toward(al, bl), x))
        inside = np.isfinite(fal) & np.isfinite(fbl) & (lam > 0.0) & (lam < 1.0)
        x = np.where(inside, x, 0.5 * (al + bl))
        fx = np.asarray(func(x), dtype=np.float64)
        flip = (fx > 0.0) != (fbl > 0.0)  # the root lies between x and b
        a[live] = np.where(fx == 0.0, x, np.where(flip, bl, al))
        fa[live] = np.where(flip, fbl, 0.5 * fal)
        b[live], fb[live] = x, fx
    return 0.5 * (a + b)


# ----------------------------------------------------------------------
# marching squares
# ----------------------------------------------------------------------

# Edge ids number every edge of a window's grid in sorted order:
# horizontal edges row-major, then _SUB_EDGES ids per cell (row-major) for
# the edges of its 3x3 subdivision, then vertical edges row-major.  Within
# a cell's block, id 0..8 are its horizontal sub-edges and 9..17 its
# vertical ones, each row-major on the 3x3 lattice of the subdivision.
_SUB_EDGES = 18
# Grid points per trace band (at least one cell row), which bounds the
# band's temporaries: the window and the step alone fix the bands.
_BAND_POINTS = ELEMENT_BUDGET // 16


def _corners(sb: np.ndarray, row, col) -> np.ndarray:
    """Corner signs (bottom-left, bottom-right, top-left, top-right) of the
    cells at `row`, `col` of a sign lattice, stacked on a new last axis."""
    up, right = row + 1, col + 1
    return np.stack(
        (sb[..., row, col], sb[..., row, right], sb[..., up, col], sb[..., up, right]), axis=-1
    )


def _cell_edges(h_base, h_row, v_base, v_row, row, col) -> np.ndarray:
    """Ids of the (bottom, left, right, top) edges of the cells at `row`,
    `col` of a lattice whose horizontal edge (r, c) has id
    h_base + h_row * r + c and vertical edge (r, c) id v_base + v_row * r + c."""
    bottom = h_base + h_row * row + col
    left = v_base + v_row * row + col
    return np.stack((bottom, left, left + 1, bottom + h_row), axis=-1)


def _cell_segments(corners: np.ndarray, centre: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Marching-squares segments of cells as pairs of edge ids.

    Row k of `corners` holds cell k's corner signs (bottom-left,
    bottom-right, top-left, top-right), row k of `edges` the ids of its
    bottom, left, right and top edges, and centre[k] its sign at the
    centre, read at saddles only.  Four binary corners change sign an
    even number of times, so a cell is crossed 0, 2 or 4 times.  Two
    crossings make one segment, in bottom-left-right-top order; a saddle
    pairs (bottom, right) and (left, top) when its centre sign equals its
    bottom-left corner's, (bottom, left) and (top, right) otherwise.
    Returns an (m, 2) int array.
    """
    c00, c10, c01, c11 = corners.T
    crossed = np.stack((c00 != c10, c00 != c01, c10 != c11, c01 != c11), axis=1)
    saddle = crossed.all(axis=1)
    same = (centre == c00)[saddle, None]
    around = np.where(same, edges[saddle][:, [0, 2, 1, 3]], edges[saddle][:, [0, 1, 3, 2]])
    return np.concatenate((edges[crossed & ~saddle[:, None]], around.ravel())).reshape(-1, 2)


def _chain_segments(segments, vertex_of, excludes_line: bool) -> list[CurvePolyline]:
    """Join cell segments sharing refined edge vertices into polylines.

    An edge joins at most two segments, one per cell beside it, so the
    segments form paths and cycles.  Deterministic: segments arrive
    sorted, paths are walked first, each from its smaller end edge, then
    cycles, each from the first edge of its first segment.
    """
    adjacency: dict = {}
    for k, (ea, eb) in enumerate(segments):
        adjacency.setdefault(ea, []).append((k, eb))
        adjacency.setdefault(eb, []).append((k, ea))
    used = [False] * len(segments)
    chains = []
    ends = sorted(e for e, links in adjacency.items() if len(links) == 1)
    for start in ends + [ea for ea, _ in segments]:
        path = [start]
        while (step := next(((k, e) for k, e in adjacency[path[-1]] if not used[k]), None)):
            used[step[0]] = True
            path.append(step[1])
        if len(path) > 1:
            closed = path[-1] == start
            verts = (ComplexPoint.from_complex(vertex_of[e]) for e in path[: len(path) - closed])
            chains.append(CurvePolyline(len(chains), tuple(verts), closed, excludes_line))
    return chains


def _trace_band(sigmas: np.ndarray, ts_all: np.ndarray, row_lo: int, row_hi: int):
    """Segments and crossing edges for rows row_lo..row_hi of the grid on
    the axes `sigmas` and `ts_all`.

    Returns (segments, ids, a, b, fa, fb): an (m, 2) array of edge-id
    pairs, the sorted ids of the edges they join, and each edge's end
    points a, b and the values of h there; the caller refines the edges.
    Warns DegenerateCellWarning, naming the caller of `trace_unit_curve`,
    for every crossed cell that holds a zero or pole of X.
    """
    ts = ts_all[row_lo : row_hi + 1]
    n_col = len(sigmas) - 1
    sub_base = len(ts_all) * n_col
    v_base = sub_base + (len(ts_all) - 1) * n_col * _SUB_EDGES
    grid = sigmas[None, :] + 1j * ts[:, None]
    h = _h_at(grid.ravel()).reshape(grid.shape)
    sb = h > 0.0
    low = sb[:-1, :-1]  # bottom-left corners
    hot = (low != sb[:-1, 1:]) | (low != sb[1:, :-1]) | (low != sb[1:, 1:])  # crossed cells

    # degenerate cells: a zero or pole of X inside
    degenerate = np.zeros_like(hot)
    # the window's cell row at t = 0, if it falls in this band
    j = min(int(np.searchsorted(ts_all, 0.0, side="right")) - 1, len(ts_all) - 2) - row_lo
    if ts_all[0] <= 0.0 <= ts_all[-1] and 0 <= j < row_hi - row_lo:
        ints = np.arange(math.ceil(sigmas[0]), math.floor(sigmas[-1]) + 1.0) + 0j
        sing = ints[np.isinf(logabsx_many(ints))].real  # the poles and zeros of X
        degenerate[j, np.clip(np.searchsorted(sigmas, sing, side="right") - 1, 0, n_col - 1)] = True

    # subdivide crossed degenerate cells once, and flag them
    dj, di = np.nonzero(hot & degenerate)
    for s0, s1, t0, t1 in zip(sigmas[di], sigmas[di + 1], ts[dj], ts[dj + 1]):
        warnings.warn(
            f"grid cell [{s0:.6g},{s1:.6g}]x[{t0:.6g},{t1:.6g}] "
            "contains a zero or pole of the traced ratio",
            DegenerateCellWarning,
            stacklevel=3,
        )
    sub_s = np.stack((sigmas[di], 0.5 * (sigmas[di] + sigmas[di + 1]), sigmas[di + 1]), axis=-1)
    sub_t = np.stack((ts[dj], 0.5 * (ts[dj] + ts[dj + 1]), ts[dj + 1]), axis=-1)
    sub = sub_s[:, None, :] + 1j * sub_t[:, :, None]
    h_sub = _h_at(sub.ravel()).reshape(sub.shape)
    sub_cells = (dj + row_lo) * n_col + di
    sub_first = sub_base + _SUB_EDGES * sub_cells[:, None, None]
    rr, cc = np.mgrid[:2, :2]

    # every other crossed cell, with its centre sign where it is a saddle
    gj, gi = np.nonzero(hot & ~degenerate)
    corners = _corners(sb, gj, gi)
    c00, c10, c01, c11 = corners.T
    saddle = np.flatnonzero((c00 == c11) & (c10 == c01) & (c00 != c10))
    sj, si = gj[saddle], gi[saddle]
    centre = np.zeros(len(gj) + 4 * len(dj), dtype=bool)
    mids = 0.5 * (sigmas[si] + sigmas[si + 1]) + 0.5j * (ts[sj] + ts[sj + 1])
    centre[saddle] = _h_at(mids) > 0.0

    segments = _cell_segments(
        np.concatenate((corners, _corners(h_sub > 0.0, rr, cc).reshape(-1, 4))),
        centre,
        np.concatenate(
            (
                _cell_edges(0, n_col, v_base, n_col + 1, gj + row_lo, gi),
                _cell_edges(sub_first, 3, sub_first + 9, 3, rr, cc).reshape(-1, 4),
            )
        ),
    )

    # each used edge's end points, indexed into the band grid followed by
    # the subdivisions, from its id
    ids = np.sort(segments, axis=None)  # np.unique would import numpy.ma
    ids = ids[np.diff(ids, prepend=-1) > 0]
    horiz, vert = ids < sub_base, ids >= v_base
    a = np.where(horiz, ids + ids // n_col, ids - v_base) - row_lo * (n_col + 1)
    b = a + np.where(horiz, 1, n_col + 1)
    inner = ~(horiz | vert)
    cell, pos = np.divmod(ids[inner] - sub_base, _SUB_EDGES)
    a[inner] = grid.size + 9 * np.searchsorted(sub_cells, cell) + pos % 9
    b[inner] = a[inner] + np.where(pos < 9, 1, 3)
    pts = np.concatenate((grid.ravel(), sub.ravel()))
    vals = np.concatenate((h.ravel(), h_sub.ravel()))
    return segments, ids, pts[a], pts[b], vals[a], vals[b]


def trace_unit_curve(window, step: float):
    """Marching-squares extraction of the off-line part of |X| = 1.

    Classifies cells on the deflated field h = log|X| / (sigma - 1/2),
    using d(log|X|)/dsigma on the line itself, so the critical line --
    an exact component of the level set -- is removed analytically and
    only the bounded branches remain.  Each crossing edge is refined by
    bracketed false position to within 4 ulp, which puts every vertex v
    at |log|X(v)|| < 1e-10.  Cells containing a zero or pole of X are
    subdivided once and flagged with DegenerateCellWarning, raised in
    band order as each band is traced.  Every edge
    of the window's grid, and of each subdivision, has one integer id
    (see _SUB_EDGES), and segments are pairs of ids; every crossed cell
    of a band is classified in one array pass.

    Bands of at most _BAND_POINTS grid points own disjoint cell rows and
    hand back their crossing edges, so memory does not grow with the
    window; one lockstep `_bracket_roots` pass refines every band's
    edges, and chaining is one deterministic pass over the sorted
    segments.
    """
    win = _as_rect(window)
    if not 0.0 < step < math.inf:
        raise DomainError("step must be positive and finite")
    sigmas = _axis(win.sigma_min, win.sigma_max, step, snap_line=True)
    ts = _axis(win.t_min, win.t_max, step, snap_line=False)
    n_rows = len(ts) - 1
    rows = max(1, _BAND_POINTS // len(sigmas) - 1)  # cell rows per band
    # a loop: a comprehension's frame (before Python 3.12) would shift stacklevel 3
    parts = []
    for lo in range(0, n_rows, rows):
        parts.append(_trace_band(sigmas, ts, lo, min(lo + rows, n_rows)))
    segments, ids, a, b, fa, fb = (np.concatenate(p) for p in zip(*parts))
    # an edge on a band boundary comes from both bands, with the same ends
    first = np.argsort(ids, kind="stable")
    first = first[np.diff(ids[first], prepend=-1) > 0]
    # sign changes of h (+-inf at a zero or pole of X), pinned to 4 ulp
    vertices = _bracket_roots(_h_at, a[first], b[first], fa[first], fb[first])
    segments = segments[np.lexsort(segments.T[::-1])]
    vertex_of = dict(zip(ids[first].tolist(), vertices.tolist()))
    excludes = win.sigma_min <= 0.5 <= win.sigma_max
    return _chain_segments(segments.tolist(), vertex_of, excludes)


# ----------------------------------------------------------------------
# kappa
# ----------------------------------------------------------------------


@cache
def _kappa_root() -> float:
    """Root of d(log|X|)/dsigma on the line, t > 0, by `_bracket_roots`."""
    ends = np.array([0.0, 2.0])
    g = dsigma_logabsx(0.5 + 1j * ends)
    if not (g[0] > 0.0 > g[1]):
        raise ConvergenceError("no sign change in the strip-crossing bracket (0, 2)")
    root = _bracket_roots(
        lambda t: dsigma_logabsx(0.5 + 1j * t), ends[:1], ends[1:], g[:1], g[1:]
    )
    return float(root[0])


def _parabola_vertex(x: np.ndarray, t: np.ndarray) -> tuple[float, float]:
    """Vertex (x, t) of the least-squares parabola t(x) through the points.

    The parabola comes from the polynomials p0 = 1, p1 = x - a1 and
    p2 = (x - a2) p1 - b1, orthogonal over the points by Forsythe's
    three-term recurrence (J. SIAM 5, 1957): a(j+1) = <x pj, pj> / <pj, pj>,
    b1 = <p1, p1> / <p0, p0>, and t = sum_j cj pj with cj = <t, pj> / <pj, pj>.
    Every inner product is an elementwise product and a sum, so no BLAS or
    LAPACK routine (nor the library pages it would fault in) is touched.
    The vertex is read from the monomial coefficients the recurrence
    expands to.  ConvergenceError unless the parabola opens downward.
    """
    a1 = np.sum(x) / len(x)
    p1 = x - a1
    n1 = np.sum(p1 * p1)
    a2 = np.sum(x * p1 * p1) / n1
    b1 = n1 / len(x)
    p2 = (x - a2) * p1 - b1
    c0, c1, c2 = np.sum(t) / len(x), np.sum(t * p1) / n1, np.sum(t * p2) / np.sum(p2 * p2)
    # c0 + c1 p1 + c2 p2 = c2 x^2 + (c1 - c2 (a1 + a2)) x + c0 - c1 a1 + c2 (a1 a2 - b1)
    coef = (c2, c1 - c2 * (a1 + a2), c0 - c1 * a1 + c2 * (a1 * a2 - b1))
    if not coef[0] < 0.0:
        raise ConvergenceError("apex fit did not produce a downward parabola")
    x_star = -coef[1] / (2.0 * coef[0])
    return float(x_star), float(np.polyval(coef, x_star))


def _apex_fit(apex: ComplexPoint, step: float) -> float:
    """Height of the vertex of a parabola t(sigma) fitted through the level
    curve's vertices within 0.06 of the apex, traced at `step` in a window
    around it (`_parabola_vertex`, in sigma - apex.sigma)."""
    zoom = Rect(
        max(0.0, apex.sigma - 0.08),
        min(1.0, apex.sigma + 0.08),
        apex.t - 0.003,
        apex.t + 0.0015,
    )
    polys = trace_unit_curve(zoom, step)
    pts = np.array(
        [
            (v.sigma, v.t)
            for p in polys
            for v in p.vertices
            if abs(v.sigma - apex.sigma) <= 0.06
        ]
    )
    if len(pts) < 12:
        raise ConvergenceError("too few apex vertices for the parabola fit")
    return _parabola_vertex(pts[:, 0] - apex.sigma, pts[:, 1])[1]


def kappa_detail() -> KappaResult:
    """The strip height bound by two independent methods.

    Primary: trace the level curve in the strip, zoom on the apex, and
    take the vertex of a parabola fitted through the apex vertices (no
    symmetry assumption).  Cross-check: the root of d(log|X|)/dsigma on
    the line.  The two must agree to about 1e-6; the apex is extremely
    flat, so the fit rather than a raw vertex maximum supplies the
    trace value.

    The two trace steps are sized to what each stage feeds:

    - The coarse trace (step 0.02, about 2 000 grid points) only finds the
      apex, the highest vertex.  It sits on the snapped sigma = 1/2 column,
      at the root of d(log|X|)/dsigma, whatever the step.
    - The zoom trace (step 5e-4, about 240 fitted vertices) feeds the
      parabola, and the fit's gap to the root comes from the parabola
      model, not from the sampling density:

        zoom step   fit points   agreement
        1e-4        1202         1.8779e-8
        5e-4        240          1.8785e-8
        1e-3        120          1.8793e-8
        2e-3        60           1.8824e-8
    """
    root = _kappa_root()
    polys = trace_unit_curve(Rect(0.0, 1.0, 0.8, 1.6), 0.02)
    verts = [v for p in polys for v in p.vertices]
    if not verts:
        raise ConvergenceError("no level-curve vertices found in the strip")
    apex = max(verts, key=lambda v: v.t)
    return KappaResult(trace_value=_apex_fit(apex, 5e-4), root_value=root)


def kappa() -> float:
    """The height bound of the off-line |X| = 1 branch in the strip."""
    return kappa_detail().trace_value


# ----------------------------------------------------------------------
# winding counts
# ----------------------------------------------------------------------


_EDGE_CAP = 4096
_PHASE_ROUNDS = 24


def _phase_changes(points, values, row) -> np.ndarray:
    """Phase change of f along every sampled polyline of one flat array.

    `points` holds the samples of every path in order, path after path,
    `values` the f values there and `row` the path number of each sample
    (0, 1, ... in order; paths may differ in length).  A round takes the
    phase steps between consecutive samples of one path; if any is pi/2
    or more, one f_batch call evaluates f at the midpoints of all such
    steps and one np.insert adds them, for up to _PHASE_ROUNDS rounds.
    Returns the summed steps of each path.  Raises BoundaryZeroError when
    a sample comes within the boundary guard of a zero and
    UndersampledError when a path outgrows _EDGE_CAP samples or a step
    is still pi/2 or more after the last round.
    """
    for done in range(_PHASE_ROUNDS + 1):
        inside = row[1:] == row[:-1]
        dphi = np.angle(values[1:] / values[:-1])
        bad = np.flatnonzero(inside & (np.abs(dphi) >= 0.5 * math.pi))
        if len(bad) == 0:
            return np.bincount(row[1:][inside], weights=dphi[inside], minlength=row[-1] + 1)
        if done == _PHASE_ROUNDS:
            raise UndersampledError("phase refinement did not settle within its budget")
        count = np.bincount(row)
        over = np.flatnonzero(count + np.bincount(row[bad], minlength=len(count)) > _EDGE_CAP)
        if len(over):
            raise UndersampledError(
                f"phase steps unresolved with {count[over[0]]} boundary samples"
            )
        mids = 0.5 * (points[bad] + points[bad + 1])
        mvals, _ = f_batch(mids)
        if np.abs(mvals).min() < _BOUNDARY_GUARD:
            raise BoundaryZeroError(f"a zero sits within {_BOUNDARY_GUARD} of a sampled boundary")
        points, values, row = (
            np.insert(a, bad + 1, m) for a, m in ((points, mids), (values, mvals), (row, row[bad]))
        )


def _grid_counts(s_cuts, t_cuts, samples: int) -> np.ndarray:
    """Winding counts of every cell of the grid s_cuts x t_cuts.

    Every edge of the grid is sampled once, with `samples` steps in one
    canonical direction (horizontal edges toward larger sigma, vertical
    ones toward larger t), and all samples go through one f_batch call.
    Each edge's phase change comes from _phase_changes, and a cell adds
    its bottom and right edges and subtracts its top and left ones, so
    neighbouring cells reuse a shared edge in reverse.  Returns an int
    array of shape (rows, columns), row j spanning t_cuts[j..j+1].
    Raises BoundaryZeroError when a sample comes within the boundary
    guard of a zero.
    """
    s_cuts = np.asarray(s_cuts, dtype=np.float64)
    t_cuts = np.asarray(t_cuts, dtype=np.float64)
    n_col, n_row = len(s_cuts) - 1, len(t_cuts) - 1
    lam = np.arange(samples) / samples
    # one line of sigmas across the grid, corners included exactly once
    line = np.append((s_cuts[:-1, None] + np.diff(s_cuts)[:, None] * lam).ravel(), s_cuts[-1])
    rise = (t_cuts[:-1, None] + np.diff(t_cuts)[:, None] * lam)[:, 1:]
    h_pts = line[None, :] + 1j * t_cuts[:, None]
    v_pts = s_cuts[None, :, None] + 1j * rise[:, None, :]
    vals, _ = f_batch(np.concatenate((h_pts.ravel(), v_pts.ravel())))
    if np.abs(vals).min() < _BOUNDARY_GUARD:
        raise BoundaryZeroError(
            f"a zero sits within {_BOUNDARY_GUARD} of a cell boundary "
            f"in t [{t_cuts[0]}, {t_cuts[-1]}]"
        )
    h_vals = vals[: h_pts.size].reshape(h_pts.shape)
    v_vals = vals[h_pts.size :].reshape(v_pts.shape)

    flat = []  # points, then values: each edge's samples in turn, horizontal edges first
    for h, v in ((h_pts, v_pts), (h_vals, v_vals)):
        across = sliding_window_view(h, samples + 1, axis=1)[:, ::samples]
        corner = h[:, ::samples, None]
        up = np.concatenate((corner[:-1], v, corner[1:]), axis=2)
        flat.append(np.concatenate((across.ravel(), up.ravel())))
    edge = np.arange(len(flat[0]) // (samples + 1)).repeat(samples + 1)
    phases = _phase_changes(*flat, edge)
    horiz = phases[: (n_row + 1) * n_col].reshape(n_row + 1, n_col)
    vert = phases[(n_row + 1) * n_col :].reshape(n_row, n_col + 1)
    total = horiz[:-1] + vert[:, 1:] - horiz[1:] - vert[:, :-1]
    return np.rint(total / (2.0 * math.pi)).astype(int)


def count_zeros_rect(rect, samples_per_side: int, max_retries: int = 3) -> int:
    """Number of zeros inside a rectangle by boundary winding.

    The rectangle is a one-cell grid for `_grid_counts`: each side is
    sampled `samples_per_side` times and its phase is tracked with
    adaptive bisection until every step is below pi/2; the winding
    number then counts interior zeros exactly (the function is entire).
    If a boundary sample comes within 1e-8 of a zero the rectangle is
    inflated by half a sample step and retried, up to `max_retries`
    times, before BoundaryZeroError is raised.
    """
    r = _as_rect(rect)
    if samples_per_side < 4:
        raise DomainError("samples_per_side must be at least 4")
    pad_unit = 0.5 * min(r.width, r.height) / samples_per_side
    for attempt in range(max_retries + 1):
        pad = attempt * pad_unit
        s_cuts = (r.sigma_min - pad, r.sigma_max + pad)
        t_cuts = (r.t_min - pad, r.t_max + pad)
        try:
            return int(_grid_counts(s_cuts, t_cuts, samples_per_side)[0, 0])
        except BoundaryZeroError:
            continue
    raise BoundaryZeroError(
        f"a zero sits within {_BOUNDARY_GUARD} of the boundary of {r} after retries"
    )


# ----------------------------------------------------------------------
# refinement
# ----------------------------------------------------------------------

# Newton stops once |f| < _NEWTON_TOL and gives up after _NEWTON_MAX_ITER steps;
# `refine_zero` stops it once an iterate leaves the disk of radius
# _TRUST_RADIUS around its seed, and `_localize` uses at least that radius.
_NEWTON_TOL = 1e-10
_NEWTON_MAX_ITER = 40
_TRUST_RADIUS = 0.5


def _line_polish(t_seeds: np.ndarray) -> np.ndarray:
    """Pin line zeros' heights by sign changes of the rotated real form.

    Brackets of growing half-width around every seed are tried in
    lockstep, both ends of every open bracket in one z_function call per
    round, until Z changes sign; one `_bracket_roots` call pins them all.
    NaN where no bracket up to 1e-3 changes sign.
    """
    delta = 1e-8 * np.maximum(1.0, np.abs(t_seeds))
    ends, z_ends = np.empty((2, len(t_seeds))), np.empty((2, len(t_seeds)))
    found = np.zeros(len(t_seeds), dtype=bool)
    tried = np.flatnonzero(delta <= 1e-3)
    while len(tried):
        ends[:, tried] = t_seeds[tried] - delta[tried], t_seeds[tried] + delta[tried]
        z_ends[:, tried] = z_function(ends[:, tried].ravel()).reshape(2, -1)
        za, zb = z_ends[:, tried]
        found[tried] = (za == 0.0) | (zb == 0.0) | ((za > 0.0) != (zb > 0.0))
        delta[tried] *= 4.0
        tried = tried[~found[tried] & (delta[tried] <= 1e-3)]
    out = np.full(len(t_seeds), np.nan)
    out[found] = _bracket_roots(z_function, *ends[:, found], *z_ends[:, found])
    return out


def _finish_records(locs, iterations) -> list[ZeroRecord]:
    """Records of refined zeros, from one f_batch call over the locations
    and their mirrors and one logabsx_many call."""
    locs = np.asarray(locs, dtype=np.complex128)
    vals, _ = f_batch(np.concatenate((locs, 1.0 - locs)))
    abs_x = np.exp(logabsx_many(locs))
    kap = _kappa_root()
    return [
        ZeroRecord(
            location=loc,
            residual=float(abs(vals[k])),
            iterations=int(iterations[k]),
            paired_location=loc.mirror(),
            paired_residual=float(abs(vals[len(locs) + k])),
            abs_x_here=float(abs_x[k]),
            on_line=abs(loc.sigma - 0.5) < LINE_TOL,
            within_kappa=abs(loc.t) < kap,
        )
        for k, loc in enumerate(map(ComplexPoint.from_complex, locs))
    ]


def _refine_many(seeds: np.ndarray, trust_radii: np.ndarray):
    """`refine_zero` for every seed at once: each Newton round is one
    evaluation pass over the live iterates (f and f' together, with `f`'s
    AccuracyWarning per point), and one `_line_polish` call re-polishes
    every result within LINE_TOL of the line.  Returns (locations,
    iterations, errors), errors[k] None or the error of seed k.
    """
    s = seeds.astype(np.complex128)
    iterations = np.zeros(len(s), dtype=int)
    errors: list[Exception | None] = [None] * len(s)
    live = np.arange(len(s))
    for _ in range(_NEWTON_MAX_ITER):
        if not len(live):
            break
        fv, fp, _ = _evaluate(s[live], True, warn=True)
        step = ~(np.abs(fv) < _NEWTON_TOL)
        for k in live[step & (fp == 0)]:
            errors[k] = ConvergenceError(f"derivative vanished at {complex(s[k])}")
        step &= fp != 0
        live = live[step]
        s[live] -= fv[step] / fp[step]
        iterations[live] += 1
        gone = np.abs(s[live] - seeds[live]) > trust_radii[live]
        for k in live[gone]:
            errors[k] = DivergedError(
                f"iterate {complex(s[k])} left the trust disk of radius "
                f"{trust_radii[k]} around {complex(seeds[k])}"
            )
        live = live[~gone]
    for k, v in zip(live, _evaluate(s[live], False, warn=True)[0]):  # budget spent
        if not abs(v) < _NEWTON_TOL:
            errors[k] = ConvergenceError(
                f"|f| = {abs(v):.3g} after {iterations[k]} iterations, above {_NEWTON_TOL}"
            )
    ok = np.array([e is None for e in errors], dtype=bool)
    near = np.flatnonzero(ok & (np.abs(s.real - 0.5) < LINE_TOL))
    t_star = _line_polish(s.imag[near])
    s[near[np.isfinite(t_star)]] = 0.5 + 1j * t_star[np.isfinite(t_star)]
    return s, iterations, errors


def refine_zero(seed) -> ZeroRecord:
    """Newton refinement of a zero from a seed point.

    Iterates s -> s - f(s)/f'(s), both from one evaluation pass (with
    `f`'s AccuracyWarning), until |f| < 1e-10, raising DivergedError if
    an iterate leaves the trust disk of radius 0.5 around the seed and
    ConvergenceError if the budget of 40 steps runs out.  A result that
    lands within 1e-6 of the critical line is re-polished along the line
    itself (sign change of the rotated real form, pinned by
    `_bracket_roots`), so line zeros carry sigma = 1/2 exactly.  This is
    the one-seed case of the lockstep refinement that surveys run.
    """
    s0 = seed.z if isinstance(seed, ComplexPoint) else complex(seed)
    if not (math.isfinite(s0.real) and math.isfinite(s0.imag)):
        raise DomainError("seed must be finite")
    locs, iterations, errors = _refine_many(np.array([s0]), np.array([_TRUST_RADIUS]))
    if errors[0] is not None:
        raise errors[0]
    return _finish_records(locs, iterations)[0]


# ----------------------------------------------------------------------
# critical-line scan
# ----------------------------------------------------------------------


def _sign_change_roots(ts, zv):
    """Sign changes of Z sampled as zv at the heights ts: the indices i
    where Z changes sign between ts[i] and ts[i + 1], and their roots,
    all pinned together by `_bracket_roots`."""
    flip = np.flatnonzero(zv[:-1] * zv[1:] < 0.0)
    return flip, _bracket_roots(z_function, ts[flip], ts[flip + 1], zv[flip], zv[flip + 1])


def scan_critical_line(t0: float, t1: float, step: float) -> list[ZeroRecord]:
    """Line zeros from sign changes of the rotated real form.

    Z is sampled on a grid of spacing `step`; grid points where Z is 0
    are roots, and all sign changes are pinned together by
    `_bracket_roots`.  Each root becomes a record at sigma = 1/2 exactly
    (0 Newton iterations).  Zeros closer together than the grid spacing
    can be missed; halve the step to confirm stability of the record
    set.  Z goes in fixed blocks, so memory grows only with the grid.
    """
    if not all(math.isfinite(v) for v in (t0, t1, step)):
        raise DomainError("t0, t1 and step must be finite")
    if not (t0 < t1 and step > 0.0):
        raise DomainError("need t0 < t1 and a positive step")
    ts = _axis(t0, t1, step, snap_line=False)
    zv = z_function(ts)
    _, pinned = _sign_change_roots(ts, zv)
    roots = sorted(np.concatenate((ts[zv == 0.0], pinned)).tolist())

    kept: list[float] = []
    for t_root in roots:
        if not (kept and abs(t_root - kept[-1]) < 1e-9):
            kept.append(t_root)
    return _finish_records(0.5 + 1j * np.array(kept), np.zeros(len(kept), dtype=int))


# ----------------------------------------------------------------------
# exhaustive survey
# ----------------------------------------------------------------------

_T_OFFSETS = (0.0, 0.04, 0.09, 0.13)
_SPLIT_FRACTIONS = (0.5, 0.53, 0.47, 0.59)
_SURVEY_SAMPLES = 12
_BAND_ROWS = 8
_CELL_SIZE = 0.25
# Steps along each path 3/2 + it -> 1/2 + it of the exact strip count.
_COUNT_SAMPLES = 16
# Spacing of the Z samples that find a band's line roots.
_LINE_STEP = 0.1
# f has no zeros right of this abscissa (sum_{n>=2} |a(n)| n^-3/2 = 0.737
# < 1), and by the functional equation none left of 1 - _ZERO_FREE_SIGMA
# off the real axis.
_ZERO_FREE_SIGMA = 1.5


def _strip_counts(heights) -> np.ndarray:
    """Zeros of f in -1/2 < sigma < 3/2 between consecutive heights.

    Backlund's count (Edwards, Riemann's Zeta Function, 1974, ch. 6): f
    is real on the real axis and f(s) = X(s) f(1 - s), so the winding of
    f around [-1/2, 3/2] x [t0, t1] is twice its phase change along the
    right half, less the phase of X on the line.  With A(t) the change of
    arg f along 3/2 + it -> 1/2 + it and theta(t) = arg X(1/2 + it), the
    count is

        [arg f(3/2 + it1) - arg f(3/2 + it0) + A(t1) - A(t0)
         - (theta(t1) - theta(t0)) / 2] / pi.

    Re f > 0 on sigma = 3/2, so principal arguments give the first
    difference; one f_batch call samples every path with _COUNT_SAMPLES
    steps and `_phase_changes` tracks them.  Returns the unrounded counts,
    one per pair of consecutive heights.  Raises BoundaryZeroError when a
    path comes within the boundary guard of a zero and UndersampledError
    when a count is more than 1e-6 from an integer.
    """
    h = np.asarray(heights, dtype=np.float64)
    lam = np.arange(_COUNT_SAMPLES + 1) / _COUNT_SAMPLES
    points = (_ZERO_FREE_SIGMA - lam * (_ZERO_FREE_SIGMA - 0.5) + 1j * h[:, None]).ravel()
    values, _ = f_batch(points)
    if np.abs(values).min() < _BOUNDARY_GUARD:
        raise BoundaryZeroError(f"a zero sits within {_BOUNDARY_GUARD} of a count path")
    along = _phase_changes(points, values, np.arange(len(h)).repeat(_COUNT_SAMPLES + 1))
    right = np.angle(values[:: _COUNT_SAMPLES + 1])
    _, theta = _log_x(0.5 + 1j * h, True)
    counts = (np.diff(right) + np.diff(along) - 0.5 * np.diff(theta)) / math.pi
    off = np.abs(counts - np.rint(counts))
    if off.max(initial=0.0) > 1e-6:
        k = int(np.argmax(off))
        raise UndersampledError(
            f"the zero count on ({h[k]}, {h[k + 1]}] is {counts[k]:.9g}, not an integer"
        )
    return counts


def _line_samples(lo: float, hi: float, shift: float) -> np.ndarray:
    """lo and the heights lo + shift + k _LINE_STEP strictly inside (lo, hi)."""
    inner = lo + shift + _LINE_STEP * np.arange(max(0, math.ceil((hi - lo - shift) / _LINE_STEP)))
    return np.concatenate(([lo], inner[(inner > lo) & (inner < hi)]))


def _line_roots(bands, expected, shift: float) -> list:
    """Each band's line zeros, or None where they fall short of its count.

    Z is sampled every _LINE_STEP along every band, from `shift` above
    its bottom, in one z_function call over all bands in a row, and
    `_sign_change_roots` pins every sign change, as in
    `scan_critical_line`.  A band whose sign changes number exactly its
    `expected` zeros has them all on the line.  Raises BoundaryZeroError
    when a sample comes within the boundary guard of a zero.
    """
    parts = [_line_samples(tc[0], tc[-1], shift) for tc in bands]
    ts = np.concatenate(parts + [[bands[-1][-1]]])
    zv = z_function(ts)
    if np.abs(zv).min() < _BOUNDARY_GUARD:
        raise BoundaryZeroError(f"a zero sits within {_BOUNDARY_GUARD} of a line sample")
    flips, pinned = _sign_change_roots(ts, zv)
    owner = np.repeat(np.arange(len(bands)), [len(p) for p in parts])[flips]
    per_band = np.split(pinned, np.searchsorted(owner, np.arange(1, len(bands))))
    return [p.tolist() if len(p) == n else None for p, n in zip(per_band, expected)]


def _grid_band(s_cuts, t_cuts, expected):
    """Winding counts of one band's cells (`_grid_counts`), checked
    against the band's exact count where `expected` is given.

    `expected` is given for windows symmetric about 1/2 that end left of
    sigma = 3/2.  Zeros pair up across the line, s with 1 - conj(s), so
    a total short of it must be twice the zeros of the strip
    [sigma_max, 3/2] x [t0, t1]; anything else raises ConvergenceError:
    the grid lost or gained a phase wrap.
    """
    counts = _grid_counts(s_cuts, t_cuts, _SURVEY_SAMPLES)
    if expected is not None and counts.sum() != expected:
        outside = _grid_counts(
            (s_cuts[-1], _ZERO_FREE_SIGMA), (t_cuts[0], t_cuts[-1]), _SURVEY_SAMPLES
        )
        if expected - counts.sum() != 2 * outside.sum():
            raise ConvergenceError(
                f"the cells of t [{t_cuts[0]}, {t_cuts[-1]}] wind {counts.sum()} times, "
                f"the strip holds {expected} zeros and {2 * outside.sum()} of them "
                "lie outside the window"
            )
    return counts


def _tiling(rect: Rect, cell_size: float, t_offset: float):
    """Cuts (s_cuts, t_cuts) tiling a rectangle with cells of roughly
    `cell_size`, keeping the interior sigma-cuts off the critical line and
    the trivial zeros and shifting the t-cuts by the retry offset."""
    _refuse_long_axis(max(rect.width, rect.height) / cell_size, f"cells of side {cell_size:g}")
    s_cuts = [rect.sigma_min]
    n_s = max(1, int(round(rect.width / cell_size)))
    for k in range(1, n_s):
        cut = rect.sigma_min + rect.width * k / n_s
        # a sigma-cut on the line or on a trivial zero -1, -3, ... would
        # put zeros on a cell boundary at every offset: retries move t-cuts only
        odd = 2.0 * round(0.5 * (cut - 1.0)) + 1.0
        if abs(cut - 0.5) < 0.02 or (odd < 0.0 and abs(cut - odd) < 0.02):
            cut += 0.02
        s_cuts.append(cut)
    s_cuts.append(rect.sigma_max)

    t_cuts = [rect.t_min]
    pos = rect.t_min + cell_size + t_offset
    while pos < rect.t_max - 0.25 * cell_size:
        t_cuts.append(pos)
        pos += cell_size
    t_cuts.append(rect.t_max)
    return s_cuts, t_cuts


def _localize(cells) -> list[ZeroRecord]:
    """Records of the zeros of every (cell, count) pair, found in rounds.

    Each round refines the centres of all count-1 cells in one lockstep
    batch and keeps a result that lands inside its cell (1e-7 slack);
    every other cell is split 2x2 at the first of _SPLIT_FRACTIONS whose
    winding counts add up, and its nonzero parts make the next round,
    down to depth 16.  The batches depend on the cells alone, and one
    call finishes every record.
    """
    pending = [(cell, count, 0) for cell, count in cells if count]
    locs, iterations = [], []
    while pending:
        ones = [cell for cell, count, _ in pending if count == 1]
        seeds = [
            complex(0.5 * (c.sigma_min + c.sigma_max), 0.5 * (c.t_min + c.t_max)) for c in ones
        ]
        radii = [max(_TRUST_RADIUS, c.width + c.height) for c in ones]
        refined = iter(zip(*_refine_many(np.array(seeds), np.array(radii))))
        parts = []
        for cell, count, depth in pending:
            if count == 1:
                loc, its, error = next(refined)
                if error is None and cell.contains(loc, slack=1e-7):
                    locs.append(loc)
                    iterations.append(its)
                    continue
            if depth >= 16:
                raise ConvergenceError(f"zero localization stalled inside {cell}")
            for frac in _SPLIT_FRACTIONS:
                s_cuts = (cell.sigma_min, cell.sigma_min + frac * cell.width, cell.sigma_max)
                t_cuts = (cell.t_min, cell.t_min + frac * cell.height, cell.t_max)
                try:
                    counts = _grid_counts(s_cuts, t_cuts, _SURVEY_SAMPLES)
                except BoundaryZeroError:
                    continue
                if counts.sum() == count:
                    break
            else:
                raise ConvergenceError(f"could not split {cell} cleanly around its zeros")
            parts.extend(
                (Rect(s_cuts[i], s_cuts[i + 1], t_cuts[j], t_cuts[j + 1]), int(c), depth + 1)
                for (j, i), c in np.ndenumerate(counts)
                if c
            )
        pending = parts
    return _finish_records(locs, iterations)


def _by_height(records: list[ZeroRecord]) -> list[ZeroRecord]:
    """Records sorted by t, runs of t that agree within 1e-9 max(1, |t|)
    sorted by sigma: the members of an off-line pair take their t from
    separate Newton runs, which differ in the last bits."""
    runs: list[list[ZeroRecord]] = []
    for rec in sorted(records, key=lambda r: r.location.t):
        t = rec.location.t
        if not runs or t - runs[-1][-1].location.t > 1e-9 * max(1.0, abs(t)):
            runs.append([])
        runs[-1].append(rec)
    return [rec for run in runs for rec in sorted(run, key=lambda r: r.location.sigma)]


def survey_zeros(rect) -> list[ZeroRecord]:
    """Every zero in a rectangle: count, then line, then grid.

    The rectangle is tiled into cells of side about _CELL_SIZE, grouped
    into bands of _BAND_ROWS cell rows; the layout depends on the
    rectangle alone.  Where sigma = 1/2 lies inside the rectangle:

      1. count: `_strip_counts` gives every band the exact number of
         zeros with -1/2 < sigma < 3/2 (one f_batch over the band
         boundaries);
      2. line: `_line_roots` samples Z along every band; a band whose
         sign changes match its count has all its zeros on the line, and
         those roots, pinned to 4 ulp, are its records (sigma = 1/2
         exactly, 0 iterations);
      3. grid: every other band -- one with off-line zeros, a close pair
         the samples missed, one that reaches a trivial zero -1, -3, ...
         (the count leaves them out), or any band of a rectangle off the
         line --
         gets its cells' winding counts from `_grid_counts`, sampling
         every cell edge once in one f_batch call.  In a rectangle
         symmetric about 1/2 that ends left of 3/2, a grid band's total
         must equal its count less twice the zeros of the strip right of
         the rectangle, or ConvergenceError is raised (`_grid_band`).

    The zeros of all nonzero grid cells are then localized together in
    rounds (`_localize`): each round refines every count-1 cell in one
    lockstep Newton batch and splits the rest (left-bottom first), so the
    batches depend on the rectangle alone.  If a count path, a line
    sample or a cell boundary passes too close to a zero, or if the 1e-6
    dedupe of the refined records leaves fewer zeros than were counted
    (two cells' Newton runs landed on one zero), the whole t-partition is
    shifted and the survey retried, so a survey never double-counts and
    never returns short.  The records are sorted by t, then sigma where t
    agrees to 1e-9 relative.
    """
    r = _as_rect(rect)
    has_line = r.sigma_min < 0.5 < r.sigma_max
    checked = abs(r.sigma_min + r.sigma_max - 1.0) < 1e-12 and r.sigma_max < _ZERO_FREE_SIGMA
    last_error: Exception | None = None
    for offset in _T_OFFSETS:
        s_cuts, t_cuts = _tiling(r, _CELL_SIZE, offset)
        bands = [t_cuts[lo : lo + _BAND_ROWS + 1] for lo in range(0, len(t_cuts) - 1, _BAND_ROWS)]
        try:
            expected = [None] * len(bands)
            roots = [None] * len(bands)
            if has_line:
                heights = [tc[0] for tc in bands] + [t_cuts[-1]]
                expected = np.rint(_strip_counts(heights)).astype(int).tolist()
                roots = _line_roots(bands, expected, offset)
                if r.sigma_min <= -1.0:
                    # the count leaves out the trivial zeros -1, -3, ...
                    roots = [
                        None if tc[0] <= 0.0 <= tc[-1] else found
                        for tc, found in zip(bands, roots)
                    ]
            grid = [k for k, found in enumerate(roots) if found is None]
            counted = [
                _grid_band(s_cuts, bands[k], expected[k] if checked else None) for k in grid
            ]
        except BoundaryZeroError as exc:
            last_error = exc
            continue
        cells = [
            (Rect(s_cuts[i], s_cuts[i + 1], bands[k][j], bands[k][j + 1]), int(c))
            for k, counts in zip(grid, counted)
            for (j, i), c in np.ndenumerate(counts)
        ]
        line_ts = [t for found in roots if found is not None for t in found]
        total = sum(count for _, count in cells) + len(line_ts)
        records = _localize(cells) + _finish_records(
            0.5 + 1j * np.array(line_ts), np.zeros(len(line_ts), dtype=int)
        )
        if total != len(records):
            raise ConvergenceError(
                f"winding counted {total} zeros but {len(records)} were refined"
            )
        deduped: list[ZeroRecord] = []
        for rec in _by_height(records):
            if deduped and abs(rec.location.z - deduped[-1].location.z) < 1e-6:
                continue
            deduped.append(rec)
        if len(deduped) == total:
            return deduped
        last_error = ConvergenceError(
            f"winding counted {total} zeros but only {len(deduped)} distinct ones "
            f"were refined at tiling offset {offset}"
        )
    if isinstance(last_error, ConvergenceError):
        raise ConvergenceError(
            f"no tiling offset of {r} refined every counted zero"
        ) from last_error
    raise BoundaryZeroError(
        f"every tiling offset left a zero on a cell boundary of {r}"
    ) from last_error


# ----------------------------------------------------------------------
# audits
# ----------------------------------------------------------------------


def limit_probe(zero: ZeroRecord, direction: str, radii) -> list[tuple[float, float]]:
    """|X| = sqrt(P/Q) along a ray approaching a refined zero.

    direction "along_t" probes sigma_n + i(t_n + r); "along_sigma"
    probes (sigma_n + r) + i t_n.  Returns (radius, abs_x) pairs so
    the limiting behavior is observable next to the direct evaluation
    of |X| at the zero itself.
    """
    if direction not in ("along_t", "along_sigma"):
        raise DomainError(f"direction must be along_t or along_sigma, got {direction!r}")
    if not zero.residual < 1e-8:
        raise DomainError("limit_probe needs a refined zero (residual < 1e-8)")
    radii = [float(r) for r in radii]
    if not radii or any(r <= 0.0 for r in radii):
        raise DomainError("radii must be positive")
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise DomainError("radii must decrease strictly")

    r = np.array(radii)
    if direction == "along_t":
        p, q = pq(zero.location.sigma, zero.location.t + r)
    else:
        p, q = pq(zero.location.sigma + r, zero.location.t)
    return list(zip(radii, np.sqrt(np.abs(p) / np.abs(q)).tolist()))


def _zero_tag(rec: ZeroRecord) -> str:
    return f"zero at {rec.location.sigma:.12g}+{rec.location.t:.12g}i"


def _abs_difference(zs: list[ZeroRecord]) -> list[float]:
    """|f(s) - f(1 - s)| at every zero; the records keep only the moduli."""
    vals, _ = f_batch(np.array([z.location.z for z in zs] + [z.paired_location.z for z in zs]))
    diff = vals[: len(zs)] - vals[len(zs) :]
    return np.hypot(diff.real, diff.imag).tolist()  # hypot: the abs of a complex scalar


# Evidence metrics of refined zeros zs given kappa, one value per zero.  Like the
# evidence functions below, they reach the library through module globals at
# call time, so a wrapper swapped into a module binding sees every call.
_ZERO_METRICS = {
    "abs_f": lambda zs, kap: [z.residual for z in zs],
    "abs_f_paired": lambda zs, kap: [z.paired_residual for z in zs],
    "abs_x": lambda zs, kap: [z.abs_x_here for z in zs],
    "abs_x_minus_1": lambda zs, kap: [abs(z.abs_x_here - 1.0) for z in zs],
    "t": lambda zs, kap: [z.location.t for z in zs],
    "kappa": lambda zs, kap: [kap] * len(zs),
    "t_over_kappa": lambda zs, kap: [z.location.t / kap for z in zs],
    "within_kappa": lambda zs, kap: [z.within_kappa for z in zs],
    "dlogabsx_dt": lambda zs, kap: dlogabsx_dt(np.array([z.location.z for z in zs])).tolist(),
    "abs_difference": lambda zs, kap: _abs_difference(zs),
}


def _rows(inputs: list[str], columns: dict) -> list[dict]:
    """One evidence entry per input, holding its value from every column."""
    rows = zip(*columns.values())
    return [{"input": i, **dict(zip(columns, row))} for i, row in zip(inputs, rows)]


def _zero_metrics(*names):
    """Evidence function: one entry per zero with the named _ZERO_METRICS."""
    return lambda zs, kap: _rows(
        [_zero_tag(z) for z in zs], {n: _ZERO_METRICS[n](zs, kap) for n in names}
    )


def _gamma_rays(rays: list[complex], kap: float) -> list[dict]:
    s = np.array(rays)
    upper, lower = (np.exp(log_abs_gamma(arg)).tolist() for arg in _gamma_args(s))
    columns = {
        "gamma_upper_modulus": upper,
        "gamma_lower_modulus": lower,
        "dgamma_upper_dt": gamma_modulus_dt(s, "upper").tolist(),
        "dgamma_lower_dt": gamma_modulus_dt(s, "lower").tolist(),
        "log_abs_x": logabsx_many(s).tolist(),
    }
    return _rows([f"sigma={z.real:g}, t={z.imag:g}" for z in rays], columns)


_PROBE_RADII = [10.0 ** (-k) for k in range(1, 7)]


def _appendix_a(direction: str, zs: list[ZeroRecord], kap: float) -> list[dict]:
    return [
        {
            "input": f"{_zero_tag(z)}, {direction}, radius={r:g}",
            "abs_x_probe": ax,
            "abs_x_direct": z.abs_x_here,
        }
        for z in zs
        for r, ax in limit_probe(z, direction, _PROBE_RADII)
    ]


# (claim id, population, evidence function, verdict note) in report order; an
# evidence function maps a whole population (`audit_claims` names them) and kappa.
_CLAIMS = (
    ("Lemma1", "all", _zero_metrics("abs_f", "abs_f_paired", "abs_x", "abs_x_minus_1"),
     "at each refined zero: |f|, |f at the mirrored point|, and |X|; "
     "values reported without interpretation"),
    ("Lemma2", "off_line", _zero_metrics("abs_x", "abs_x_minus_1", "t", "kappa"),
     "|X| at each off-line zero next to the strip height bound"),
    ("Corollary1", "on_line", _zero_metrics("abs_x_minus_1"),
     "distance of |X| from 1 at each line zero"),
    ("Lemma3_part1", "gamma_rays", _gamma_rays,
     "Gamma-factor moduli, their t-derivatives, and log|X| along "
     "constant-sigma rays of increasing height"),
    ("Lemma3_part2", "off_line", _zero_metrics("abs_f", "abs_f_paired", "dlogabsx_dt"),
     "|f| at each off-line zero and at its mirror, with the local "
     "t-slope of log|X|, all at finite height"),
    ("Lemma3_part3", "off_line", _zero_metrics("abs_x", "t", "kappa", "t_over_kappa"),
     "|X| at each off-line zero against the height bound of the unit-modulus curve"),
    ("Puzzle1", "off_line", _zero_metrics("abs_f", "abs_f_paired", "abs_difference"),
     "|f(s)|, |f(1-s)|, and |f(s) - f(1-s)| at each off-line zero, side by side"),
    ("Puzzle2", "off_line", _zero_metrics("t", "kappa", "t_over_kappa", "within_kappa"),
     "each off-line zero's height against the strip bound"),
    ("AppendixA_t", "probed", partial(_appendix_a, "along_t"),
     "sqrt(P/Q) approaching each zero along t, next to the direct |X| at the zero"),
    ("AppendixA_sigma", "probed", partial(_appendix_a, "along_sigma"),
     "sqrt(P/Q) approaching each zero along sigma, next to the direct |X| at the zero"),
)

CLAIM_IDS = tuple(claim for claim, *_ in _CLAIMS)


def audit_claims(zeros: list[ZeroRecord]) -> list[AuditReport]:
    """Numerical evidence for the fixed list of externally numbered claims.

    Reports measured quantities only: moduli, derivatives, bounds, and
    limit sequences at and around the supplied refined zeros.  Nothing
    is adjudicated; the verdict_note of each report states what was
    measured, never what it means.
    """
    kap = _kappa_root()
    offline = [z for z in zeros if not z.on_line]
    online = [z for z in zeros if z.on_line]
    populations = {
        "all": zeros,
        "off_line": offline,
        "on_line": online,
        "probed": online[:1] + offline[:2],
        "gamma_rays": [complex(sigma, t) for sigma in (0.3, 0.7) for t in (10.0, 20.0, 40.0, 80.0)],
    }
    return [
        AuditReport(claim, tuple(evidence(populations[pop], kap)), note)
        for claim, pop, evidence, note in _CLAIMS
    ]
