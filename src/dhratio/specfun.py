"""Self-contained complex special-function kernel.

Everything downstream (the Dirichlet series, the functional-equation
ratio, the curve and zero machinery) reduces to these functions over the
complex plane:

    lgamma(z)        principal-branch log Gamma
    log_abs_gamma(z) its real part log|Gamma(z)|, without the argument
    digamma(z)       psi(z), shift + asymptotic series
    hurwitz_zeta(s,a) Euler-Maclaurin continuation of sum (n+a)^-s, a > 0:
                      one order-64 tail, one split rule for every point

Every direct Dirichlet block, here and in the series evaluator, goes
through one kernel, `_dirichlet_sum`.  It writes m^-s = m^-sigma *
e^{-it log m} and builds one real row per distinct sigma and, in groups
of 64 points, one phase row per run of equal |t|, so points that share a
height (or a sigma column) share the transcendental work; a real
multiply-reduce combines the rows per point.

All four accept Python scalars (complex/float/int), `ComplexPoint`, or
numpy arrays of points; scalar in, scalar out.  Accuracy is engineered
for IEEE double precision:

    lgamma   real part within 1.3e-15 and imaginary part within 4.4e-16 of
             max(1, |lgamma|) against mpmath for Re z in [-199.3, 450],
             |Im z| in [0.3, 1e8] (1 350 points); a part that cancels to O(1)
             keeps that absolute error (9.4e-15 and 5.3e-14 of max(1, |part|)
             there).  log_abs_gamma is lgamma's real part, bit for bit.
    digamma  ~1e-12 for |z| <= 500
    hurwitz  <= 1.8e-12 of max(1, |zeta|) for -2 <= Re s <= 5, |Im s| <= 1000,
             and 6.8e-14 for |Im s| <= 100; 3.0e-12 at 3000; near the
             real axis (|Im s| < |Re s|) 4.7e-14 for -2 <= Re s <= 2 and
             9.4e-15 for 0.5 <= Re s <= 40 (against mpmath at 30 digits,
             the worst of the samples taken, 30 random points per band, a
             in {0.1, 0.2, 0.5, 0.8, 1}); below Re s = -2 roundoff in EM
             blocks of size (N+a)^{1+|Re s|} wins (callers reflect instead)

lgamma and log_abs_gamma are one real-arithmetic pass,
`_log_abs_gamma_damped`.  Its argument, on the principal branch (cut
along the negative real axis), is summed from the shift itself (Hare, J.
Algorithms 25, 1997): one arctan(y / (x + j)) per factor and -sign(y) pi
per factor x + j < 0, not unwound after the fact, so vertical-line paths
inside a half-plane get a continuous argument.  On the cut the sign of a
zero imaginary part picks the side.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleError

__all__ = [
    "ComplexPoint",
    "lgamma",
    "log_abs_gamma",
    "digamma",
    "hurwitz_zeta",
]

# ----------------------------------------------------------------------
# domain types
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ComplexPoint:
    """A point sigma + i*t of the complex plane with finite coordinates."""

    sigma: float
    t: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and math.isfinite(self.t)):
            raise DomainError(f"non-finite point ({self.sigma}, {self.t})")

    @classmethod
    def from_complex(cls, z: complex) -> "ComplexPoint":
        z = complex(z)
        return cls(z.real, z.imag)

    @property
    def z(self) -> complex:
        return complex(self.sigma, self.t)

    def __complex__(self) -> complex:
        return complex(self.sigma, self.t)

    def conjugate(self) -> "ComplexPoint":
        return ComplexPoint(self.sigma, -self.t)

    def mirror(self) -> "ComplexPoint":
        """The reflected point 1 - s."""
        return ComplexPoint(1.0 - self.sigma, -self.t)


# ----------------------------------------------------------------------
# coercion helpers
# ----------------------------------------------------------------------


def as_points(s) -> tuple[np.ndarray, bool]:
    """Coerce scalar/ComplexPoint/array input to a 1-D complex128 array.

    Returns (array, was_scalar).  Non-finite coordinates are rejected.
    """
    if isinstance(s, ComplexPoint):
        s = s.z
    arr = np.asarray(s, dtype=np.complex128)
    was_scalar = arr.ndim == 0
    arr = np.atleast_1d(arr).ravel()
    if not np.all(np.isfinite(arr)):
        raise DomainError("non-finite evaluation point")
    return arr, was_scalar


def _unpack(values: np.ndarray, was_scalar: bool):
    return complex(values[0]) if was_scalar else values


def _off_the_poles(z, what: str):
    """`as_points`, and PoleError at z = 0, -1, -2, ..."""
    arr, was_scalar = as_points(z)
    bad = (arr.imag == 0.0) & (arr.real <= 0.0) & (arr.real == np.floor(arr.real))
    if bad.any():
        raise PoleError(f"{what} pole at z = {arr[bad][0]}")
    return arr, was_scalar


# ----------------------------------------------------------------------
# Bernoulli machinery
# ----------------------------------------------------------------------

# Stirling series for log Gamma: sum_n B_2n / (2n (2n-1) w^(2n-1)) for
# n = 1..9 (at Re w >= 10 the first one dropped is below 1.4e-19), and the
# asymptotic series for psi: ln w - 1/(2w) - sum_n B_2n / (2n w^2n) for
# n = 1..15.  Literals, like _EM_COEF below, so that the import needs no
# `fractions`; the specfun tests rebuild both exactly from B_2..B_30.
_STIRLING_COEF = [
    0.08333333333333333, -0.002777777777777778, 0.0007936507936507937,
    -0.0005952380952380953, 0.0008417508417508417, -0.0019175269175269176,
    0.00641025641025641, -0.029550653594771242, 0.17964437236883057,
]
_DIGAMMA_COEF = [
    0.08333333333333333, -0.008333333333333333, 0.003968253968253968,
    -0.004166666666666667, 0.007575757575757576, -0.021092796092796094,
    0.08333333333333333, -0.4432598039215686, 3.0539543302701198,
    -26.456212121212122, 281.46014492753625, -3607.5105463980462,
    54827.583333333336, -974936.8238505747, 20052695.79668808,
]

# Euler-Maclaurin tail for Hurwitz zeta: B_2k / (2k)! for k = 1..33, through
# the B_66 that the order-64 tail's omitted term needs.  A literal, because
# building B_66 from Fractions costs about 12 ms of import; the specfun
# tests rebuild all 33 exactly.
_EM_COEF = [
    0.08333333333333333, -0.001388888888888889, 3.306878306878307e-05,
    -8.267195767195768e-07, 2.08767569878681e-08, -5.284190138687493e-10,
    1.3382536530684679e-11, -3.3896802963225827e-13, 8.586062056277845e-15,
    -2.174868698558062e-16, 5.5090028283602295e-18, -1.3954464685812522e-19,
    3.534707039629467e-21, -8.953517427037546e-23, 2.267952452337683e-24,
    -5.744790668872202e-26, 1.455172475614865e-27, -3.6859949406653103e-29,
    9.336734257095045e-31, -2.36502241570063e-32, 5.990671762482134e-34,
    -1.5174548844682903e-35, 3.843758125454189e-37, -9.736353072646691e-39,
    2.466247044200681e-40, -6.247076741820743e-42, 1.5824030244644914e-43,
    -4.008273685948936e-45, 1.0153075855569557e-46, -2.5718041582418717e-48,
    6.514456035233815e-50, -1.6501309906896525e-51, 4.179830628539476e-53,
]

_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)
_SHIFT_RE = 10.0
_MAX_SHIFT = 2048


# ----------------------------------------------------------------------
# log Gamma and digamma
# ----------------------------------------------------------------------


# log|Gamma| shifts in rounds of _SHIFT_ROUND unit steps, one real log per
# round.  Points with |Im z| >= _FAR_UP skip the shift, which |w| alone
# makes needless, so a round's product stays below 2^962.  One below
# _TINY_ROUND means a factor may have underflowed (a point within about
# 1e-135 of a pole), and that point sums its shift again, one log per factor.
_SHIFT_ROUND = 8
_FAR_UP = 2.0**60
_TINY_ROUND = 2.0**-900
# |Im lgamma| ~ |y| (ln|y| - 1) passes the float64 maximum near |y| = 2.56e305,
# and log|Gamma| ~ x (ln x - 1) near x = 2.56e305
_MAX_ARG_IM = 2.5e305
_MAX_GAMMA_RE = 2.5e305


def _log_abs_gamma_damped(x: np.ndarray, y: np.ndarray, arg: bool = False):
    """log|Gamma(x + iy)| + pi |y| / 2 in real arithmetic, for points that
    are not poles: |Gamma| decays like e^(-pi |y| / 2), and callers that
    cancel that decay (as `xratio._log_x` and `dhfun._f_reflected` do) keep
    the digits it would cost.  The one log-Gamma kernel: `lgamma` and
    `log_abs_gamma` read it too.  With `arg`, returns (that, rem,
    half_turns) with arg Gamma(x + iy) = rem + pi half_turns on the
    principal branch: rem is the Stirling part's Im[(w - 1/2) log w - w +
    series / w] less the shift's arctan(y / (x + j)), and half_turns,
    -sign(y) per factor x + j < 0, lets callers add their multiples of pi
    exactly.  The argument leaves float64 past |y| = _MAX_ARG_IM, and
    with `arg` such a point is refused with a DomainError naming that limit;
    log|Gamma| itself leaves it past x = _MAX_GAMMA_RE, and such a point is
    refused, with or without `arg`.

    Each point shifts k = ceil(10 - x) unit steps, found in closed form
    (none at |y| >= _FAR_UP).
    The shift's prod |w + j|^2 = prod ((x + j)^2 + y^2) runs in rounds of
    _SHIFT_ROUND factors with one log per round, over the points ordered by
    k, so each factor is formed only for the points that still need it.
    The Stirling part Re[(w - 1/2) log w - w + series / w] takes ln|w| and
    |y| (pi/2 - |arg w|) = |y| arctan2(Re w, |y|) in real arithmetic, and
    only the series terms in complex.  Every step is elementwise, so a
    point's bits do not depend on its batch.
    """
    need = np.maximum(np.ceil(_SHIFT_RE - x), 0.0)
    if not need.max(initial=0.0) < _MAX_SHIFT:
        raise DomainError("argument real part too negative for the shift budget")
    if x.max(initial=0.0) > _MAX_GAMMA_RE:
        raise DomainError(f"log Gamma takes Re <= {_MAX_GAMMA_RE:g}, not Re = {float(x.max())!r}")
    if arg and np.abs(y).max(initial=0.0) > _MAX_ARG_IM:
        far = float(np.abs(y).max())
        raise DomainError(f"arg Gamma takes |Im| <= {_MAX_ARG_IM:g}, not |Im| = {far!r}")
    k = np.where(np.abs(y) < _FAR_UP, need, 0.0)
    order = np.argsort(k)  # the points that need factor j are a suffix
    xs, ys = x[order], y[order]
    y2 = np.square(np.minimum(np.abs(ys), _FAR_UP))  # no shift past it
    shift = int(k.max(initial=0.0))
    first = np.searchsorted(k[order], np.arange(shift), side="right")  # k > j from here
    logs, atans, prod, factor = np.zeros((4, len(x)))
    low = np.zeros(len(x), dtype=bool)
    # log(0) at low points; y / (x + j) is +-inf at x + j = 0 and may
    # overflow at a tiny x + j, and arctan(+-inf) = +-pi/2 is the limit
    with np.errstate(divide="ignore", over="ignore"):
        for r in range(0, shift, _SHIFT_ROUND):
            part = prod[first[r] :]
            part.fill(1.0)
            for j in range(r, min(r + _SHIFT_ROUND, shift)):
                f = np.add(xs[first[j] :], j, out=factor[first[j] :])
                if arg:  # arctan2(y, x + j), less sign(y) pi where x + j < 0
                    atans[first[j] :] += np.arctan(ys[first[j] :] / f)
                f *= f
                f += y2[first[j] :]
                prod[first[j] :] *= f
            low[first[r] :] |= part < _TINY_ROUND
            logs[first[r] :] += np.log(part)
    acc, tiny = np.empty(len(x)), np.empty(len(x), dtype=bool)
    acc[order], tiny[order] = logs, low  # back to input order
    if tiny.any():  # 2 ln hypot(x + j, y) per factor, which cannot underflow
        xt, yt, kt = x[tiny], y[tiny], k[tiny]
        factors = (np.where(j < kt, np.log(np.hypot(xt + j, yt)), 0.0) for j in range(shift))
        acc[tiny] = 2.0 * sum(factors)
    wx = x + k
    w = np.empty(len(x), dtype=np.complex128)
    w.real, w.imag = wx, y
    log_w = np.log(np.abs(w))
    winv = 1.0 / w
    winv2 = winv * winv
    ser = np.full(len(x), complex(_STIRLING_COEF[-1]))
    for c in _STIRLING_COEF[-2::-1]:
        ser *= winv2
        ser += c
    ay = np.abs(y)
    out = (wx - 0.5) * log_w + ay * np.arctan2(wx, ay) - wx + (ser * winv).real
    out += _HALF_LN_2PI - 0.5 * acc
    # x + k rounds, so the Stirling part is taken at x + k + (wx - k - x),
    # exactly that far from the shifted x: d log Gamma / dx is log w there
    out -= log_w * ((wx - k) - x)
    if not arg:
        return out
    arg_w, im = np.arctan2(y, wx), np.empty(len(x))
    im[order] = -atans
    im += y * (log_w - 1.0) + (wx - 0.5) * arg_w + (ser * winv).imag
    im -= arg_w * ((wx - k) - x)
    half_turns = -np.copysign(np.clip(np.ceil(-x), 0.0, k), y)  # the factors x + j < 0
    return out, im, half_turns


def lgamma(z):
    """Principal-branch log Gamma, from `_log_abs_gamma_damped`: the real
    part is its damped value less pi |Im z| / 2, the imaginary part its
    remainder plus pi times its half turns.  Raises PoleError at the poles
    z = 0, -1, -2, ..., and DomainError past |Im z| = 2.5e305, where the
    imaginary part leaves float64, and past Re z = 2.5e305, where the real
    part does.
    """
    arr, was_scalar = _off_the_poles(z, "log Gamma")
    damped, rem, half_turns = _log_abs_gamma_damped(arr.real, arr.imag, True)
    out = damped - 0.5 * np.pi * np.abs(arr.imag) + 1j * (rem + np.pi * half_turns)
    return _unpack(out, was_scalar)


def log_abs_gamma(z):
    """log|Gamma(z)| = Re lgamma(z), without the argument: one real log per
    round of eight shift steps, and no complex log (see
    `_log_abs_gamma_damped`).  Scalar in, float out; PoleError at z = 0,
    -1, ..., and DomainError past Re z = 2.5e305, where it leaves float64.
    """
    arr, was_scalar = _off_the_poles(z, "log Gamma")
    out = _log_abs_gamma_damped(arr.real, arr.imag) - 0.5 * np.pi * np.abs(arr.imag)
    return float(out[0]) if was_scalar else out


def digamma(z):
    """psi(z) = Gamma'(z)/Gamma(z).

    Upward recurrence psi(z) = psi(z+1) - 1/z to Re w >= 10, then the
    asymptotic series psi(w) ~ ln w - 1/(2w) - sum_k B_2k / (2k w^2k).
    Raises PoleError at the poles z = 0, -1, -2, ...
    """
    arr, was_scalar = _off_the_poles(z, "digamma")
    w, acc = arr.copy(), np.zeros_like(arr)
    for _ in range(_MAX_SHIFT):
        mask = w.real < _SHIFT_RE
        if not mask.any():
            break
        acc[mask] -= 1.0 / w[mask]
        w[mask] += 1.0
    else:
        raise DomainError("argument real part too negative for the shift budget")
    # w * w overflows only where |w| > 1.3e154, and 1/inf = 0 is the limit there
    with np.errstate(over="ignore"):
        winv2 = 1.0 / (w * w)
    ser = np.full_like(w, _DIGAMMA_COEF[-1])
    for c in _DIGAMMA_COEF[-2::-1]:
        ser = ser * winv2 + c
    out = np.log(w) - 0.5 / w - ser * winv2 + acc
    return _unpack(out, was_scalar)


# ----------------------------------------------------------------------
# Hurwitz zeta
# ----------------------------------------------------------------------


# Euler-Maclaurin parameters.  The tail runs to order 64 (Bernoulli indices
# up to 64) at every point.  It first drops |B_66/66! s(s+1)...(s+64)|
# x^-65 |x^-s|, x >= N.  The factor before |x^-s| is about
# (1/pi) (|t|/(2 pi N))^65 for |t| >> |sigma| + 64, below eps = 2^-52 from
# N = |t|/(2 pi eps^(1/65)) = 0.2771 |t| on (Johansson, Numer. Algorithms
# 69, 2015; Edwards, Riemann's Zeta Function, 1974, sec. 6.4): 2.4x fewer
# direct columns than order 24's 0.673 |t|.  So N = ceil(0.2771 h) + 8 with
# h = max(|Im s|, min(max(Re s, 0), C)):
#   - The 8 covers the factors |s + j|, j <= 64, that exceed |t| at low
#     heights, and Re s in h covers them where Re s > |Im s|: over
#     -2 <= sigma <= 10 and 0 <= |t| <= 2e4 the factor stays below 6.5e-17,
#     and at sigma = 20 it reaches 6.3e-15 (t = 21.5).
#   - C = _SPLIT_REAL_CAP = 20 stops N growing with Re s.  Past it x >= 14,
#     and the tail itself is at most 7.7e-24 (Re s = 20, t = 21.5), far
#     below the rounding of the sum's first term (a^-s with a <= 1, or 1
#     for f), so its own accuracy no longer matters; the dropped term times
#     |x^-s| peaks at 7.6e-38 there and is 0 where x^-s underflows.
#     Uncapped, f(1e7 + 200i) would sum 11M columns.
#   - Below Re s = -2 roundoff in the direct block, (N+a)^(1+|Re s|), sets
#     the error, and callers reflect instead.
_BERNOULLI_ORDER = 64
_SPLIT_PER_HEIGHT = 1.0 / (2.0 * math.pi * np.finfo(float).eps ** (1.0 / 65.0))
_SPLIT_OFFSET = 8
_SPLIT_REAL_CAP = 20.0


# Height limit of the series kernels: `hurwitz_zeta` and f (`dhfun._evaluate`)
# refuse |Im s| above it before they form any column count.  Past t = 8.3e18
# f's 4 N columns wrap int64 and nothing would be summed; at the limit f
# sums about 1.1e8 columns.  The accuracy envelope may move it.
_MAX_HEIGHT = 1e8


def _check_height(arr: np.ndarray, name: str) -> None:
    """DomainError, naming the limit, if any point lies above _MAX_HEIGHT."""
    top = float(np.abs(arr.imag).max(initial=0.0))
    if top > _MAX_HEIGHT:
        raise DomainError(f"{name} takes |Im s| <= {_MAX_HEIGHT:g}, not |Im s| = {top!r}")


def em_split_point(abs_t, re, _unused=None):
    """Euler-Maclaurin split point N for a point of height |Im s| = abs_t
    and real part re; arrays give one split per point.

    N = ceil(0.2771 max(|Im s|, min(max(Re s, 0), 20))) + 8: the split
    grows with the height just enough for the first Bernoulli term the
    order-64 tail drops to stay below double-precision epsilon, and with
    Re s only up to 20, past which the tail's own x^-s damps that term.

    The third parameter is ignored.  It stays because the benchmark's
    tracer (bench/tracer.py) passes a third argument when it prices
    Euler-Maclaurin terms.
    """
    h = np.maximum(np.asarray(abs_t, dtype=np.float64), np.clip(re, 0.0, _SPLIT_REAL_CAP))
    n = (np.ceil(_SPLIT_PER_HEIGHT * h) + _SPLIT_OFFSET).astype(np.int64)
    return int(n) if n.ndim == 0 else n


# Cap on elements per kernel block: a chunk's sigma rows of a column block
# take at most one, and each gather group's (cos, sin) rows and gathered
# sigma rows three quarters of another, so the kernel's temporaries stay
# near 1 MB whatever the height (1.03 MB traced on 201 heights at t ~ 1000).
ELEMENT_BUDGET = 1 << 17

# Width of the kernel's column blocks.  Block boundaries sit at multiples of
# it whatever the batch.  In the block where a point's count ends, its row
# stops at that count rounded up to _COLUMN_ALIGN (the columns past the
# count zeroed), and the points whose rows stop alike share one einsum.  So
# einsum meets a point's terms as the same row alone or in any batch, and
# the point keeps its bits whatever grouping einsum's loop uses inside a row.
# _COLUMN_ALIGN trades the zero columns a point carries against the number
# of einsums per block.
_COLUMN_BLOCK = 512
_COLUMN_ALIGN = 8


def _row_runs(ends: list, lo: int, hi: int, c0: int, width: int):
    """The rows lo..hi-1 of a column block that starts at c0, as (slice
    from lo, stop) runs: a row whose count ends at `ends[i]` stops at its
    count rounded up to _COLUMN_ALIGN, at most `width` columns; the counts
    ascend, so equal stops are runs."""
    runs, start = [], lo
    while start < hi:
        stop = min(-(-(ends[start] - c0) // _COLUMN_ALIGN) * _COLUMN_ALIGN, width)
        after = hi if stop == width else bisect.bisect_right(ends, c0 + stop, start, hi)
        runs.append((slice(start - lo, after - lo), stop))
        start = after
    return runs


def _dirichlet_sum(s: np.ndarray, n_cols, columns, deriv: bool = False):
    """sum_{k < n_cols} w_k exp(-s log_k) at every point of s, and with
    `deriv` sum_k -log_k w_k exp(-s log_k); n_cols is a column count per
    point (or one for all) and columns(k) gives (log_k, w_k) (w_k may be
    a scalar) for a block of column indices k.

    Writes m^-s = m^-sigma * e^{-it log m}.  The points, ordered by
    (n_cols, |t|, sigma), go in chunks of at most ELEMENT_BUDGET //
    _COLUMN_BLOCK rows, counting a real row w_m m^-sigma per distinct
    sigma and two per distinct |t|.  In each block of _COLUMN_BLOCK
    columns, the chunk's points whose count reaches into it (a suffix) go
    in gather groups of ELEMENT_BUDGET // (4 _COLUMN_BLOCK) = 64 points.
    A group gathers its sigma rows and forms the (cos, sin) rows of |t|
    log_m for its own heights alone, one per run of equal |t| (t and -t
    differ only in the sign of the sine part), so no phase table for the
    whole chunk is held: on the t ~ 1000 survey's batches the kernel's
    traced peak is 1.03 MB (2.38 MB with one table per chunk and block).
    The group cuts its rows at their own count rounded up to
    _COLUMN_ALIGN, zeroes the columns past their count, and reduces them
    by einsums (never BLAS, so the summation order never depends on
    threads), with the derivative's -log_m as a third operand.  Each
    phase is the same elementwise |t| log_m in any group, so a point keeps
    its bits alone or in any batch.

    Returns (sums, dsums or None, scale), scale = max_{m < n_cols}
    |w_m m^-sigma|, the largest term.
    """
    counts = np.broadcast_to(np.asarray(n_cols, dtype=np.int64), s.shape)
    order = np.lexsort((s.real, np.abs(s.imag), counts))
    pts, counts = s[order], counts[order]
    sigma, height = pts.real, np.abs(pts.imag)
    sine_sign = np.where(pts.imag < 0.0, 1.0, -1.0)
    limit, gather = ELEMENT_BUDGET // _COLUMN_BLOCK, ELEMENT_BUDGET // (4 * _COLUMN_BLOCK)
    # a chunk is limit // 3 points or, if more, the points of as many
    # heights as fit next to one row for every sigma of the call
    level = np.concatenate(([0], np.cumsum(height[1:] != height[:-1])))
    room = (limit - 1 - np.count_nonzero(np.diff(np.sort(sigma)))) // 2
    parts = np.zeros((1 + deriv, 2, len(s)))  # (sum, derivative) x (real, imaginary)
    scale = np.zeros(len(s))
    lo = 0
    while lo < len(s):
        hi = min(len(s), max(lo + limit // 3, int(np.searchsorted(level, level[lo] + room))))
        sigmas, i_sigma = np.unique(sigma[lo:hi], return_inverse=True)
        widest = counts[hi - 1]
        end = -(-widest // _COLUMN_ALIGN) * _COLUMN_ALIGN
        ends = counts[lo:hi].tolist()
        for c0 in range(0, widest, _COLUMN_BLOCK):
            first = lo + int(np.searchsorted(counts[lo:hi], c0, side="right"))
            width = min(_COLUMN_BLOCK, end - c0)
            live = min(width, widest - c0)  # the columns past the widest count stay zero
            lg = np.zeros(width)  # zero, and amp zero, past the widest count
            lg[:live], weights = columns(np.arange(c0, c0 + live))
            amp = np.multiply.outer(-sigmas, lg)
            np.exp(amp, out=amp)
            amp[:, :live] *= weights
            amp[:, live:] = 0.0
            peak = np.abs(amp).max(axis=1)
            for g0 in range(first, hi, gather):
                block = slice(g0, min(g0 + gather, hi))
                local = slice(g0 - lo, block.stop - lo)
                picked_amp = amp.take(i_sigma[local], axis=0)
                peaks = peak[i_sigma[local]]
                short = int(np.searchsorted(counts[block], c0 + live))
                if short:  # counts ending inside the live columns: a prefix
                    head = picked_amp[:short]
                    head[np.arange(c0, c0 + width) >= counts[g0 : g0 + short, None]] = 0.0
                    peaks[:short] = np.abs(head).max(axis=1)
                np.maximum(scale[block], peaks, out=scale[block])
                runs = _row_runs(ends, g0 - lo, block.stop - lo, c0, width)
                # (cos, sin) rows of the group's own heights, one per run of
                # equal |t| (ordered by count first, a group's heights can recur)
                heights, at = height[block], None
                new = np.concatenate(([True], heights[1:] != heights[:-1]))
                if not new.all():  # each point takes its run's row
                    heights, at = heights[new], np.cumsum(new) - 1
                trig = np.empty((2, len(heights), width))
                np.multiply.outer(heights, lg, out=trig[1])  # the phases
                np.cos(trig[1], out=trig[0])
                np.sin(trig[1], out=trig[1])
                for k in range(2):
                    picked = trig[k] if at is None else trig[k].take(at, axis=0)
                    for rows, stop in runs:
                        out = slice(g0 + rows.start, g0 + rows.stop)
                        sign = sine_sign[out] if k else 1.0
                        terms = (picked[rows, :stop], picked_amp[rows, :stop])
                        parts[0, k, out] += sign * np.einsum("pm,pm->p", *terms)
                        if deriv:
                            parts[1, k, out] -= sign * np.einsum("pm,pm,m->p", *terms, lg[:stop])
                    del picked, terms
                del trig
        lo = hi
    back = np.argsort(order)  # to input order
    sums = (parts[:, 0] + 1j * parts[:, 1])[:, back]
    return sums[0], (sums[1] if deriv else None), scale[back]


def _em_tail(s: np.ndarray, x, weight, deriv: bool = False):
    """Euler-Maclaurin tail at the split x = N + a, weighted by x^-s.

    Returns (tail, dtail, omitted) with

        tail = weight * (1/2 + sum_{k=1..32} B_2k/(2k)! * s(s+1)...(s+2k-2) * x^-(2k-1)),

    dtail the weight times the s-derivative of the bracket (None unless
    `deriv`; the caller adds -log x * tail) and omitted the size of the
    first dropped term times |weight|.  The caller passes weight = x^-s,
    or x^-s times a power it folds into the same exponent.  x holds one
    split for all points, one per point, or several rows of them, one row
    per split, and weight has x's shape.

    The weight starts the powers x^-(2k-1), so the tail is exactly 0
    where x^-s underflows.  The Pochhammer symbol is one row per point,
    shared by x's rows; it overflows near |s| = 1e5, so the loop carries
    poch * 2^-(2k-1)e and x^-(2k-1) * 2^(2k-1)e, 2^e the largest power of
    two not above the larger of |s| and the point's smallest x.  Scaled
    so, poch stays below 18^65 and nothing overflows at Re s >= -2,
    however far up or right.  Scaling by a power of two is exact, so each
    term keeps the bits of the unscaled product, and every point runs the
    same loop, so a point gets the same bits alone or in any batch.
    """
    x = np.asarray(x, dtype=np.float64)
    x = np.broadcast_to(x, np.broadcast_shapes(x.shape, s.shape))
    e = np.frexp(np.maximum(x.min(axis=0) if x.ndim > 1 else x, np.abs(s)))[1] - 1
    unit = np.ldexp(1.0, -e).astype(complex)  # complex: a real factor costs a cast
    fac = np.ldexp(1.0 / x, e)
    # fac^2 overflows only where |s| > 1e154 x, that is where the weight is
    # 0 (or infinite), and the cap keeps 0 * fac^2 from making a NaN there
    fac2 = np.minimum(fac * fac, 2.0**1000)
    fac = fac * weight
    scale = unit * unit
    ser = dser = 0.0
    poch, dpoch = s * unit, unit
    for k in range(_BERNOULLI_ORDER // 2):
        ser = ser + _EM_COEF[k] * poch * fac
        lo, hi = s + (2 * k + 1), s + (2 * k + 2)
        step = hi * scale  # exact, so poch * lo * step rounds as poch * lo * hi
        if deriv:
            dser = dser + _EM_COEF[k] * dpoch * fac
            dpoch = dpoch * lo * step + poch * ((lo + hi) * scale)
        poch = poch * lo * step
        fac = fac * fac2
    omitted = abs(_EM_COEF[_BERNOULLI_ORDER // 2]) * np.abs(poch) * np.abs(fac)
    return 0.5 * weight + ser, (dser if deriv else None), omitted


def _hurwitz_batch(s: np.ndarray, a: float, deriv: bool = False):
    """zeta(s, a) on an array of points, none equal to 1, as (values,
    derivs or None, errs): Euler-Maclaurin with x = N + a and each
    point's own split N, the direct block sum_{n<N} (n+a)^-s by
    `_dirichlet_sum`, the tail by `_em_tail` with weight x^-s and the
    pole part x^(1-s)/(s-1)."""
    n_split = em_split_point(np.abs(s.imag), s.real)
    direct, ddirect, scale = _dirichlet_sum(s, n_split, lambda k: (np.log(k + a), 1.0), deriv)
    x = n_split + a
    log_x = np.log(x)
    tail, dtail, omitted = _em_tail(s, x, np.exp(-s * log_x), deriv)
    pole = np.exp((1.0 - s) * log_x) / (s - 1.0)
    out = direct + tail + pole
    err = omitted + 8.0 * np.finfo(float).eps * n_split * scale
    dout = None
    if deriv:
        dout = ddirect + dtail - log_x * tail - pole * (log_x + 1.0 / (s - 1.0))
    return out, dout, err


def hurwitz_zeta(s, a: float):
    """Analytic continuation of sum_{n>=0} (n+a)^-s for any real a > 0.

    Euler-Maclaurin with corrections up to Bernoulli index 64 and each
    point's own split N = ceil(0.2771 max(|Im s|, min(max(Re s, 0), 20)))
    + 8 (see em_split_point), so a point gets the same value alone or in
    any array.  Raises PoleError at s = 1, DomainError where |zeta|
    overflows float64, past |Im s| = _MAX_HEIGHT (1e8) and unless a is
    finite and positive.
    """
    if not (a > 0.0 and math.isfinite(a)):
        raise DomainError(f"parameter a = {a} must be positive")
    arr, was_scalar = as_points(s)
    _check_height(arr, "zeta")
    if np.any(arr == 1.0):
        raise PoleError("Hurwitz zeta pole at s = 1")
    with np.errstate(over="ignore", invalid="ignore"):
        out, _, _ = _hurwitz_batch(arr, float(a))
    bad = ~np.isfinite(out)
    if bad.any():
        raise DomainError(f"|zeta| overflows float64 at s = {complex(arr[bad][0])}")
    return _unpack(out, was_scalar)


# ----------------------------------------------------------------------
# trigonometry
# ----------------------------------------------------------------------


def _sin_cos_pi(w: np.ndarray):
    """e^(-pi |Im w|) (sin(pi w), cos(pi w)) with exact argument reduction.

    Reducing the real part by the nearest integer makes the sine's zeros
    at real integers exact, so evaluations vanish identically at trivial
    zeros; e^(pi |Im w|) is left to the caller's exponent.
    """
    x, y = w.real, w.imag
    n = np.round(x)
    r = x - n
    sign = 1.0 - 2.0 * np.mod(n, 2.0)
    sinx = sign * np.sin(np.pi * r)
    cosx = sign * np.cos(np.pi * r)
    em1 = np.expm1(-2.0 * np.pi * np.abs(y))
    cosh = 1.0 + 0.5 * em1  # cosh(pi y) e^(-pi |y|)
    sinh = -0.5 * np.sign(y) * em1  # sinh(pi y) e^(-pi |y|)
    return sinx * cosh + 1j * cosx * sinh, cosx * cosh - 1j * sinx * sinh

