"""Evaluation of the five-periodic Dirichlet series and its companions.

The series is

    f(s) = sum_{n>=1} a(n mod 5) n^-s,      a = (0, 1, xi, -xi, -1)

indexed by residue, with xi = (sqrt(10 - 2 sqrt 5) - 2)/(sqrt 5 - 1).
Grouping by residue class gives the Hurwitz form

    f(s) = 5^-s sum_{r=1..4} a(r) zeta(s, r/5),

which continues f to the whole plane.  Because sum_r a(r) = 0 the
simple poles of the four zeta terms at s = 1 cancel and f is entire;
the evaluator performs that cancellation in closed form (a deflated
pole combination built on expm1) so s = 1 is an ordinary point, not a
0/0 special case.

In the left half-plane the Euler-Maclaurin blocks behind zeta(s, a)
grow like (N+a)^(1+|Re s|) while f itself becomes tiny near its trivial
zeros, and double precision cannot survive that cancellation.  For
Re s <= -1 the evaluator therefore switches to the reflected form

    f(s) = 2 Gamma(z) (10 pi)^-z sin(pi z / 2) 5^-s
           * sum_{m=1..4} S_m zeta(z, m/5),        z = 1 - s,

with S_m = 2 [sin(2 pi m/5) + xi sin(4 pi m/5)], where Re z >= 2 puts
every zeta in its comfortable zone.  The sine factor is computed with
exact integer reduction, so the trivial zeros at s = -1, -3, -5, ...
come out exactly 0.0 rather than as rounding residue.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyWarning, DomainError
from .specfun import (
    ELEMENT_BUDGET,
    ComplexPoint,
    _dirichlet_sum,
    _em_tail,
    _hurwitz_batch,
    _MAX_GAMMA_RE,
    _check_height,
    _log_abs_gamma_damped,
    _sin_cos_pi,
    as_points,
    digamma,
    em_split_point,
)
from .xratio import _log_x, _x_many

__all__ = [
    "COEFFICIENTS",
    "FnValue",
    "XI",
    "f",
    "f_batch",
    "f_series",
    "f_prime",
    "functional_eq_residual",
    "z_function",
    "pq",
]

_LN5 = math.log(5.0)
_LN10PI = math.log(10.0 * math.pi)
_EPS = np.finfo(float).eps
# With `warn`, `_evaluate` flags a point whose error estimate exceeds this
# share of |f| + 1.
_WARN_REL_ERR = 1e-6
# Points per block of `_evaluate` and `_rotated_line`, which bounds their
# per-point temporaries (the tails' (4, points) rows among them).
_POINT_BLOCK = ELEMENT_BUDGET // 32

# ----------------------------------------------------------------------
# coefficients
# ----------------------------------------------------------------------

XI = (math.sqrt(10.0 - 2.0 * math.sqrt(5.0)) - 2.0) / (math.sqrt(5.0) - 1.0)
# a(n mod 5), indexed by residue: a[0] = 0, a[1] = 1, a[2] = xi = -a[3],
# a[4] = -1.  The zero sum over a full period is what makes the series'
# continuation entire.
COEFFICIENTS = np.array([0.0, 1.0, XI, -XI, -1.0])
COEFFICIENTS.flags.writeable = False

# Reflected-side coefficients S_m = 2 [sin(2 pi m/5) + xi sin(4 pi m/5)],
# kept as computed (not simplified) so the functional-equation residual
# remains an independent check on the coefficient table.
_S_REFLECT = tuple(
    2.0 * (math.sin(2.0 * math.pi * m / 5.0) + XI * math.sin(4.0 * math.pi * m / 5.0))
    for m in range(1, 5)
)


@dataclass(frozen=True)
class FnValue:
    """A function value together with its argument and error estimate."""

    at: ComplexPoint
    value: ComplexPoint
    est_abs_err: float

    def __post_init__(self) -> None:
        if not self.est_abs_err >= 0.0:
            raise DomainError("est_abs_err must be non-negative")


# ----------------------------------------------------------------------
# batch evaluation core
# ----------------------------------------------------------------------


def _phi1(x: np.ndarray, deriv: bool = False):
    """(e^x - 1)/x continued through x = 0, elementwise on complex input,
    and its derivative (e^x - phi1)/x (None unless `deriv`); for
    |x| < 1/4 both come from the same series."""
    out = np.empty_like(x)
    dout = np.empty_like(x) if deriv else None
    small = np.abs(x) < 0.25
    xs = x[small]
    acc = np.zeros_like(xs)
    dacc = np.zeros_like(xs)
    term = np.ones_like(xs)  # x^(k-1) / k!
    for k in range(1, 14):
        acc = acc + term
        if deriv:
            dacc = dacc + term * (k / (k + 1.0))
        term = term * xs / (k + 1.0)
    out[small] = acc
    xl = x[~small]
    el = np.exp(xl)
    out[~small] = (el - 1.0) / xl
    if deriv:
        dout[small] = dacc
        dout[~small] = (el - out[~small]) / xl
    return out, dout


def _f_direct(s: np.ndarray, deriv: bool):
    """Hurwitz-combination route with the s = 1 pole pair deflated.

    Valid for Re s > -1 (and exact at s = 1), with each point's own
    split N.  The four residue blocks and the 5^-s prefactor are one
    direct sum, 5^-s (n + r/5)^-s = (5n + r)^-s, taken by
    `_dirichlet_sum` over m < 5N, 5 not dividing m, with weights
    a(m mod 5).  The Euler-Maclaurin tails stay per residue, each with
    weight (5N + r)^-s = 5^-s x_r^-s, which `_em_tail` carries inside its
    products, and the pole parts
    5^-s sum_r a_r x_r^(1-s)/(s-1), x_r = N + r/5, are combined into
    -N^w 5^-s sum_r a_r u_r phi1(w u_r) with w = 1 - s, u_r =
    log1p(r/(5N)), which is finite and fully stable through w = 0.  No
    power is ever formed on its own, so nothing overflows for large
    Re s, where every term is at most 1.  `deriv` adds f' in closed form.
    """
    a = COEFFICIENTS
    n_split = em_split_point(np.abs(s.imag), s.real)
    direct, ddirect, scale = _dirichlet_sum(  # column k is m = 5 (k // 4) + k % 4 + 1
        s, 4 * n_split, lambda k: (np.log(5 * (k // 4) + k % 4 + 1.0), a[k % 4 + 1]), deriv
    )

    r = np.arange(1.0, 5.0)[:, None]  # one row per residue class
    coef = a[1:, None]
    log_x = np.log(5.0 * n_split + r)
    tails, dtails, omitted = _em_tail(s, n_split + r / 5.0, np.exp(-log_x * s), deriv)
    # sum() adds the four residue rows in one fixed order; on complex rows
    # ndarray.sum(axis=0) pairs them differently for one point than for many
    tail = sum(coef * tails)
    tail_err = sum(np.abs(coef) * omitted)

    u = np.log1p(r / (5.0 * n_split))
    phi, dphi = _phi1((1.0 - s) * u, deriv)
    log_n = np.log(n_split)
    power = -np.exp((1.0 - s) * log_n - s * _LN5)
    residue_sum = sum(coef * u * phi)
    pole = power * residue_sum

    regular = direct + tail
    values = regular + pole
    errs = tail_err + 8.0 * _EPS * (4 * n_split * scale + np.abs(regular) + np.abs(pole))
    derivs = None
    if deriv:
        dtail = sum(coef * (dtails - log_x * tails))
        dpole = power * (
            -(log_n + _LN5) * residue_sum - sum(coef * u * u * dphi)
        )
        derivs = ddirect + dtail + dpole
    return values, derivs, errs


def _f_reflected(s: np.ndarray, deriv: bool):
    """Reflected route for Re s <= -1, where Re (1-s) >= 2.

    Exact integer reduction inside sin(pi z / 2) and cos(pi z / 2) makes
    the trivial zeros land on exact 0.0 and keeps f' exact there; their
    growth e^(pi |Im z| / 2) cancels the decay of Gamma(z), so the exponent
    takes log Gamma(z) + pi |Im z| / 2 as it comes from
    `specfun._log_abs_gamma_damped` (no half turns at Re z >= 2).
    With `deriv`, f' = E [(ln(10 pi) - ln 5 - psi(z)) sin - (pi/2) cos]
    T(z) - E sin T'(z) for f = E sin T(z), T = sum_m S_m zeta(z, m/5).
    """
    z = 1.0 - s
    total = np.zeros_like(s)
    dtotal = np.zeros_like(s)
    tot_err = np.zeros(len(s))
    for m in (1, 2, 3, 4):
        val, dval, err = _hurwitz_batch(z, m / 5.0, deriv)
        total += _S_REFLECT[m - 1] * val
        if deriv:
            dtotal += _S_REFLECT[m - 1] * dval
        tot_err += abs(_S_REFLECT[m - 1]) * err

    sine, cosine = _sin_cos_pi(0.5 * z)
    # past Re z = 2.5e305 log|Gamma(z)| leaves float64, long after |f| has:
    # taken at that edge, the exponent still overflows, and `_evaluate`
    # reports |f| overflowing
    damped, rem, _ = _log_abs_gamma_damped(np.minimum(z.real, _MAX_GAMMA_RE), z.imag, True)
    expo = 2.0 * np.exp(-s * _LN5 + (damped + 1j * rem) - z * _LN10PI)
    pref = expo * sine
    values = pref * total
    errs = np.abs(pref) * tot_err + 8.0 * _EPS * np.abs(values)
    derivs = None
    if deriv:  # d/ds = -d/dz on T(z)
        dlog = _LN10PI - _LN5 - np.atleast_1d(digamma(z))
        derivs = expo * ((dlog * sine - 0.5 * np.pi * cosine) * total - sine * dtotal)
    return values, derivs, errs


def _evaluate(arr: np.ndarray, deriv: bool, warn: bool = False):
    """f, and with `deriv` also f', at every point of a 1-D array.

    The one evaluation path, behind `f_batch`, `f`, `f_prime` and Newton:
    the deflated Hurwitz combination for Re s > -1, the reflected form
    for Re s <= -1, each route taking all its points of a block of
    _POINT_BLOCK in one call, so memory stays bounded for any batch.  Every
    point sums with the split N of its own height, so it gets the same N,
    and the same bits, alone or in any batch; the kernel shares the sigma
    and phase rows of a block's points.  With `warn`, every point whose
    error estimate exceeds _WARN_REL_ERR (1e-6) of |f| + 1 gets an
    AccuracyWarning.

    Returns (values, derivs or None, errs) in input order; DomainError
    past |Im s| = `specfun._MAX_HEIGHT` (1e8), before any column count is
    formed, and where |f| overflows float64.
    """
    _check_height(arr, "f")
    values = np.empty_like(arr)
    derivs = np.empty_like(arr) if deriv else None
    errs = np.empty(len(arr))
    # blocks of neighbouring heights, which share the kernel's phase rows
    order = np.lexsort((arr.real, np.abs(arr.imag)))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(arr), _POINT_BLOCK):
            block = order[lo : lo + _POINT_BLOCK]
            left = arr[block].real <= -1.0
            for picked, route in ((block[~left], _f_direct), (block[left], _f_reflected)):
                if len(picked):
                    values[picked], dvals, errs[picked] = route(arr[picked], deriv)
                    if deriv:
                        derivs[picked] = dvals
    bad = ~np.isfinite(values)
    if bad.any():
        raise DomainError(f"|f| overflows float64 at s = {complex(arr[bad][0])}")
    lost = np.flatnonzero(errs > _WARN_REL_ERR * (np.abs(values) + 1.0)) if warn else ()
    for k in lost:
        warnings.warn(
            f"cancellation inflated the error estimate to {errs[k]:.3g} at s = {complex(arr[k])}",
            AccuracyWarning,
            stacklevel=3,
        )
    return values, derivs, errs


def f_batch(s):
    """Vectorized f over any collection of points (see `_evaluate`),
    in fixed point blocks, so memory stays bounded for any batch size.

    Returns (values, est_abs_errs) as numpy arrays, in input order.
    """
    arr, _ = as_points(s)
    values, _, errs = _evaluate(arr, False)
    return values, errs


def f(s) -> FnValue:
    """The continued series at a single point (entire; no poles).

    A warning is attached when the internal cancellation estimate
    exceeds 1e-6 of |f| + 1.
    Raises DomainError where |f| overflows float64 and past |Im s| = 1e8.
    """
    arr, _ = as_points(s)
    if len(arr) != 1:
        raise DomainError("f takes a single point; use f_batch for arrays")
    values, _, errs = _evaluate(arr, False, warn=True)
    return FnValue(ComplexPoint.from_complex(arr[0]), ComplexPoint.from_complex(values[0]), errs[0])


# ----------------------------------------------------------------------
# direct partial sums (the brute-force oracle)
# ----------------------------------------------------------------------


_SERIES_BLOCK = 1 << 12


def _brute_sum(s: np.ndarray, n_terms: int, columns) -> np.ndarray:
    """sum_{n <= n_terms} w_n exp(-s log_n) at every point of s, with
    columns(n) = (log_n, w_n) on a block of n, less n with zero terms.
    Fixed-width blocks (so batching never changes a sum), pairwise np.sum
    within and across them, no `_dirichlet_sum`.  Each point chunk's terms
    go through one buffer of ELEMENT_BUDGET / 8 elements (256 kB), formed,
    exponentiated and weighted in place; a row's sum does not depend on
    the chunk's size."""
    per = ELEMENT_BUDGET // 8 // _SERIES_BLOCK
    partials = np.empty((len(s), -(-n_terms // _SERIES_BLOCK)), dtype=np.complex128)
    for b, lo in enumerate(range(1, n_terms + 1, _SERIES_BLOCK)):
        logs, weights = columns(np.arange(lo, min(lo + _SERIES_BLOCK, n_terms + 1)))
        buf = np.empty((min(per, len(s)), len(logs)), dtype=np.complex128)
        for p0 in range(0, len(s), per):
            pts = s[p0 : p0 + per, None]
            terms = np.multiply(-pts, logs, out=buf[: len(pts)])
            np.exp(terms, out=terms)
            terms *= weights
            partials[p0 : p0 + per, b] = terms.sum(axis=1)
    return partials.sum(axis=1)


# Abel summation of the tail.  The coefficients' partial sums A(n) cycle
# through 0, 1, 1 + xi, 1, 0 (n mod 5) with mean A_MEAN = (3 + xi)/5, so
#   sum_{n>N} a(n) n^-s = (A_MEAN - A(N)) N^-s + s (s+1) int_N^oo B_N x^(-s-2) dx
# with B_N(x) = int_N^x (A - A_MEAN), which is periodic and piecewise linear
# with nodes at the integers: B_N(N + j) = C(r + j) - C(r), r = N mod 5, on
# the cumulative C(j) = sum_{k<j} (A(k) - A_MEAN), j = 0..5, C(5) = 0.
_A_PERIOD = np.cumsum(COEFFICIENTS)
_A_MEAN = float(_A_PERIOD.mean())
_C_PERIOD = np.concatenate(([0.0], np.cumsum(_A_PERIOD - _A_MEAN)))
# max |B_N| for each phase r: A_MEAN at r = 0, 2 A_MEAN at r = 1 and 4
_B_MAX = np.array([np.abs(_C_PERIOD - _C_PERIOD[r]).max() for r in range(5)])


def _series_many(s, n_terms: int):
    """(values, error bounds): the Abel-corrected partial sums of
    `f_series` at every point of s, all with Re s > 1, by one `_brute_sum`.

    The value is S_N + (A_MEAN - A(N)) N^-s, S_N the plain partial sum to
    N = n_terms, and its distance from f is at most
    max|B_N| |s| |s+1| N^(-sigma-1) / (sigma + 1), sigma = Re s."""
    arr, _ = as_points(s)
    if not np.all(arr.real > 1.0):
        raise DomainError(f"partial sums require Re s > 1, got {arr.real.min()}")
    if n_terms < 1:
        raise DomainError("n_terms must be a positive integer")

    def columns(n):
        n = n[n % 5 != 0]  # a(0) = 0
        return np.log(n), COEFFICIENTS[n % 5]

    log_n = math.log(n_terms)
    sigma = arr.real
    values = _brute_sum(arr, n_terms, columns) + (
        (_A_MEAN - _A_PERIOD[n_terms % 5]) * np.exp(-arr * log_n)
    )
    bounds = (
        _B_MAX[n_terms % 5] * np.abs(arr) * np.abs(arr + 1.0)
        * np.exp(-(sigma + 1.0) * log_n) / (sigma + 1.0)
    )
    return values, bounds


def f_series(s, n_terms: int) -> FnValue:
    """The Dirichlet series summed to n_terms by Abel summation, Re s > 1
    only; the same value as the point gets in any `_series_many` batch.

    value is S_N + (A_MEAN - A(N)) N^-s: the plain partial sum S_N to
    N = n_terms plus the leading term of its tail, where A(N) is the
    coefficients' partial sum and A_MEAN = (3 + xi)/5 its mean.
    est_abs_err is the bound max|B_N| |s| |s+1| N^(-Re s - 1) / (Re s + 1)
    on the rest, B_N(x) = int_N^x (A - A_MEAN) (max|B_N| = A_MEAN for N a
    multiple of 5, at most 2 A_MEAN).  It uses no Euler-Maclaurin and no
    Hurwitz sum: the op exists as the independent oracle for the
    continued evaluator.
    """
    arr, _ = as_points(s)
    if len(arr) != 1:
        raise DomainError("f_series takes a single point")
    values, errs = _series_many(arr, n_terms)
    return FnValue(ComplexPoint.from_complex(arr[0]), ComplexPoint.from_complex(values[0]), errs[0])


# ----------------------------------------------------------------------
# derivative
# ----------------------------------------------------------------------


def f_prime(s) -> ComplexPoint:
    """df/ds at a single point, from the same pass that evaluates f.

    Every piece is differentiated in closed form: the direct block, the
    Euler-Maclaurin tails, the deflated pole terms and, for Re s <= -1,
    the reflected form, which stays exact at the trivial zeros.
    """
    arr, _ = as_points(s)
    if len(arr) != 1:
        raise DomainError("f_prime takes a single point")
    _, derivs, _ = _evaluate(arr, True)
    return ComplexPoint.from_complex(complex(derivs[0]))


# ----------------------------------------------------------------------
# functional-equation residual
# ----------------------------------------------------------------------


def functional_eq_residual(s):
    """Relative size of f(s) - X(s) f(1-s): the library's master check.

    Scalar in, float out; arrays in, arrays out (one f_batch call over s
    and 1 - s).  Raises PoleError at s = 2, 4, 6, ... where X has poles.
    """
    arr, was_scalar = as_points(s)
    xv, _, _ = _x_many(arr)
    vals, _ = f_batch(np.concatenate((arr, 1.0 - arr)))
    here, mirror = vals[: len(arr)], vals[len(arr) :]
    res = np.abs(here - xv * mirror) / (np.abs(here) + np.abs(mirror) + 1e-300)
    return float(res[0]) if was_scalar else res


# ----------------------------------------------------------------------
# rotated critical-line form
# ----------------------------------------------------------------------


def _rotated_line(t: np.ndarray) -> np.ndarray:
    """exp(-i theta(t)/2) f(1/2 + it) at every height of t, complex: its
    imaginary part is the rounding that `z_function` checks and drops.
    Fixed blocks of _POINT_BLOCK heights keep memory bounded."""
    out = np.empty(len(t), dtype=np.complex128)
    for lo in range(0, len(t), _POINT_BLOCK):
        s = 0.5 + 1j * t[lo : lo + _POINT_BLOCK]
        vals, _, _ = _evaluate(s, False)
        out[lo : lo + _POINT_BLOCK] = np.exp(-0.5j * _log_x(s, True)[1]) * vals
    return out


def z_function(t):
    """Real rotated form Z(t) = exp(-i theta(t)/2) f(1/2 + it), with
    theta(t) = arg X(1/2 + it), continuous and 0 at t = 0 (`xratio._log_x`).

    The rotation cancels the phase the reflection identity forces on
    the critical line, so Z is real there; sign changes of Z are line
    zeros of f.  Scalar in, scalar out; arrays accepted, and evaluated in
    fixed blocks (see `_rotated_line`), bit-identical to single heights.
    """
    tarr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    was_scalar = np.asarray(t).ndim == 0
    if not np.all(np.isfinite(tarr)):
        raise DomainError("non-finite height t")
    rotated = _rotated_line(tarr)
    bound = 1e-8 * (1.0 + np.abs(rotated.real))
    if np.any(np.abs(rotated.imag) > bound):
        worst = float(np.abs(rotated.imag).max())
        warnings.warn(
            f"rotated value kept an imaginary part of {worst:.3g}",
            AccuracyWarning,
            stacklevel=2,
        )
    out = rotated.real
    return float(out[0]) if was_scalar else out


def pq(sigma, t):
    """The squared-modulus pair (P, Q) = (|f(s)|^2, |f(1-s)|^2).

    Computed literally as f(s) f(s*) and f(1-s) f(1-s*), every factor at
    every point in one f_batch call; conjugate symmetry makes both
    products real, which is checked (relative 1e-10, one warning for the
    first product that is not) before the imaginary parts are discarded.
    sigma and t broadcast: scalars in, a pair of floats out; arrays in, a
    pair of arrays out.
    """
    sigma, t = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in (sigma, t)))
    s = (sigma + 1j * t).ravel()
    vals, _ = f_batch(np.concatenate((s, 1.0 - s, np.conj(s), 1.0 - np.conj(s))))
    # rows P and Q, multiplied in real arithmetic, which rounds like the
    # complex scalar product (numpy's complex array product can differ)
    a, b = vals.reshape(2, 2, -1)
    re = a.real * b.real - a.imag * b.imag
    im = a.real * b.imag + a.imag * b.real
    bad = np.abs(im) > 1e-10 * (np.hypot(re, im) + 1e-300)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        warnings.warn(
            f"{'PQ'[row]} kept an imaginary part of {im[row, col]:.3g}",
            AccuracyWarning,
            stacklevel=2,
        )
    p, q = re.reshape(2, *sigma.shape)
    return (float(p), float(q)) if sigma.ndim == 0 else (p, q)
