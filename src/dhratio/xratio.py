"""The meromorphic reflection ratio and its logarithmic derivatives.

The ratio

    X(s) = (5/pi)^(1/2 - s) Gamma(1 - s/2) / Gamma((1 + s)/2)

carries the reflection identity of the series module: values at s and
1 - s are tied by f(s) = X(s) f(1 - s).  X has simple zeros at the
negative odd integers, simple poles at the positive even integers, and
maps the line Re s = 1/2 onto the unit circle.

Everything here works in log form, and one kernel, `_log_x`, gives it:
by Legendre's duplication formula and the reflection formula,

    X(s) = (5/pi)^(1/2 - s) 2^s pi^(-1/2) cos(pi s/2) Gamma(1 - s),

so log|X| and arg X take one Gamma, in real arithmetic
(`specfun._log_abs_gamma_damped`), and one cosine reduced at the nearest
odd integer.  The argument is the continuous one of the two-Gamma form,
L(s) = (1/2 - s) ln(5/pi) + lgamma(1 - s/2) - lgamma((1 + s)/2) with
principal lgamma, so arg X = Im L: 0 on (-1, 2) and on the line at
t = 0, continuous in each half-plane.  Products like X(s) X(1 - s*) are
formed by adding log forms before a single exp, which keeps reflection
defects at roundoff level even where |X| alone would overflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleError
from .specfun import (
    ELEMENT_BUDGET,
    ComplexPoint,
    as_points,
    _log_abs_gamma_damped,
    _MAX_GAMMA_RE,
    _check_height,
    _off_the_poles,
    digamma,
    log_abs_gamma,
)

__all__ = [
    "RatioValue",
    "x_of",
    "logabsx_many",
    "reflection_defect",
    "reciprocity_defect",
    "trivial_zeros",
    "poles",
    "dlogabsx_dt",
    "dsigma_logabsx",
    "gamma_modulus_dt",
]

_LN_5_OVER_PI = math.log(5.0 / math.pi)
_LN2 = math.log(2.0)
_HALF_LN_PI = 0.5 * math.log(math.pi)
_LN_HALF_PI = math.log(0.5 * math.pi)
# ln 2 - ln(5/pi), the t-coefficient of arg X's elementary factors
_LN_2PI_OVER_5 = math.log(0.4 * math.pi)
# ln(pi/2) - ln(pi)/2, the constant of log|X| at s = 1, 3, 5, ...
_LN_HALF_SQRT_PI = math.log(0.5 * math.sqrt(math.pi))
# Gamma(1 - s) shifts ceil(9 + Re s) steps, in the kernel's budget up to here
_MAX_RE = 2038.0
# and log|Gamma(1 - s)| leaves float64 past 1 - Re s = specfun._MAX_GAMMA_RE
_MIN_RE = 1.0 - _MAX_GAMMA_RE
# Below here (1 + s)/2 is past digamma's shift budget of 2047 unit steps,
# and `dsigma_logabsx` reflects that factor
_REFLECT_RE = -4075.0
# Points per `_log_x` block, which bounds its log|Gamma| temporaries.  A
# quarter of the tracer's 8192-point bands (`analysis._BAND_POINTS`), so a
# band's kernel temporaries stay below the band's own grid: the curve's
# traced peak at step 0.02 is 1.0 MB (2.5 MB with whole-band blocks).  The
# kernel is elementwise, so no bit depends on the block.
_POINT_BLOCK = ELEMENT_BUDGET // 64


# ----------------------------------------------------------------------
# domain types
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RatioValue:
    """X at a point: complex value, log-modulus, continuous argument.

    At a zero of X the value is exactly 0, log_abs is -inf, the
    argument is undefined (NaN), and zero_flag is set.
    """

    at: ComplexPoint
    value: ComplexPoint
    log_abs: float
    arg_cont: float
    zero_flag: bool = False


def trivial_zeros(count: int) -> list[ComplexPoint]:
    """The first `count` zeros of X: -1, -3, -5, ..."""
    if count < 1:
        raise DomainError("count must be >= 1")
    return [ComplexPoint(-(2.0 * n + 1.0), 0.0) for n in range(count)]


def poles(count: int) -> list[ComplexPoint]:
    """The first `count` poles of X: 2, 4, 6, ..."""
    if count < 1:
        raise DomainError("count must be >= 1")
    return [ComplexPoint(2.0 * n + 2.0, 0.0) for n in range(count)]


# ----------------------------------------------------------------------
# the one kernel, and X itself
# ----------------------------------------------------------------------


def _check_region(sigma: np.ndarray) -> None:
    """X's region: DomainError past Re s = _MAX_RE and below _MIN_RE."""
    if sigma.max(initial=-math.inf) > _MAX_RE:
        raise DomainError(f"X takes Re s <= {_MAX_RE:g}, not Re s = {float(sigma.max())!r}")
    if sigma.min(initial=math.inf) < _MIN_RE:
        raise DomainError(f"X takes Re s >= {_MIN_RE:g}, not Re s = {float(sigma.min())!r}")


def _gamma_args(s):
    """The arguments 1 - s/2 and (1 + s)/2 of X's two Gamma factors."""
    return 1.0 - 0.5 * s, 0.5 * (1.0 + s)


def _cos_damped(sigma: np.ndarray, t: np.ndarray, arg: bool):
    """ln|cos(pi s/2)| - pi |t|/2 at s = sigma + it; with `arg`, (that,
    rem, half_turns) with arg cos(pi s/2) = rem + pi half_turns for t != 0.

    The real part is reduced at the nearest odd integer n, exactly where
    it matters (sigma - n is exact for sigma within a factor 2 of n):
    cos(pi s/2) = (-1)^((n+1)/2) sin(a + ib) with a = pi (sigma - n)/2 and
    b = pi t/2, so the zeros at the odd integers are exact.  Then |sin(a +
    ib)|^2 e^-2|b| = sin^2 a e^-2|b| + h^2 with h = (1 - e^-2|b|)/2, formed
    by expm1, so nothing overflows at height.  Where sin a is exactly 0,
    ln h is ln(pi/2) + ln|t| + ln(h/|b|), which keeps its digits however
    small (even subnormal) t is.  The argument, continuous in each
    half-plane and 0 as t -> 0 on (-1, 1), is sign(t) (arctan2(h cos a,
    (1 - h) sin a) - pi (n + 1)/2), from the same damped sinh and cosh.
    """
    n = 2.0 * np.floor(0.5 * sigma) + 1.0
    a = 0.5 * np.pi * (sigma - n)
    pt = np.pi * np.abs(t)
    em1 = np.expm1(-pt)
    sin_a = np.sin(a)
    sin2 = np.square(sin_a)
    out = np.zeros_like(t)
    np.log(sin2 * (1.0 + em1) + np.square(0.5 * em1), out=out, where=sin2 > 0.0)
    out *= 0.5
    zero = sin2 == 0.0
    if zero.any():
        out[zero] = _LN_HALF_PI + np.log(np.abs(t[zero])) + np.log(-em1[zero] / pt[zero])
    if not arg:
        return out
    side = np.sign(t)
    rem = side * np.arctan2(-0.5 * em1 * np.cos(a), (1.0 + 0.5 * em1) * sin_a)
    return out, rem, -side * (0.5 * (n + 1.0))


def _log_x(arr: np.ndarray, arg: bool = False):
    """(log|X|, arg X) at every point of a 1-D array, the second None
    unless `arg` is set: the one X kernel, behind `x_of`, `logabsx_many`,
    the reflection defects and the Z rotation.

        log|X| = (1/2 - sigma) ln(5/pi) + sigma ln 2 - ln(pi)/2
                 + ln|cos(pi s/2)| + log|Gamma(1 - s)|,
        arg X  = t ln(2 pi/5) + arg cos(pi s/2) + arg Gamma(1 - s),

    with the cosine's growth e^(pi |t|/2) and the Gamma's decay e^(-pi
    |t|/2) taken out of both before they are added (`_cos_damped`,
    `specfun._log_abs_gamma_damped`), so no digits go to cancelling them
    at height.  By rule:
      - log|X| = 0 on Re s = 1/2;
      - at s = 1, 3, 5, ... the cosine's zero cancels the pole of
        Gamma(1 - s), and |cos(pi s/2) Gamma(1 - s)| takes its limit
        pi / (2 (2m)!) at s = 2m + 1 (so X(1) = pi/sqrt(5));
      - on the real axis arg X = pi (N_low - N_up), N_up and N_low the
        negative factors of lgamma's shifts of 1 - s/2 and (1 + s)/2, as
        Im L reads there: -pi on (2, 4), pi on (-3, -1);
      - poles s = 2, 4, ... give +inf, zeros s = -1, -3, ... give -inf,
        and the argument is NaN at both.
    Past Re s = 2038 the shift of Gamma(1 - s) exceeds its budget, and
    below Re s = -2.5e305 log|Gamma(1 - s)| leaves float64; such a point
    is refused with a DomainError that names the limit it passed.  The
    points go in fixed blocks of _POINT_BLOCK, so memory stays bounded for
    any count, and a point's bits do not depend on its batch or block;
    conjugate points get equal moduli and opposite arguments, bit for bit.
    """
    log_abs = np.empty(len(arr))
    angle = np.empty(len(arr)) if arg else None
    for lo in range(0, len(arr), _POINT_BLOCK):
        block = slice(lo, lo + _POINT_BLOCK)
        sigma, t, res = arr[block].real, arr[block].imag, log_abs[block]
        ints = (t == 0.0) & (sigma == np.floor(sigma))
        odd = np.mod(sigma, 2.0) == 1.0
        pole, zero = ints & (sigma >= 2.0) & ~odd, ints & (sigma <= -1.0) & odd
        limit = ints & (sigma >= 1.0) & odd
        res[pole], res[zero] = math.inf, -math.inf
        n = sigma[limit]
        fact = np.array([math.lgamma(v) for v in n.tolist()])  # ln (n - 1)!
        res[limit] = (0.5 - n) * _LN_5_OVER_PI + n * _LN2 + _LN_HALF_SQRT_PI - fact
        rest = ~(pole | zero | limit) & (arg | (sigma != 0.5))  # the line needs only arg X
        if rest.any():
            sg, ts = sigma[rest], t[rest]
            _check_region(sg)
            cos = _cos_damped(sg, ts, arg)
            gam = _log_abs_gamma_damped(1.0 - sg, -ts, arg)
            if arg:
                (cos, cos_rem, cos_turns), (gam, gam_rem, gam_turns) = cos, gam
                turns = cos_turns + gam_turns
                angle[block][rest] = ts * _LN_2PI_OVER_5 + cos_rem + gam_rem + np.pi * turns
            res[rest] = (0.5 - sg) * _LN_5_OVER_PI + sg * _LN2 - _HALF_LN_PI + cos + gam
        res[sigma == 0.5] = 0.0
        if arg:  # on the real axis Im L counts lgamma's negative shift factors
            axis = t == 0.0
            low, up = np.ceil(-0.5 * (1.0 + sigma[axis])), np.ceil(0.5 * sigma[axis] - 1.0)
            angle[block][axis] = np.pi * (np.maximum(low, 0.0) - np.maximum(up, 0.0))
            angle[block][pole | zero] = math.nan
    return log_abs, angle


def _x_many(arr: np.ndarray):
    """(X, log|X|, arg X) on an array, from `_log_x`: PoleError at s = 2,
    4, ...; X = 0 at s = -1, -3, ...; X real on the real axis; DomainError
    where |X| overflows float64 (log|X| stays finite there, and
    `logabsx_many` returns it)."""
    log_abs, angle = _log_x(arr, True)
    if (log_abs == math.inf).any():
        raise PoleError(f"X has a pole at s = {complex(arr[log_abs == math.inf][0])}")
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.exp(log_abs + 1j * angle)
    values[log_abs == -math.inf] = 0.0
    values.imag[arr.imag == 0.0] = 0.0
    bad = ~np.isfinite(values)
    if bad.any():
        raise DomainError(
            f"|X| overflows float64 at s = {complex(arr[bad][0])} "
            f"(log|X| = {log_abs[bad][0]:.6g}; logabsx_many returns it)"
        )
    return values, log_abs, angle


def x_of(s) -> RatioValue:
    """Evaluate X at one point.

    Raises PoleError at s = 2, 4, 6, ...; returns a zero-flagged
    record (value exactly 0) at s = -1, -3, -5, ...  Raises DomainError
    where |X| overflows float64 (Re s below about -177 at small heights,
    less far out higher up; `logabsx_many` returns the finite log|X|, down
    to Re s = -2.5e305) and past Re s = 2038, where |X| has long
    underflowed to 0.
    """
    arr, _ = as_points(s)
    if len(arr) != 1:
        raise DomainError("x_of takes a single point; use logabsx_many for grids")
    values, log_abs, angle = _x_many(arr)
    return RatioValue(
        at=ComplexPoint.from_complex(complex(arr[0])),
        value=ComplexPoint.from_complex(complex(values[0])),
        log_abs=float(log_abs[0]),
        arg_cont=float(angle[0]),
        zero_flag=bool(log_abs[0] == -math.inf),
    )


def logabsx_many(s):
    """log|X| on arbitrary point collections, for field scans: `_log_x`
    without the argument, so neither the cosine nor the Gamma pays for it.
    Exactly 0 on Re s = 1/2, by rule.  Exact poles evaluate to +inf and
    exact zeros to -inf instead of raising, so grid passes over windows
    containing them classify their neighborhoods by sign like any other
    cell.  DomainError past Re s = 2038 and below Re s = -2.5e305.  Scalar
    in, float out.
    """
    arr, was_scalar = as_points(s)
    out, _ = _log_x(arr)
    return float(out[0]) if was_scalar else out


# ----------------------------------------------------------------------
# reflection identities
# ----------------------------------------------------------------------


def _product_defect(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """|X(first) X(second) - 1| pointwise as |exp(L(first) + L(second)) - 1|,
    L = log|X| + i arg X, the modulus by hypot like a complex scalar's abs
    (numpy's abs on a complex array can differ from it in the last bit).
    PoleError if any point is a pole or zero of X."""
    both = np.concatenate((first.ravel(), second.ravel()))
    log_abs, angle = _log_x(both, True)
    if np.isinf(log_abs).any():
        raise PoleError(f"a pole or zero of X at s = {complex(both[np.isinf(log_abs)][0])}")
    combos = log_abs + 1j * angle
    defect = np.expm1(combos[: first.size] + combos[first.size :])
    return np.hypot(defect.real, defect.imag).reshape(first.shape)


def reflection_defect(t, epsilon):
    """max deviation of X(s+) X(s-*) and X(s-) X(s+*) from 1 on the mirror
    pairs s+ = 1/2 + epsilon + it and s- = 1/2 - epsilon + it.

    Each product pairs a point with the conjugate-mirror partner
    1 minus it, so both are identities; the defect measures evaluation
    error only.  t and epsilon broadcast: scalars in, float out; arrays
    in, arrays out.  Raises DomainError unless every t and epsilon is
    finite, and PoleError if any point is a pole or zero of X.
    """
    t, epsilon = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in (t, epsilon)))
    if not (np.isfinite(t).all() and np.isfinite(epsilon).all()):
        raise DomainError("mirror pair parameters must be finite")
    s = (0.5 + np.stack((epsilon, -epsilon))) + 1j * t  # rows s+ and s-
    defect = _product_defect(s, np.conj(s[::-1])).max(axis=0)
    return float(defect) if t.ndim == 0 else defect


def reciprocity_defect(n, delta):
    """|X(-(2n+1) + delta) X(2n+2 - delta) - 1| on the real axis.

    The two arguments sum to 1, so this probes the zero/pole
    reciprocity of X as the delta -> 0 reflection limit.  n and delta
    broadcast: scalars in, float out; arrays in, arrays out.
    """
    n, delta = np.broadcast_arrays(np.asarray(n), np.asarray(delta))
    if np.any(n < 0):
        raise DomainError("n must be >= 0")
    if not np.all(delta > 0.0):
        raise DomainError("delta must be positive")
    defect = _product_defect(-(2.0 * n + 1.0) + delta + 0.0j, (2.0 * n + 2.0) - delta + 0.0j)
    return float(defect) if n.ndim == 0 else defect


# ----------------------------------------------------------------------
# derivative series
# ----------------------------------------------------------------------

# Terms of the two derivative series before their midpoint tails, and the
# points per block of their sums, which bounds the block to ELEMENT_BUDGET terms.
_N_TERMS = 10_000
_SERIES_BLOCK = ELEMENT_BUDGET // _N_TERMS
_LOG_MAX = math.log(np.finfo(float).max)  # exp stays in float64 up to here


def _series_sum(term, c: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_{n=1.._N_TERMS} term(n, c, t) at every point (c, t): one pairwise
    sum along n per point, over blocks of _SERIES_BLOCK points."""
    n = np.arange(1.0, _N_TERMS + 1.0)
    out = np.empty(len(c))
    for lo in range(0, len(c), _SERIES_BLOCK):
        part = slice(lo, lo + _SERIES_BLOCK)
        out[part] = term(n, c[part, None], t[part, None]).sum(axis=1)
    return out


def _midpoint_tail(c: np.ndarray, t: np.ndarray, c2=None) -> np.ndarray:
    """sum_{n > _N_TERMS} g(2n - c), g(u) = 1/(u^2 + t^2), less the same sum
    at c2 if given: the midpoint rule's integral from _N_TERMS + 1/2 on,
    arctan(|t| / x) / (2 |t|) with x = 2 _N_TERMS + 1 - c, plus its first
    correction, 1/24 of d/dn g(2n - c) = -4x / (x^2 + t^2)^2 there, which
    leaves O(_N_TERMS^-5).  A difference takes its two arctangents, both
    near pi/2 at height, as one arctan(|t| (c - c2) / (t^2 + x x2)), for x
    and x2 > 0.  The integral's share is 0 where t = 0, where every caller
    multiplies the sum by t."""
    a = np.abs(t)
    x = 2.0 * _N_TERMS + 1.0 - c
    slope = -4.0 * x / (x * x + a * a) / (x * x + a * a)
    if c2 is None:
        angle = np.arctan2(a, x)
    else:
        x2 = 2.0 * _N_TERMS + 1.0 - c2
        angle = np.arctan(a * (c - c2) / (a * a + x * x2))
        slope += 4.0 * x2 / (x2 * x2 + a * a) / (x2 * x2 + a * a)
    return np.divide(angle, 2.0 * a, out=np.zeros_like(a), where=a > 0.0) + slope / 24.0


def dlogabsx_dt(s):
    """d(log|X|)/dt as the partial sum

        sum_{n=1.._N_TERMS} 8 t (1/2 - sigma) (n - 1/4)
                            / (|it + 2n + sigma - 1|^2 |it + 2n - sigma|^2)

    plus its tail.  The term is exactly t (1/d1 - 1/d2), d1 and d2 the
    two squared moduli, so the tail is t times the difference of the
    corrected midpoint tails of sum 1/d1 and sum 1/d2 (`_midpoint_tail`,
    c = 1 - sigma less c2 = sigma), which leaves O(_N_TERMS^-5).  Terms
    decay like n^-3; the sum vanishes identically on the line sigma =
    1/2 (every term carries the factor 1/2 - sigma) and its sign
    elsewhere is the sign of t (1/2 - sigma).  Finite at the zeros of X,
    where the modulus-weighted form would vanish.  Scalar in, float out;
    arrays in, arrays out.

    The domain is X's right limit and its mirror, 1 - 2038 <= Re s <=
    2038 (the series is odd under s -> 1 - conj(s)), and |Im s| <= 1e8,
    the library's height limit; past either a DomainError names it.
    Inside, no term overflows.  Against mpmath the relative error is at
    most 2e-16 at 0.3 + {2, 30, 1e3, 1e4, 3e4, 1e6, 1e8}i, 1.7 + 30i,
    -2036.5 + 100i, 2038 + 5i and 1500 + 1e4i.
    """

    def term(n, sigma, t):
        d1 = (2.0 * n + sigma - 1.0) ** 2 + t * t
        d2 = (2.0 * n - sigma) ** 2 + t * t
        return (n - 0.25) / (d1 * d2)

    arr, was_scalar = as_points(s)
    sigma, t = arr.real, arr.imag
    outside = (sigma > _MAX_RE) | (sigma < 1.0 - _MAX_RE)
    if outside.any():
        far = float(sigma[outside][0])
        raise DomainError(f"dlogabsx_dt takes {1.0 - _MAX_RE:g} <= Re s <= {_MAX_RE:g}, not Re s = {far!r}")
    _check_height(arr, "dlogabsx_dt")
    total = _series_sum(term, sigma, t)
    tail = _midpoint_tail(1.0 - sigma, t, sigma)
    out = np.where(sigma == 0.5, 0.0, 8.0 * t * (0.5 - sigma) * total + t * tail)
    return float(out[0]) if was_scalar else out


def dsigma_logabsx(s):
    """d(log|X|)/dsigma = -ln(5/pi) - Re[psi(1 - s/2) + psi((1+s)/2)]/2.

    Scalar in, float out; arrays in, arrays out.  X's region: past Re s =
    2038 and below Re s = -2.5e305 a DomainError names X's limit.  Below
    Re s = -4075, where digamma could not shift (1 + s)/2 far enough, that
    factor takes the reflection formula Re psi(w) = Re psi(1 - w) - pi Re
    cot(pi w).  Raises PoleError when either digamma argument at any point
    is a non-positive integer (the poles and zeros of X).
    """
    arr, was_scalar = as_points(s)
    _check_region(arr.real)
    upper, lower = _gamma_args(arr)
    psi_up = digamma(upper).real
    _off_the_poles(lower, "digamma")
    far = arr.real < _REFLECT_RE
    psi_low = np.empty(len(arr))
    psi_low[~far] = digamma(lower[~far]).real
    if far.any():
        w = lower[far]
        a = np.pi * (w.real - np.round(w.real))
        em1 = np.expm1(-2.0 * np.pi * np.abs(w.imag))
        # Re cot(a + ib) = sin 2a / (2 (sinh^2 b + sin^2 a)), above and below
        # times e^(-2|b|), which keeps both finite; 0 where sin 2a is
        num = np.sin(2.0 * a) * (1.0 + em1)
        den = 0.5 * em1 * em1 + 2.0 * np.square(np.sin(a)) * (1.0 + em1)
        re_cot = np.divide(num, den, out=np.zeros_like(num), where=num != 0.0)
        psi_low[far] = digamma(1.0 - w).real - np.pi * re_cot
    out = -_LN_5_OVER_PI - 0.5 * (psi_up + psi_low)
    return float(out[0]) if was_scalar else out


def gamma_modulus_dt(s, which: str):
    """t-derivative of a Gamma-factor modulus as a partial sum.

    which = "upper":  d/dt |Gamma(1 - s/2)|
                        = -t |Gamma(1 - s/2)| sum_n 1/|sigma + it - 2n|^2
    which = "lower":  d/dt |Gamma((1+s)/2)|
                        = -t |Gamma((1+s)/2)| sum_n 1/|sigma + it + 2n - 1|^2

    with n running 1.._N_TERMS, plus the corrected midpoint tail of the sum
    (`_midpoint_tail`, c = sigma upper or 1 - sigma lower), which leaves
    O(_N_TERMS^-5) of a series whose plain tail is 1/(4 _N_TERMS).
    Negative for t > 0 and positive for t < 0: both moduli decrease
    monotonically away from the real axis.  Scalar in, float out; arrays
    in, arrays out.

    Where the modulus or a term would leave float64 a DomainError names
    the limit: |s| <= 1e154 (past it (2n - c)^2 + t^2 overflows), log|Gamma|
    <= 709.783, 1e-153 or more from a pole of the factor (the nearest term
    passes 1e306 there; PoleError at one), and log Gamma's shift budget.
    Inside, the result is finite and no numpy warning is raised.
    """
    if which not in ("upper", "lower"):
        raise DomainError(f"which must be 'upper' or 'lower', got {which!r}")
    arr, was_scalar = as_points(s)
    sigma, t = arr.real, arr.imag
    c = sigma if which == "upper" else 1.0 - sigma
    log_mod = log_abs_gamma(_gamma_args(arr)[which == "lower"])
    pole_gap = np.hypot(2.0 * np.clip(np.rint(0.5 * c), 1.0, _N_TERMS) - c, t)
    for bad, limit in (
        (np.abs(arr) > 1e154, "|s| <= 1e+154"),
        (log_mod > _LOG_MAX, f"log|Gamma| <= {_LOG_MAX:.6g} for the {which} factor"),
        (pole_gap < 1e-153, "points 1e-153 or more from its poles"),
    ):
        if bad.any():
            raise DomainError(f"gamma_modulus_dt takes {limit}, not s = {complex(arr[bad][0])}")
    total = _series_sum(lambda n, c, t: 1.0 / ((2.0 * n - c) ** 2 + t * t), c, t)
    total += _midpoint_tail(c, t)
    out = -t * np.exp(log_mod) * total
    return float(out[0]) if was_scalar else out
