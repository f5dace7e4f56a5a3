"""The meromorphic reflection ratio and its logarithmic derivatives.

The ratio

    X(s) = (5/pi)^(1/2 - s) Gamma(1 - s/2) / Gamma((1 + s)/2)

carries the reflection identity of the series module: values at s and
1 - s are tied by f(s) = X(s) f(1 - s).  X has simple zeros at the
negative odd integers, simple poles at the positive even integers, and
maps the line Re s = 1/2 onto the unit circle.

Everything here works in log-modulus form: the combination

    L(s) = (1/2 - s) ln(5/pi) + lgamma(1 - s/2) - lgamma((1 + s)/2)

is evaluated once, giving log|X| = Re L and a continuous argument Im L,
and products like X(s) X(1 - s*) are formed by adding L-values before a
single exp, which keeps reflection defects at roundoff level even where
|X| alone would overflow.

The field scans need only log|X|, and `logabsx_many` takes it from one
Gamma in real arithmetic: by Legendre's duplication formula and the
reflection formula, X(s) = (5/pi)^(1/2 - s) 2^s pi^(-1/2) cos(pi s/2)
Gamma(1 - s).  It is exactly 0 on Re s = 1/2 by rule, and takes the
limit of cos(pi s/2) Gamma(1 - s) at s = 1, 3, 5, ...
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
    digamma,
    lgamma,
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
# ln(pi/2) - ln(pi)/2, the constant of log|X| at s = 1, 3, 5, ...
_LN_HALF_SQRT_PI = math.log(0.5 * math.sqrt(math.pi))
# Points per `logabsx_many` block, which bounds its log|Gamma| temporaries.
_POINT_BLOCK = ELEMENT_BUDGET // 16


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


# ----------------------------------------------------------------------
# pole / zero bookkeeping
# ----------------------------------------------------------------------


def _real_integer_mask(arr: np.ndarray) -> np.ndarray:
    return (arr.imag == 0.0) & (arr.real == np.floor(arr.real))

def _pole_mask(arr: np.ndarray) -> np.ndarray:
    """True at s = 2, 4, 6, ... where Gamma((1+s)/2) stays finite but
    Gamma(1 - s/2) blows up."""
    ints = _real_integer_mask(arr)
    return ints & (arr.real >= 2.0) & (np.mod(arr.real, 2.0) == 0.0)

def _zero_mask(arr: np.ndarray) -> np.ndarray:
    """True at s = -1, -3, -5, ... where Gamma((1+s)/2) blows up."""
    ints = _real_integer_mask(arr)
    return ints & (arr.real <= -1.0) & (np.mod(arr.real, 2.0) == 1.0)


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
# the log form and X itself
# ----------------------------------------------------------------------


def _gamma_args(s):
    """The arguments 1 - s/2 and (1 + s)/2 of X's two Gamma factors."""
    return 1.0 - 0.5 * s, 0.5 * (1.0 + s)


def _log_form(arr: np.ndarray) -> np.ndarray:
    """L(s) = (1/2 - s) ln(5/pi) + lgamma(1 - s/2) - lgamma((1+s)/2).

    The one place L is formed; `logabsx_many` takes Re L without it.  On
    s = 1/2 + it, Im L is the rotation phase of `dhfun.z_function` (both
    lgamma arguments keep real part 3/4 there, so it is continuous in t
    and 0 at t = 0).  Callers must keep pole and zero points of X out of
    `arr`; the lgamma pole check converts stray hits into PoleError.
    """
    upper, lower = (lgamma(arg) for arg in _gamma_args(arr))
    return (0.5 - arr) * _LN_5_OVER_PI + upper - lower


def _x_many(arr: np.ndarray):
    """(X, L) on an array: PoleError at s = 2, 4, ...; X = 0 and L = -inf
    at s = -1, -3, ...; DomainError where |X| overflows float64 (log|X|
    = Re L stays finite there, and `logabsx_many` returns it).  The
    points go in fixed blocks of _POINT_BLOCK, so memory stays bounded
    for any count."""
    pole = _pole_mask(arr)
    if pole.any():
        raise PoleError(f"X has a pole at s = {complex(arr[pole][0])}")
    zero = _zero_mask(arr)
    combos = np.full(len(arr), complex(-math.inf, math.nan))
    values = np.zeros(len(arr), dtype=np.complex128)
    for lo in range(0, len(arr), _POINT_BLOCK):
        part = slice(lo, lo + _POINT_BLOCK)
        rest = ~zero[part]
        combos[part][rest] = _log_form(arr[part][rest])
        with np.errstate(over="ignore", invalid="ignore"):
            values[part][rest] = np.exp(combos[part][rest])
    bad = ~np.isfinite(values)
    if bad.any():
        raise DomainError(
            f"|X| overflows float64 at s = {complex(arr[bad][0])} "
            f"(log|X| = {combos[bad][0].real:.6g}; logabsx_many returns it)"
        )
    return values, combos


def x_of(s) -> RatioValue:
    """Evaluate X at one point.

    Raises PoleError at s = 2, 4, 6, ...; returns a zero-flagged
    record (value exactly 0) at s = -1, -3, -5, ...  Raises DomainError
    where |X| overflows float64 (Re s below about -177 at small heights,
    less far out higher up); `logabsx_many` returns the finite log|X|.
    """
    arr, _ = as_points(s)
    if len(arr) != 1:
        raise DomainError("x_of takes a single point; use logabsx_many for grids")
    values, combos = _x_many(arr)
    return RatioValue(
        at=ComplexPoint.from_complex(complex(arr[0])),
        value=ComplexPoint.from_complex(complex(values[0])),
        log_abs=float(combos[0].real),
        arg_cont=float(combos[0].imag),
        zero_flag=bool(_zero_mask(arr)[0]),
    )


def _log_abs_cos_damped(sigma: np.ndarray, t: np.ndarray) -> np.ndarray:
    """ln|cos(pi s/2)| - pi |t|/2 at s = sigma + it.

    The real part is reduced at the nearest odd integer n, exactly where
    it matters (sigma - n is exact for sigma within a factor 2 of n):
    |cos(pi s/2)| = |sin(a + ib)| with a = pi (sigma - n)/2 and b = pi t/2,
    so the zeros at the odd integers are exact.  Then |sin(a + ib)|^2
    e^-2|b| = sin^2 a e^-2|b| + h^2 with h = (1 - e^-2|b|)/2, formed by
    expm1, so nothing overflows at height.  Where sin a is exactly 0, ln h
    is ln(pi/2) + ln|t| + ln(h/|b|), which keeps its digits however small
    (even subnormal) t is."""
    a = 0.5 * np.pi * (sigma - (2.0 * np.floor(0.5 * sigma) + 1.0))
    pt = np.pi * np.abs(t)
    em1 = np.expm1(-pt)
    sin2 = np.square(np.sin(a))
    out = np.zeros_like(t)
    np.log(sin2 * (1.0 + em1) + np.square(0.5 * em1), out=out, where=sin2 > 0.0)
    out *= 0.5
    zero = sin2 == 0.0
    if zero.any():
        out[zero] = _LN_HALF_PI + np.log(np.abs(t[zero])) + np.log(-em1[zero] / pt[zero])
    return out


def logabsx_many(s):
    """log|X| on arbitrary point collections, for field scans, from one
    Gamma in real arithmetic.  Legendre's duplication formula and the
    reflection formula give X(s) = (5/pi)^(1/2 - s) 2^s pi^(-1/2)
    cos(pi s/2) Gamma(1 - s), so

        log|X| = (1/2 - sigma) ln(5/pi) + sigma ln 2 - ln(pi)/2
                 + ln|cos(pi s/2)| + log|Gamma(1 - s)|,

    with the cosine reduced at the nearest odd integer, and the cosine's
    growth e^(pi |t|/2) and the Gamma's decay e^(-pi |t|/2) taken out of
    both before they are added (`_log_abs_cos_damped`,
    `specfun._log_abs_gamma_damped`), so no digits go to cancelling them
    at height.  Exactly 0 on Re s = 1/2, by rule.  At s = 1, 3, 5, ... the
    cosine's zero cancels the pole of Gamma(1 - s), and |cos(pi s/2)
    Gamma(1 - s)| takes its limit pi / (2 (2m)!) at s = 2m + 1 (so X(1) =
    pi/sqrt(5)).  Past Re s = 2038 the shift of Gamma(1 - s) exceeds its
    budget, and DomainError is raised.

    Exact poles evaluate to +inf and exact zeros to -inf instead of
    raising, so grid passes over windows containing them classify
    their neighborhoods by sign like any other cell.  The points go in
    fixed blocks of _POINT_BLOCK, so memory stays bounded for any count,
    and a point's bits do not depend on its batch or block.  Scalar in,
    float out.
    """
    arr, was_scalar = as_points(s)
    out = np.empty(len(arr))
    for lo in range(0, len(arr), _POINT_BLOCK):
        part, res = arr[lo : lo + _POINT_BLOCK], out[lo : lo + _POINT_BLOCK]
        sigma, t = part.real, part.imag
        line = sigma == 0.5
        res[line] = 0.0
        rest = ~line
        ints = _real_integer_mask(part)
        if ints.any():
            pole, zero = _pole_mask(part), _zero_mask(part)
            limit = ints & (sigma >= 1.0) & (np.mod(sigma, 2.0) == 1.0)
            res[pole] = math.inf
            res[zero] = -math.inf
            n = sigma[limit]
            fact = np.array([math.lgamma(v) for v in n.tolist()])  # ln (n - 1)!
            res[limit] = (0.5 - n) * _LN_5_OVER_PI + n * _LN2 + _LN_HALF_SQRT_PI - fact
            rest &= ~(pole | zero | limit)
        if rest.any():
            sg, ts = sigma[rest], t[rest]
            res[rest] = (
                (0.5 - sg) * _LN_5_OVER_PI
                + sg * _LN2
                - _HALF_LN_PI
                + _log_abs_cos_damped(sg, ts)
                + _log_abs_gamma_damped(1.0 - sg, -ts)
            )
    return float(out[0]) if was_scalar else out


# ----------------------------------------------------------------------
# reflection identities
# ----------------------------------------------------------------------


def _product_defect(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """|X(first) X(second) - 1| pointwise as |exp(L(first) + L(second)) - 1|,
    the modulus by hypot like a complex scalar's abs (numpy's abs on a
    complex array can differ from it in the last bit)."""
    combos = _log_form(np.concatenate((first.ravel(), second.ravel())))
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
    hit = _pole_mask(s.ravel()) | _zero_mask(s.ravel())
    if hit.any():
        raise PoleError(f"a mirror pair touches a pole or zero of X at {s.ravel()[hit][0]}")
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


def _series_sum(term, c: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_{n=1.._N_TERMS} term(n, c, t) at every point (c, t): one pairwise
    sum along n per point, over blocks of _SERIES_BLOCK points."""
    n = np.arange(1.0, _N_TERMS + 1.0)
    out = np.empty(len(c))
    for lo in range(0, len(c), _SERIES_BLOCK):
        part = slice(lo, lo + _SERIES_BLOCK)
        out[part] = term(n, c[part, None], t[part, None]).sum(axis=1)
    return out


def _midpoint_tail(c: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_{n > _N_TERMS} 1/((2n - c)^2 + t^2) by the midpoint rule: the
    integral from _N_TERMS + 1/2 on, (pi/2 - arctan((2 _N_TERMS + 1 - c)/|t|))/(2|t|),
    which leaves O(_N_TERMS^-3).  0 where t = 0, where every caller
    multiplies it by t."""
    a = np.abs(t)
    angle = np.arctan2(a, 2.0 * _N_TERMS + 1.0 - c)
    return np.divide(angle, 2.0 * a, out=np.zeros_like(a), where=a > 0.0)


def dlogabsx_dt(s):
    """d(log|X|)/dt as the partial sum

        sum_{n=1.._N_TERMS} 8 t (1/2 - sigma) (n - 1/4)
                            / (|it + 2n + sigma - 1|^2 |it + 2n - sigma|^2)

    plus its tail.  The term is exactly t (1/d1 - 1/d2), d1 and d2 the
    two squared moduli, so the tail is t times the difference of the
    midpoint tails of sum 1/d1 and sum 1/d2 (`_midpoint_tail`, c = 1 -
    sigma and sigma), which leaves O(_N_TERMS^-3).  Terms decay like
    n^-3; the sum vanishes identically on the line sigma = 1/2 (every
    term carries the factor 1/2 - sigma) and its sign elsewhere is the
    sign of t (1/2 - sigma).  Finite at the zeros of X, where the
    modulus-weighted form would vanish.  Scalar in, float out; arrays
    in, arrays out.
    """

    def term(n, sigma, t):
        d1 = (2.0 * n + sigma - 1.0) ** 2 + t * t
        d2 = (2.0 * n - sigma) ** 2 + t * t
        return (n - 0.25) / (d1 * d2)

    arr, was_scalar = as_points(s)
    sigma, t = arr.real, arr.imag
    total = _series_sum(term, sigma, t)
    tail = _midpoint_tail(1.0 - sigma, t) - _midpoint_tail(sigma, t)
    out = np.where(sigma == 0.5, 0.0, 8.0 * t * (0.5 - sigma) * total + t * tail)
    return float(out[0]) if was_scalar else out


def dsigma_logabsx(s):
    """d(log|X|)/dsigma = -ln(5/pi) - Re[psi(1 - s/2) + psi((1+s)/2)]/2.

    Scalar in, float out; arrays in, arrays out.  Raises PoleError when
    either digamma argument at any point is a non-positive integer (the
    poles and zeros of X).
    """
    arr, was_scalar = as_points(s)
    upper, lower = (digamma(arg) for arg in _gamma_args(arr))
    out = -_LN_5_OVER_PI - 0.5 * (upper.real + lower.real)
    return float(out[0]) if was_scalar else out


def gamma_modulus_dt(s, which: str):
    """t-derivative of a Gamma-factor modulus as a partial sum.

    which = "upper":  d/dt |Gamma(1 - s/2)|
                        = -t |Gamma(1 - s/2)| sum_n 1/|sigma + it - 2n|^2
    which = "lower":  d/dt |Gamma((1+s)/2)|
                        = -t |Gamma((1+s)/2)| sum_n 1/|sigma + it + 2n - 1|^2

    with n running 1.._N_TERMS, plus the midpoint tail of the sum
    (`_midpoint_tail`, c = sigma upper or 1 - sigma lower), which leaves
    O(_N_TERMS^-3) of a series whose plain tail is 1/(4 _N_TERMS).
    Negative for t > 0 and positive for t < 0: both moduli decrease
    monotonically away from the real axis.  Scalar in, float out; arrays
    in, arrays out.
    """
    if which not in ("upper", "lower"):
        raise DomainError(f"which must be 'upper' or 'lower', got {which!r}")
    arr, was_scalar = as_points(s)
    sigma, t = arr.real, arr.imag
    c = sigma if which == "upper" else 1.0 - sigma
    total = _series_sum(lambda n, c, t: 1.0 / ((2.0 * n - c) ** 2 + t * t), c, t)
    total += _midpoint_tail(c, t)
    upper, lower = _gamma_args(arr)
    # math.exp per point, as the suites' finite difference takes it: numpy's
    # exp on an array can differ from math.exp in the last bit
    log_modulus = lgamma(upper if which == "upper" else lower).real
    out = -t * np.array([math.exp(v) for v in log_modulus]) * total
    return float(out[0]) if was_scalar else out
