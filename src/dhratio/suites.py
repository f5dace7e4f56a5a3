"""Named invariant suites, shared by the test bed and the verify command.

Each suite bundles the library-level invariants of one module into
seeded, self-describing checks: every check reports the quantity it
measured and the threshold it was held to, so a verify run doubles as
a numerical health report.  All randomness flows from the one seed a
run is given (DEFAULT_SEED unless the caller picks one), so a seed
fixes every reading, bit for bit.  The seed feeds the standard library's
Mersenne Twister, `random.Random(seed)` (MT19937; Matsumoto and
Nishimura, ACM TOMACS 8, 1998), whose `random()` sequence Python keeps
across versions; numpy's generators are not loaded.  Each uniform draw
is lo + (hi - lo) u, `random.uniform`'s formula, whether drawn alone or
in an array.  The seed fed `numpy.random.default_rng` before, so every
seed's readings moved with the switch.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .analysis import Rect, kappa_detail, refine_zero, survey_zeros, trace_unit_curve
from .dhfun import _brute_sum, _rotated_line, _series_many, f_batch, functional_eq_residual
from .errors import DomainError
from .specfun import ELEMENT_BUDGET, _sin_cos_pi, digamma, hurwitz_zeta, lgamma, log_abs_gamma
from .xratio import (
    _gamma_args,
    _x_many,
    dlogabsx_dt,
    dsigma_logabsx,
    gamma_modulus_dt,
    logabsx_many,
    poles,
    reciprocity_defect,
    reflection_defect,
)

__all__ = ["CheckResult", "SuiteResult", "SUITE_NAMES", "DEFAULT_SEED", "run_suite", "run_suites"]

DEFAULT_SEED = 20260822
_FD_STEP = 1e-4  # finite-difference step of the digamma and d/dsigma log|X| checks

_KNOWN_OFF_LINE_ZEROS = (
    0.808517 + 85.699348j,
    0.650830 + 114.163343j,
    0.574356 + 166.479306j,
    0.724258 + 176.702461j,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _check(name: str, measured: float, threshold: float) -> CheckResult:
    measured = float(measured)
    return CheckResult(name, bool(measured < threshold), measured, threshold)


def _uniform(rng: random.Random, lo, hi, n: int) -> np.ndarray:
    """n draws lo + (hi - lo) u, u from rng.random(), as an array: equal, bit
    for bit, to n calls of rng.uniform(lo, hi).  lo and hi may be arrays of
    n bounds, one per draw."""
    u = np.array([rng.random() for _ in range(n)])
    return lo + (hi - lo) * u


def _random_points(rng, n, re_lo, re_hi, im_lo, im_hi, avoid=(), radius=0.05):
    """n seeded random points in a box, outside disks around `avoid`."""
    out = np.empty(0, dtype=np.complex128)
    while len(out) < n:
        batch = _uniform(rng, re_lo, re_hi, 4 * n) + 1j * _uniform(rng, im_lo, im_hi, 4 * n)
        gaps = np.abs(batch[:, None] - np.array(avoid, dtype=np.complex128))
        out = np.concatenate((out, batch[np.all(gaps >= radius, axis=1)]))
    return out[:n]


def _drawn_pairs(rng, n, re_lo, re_hi, im_lo, im_hi) -> np.ndarray:
    """n points re + i im, drawn in one call but equal, bit for bit, to n
    draws of complex(rng.uniform(re_lo, re_hi), rng.uniform(im_lo, im_hi))."""
    lo, hi = np.tile([re_lo, im_lo], n), np.tile([re_hi, im_hi], n)
    re, im = _uniform(rng, lo, hi, 2 * n).reshape(n, 2).T
    return re + 1j * im


# ----------------------------------------------------------------------
# specfun
# ----------------------------------------------------------------------


def _suite_specfun(rng) -> SuiteResult:
    checks = []

    z = _random_points(
        rng, 400, -10.0, 10.0, -100.0, 100.0,
        avoid=[complex(-k, 0.0) for k in range(0, 11)], radius=0.05,
    )
    gap = lgamma(z + 1.0) - lgamma(z) - np.log(z)
    checks.append(_check("lgamma_recurrence", np.abs(gap).max(), 1e-12))

    # the reflection formula at conj z, a second path where lgamma(conj z)
    # against conj lgamma(z) would match by symmetry: log|Gamma(zb)| +
    # log|Gamma(1 - zb)| = ln pi - ln|sin(pi zb)| and psi(zb) = psi(1 - zb) -
    # pi cot(pi zb), the sine's growth e^(pi |Im z|) taken out of both sides
    zb = np.conj(z)
    sine, cosine = _sin_cos_pi(zb)
    both = (lgamma(zb) + lgamma(1.0 - zb)).real + np.pi * np.abs(zb.imag)
    gap = both - (math.log(math.pi) - np.log(np.abs(sine)))
    checks.append(_check("lgamma_conjugate", np.abs(gap).max(), 1e-12))
    gap = digamma(zb) - (digamma(1.0 - zb) - np.pi * cosine / sine)
    checks.append(_check("digamma_conjugate", np.abs(gap).max(), 1e-12))

    s = _random_points(rng, 60, -6.0, 6.0, -40.0, 40.0, avoid=[1.0 + 0.0j], radius=0.05)
    a = _uniform(rng, 0.05, 1.0, 60)
    hz = np.array([hurwitz_zeta(np.array([sv, sv.conjugate()]), av) for sv, av in zip(s, a)])
    checks.append(_check("hurwitz_conjugate", np.abs(hz[:, 1] - np.conj(hz[:, 0])).max(), 1e-11))

    # the finite-difference grid stays half a unit clear of the poles,
    # where the third derivative of log-gamma is O(1)
    zfd = _random_points(
        rng, 200, -10.0, 10.0, -100.0, 100.0,
        avoid=[complex(-k, 0.0) for k in range(0, 11)], radius=0.5,
    )
    h = _FD_STEP
    fd = (lgamma(zfd + h) - lgamma(zfd - h)) / (2.0 * h)
    checks.append(
        _check("digamma_is_dlgamma", np.abs(fd - digamma(zfd)).max(), 1e-7)
    )

    # recurrence defect relative to the size of its three terms: a^-s
    # reaches 6e7 in this box (Re s <= 6, a >= 0.05), so an absolute
    # defect would measure the roundoff of the largest term
    srec = _random_points(rng, 60, -2.0, 6.0, -40.0, 40.0, avoid=[1.0 + 0.0j], radius=0.05)
    arec = _uniform(rng, 0.05, 1.0, 60)
    rel = []
    for sv, av in zip(srec, arec):
        here = hurwitz_zeta(sv, av)
        shifted = hurwitz_zeta(sv, av + 1.0)
        power = np.exp(-sv * np.log(av))
        rel.append(abs(here - shifted - power) / (abs(here) + abs(shifted) + abs(power)))
    checks.append(_check("hurwitz_recurrence", max(rel), 1e-10))

    # sum_{k < N} (k + a)^-s plus the Euler-Maclaurin tail at x = N + a,
    # x^(1-s)/(s-1) + x^-s/2; the first dropped term, |s| x^-4/12, is
    # below 5e-16 at Re s = 3, |t| <= 50.  The defect is taken relative to
    # max(1, |zeta|): |zeta(3 + it, a)| <= zeta(3, 0.05) ~ 8001 here, where
    # the rounding of a^-s alone reads 1e-12 absolute
    worst = 0.0
    n_terms = 10_000
    for _ in range(6):
        sv = complex(3.0, rng.uniform(-50.0, 50.0))
        av = rng.uniform(0.05, 1.0)
        brute = _brute_sum(np.array([sv]), n_terms, lambda n: (np.log(n - 1.0 + av), 1.0))
        x = n_terms + av
        tail = x ** (1.0 - sv) / (sv - 1.0) + 0.5 * x ** -sv
        zeta = hurwitz_zeta(sv, av)
        worst = max(worst, abs(zeta - (brute[0] + tail)) / max(1.0, abs(zeta)))
    checks.append(_check("hurwitz_bruteforce", worst, 1e-14))

    return SuiteResult("specfun", tuple(checks))


# ----------------------------------------------------------------------
# dhfun
# ----------------------------------------------------------------------


def _suite_dhfun(rng) -> SuiteResult:
    checks = []

    s = _random_points(rng, 40, -8.0, 8.0, -40.0, 40.0)
    vals, _ = f_batch(s)
    conj_vals, _ = f_batch(np.conj(s))
    scale = np.abs(vals) + 1.0
    checks.append(
        _check("conjugate_symmetry", (np.abs(conj_vals - np.conj(vals)) / scale).max(), 1e-12)
    )

    pts = _random_points(
        rng, 1000, -10.0, 11.0, -50.0, 50.0, avoid=[p.z for p in poles(5)], radius=0.05
    )
    checks.append(_check("functional_equation", functional_eq_residual(pts).max(), 1e-9))

    triv, _ = f_batch(-(2.0 * np.arange(6) + 1.0))
    checks.append(_check("trivial_zeros", np.abs(triv).max(), 1e-9))

    pts = _drawn_pairs(rng, 50, 2.0, 6.0, -50.0, 50.0)
    vals, errs = f_batch(pts)
    oracle, tails = _series_many(pts, 5_000)  # Abel-corrected, bound <= 4.4e-9
    budget = errs + tails + 1e-12
    checks.append(_check("oracle_series", (np.abs(vals - oracle) / budget).max(), 1.0))

    rotated = _rotated_line(_uniform(rng, -200.0, 200.0, 200))
    rel_im = np.abs(rotated.imag) / (1.0 + np.abs(rotated.real))
    checks.append(_check("z_realness", rel_im.max(), 1e-8))

    return SuiteResult("dhfun", tuple(checks))


# ----------------------------------------------------------------------
# xratio
# ----------------------------------------------------------------------


def _logabsx_fd(pts: np.ndarray, step: complex) -> np.ndarray:
    """d log|X| at every point along `step` by (4 D(h/2) - D(h))/3, D the
    central difference, h = |step|: O(h^4), so it holds next to the poles
    of X.  One logabsx_many call."""
    v = logabsx_many(pts[:, None] + step * np.array([1.0, -1.0, 0.5, -0.5])).reshape(-1, 4).T
    return (4.0 * (v[2] - v[3]) - 0.5 * (v[0] - v[1])) / (3.0 * abs(step))


def _worst_rel(series, fd) -> float:
    """max |series - fd| / max(|fd|, 1e-12), 0 over no points."""
    return float(np.max(np.abs(series - fd) / np.maximum(np.abs(fd), 1e-12), initial=0.0))


def _suite_xratio(rng) -> SuiteResult:
    checks = []

    # |X| = 1 on the line rests on |Gamma(1/2 + it)|^2 = pi / cosh(pi t);
    # logabsx_many returns 0 there by rule, so the kernel is held to the identity
    t = _uniform(rng, -100.0, 100.0, 1000)
    decay = np.pi * np.abs(t)
    ref = 0.5 * (np.log(2.0 * np.pi) - decay - np.log1p(np.exp(-2.0 * decay)))
    gap = np.abs(log_abs_gamma(0.5 + 1j * t) - ref) / np.maximum(1.0, np.abs(ref))
    checks.append(_check("unit_circle", gap.max(), 1e-12))

    pairs = _drawn_pairs(rng, 60, -50.0, 50.0, -5.0, 5.0)  # t + i epsilon
    worst = reflection_defect(pairs.real, pairs.imag).max()
    checks.append(_check("reflection_identity", worst, 1e-12))

    deltas = (1e-3, 1e-5)
    defects = reciprocity_defect(np.arange(3)[:, None], np.array(deltas))
    for delta, worst in zip(deltas, defects.max(axis=0)):
        checks.append(_check(f"reciprocity_delta_{delta:g}", worst / delta, 1.0))

    h = 1e-3
    worst_bad_signs = 0
    for sig_lo, sig_hi, t_lo, t_hi in (
        (-5.0, 0.45, 0.2, 50.0),
        (0.55, 6.0, 0.2, 50.0),
        (-5.0, 0.45, -50.0, -0.2),
        (0.55, 6.0, -50.0, -0.2),
    ):
        sig = _uniform(rng, sig_lo, sig_hi, 100)
        tv = _uniform(rng, t_lo, t_hi, 100)
        pts = sig + 1j * tv
        fd = (logabsx_many(pts + 1j * h) - logabsx_many(pts - 1j * h)) / (2 * h)
        expected = np.sign(tv * (0.5 - sig))
        worst_bad_signs += int((np.sign(fd) != expected).sum())
    checks.append(_check("monotone_quadrant_signs", float(worst_bad_signs), 1.0))

    pts = _drawn_pairs(rng, 20, -4.0, 5.0, -20.0, 20.0)
    pts = pts[(np.abs(pts.real - 0.5) >= 0.05) & (np.abs(pts.imag) >= 0.05)]
    fd = _logabsx_fd(pts, 1j * h)
    checks.append(_check("dlogabsx_dt_vs_fd", _worst_rel(dlogabsx_dt(pts), fd), 1e-6))

    pts = _drawn_pairs(rng, 20, -4.0, 5.0, -20.0, 20.0)
    fd = _logabsx_fd(pts, _FD_STEP)
    checks.append(_check("dsigma_logabsx_vs_fd", _worst_rel(dsigma_logabsx(pts), fd), 1e-6))

    # a plain central difference; its O(h^2) error reads <= 3.8e-8 at this
    # step over seeds 0-15 (<= 4.2e-7 at h = 1e-3), well under 1e-6
    h_gm = 3e-4
    pts = _drawn_pairs(rng, 6, -2.0, 3.0, 1.0, 8.0)
    series = np.append(gamma_modulus_dt(pts[:3], "upper"), gamma_modulus_dt(pts[3:], "lower"))
    upper = np.arange(6) < 3
    args = np.where(upper, *_gamma_args(pts))
    nudge = 0.5j * h_gm * np.where(upper, -1.0, 1.0)  # a step of h_gm in t
    up, dn = (np.exp(log_abs_gamma(args + d)) for d in (nudge, -nudge))
    fd = (up - dn) / (2 * h_gm)
    checks.append(_check("gamma_modulus_dt_vs_fd", _worst_rel(series, fd), 1e-6))

    # conj X(s) against X(conj s) from the two-Gamma form,
    # (5/pi)^(1/2 - s) Gamma(1 - s/2) / Gamma((1 + s)/2), on lgamma: a second
    # path, where X(conj s) from the one-Gamma kernel would match by symmetry
    s = _random_points(rng, 40, -6.0, 7.0, -40.0, 40.0, avoid=[p.z for p in poles(3)])
    direct, _, _ = _x_many(s)
    sb = np.conj(s)
    num, den = _gamma_args(sb)
    two_gamma = np.exp((0.5 - sb) * math.log(5.0 / math.pi) + lgamma(num) - lgamma(den))
    worst = (np.abs(np.conj(direct) - two_gamma) / (np.abs(direct) + 1.0)).max()
    checks.append(_check("x_conjugate", worst, 1e-12))

    return SuiteResult("xratio", tuple(checks))


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------


def _suite_analysis(rng) -> SuiteResult:
    checks = []

    polys = trace_unit_curve(Rect(-2.0, 3.0, -2.2, 2.2), 0.02)
    verts = np.array([v.z for p in polys for v in p.vertices])
    g = logabsx_many(verts)
    checks.append(_check("curve_soundness", np.abs(g).max(), 1e-10))
    # the farthest mirrored vertex from its nearest vertex, in row blocks
    # of ELEMENT_BUDGET / 8 distances (256 kB of complex differences)
    mirrored = 1.0 - np.conj(verts)
    rows = max(1, ELEMENT_BUDGET // 8 // len(verts))
    blocks = (mirrored[lo : lo + rows, None] for lo in range(0, len(verts), rows))
    sym = max(np.abs(verts[None, :] - m).min(axis=1).max() for m in blocks)
    checks.append(_check("curve_symmetry", sym, 2 * 0.02))

    kd = kappa_detail()
    checks.append(_check("kappa_two_methods", kd.agreement, 1e-6))
    checks.append(_check("kappa_reference_value", abs(kd.trace_value - 1.21164), 1e-3))

    worst_dist = 0.0
    worst_res = 0.0
    for seed in _KNOWN_OFF_LINE_ZEROS:
        rec = refine_zero(seed)
        worst_dist = max(worst_dist, abs(rec.location.z - seed))
        worst_res = max(worst_res, rec.residual)
    checks.append(_check("known_zero_distance", worst_dist, 1e-4))
    checks.append(_check("known_zero_residual", worst_res, 1e-8))

    records = survey_zeros(Rect(0.0, 1.0, 0.0, 120.0))
    pairing = max(rec.paired_residual for rec in records)
    checks.append(_check("pairing", pairing, 1e-6))
    off = [rec for rec in records if not rec.on_line]
    checks.append(_check("off_line_zero_count_defect", abs(len(off) - 4.0), 0.5))
    checks.append(_check("strip_zero_count_defect", abs(len(records) - 68.0), 0.5))

    return SuiteResult("analysis", tuple(checks))


_SUITES = {
    "specfun": _suite_specfun,
    "dhfun": _suite_dhfun,
    "xratio": _suite_xratio,
    "analysis": _suite_analysis,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Run one named invariant suite, its draws seeded by `seed`, and
    return its check results."""
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {SUITE_NAMES} or 'all'")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise DomainError("seed must be a non-negative integer")
    return _SUITES[name](random.Random(int(seed)))


def run_suites(names, seed: int = DEFAULT_SEED) -> list[SuiteResult]:
    """Run several suites ('all' expands to every suite, in order)."""
    expanded: list[str] = []
    for n in names:
        if n == "all":
            expanded.extend(SUITE_NAMES)
        else:
            expanded.append(n)
    return [run_suite(n, seed) for n in expanded]
