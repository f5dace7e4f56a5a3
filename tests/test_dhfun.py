"""The series itself: values, functional equation, derivative, rotation.

Value references were frozen from an independent arbitrary-precision
computation.  The Abel-corrected Dirichlet partial sum and its remainder
bound act as the in-tree oracle wherever the series converges.
"""
from __future__ import annotations

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dhratio import dhfun, specfun, suites
from dhratio.dhfun import (
    COEFFICIENTS,
    XI,
    f,
    f_batch,
    f_prime,
    f_series,
    functional_eq_residual,
    pq,
    z_function,
)
from dhratio.errors import AccuracyWarning, DomainError, PoleError

# ----------------------------------------------------------------------
# frozen references
# ----------------------------------------------------------------------

F_CASES = [
    (3.0 + 0.0j, 1.013504598330534747044 + 0.0j),
    (0.5 + 0.0j, 0.8253830238211021669514 + 0.0j),
    (1.0 + 0.0j, 0.922801873802890872182 + 0.0j),
    (2.0 - 7.0j, 1.102661670224380689241 - 0.09319828987604721506575j),
    (0.5 + 14.1j, 0.3688935188572358567753 - 0.531917903541121570473j),
]

# f'(s) at 30 digits, at the float64 value of s (at t ~ 1000 the decimal
# literal and its binary value differ enough to move f' by 1e-12); s = 1
# as the mean of f' over a circle of radius 0.01 (f is entire)
# (s, f'(s), relative tolerance)
FPRIME_CASES = [
    (0.3 + 2.0j, -0.2894500710801848764139 - 0.4399771197396943721025j, 1e-12),
    (2.0 + 0.0j, 0.03264584820180466149086 + 0.0j, 1e-12),
    (1.0 + 0.0j, 0.1420099489546744488993445 + 0.0j, 1e-12),
    # a line zero of the t ~ 1000 survey window; the phases t log m of the
    # 1144-term direct sum carry float64 rounding, and the measured error
    # here is 5.8e-13
    (0.5 + 1000.5653832066419j, 4.505980746347933657171818 - 1.739900154500558359324142j, 1.5e-12),
    (0.9 + 5000.0j, 1.425025092261359228123017 - 2.104781385050104893307908j, 1e-12),
    # reflected route, and the trivial zero s = -3
    (-3.5 + 2.0j, 34.95349166642402595348678 + 28.55286747570001353766292j, 1e-12),
    (-3.0 + 0.0j, -3.417881617340818510907019 + 0.0j, 1e-12),
]

# Accuracy sweep: f and f' at 30 digits, at the float64 value of s, on
# sigma in (-0.9, 0, 0.5, 2) x t in (25, 33, 50, 300, 1000, 3000)
SWEEP_F = [
    (-0.9 + 25.0j, 71.46956002466228241035 - 22.18663045117356452833j),
    (-0.9 + 33.0j, 88.59939366420564216944 - 24.69414741797559461154j),
    (-0.9 + 50.0j, -148.7359997835399116942 - 30.27651431999685382544j),
    (-0.9 + 300.0j, 814.9097306432235946866 + 2001.3413360580412771j),
    (-0.9 + 1000.0j, 11484.33387951833476554 + 964.0083852860554165526j),
    (-0.9 + 3000.0j, -30216.72424252951528036 - 44365.20313789669957309j),
    (0.0 + 25.0j, 7.031943390312777268794 - 1.90960330099397810986j),
    (0.0 + 33.0j, 4.896218266612235295506 - 1.437765819401695800289j),
    (0.0 + 50.0j, -3.982694708051741271854 - 2.039882546865277805211j),
    (0.0 + 300.0j, 4.94272293956950631097 + 10.52572378059281240084j),
    (0.0 + 1000.0j, 24.33758617902805864064 + 11.26020732424932033122j),
    (0.0 + 3000.0j, -23.52933924846340400665 - 27.0209249679793550557j),
    (0.5 + 25.0j, 2.809211569816469655917 - 0.3994602979872437962116j),
    (0.5 + 33.0j, 1.539797773608739734582 - 0.1815251152835860313029j),
    (0.5 + 50.0j, 0.03983352438873855461568 - 0.6465665128779119086931j),
    (0.5 + 300.0j, 0.4769165271387626925189 + 0.3308906780279997889541j),
    (0.5 + 1000.0j, 0.8618892687392488835815 - 0.04401487309700778823695j),
    (0.5 + 3000.0j, -0.2047698967177746640757 + 0.3940023995396889300736j),
    (2.0 + 25.0j, 1.115605660586790931799 + 0.0640923394633937721929j),
    (2.0 + 33.0j, 0.9486562340065486076939 + 0.0594262097132802881797j),
    (2.0 + 50.0j, 0.8833534702943045993104 - 0.04312717968266721690408j),
    (2.0 + 300.0j, 1.019024462072393517166 + 0.02743362519447348510519j),
    (2.0 + 1000.0j, 0.986097994885518936548 - 0.1640988930257564862316j),
    (2.0 + 3000.0j, 1.009058403870845265837 - 0.01271647737170290895988j),
]

SWEEP_FPRIME = [
    (-0.9 + 25.0j, -201.9724214925475918656 + 58.38793195505152356193j),
    (-0.9 + 33.0j, -294.6684841168995821411 + 74.02996386033093719051j),
    (-0.9 + 50.0j, 568.7318803590211337658 + 104.1546622684133434918j),
    (-0.9 + 300.0j, -4401.443917113880234887 - 11157.8849546885846862j),
    (-0.9 + 1000.0j, -76735.07085879784555261 - 4004.221852110374748685j),
    (-0.9 + 3000.0j, 238119.8502557243294213 + 348487.7487956566172326j),
    (0.0 + 25.0j, -15.37771456378696219257 + 5.494644678595323337406j),
    (0.0 + 33.0j, -14.1687028050585380781 + 4.979723749884877512377j),
    (0.0 + 50.0j, 18.15281800082303524901 + 5.144665665572764178368j),
    (0.0 + 300.0j, -30.71257660259526573943 - 66.52018817903243409539j),
    (0.0 + 1000.0j, -175.8458939162942853929 - 64.68044426750855571456j),
    (0.0 + 3000.0j, 186.3384673952336879136 + 251.2120882946000409765j),
    (0.5 + 25.0j, -4.083617743548715396788 + 1.417773634716114226249j),
    (0.5 + 33.0j, -2.432048359841683124804 + 1.009187238520745404371j),
    (0.5 + 50.0j, 2.676248083154019812058 + 1.360233122660898082778j),
    (0.5 + 300.0j, -0.2446802783179688291775 - 2.435044445038201383583j),
    (0.5 + 1000.0j, -3.086464542817322199876 - 3.92697599808203156102j),
    (0.5 + 3000.0j, 4.770628846335579620262 + 0.5332443231656601718458j),
    (2.0 + 25.0j, -0.1750251264640608823354 - 0.01743997045429019880117j),
    (2.0 + 33.0j, 0.0348296970337103481105 - 0.03824090006805569199416j),
    (2.0 + 50.0j, 0.1034641504449143910467 + 0.07031897107326796275477j),
    (2.0 + 300.0j, 0.05655455269287399502719 - 0.05050305098545536843519j),
    (2.0 + 1000.0j, 0.01539536603987999758843 + 0.1866218615424758431287j),
    (2.0 + 3000.0j, 0.06525262868652276436629 + 0.01376911181383138046484j),
]

S1 = 0.8085171824566373855534 + 85.69934848537759217193j
Z_AT_14_1 = -0.6473168346045510795826

X_POLES = [complex(p, 0.0) for p in (2, 4, 6, 8, 10)]


# ----------------------------------------------------------------------
# coefficients
# ----------------------------------------------------------------------


def test_xi_closed_form_value():
    want = (math.sqrt(10.0 - 2.0 * math.sqrt(5.0)) - 2.0) / (math.sqrt(5.0) - 1.0)
    assert XI == want
    assert abs(XI - 0.28407904384041227) < 1e-16


def test_coefficient_table_validation():
    a = COEFFICIENTS
    assert a[0] == 0.0 and a[2] == XI
    assert a[1] == 1.0 and a[4] == -1.0 and a[2] == -a[3]
    with pytest.raises(ValueError):  # read-only
        a[3] = XI


# ----------------------------------------------------------------------
# values
# ----------------------------------------------------------------------


@pytest.mark.parametrize("s, want", F_CASES)
def test_reference_values(s, want):
    got = f(s)
    assert abs(got.value.z - want) < 1e-13 * (1.0 + abs(want)), f"f({s}) = {got.value.z}"
    assert got.est_abs_err < 1e-10


def test_value_at_one_is_finite_and_unwarned():
    # the continuation has a removable singularity at s = 1: the
    # deflated evaluator must neither warn nor lose accuracy there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = f(1.0 + 0.0j)
    assert abs(got.value.z - 0.922801873802890872182) < 1e-13


def test_trivial_zeros_are_exact():
    for n in range(6):
        got = f(complex(-(2 * n + 1), 0.0))
        assert got.value.z == 0.0, f"f({-(2*n+1)}) = {got.value.z}, want exact 0"


def test_known_off_line_zero_is_tiny():
    assert abs(f(S1).value.z) < 1e-12


def test_real_positive_on_unit_interval():
    sigma = np.linspace(0.0, 1.0, 21)
    vals, _ = f_batch(sigma + 0.0j)
    assert np.abs(vals.imag).max() == 0.0
    assert vals.real.min() > 0.6


# ----------------------------------------------------------------------
# series oracle
# ----------------------------------------------------------------------


def test_series_requires_convergence_region():
    with pytest.raises(DomainError):
        f_series(0.5 + 3.0j, 1000)
    with pytest.raises(DomainError):
        f_series(3.0 + 0.0j, 0)


def test_series_matches_continuation():
    rng = np.random.default_rng(20260822)
    for _ in range(10):
        s = complex(rng.uniform(2.0, 6.0), rng.uniform(-50.0, 50.0))
        a_val = f(s)
        b_val = f_series(s, 5_000)
        budget = a_val.est_abs_err + b_val.est_abs_err + 1e-12
        assert abs(a_val.value.z - b_val.value.z) < budget, f"disagreement at {s}"


def test_series_error_estimate_is_honest():
    # push the truncation, in every phase of N mod 5: the quoted bound must
    # cover the gap to a sum whose own bound is 1.9e-13 (the gap reads 0.004
    # of the bound at N = 500, 0.3-0.5 of it at the other four)
    s = 2.0 + 1.0j
    fine = f_series(s, 20_000)
    for n in (500, 501, 502, 503, 504):
        coarse = f_series(s, n)
        assert abs(coarse.value.z - fine.value.z) < coarse.est_abs_err - fine.est_abs_err, n


def test_abel_bound_constants_match_the_partial_sums():
    # max |B_N| over two periods of B_N(x) = int_N^x (A - mean A), summed
    # from the coefficients themselves; B_N is linear between integers
    coeffs = COEFFICIENTS[np.arange(0, 40) % 5]
    partial = np.cumsum(coeffs)  # A(n), n = 0..39
    mean = partial.mean()
    assert mean == pytest.approx((3.0 + XI) / 5.0, abs=1e-15)
    for n in range(5, 10):
        b = np.concatenate(([0.0], np.cumsum(partial[n : n + 10] - mean)))
        assert np.abs(b).max() == pytest.approx(dhfun._B_MAX[n % 5], abs=1e-14)
    assert dhfun._B_MAX[0] == pytest.approx(mean, abs=1e-15)


def test_abel_bound_holds_without_euler_maclaurin():
    # corrected sums at N in each class mod 5 against one at M = 200 000:
    # both bounds together must cover the gap, down to sigma = 1.1
    sigma = np.array([1.1, 1.5, 2.0, 4.0])
    t = np.array([0.0, 3.7, -17.2, 50.0])
    pts = (sigma[:, None] + 1j * t[None, :]).ravel()
    far, far_bounds = dhfun._series_many(pts, 200_000)
    for n in (1000, 1001, 1002, 1003, 1004):
        near, near_bounds = dhfun._series_many(pts, n)
        gap = np.abs(near - far)
        assert np.all(gap <= near_bounds + far_bounds), f"N = {n}: {gap / near_bounds}"


def test_series_batch_matches_single_points(monkeypatch):
    # fixed blocks of n: a point sums in the same order alone or in a batch,
    # here also split into chunks of three points (a chunk takes an eighth
    # of the budget)
    monkeypatch.setattr(dhfun, "ELEMENT_BUDGET", 8 * 3 * dhfun._SERIES_BLOCK)
    rng = np.random.default_rng(20260822)
    pts = rng.uniform(1.5, 6.0, 7) + 1j * rng.uniform(-60.0, 60.0, 7)
    values, tails = dhfun._series_many(pts, 3 * dhfun._SERIES_BLOCK + 17)
    for k, s in enumerate(pts):
        one = f_series(s, 3 * dhfun._SERIES_BLOCK + 17)
        assert values[k] == one.value.z and tails[k] == one.est_abs_err


def test_oracle_series_check_sums_pairwise():
    # the oracle's roundoff sets this measurement: 7.8e-4 with pairwise
    # sums (5.5e-4 at the points numpy's generator drew), 4.3e-3 there with
    # an einsum reduction of each block
    check = {c.name: c for c in suites.run_suite("dhfun", 42).checks}["oracle_series"]
    assert check.measured <= 1e-3


@pytest.mark.parametrize("seed", [42, 7])
def test_oracle_series_check_sees_a_small_error(monkeypatch, seed):
    # an f off by 1e-8 left of Re s = 2.2 must fail the check: its budget
    # there is a few 1e-9 at most (it reads 888 at seed 42 and 14.3 at seed 7)
    def wrong(s):
        values, errs = f_batch(s)
        return values + 1e-8 * (np.asarray(s).real < 2.2), errs

    monkeypatch.setattr(suites, "f_batch", wrong)
    check = {c.name: c for c in suites.run_suite("dhfun", seed).checks}["oracle_series"]
    assert not check.passed and check.measured > 5.0


@pytest.mark.parametrize("s", [445.0 + 3.0j, 60.0 + 10.0j])
def test_large_real_part_matches_series(s):
    # 5^-s is folded into every exponent, so no power overflows on the way
    got = f(s)
    want = f_series(s, 1000)
    assert abs(got.value.z - want.value.z) <= 1e-15 * abs(want.value.z)


def test_far_right_is_one():
    # the tail carries x^-s inside its products, so where x^-s underflows
    # it is exactly 0, and the split stops growing with Re s
    for s in (1e4, 445.0, 1e7 + 200.0j, 1e15, 1e300, 1e12 + 5.0j):
        assert f(s).value.z == 1.0, f"f({s})"
        assert np.isfinite(f_prime(s).z), f"f'({s})"
    cap = specfun._SPLIT_REAL_CAP
    assert specfun.em_split_point(200.0, 1e7) == specfun.em_split_point(200.0, cap)


# ----------------------------------------------------------------------
# batching
# ----------------------------------------------------------------------


def test_batch_memory_is_bounded_at_height():
    rng = np.random.default_rng(20260822)
    pts = rng.uniform(0.0, 1.0, 4096) + 1j * rng.uniform(1000.0, 1001.0, 4096)
    tracemalloc.start()
    try:
        f_batch(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.7e6, f"peak {peak / 1e6:.2f} MB"  # reads 2.48 MB


def test_batch_memory_is_bounded_far_up():
    # the kernel generates each column block's log m and weights itself, so
    # nothing 4N long is built even at N ~ 67000
    rng = np.random.default_rng(20260822)
    pts = rng.uniform(0.0, 1.0, 8) + 1j * rng.uniform(1e5, 1e5 + 1.0, 8)
    tracemalloc.start()
    try:
        f_batch(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.32e6, f"peak {peak / 1e6:.2f} MB"  # reads 0.21 MB


def test_batch_memory_is_bounded_for_many_points():
    # 40 000 points go through the evaluator in fixed blocks
    pts = (np.linspace(0.05, 0.95, 5)[:, None] + 1j * np.linspace(0.0, 20.0, 8000)).ravel()
    tracemalloc.start()
    try:
        f_batch(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6e6, f"peak {peak / 1e6:.1f} MB"


def test_batch_bits_do_not_depend_on_the_point_block(monkeypatch):
    rng = np.random.default_rng(20261019)
    pts = rng.uniform(-3.0, 4.0, 200) + 1j * rng.uniform(-300.0, 300.0, 200)
    ts = rng.uniform(-200.0, 200.0, 50)

    def evaluate():
        values, derivs, errs = dhfun._evaluate(pts, True)
        return (*f_batch(pts), values, derivs, errs, z_function(ts))

    default = evaluate()
    monkeypatch.setattr(dhfun, "_POINT_BLOCK", 7)
    for want, got in zip(default, evaluate()):
        assert np.array_equal(want, got)


def test_batch_matches_single_points_across_heights():
    # every point takes its own split, so f and f' come out bit-identical
    # alone and in one batch: points at every height, on both sides of
    # |Re s| = |Im s|, near the real axis (Re s > |Im s|), reflected
    # (Re s <= -1) and far right
    rng = np.random.default_rng(20260822)
    pts = rng.uniform(-3.0, 4.0, 300) + 1j * rng.uniform(-1100.0, 1100.0, 300)
    near = rng.uniform(0.5, 40.0, 30)
    pts = np.concatenate((pts, near + 1j * near * rng.uniform(-0.99, 0.99, 30)))
    left = rng.uniform(-6.0, -1.0, 30)
    pts = np.concatenate((pts, left + 1j * left * rng.uniform(-0.99, 0.99, 30)))
    pts = np.concatenate((pts, [60.0 + 10.0j, 445.0 + 3.0j, 1e4, 1e7 - 200.0j, 1e12 + 5.0j, 1e300]))
    for sigma in (3.0, -0.7):
        edge = abs(sigma) + np.array([-0.5, 0.0, 0.5])
        pts = np.concatenate((pts, sigma + 1j * edge, sigma - 1j * np.nextafter(edge, 0.0)))
    vals, _ = f_batch(pts)
    assert np.array_equal(vals, [f(sv).value.z for sv in pts])
    values, derivs, errs = dhfun._evaluate(pts, True)
    for k, sv in enumerate(pts):
        v, d, e = dhfun._evaluate(pts[k : k + 1], True)
        assert (v[0], d[0], e[0]) == (values[k], derivs[k], errs[k]), f"s = {sv}"


def test_mixed_height_batch_runs_each_route_once(monkeypatch):
    # every point keeps the split of its own height, and one pass sums
    # them all: one call per route, one kernel pass for the direct route
    calls = []

    def counted(name):
        real = getattr(dhfun, name)
        return lambda *args: calls.append(name) or real(*args)

    for name in ("_f_direct", "_f_reflected", "_dirichlet_sum"):
        monkeypatch.setattr(dhfun, name, counted(name))
    rng = np.random.default_rng(5)
    ts = rng.uniform(0.0, 1100.0, 200)
    f_batch(rng.uniform(-0.5, 1.5, 200) + 1j * ts)
    assert calls == ["_f_direct", "_dirichlet_sum"]
    calls.clear()
    f_batch(rng.uniform(-3.0, 1.5, 200) + 1j * ts)
    assert [c for c in calls if c != "_dirichlet_sum"] == ["_f_direct", "_f_reflected"]


def test_batch_returns_input_order_across_heights():
    # the batch is sorted by height and chunked; results come back in order
    s = np.array([0.3 + 900.0j, 2.0 - 7.0j, 0.5 - 900.0j, 0.5 + 14.1j, 3.0 + 0.0j])
    vals, _ = f_batch(s)
    for k, sv in enumerate(s):
        single = f(sv).value.z
        assert abs(vals[k] - single) < 1e-12 * (1.0 + abs(single))


# ----------------------------------------------------------------------
# functional equation
# ----------------------------------------------------------------------


FE_EXAMPLES = (0.3 + 2.0j, -4.2 + 31.0j, 7.5 - 12.0j, 0.5 + 45.0j, 1.0 + 0.0j, -3.0 + 0.0j)


def test_functional_equation_residual_examples():
    for s in FE_EXAMPLES:
        res = functional_eq_residual(s)
        assert isinstance(res, float) and res < 1e-12, f"residual at {s}"
    # an array of points gives one residual per point
    res = functional_eq_residual(np.array(FE_EXAMPLES))
    assert res.shape == (len(FE_EXAMPLES),) and res.max() < 1e-12


def test_functional_equation_pole_raises():
    with pytest.raises(PoleError):
        functional_eq_residual(4.0 + 0.0j)
    with pytest.raises(PoleError):
        functional_eq_residual(np.array([0.3 + 2.0j, 4.0 + 0.0j]))


@pytest.mark.parametrize("s", [-400.0 + 5.0j, -200.0 + 5.0j])
def test_overflow_is_a_typed_error_without_warnings(s):
    # |f| ~ 1e351 at -200+5i: a true float64 overflow, reported as such
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows float64"):
            f(s)
        with pytest.raises(DomainError, match="overflows float64"):
            f_batch(np.array([0.3 + 2.0j, s]))


def test_reflected_route_grows_without_intermediate_overflow():
    # sin(pi z/2) alone overflows beyond |t| ~ 452; f itself is ~3e6 here
    s = -2.0 + 500.0j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = f(s).value.z
        assert 1e6 < abs(value) < 1e7
        assert functional_eq_residual(s) < 1e-9


@given(
    re=st.floats(min_value=-10.0, max_value=11.0),
    im=st.floats(min_value=-50.0, max_value=50.0),
)
@settings(max_examples=60, deadline=None)
def test_functional_equation_property(re, im):
    s = complex(re, im)
    assume(min(abs(s - p) for p in X_POLES) > 0.05)
    assert functional_eq_residual(s) < 1e-9


@given(
    re=st.floats(min_value=-8.0, max_value=8.0),
    im=st.floats(min_value=0.0, max_value=40.0),
)
@settings(max_examples=50, deadline=None)
def test_conjugate_symmetry_property(re, im):
    s = complex(re, im)
    assert f(s.conjugate()).value.z == f(s).value.z.conjugate()


# ----------------------------------------------------------------------
# derivative
# ----------------------------------------------------------------------


@pytest.mark.parametrize("s, want, rel_tol", FPRIME_CASES)
def test_derivative_reference_values(s, want, rel_tol):
    got = f_prime(s)
    assert abs(got.z - want) < rel_tol * abs(want), f"f'({s}) = {got.z}, want {want}"


def _sweep_tol(t: float) -> float:
    # the float64 phases t log m of the direct sum set the floor at height;
    # measured 1.5e-13 up to t = 300, 6.8e-13 at 1000 and 2.2e-12 at 3000
    return 5e-13 if t <= 300.0 else 2e-12 if t <= 1000.0 else 5e-12


def test_accuracy_sweep_against_frozen_references():
    vals, _ = f_batch(np.array([sv for sv, _ in SWEEP_F]))
    for (sv, want), got in zip(SWEEP_F, vals):
        assert abs(got - want) <= _sweep_tol(sv.imag) * max(1.0, abs(want)), f"f({sv}) = {got}"
    for sv, want in SWEEP_FPRIME:
        got = f_prime(sv).z
        assert abs(got - want) <= _sweep_tol(sv.imag) * max(1.0, abs(want)), f"f'({sv}) = {got}"


def test_derivative_matches_difference_quotient():
    s = 0.6 + 20.0j
    d = f_prime(s).z
    h = 1e-5
    fd = (f(s + h).value.z - f(s - h).value.z) / (2 * h)
    assert abs(d - fd) < 1e-7 * (1 + abs(fd))


# ----------------------------------------------------------------------
# rotated real form and the P/Q pair
# ----------------------------------------------------------------------


def test_z_function_reference_value():
    assert abs(z_function(14.1) - Z_AT_14_1) < 1e-12


def test_z_function_sign_change_brackets_zero():
    # the first line zero sits near t = 5.094
    assert z_function(5.0) * z_function(5.2) < 0.0


def test_z_function_array_matches_scalar():
    # every point takes the split of its own height, batched or alone, so
    # only the kernel's column blocking can change the last bits
    t = np.array([2.0, 14.1, -14.1, 60.0])
    batch = z_function(t)
    for k, tv in enumerate(t):
        single = z_function(float(tv))
        assert abs(batch[k] - single) < 1e-15 * (1 + abs(single))


def test_pq_degeneracies():
    # on the line, P and Q are the same product by conjugate symmetry
    p, q = pq(0.5, 23.7)
    assert p == q
    # at s = 2 the mirror value f(-1) is an exact zero, so Q vanishes
    p2, q2 = pq(2.0, 0.0)
    assert q2 == 0.0 and p2 > 0.0


def test_pq_at_off_line_zero():
    # both products collapse to evaluation noise at the zero itself
    # (the numerical face of a 0/0 form) ...
    p, q = pq(S1.real, S1.imag)
    assert p < 1e-24 and q < 1e-18
    # ... while a small offset recovers |X|^2 cleanly
    p_off, q_off = pq(S1.real, S1.imag + 1e-6)
    assert abs(math.sqrt(p_off / q_off) - 0.271801369195) < 1e-5


def test_pq_on_a_batch_is_each_point_alone_bit_for_bit():
    rng = np.random.default_rng(3)
    sigma, t = rng.uniform(-3.0, 4.0, 12), rng.uniform(-60.0, 60.0, 12)
    sigma[:2], t[:2] = (0.5, 2.0), (23.7, 0.0)  # on the line; at s = 2, where Q = 0
    p, q = pq(sigma, t)
    assert p.shape == q.shape == (12,)
    alone = [pq(float(a), float(b)) for a, b in zip(sigma, t)]
    assert all(isinstance(v, float) for pair in alone for v in pair)
    assert list(zip(p.tolist(), q.tolist())) == alone
    # sigma and t broadcast
    radii = np.array([1e-3, 1e-6])
    p, q = pq(S1.real, S1.imag + radii)
    assert list(zip(p.tolist(), q.tolist())) == [pq(S1.real, S1.imag + r) for r in radii]


def test_pq_warns_once_when_products_are_not_real(monkeypatch):
    # values without conjugate symmetry: every P and Q comes out 2i
    monkeypatch.setattr(dhfun, "f_batch", lambda pts: (np.full(len(pts), 1.0 + 1.0j), None))
    with pytest.warns(AccuracyWarning, match="P kept an imaginary part of 2") as caught:
        pq(np.zeros(5), np.arange(5.0))
    assert len(caught) == 1
