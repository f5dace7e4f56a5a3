"""Special-function kernels against frozen high-precision references.

The reference values were computed once with an independent
arbitrary-precision package at 25 or 30 significant digits and frozen here;
the library itself never depends on that package.
"""
from __future__ import annotations

import itertools
import math
import random
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dhratio import specfun, suites
from dhratio.errors import DomainError, PoleError
from dhratio.specfun import (
    ComplexPoint,
    digamma,
    em_split_point,
    hurwitz_zeta,
    lgamma,
    log_abs_gamma,
)

# ----------------------------------------------------------------------
# frozen references
# ----------------------------------------------------------------------

LGAMMA_CASES = [
    (0.75 - 42.85j, -65.45026191394828317193 - 118.5606290698275060433j),
    (-3.2 + 1.7j, -5.17546124027748448402 - 9.339146622050602565702j),
    (10.5 - 110.0j, -124.8501478220352837952 - 422.3072577704132060772j),
]

DIGAMMA_CASES = [
    (0.75 + 0.0j, -1.085860879786472169627 + 0.0j),
    (0.75 + 0.6j, -0.4725114095429438485156 + 1.082686768556292826971j),
    (-2.5 + 30.0j, 3.406127608716289890187 + 1.670474059529933808805j),
]

HURWITZ_CASES = [
    (0.5 + 14.0j, 0.2, -3.015436520584119972053 - 0.9207911398362443483373j),
    (2.0 + 0.0j, 0.5, 4.934802200544679309417 + 0.0j),
    (-3.5 + 2.0j, 0.8, -0.03964858696730732159859 + 0.01059257713930547874988j),
]

GAMMA_1_PLUS_I_ABS = 0.5215640468649398411582

# log Gamma(re + i t) at 30 digits (mpmath's principal loggamma), (real,
# imaginary) per height t; at re - i t the value is the conjugate
LOG_GAMMA_HEIGHTS = [0.3, 50.0, 1e3, 1e4, 1e5, 1e8]
LOG_GAMMA_GRID = {
    -199.3: [
        (-858.682291084714406812213304984, -626.238084461732016468867315339),
        (-1008.57186843966469998727392107, -362.311965854045019931503627741),
        (-2951.36059793576244774394161346, 5574.08091744307395343496957283),
        (-17547.2836274349927354741497836, 81787.5627486128093436944322154),
        (-159378.996381790250521638742844, 1050978.50179127868723734416956),
        (-157083312.212563770534223081335, 1742067760.54993085381069758289),
    ],
    -60.2: [
        (-188.516186101808743195176810041, -189.613256079798312709109735216),
        (-325.957716429009381506303698449, 19.375378390818404331653743475),
        (-1989.2153648037846115266846705, 5810.56686808427342586707891716),
        (-16266.1123627128766878051043687, 82007.8721635231624932340067514),
        (-157777.548320407372536289396613, 1051197.18073795418958160420582),
        (-157080749.895872286630823164044, 1742067979.04788108873083057973),
    ],
    -0.4: [
        (0.941547183454580482041342791259, -2.92080931912792654374294605911),
        (-81.1417321105116365320278301388, 144.180167097465127906462742442),
        (-1576.09436809677586427777396928, 5906.34119895471166728256887768),
        (-15715.3336357513800842378407949, 82101.9899667343786437496915225),
        (-157089.075373874938856224108037, 1051291.13277669539326869356249),
        (-157079648.339163798275588769734, 1742068072.98151984946565283823),
    ],
    0.75: [
        (0.0949520054428878552703727873954, -0.303769199675332297428207319824),
        (-76.6428751803784739355918200938, 145.994057687654676642270157527),
        (-1568.15044944975891344723161384, 5908.14798848050259478518309664),
        (-15704.7417443228455988875406655, 82103.7964198851927516930424068),
        (-157075.835509590215474535366357, 1051292.93919620870739981735375),
        (-157079627.155380942730368060129, 1742068074.78793562901728398522),
    ],
    3.0: [
        (0.675415082248242952120985283202, 0.277526069919508644795916302763),
        (-67.8398209722772810917020723766, 149.466498378406674570776809578),
        (-1552.60799756424085384857312478, 5911.6791864687881758901663343),
        (-15684.0184784608210631562566613, 82107.3304022454842661565593726),
        (-157049.931427293781679340206441, 1051296.47345700649592020769453),
        (-157079585.708849268837545497024, 1742068078.32222733336830137849),
    ],
    450.0: [
        (2297.02581205975565730283026437, 1.83244084031090390570180062227),
        (2294.25075216390340603839850087, 305.509532045486225355050499192),
        (1549.45707895250344121662424311, 6515.95668027850590160580773481),
        (-11566.8450547515365639544816503, 82799.3775595931441637382849361),
        (-151903.652230770264711657481319, 1051997.60919848580408626935613),
        (-157071351.664556720616488448696, 1742068780.46717519068709357691),
    ],
}


# ----------------------------------------------------------------------
# point type
# ----------------------------------------------------------------------


def test_complex_point_round_trip():
    p = ComplexPoint(0.3, -2.5)
    assert complex(p) == 0.3 - 2.5j
    assert p.conjugate() == ComplexPoint(0.3, 2.5)
    assert p.mirror() == ComplexPoint(0.7, 2.5)
    assert ComplexPoint.from_complex(1.5 + 4.0j) == ComplexPoint(1.5, 4.0)


def test_complex_point_rejects_nonfinite():
    with pytest.raises(DomainError):
        ComplexPoint(math.inf, 0.0)
    with pytest.raises(DomainError):
        ComplexPoint(0.0, math.nan)


# ----------------------------------------------------------------------
# log-gamma and digamma
# ----------------------------------------------------------------------


@pytest.mark.parametrize("z, want", LGAMMA_CASES)
def test_lgamma_reference_values(z, want):
    got = lgamma(z)
    assert abs(got - want) < 1e-12 * (1.0 + abs(want)), f"lgamma({z}) = {got}"


def test_lgamma_modulus_on_imag_axis():
    got = math.exp(lgamma(1.0 + 1.0j).real)
    assert abs(got - GAMMA_1_PLUS_I_ABS) < 1e-14


def test_lgamma_real_positive_matches_math():
    for x in (0.5, 1.0, 3.75, 12.0, 0.07):
        assert abs(lgamma(x + 0.0j).real - math.lgamma(x)) < 1e-13 * (1 + abs(math.lgamma(x)))
        assert lgamma(x + 0.0j).imag == 0.0


def test_lgamma_pole_raises():
    for bad in (0.0, -1.0, -7.0):
        with pytest.raises(PoleError):
            lgamma(bad + 0.0j)


def test_lgamma_vectorized_matches_scalar():
    z = np.array([0.3 + 0.4j, -2.2 + 9.0j, 6.0 - 3.0j])
    batch = lgamma(z)
    for k, zk in enumerate(z):
        assert batch[k] == lgamma(complex(zk))


@pytest.mark.parametrize("re", list(LOG_GAMMA_GRID))
def test_log_abs_gamma_matches_lgamma(re):
    # both parts of lgamma, and log_abs_gamma, against the frozen values
    z = re + 1j * np.array(LOG_GAMMA_HEIGHTS)
    ref = np.array([complex(*v) for v in LOG_GAMMA_GRID[re]])
    z, ref = np.concatenate((z, np.conj(z))), np.concatenate((ref, np.conj(ref)))
    got = lgamma(z)
    for name, part, want in (
        ("log|Gamma|", log_abs_gamma(z), ref.real),
        ("Re lgamma", got.real, ref.real),
        ("Im lgamma", got.imag, ref.imag),
    ):
        gap = np.abs(part - want) / np.maximum(1.0, np.abs(want))
        assert gap.max() <= 4e-15, f"{name} off by {gap.max():.3g} at Re z = {re}"


def test_log_abs_gamma_poles_and_scalars():
    for bad in (0.0, -1.0, -7.0):
        with pytest.raises(PoleError):
            log_abs_gamma(bad + 0.0j)
    got = log_abs_gamma(3.0)
    assert type(got) is float and abs(got - math.log(2.0)) < 4e-15
    # next to a pole the shift's squared factors underflow, and the shift is
    # summed again one factor at a time (mpmath: 690.77552789821370...,
    # 458.72525912958108...)
    assert log_abs_gamma(1e-300) == pytest.approx(690.7755278982137, rel=1e-15)
    assert log_abs_gamma(-3.0 + 1e-200j) == pytest.approx(458.7252591295811, rel=1e-15)


def test_gamma_kernels_far_up_leak_no_overflow_warning():
    # w * w overflows past |w| = 1.3e154, where 1/w^2 takes its limit 0; and
    # at a subnormal Re z the argument's y / (x + j) overflows, where
    # arctan(inf) = pi/2 is the limit (mpmath: -79.57688930925423 + 144.81408541911843i)
    z = 0.5 + 1j * np.array([1e155, 1e300, -1e155])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lg, psi, lag = lgamma(z), digamma(z), log_abs_gamma(z)
        near = lgamma(1e-308 + 50j)
    assert abs(near - (-79.57688930925423 + 144.81408541911843j)) < 4e-15 * 144.8
    # there Re lgamma = -pi |t|/2 + O(log t) and psi = ln z + O(1/z)
    assert np.allclose(lg.real, -0.5 * np.pi * np.abs(z.imag), rtol=1e-15, atol=0.0)
    assert np.allclose(lag, lg.real, rtol=1e-15, atol=0.0)
    assert np.allclose(psi, np.log(z), rtol=1e-15, atol=0.0)


def test_lgamma_past_its_float64_argument_is_an_input_error():
    # |Im lgamma| ~ |y| (ln|y| - 1) passes the float64 maximum near
    # |y| = 2.56e305: refused there, while the modulus alone stays finite
    # (mpmath: Im lgamma(0.5 + 2.5e305 i) = 1.75551186023764525e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (0.5 + 1e306j, np.array([3.0 + 1j, -7.5 - 3e305j])):
            with pytest.raises(DomainError, match=r"\|Im\| <= 2\.5e\+305"):
                lgamma(z)
        edge = lgamma(0.5 + 2.5e305j)
        assert log_abs_gamma(0.5 + 1e306j) == -0.5 * np.pi * 1e306
    assert abs(edge.imag - 1.75551186023764525e308) < 4e-16 * 1.7555e308


def test_log_gamma_past_its_float64_modulus_is_an_input_error():
    # log|Gamma| ~ x (ln x - 1) passes the float64 maximum near x = 2.56e305:
    # refused there by both kernels, with no numpy RuntimeWarning (mpmath:
    # log|Gamma(2.5e305 + i)| = 1.75551186023764522e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kernel in (lgamma, log_abs_gamma):
            for z in (3e305 + 1j, np.array([3.0 + 1j, 1e308 - 2j])):
                with pytest.raises(DomainError, match=r"Re <= 2\.5e\+305"):
                    kernel(z)
        edge = log_abs_gamma(2.5e305 + 1j)
    assert abs(edge - 1.75551186023764522e308) < 4e-16 * 1.7555e308


@pytest.mark.parametrize("z, want", DIGAMMA_CASES)
def test_digamma_reference_values(z, want):
    got = digamma(z)
    assert abs(got - want) < 1e-12 * (1.0 + abs(want)), f"digamma({z}) = {got}"


def test_digamma_pole_raises():
    with pytest.raises(PoleError):
        digamma(-1.0 + 0.0j)


@given(
    re=st.floats(min_value=-9.5, max_value=9.5),
    im=st.floats(min_value=-80.0, max_value=80.0),
)
@settings(max_examples=60, deadline=None)
@example(re=-1.5, im=-0.0)  # on the cut's lower side, where z + 1.0 would leave it
def test_lgamma_recurrence_property(re, im):
    z = complex(re, im)
    assume(min(abs(z + k) for k in range(0, 11)) > 0.05)
    # complex(re + 1, im), not z + 1.0: adding 1.0 turns an imaginary part
    # -0.0 into +0.0, which moves z + 1 to the other side of the cut
    gap = lgamma(complex(re + 1.0, im)) - lgamma(z) - np.log(np.complex128(z))
    assert abs(gap) < 1e-12, f"recurrence defect {abs(gap):.3g} at {z}"


@given(
    re=st.floats(min_value=-9.5, max_value=9.5),
    im=st.floats(min_value=0.05, max_value=80.0),
)
@settings(max_examples=60, deadline=None)
@example(re=-2.5, im=0.0)  # its conjugate -2.5 - 0i lies on the cut's lower side
def test_conjugate_symmetry_property(re, im):
    z = complex(re, im)
    assert lgamma(z.conjugate()) == lgamma(z).conjugate()
    assert digamma(z.conjugate()) == digamma(z).conjugate()


@given(
    re=st.floats(min_value=-6.0, max_value=6.0),
    im=st.floats(min_value=-60.0, max_value=60.0),
)
@settings(max_examples=40, deadline=None)
def test_digamma_is_lgamma_derivative_property(re, im):
    z = complex(re, im)
    assume(min(abs(z + k) for k in range(0, 8)) > 0.5)
    h = 1e-4
    fd = (lgamma(z + h) - lgamma(z - h)) / (2.0 * h)
    assert abs(fd - digamma(z)) < 1e-7


# ----------------------------------------------------------------------
# Hurwitz zeta
# ----------------------------------------------------------------------


@pytest.mark.parametrize("s, a, want", HURWITZ_CASES)
def test_hurwitz_reference_values(s, a, want):
    got = hurwitz_zeta(s, a)
    assert abs(got - want) < 1e-11 * (1.0 + abs(want)), f"zeta({s}, {a}) = {got}"


def test_hurwitz_array_points_keep_their_own_split():
    # a low point batched with a high one keeps the split of its own
    # height, and so do near-axis (Re s > |Im s|), Re s < -2 and far-right
    # points
    pts = np.array([-1.5 + 2.0j, 0.5 + 3000.0j, 3.0 - 700.0j, 5.0 + 1.0j, 15.0 - 0.5j, -3.5 + 2.0j])
    pts = np.concatenate((pts, [60.0 + 10.0j, 450.0 + 3.0j, 700.0 - 5.0j]))
    got = hurwitz_zeta(pts, 0.5)
    for sv, g in zip(pts, got):
        assert g == hurwitz_zeta(sv, 0.5)


def test_hurwitz_pole_and_domain():
    with pytest.raises(PoleError):
        hurwitz_zeta(1.0 + 0.0j, 0.3)
    with pytest.raises(DomainError):
        hurwitz_zeta(2.0 + 0.0j, 0.0)
    # any positive offset: zeta(2, 1.5) = zeta(2, 0.5) - 0.5^-2 by one
    # recurrence step
    assert abs(hurwitz_zeta(2.0 + 0.0j, 1.5) - (4.934802200544679309417 - 4.0)) < 1e-12


def test_hurwitz_refuses_points_past_the_height_limit():
    # past |Im s| = 1e8 no column count is formed, at any a and in any array
    for sv in (0.5 + 1e20j, np.array([0.5 + 3.0j, 2.0 - 1.5e8j])):
        with pytest.raises(DomainError, match=r"\|Im s\| <= 1e\+08"):
            hurwitz_zeta(sv, 0.5)


def test_hurwitz_overflow_raises_and_far_right_is_one():
    # 0.2^-s overflows at Re s = 3000 and 1e7; the point Re s = 1e15,
    # a = 1 is finite, and no numpy warning leaks from either
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sv in (3000.0 + 0.0j, 1e7 + 200.0j):
            with pytest.raises(DomainError, match="overflows"):
                hurwitz_zeta(sv, 0.2)
        assert hurwitz_zeta(1e15 + 0.0j, 1.0) == 1.0
        assert hurwitz_zeta(np.array([1e15, 1e300]), 1.0).tolist() == [1.0, 1.0]


def test_hurwitz_brute_force_at_re3():
    rng = np.random.default_rng(20260822)
    n = np.arange(1_000_000, dtype=np.float64)
    for _ in range(3):
        s = complex(3.0, rng.uniform(-50.0, 50.0))
        a = float(rng.uniform(0.05, 1.0))
        brute = np.exp(-s * np.log(n + a)).sum()
        assert abs(hurwitz_zeta(s, a) - brute) < 1e-10, f"s={s}, a={a}"


def _brute_direct_sum(s, logs, weights, counts=None):
    terms = weights * np.exp(-np.multiply.outer(s, logs))
    if counts is not None:  # each point sums its own first counts[p] columns
        terms[np.arange(len(logs)) >= counts[:, None]] = 0.0
    return terms.sum(axis=1), (-logs * terms).sum(axis=1), np.abs(terms).max(axis=1)


def _kernel_cases():
    rng = np.random.default_rng(20260822)
    n = np.arange(1.0, 1501.0)
    fused = np.where(n % 5 == 0, 0.0, np.cos(n))  # any real weights, some zero
    for t0 in (10.0, 1000.0):
        sigmas = np.linspace(-0.5, 1.5, 9)
        heights = np.concatenate((np.linspace(t0, t0 + 1.0, 6), -np.linspace(t0, t0 + 1.0, 6)))
        grid = (sigmas[:, None] + 1j * heights).ravel()
        scattered = rng.uniform(-0.5, 1.5, 60) + 1j * rng.choice([-1.0, 1.0], 60) * rng.uniform(
            t0 - 1.0, t0 + 1.0, 60
        )
        for pts in (grid, scattered):
            for weights in (np.ones(len(n)), fused):
                yield pts, np.log(n), weights


def _columns(logs, weights):
    return lambda k: (logs[k], weights[k])


def test_dirichlet_kernel_matches_brute_force():
    # shared sigma x t grids (with mirrored heights) and scattered points
    # and its derivative sums from the same rows
    for pts, logs, weights in _kernel_cases():
        got, dgot, scale = specfun._dirichlet_sum(
            pts, len(logs), _columns(logs, weights), deriv=True
        )
        want, dwant, want_scale = _brute_direct_sum(pts, logs, weights)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
        assert np.all(np.abs(dgot - dwant) <= 1e-13 * np.abs(dwant))
        assert np.allclose(scale, want_scale, rtol=4e-16, atol=0.0)
        plain, dplain, _ = specfun._dirichlet_sum(pts, len(logs), _columns(logs, weights))
        assert dplain is None and np.array_equal(plain, got)


def test_dirichlet_kernel_blocks_rows_and_columns(monkeypatch):
    # a 256-element budget with 16-column blocks forces chunks of at most
    # 16 rows (5 scattered points, whose sigmas and heights are all
    # distinct), gathers of 4 points and 94 column blocks
    monkeypatch.setattr(specfun, "ELEMENT_BUDGET", 256)
    monkeypatch.setattr(specfun, "_COLUMN_BLOCK", 16)
    for pts, logs, weights in itertools.islice(_kernel_cases(), 4):
        want, dwant, want_scale = _brute_direct_sum(pts, logs, weights)
        got, dgot, scale = specfun._dirichlet_sum(
            pts, len(logs), _columns(logs, weights), deriv=True
        )
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
        assert np.all(np.abs(dgot - dwant) <= 1e-13 * np.abs(dwant))
        assert np.allclose(scale, want_scale, rtol=4e-16, atol=0.0)


@pytest.mark.parametrize("block", [16, 512])
def test_dirichlet_kernel_per_point_counts(monkeypatch, block):
    # columns past a point's own count add nothing to its sums or its
    # scale, also when the count ends inside a column block
    monkeypatch.setattr(specfun, "_COLUMN_BLOCK", block)
    rng = np.random.default_rng(7)
    for pts, logs, weights in _kernel_cases():
        counts = rng.integers(1, len(logs) + 1, len(pts))
        counts[:3] = (1, block, block + 1)
        want, dwant, want_scale = _brute_direct_sum(pts, logs, weights, counts)
        got, dgot, scale = specfun._dirichlet_sum(
            pts, counts, _columns(logs, weights), deriv=True
        )
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
        assert np.all(np.abs(dgot - dwant) <= 1e-13 * np.abs(dwant))
        assert np.allclose(scale, want_scale, rtol=1e-15, atol=0.0)


def test_dirichlet_kernel_bits_do_not_depend_on_einsums_grouping(monkeypatch):
    # a point's row reaches einsum with the same width alone or in any
    # batch, so the point keeps its bits whatever grouping einsum's loop
    # uses; here each row reduces as 4 lanes taken 16 terms a step with a
    # scalar remainder, unlike numpy's own loop
    real = np.einsum

    def regrouped(spec, *ops):
        if spec not in ("pm,pm->p", "pm,pm,m->p"):
            return real(spec, *ops)
        prod = ops[0] * ops[1] * (ops[2] if len(ops) == 3 else 1.0)
        main = prod.shape[1] // 16 * 16
        lanes = np.zeros((len(prod), 4))
        for j in range(0, main, 4):
            lanes = lanes + prod[:, j : j + 4]
        acc = (lanes[:, 0] + lanes[:, 1]) + (lanes[:, 2] + lanes[:, 3])
        for j in range(main, prod.shape[1]):
            acc = acc + prod[:, j]
        return acc

    monkeypatch.setattr(specfun.np, "einsum", regrouped)
    rng = np.random.default_rng(5)
    logs = np.log(np.arange(1.0, 1501.0))
    columns = _columns(logs, np.cos(np.arange(1500.0)))
    pts = rng.uniform(-0.5, 1.5, 40) + 1j * rng.uniform(-1000.0, 1000.0, 40)
    counts = rng.integers(1, len(logs) + 1, len(pts))
    counts[:4] = (1, 9, 512, 513)
    got = specfun._dirichlet_sum(pts, counts, columns, deriv=True)
    for k in range(len(pts)):
        alone = specfun._dirichlet_sum(pts[k : k + 1], counts[k : k + 1], columns, deriv=True)
        assert [v[0] for v in alone] == [v[k] for v in got], f"count {counts[k]}"


def test_dirichlet_kernel_bits_with_mixed_counts_and_shared_heights():
    # points are ordered by count first, so a gather group whose counts
    # differ runs through its heights more than once, and heights repeat
    # (several sigmas, t and -t): each point must still meet the phase row
    # of its own height, and keep the bits it gets alone
    rng = np.random.default_rng(11)
    logs = np.log(np.arange(1.0, 1301.0))
    columns = _columns(logs, np.cos(np.arange(1300.0)))
    heights = rng.uniform(900.0, 1100.0, 12)
    pts = rng.uniform(-0.5, 1.5, 200) + 1j * rng.choice([-1.0, 1.0], 200) * rng.choice(heights, 200)
    counts = rng.choice([5, 512, 513, 700, 1300], 200)
    got = specfun._dirichlet_sum(pts, counts, columns, deriv=True)
    for k in range(len(pts)):
        alone = specfun._dirichlet_sum(pts[k : k + 1], counts[k : k + 1], columns, deriv=True)
        assert [v[0] for v in alone] == [v[k] for v in got], f"point {k}"


@pytest.mark.parametrize("shape", ["line", "grid"])
def test_dirichlet_kernel_memory_at_height(shape):
    # the survey's batches at t ~ 1000: 201 line heights, and a grid of 49
    # sigmas; each gather group forms the phase rows of its own heights only,
    # which reads 1.03 and 0.77 MB (2.38 and 1.98 MB with one table of
    # phase rows for every height of the chunk)
    if shape == "line":
        pts = 0.5 + 1j * np.linspace(1000.0, 1020.0, 201)
    else:
        pts = (np.linspace(0.0, 1.0, 49)[:, None] + 1j * np.linspace(1000.0, 1020.0, 97)).ravel()
        pts = pts[:881]
    counts = 4 * em_split_point(np.abs(pts.imag), pts.real)
    logs = np.log(np.arange(1.0, counts.max() + 1.0))
    columns = _columns(logs, np.cos(np.arange(float(len(logs)))))
    tracemalloc.start()
    try:
        specfun._dirichlet_sum(pts, counts, columns, deriv=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.3e6, f"peak {peak / 1e6:.2f} MB"


@given(
    re=st.floats(min_value=-2.0, max_value=6.0),
    im=st.floats(min_value=-40.0, max_value=40.0),
    a=st.floats(min_value=0.05, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_hurwitz_recurrence_property(re, im, a):
    s = complex(re, im)
    assume(abs(s - 1.0) > 0.05)
    lhs = hurwitz_zeta(s, a) - hurwitz_zeta(s, a + 1.0)
    rhs = np.exp(-s * np.log(np.complex128(a)))
    # a^{-s} can reach ~1e6 for small a and large re, so scale the budget
    scale = max(1.0, abs(rhs))
    assert abs(lhs - rhs) < 1e-10 * scale, f"recurrence defect at s={s}, a={a}"


@pytest.mark.parametrize(
    "name, kernel", [("lgamma_conjugate", "lgamma"), ("digamma_conjugate", "digamma")]
)
def test_conjugation_checks_see_a_small_error(monkeypatch, name, kernel):
    # each check holds the kernel at conj z to the reflection formula, a
    # second path: a 1e-10 relative error, the same at z and conj z (where
    # comparing f(conj z) with conj f(z) reads exactly 0), must show
    real = getattr(suites, kernel)
    checks = {c.name: c for c in suites.run_suite("specfun", 42).checks}
    assert checks[name].passed and checks[name].measured > 0.0
    monkeypatch.setattr(suites, kernel, lambda z: (1.0 + 1e-10) * real(z))
    check = {c.name: c for c in suites.run_suite("specfun", 42).checks}[name]
    assert not check.passed and check.measured > 1e-11


def test_hurwitz_recurrence_check_catches_a_broken_recurrence(monkeypatch):
    # the suite's relative defect must still see a 1e-7 error in the a^-s step
    real = suites.hurwitz_zeta

    def broken(s, a):
        value = real(s, a)
        return value + 1e-7 * np.exp(-s * np.log(a - 1.0)) if a > 1.0 else value

    monkeypatch.setattr(suites, "hurwitz_zeta", broken)
    check = {c.name: c for c in suites.run_suite("specfun").checks}["hurwitz_recurrence"]
    assert not check.passed and check.measured > 1e-8


@given(
    re=st.floats(min_value=-6.0, max_value=6.0),
    im=st.floats(min_value=0.05, max_value=40.0),
    a=st.floats(min_value=0.05, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_hurwitz_conjugate_property(re, im, a):
    s = complex(re, im)
    assume(abs(s - 1.0) > 0.05 and abs(s.conjugate() - 1.0) > 0.05)
    assert hurwitz_zeta(s.conjugate(), a) == hurwitz_zeta(s, a).conjugate()


# ----------------------------------------------------------------------
# seeded draws and exact half-period sine
# ----------------------------------------------------------------------


def test_random_points_keep_the_loop_draws():
    # the masked filter keeps the same draws, in the same order, as a
    # point-by-point loop of random.uniform over the same batches; pairs
    # are drawn real part, then imaginary part, point by point
    def loop(rng, n, re_lo, re_hi, im_lo, im_hi, avoid, radius):
        out = []
        while len(out) < n:
            re = [rng.uniform(re_lo, re_hi) for _ in range(4 * n)]
            im = [rng.uniform(im_lo, im_hi) for _ in range(4 * n)]
            batch = [complex(x, y) for x, y in zip(re, im)]
            out += [z for z in batch if all(abs(z - a) >= radius for a in avoid)]
        return np.array(out[:n])

    avoid = [complex(-k, 0.0) for k in range(11)]
    cases = (
        (400, -10.0, 10.0, -1.0, 1.0, avoid, 0.5),
        (40, -0.6, 0.6, -0.6, 0.6, [0j], 0.65),  # ~10% kept: several batches
        (40, -8.0, 8.0, -40.0, 40.0, (), 0.05),
    )
    for args in cases:
        got = suites._random_points(random.Random(5), *args)
        want = loop(random.Random(5), *args)
        assert got.tobytes() == want.tobytes()
    rng = random.Random(5)
    want = [complex(rng.uniform(2.0, 6.0), rng.uniform(-50.0, 50.0)) for _ in range(50)]
    assert suites._drawn_pairs(random.Random(5), 50, 2.0, 6.0, -50.0, 50.0).tolist() == want


class _FirstDraws(Exception):
    pass


def test_suite_draws_are_frozen_at_one_seed(monkeypatch):
    # run_suite seeds random.Random(seed); these are the dhfun suite's first
    # three points at seed 42, so another generator (or draw order) shows
    def first_points(s):
        raise _FirstDraws(np.array(s)[:3].tolist())

    monkeypatch.setattr(suites, "f_batch", first_points)
    with pytest.raises(_FirstDraws) as caught:
        suites.run_suite("dhfun", 42)
    assert caught.value.args[0] == [
        2.23082877532614 - 34.3205531192774j,  # -8 + 16 u_0, -40 + 80 u_160
        -7.599827916437329 + 10.488236581607914j,
        -3.599530906094092 - 21.684657295107648j,
    ]


def _sin_pi(w) -> complex:
    """sin(pi w) from the reflected route's kernel, its e^(-pi |Im w|) undone."""
    arr = np.array([complex(w)])
    return complex(specfun._sin_cos_pi(arr)[0][0] * np.exp(np.pi * abs(arr[0].imag)))


def test_sin_pi_exact_integer_zeros():
    for n in (-6, -3, 0, 1, 7, 12):
        assert _sin_pi(float(n) + 0.0j) == 0.0, f"sin(pi {n}) must vanish exactly"


def test_sin_pi_matches_cmath_off_axis():
    import cmath

    for w in (0.3 + 0.2j, -1.7 + 2.0j, 5.5 - 1.0j):
        want = cmath.sin(math.pi * w)
        assert abs(_sin_pi(w) - want) < 1e-13 * (1 + abs(want))


# ----------------------------------------------------------------------
# split-point policy
# ----------------------------------------------------------------------


def test_em_split_point_bounds_the_omitted_term():
    # dense in height: t = 0..400 in steps of 0.5, then up to 2e4 (1e3 and
    # 1e4 included), and the heights around |sigma|, below which Re s sets
    # the split.  N follows the rule, and at it (x = N + a with a -> 0, the
    # worst case) the first Bernoulli term the tail drops is below 1e-15:
    # bare (weight 1) up to sigma = 10, and times |x^-s| far right, where
    # the split stops growing with Re s
    assert abs(specfun._SPLIT_PER_HEIGHT - 0.2771) < 1e-4
    t = np.concatenate((np.arange(0.0, 400.5, 0.5), np.geomspace(400.0, 2e4, 2000), [1e3, 1e4]))
    for sigma in (-0.9, 0.5, 2.0, 5.0, 10.0, 30.0, 450.0, 1e4, 1e7):
        near = abs(sigma) + np.array([-0.5, 0.0, 0.5])
        ts = np.concatenate((t, near, np.nextafter(near, 0.0)))
        h = np.maximum(ts, min(max(sigma, 0.0), specfun._SPLIT_REAL_CAP))
        n = em_split_point(ts, sigma)
        assert np.array_equal(n, np.ceil(specfun._SPLIT_PER_HEIGHT * h) + 8), f"split rule broken at sigma = {sigma}"
        s, x = sigma + 1j * ts, n.astype(float)
        weight = 1.0 if sigma <= 10.0 else np.exp(-s * np.log(x))
        _, _, omitted = specfun._em_tail(s, x, weight)
        worst = int(np.argmax(omitted))
        assert np.all(np.isfinite(omitted))
        assert omitted[worst] <= 1e-15, f"omitted {omitted[worst]:.3g} at {sigma}+{ts[worst]}i, N = {n[worst]}"
    # a scalar call, with the third argument the benchmark's tracer passes
    assert em_split_point(99.5, 0.5, None) == 36 and em_split_point(1000.0, 0.5, None) == 286
    assert em_split_point(0.0, 0.5) == 9 and type(em_split_point(1000.0, 0.5)) is int


# per-height split factors keyed by the Bernoulli order whose tail they
# serve: 64 is the rule in force, 24 the 2.4x farther split an order-24
# tail needs, where x^-(2k-1) underflows sooner against the same Pochhammer
# growth.  The one order-64 tail must stay finite and below eps at both.
EM_SPLIT_PER_HEIGHT = {24: 0.673, 64: specfun._SPLIT_PER_HEIGHT}


@pytest.mark.parametrize("order", [24, 64])
def test_em_tail_is_finite_far_up(order):
    # the scaled products: the Pochhammer symbol alone overflows near
    # |t| = 1e5 and x^-65 underflows further up
    t = np.array([1e5, 1e6, 1e8])
    for sigma in (-0.9, 0.5, 2.0):
        s = sigma + 1j * np.concatenate((t, -t))
        n = np.ceil(EM_SPLIT_PER_HEIGHT[order] * np.abs(s.imag)) + specfun._SPLIT_OFFSET
        if order == 64:
            assert np.array_equal(n, em_split_point(np.abs(s.imag), sigma))
        x = n + np.array([0.2, 0.6, 1.0])[:, None]
        tail, dtail, omitted = specfun._em_tail(s, x, 1.0, deriv=True)
        assert np.all(np.isfinite(tail)) and np.all(np.isfinite(dtail))
        assert np.all(np.isfinite(omitted)) and omitted.max() <= 1e-15


def test_em_tail_scaling_keeps_the_unscaled_bits():
    # the loop carries poch and x^-(2k-1) scaled by powers of two, which is
    # exact: where the plain products neither overflow nor underflow, every
    # tail, derivative and omitted term has their bits
    def plain(s, x, weight):
        inv_x = 1.0 / x
        ser = dser = 0.0
        poch, dpoch, fac = s, 1.0, weight * inv_x
        for k in range(32):
            ser = ser + specfun._EM_COEF[k] * poch * fac
            lo, hi = s + (2 * k + 1), s + (2 * k + 2)
            dser = dser + specfun._EM_COEF[k] * dpoch * fac
            dpoch = dpoch * lo * hi + poch * (lo + hi)
            poch = poch * lo * hi
            fac = fac * (inv_x * inv_x)
        return 0.5 * weight + ser, dser, abs(specfun._EM_COEF[32]) * np.abs(poch) * np.abs(fac)

    rng = np.random.default_rng(11)
    # points above the diagonal, and near-axis ones with Re s > |Im s|
    sigma = np.concatenate((rng.uniform(-0.9, 3.0, 60), rng.uniform(1.0, 20.0, 60)))
    height = np.concatenate((rng.uniform(3.0, 3000.0, 60), sigma[60:] * rng.uniform(0.0, 0.99, 60)))
    s = sigma + 1j * height * rng.choice([-1.0, 1.0], 120)
    x = em_split_point(np.abs(s.imag), s.real) + np.array([0.2, 0.4, 0.6, 0.8])[:, None]
    weight = np.exp(-s * np.log(x))
    for got, want in zip(specfun._em_tail(s, x, weight, deriv=True), plain(s, x, weight)):
        assert np.array_equal(got, want)


# B_2, B_4, ..., B_30
_BERNOULLI = [
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510),
    Fraction(43867, 798), Fraction(-174611, 330), Fraction(854513, 138),
    Fraction(-236364091, 2730), Fraction(8553103, 6), Fraction(-23749461029, 870),
    Fraction(8615841276005, 14322),
]


def test_em_coefficients_are_the_exact_bernoulli_ratios():
    # every coefficient list, correctly rounded, from exact Bernoulli
    # numbers (sum_{j <= m} C(m + 1, j) B_j = 0): B_2k / (2k)! for
    # k = 1..33 in the EM tail, B_2n / (2n (2n - 1)) for n = 1..9 in the
    # Stirling series and B_2n / 2n for n = 1..15 in the digamma series
    b = [Fraction(1)]
    for m in range(1, 67):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    want = [float(b[2 * k] / math.factorial(2 * k)) for k in range(1, 34)]
    assert specfun._EM_COEF == want
    assert b[2:32:2] == _BERNOULLI
    pairs = list(enumerate(_BERNOULLI, start=1))
    assert specfun._STIRLING_COEF == [float(bn / (2 * n * (2 * n - 1))) for n, bn in pairs[:9]]
    assert specfun._DIGAMMA_COEF == [float(bn / (2 * n)) for n, bn in pairs]
