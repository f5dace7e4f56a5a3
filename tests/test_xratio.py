"""The reflection ratio X: values, identities, and modulus derivatives.

Reference values frozen from an independent arbitrary-precision
computation; identity checks (reflection, reciprocity, unit circle)
are exact mathematical statements whose defects measure only
evaluation error.
"""
from __future__ import annotations

import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dhratio import suites, xratio
from dhratio.errors import DomainError, PoleError
from dhratio.specfun import digamma, lgamma
from dhratio.xratio import (
    dlogabsx_dt,
    dsigma_logabsx,
    gamma_modulus_dt,
    logabsx_many,
    poles,
    reciprocity_defect,
    reflection_defect,
    trivial_zeros,
    x_of,
)

X_AT_03_2I = 1.055164030176059645296 + 0.2985573037628110043715j
X_AT_0 = 0.7117625434171770584768  # sqrt(5)/pi
S1 = 0.8085171824566373855534 + 85.69934848537759217193j
ABS_X_AT_S1 = 0.271801369195


# ----------------------------------------------------------------------
# values, zeros, poles
# ----------------------------------------------------------------------


def test_reference_values():
    got = x_of(0.3 + 2.0j)
    assert abs(got.value.z - X_AT_03_2I) < 1e-14
    assert abs(x_of(0.0 + 0.0j).value.z - X_AT_0) < 1e-14
    assert abs(math.exp(logabsx_many(S1)) - ABS_X_AT_S1) < 1e-9


def test_log_form_consistency():
    got = x_of(-2.3 + 11.0j)
    recombined = math.exp(got.log_abs) * complex(math.cos(got.arg_cont), math.sin(got.arg_cont))
    assert abs(recombined - got.value.z) < 1e-12 * (1 + abs(got.value.z))


def test_trivial_zero_and_pole_lists():
    zs = trivial_zeros(4)
    ps = poles(4)
    assert [z.sigma for z in zs] == [-1.0, -3.0, -5.0, -7.0]
    assert [p.sigma for p in ps] == [2.0, 4.0, 6.0, 8.0]
    assert all(z.t == 0.0 for z in zs + ps)


def test_zero_flag_and_pole_error():
    val = x_of(-5.0 + 0.0j)
    assert val.zero_flag
    assert val.value.z == 0.0
    assert val.log_abs == -math.inf
    for p in (2.0, 6.0):
        with pytest.raises(PoleError):
            x_of(p + 0.0j)


def test_x_overflow_is_a_typed_error_and_log_modulus_stays_finite():
    # |X(-200+5i)| = e^824.3 overflows float64; log|X| does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows float64"):
            x_of(-200.0 + 5.0j)
        assert abs(logabsx_many(-200.0 + 5.0j) - 824.3026425215692) < 1e-9


def test_x_past_the_log_gamma_limit_is_an_input_error():
    # log|Gamma(1 - s)| leaves float64 past 1 - Re s = 2.5e305: refused with
    # the limit on s itself, not a pole (mpmath: log|X(-2.5e305 + i)| =
    # 1.75494076235270711e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (logabsx_many, x_of):
            with pytest.raises(DomainError, match=r"Re s >= -2\.5e\+305"):
                call(-3e305 + 1j)
        edge = logabsx_many(-2.5e305 + 1j)
    assert abs(edge - 1.75494076235270711e308) < 4e-16 * 1.755e308


def test_logabsx_many_signals_by_infinity():
    out = logabsx_many(np.array([-5.0 + 0.0j, 6.0 + 0.0j, 0.5 + 3.0j]))
    assert out[0] == -math.inf
    assert out[1] == math.inf
    assert abs(out[2]) < 1e-14  # on the line


def test_logabsx_many_bits_do_not_depend_on_the_point_block(monkeypatch):
    rng = np.random.default_rng(20261019)
    pts = rng.uniform(-6.0, 7.0, 100) + 1j * rng.uniform(-40.0, 40.0, 100)
    pts = np.concatenate((pts, [-5.0, 6.0, 0.5 + 3.0j]))  # a zero, a pole, the line
    default = logabsx_many(pts)
    monkeypatch.setattr(xratio, "_POINT_BLOCK", 7)
    assert np.array_equal(logabsx_many(pts), default)


def test_x_many_bits_do_not_depend_on_the_point_block(monkeypatch):
    rng = np.random.default_rng(20261019)
    pts = rng.uniform(-6.0, 7.0, 100) + 1j * rng.uniform(-40.0, 40.0, 100)
    pts = np.concatenate((pts, [-5.0, 0.5 + 3.0j]))  # a zero of X, the line
    log_abs, angle = xratio._log_x(pts, True)
    monkeypatch.setattr(xratio, "_POINT_BLOCK", 7)
    blocked = xratio._log_x(pts, True)
    assert np.array_equal(blocked[0], log_abs)
    assert np.array_equal(blocked[1], angle, equal_nan=True)
    assert log_abs[-2] == -math.inf and math.isnan(angle[-2])


def test_x_many_memory_is_bounded_for_many_points():
    # 50 000 points go through the one-Gamma kernel, argument included, in
    # fixed blocks; what grows is the two real results, 16 bytes a point
    pts = (np.linspace(0.05, 0.95, 5)[:, None] + 1j * np.linspace(0.0, 200.0, 10000)).ravel()
    tracemalloc.start()
    try:
        xratio._log_x(pts, True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.3e6, f"peak {peak / 1e6:.1f} MB"


# ----------------------------------------------------------------------
# identities
# ----------------------------------------------------------------------


def test_reflection_defect_example():
    assert reflection_defect(3.3, 0.4) < 1e-12


def test_reflection_defect_on_seeded_grid():
    pairs = suites._drawn_pairs(random.Random(20260822), 40, -50, 50, -5, 5)  # t + i epsilon
    t, epsilon = pairs.real, pairs.imag
    defect = reflection_defect(t, epsilon)
    assert defect.shape == (40,)
    assert defect.max() < 1e-12, f"defect {defect.max():.3g} at t = {t[defect.argmax()]}"


def test_reflection_defect_refuses_a_non_finite_t_and_a_pole():
    for t in (math.nan, [1.0, math.nan]):
        with pytest.raises(DomainError, match="finite"):
            reflection_defect(t, 0.1)
    with pytest.raises(PoleError):
        reflection_defect([3.0, 0.0], 1.5)  # s+ = 2, a pole of X


@pytest.mark.parametrize("delta", [1e-3, 1e-5])
def test_reciprocity_defect_is_order_delta(delta):
    for n in range(3):
        defect = reciprocity_defect(n, delta)
        assert defect < delta, f"defect {defect:.3g} not O(delta) at n={n}"


def test_reciprocity_validation():
    with pytest.raises(DomainError):
        reciprocity_defect(-1, 1e-3)
    with pytest.raises(DomainError):
        reciprocity_defect(0, 0.0)


def test_unit_circle_on_critical_line():
    rng = np.random.default_rng(20260822)
    t = rng.uniform(-100.0, 100.0, 1000)
    g = logabsx_many(0.5 + 1j * t)
    assert np.abs(np.expm1(g)).max() < 1e-12


def test_logabsx_exactly_zero_on_critical_line():
    # |X| = 1 on the line, and logabsx_many returns 0 there by rule
    t = np.random.default_rng(20260822).uniform(-1e4, 1e4, 100_000)
    assert not np.any(logabsx_many(0.5 + 1j * t))


# log|X| at 30 digits (mpmath: the log of |(5/pi)^(1/2 - s) Gamma(1 - s/2) /
# Gamma((1 + s)/2)|), at the float points as written: next to s = 1 and 3,
# where the cosine's zero cancels the pole of Gamma(1 - s); next to the
# zeros -1 and -3; at s = 1, 3, 5 exactly; in the traced window; and out to
# t = 1e4 and sigma from -60 to 450.
LOGABSX_REFS = [
    (1.0 + 1e-9, "0.3400109304380048727912379"),
    (1.0 - 1e-9, "0.3400109288266951911629776"),
    (complex(1.0 + 1e-9, 1e-9), "0.3400109304380048723800043"),
    (complex(1.0 - 1e-9, 1e-9), "0.3400109288266951907517441"),
    (3.0 + 1e-7, "0.103741987588387258993637"),
    (-1.0 + 1e-9, "-20.84013324374082842631332"),
    (complex(-1.0 - 1e-9, 2e-9), "-20.03541424230508134206711"),
    (-3.0 + 1e-8, "-17.20266697734719701875888"),
    (complex(-3.0 - 1e-7, -1e-7), "-14.55350817576936076297023"),
    (1.0, "0.3400109296323499868430477"),
    (3.0, "0.1037420570228948953456158"),
    (5.0, "-1.924286284814615196964293"),
    (0.8 + 1.2j, "0.00156238109549974662452553"),
    (-1.7 + 2.1j, "1.433522168526379391800576"),
    (2.6 - 0.4j, "0.3358247040190687594848725"),
    (0.3 + 0.05j, "-0.1256734196891024033893512"),
    (-0.5 + 1.9j, "0.4468944377631245939395631"),
    (2.9 + 2.2j, "-1.699710814178860368940018"),
    (-60.0 + 3.0j, "178.5267877270806025568285"),
    (-60.0 + 250.0j, "320.8082037894381122370557"),
    (450.0 + 2.0j, "-2196.558848019183969853814"),
    (450.0 - 300.0j, "-2570.907778253204961689956"),
    (0.2 + 300.0j, "1.642602907315251661810937"),
    (0.3 + 1e3j, "1.335863218001377321773533"),
    (-20.0 + 5e3j, "169.9195151672512784215835"),
    (0.9 + 1e4j, "-3.592760487140375250206897"),
    (100.0 + 1e4j, "-893.7008128923372589672901"),
]


def test_logabsx_matches_frozen_references():
    # 2e-14 of max(1, |log|X||) up to |t| = 300, growing with the height
    # above it; next to the odd integers this needs the cosine reduced there
    s = np.array([complex(p) for p, _ in LOGABSX_REFS])
    ref = np.array([float(v) for _, v in LOGABSX_REFS])
    err = np.abs(logabsx_many(s) - ref) / np.maximum(1.0, np.abs(ref))
    bound = 2e-14 * np.maximum(1.0, np.abs(s.imag) / 300.0)
    worst = np.argmax(err / bound)
    assert err[worst] <= bound[worst], f"log|X| off by {err[worst]:.3g} at {s[worst]}"
    assert [logabsx_many(p) for p in s] == logabsx_many(s).tolist()


def test_x_of_log_abs_matches_frozen_references():
    # x_of reads the same one-Gamma kernel, so it meets the same bound
    s = np.array([complex(p) for p, _ in LOGABSX_REFS])
    ref = np.array([float(v) for _, v in LOGABSX_REFS])
    got = np.array([x_of(p).log_abs for p in s])
    err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
    bound = 2e-14 * np.maximum(1.0, np.abs(s.imag) / 300.0)
    worst = np.argmax(err / bound)
    assert err[worst] <= bound[worst], f"x_of log|X| off by {err[worst]:.3g} at {s[worst]}"


# Im L at 30 digits (mpmath: the imaginary part of (1/2 - s) ln(5/pi) +
# loggamma(1 - s/2) - loggamma((1 + s)/2), principal loggamma), at the float
# points as written: out to t = 1e5, and near the real axis left and right.
ARG_REFS = [
    (0.5 + 1e3j, "-5680.101564836958488626681"),
    (2.4 - 1e3j, "5680.09975983789407921568"),
    (-7.5 + 1e3j, "-5680.069565175616587182155"),
    (0.9 + 1e4j, "-79819.79757433944038399416"),
    (-1.5 + 1e4j, "-79819.79738233944155519415"),
    (0.3 + 1e5j, "-1028449.416497878395227983"),
    (0.5 - 1e5j, "1028449.416498078395227984"),
    (4.2 + 1e5j, "-1028449.416429628395243032"),
    (-2.3 + 11j, "-13.30036236207087837497343"),
    (3.5 + 0.1j, "3.208660634296547359916294"),
    (-6.5 + 0.2j, "9.376407586338515344125286"),
]


def test_arg_cont_is_within_four_ulp_of_frozen_references():
    for p, v in ARG_REFS:
        ref, got = float(v), x_of(p).arg_cont
        assert abs(got - ref) <= 4.0 * np.spacing(abs(ref)), f"arg X off by {got - ref:.3g} at {p}"


# arg_cont of the two-lgamma log form at sigma = -7.5, -7.25, ..., 9.5 for
# each t, as the library returned it before the one-Gamma kernel; at t = 0
# the poles 2, 4, 6, 8 and the zeros -1, -3, -5, -7 are skipped.
ARG_GRID = {
    0.0: (
        12.566370614359172, 12.566370614359172, 9.42477796076938, 9.42477796076938,
        9.42477796076938, 9.42477796076938, 9.42477796076938, 9.42477796076938,
        9.42477796076938, 6.283185307179586, 6.283185307179586, 6.283185307179586,
        6.283185307179586, 6.283185307179586, 6.283185307179586, 6.283185307179586,
        3.141592653589793, 3.141592653589793, 3.141592653589793, 3.141592653589793,
        3.141592653589793, 3.141592653589793, 3.141592653589793, 0.0,
        0.0, 0.0, 0.0, 0.0,
        0.0, 0.0, 0.0, 0.0,
        0.0, 0.0, -3.141592653589793, -3.141592653589793,
        -3.141592653589793, -3.141592653589793, -3.141592653589793, -3.141592653589793,
        -3.141592653589793, -6.283185307179586, -6.283185307179586, -6.283185307179586,
        -6.283185307179586, -6.283185307179586, -6.283185307179586, -6.283185307179586,
        -9.42477796076938, -9.42477796076938, -9.42477796076938, -9.42477796076938,
        -9.42477796076938, -9.42477796076938, -9.42477796076938, -12.566370614359172,
        -12.566370614359172, -12.566370614359172, -12.566370614359172, -12.566370614359172,
        -12.566370614359172,
    ),
    0.1: (
        12.226645096315186, 12.024607708412018, 10.81685110539376, 9.609205166061807,
        9.407500501457081, 9.321018128711081, 9.26033952118626, 9.199808052121686,
        9.113768387800134, 8.912805918535403, 7.706208318105306, 6.499815794873243,
        6.29947106472086, 6.214469425979647, 6.155409325283558, 6.096654471958271,
        6.012574114610039, 5.813783651912841, 4.6096077921075835, 3.4059330117950952,
        3.2086606342965474, 3.127161369445542, 3.0721324611909324, 3.018069787762094,
        2.9395238059822955, 2.7473657396404305, 1.5512945301179786, 0.35776876163058713,
        0.17361483160586805, 0.10981391681489634, 0.0801668558142442, 0.06610944887523973,
        0.061894876018206285, 0.06610944887523973, 0.0801668558142442, 0.10981391681489634,
        0.17361483160586805, 0.35776876163058713, 1.5512945301179786, 2.7473657396404305,
        2.9395238059822955, 3.0180697877620934, 3.072132461190932, 3.127161369445542,
        3.208660634296547, 3.405933011795095, 4.6096077921075835, 5.813783651912842,
        6.0125741146100395, 6.096654471958271, 6.155409325283559, 6.214469425979647,
        6.29947106472086, 6.499815794873244, 7.706208318105307, 8.912805918535403,
        9.113768387800132, 9.199808052121686, 9.26033952118626, 9.321018128711081,
        9.407500501457081, 9.609205166061805, 10.81685110539376, 12.024607708412018,
        12.226645096315185, 12.313684464821538, 12.375148083169295, 12.43669793492195,
        12.523996448602968,
    ),
    -0.1: (
        -12.226645096315186, -12.024607708412018, -10.81685110539376, -9.609205166061807,
        -9.407500501457081, -9.321018128711081, -9.26033952118626, -9.199808052121686,
        -9.113768387800134, -8.912805918535403, -7.706208318105306, -6.499815794873243,
        -6.29947106472086, -6.214469425979647, -6.155409325283558, -6.096654471958271,
        -6.012574114610039, -5.813783651912841, -4.6096077921075835, -3.4059330117950952,
        -3.2086606342965474, -3.127161369445542, -3.0721324611909324, -3.018069787762094,
        -2.9395238059822955, -2.7473657396404305, -1.5512945301179786, -0.35776876163058713,
        -0.17361483160586805, -0.10981391681489634, -0.0801668558142442, -0.06610944887523973,
        -0.061894876018206285, -0.06610944887523973, -0.0801668558142442, -0.10981391681489634,
        -0.17361483160586805, -0.35776876163058713, -1.5512945301179786, -2.7473657396404305,
        -2.9395238059822955, -3.0180697877620934, -3.072132461190932, -3.127161369445542,
        -3.208660634296547, -3.405933011795095, -4.6096077921075835, -5.813783651912842,
        -6.0125741146100395, -6.096654471958271, -6.155409325283559, -6.214469425979647,
        -6.29947106472086, -6.499815794873244, -7.706208318105307, -8.912805918535403,
        -9.113768387800132, -9.199808052121686, -9.26033952118626, -9.321018128711081,
        -9.407500501457081, -9.609205166061805, -10.81685110539376, -12.024607708412018,
        -12.226645096315185, -12.313684464821538, -12.375148083169295, -12.43669793492195,
        -12.523996448602968,
    ),
    1.0: (
        9.969925713986827, 9.59708765479501, 9.205437480216618, 8.81487497140078,
        8.445306822439042, 8.10220579358264, 7.77653820802589, 7.452308708721944,
        7.113533921088973, 6.751216437701807, 6.370890558645619, 5.9925514877223245,
        5.63621699703699, 5.307489907484024, 4.9974897917006045, 4.690403096090292,
        4.370463713165599, 4.028935956612681, 3.671672128032572, 3.319057452315077,
        2.9915929483262502, 2.6954868526763076, 2.4226263556343177, 2.158183837831746,
        1.8876770956932827, 1.6040665641882967, 1.3154776378402266, 1.0453819165557152,
        0.8185092753963896, 0.6468594708892952, 0.5300794744427784, 0.46303251649008775,
        0.44123576344514764, 0.46303251649008775, 0.5300794744427784, 0.6468594708892952,
        0.8185092753963896, 1.0453819165557152, 1.3154776378402266, 1.6040665641882967,
        1.887677095693283, 2.158183837831746, 2.4226263556343177, 2.6954868526763076,
        2.9915929483262502, 3.319057452315077, 3.6716721280325717, 4.02893595661268,
        4.370463713165599, 4.690403096090292, 4.9974897917006045, 5.307489907484024,
        5.63621699703699, 5.9925514877223245, 6.370890558645619, 6.751216437701807,
        7.113533921088973, 7.452308708721943, 7.77653820802589, 8.10220579358264,
        8.445306822439042, 8.81487497140078, 9.205437480216618, 9.59708765479501,
        9.969925713986827, 10.31849977923754, 10.651878812464757, 10.986108604282144,
        11.337239199165296,
    ),
    -1.0: (
        -9.969925713986827, -9.59708765479501, -9.205437480216618, -8.81487497140078,
        -8.445306822439042, -8.10220579358264, -7.77653820802589, -7.452308708721944,
        -7.113533921088973, -6.751216437701807, -6.370890558645619, -5.9925514877223245,
        -5.63621699703699, -5.307489907484024, -4.9974897917006045, -4.690403096090292,
        -4.370463713165599, -4.028935956612681, -3.671672128032572, -3.319057452315077,
        -2.9915929483262502, -2.6954868526763076, -2.4226263556343177, -2.158183837831746,
        -1.8876770956932827, -1.6040665641882967, -1.3154776378402266, -1.0453819165557152,
        -0.8185092753963896, -0.6468594708892952, -0.5300794744427784, -0.46303251649008775,
        -0.44123576344514764, -0.46303251649008775, -0.5300794744427784, -0.6468594708892952,
        -0.8185092753963896, -1.0453819165557152, -1.3154776378402266, -1.6040665641882967,
        -1.887677095693283, -2.158183837831746, -2.4226263556343177, -2.6954868526763076,
        -2.9915929483262502, -3.319057452315077, -3.6716721280325717, -4.02893595661268,
        -4.370463713165599, -4.690403096090292, -4.9974897917006045, -5.307489907484024,
        -5.63621699703699, -5.9925514877223245, -6.370890558645619, -6.751216437701807,
        -7.113533921088973, -7.452308708721943, -7.77653820802589, -8.10220579358264,
        -8.445306822439042, -8.81487497140078, -9.205437480216618, -9.59708765479501,
        -9.969925713986827, -10.31849977923754, -10.651878812464757, -10.986108604282144,
        -11.337239199165296,
    ),
}


def test_arg_cont_keeps_its_branch_across_the_poles_rows():
    sigmas = -7.5 + 0.25 * np.arange(69)
    for t, want in ARG_GRID.items():
        s = sigmas + 1j * t
        if t == 0.0:
            odd = np.mod(sigmas, 2.0) == 1.0
            s = s[(sigmas != np.floor(sigmas)) | ((sigmas < 2.0) & ~odd) | ((sigmas > -1.0) & odd)]
        got = np.array([x_of(p).arg_cont for p in s])
        err = np.abs(got - np.array(want)) / np.maximum(1.0, np.abs(want))
        assert err.max() <= 4e-15, f"arg X off by {err.max():.3g} at {s[err.argmax()]}"


def test_logabsx_at_the_odd_integers_is_the_limit():
    # |cos(pi s/2) Gamma(1 - s)| -> pi / (2 (2m)!) at s = 2m + 1, so X(1) = pi/sqrt(5)
    assert abs(math.exp(logabsx_many(1.0)) - math.pi / math.sqrt(5.0)) < 1e-15
    assert abs(logabsx_many(1.0 + 1e-12) - logabsx_many(1.0)) < 1e-12
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        near = logabsx_many(np.array([1.0 + 1e-200j, 3.0 + 5e-324j, -1.0 + 5e-324j]))
    # a subnormal or tiny t next to an odd integer keeps its digits (mpmath)
    assert abs(near[0] - 0.3400109296323499868) < 1e-13
    assert abs(near[1] - 0.1037420570228948953) < 1e-12
    assert abs(near[2] - -744.5569392996994) < 1e-12


@given(
    re=st.floats(min_value=-6.0, max_value=7.0),
    im=st.floats(min_value=0.05, max_value=60.0),
)
@settings(max_examples=50, deadline=None)
def test_x_product_with_mirror_is_one(re, im):
    s = complex(re, im)
    prod = x_of(s).value.z * x_of(1.0 - s).value.z
    assert abs(prod - 1.0) < 1e-12, f"X(s) X(1-s) = {prod} at {s}"


@given(
    re=st.floats(min_value=-6.0, max_value=7.0),
    im=st.floats(min_value=0.05, max_value=60.0),
)
@example(re=3.5, im=0.0)  # on the real axis, where X is real
@settings(max_examples=50, deadline=None)
def test_x_conjugate_symmetry(re, im):
    s = complex(re, im)
    assert x_of(s.conjugate()).value.z == x_of(s).value.z.conjugate()


# ----------------------------------------------------------------------
# modulus derivatives
# ----------------------------------------------------------------------


def test_dlogabsx_dt_vanishes_on_line_exactly():
    assert dlogabsx_dt(0.5 + 17.0j) == 0.0


def test_dlogabsx_dt_sign_table():
    # sign of d(log|X|)/dt equals sign of t (1/2 - sigma) in each quadrant
    for sigma, t in [(0.2, 3.0), (0.9, 3.0), (0.2, -3.0), (0.9, -3.0), (-4.0, 40.0), (6.0, -40.0)]:
        got = dlogabsx_dt(complex(sigma, t))
        want = math.copysign(1.0, t * (0.5 - sigma))
        assert math.copysign(1.0, got) == want, f"sign at sigma={sigma}, t={t}"


def test_dlogabsx_dt_matches_finite_difference():
    h = 1e-3
    for s in (0.2 + 3.0j, -1.5 + 9.0j, 2.4 - 14.0j):
        series = dlogabsx_dt(s)
        fd = (logabsx_many(s + 1j * h) - logabsx_many(s - 1j * h)) / (2 * h)
        assert abs(series - fd) < 1e-6 * abs(fd), f"mismatch at {s}"


def test_dsigma_logabsx_matches_finite_difference():
    h = 1e-4
    for s in (0.2 + 3.0j, -1.5 + 9.0j, 2.4 - 14.0j):
        series = dsigma_logabsx(s)
        fd = (logabsx_many(s + h) - logabsx_many(s - h)) / (2 * h)
        assert abs(series - fd) < 1e-6 * abs(fd), f"mismatch at {s}"


def test_suite_fd_checks_hold_near_a_pole_and_catch_a_wrong_series(monkeypatch):
    # next to the pole of X at s = 4 a plain central difference misreads the
    # slope by 2.3e-5; the suite's Richardson difference holds there, and
    # the suite's checks pass at seed 7 and still see a 1e-5 error
    near = np.array([3.8308111048766946 + 0.0744773516443189j])
    fd = suites._logabsx_fd(near, 1e-3j)
    assert abs(dlogabsx_dt(near)[0] - fd[0]) < 1e-9 * abs(fd[0])
    names = ("dlogabsx_dt_vs_fd", "dsigma_logabsx_vs_fd")
    checks = {c.name: c for c in suites.run_suite("xratio", 7).checks}
    assert all(checks[n].passed for n in names)
    monkeypatch.setattr(suites, "dlogabsx_dt", lambda s: (1 + 1e-5) * dlogabsx_dt(s))
    monkeypatch.setattr(suites, "dsigma_logabsx", lambda s: (1 + 1e-5) * dsigma_logabsx(s))
    checks = {c.name: c for c in suites.run_suite("xratio", 7).checks}
    assert all(not checks[n].passed and checks[n].measured > 5e-6 for n in names)


@pytest.mark.parametrize("where", ["upper_half", "everywhere"])
def test_x_conjugate_check_sees_a_small_error(monkeypatch, where):
    # conj X(s) is held to the two-Gamma form at conj s, so a 1e-10 relative
    # error in X shows even where it keeps X(conj s) = conj X(s)
    real = suites._x_many

    def wrong(s):
        values, log_abs, angle = real(s)
        planted = s.imag > 0.0 if where == "upper_half" else np.ones(len(s), dtype=bool)
        return values * (1.0 + 1e-10 * planted), log_abs, angle

    monkeypatch.setattr(suites, "_x_many", wrong)
    check = {c.name: c for c in suites.run_suite("xratio", 42).checks}["x_conjugate"]
    assert not check.passed and check.measured > 1e-11


def test_dsigma_logabsx_pole():
    with pytest.raises(PoleError):
        dsigma_logabsx(-1.0 + 0.0j)
    with pytest.raises(PoleError):
        dsigma_logabsx(np.array([0.2 + 3.0j, -1.0 + 0.0j, 0.5 + 1.0j]))


def test_dsigma_logabsx_takes_the_region_of_x():
    # refused past X's two limits with X's messages; inside, a value down to
    # Re s = -2.5e305, (1 + s)/2 reflected below Re s = -4075 (mpmath refs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (2038.01 + 1j, 2100.0 + 1j, 1e154 + 1j, np.array([0.3 + 1j, 1e155 + 1j])):
            with pytest.raises(DomainError, match=r"X takes Re s <= 2038,"):
                dsigma_logabsx(s)
        for s in (-3e305 + 1j, np.array([-3e305 + 1j, 0.3 + 1j])):
            with pytest.raises(DomainError, match=r"X takes Re s >= -2\.5e\+305,"):
                dsigma_logabsx(s)
        s = np.array([2038 + 1j, -2.5e305 + 1j, -1e155 + 1j, -4075 + 1j, -4075.5 + 1j, -5000.3 + 2j])
        got = dsigma_logabsx(s)
    want = np.array([
        -7.3910398216176257007, -702.9763049410828436, -356.67225026010183592,
        -8.0843095961707311273, -8.2199397486705432527, -8.2841782236373749356,
    ])
    assert np.all(np.abs(got - want) <= 4e-16 * np.abs(want))
    with pytest.raises(PoleError):
        dsigma_logabsx(-5001.0 + 0.0j)  # a zero of X, reflected side


def test_dlogabsx_dt_far_out_is_refused_or_finite():
    # its series squares sigma- and t-sized terms: past its domain a typed
    # error names the limit, inside it no numpy warning (mpmath refs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s, limit in (
            (1e154 + 1j, "Re s <= 2038"),
            (2038.01 + 1j, "Re s <= 2038"),
            (1e155 + 1j, "-2037 <= Re s"),
            (-1e155 + 1j, "-2037 <= Re s"),
            (-2037.01 + 1j, "-2037 <= Re s"),
            (0.3 + 1e155j, r"\|Im s\| <= 1e\+08"),
            (0.3 - 1.0001e8j, r"\|Im s\| <= 1e\+08"),
        ):
            with pytest.raises(DomainError, match=limit):
                dlogabsx_dt(s)
        got = dlogabsx_dt(np.array([2038 + 1j, -2037 + 1j, 0.3 + 1e8j]))
    want = np.array([-1.7121977774628956444, 1.7121977774628956444, 2.000000000000000125e-9])
    assert np.all(np.abs(got - want) <= np.array([1e-14, 1e-14, 1e-7]) * np.abs(want))


def test_dlogabsx_dt_matches_mpmath_at_every_height():
    # (1/2) Im[psi(1 - s/2) + psi((1 + s)/2)] by mpmath at 60 digits: the
    # tail's arctangent difference and its midpoint correction hold the
    # partial sum to roundoff from t = 2 to the height limit and across Re s
    s, want = np.array([
        (0.3 + 2j, 0.098488903463990080034),
        (0.3 + 30j, 0.006667185373165532636),
        (0.3 + 1e3j, 0.00020000001400000457511),
        (0.3 + 1e4j, 0.000020000000014000001156),
        (0.3 + 3e4j, 6.6666666671851855554e-6),
        (0.3 + 1e6j, 2.000000000000140111e-7),
        (0.3 + 1e8j, 2.000000000000000125e-9),
        (1.7 + 30j, -0.039982380433632609823),
        (-2036.5 + 100j, 1.5217439063410461564),
        (2038 + 5j, -1.5683428174836055093),
        (1500 + 1e4j, -0.14884104761487741884),
    ]).T
    got = dlogabsx_dt(s)
    assert np.all(np.abs(got - want.real) <= 1e-15 * np.abs(want.real))


def test_gamma_modulus_dt_far_out_is_refused_or_finite():
    # past |s| = 1e154 a series term overflows, next to a pole the nearest
    # term does, and far enough right (upper: left) the modulus does; each is
    # a typed error naming its limit, and inside no numpy warning (mpmath refs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s, which, limit in (
            (0.3 + 1e155j, "upper", r"\|s\| <= 1e\+154"),
            (0.3 + 1e155j, "lower", r"\|s\| <= 1e\+154"),
            (1e155 + 1j, "lower", r"\|s\| <= 1e\+154"),
            (-1e155 + 1j, "upper", r"\|s\| <= 1e\+154"),
            (1e154 + 1j, "upper", "shift budget"),
            (1e154 + 1j, "lower", r"log\|Gamma\| <= 709.783 for the lower factor"),
            (-400 + 1j, "upper", r"log\|Gamma\| <= 709.783 for the upper factor"),
            (2 + 1e-200j, "upper", "1e-153 or more from its poles"),
            (-1 - 1e-160j, "lower", "1e-153 or more from its poles"),
        ):
            with pytest.raises(DomainError, match=limit):
                gamma_modulus_dt(s, which)
        upper = np.array([2 + 1e-152j, 0.3 + 2j, -300.5 + 100j, 0.3 + 1e78j])
        lower = np.array([-1 + 1e-152j, 0.3 + 2j, 300 + 5j, 0.3 - 1e150j])
        got = np.append(gamma_modulus_dt(upper, "upper"), gamma_modulus_dt(lower, "lower"))
    want = np.array([
        -1.9999999999999997374e304, -0.31123835912670864112, -9.2899357859926023432e258, 0.0,
        -1.9999999999999997374e304, -0.36240168976823518847, -3.8037806010330986723e259, 0.0,
    ])
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_dsigma_logabsx_on_an_array_is_the_scalar_result_bit_for_bit():
    rng = np.random.default_rng(11)
    s = rng.uniform(-4.0, 5.0, 300) + 1j * rng.uniform(-300.0, 300.0, 300)
    s[:3] = 0.5 + 1j * np.array([0.0, 1.21, 14.0])  # on the line, where h uses it
    many = dsigma_logabsx(s)
    assert isinstance(dsigma_logabsx(complex(s[0])), float)
    assert many.shape == s.shape
    assert [float(v) for v in many] == [dsigma_logabsx(complex(v)) for v in s]


def test_gamma_modulus_dt_signs_and_fd():
    # both Gamma modulus factors decrease away from the real axis
    for which in ("upper", "lower"):
        assert gamma_modulus_dt(0.3 + 5.0j, which) < 0.0
        assert gamma_modulus_dt(0.3 - 5.0j, which) > 0.0
    h = 3e-4
    s = 0.4 + 3.0j
    for which, sign in (("upper", -1.0), ("lower", 1.0)):
        series = gamma_modulus_dt(s, which)
        arg = 1.0 - 0.5 * s if which == "upper" else 0.5 * (1.0 + s)
        up = math.exp(lgamma(arg + 0.5j * h * sign).real)
        dn = math.exp(lgamma(arg - 0.5j * h * sign).real)
        fd = (up - dn) / (2 * h)
        assert abs(series - fd) < 1e-6 * abs(fd), f"{which}: {series} vs {fd}"


def test_derivative_series_match_their_digamma_closed_forms():
    # d log|X|/dt = Im[psi(1 - s/2) + psi((1+s)/2)]/2 and
    # d|Gamma(w)|/dt = +-|Gamma(w)| Im psi(w)/2 for w = 1 - s/2, (1+s)/2;
    # the series with their midpoint tails agree to 1.3e-14, 6.0e-13 and
    # 5.3e-13 relative at these points
    s = np.array([0.3 + 5.0j, -3.7 - 19.0j, 4.6 + 0.4j, 2.4 - 14.0j])
    upper, lower = 1.0 - 0.5 * s, 0.5 * (1.0 + s)
    psi_up, psi_lo = digamma(upper), digamma(lower)
    closed = {
        "dlogabsx_dt": 0.5 * (psi_up + psi_lo).imag,
        "upper": 0.5 * np.exp(lgamma(upper).real) * psi_up.imag,
        "lower": -0.5 * np.exp(lgamma(lower).real) * psi_lo.imag,
    }
    series = {
        "dlogabsx_dt": dlogabsx_dt(s),
        "upper": gamma_modulus_dt(s, "upper"),
        "lower": gamma_modulus_dt(s, "lower"),
    }
    for name, want in closed.items():
        rel = np.abs(series[name] - want) / np.abs(want)
        assert rel.max() <= 1e-10, f"{name}: {rel.max():.3g}"


def test_gamma_modulus_dt_validation():
    with pytest.raises(DomainError):
        gamma_modulus_dt(0.3 + 5.0j, "sideways")


def test_a_batch_changes_no_probe_bits():
    # every point of a batch gets exactly the value it gets alone
    rng = np.random.default_rng(20261019)
    s = rng.uniform(-4.0, 5.0, 30) + 1j * rng.uniform(-30.0, 30.0, 30)
    s[:2] = [0.5 + 7.0j, 1.3]  # on the line, and t = 0 where the tails vanish
    t, epsilon = rng.uniform(-50.0, 50.0, 30), rng.uniform(-5.0, 5.0, 30)
    n, delta = np.arange(4)[:, None], np.array([1e-3, 1e-5, 0.25])
    batches = {
        "dlogabsx_dt": (dlogabsx_dt(s), [dlogabsx_dt(complex(v)) for v in s]),
        "reflection_defect": (
            reflection_defect(t, epsilon),
            [reflection_defect(float(a), float(b)) for a, b in zip(t, epsilon)],
        ),
        "reciprocity_defect": (
            reciprocity_defect(n, delta).ravel(),
            [reciprocity_defect(int(k), float(d)) for k in range(4) for d in delta],
        ),
    }
    for which in ("upper", "lower"):
        batches[which] = (
            gamma_modulus_dt(s, which), [gamma_modulus_dt(complex(v), which) for v in s]
        )
    for name, (many, alone) in batches.items():
        assert all(isinstance(v, float) for v in alone), name
        assert many.tolist() == alone, name


def test_series_bits_do_not_depend_on_the_point_block(monkeypatch):
    rng = np.random.default_rng(7)
    s = rng.uniform(-4.0, 5.0, 40) + 1j * rng.uniform(-30.0, 30.0, 40)
    default = dlogabsx_dt(s), gamma_modulus_dt(s, "upper")
    monkeypatch.setattr(xratio, "_SERIES_BLOCK", 3)
    assert np.array_equal(dlogabsx_dt(s), default[0])
    assert np.array_equal(gamma_modulus_dt(s, "upper"), default[1])
