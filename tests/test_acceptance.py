"""End-to-end acceptance gate.

One test per shipping criterion, each asserting the stated tolerance and
printing a single summary line with the measured numbers.  Run with
``pytest tests/test_acceptance.py -v`` for the per-criterion verdict list,
or add ``-rA`` to see the measured summary lines.
"""
from __future__ import annotations

import pytest

from dhratio.analysis import (
    Rect,
    audit_claims,
    count_zeros_rect,
    kappa_detail,
    refine_zero,
    survey_zeros,
)
from dhratio.cli import main as cli_main
from dhratio.dhfun import f
from dhratio.errors import PoleError
from dhratio.suites import run_suite
from dhratio.xratio import x_of

KNOWN_OFF_LINE_ZEROS = [
    0.808517 + 85.699348j,
    0.650830 + 114.163343j,
    0.574356 + 166.479306j,
    0.724258 + 176.702461j,
]


def report(n: int, text: str) -> None:
    print(f"criterion {n:02d} PASS - {text}")


@pytest.fixture(scope="module")
def refined_off_line_zeros():
    return [refine_zero(seed) for seed in KNOWN_OFF_LINE_ZEROS]


@pytest.fixture(scope="module")
def strip_survey():
    return survey_zeros(Rect(0.0, 1.0, 0.0, 120.0))


@pytest.fixture(scope="module")
def xratio_checks():
    result = run_suite("xratio")
    return {c.name: c for c in result.checks}


def test_criterion_01_kappa_two_ways():
    kd = kappa_detail()
    assert abs(kd.trace_value - 1.21164) < 1e-3
    assert abs(kd.root_value - 1.21164) < 1e-3
    assert kd.agreement < 1e-6
    report(
        1,
        f"kappa trace={kd.trace_value:.10f} root={kd.root_value:.10f} "
        f"agreement={kd.agreement:.3e}",
    )


def test_criterion_02_off_line_zero_reproduction(refined_off_line_zeros):
    worst_dist = 0.0
    worst_res = 0.0
    for rec, quoted in zip(refined_off_line_zeros, KNOWN_OFF_LINE_ZEROS):
        worst_dist = max(worst_dist, abs(rec.location.z - quoted))
        worst_res = max(worst_res, rec.residual)
    assert worst_dist < 1e-4
    assert worst_res < 1e-8
    report(
        2,
        f"four off-line zeros recovered, max distance {worst_dist:.3e}, "
        f"max residual {worst_res:.3e}",
    )


def test_criterion_03_functional_equation_battery():
    checks = {c.name: c for c in run_suite("dhfun").checks}
    fe = checks["functional_equation"]
    assert fe.passed and fe.measured < 1e-9
    report(3, f"worst residual over 1000 sampled points = {fe.measured:.3e}")


def test_criterion_04_ratio_identities(xratio_checks):
    refl = xratio_checks["reflection_identity"]
    circ = xratio_checks["unit_circle"]
    rec3 = xratio_checks["reciprocity_delta_0.001"]
    rec5 = xratio_checks["reciprocity_delta_1e-05"]
    assert refl.passed and refl.measured < 1e-12
    assert circ.passed and circ.measured < 1e-12
    assert rec3.passed and rec3.measured < 1.0
    assert rec5.passed and rec5.measured < 1.0
    report(
        4,
        f"reflection {refl.measured:.3e}, unit circle {circ.measured:.3e}, "
        f"reciprocity/delta {rec3.measured:.3e} @1e-3, {rec5.measured:.3e} @1e-5",
    )


def test_criterion_05_derivative_series(xratio_checks):
    dt = xratio_checks["dlogabsx_dt_vs_fd"]
    ds = xratio_checks["dsigma_logabsx_vs_fd"]
    gm = xratio_checks["gamma_modulus_dt_vs_fd"]
    signs = xratio_checks["monotone_quadrant_signs"]
    for c in (dt, ds, gm):
        assert c.passed and c.measured < 1e-6
    assert signs.passed and signs.measured == 0.0
    report(
        5,
        f"series-vs-FD defects {dt.measured:.3e}/{ds.measured:.3e}/"
        f"{gm.measured:.3e}, quadrant sign table exact",
    )


def test_criterion_06_trivial_zeros_and_flags():
    worst = 0.0
    for n in range(6):
        worst = max(worst, abs(f(complex(-(2 * n + 1), 0.0)).value.z))
        assert x_of(complex(-(2 * n + 1), 0.0)).zero_flag
        with pytest.raises(PoleError):
            x_of(complex(2 * n + 2, 0.0))
    assert worst < 1e-9
    report(6, f"|f| at first six trivial zeros <= {worst:.3e}; flags correct")


def test_criterion_07_oracle_equivalence():
    dh = {c.name: c for c in run_suite("dhfun").checks}
    sf = {c.name: c for c in run_suite("specfun").checks}
    oracle = dh["oracle_series"]
    brute = sf["hurwitz_bruteforce"]
    assert oracle.passed and oracle.measured < 1.0
    assert brute.passed and brute.measured < 1e-14
    report(
        7,
        f"series-oracle defect/budget {oracle.measured:.3e}, "
        f"brute-force zeta relative defect {brute.measured:.3e}",
    )


def test_criterion_08_zero_accounting(strip_survey):
    records = strip_survey
    winding = count_zeros_rect(Rect(0.0, 1.0, 0.0, 120.0), 2048)
    assert winding == len(records)
    worst_pair = max(rec.paired_residual for rec in records)
    assert worst_pair < 1e-6
    report(
        8,
        f"{len(records)} refined zeros == winding count {winding}; "
        f"max |f(1-location)| = {worst_pair:.3e}",
    )


def test_criterion_09_audits_and_limit_probe(refined_off_line_zeros):
    on_line = refine_zero(0.5 + 14.404j)
    s1 = refined_off_line_zeros[0]
    reports = {r.claim_id: r for r in audit_claims([on_line, s1])}

    puzzle1 = reports["Puzzle1"].evidence
    assert len(puzzle1) == 1
    assert puzzle1[0]["abs_f"] < 1e-6
    assert puzzle1[0]["abs_f_paired"] < 1e-6

    puzzle2 = reports["Puzzle2"].evidence
    assert len(puzzle2) == 1
    assert puzzle2[0]["t"] == pytest.approx(85.699348, abs=1e-4)
    assert puzzle2[0]["kappa"] == pytest.approx(1.21164, abs=1e-3)
    assert puzzle2[0]["within_kappa"] is False

    probes = [
        item
        for item in reports["AppendixA_t"].evidence
        if item["input"].startswith("zero at 0.5+")
    ]
    assert len(probes) == 6  # one per probe radius
    worst = max(abs(item["abs_x_probe"] - 1.0) for item in probes)
    assert worst < 1e-9
    report(
        9,
        f"s1 audit |f|={puzzle1[0]['abs_f']:.3e} |f paired|="
        f"{puzzle1[0]['abs_f_paired']:.3e} t/kappa={puzzle2[0]['t_over_kappa']:.3f}; "
        f"on-line probe defect {worst:.3e}",
    )


def test_criterion_10_parallel_determinism(tmp_path):
    base = ["verify", "--suite", "all", "--seed", "42", "--format", "csv"]
    p1 = tmp_path / "jobs1.csv"
    p8 = tmp_path / "jobs8.csv"
    assert cli_main(base + ["--jobs", "1", "--out", str(p1)]) == 0
    assert cli_main(base + ["--jobs", "8", "--out", str(p8)]) == 0
    b1 = p1.read_bytes()
    assert b1 == p8.read_bytes()
    assert b",false," not in b1
    report(10, f"verify all passed twice; {len(b1)} output bytes identical")
