"""Numerics for a period-5 Dirichlet series with a reflection formula.

The package evaluates the series and its reflection ratio anywhere in
the complex plane, traces the unit-modulus level set of the ratio,
counts and refines zeros, and emits audit evidence around the
off-critical-line zeros.  Modules:

  specfun   log-gamma, digamma, Hurwitz zeta
  dhfun     the series itself: values, derivative, rotated real form
  xratio    the reflection ratio X and its modulus derivatives
  analysis  level curves, kappa, winding counts, surveys, audits
  suites    named invariant suites (shared with `dhratio verify`)
  cli       the `dhratio` command
"""
from .analysis import (
    AuditReport,
    CLAIM_IDS,
    CurvePolyline,
    KappaResult,
    LINE_TOL,
    Rect,
    ZeroRecord,
    audit_claims,
    count_zeros_rect,
    kappa,
    kappa_detail,
    limit_probe,
    refine_zero,
    scan_critical_line,
    survey_zeros,
    trace_unit_curve,
)
from .dhfun import (
    COEFFICIENTS,
    XI,
    FnValue,
    f,
    f_batch,
    f_prime,
    f_series,
    functional_eq_residual,
    pq,
    z_function,
)
from .errors import (
    AccuracyWarning,
    BoundaryZeroError,
    ConvergenceError,
    DegenerateCellWarning,
    DivergedError,
    DomainError,
    PoleError,
    UndersampledError,
)
from .specfun import (
    ComplexPoint,
    digamma,
    hurwitz_zeta,
    lgamma,
)
from .xratio import (
    MirrorPair,
    RatioValue,
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

__version__ = "0.1.0"

__all__ = [
    "AccuracyWarning",
    "AuditReport",
    "BoundaryZeroError",
    "CLAIM_IDS",
    "COEFFICIENTS",
    "ComplexPoint",
    "ConvergenceError",
    "CurvePolyline",
    "DegenerateCellWarning",
    "DivergedError",
    "DomainError",
    "FnValue",
    "KappaResult",
    "LINE_TOL",
    "MirrorPair",
    "PoleError",
    "RatioValue",
    "Rect",
    "UndersampledError",
    "XI",
    "ZeroRecord",
    "audit_claims",
    "count_zeros_rect",
    "digamma",
    "dlogabsx_dt",
    "dsigma_logabsx",
    "f",
    "f_batch",
    "f_prime",
    "f_series",
    "functional_eq_residual",
    "gamma_modulus_dt",
    "hurwitz_zeta",
    "kappa",
    "kappa_detail",
    "lgamma",
    "limit_probe",
    "logabsx_many",
    "pq",
    "poles",
    "refine_zero",
    "reflection_defect",
    "reciprocity_defect",
    "scan_critical_line",
    "survey_zeros",
    "trace_unit_curve",
    "trivial_zeros",
    "x_of",
    "z_function",
]
