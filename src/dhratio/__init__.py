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

`import dhratio` loads no submodule and not numpy: each name below is
imported from its module on first use (PEP 562).  That lets `dhratio.cli`
run its first lines before numpy loads.
"""
import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": (
        "AuditReport",
        "CLAIM_IDS",
        "CurvePolyline",
        "KappaResult",
        "LINE_TOL",
        "Rect",
        "ZeroRecord",
        "audit_claims",
        "count_zeros_rect",
        "kappa",
        "kappa_detail",
        "limit_probe",
        "refine_zero",
        "scan_critical_line",
        "survey_zeros",
        "trace_unit_curve",
    ),
    "dhfun": (
        "COEFFICIENTS",
        "XI",
        "FnValue",
        "f",
        "f_batch",
        "f_prime",
        "f_series",
        "functional_eq_residual",
        "pq",
        "z_function",
    ),
    "errors": (
        "AccuracyWarning",
        "BoundaryZeroError",
        "ConvergenceError",
        "DegenerateCellWarning",
        "DivergedError",
        "DomainError",
        "PoleError",
        "UndersampledError",
    ),
    "specfun": (
        "ComplexPoint",
        "digamma",
        "hurwitz_zeta",
        "lgamma",
    ),
    "xratio": (
        "RatioValue",
        "dlogabsx_dt",
        "dsigma_logabsx",
        "gamma_modulus_dt",
        "logabsx_many",
        "poles",
        "reciprocity_defect",
        "reflection_defect",
        "trivial_zeros",
        "x_of",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME) | set(_EXPORTS))
