"""Command-line surface for evaluation, tracing, surveys, and audits.

Eight subcommands over the library: eval (series values), ratio
(reflection factor), curve (level-set export), kappa (strip height
bound), zeros (exhaustive survey), scan (line scan), verify (invariant
suites), audit (claim evidence).  Output is CSV (17-significant-digit
round-trip floats) or JSON (the command named, and verify's seed
echoed); both are deterministic for a fixed invocation and identical
for any --jobs value, because parallel pieces merge in sorted order.

--jobs N runs the grid bands of zeros and audit and the trace bands of
curve in a pool of min(N, cpu count) worker processes, and no pool when
that is 1; the other commands ignore it.  On two cores --jobs 2 gains
little even on long runs, and short ones spend more on starting the pool
than it saves.

The command runs OpenBLAS on one thread unless OPENBLAS_NUM_THREADS is
set, because numpy would otherwise start a BLAS worker per extra core at
import, and dhratio makes no BLAS or LAPACK call at all.

Exit status: 0 success, 1 failed verify checks, 2 configuration
errors (a --jobs below 1 among them), 3 convergence failures, 4 I/O
errors.  In JSON mode errors also emit a machine-readable object on
stderr.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys

# one OpenBLAS thread, set before the imports below load numpy (see above)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .analysis import (
    Rect,
    audit_claims,
    kappa_detail,
    scan_critical_line,
    survey_zeros,
    trace_unit_curve,
)
from .dhfun import f
from .errors import (
    BoundaryZeroError,
    ConvergenceError,
    DomainError,
    PoleError,
    UndersampledError,
)
from .xratio import x_of

__all__ = ["main"]

# `suites.SUITE_NAMES` and `suites.DEFAULT_SEED` for the verify parser (a
# test holds them equal), here so that the other commands neither compile
# nor hold the suites module: `zeros --rect 0,1,1000,1020` peaks about
# 0.3 MB lower without it
_SUITE_NAMES = ("specfun", "dhfun", "xratio", "analysis")
_DEFAULT_SEED = 20260822


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.strip().replace(" ", "").replace("i", "j"))
    except ValueError as exc:
        raise DomainError(f"cannot parse complex number {text!r}; write a+bi") from exc


def _parse_rect(text: str) -> Rect:
    parts = text.split(",")
    if len(parts) != 4:
        raise DomainError(f"rectangle must be sigma0,sigma1,t0,t1, got {text!r}")
    try:
        coords = [float(p) for p in parts]
    except ValueError as exc:
        raise DomainError(f"cannot parse rectangle {text!r}") from exc
    return Rect(*coords)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dhratio",
        description="Evaluate the period-5 series, its reflection ratio, and their zero geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument(
            "--jobs", type=int, default=1, help="worker processes for zeros, audit and curve"
        )

    point_help = "points a+bi; write -- before them when one has a negative real part: -- -2+5i"
    rect_help = "sigma0,sigma1,t0,t1; write --%s=-2,3,-1,1 when sigma0 is negative"
    p = sub.add_parser("eval", help="evaluate the function at points a+bi")
    p.add_argument("point", nargs="+", help=point_help)
    common(p)

    p = sub.add_parser("ratio", help="evaluate the reflection ratio X at points a+bi")
    p.add_argument("point", nargs="+", help=point_help)
    common(p)

    p = sub.add_parser("curve", help="trace the |X| = 1 level set in a window")
    p.add_argument("--window", required=True, help=rect_help % "window")
    p.add_argument("--step", type=float, default=0.01)
    common(p)

    p = sub.add_parser("kappa", help="strip height bound by two methods")
    common(p)

    p = sub.add_parser("zeros", help="survey every zero in a rectangle")
    p.add_argument("--rect", required=True, help=rect_help % "rect")
    common(p)

    p = sub.add_parser("scan", help="scan the critical line for zeros")
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--step", type=float, default=0.05)
    common(p)

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument(
        "--suite",
        action="append",
        choices=_SUITE_NAMES + ("all",),
        default=None,
        help="suite name (repeatable); default all",
    )
    p.add_argument("--seed", type=int, default=_DEFAULT_SEED, help="seed of the suites' draws")
    common(p)

    p = sub.add_parser("audit", help="survey a window and emit claim evidence")
    p.add_argument("--rect", default="0,1,0,200", help=rect_help % "rect")
    common(p)

    return parser


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _emit(args: argparse.Namespace, payload: dict, columns: list[str], rows: list[dict]) -> None:
    if args.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row[c]) for c in columns])
        text = buf.getvalue()
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)


# columns of a zero record's row, in order, and how each is read
_RECORD_FIELDS = {
    "sigma": lambda rec: rec.location.sigma,
    "t": lambda rec: rec.location.t,
    "residual": lambda rec: rec.residual,
    "iterations": lambda rec: rec.iterations,
    "paired_sigma": lambda rec: rec.paired_location.sigma,
    "paired_t": lambda rec: rec.paired_location.t,
    "paired_residual": lambda rec: rec.paired_residual,
    "abs_x": lambda rec: rec.abs_x_here,
    "on_line": lambda rec: rec.on_line,
    "within_kappa": lambda rec: rec.within_kappa,
}


def _record_rows(records) -> list[dict]:
    return [{key: read(rec) for key, read in _RECORD_FIELDS.items()} for rec in records]


# ----------------------------------------------------------------------
# command bodies: each reads the parsed namespace and returns (payload
# fields, CSV columns, CSV rows, exit status).  They reach the library
# through module globals at call time, never through function objects
# stored at import, so a wrapper swapped into a module binding sees
# every call.
# ----------------------------------------------------------------------


def _point_row(val, **extra) -> dict:
    at, value = val.at, val.value
    return {"sigma": at.sigma, "t": at.t, "value_re": value.sigma, "value_im": value.t, **extra}


def _eval(args: argparse.Namespace):
    rows = []
    for p in args.point:
        val = f(p)
        rows.append(_point_row(val, abs_value=abs(val.value.z), est_abs_err=val.est_abs_err))
    columns = ["sigma", "t", "value_re", "value_im", "abs_value", "est_abs_err"]
    return {"records": rows}, columns, rows, 0


def _ratio(args: argparse.Namespace):
    rows = []
    for p in args.point:
        val = x_of(p)
        rows.append(
            _point_row(val, log_abs=val.log_abs, arg_cont=val.arg_cont, zero_flag=val.zero_flag)
        )
    columns = ["sigma", "t", "value_re", "value_im", "log_abs", "arg_cont", "zero_flag"]
    return {"records": rows}, columns, rows, 0


def _curve(args: argparse.Namespace, worker_map):
    polys = trace_unit_curve(args.window, args.step, worker_map=worker_map)
    components = [
        {
            "component_id": poly.component_id,
            "closed": poly.closed,
            "excludes_line": poly.excludes_line,
            "vertices": [{"sigma": v.sigma, "t": v.t} for v in poly.vertices],
        }
        for poly in polys
    ]
    rows = [
        {"component_id": poly.component_id, "sigma": v.sigma, "t": v.t}
        for poly in polys
        for v in poly.vertices
    ]
    return {"components": components}, ["component_id", "sigma", "t"], rows, 0


def _kappa(args: argparse.Namespace):
    kd = kappa_detail()
    fields = {
        "kappa": kd.trace_value,
        "trace_value": kd.trace_value,
        "root_value": kd.root_value,
        "agreement": kd.agreement,
    }
    rows = [{"metric": key, "value": value} for key, value in fields.items()]
    return fields, ["metric", "value"], rows, 0


def _zeros(args: argparse.Namespace, worker_map):
    rows = _record_rows(survey_zeros(args.rect, worker_map=worker_map))
    return {"records": rows}, list(_RECORD_FIELDS), rows, 0


def _scan(args: argparse.Namespace):
    rows = _record_rows(scan_critical_line(args.t0, args.t1, args.step))
    return {"records": rows}, list(_RECORD_FIELDS), rows, 0


def _verify(args: argparse.Namespace):
    from .suites import run_suites

    results = run_suites(args.suite or ("all",), args.seed)
    columns = ["suite", "check", "passed", "measured", "threshold"]
    rows = [
        {
            "suite": suite.name,
            "check": c.name,
            "passed": c.passed,
            "measured": c.measured,
            "threshold": c.threshold,
        }
        for suite in results
        for c in suite.checks
    ]
    suites_payload = [
        {
            "name": suite.name,
            "passed": suite.passed,
            "checks": [dataclasses.asdict(c) for c in suite.checks],
        }
        for suite in results
    ]
    all_passed = all(s.passed for s in results)
    payload = {"seed": args.seed, "suites": suites_payload, "all_passed": all_passed}
    return payload, columns, rows, 0 if all_passed else 1


def _audit(args: argparse.Namespace, worker_map):
    reports = audit_claims(survey_zeros(args.rect, worker_map=worker_map))
    reports_payload = [
        {
            "claim_id": rep.claim_id,
            "verdict_note": rep.verdict_note,
            "evidence": list(rep.evidence),
        }
        for rep in reports
    ]
    rows = [
        {"claim_id": rep.claim_id, "input": item["input"], "metric": key, "value": value}
        for rep in reports
        for item in rep.evidence
        for key, value in item.items()
        if key != "input"
    ]
    return {"reports": reports_payload}, ["claim_id", "input", "metric", "value"], rows, 0


_COMMANDS = {
    "eval": _eval,
    "ratio": _ratio,
    "curve": _curve,
    "kappa": _kappa,
    "zeros": _zeros,
    "scan": _scan,
    "verify": _verify,
    "audit": _audit,
}
# the commands whose bands --jobs spreads over worker processes; their
# bodies take the pool's map (None for a serial run) after the namespace
_POOLED = ("curve", "zeros", "audit")


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def _fail(code: int, exc: Exception, fmt: str) -> int:
    if fmt == "json":
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
    else:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.format = args.format or ("csv" if args.command == "curve" else "json")
    try:
        for dest in ("window", "rect"):
            if hasattr(args, dest):
                setattr(args, dest, _parse_rect(getattr(args, dest)))
        if hasattr(args, "point"):
            args.point = [_parse_complex(p) for p in args.point]
        if args.jobs < 1:
            raise DomainError("jobs must be >= 1")
    except DomainError as exc:
        return _fail(2, exc, args.format)

    pooled = args.command in _POOLED
    # the pool forks all its workers at once, so never more than the cores
    workers = min(args.jobs, os.cpu_count() or 1) if pooled else 1
    executor = None
    try:
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor  # only parallel runs pay its import

            executor = ProcessPoolExecutor(max_workers=workers)
        body = _COMMANDS[args.command]
        if pooled:
            fields, columns, rows, status = body(args, None if executor is None else executor.map)
        else:
            fields, columns, rows, status = body(args)
    except (DomainError, PoleError, KeyError) as exc:
        return _fail(2, exc, args.format)
    except (ConvergenceError, BoundaryZeroError, UndersampledError) as exc:
        return _fail(3, exc, args.format)
    except OSError as exc:
        return _fail(4, exc, args.format)
    finally:
        if executor is not None:
            executor.shutdown()

    try:
        _emit(args, {"command": args.command, **fields}, columns, rows)
    except OSError as exc:
        return _fail(4, exc, args.format)
    return status


if __name__ == "__main__":
    sys.exit(main())
