"""Run the dhratio CLI once with spans around every layer boundary.

    PYTHONPATH=src python3 bench/tracer.py SPANS.json zeros --rect 0,1,0,120 --format csv

Everything after SPANS.json is passed to `dhratio.cli.main` unchanged and
the exit status is the CLI's.  Before the CLI starts, each traced public
function is replaced, in every dhratio module that binds its name (the
module itself and those importing it from the layer below), by a wrapper
that records a span (id, parent id, name, start, end) in memory and adds
work counts at the same boundary.  Nothing under src/ is modified.  When
the CLI returns, the spans and counts are written to SPANS.json.

Only this process is traced: pool workers forked by `--jobs N` call the
originals, so their work shows up in the parent's rusage alone.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter

import numpy as np

import dhratio
from dhratio import analysis, cli, dhfun, specfun, suites, xratio

# Traced names per defining module, i.e. per layer.
TRACED = {
    "specfun": ("lgamma", "digamma", "hurwitz_zeta"),
    "xratio": ("logabsx_many", "dsigma_logabsx", "dlogabsx_dt", "gamma_modulus_dt"),
    "dhfun": ("f_batch", "f_prime", "z_function", "functional_eq_residual"),
    "analysis": (
        "count_zeros_rect",
        "refine_zero",
        "survey_zeros",
        "scan_critical_line",
        "trace_unit_curve",
        "kappa_detail",
    ),
    "suites": ("run_suite",),
}
_MODULES = (specfun, xratio, dhfun, analysis, suites, cli, dhratio)
# Spans under which a refine_zero record may be dropped before it is returned.
_COLLECTORS = ("analysis.survey_zeros", "analysis.scan_critical_line")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _em_terms(groups, settings) -> int:
    """Sum over point groups of points x the Euler-Maclaurin split N that
    the public `em_split_point` picks for the group."""
    return sum(
        g.size * specfun.em_split_point(float(np.abs(g.imag).max()), float(g.real.min()), settings)
        for g in groups
        if g.size
    )


class Tracer:
    """In-memory span log and work counters for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.max_abs_t = 0.0
        self.max_residual = 0.0
        self.produced: set[int] = set()
        self.enabled = True
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def _inside(self, names) -> bool:
        return any(self.spans[i][2] in names for i in self.stack)

    def wrap(self, name: str, fn, before=None, after=None):
        """`fn` with a span named `name`; `before(args, kwargs)` may return a
        different span name, `after(args, kwargs, result, ok)` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_name = (before(args, kwargs) if before else None) or name
            span = [len(self.spans), self.stack[-1] if self.stack else -1, span_name, 0.0, 0.0]
            self.spans.append(span)
            self.stack.append(span[0])
            result, ok = None, False
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                span[4] = time.perf_counter()
                self.stack.pop()
                if after:
                    after(args, kwargs, result, ok)

        return traced

    # ---- counters recorded at the boundaries -------------------------

    def count_f_batch(self, args, kwargs, result, ok):
        if not ok:
            return
        pts, _ = specfun.as_points(args[0])
        self.counts["dhfun.f_batch.points"] += pts.size
        if pts.size:
            self.max_abs_t = max(self.max_abs_t, float(np.abs(pts.imag).max()))
        # f_batch's two routes: direct for Re s > -1, reflected (argument 1 - s) otherwise.
        routes = (pts[pts.real > -1.0], 1.0 - pts[pts.real <= -1.0])
        self.counts["specfun.em_terms"] += _em_terms(routes, _arg(args, kwargs, 1, "settings"))

    def count_hurwitz(self, args, kwargs, result, ok):
        if not ok:
            return
        pts, _ = specfun.as_points(args[0])
        # The Hurwitz batch splits Re s >= -2 from deeper points.
        groups = (pts[pts.real >= -2.0], pts[pts.real < -2.0])
        self.counts["specfun.em_terms"] += _em_terms(groups, _arg(args, kwargs, 2, "settings"))

    def count_points(self, key):
        def after(args, kwargs, result, ok):
            self.counts[key] += np.asarray(args[0]).size

        return after

    def count_failed(self, key):
        def after(args, kwargs, result, ok):
            self.counts[key] += not ok

        return after

    def count_refine(self, args, kwargs, result, ok):
        if not ok:
            self.counts["analysis.refine_zero.failed"] += 1
            return
        self.max_residual = max(self.max_residual, result.residual)
        if self._inside(_COLLECTORS):
            self.produced.add(id(result))
        else:
            self.counts["analysis.refine_zero.kept"] += 1

    def count_kept(self, args, kwargs, result, ok):
        if ok and not self._inside(_COLLECTORS):
            kept = sum(id(rec) in self.produced for rec in result)
            self.counts["analysis.refine_zero.kept"] += kept
            self.produced.clear()  # dropped records die now; their ids may be reused

    def install(self) -> None:
        hooks = {
            "dhfun.f_batch": (None, self.count_f_batch),
            "dhfun.z_function": (None, self.count_points("dhfun.z_function.points")),
            "specfun.lgamma": (None, self.count_points("specfun.lgamma.points")),
            "specfun.hurwitz_zeta": (None, self.count_hurwitz),
            "xratio.logabsx_many": (None, self.count_points("xratio.logabsx_many.points")),
            "analysis.count_zeros_rect": (None, self.count_failed("analysis.count_zeros_rect.failed")),
            "analysis.refine_zero": (None, self.count_refine),
            "analysis.survey_zeros": (None, self.count_kept),
            "analysis.scan_critical_line": (None, self.count_kept),
            "suites.run_suite": (lambda args, kwargs: f"suites.{_arg(args, kwargs, 0, 'name')}", None),
        }
        for modname, names in TRACED.items():
            home = getattr(dhratio, modname)
            for name in names:
                original = getattr(home, name)
                key = f"{modname}.{name}"
                wrapped = self.wrap(key, original, *hooks.get(key, (None, None)))
                for module in _MODULES:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)

    def dump(self, path: str) -> None:
        counts = dict(self.counts)
        counts["dhfun.f_batch.max_abs_t"] = self.max_abs_t
        counts["analysis.max_residual"] = self.max_residual
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": counts}, fh)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        sys.stderr.write("usage: tracer.py SPANS.json CLI-ARGS...\n")
        return 2
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.wrap("cli.main", cli.main)(argv[1:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
