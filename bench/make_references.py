"""Freeze the zero references that the survey workloads are checked against.

Run once, by hand, from the repository root:

    python3 bench/make_references.py

It needs mpmath (a development-only dependency; the benchmark itself
never imports it) and rewrites bench/references.json.  Everything here is
computed from the series definition at 30 digits, independently of the
dhratio package:

    f(s) = 5^-s sum_{r=1..4} a_r zeta(s, r/5),   a = (1, xi, -xi, -1),
    Z(t) = exp(-i theta(t)/2) f(1/2 + it), real on the critical line,

  * the total zero count of each window comes from the argument principle
    on its boundary, sampled adaptively until every phase step is below
    pi/4;
  * line zeros are sign changes of Z on a 0.05 grid, solved to full
    precision;
  * off-line zeros are counted by the argument principle on the left half
    sigma <= 1/2 - 1e-3, localized by halving in t and solved with
    Newton; their mirrors 1 - sigma + it are added;
  * the script fails unless line + off-line zeros equal the total.
"""
from __future__ import annotations

import json
import os
import sys

import mpmath as mp

mp.mp.dps = 30

WINDOWS = {
    "survey_low": (0.0, 1.0, 0.0, 120.0),
    "survey_high": (0.0, 1.0, 1000.0, 1020.0),
}
LEFT_EDGE_GAP = mp.mpf("1e-3")
GRID_STEP = mp.mpf("0.05")

XI = (mp.sqrt(10 - 2 * mp.sqrt(5)) - 2) / (mp.sqrt(5) - 1)
COEF = (1, XI, -XI, -1)


def f(s):
    s = mp.mpc(s)
    if abs(s - 1) < mp.mpf("1e-20"):
        # The four Hurwitz poles cancel at s = 1; step off it with enough
        # extra digits to absorb the cancellation.
        with mp.workdps(3 * mp.mp.dps):
            return +_series(s + mp.mpf("1e-30"))
    return _series(s)


def _series(s):
    return mp.power(5, -s) * mp.fsum(COEF[r - 1] * mp.zeta(s, mp.mpf(r) / 5) for r in range(1, 5))


def z_function(t):
    s = mp.mpc(mp.mpf(1) / 2, t)
    theta = mp.im((mp.mpf(1) / 2 - s) * mp.log(5 / mp.pi) + mp.loggamma(1 - s / 2) - mp.loggamma((1 + s) / 2))
    return mp.re(mp.exp(-0.5j * theta) * f(s))


def winding(s0, s1, t0, t1, step=mp.mpf("0.25")):
    """Zeros of f inside [s0, s1] x [t0, t1] by the argument principle."""
    corners = [mp.mpc(s0, t0), mp.mpc(s1, t0), mp.mpc(s1, t1), mp.mpc(s0, t1)]
    total = mp.mpf(0)
    for a, b in zip(corners, corners[1:] + corners[:1]):
        n = max(2, int(mp.ceil(abs(b - a) / step)))
        stack = [(a + (b - a) * k / n, a + (b - a) * (k + 1) / n) for k in range(n)][::-1]
        cache = {}

        def val(p):
            key = (mp.nstr(p.real, 25), mp.nstr(p.imag, 25))
            if key not in cache:
                cache[key] = f(p)
            return cache[key]

        while stack:
            p, q = stack.pop()
            dphi = mp.arg(val(q) / val(p))
            if abs(dphi) > mp.pi / 4:
                m = (p + q) / 2
                stack.append((m, q))
                stack.append((p, m))
            else:
                total += dphi
    count = total / (2 * mp.pi)
    if abs(count - mp.nint(count)) > 0.05:
        raise RuntimeError(f"winding {count} is not near an integer")
    return int(mp.nint(count))


def line_zeros(t0, t1):
    n = int(mp.ceil((t1 - t0) / GRID_STEP))
    ts = [t0 + (t1 - t0) * k / n for k in range(n + 1)]
    zs = [z_function(t) for t in ts]
    roots = []
    for a, b, za, zb in zip(ts, ts[1:], zs, zs[1:]):
        if za == 0:
            roots.append(a)
        elif za * zb < 0:
            roots.append(mp.findroot(z_function, (a, b), solver="anderson"))
    return roots


def off_line_zeros(t0, t1):
    s1 = mp.mpf(1) / 2 - LEFT_EDGE_GAP
    pieces = [(t0, t1, winding(0, s1, t0, t1))]
    zeros = []
    while pieces:
        lo, hi, count = pieces.pop()
        if count == 0:
            continue
        if count == 1 and hi - lo <= 1:
            root = mp.findroot(f, mp.mpc(s1 / 2, (lo + hi) / 2))
            if root.real > mp.mpf(1) / 2:  # Newton found the mirror 1 - sigma + it
                root = mp.mpc(1 - root.real, root.imag)
            if not (0 <= root.real <= s1 and lo <= root.imag <= hi):
                raise RuntimeError(f"Newton left the cell [{lo}, {hi}]: {root}")
            zeros.append(root)
            continue
        mid = (lo + hi) / 2
        below = winding(0, s1, lo, mid)
        pieces.append((lo, mid, below))
        pieces.append((mid, hi, count - below))
    return sorted(zeros, key=lambda z: z.imag)


def main() -> int:
    out = {
        "source": "bench/make_references.py (mpmath %s, %d digits)" % (mp.__version__, mp.mp.dps),
        "windows": {},
    }
    for name, (s0, s1, t0, t1) in WINDOWS.items():
        t0, t1 = mp.mpf(t0), mp.mpf(t1)
        total = winding(s0, s1, t0, t1)
        line = line_zeros(t0, t1)
        left = off_line_zeros(t0, t1)
        if len(line) + 2 * len(left) != total:
            raise RuntimeError(
                f"{name}: {len(line)} line + 2 x {len(left)} off-line zeros != winding total {total}"
            )
        zeros = [(mp.mpf(1) / 2, t) for t in line]
        zeros += [(z.real, z.imag) for z in left] + [(1 - z.real, z.imag) for z in left]
        zeros.sort(key=lambda p: (p[1], p[0]))
        out["windows"][name] = {
            "rect": [float(s0), float(s1), float(t0), float(t1)],
            "count": total,
            "off_line": 2 * len(left),
            "zeros": [[float(sig), float(t)] for sig, t in zeros],
        }
        print(f"{name}: {total} zeros, {2 * len(left)} off the line", file=sys.stderr)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
