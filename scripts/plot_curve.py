#!/usr/bin/env python3
"""Plot level-curve CSV exports from `dhratio curve`.

Each input file becomes one panel; components are drawn as separate
lines in the (sigma, t) plane with the critical line dashed for
reference.  Typical use, reproducing the wide/strip/apex triptych:

    dhratio curve --window=-6,7,-4,4     --step 0.01  --out wide.csv
    dhratio curve --window 0,1,-2,2      --step 0.005 --out strip.csv
    dhratio curve --window 0.3,0.7,1.15,1.25 --step 0.0005 --out apex.csv
    python3 scripts/plot_curve.py wide.csv strip.csv apex.csv -o curve.png

Requires matplotlib, which is deliberately not a package dependency.
"""
from __future__ import annotations

import argparse
import csv
import sys
from collections import defaultdict


def read_components(path: str) -> dict[int, list[tuple[float, float]]]:
    components: dict[int, list[tuple[float, float]]] = defaultdict(list)
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            components[int(row["component_id"])].append(
                (float(row["sigma"]), float(row["t"]))
            )
    return components


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("csv_files", nargs="+", help="curve CSV exports, one per panel")
    parser.add_argument("-o", "--out", default="curve.png", help="output image path")
    args = parser.parse_args()

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print(
            "matplotlib is required for plotting: pip install matplotlib",
            file=sys.stderr,
        )
        return 1

    n = len(args.csv_files)
    fig, axes = plt.subplots(1, n, figsize=(5 * n, 5))
    if n == 1:
        axes = [axes]
    for ax, path in zip(axes, args.csv_files):
        for cid, pts in sorted(read_components(path).items()):
            xs = [p[0] for p in pts]
            ys = [p[1] for p in pts]
            ax.plot(xs, ys, lw=1.0, label=f"component {cid}")
        lo, hi = ax.get_ylim()
        ax.plot([0.5, 0.5], [lo, hi], ls="--", lw=0.8, color="gray")
        ax.set_xlabel("sigma")
        ax.set_ylabel("t")
        ax.set_title(path)
    fig.tight_layout()
    fig.savefig(args.out, dpi=150)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
