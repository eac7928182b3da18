#!/usr/bin/env python3
"""Verdict table for the stock realizers, each against its lemma's statement,
over growing name universes.

Usage: python scripts/realizability_report.py [--max-depth 2] [--fuel 10000]

Prints one row per (realizer, depth) with the verdict and wall time; handy
for judging how the finite model scales before pinning test budgets.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from izf import lemmas  # noqa: E402
from izf.realizability import default_cfg, reals  # noqa: E402
from izf.realizers import mk_eqRefl, mk_eqSymm, mk_eqTrans, mk_lei  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-depth", type=int, default=2)
    ap.add_argument("--fuel", type=int, default=10**4)
    ap.add_argument("--universe", type=int, default=24)
    args = ap.parse_args()

    suite = [
        ("eqRefl", mk_eqRefl(), lemmas.eq_refl_formula()),
        ("eqSymm", mk_eqSymm(), lemmas.eq_symm_formula()),
        ("eqTrans", mk_eqTrans(), lemmas.eq_trans_formula()),
        ("lei", mk_lei(), lemmas.lei_formula()),
    ]
    print(f"{'realizer':10s} {'depth':>5s} {'names':>5s} {'verdict':>9s} {'secs':>7s}")
    for depth in range(1, args.max_depth + 1):
        cfg = default_cfg(depth=depth, fuel=args.fuel, universe_size=args.universe)
        for name, term, phi in suite:
            t0 = time.monotonic()
            v = reals(term, phi, {}, cfg)
            dt = time.monotonic() - t0
            print(f"{name:10s} {depth:5d} {len(cfg.universe):5d} {v.status:>9s} {dt:7.2f}")


if __name__ == "__main__":
    main()
