#!/usr/bin/env python3
"""Tightness survey of the bound chain over random planar configurations.

Draws coplanar magnet sets with in-plane field points, evaluates the
chain lower/upper bounds around the exact worst case, and prints
relative-gap statistics per branch.  Useful for judging how much the
refined bounds buy over the plain chain upper bound.
"""

import argparse

import numpy as np

from magalg import Branch, bounds_report, build_algebra, planar_structure
from magalg.corpus import random_coplanar_config


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--configs", type=int, default=300)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    rows = {Branch.PLANE_DOMINANT: [], Branch.P_DOMINANT: []}
    made = 0
    while made < args.configs:
        cfg, n_hat = random_coplanar_config(rng)
        alg = build_algebra(cfg)
        if alg.is_trivial():
            continue
        plane = planar_structure(alg, n_hat)
        rep = bounds_report(alg, plane)
        lam = rep.lambda_bar
        rows[rep.branch].append((
            (rep.bounds["chain_upper"] - lam) / lam,
            (rep.bounds["refined_upper"] - lam) / lam,
            (lam - rep.lambda_P) / lam,
            (lam - rep.abs_lambda_MF) / lam,
        ))
        made += 1

    for branch, data in rows.items():
        if not data:
            continue
        arr = np.array(data)
        print(f"\n{branch.value}: {len(data)} configs")
        for label, col in zip(
            ("chain upper gap", "refined upper gap", "in-plane lower gap", "gram-moment lower gap"),
            arr.T,
        ):
            print(f"  {label:>22}: median {np.median(col):9.3e}  "
                  f"p90 {np.quantile(col, 0.9):9.3e}  max {col.max():9.3e}")


if __name__ == "__main__":
    main()
