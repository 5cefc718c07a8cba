#!/usr/bin/env python3
"""Distance study for a single source dipole, and a check of its closed form.

Sweeps the field-point distance d from 1e-9 to 1e30 m and tabulates the
worst-case force magnitude against the d^-4 closed form, plus the full
bound chain.  The ratio lambda_bar * d^4 / 2 must be 1 to 1e-12 and the
worst-case moment M_bar must be +- the source direction to 1e-12 on
every row; otherwise the script exits 1.
"""

import sys

import numpy as np

from magalg import DipoleConfig, bounds_report, build_algebra, planar_structure

DISTANCES = (1e-9, 1e-6, 1e-3, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 1e3, 1e6, 1e10, 1e20, 1e30)
SOURCE = np.array([0.0, 0.0, 1.0])  # direction from the magnet to the field point
TOL = 1e-12


def main() -> int:
    print(f"{'d [m]':>8} {'lambda_bar':>14} {'lb*d^4/2':>18} {'||P||':>12} "
          f"{'|l_MF|':>12} {'lambda_P':>12} {'chain ub':>12} {'branch':>16}")
    failures = []
    for d in DISTANCES:
        alg = build_algebra(DipoleConfig([[0.0, 0.0, 0.0]], d * SOURCE))
        rep = bounds_report(alg, planar_structure(alg, [0.0, 1.0, 0.0]))
        ratio = rep.lambda_bar_bf * d ** 4 / 2.0
        print(f"{d:8.3g} {rep.lambda_bar_bf:14.6e} {ratio:18.15f} "
              f"{rep.norm_P:12.4e} {rep.abs_lambda_MF:12.4e} {rep.lambda_P:12.4e} "
              f"{rep.bounds['chain_upper']:12.4e} {rep.branch.value:>16}")
        if abs(ratio - 1.0) > TOL:
            failures.append(f"d = {d:g}: lambda_bar * d^4 / 2 = {ratio!r}")
        off_axis = min(np.linalg.norm(rep.M_bar - SOURCE), np.linalg.norm(rep.M_bar + SOURCE))
        if off_axis > TOL:
            failures.append(f"d = {d:g}: M_bar = {rep.M_bar.tolist()} is {off_axis:.1e} off the source direction")
    print("\nSI: max force per unit moments at d is 3e-7 * lambda_bar newtons.")
    print("Worst-case moment is the source direction; test moment aligns with it.")
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
