#!/usr/bin/env python3
"""Distance study for a single source dipole.

Sweeps the field-point distance d and tabulates the worst-case force
magnitude against the d^-4 closed form, plus the full bound chain.  The
product lambda_bar * d^4 should sit at 2 for every row.
"""

import numpy as np

from magalg import DipoleConfig, bounds_report, build_algebra, planar_structure


def main():
    print(f"{'d [m]':>8} {'lambda_bar':>14} {'lb*d^4':>10} {'||P||':>12} "
          f"{'|l_MF|':>12} {'lambda_P':>12} {'chain ub':>12} {'branch':>16}")
    for d in (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0):
        cfg = DipoleConfig([[0.0, 0.0, 0.0]], [0.0, 0.0, d])
        alg = build_algebra(cfg)
        plane = planar_structure(alg, [0.0, 1.0, 0.0])
        rep = bounds_report(alg, plane)
        print(f"{d:8.2f} {rep.lambda_bar_bf:14.6e} {rep.lambda_bar_bf * d**4:10.6f} "
              f"{rep.norm_P:12.4e} {rep.abs_lambda_MF:12.4e} {rep.lambda_P:12.4e} "
              f"{rep.bounds['chain_upper']:12.4e} {rep.branch.value:>16}")
    print("\nSI: max force per unit moments at d is 3e-7 * lambda_bar newtons.")
    print("Worst-case moment is the source direction; test moment aligns with it.")
    bf_dir = np.abs(bounds_report(
        build_algebra(DipoleConfig([[0, 0, 0]], [0, 0, 1.0])),
        planar_structure(build_algebra(DipoleConfig([[0, 0, 0]], [0, 0, 1.0])), [0, 1.0, 0]),
    ).M_bar)
    print(f"maximizer |M_bar| components: {np.round(bf_dir, 6)}")


if __name__ == "__main__":
    main()
