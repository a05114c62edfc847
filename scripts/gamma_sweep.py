#!/usr/bin/env python3
"""Dense sweep of the normal-cone hypomonotonicity defect for one norm.

For each eps on a grid, estimates the worst antimonotone pairing of the
normal cone of the unit-ball complement under the chosen norm and writes
one CSV row.  With --bounds, also tabulates the two curves that pinch the
defect: the smoothness modulus at eps/4 and twice the upper supporting
modulus at 2 eps.  The supporting modulus is defined for arguments in
(0, 1] only, so it is estimated at the values 2 eps <= 1, and rows with
2 eps > 1 leave the upper_twice_lam cell empty.
"""

import argparse
import csv
import sys

import numpy as np

from banachlab import (
    SearchBudget,
    gamma_estimate,
    make_ball_complement,
    rho_estimate,
    supporting_modulus_estimate,
)
from banachlab.zoo import norm_zoo


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--norm", default="euclid", choices=sorted(norm_zoo()),
                        help="norm id from the built-in zoo")
    parser.add_argument("--eps-min", type=float, default=0.02)
    parser.add_argument("--eps-max", type=float, default=0.8)
    parser.add_argument("--steps", type=int, default=40)
    parser.add_argument("--budget", type=int, default=4096,
                        help="gamma_estimate budget: budget // 16 engine rows, within [128, 512]; "
                             "the closed form of lp with p <= 2 (euclid, ellipse, l15) ignores it")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--bounds", action="store_true",
                        help="add the pinching bound columns (slower)")
    parser.add_argument("--out", default="-", help="output CSV path, - for stdout")
    args = parser.parse_args(argv)

    if not (0.0 < args.eps_min <= args.eps_max):
        parser.error("need 0 < eps-min <= eps-max")
    n = norm_zoo()[args.norm]
    A = make_ball_complement([0.0] * n.dim, 1.0,
                             gauge=None if args.norm == "euclid" else n)
    eps_grid = np.linspace(args.eps_min, args.eps_max, args.steps)

    rho = lam = None
    if args.bounds:
        budget = SearchBudget.preset("low")
        rho = rho_estimate(n, np.unique(eps_grid / 4.0), budget)
        twice = np.unique(2.0 * eps_grid)
        twice = twice[twice <= 1.0]
        if twice.size:
            lam = supporting_modulus_estimate(n, twice, "upper", budget)

    fh = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    try:
        w = csv.writer(fh, lineterminator="\n")
        header = ["eps", "gamma"]
        if args.bounds:
            header += ["lower_rho_quarter", "upper_twice_lam"]
        w.writerow(header)
        gamma = gamma_estimate(A, n, eps_grid, budget=args.budget, seed=args.seed)
        for eps, g in zip(eps_grid, gamma.tolist()):
            row = [f"{eps:.6g}", f"{g:.9g}"]
            if args.bounds:
                row += [f"{float(rho.eval(eps / 4.0)):.9g}",
                        "" if 2.0 * eps > 1.0 else f"{2.0 * float(lam.eval(2.0 * eps)):.9g}"]
            w.writerow(row)
    finally:
        if fh is not sys.stdout:
            fh.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
