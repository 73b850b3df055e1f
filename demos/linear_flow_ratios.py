"""Single-harmonic horizontal flow: damping ratios across N.

The first harmonic evolved with only horizontal dissipation is the
regime's workhorse linear flow.  For each base wavenumber N this demo
reports the sup-in-time of |dz^j u|^2 and the weighted dissipation
integrals, normalized by N^(2 delta) |dz^j alpha|^2; the constants stay
order one as N grows, which is the uniformity that makes per-harmonic
bookkeeping possible.

Run:  python3 demos/linear_flow_ratios.py [--steps 200]
"""

import argparse
import math

from cylmode import Params, build_grid, poloidal_profile
from cylmode.stokes import linear_flow_uL


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=200)
    ap.add_argument("--dt", type=float, default=2e-3)
    ap.add_argument("--delta", type=float, default=0.1)
    args = ap.parse_args()

    grid = build_grid(32, 32, 2.0 * math.pi)
    profile = poloidal_profile(grid, 0.5)

    print(f"{args.steps} steps of dt = {args.dt}, delta = {args.delta}")
    header = f"{'N':>4} {'sup j=0':>10} {'sup j=1':>10} " \
             f"{'radial j=0':>11} {'weighted/r j=0':>15} {'identity':>10}"
    print(header)
    for N in (4, 8, 16):
        params = Params(nu=1.0, N=N, delta=args.delta, eta=0.2, K=2)
        rep = linear_flow_uL(profile, params, args.dt, args.steps)
        print(f"{N:>4} {rep['ratio_sup'][0]:>10.4f} "
              f"{rep['ratio_sup'][1]:>10.4f} {rep['ratio_dr'][0]:>11.4f} "
              f"{rep['ratio_over_r'][0]:>15.4f} "
              f"{rep['identity_residual_max']:>10.2e}")
    print("\nratios normalized by N^(2 delta) |dz^j alpha|^2; "
          "identity = worst per-step energy-balance residual")


if __name__ == "__main__":
    main()
