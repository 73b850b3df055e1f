"""Viscous decay of single azimuthal harmonics.

Evolves random single-harmonic states under the implicit coupled Stokes
solver and prints, per harmonic and viscosity regime, the energy drop,
the worst value of (energy + 2 * integrated dissipation) / initial energy
(which can never exceed 1), and the cross-harmonic leakage of data placed
on one harmonic and run through the production stepper with the nonlinear
term off (exactly 0, since the linear flow cannot couple harmonics; a
non-finite energy reads inf).  The evolution's energy identity is closed
by the formula the run's energy budget uses.

Run:  python3 demos/stokes_decay.py [--n-r 48] [--n-z 32]
"""

import argparse
import math

from cylmode import Params, build_grid, make_random_divfree_state
from cylmode.stepper import mode_invariance_check
from cylmode.stokes import StokesOpCache, stokes_evolve


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-r", type=int, default=48)
    ap.add_argument("--n-z", type=int, default=32)
    ap.add_argument("--steps", type=int, default=20)
    ap.add_argument("--dt", type=float, default=1e-2)
    args = ap.parse_args()

    grid = build_grid(args.n_r, args.n_z, 2.0 * math.pi)
    params = Params(nu=1.0, N=3, delta=0.0, eta=0.2, K=5)
    state = make_random_divfree_state(grid, params, seed=1)

    print(f"grid {args.n_r} x {args.n_z}, base wavenumber N = {params.N}, "
          f"{args.steps} steps of dt = {args.dt}")
    for nu in (1.0, 0.0):
        regime = "full viscosity" if nu == 1.0 else "horizontal only"
        cache = StokesOpCache(grid, nu)
        print(f"\nnu = {nu:g} ({regime})")
        print(f"{'k':>3} {'E(0)':>12} {'E(T)/E(0)':>12} {'balance':>12}")
        for k in (0, 1, 2, 5):
            hist = stokes_evolve(cache, state.u[k], args.dt, args.steps,
                                 k * params.N)
            e0 = hist.energy[0]
            balance = max((e + 2.0 * d) / e0 for e, d in
                          zip(hist.energy, hist.diss_integral))
            print(f"{k:>3} {e0:>12.4e} {hist.energy[-1] / e0:>12.4e} "
                  f"{balance:>12.9f}")

        leak = max(mode_invariance_check(grid, params, k0, args.dt, 5)
                   for k0 in (0, 1, 3))
        print(f"worst cross-harmonic leakage: {leak:.3e}")


if __name__ == "__main__":
    main()
