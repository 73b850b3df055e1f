"""Truncated mode solver versus an independent full angular-grid solver.

The reference discretizes theta on a full collocation circle and advances
by operator splitting, sharing nothing with the truncated solver except
the meridional grid, so agreement exercises every coupling coefficient
and sign in the mode equations.  Both discretizations are first order in
time, so their gap shrinks linearly as dt is halved.

Run:  python3 demos/oracle_check.py [--steps 100]
"""

import argparse
import math

from cylmode import (
    OracleOpCache,
    Params,
    StepConfig,
    build_grid,
    make_initial_state,
    oracle_step,
    poloidal_profile,
    reconstruct_to_full,
    relative_l2,
    run,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=100)
    ap.add_argument("--dt", type=float, default=1e-3)
    ap.add_argument("--n-theta", type=int, default=40)
    args = ap.parse_args()

    grid = build_grid(24, 16, 2.0 * math.pi)
    params = Params(nu=1.0, N=4, delta=0.0, eta=0.2, K=3)
    profile = poloidal_profile(grid, 0.05)

    cache = OracleOpCache(grid, args.n_theta, params.nu)

    def gap(dt, steps):
        state = make_initial_state(profile, params)
        full = reconstruct_to_full(state, args.n_theta)
        for _ in range(steps):
            full = oracle_step(full, dt, cache)
        result = run(state, StepConfig(dt=dt, t_end=steps * dt,
                                       nonlinear=True))
        return relative_l2(full, reconstruct_to_full(result.state,
                                                     args.n_theta))

    print(f"harmonics 0..{params.K} at N = {params.N}; reference uses "
          f"{args.n_theta} angular nodes")
    d1 = gap(args.dt, args.steps)
    d2 = gap(args.dt / 2.0, 2 * args.steps)
    print(f"relative L2 gap, dt = {args.dt:g}:   {d1:.3e}")
    print(f"relative L2 gap, dt = {args.dt / 2:g}:  {d2:.3e}")
    print(f"ratio {d1 / d2:.2f} (first-order schemes: expect about 2)")


if __name__ == "__main__":
    main()
