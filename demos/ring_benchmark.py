"""Accelerated ALM vs the fixed-step baseline on ring consensus.

Ten agents on a ring each hold a private regularized logistic loss; the
consensus constraint (I - W) (x) kron I = 0 forces their local copies to
agree.  Both solvers get the same 1500 iterations and the same refined
reference pair; the accelerated method lands orders of magnitude lower
on every residual.

This demo uses a reduced per-agent dimension (50) so it finishes in
seconds.  The full-size experiment (dimension 200, 3000 iterations, as
benchmarked in the acceptance suite) is declared in
demos/ring_experiment.json and runs through the CLI:

    aalm run demos/ring_experiment.json

Run:  python3 demos/ring_benchmark.py
"""

import numpy as np

from aalm.harness import VanillaConfig, run_vanilla
from aalm.oracle import kkt_refine
from aalm.problems import make_ring_logistic
from aalm.schedule import chambolle_dossal
from aalm.solver import SolverConfig, run

ITERS = 1500

ring = make_ring_logistic(p_agents=10, m_dim=50, rho_reg=0.5, seed=0)
print(f"instance {ring.name}: dim {ring.dim}, "
      f"{ring.n_constraints} consensus rows")
kkt = kkt_refine(ring)
print(f"refined reference: kkt_tol = {kkt.kkt_tol:.2e}")

x0 = np.zeros(ring.dim)
lam0 = np.zeros(ring.n_constraints)

# Accelerated: 1/9-decrement schedule in the noncritical regime, dual
# stepsize delta = 10; every linear solve goes through the ring's
# Kronecker eigenbasis of A'A.
cfg = SolverConfig(schedule=chambolle_dossal(10.0, eta="noncritical"),
                   case="explicit", delta=10.0, max_iter=ITERS)
_, accel = run(ring, cfg, x0, lam0, kkt=kkt)

# Baseline: proximal ALM, gamma = 1/L, no extrapolation.
_, plain = run_vanilla(ring, VanillaConfig(), ITERS, x0, lam0, kkt=kkt)

a, v = accel[-1], plain[-1]
print(f"\nafter {ITERS} iterations:")
print(f"  {'':14s} {'accelerated':>12s} {'baseline':>12s} {'ratio':>10s}")
for field, label in (("feas", "feasibility"), ("obj_res", "objective"),
                     ("stat_res", "stationarity")):
    fa, fv = getattr(a, field), getattr(v, field)
    print(f"  {label:14s} {fa:12.2e} {fv:12.2e} {fa / fv:10.1e}")

# The energy certificate travels with the accelerated run.
energies = np.array([r.energy_E for r in accel])
print(f"\nenergy E_k: start {energies[0]:.3e}, final {energies[-1]:.3e}, "
      f"max increase {np.diff(energies).max():.2e} (monotone to rounding)")
print(f"final weighted gap t^2 H = {a.t_k ** 2 * a.gap_H:.2e}")
