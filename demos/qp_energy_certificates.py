"""Watch the Lyapunov energy certify a run, iteration by iteration.

On a random equality-constrained QP (exact reference from the KKT
system) this script runs the accelerated loop under three schedules and
prints the quantities the theory says must hold:

  * the energy E_k never increases,
  * t_k^2 H_k (the weighted Lagrangian gap) stays below E_1,
  * feasibility and objective residual decay like 1/t_k^2,
  * in the noncritical regime (eta strictly between rho and 1) the
    t^2-weighted residuals vanish instead of merely staying bounded,
  * a certified growing scaling xi = sqrt(t) keeps t^2 xi feas bounded.

Run:  python3 demos/qp_energy_certificates.py
"""

from dataclasses import replace

import numpy as np

from aalm.diagnostics import energy, fit_rate, littleo_witness
from aalm.oracle import kkt_solve_qp
from aalm.problems import make_random_qp
from aalm.schedule import chambolle_dossal, nesterov
from aalm.solver import SolverConfig, resolve_config, run

inst = make_random_qp(n=50, m=10, seed=0)
Q, q = inst.objective.quadratic
kkt = kkt_solve_qp(Q, q, inst.A, inst.b)
print(f"instance {inst.name}: dim {inst.dim}, {inst.n_constraints} "
      f"constraints, reference kkt_tol = {kkt.kkt_tol:.2e}")

x0 = np.zeros(inst.dim)
lam0 = np.zeros(inst.n_constraints)
schedules = [
    ("nesterov (critical)", nesterov()),
    ("cd(10) critical", chambolle_dossal(10.0, eta="critical")),
    ("cd(10) noncritical", chambolle_dossal(10.0, eta="noncritical")),
]

print("\n== energy certificates, gradient-anchored case, 2000 iterations ==")
traces = {}
for label, sched in schedules:
    cfg = SolverConfig(schedule=sched, case="explicit", max_iter=2000)
    _, trace = run(inst, cfg, x0, lam0, kkt=kkt)
    traces[label] = trace
    # E_1 from its defining formula at the starting point (t_1 = 1).
    rcfg = resolve_config(inst, cfg)
    e1 = energy(inst, kkt, rcfg.gamma, rcfg.delta, rcfg.schedule.eta,
                rcfg.beta, 1.0, x0, x0, lam0, lam0)
    energies = np.array([e1] + [r.energy_E for r in trace])
    print(f"  {label:22s} E_1 = {e1:9.3f}   "
          f"max energy increase = {np.diff(energies).max():.2e}   "
          f"max t^2 H / E_1 = {max(r.t_k**2 * r.gap_H for r in trace)/e1:.3f}")

print("\n== 1/t^2 rates (log-log slope over k in [100, 1000]) ==")
for label, trace in traces.items():
    sf = fit_rate(trace, "feas", (100, 1000))
    so = fit_rate(trace, "obj_res", (100, 1000))
    print(f"  {label:22s} feas slope {sf.slope:7.3f} (r^2 {sf.r_squared:.5f})"
          f"   obj slope {so.slope:7.3f}")

print("\n== critical vs noncritical: the little-o upgrade ==")
print("  t_k^2 * residual at k=2000 relative to k=200 "
      "(1.0 means plain O(1/t^2); << 1 means little-o):")
for label in ("nesterov (critical)", "cd(10) noncritical"):
    trace = traces[label]
    wf = littleo_witness(trace, "feas", 200, 2000)
    wo = littleo_witness(trace, "obj_res", 200, 2000)
    print(f"  {label:22s} feas {wf:9.2e}   obj {wo:9.2e}")

print("\n== scaled variant: xi = sqrt(t) on cd(10), prox case ==")
scaled_cd = replace(chambolle_dossal(10.0, eta="noncritical"), xi=np.sqrt)
cfg = SolverConfig(schedule=scaled_cd, case="implicit", max_iter=2000)
_, scaled = run(inst, cfg, x0, lam0, kkt=kkt)
weighted = [r.scaled_feas for r in scaled]
print(f"  sup t^2 xi feas = {max(weighted):.3e} "
      f"(max over first 200 iters: {max(weighted[:200]):.3e}) -> bounded,")
print(f"  so plain feas decays like 1/(t^2 sqrt(t)): "
      f"final feas {scaled[-1].feas:.2e} at t = {scaled[-1].t_k:.0f}")
