"""Acceptance suite: the library's convergence guarantees at desk scale.

Each test measures one shipped claim end to end and prints a single
``ACCEPT <id> <label>: PASS/FAIL (measured margin)`` line on the
terminal, so a full run reads as a checklist of the guarantees.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from aalm.diagnostics import TraceRecord, energy, fit_rate, littleo_witness
from aalm.harness import VanillaConfig, run_vanilla
from aalm.oracle import brute_step_oracle, kkt_refine
from aalm.problems import make_qp, make_random_lp, make_ring_logistic
from aalm.schedule import certify_rho, chambolle_dossal, generate, nesterov
from aalm.solver import (IterateState, SolverConfig, initial_state,
                         resolve_config, run, step, step_coupled)
from aalm.subsolver import step_plan


def _verdict(capsys, cid, label, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPT {cid} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{cid} {label}: {detail}"


SCHEDULE_MAKERS = (
    ("nesterov", lambda: nesterov()),
    ("cd-critical", lambda: chambolle_dossal(10.0, eta="critical")),
    ("cd-noncritical", lambda: chambolle_dossal(10.0, eta="noncritical")),
)


@pytest.fixture(scope="module")
def lyapunov_runs(qp_testbed, qp_reference):
    """2000-iteration QP traces: both cases under all three schedules,
    each with the initial energy E1 evaluated from its defining formula."""
    runs = {}
    x0 = np.zeros(qp_testbed.dim)
    lam0 = np.zeros(qp_testbed.n_constraints)
    for case in ("implicit", "explicit"):
        for label, make in SCHEDULE_MAKERS:
            cfg = resolve_config(qp_testbed, SolverConfig(
                schedule=make(), case=case, max_iter=2000))
            _, trace = run(qp_testbed, cfg, x0, lam0, kkt=qp_reference)
            e1 = energy(qp_testbed, qp_reference, cfg.gamma, cfg.delta,
                        cfg.schedule.eta, cfg.beta, 1.0, x0, x0, lam0, lam0)
            runs[case, label] = (cfg, trace, e1)
    return runs


@pytest.fixture(scope="module")
def ring_runs():
    """3000-iteration ring-consensus benchmark: accelerated vs baseline,
    both measured against one refined reference pair."""
    ring = make_ring_logistic(10, 200, 0.5, seed=0)
    kkt = kkt_refine(ring)
    x0 = np.zeros(ring.dim)
    lam0 = np.zeros(ring.n_constraints)
    cfg = SolverConfig(schedule=chambolle_dossal(10.0, eta="noncritical"),
                       case="explicit", delta=10.0, max_iter=3000)
    _, accel = run(ring, cfg, x0, lam0, kkt=kkt)
    _, plain = run_vanilla(ring, VanillaConfig(), 3000, x0, lam0, kkt=kkt)
    return accel, plain


def test_c01_coupled_scheme_equivalence(qp_testbed, capsys):
    """The sequential update and the one-shot coupled primal-dual solve
    trace out the same trajectory."""
    cfg = resolve_config(qp_testbed, SolverConfig(
        schedule=nesterov(), case="explicit", max_iter=200))
    x0 = np.zeros(qp_testbed.dim)
    lam0 = np.zeros(qp_testbed.n_constraints)
    seq = initial_state(qp_testbed, cfg, x0, lam0)
    coup = initial_state(qp_testbed, cfg, x0, lam0)
    plan = step_plan(qp_testbed, cfg.case)
    worst = 0.0
    for _ in range(200):
        seq = step(seq, cfg, qp_testbed, plan)
        coup = step_coupled(coup, cfg, qp_testbed)
        worst = max(
            worst,
            np.linalg.norm(seq.x_curr - coup.x_curr)
            / (1.0 + np.linalg.norm(seq.x_curr)),
            np.linalg.norm(seq.lam_curr - coup.lam_curr)
            / (1.0 + np.linalg.norm(seq.lam_curr)))
    _verdict(capsys, "c1", "coupled-scheme-equivalence", worst <= 1e-8,
             f"max relative trajectory deviation {worst:.3e} <= 1e-8 "
             f"over 200 iterations")


def test_c02_energy_monotonicity(lyapunov_runs, capsys):
    """E_{k+1} <= E_k along every run, starting from the formula-level E1."""
    worst_inc, min_cap, ok = -np.inf, np.inf, True
    for (_case, _label), (_cfg, trace, e1) in lyapunov_runs.items():
        energies = np.array([e1] + [r.energy_E for r in trace])
        cap = 1e-10 * max(1.0, e1)
        inc = float(np.max(np.diff(energies)))
        worst_inc, min_cap = max(worst_inc, inc), min(min_cap, cap)
        ok = ok and inc <= cap
    _verdict(capsys, "c2", "energy-monotonicity", ok,
             f"worst energy increase {worst_inc:.2e} vs cap {min_cap:.2e} "
             f"across 6 runs x 2000 iterations")


def test_c03_gap_bounded_by_initial_energy(lyapunov_runs, capsys):
    """t_k^2 H_k never exceeds the initial energy."""
    worst = -np.inf
    for (_case, _label), (_cfg, trace, e1) in lyapunov_runs.items():
        top = max(r.t_k ** 2 * r.gap_H for r in trace if r.k <= 2000)
        worst = max(worst, top / e1)
    _verdict(capsys, "c3", "gap-bounded-by-initial-energy",
             worst <= 1.0 + 1e-9,
             f"max t^2 H / E1 = {worst:.9f} <= 1 + 1e-9 across 6 runs")


def test_c04_momentum_bounded(lyapunov_runs, capsys):
    """(t_k - 1) ||z_k - z_{k-1}||_M stays within 2 sqrt(2 E1)."""
    worst = -np.inf
    for (_case, _label), (_cfg, trace, e1) in lyapunov_runs.items():
        bound = 2.0 * math.sqrt(2.0 * e1)
        top = max((r.t_k - 1.0) * r.step_norm_M
                  for r in trace if r.k <= 2000)
        worst = max(worst, top / bound)
    _verdict(capsys, "c4", "momentum-bounded", worst <= 1.0,
             f"max (t-1)||dz||_M as a fraction of 2 sqrt(2 E1): "
             f"{worst:.3f} <= 1 across 6 runs")


def test_c05_inverse_t_squared_rates(lyapunov_runs, capsys):
    """Feasibility and objective residual decay like 1/t^2 on the
    gradient-anchored runs, for every schedule."""
    slopes, r2s = [], []
    for _label, _make in SCHEDULE_MAKERS:
        _cfg, trace, _e1 = lyapunov_runs["explicit", _label]
        for field in ("feas", "obj_res"):
            est = fit_rate(trace, field, (100, 1000))
            slopes.append(est.slope)
            r2s.append(est.r_squared)
    ok = max(slopes) <= -1.9 and min(r2s) >= 0.9
    _verdict(capsys, "c5", "inverse-t-squared-rates", ok,
             f"log-log slopes in [{min(slopes):.3f}, {max(slopes):.3f}] "
             f"<= -1.9, min r^2 {min(r2s):.6f} >= 0.9")


def test_c06_littleo_in_noncritical_regime(lyapunov_runs, capsys):
    """With eta strictly between rho and 1 the t^2-weighted residuals
    vanish (little-o), while an exact 1/t^2 control stays at ratio 1."""
    _cfg, trace, _e1 = lyapunov_runs["explicit", "cd-noncritical"]
    w_feas = littleo_witness(trace, "feas", 200, 2000)
    w_obj = littleo_witness(trace, "obj_res", 200, 2000)
    t = generate(nesterov(), 2000)
    control_trace = [
        TraceRecord(k, float(t[k - 1]), 4.0 / float(t[k - 1]) ** 2,
                    0.0, 0.0, 0.0, 0.0, 0.0, 4.0)
        for k in (200, 2000)]
    w_control = littleo_witness(control_trace, "feas", 200, 2000)
    ok = (w_feas <= 0.1 and w_obj <= 0.1
          and abs(w_control - 1.0) <= 1e-9)
    _verdict(capsys, "c6", "littleo-noncritical", ok,
             f"t^2-weighted ratios k=200->2000: feas {w_feas:.1e}, "
             f"obj {w_obj:.1e} <= 0.1; exact-1/t^2 control "
             f"{w_control:.12f}")


def test_c07_iterate_convergence(qp_testbed, qp_reference, capsys):
    """The primal-dual pair itself converges (not just the residuals),
    in both the critical and the noncritical regime."""
    finals, ok = {}, True
    x0 = np.zeros(qp_testbed.dim)
    lam0 = np.zeros(qp_testbed.n_constraints)
    for label, sched in (("critical", nesterov()),
                         ("noncritical",
                          chambolle_dossal(10.0, eta="noncritical"))):
        cfg = resolve_config(qp_testbed, SolverConfig(
            schedule=sched, case="explicit", max_iter=5000))
        state = initial_state(qp_testbed, cfg, x0, lam0)
        plan = step_plan(qp_testbed, cfg.case)
        dists = np.empty(5000)
        for i in range(5000):
            state = step(state, cfg, qp_testbed, plan)
            dists[i] = math.hypot(
                np.linalg.norm(state.x_curr - qp_reference.x),
                np.linalg.norm(state.lam_curr - qp_reference.lam))
        cut = int(0.9 * dists.size)
        no_new_high = dists[cut:].max() <= dists[:cut].max() * (1 + 1e-12)
        finals[label] = dists[-1]
        ok = ok and dists[-1] <= 1e-4 and no_new_high
    _verdict(capsys, "c7", "iterate-convergence", ok,
             f"dist(z_5000, z*): critical {finals['critical']:.3e}, "
             f"noncritical {finals['noncritical']:.3e} <= 1e-4; "
             f"no new distance maxima in the last 10%")


def test_c08_stationarity_decay(lyapunov_runs, capsys):
    """t_k stat_res decays and the weighted square sum has converged."""
    _cfg, trace, _e1 = lyapunov_runs["explicit", "cd-noncritical"]
    by_k = {r.k: r for r in trace}
    ratio = ((by_k[2000].t_k * by_k[2000].stat_res)
             / (by_k[200].t_k * by_k[200].stat_res))
    terms = {k: by_k[k + 1].t_k * by_k[k].stat_res ** 2
             for k in range(2, 2001)}
    total = math.fsum(terms.values())
    tail = math.fsum(v for k, v in terms.items() if k > 200)
    frac = tail / total
    ok = ratio <= 0.2 and frac <= 0.01
    _verdict(capsys, "c8", "stationarity-decay", ok,
             f"t*stat ratio k=200->2000: {ratio:.1e} <= 0.2; "
             f"last-decade share of sum t*stat^2: {frac:.1e} <= 0.01")


def test_c09_nonsmooth_inner_newton(capsys, inner_solves):
    """Beyond L-smoothness (lp regression, p=1.5) the damped Newton inner
    solver meets its shrinking tolerance ``min(1e-8, 1e-2/t_k^3)`` at
    every outer iteration and the 1/t^2 feasibility rate survives.  Each
    solve's tolerance and returned point are checked from outside the
    solver (the ``inner_solves`` fixture)."""
    lp = make_random_lp(d=30, n=20, p=1.5, n_constraints=1, seed=0)
    kkt = kkt_refine(lp)
    _, trace = run(lp, SolverConfig(schedule=nesterov(), case="implicit",
                                    max_iter=1000),
                   np.zeros(lp.dim), np.zeros(lp.n_constraints), kkt=kkt)
    scheduled = [min(1e-8, 1e-2 / float(t) ** 3)
                 for t in generate(nesterov(), 1000)]
    met = (all(s.grad_norm <= s.tol for s in inner_solves)
           and [s.tol for s in inner_solves] == scheduled)
    est = fit_rate(trace, "feas", (100, 1000))
    ok = met and len(inner_solves) == 1000 and est.slope <= -1.9
    _verdict(capsys, "c9", "inner-newton-tolerance-and-rate", ok,
             f"{len(inner_solves)} inner solves all met the tolerance "
             f"schedule: {met}; feas slope {est.slope:.3f} <= -1.9")


def test_c10_ring_benchmark_beats_baseline(ring_runs, capsys):
    """Ring-consensus logistic regression (10 agents, dim 200): the
    accelerated method lands at least 10x below the fixed-step baseline
    on every residual."""
    accel, plain = ring_runs
    a = {r.k: r for r in accel}[3000]
    v = {r.k: r for r in plain}[3000]
    ratios = (a.feas / v.feas, a.obj_res / v.obj_res,
              a.stat_res / v.stat_res)
    ok = all(r <= 0.1 for r in ratios) and a.feas <= 1e-6
    _verdict(capsys, "c10", "ring-consensus-beats-baseline", ok,
             f"accel/baseline at k=3000: feas {ratios[0]:.1e}, "
             f"obj {ratios[1]:.1e}, stat {ratios[2]:.1e} <= 0.1; "
             f"accel feas {a.feas:.1e} <= 1e-6")


def test_c11_schedule_certification(capsys):
    """The classical recurrence holds to near machine precision and the
    1/9-decrement growth constant is certified into (0.2222, 2/9]."""
    t = generate(nesterov(), 10_000)
    defect = float(np.max(np.abs(t[1:] ** 2 - t[:-1] ** 2 - t[1:])))
    rho_hat = certify_rho(chambolle_dossal(10.0), 1_000_000)
    ok = defect <= 1e-9 and 0.2222 < rho_hat <= 2.0 / 9.0
    _verdict(capsys, "c11", "schedule-certification", ok,
             f"recurrence defect {defect:.1e} <= 1e-9 up to k=1e4; "
             f"rho_hat {rho_hat!r} in (0.2222, 2/9]")


def test_c12_scalar_step_oracle(capsys):
    """One solver step equals literal substitution into the update
    equations, across 100 random scalar configurations."""
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        quad = rng.uniform(0.5, 3.0)
        lin = rng.uniform(-1.0, 1.0)
        a = rng.uniform(-2.0, 2.0)
        b = rng.uniform(-1.0, 1.0)
        delta = rng.uniform(0.3, 2.0)
        beta = rng.uniform(0.0, 2.0)
        eta = rng.uniform(0.2, 1.0)
        t_curr = rng.uniform(1.0, 6.0)
        t_next = t_curr + rng.uniform(0.0, 1.0)
        case = "implicit" if seed % 2 == 0 else "explicit"
        gamma = (rng.uniform(0.2, 1.5) if case == "implicit"
                 else rng.uniform(0.1, 0.9) / quad)
        xc, xp, lc, lp_ = rng.normal(size=4)
        inst = make_qp(np.array([[quad]]), np.array([lin]),
                       np.array([[a]]), np.array([b]))
        state = IterateState(
            x_curr=np.array([xc]), x_prev=np.array([xp]),
            Ax_curr=inst.A @ np.array([xc]),
            lam_curr=np.array([lc]), lam_prev=np.array([lp_]),
            k=2, t_seq=np.array([1.0, t_curr, t_next]),
            xi_seq=np.ones(3))
        cfg = SolverConfig(schedule=nesterov(eta=eta), case=case,
                           gamma=gamma, delta=delta, beta=beta)
        out = step(state, cfg, inst, step_plan(inst, case))
        x_ref, lam_ref = brute_step_oracle(
            quad, lin, a, b, gamma, delta, beta, eta, t_curr, t_next,
            xc, xp, lc, lp_, case=case)
        worst = max(worst,
                    abs(out.x_curr[0] - x_ref) / (1.0 + abs(x_ref)),
                    abs(out.lam_curr[0] - lam_ref) / (1.0 + abs(lam_ref)))
    _verdict(capsys, "c12", "scalar-step-oracle", worst <= 1e-12,
             f"worst normalized deviation {worst:.3e} <= 1e-12 "
             f"over 100 draws")


def test_c13_scaled_variant(qp_testbed, qp_reference, capsys):
    """Unit scaling is the identity on trajectories; a certified growing
    scaling keeps the t^2 xi-weighted feasibility bounded."""
    x0 = np.zeros(qp_testbed.dim)
    lam0 = np.zeros(qp_testbed.n_constraints)
    base = chambolle_dossal(10.0, eta="noncritical")
    _, plain = run(qp_testbed,
                   SolverConfig(schedule=base, case="implicit",
                                max_iter=300),
                   x0, lam0, kkt=qp_reference)
    _, unit = run(qp_testbed,
                  SolverConfig(schedule=replace(base, xi=np.ones_like),
                               case="implicit", max_iter=300),
                  x0, lam0, kkt=qp_reference)
    exact = unit == plain
    _, grown = run(qp_testbed,
                   SolverConfig(schedule=replace(base, xi=np.sqrt),
                                case="implicit", max_iter=2000),
                   x0, lam0, kkt=qp_reference)
    head = max(r.scaled_feas for r in grown if r.k <= 200)
    sup = max(r.scaled_feas for r in grown)
    ok = exact and sup <= 10.0 * head
    _verdict(capsys, "c13", "scaled-variant", ok,
             f"unit scaling bitwise-identical: {exact}; "
             f"sup t^2 xi feas / early max = {sup / head:.2f} <= 10")
