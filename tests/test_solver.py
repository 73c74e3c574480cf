"""Tests for the outer iteration: configuration, stepping, and the run loop.

The single step is pinned against an independent scalar oracle and the
coupled primal-dual solve; loop-level behavior (fixed points, stopping,
trace indexing, reproducibility, the scaled variant) is verified on the
seeded QP testbed.
"""

import math
import re
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from aalm import (
    IterateState,
    MaxInnerIterations,
    ProblemInstance,
    ScheduleError,
    SolverConfig,
    StoppingRule,
    brute_step_oracle,
    chambolle_dossal,
    extrapolate,
    generate,
    kkt_solve_qp,
    make_qp,
    make_random_lp,
    make_random_qp,
    nesterov,
    resolve_config,
    run,
    step,
    step_coupled,
)
from aalm import diagnostics
from aalm.diagnostics import make_record, make_records
from aalm.harness import VanillaConfig, run_vanilla
from aalm.oracle import kkt_refine
from aalm.problems import make_ring_logistic
from aalm import solver as aalm_solver
from aalm.solver import _block_rows, initial_state
from aalm.subsolver import inner_tolerance, step_plan


def _scalar_state(t_curr, t_next, x_curr, x_prev, lam_curr, lam_prev,
                  a=0.0):
    """A k = 2 state with the given schedule values (bypasses generation)
    for the constraint matrix ``[[a]]``."""
    x = np.array([x_curr])
    return IterateState(
        x_curr=x, x_prev=np.array([x_prev]), Ax_curr=np.array([[a]]) @ x,
        lam_curr=np.array([lam_curr]), lam_prev=np.array([lam_prev]),
        k=2, t_seq=np.array([1.0, t_curr, t_next]), xi_seq=np.ones(3))


class TestResolveConfig:
    """Validation and default-filling before a run."""

    def test_explicit_needs_lipschitz(self):
        inst = make_random_lp(d=10, n=6, seed=0)
        with pytest.raises(ValueError, match="Lipschitz"):
            resolve_config(inst, SolverConfig(schedule=nesterov(),
                                              case="explicit"))

    def test_unknown_case_rejected(self):
        inst = make_random_qp(n=6, m=2, seed=0)
        with pytest.raises(ValueError, match="case"):
            resolve_config(inst, SolverConfig(schedule=nesterov(),
                                              case="semismooth"))

    def test_gamma_defaults(self):
        """Explicit gets 1/L; implicit gets 1.0."""
        inst = make_random_qp(n=6, m=2, seed=0)
        L = inst.objective.lipschitz
        cfg = resolve_config(inst, SolverConfig(schedule=nesterov(),
                                                case="explicit"))
        np.testing.assert_allclose(cfg.gamma, 1.0 / L, rtol=1e-15)
        cfg = resolve_config(inst, SolverConfig(schedule=nesterov(),
                                                case="implicit"))
        assert cfg.gamma == 1.0

    def test_gamma_above_stepsize_restriction_rejected(self):
        inst = make_random_qp(n=6, m=2, seed=0)
        L = inst.objective.lipschitz
        with pytest.raises(ValueError, match="restriction"):
            resolve_config(inst, SolverConfig(schedule=nesterov(),
                                              case="explicit",
                                              gamma=1.5 / L))

    @pytest.mark.parametrize("gamma", [None, 0.5])
    def test_linear_objective_runs_explicitly(self, gamma):
        """A linear objective (``Q = 0``, so ``L = 0``) meets the descent
        inequality at every ``gamma``: its explicit run takes the default
        ``gamma = 1``, or the one given, with no restriction, and its trace
        agrees with the implicit run's at that ``gamma`` within 1e-10 of
        each column's largest value (``q`` lies in the range of ``A'``, so
        the problem has a solution, the reference of every column)."""
        A = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, -1.0]])
        b = np.array([1.0, 0.5])
        inst = make_qp(np.zeros((3, 3)), A.T @ np.array([0.3, -0.7]), A, b)
        kkt = kkt_solve_qp(*inst.objective.quadratic, A, b)
        traces = []
        for case in ("explicit", "implicit"):
            cfg = SolverConfig(schedule=nesterov(), case=case, gamma=gamma,
                               max_iter=200)
            assert resolve_config(inst, cfg).gamma == (gamma or 1.0)
            _, trace = run(inst, cfg, np.zeros(3), np.zeros(2), kkt=kkt)
            traces.append(np.array(trace))
        E, I = traces
        assert np.all(np.abs(E - I) <= 1e-10 * np.abs(I).max(axis=0))

    def test_implicit_allows_large_gamma(self):
        """No stepsize restriction applies to the implicit case."""
        inst = make_random_qp(n=6, m=2, seed=0)
        cfg = resolve_config(inst, SolverConfig(schedule=nesterov(),
                                                case="implicit", gamma=50.0))
        assert cfg.gamma == 50.0

    def test_bad_penalties_rejected(self):
        inst = make_random_qp(n=6, m=2, seed=0)
        with pytest.raises(ValueError, match="delta"):
            resolve_config(inst, SolverConfig(schedule=nesterov(),
                                              delta=0.0))
        with pytest.raises(ValueError, match="beta"):
            resolve_config(inst, SolverConfig(schedule=nesterov(),
                                              beta=-1.0))

    def test_out_of_range_stepsizes_rejected(self):
        """``gamma`` and ``delta`` must be positive and ``beta``
        nonnegative, each finite; the run checks them once, before its
        first step, naming the field (a NaN used to fail at k = 1 as a
        residual of nan, an infinity to run)."""
        inst = make_random_qp(n=6, m=2, seed=0)
        bad = [("gamma", v) for v in (0.0, -1.0, math.nan, math.inf)]
        bad += [("delta", v) for v in (0.0, -1.0, math.nan, math.inf)]
        bad += [("beta", v) for v in (-0.1, math.nan, math.inf)]
        for field, value in bad:
            cfg = SolverConfig(schedule=nesterov(), case="implicit",
                               max_iter=3, **{field: value})
            with pytest.raises(ValueError, match=f"^{field} must be"):
                resolve_config(inst, cfg)
            with pytest.raises(ValueError, match=f"^{field} must be"):
                run(inst, cfg, np.zeros(6), np.zeros(2))

    def test_scaling_restricted_to_implicit(self):
        inst = make_random_qp(n=6, m=2, seed=0)
        scaled = replace(chambolle_dossal(10.0), xi=np.ones_like)
        with pytest.raises(ValueError, match="implicit"):
            resolve_config(inst, SolverConfig(schedule=scaled,
                                              case="explicit"))

    def test_scaled_growth_certified(self):
        """Stepsize factors are certified with the schedule they scale:
        Nesterov x sqrt(t) breaks the t^2 xi growth condition at k=1."""
        inst = make_random_qp(n=6, m=2, seed=0)
        scaled = replace(nesterov(), xi=np.sqrt)
        with pytest.raises(ScheduleError, match="k=1:") as err:
            resolve_config(inst, SolverConfig(schedule=scaled))
        assert err.value.index == 1

    def test_schedule_resolution_attached(self):
        """Resolution freezes rho and a numeric eta onto the schedule."""
        inst = make_random_qp(n=6, m=2, seed=0)
        cfg = resolve_config(
            inst, SolverConfig(schedule=chambolle_dossal(10.0,
                                                         eta="noncritical")))
        assert 0.222 < cfg.schedule.rho < 2.0 / 9.0
        np.testing.assert_allclose(cfg.schedule.eta,
                                   (cfg.schedule.rho + 1.0) / 2.0,
                                   rtol=1e-15)


class TestStateAndExtrapolation:
    """The k-indexed state and the momentum points."""

    def test_extrapolate_pinned(self):
        """x = 2, x_prev = 0, t_k = 3, t_{k+1} = 4: xbar = 2 + (2/4)*2 = 3."""
        state = _scalar_state(3.0, 4.0, 2.0, 0.0, 0.0, 0.0)
        xbar, lbar = extrapolate(state)
        np.testing.assert_allclose(xbar, [3.0], rtol=0, atol=0)
        np.testing.assert_allclose(lbar, [0.0], rtol=0, atol=0)

    def test_initial_extrapolation_is_identity(self):
        """With x_prev = x_curr and t_1 = 1 the first momentum is a no-op."""
        state = _scalar_state(1.0, 2.0, 5.0, 5.0, 1.0, 1.0)
        state.k = 1
        xbar, lbar = extrapolate(state)
        np.testing.assert_allclose(xbar, [5.0], rtol=0, atol=0)
        np.testing.assert_allclose(lbar, [1.0], rtol=0, atol=0)

    def test_inner_tolerance_schedule(self):
        """tol = min(1e-8, 1e-2 / t^3)."""
        assert inner_tolerance(5.0) == 1e-8
        np.testing.assert_allclose(inner_tolerance(500.0),
                                   1e-2 / 500.0 ** 3, rtol=1e-15)

    def test_bad_start_shapes_rejected(self):
        inst = make_random_qp(n=6, m=2, seed=0)
        cfg = SolverConfig(schedule=nesterov(), max_iter=5)
        with pytest.raises(ValueError, match="x0"):
            run(inst, cfg, np.zeros(7), np.zeros(2))
        with pytest.raises(ValueError, match="lam0"):
            run(inst, cfg, np.zeros(6), np.zeros(3))


class TestStepAgainstScalarOracle:
    """aalm.step versus the literal-substitution scalar oracle."""

    def test_agreement_both_cases(self):
        """Implicit and explicit steps match the oracle to 1e-12 across
        seeded coefficient draws."""
        for seed in range(12):
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
            state = _scalar_state(t_curr, t_next, xc, xp, lc, lp_, a)
            cfg = SolverConfig(schedule=nesterov(eta=eta), case=case,
                               gamma=gamma, delta=delta, beta=beta)
            out = step(state, cfg, inst, step_plan(inst, case))
            x_ref, lam_ref = brute_step_oracle(
                quad, lin, a, b, gamma, delta, beta, eta, t_curr, t_next,
                xc, xp, lc, lp_, case=case)
            np.testing.assert_allclose(out.x_curr, [x_ref], rtol=0,
                                       atol=1e-12 * (1.0 + abs(x_ref)))
            np.testing.assert_allclose(out.lam_curr, [lam_ref], rtol=0,
                                       atol=1e-12 * (1.0 + abs(lam_ref)))


class TestRunLoop:
    """Loop-level behavior on the QP testbed."""

    def test_kkt_point_is_fixed(self, qp_testbed, qp_reference):
        """Started at the KKT pair, 100 iterations stay there to 1e-9."""
        cfg = SolverConfig(schedule=nesterov(), case="explicit", max_iter=100)
        state, trace = run(qp_testbed, cfg, qp_reference.x, qp_reference.lam,
                           kkt=qp_reference)
        assert np.linalg.norm(state.x_curr - qp_reference.x) <= 1e-9
        assert np.linalg.norm(state.lam_curr - qp_reference.lam) <= 1e-9
        assert trace[-1].feas <= 1e-9

    def test_trace_indexing(self, qp_testbed):
        """A K-iteration run records k = 2 .. K+1 with matching t_k."""
        cfg = SolverConfig(schedule=chambolle_dossal(10.0), max_iter=5)
        _, trace = run(qp_testbed, cfg, np.zeros(50), np.zeros(10))
        assert [r.k for r in trace] == [2, 3, 4, 5, 6]
        t = generate(chambolle_dossal(10.0), 6)
        np.testing.assert_allclose([r.t_k for r in trace], t[1:], rtol=1e-15)

    def test_zero_iterations_empty_trace(self, qp_testbed):
        cfg = SolverConfig(schedule=nesterov(), max_iter=0)
        state, trace = run(qp_testbed, cfg, np.zeros(50), np.zeros(10))
        assert trace == []
        assert state.k == 1

    @pytest.mark.parametrize("max_iter", [-1, 2.5, True],
                             ids=["negative", "float", "bool"])
    def test_bad_budget_rejected(self, qp_testbed, max_iter):
        """A budget that is negative or not an integer is named before
        the first step (it used to fail in the schedule's generation, in
        a slice, or, for ``True``, run one iteration)."""
        cfg = SolverConfig(schedule=nesterov(), max_iter=max_iter)
        with pytest.raises(ValueError, match=re.escape(
                f"max_iter must be a nonnegative integer, got {max_iter}")):
            run(qp_testbed, cfg, np.zeros(50), np.zeros(10))

    def test_numpy_integer_budget_runs(self, qp_testbed):
        cfg = SolverConfig(schedule=nesterov(), max_iter=np.int64(3))
        _, trace = run(qp_testbed, cfg, np.zeros(50), np.zeros(10))
        assert [r.k for r in trace] == [2, 3, 4]

    @pytest.mark.parametrize("value", [math.nan, -1e-6])
    @pytest.mark.parametrize("field", ["feas_tol", "stat_tol"])
    def test_bad_stop_tolerance_rejected(self, qp_testbed, field, value):
        """A stopping tolerance must be nonnegative: a negative or NaN one
        can never be met, so the run would spend its whole budget in
        one-iterate record blocks.  Zero is accepted."""
        cfg = SolverConfig(schedule=nesterov(), max_iter=5,
                           stop=StoppingRule(**{field: value}))
        with pytest.raises(ValueError, match=re.escape(
                f"{field} must be nonnegative, got {value}")):
            run(qp_testbed, cfg, np.zeros(50), np.zeros(10))
        cfg = replace(cfg, stop=StoppingRule(**{field: 0.0}))
        _, trace = run(qp_testbed, cfg, np.zeros(50), np.zeros(10))
        assert len(trace) == 5

    def test_bit_identical_reruns(self, qp_testbed, qp_reference):
        """Identical inputs produce bit-identical traces."""
        cfg = SolverConfig(schedule=nesterov(), case="explicit", max_iter=100)
        _, t1 = run(qp_testbed, cfg, np.zeros(50), np.zeros(10),
                    kkt=qp_reference)
        _, t2 = run(qp_testbed, cfg, np.zeros(50), np.zeros(10),
                    kkt=qp_reference)
        assert t1 == t2

    def test_planned_steps_match_run(self):
        """50 steps of an unscaled implicit CD(10) critical run, each
        given ``step_plan(inst, cfg.case)``, the plan ``run`` makes once,
        end bitwise where ``run`` does."""
        inst = make_random_qp(n=50, m=10, seed=0)
        cfg = resolve_config(inst, SolverConfig(
            schedule=chambolle_dossal(10.0, eta="critical"),
            case="implicit", max_iter=50))
        state = aalm_solver.initial_state(inst, cfg, np.zeros(50),
                                          np.zeros(10))
        for _ in range(50):
            state = step(state, cfg, inst, step_plan(inst, cfg.case))
        final, _ = run(inst, cfg, np.zeros(50), np.zeros(10))
        np.testing.assert_array_equal(state.x_curr, final.x_curr)
        np.testing.assert_array_equal(state.lam_curr, final.lam_curr)

    def test_early_stop(self, qp_testbed):
        """Both tolerances met -> the loop exits before the budget."""
        stop = StoppingRule(feas_tol=1e-4, stat_tol=1e-4)
        cfg = SolverConfig(schedule=nesterov(), case="explicit",
                           max_iter=2000, stop=stop)
        _, trace = run(qp_testbed, cfg, np.zeros(50), np.zeros(10))
        assert len(trace) < 2000
        assert trace[-1].feas <= 1e-4 and trace[-1].stat_res <= 1e-4

    def test_stopping_rule_is_keyword_only(self):
        """``StoppingRule(300)`` once meant a 300-iteration budget; it is
        now refused rather than read as ``feas_tol=300``."""
        with pytest.raises(TypeError):
            StoppingRule(300)

    def test_budget_is_max_iter(self, qp_testbed):
        """A stopping rule never met leaves the run at exactly
        ``max_iter`` iterations."""
        cfg = SolverConfig(schedule=nesterov(), case="explicit", max_iter=50,
                           stop=StoppingRule(feas_tol=1e-30))
        _, trace = run(qp_testbed, cfg, np.zeros(50), np.zeros(10))
        assert len(trace) == 50

    def test_inner_solves_meet_tolerances(self, inner_solves):
        """On the Newton path every outer iteration ``k`` solves once, to
        ``min(1e-8, 1e-2 / t_k^3)``, and the point returned meets it.  The
        run is long enough (``t_k`` passes 100) for the ``1/t_k^3`` part
        of the schedule to take over from the cap."""
        inst = make_random_lp(seed=0)
        cfg = SolverConfig(schedule=nesterov(), case="implicit", max_iter=300)
        run(inst, cfg, np.zeros(20), np.zeros(1))
        assert [s.tol for s in inner_solves] == [
            min(1e-8, 1e-2 / float(t) ** 3) for t in generate(nesterov(), 300)]
        assert inner_solves[-1].tol < 1e-8
        assert all(s.grad_norm <= s.tol for s in inner_solves)
        assert all(s.steps >= 1 for s in inner_solves[:5])

    def test_inner_failure_names_iteration(self):
        """An inner Newton failure names the outer iteration and t_k
        beside the tolerance and the achieved norm: on the lp instance,
        CD(10) noncritical fails at k = 9, where t_k = 17/9."""
        inst = make_random_lp(seed=0)
        cfg = SolverConfig(schedule=chambolle_dossal(10.0, eta="noncritical"),
                           case="implicit", max_iter=1000)
        with pytest.raises(MaxInnerIterations) as exc:
            run(inst, cfg, np.zeros(20), np.zeros(1))
        msg = str(exc.value)
        assert "k=9," in msg and f"t_k={17 / 9:.6g}" in msg
        assert "tol 1.000e-08" in msg
        assert f"gradient norm {exc.value.grad_norm:.3e}" in msg

    @staticmethod
    def _identity_deviations(inst, cfg, states):
        """``||lhs - rhs|| / (1 + ||rhs||)`` of the dual-correction identity
        ``c_k lam_{k+1} - alpha_k lam_k = p_k + delta_k c_k (c_k A x_{k+1}
        - r_k)`` at each pair of consecutive states, recomputed from their
        iterates, ``t`` and ``xi`` with ``alpha_k = (t_{k+1} - eta)/eta``,
        ``c_k = t_{k+1}/eta``, ``delta_k = delta xi_{k+1}``,
        ``p_k = c_k lambdabar_k - alpha_k lam_k`` and
        ``r_k = alpha_k A x_k + b``."""
        eta, out = cfg.schedule.eta, []
        for s, nxt in zip(states, states[1:]):
            t_k, t_next = s.t_seq[s.k - 1], s.t_seq[s.k]
            alpha, c = (t_next - eta) / eta, t_next / eta
            lbar = (s.lam_curr
                    + (t_k - 1.0) / t_next * (s.lam_curr - s.lam_prev))
            p = c * lbar - alpha * s.lam_curr
            r = alpha * (inst.A @ s.x_curr) + inst.b
            delta_k = cfg.delta * s.xi_seq[s.k]
            lhs = c * nxt.lam_curr - alpha * s.lam_curr
            rhs = p + delta_k * c * (c * (inst.A @ nxt.x_curr) - r)
            out.append(np.linalg.norm(lhs - rhs)
                       / (1.0 + np.linalg.norm(rhs)))
        return np.array(out)

    @pytest.mark.parametrize("which", [
        "qp-explicit", "lp-newton", "ring-woodbury", "qp-scaled"])
    def test_identity_checks_clean(self, which, qp_testbed):
        """The dual-correction identity holds to ``1e-10 (1 + ||rhs||)``
        at each of 100 steps along four runs: explicit CD(10) noncritical
        on the QP testbed (a linear solve in the eigenbasis), implicit
        Nesterov on lp seed 0 (inner Newton), on the 10x20 ring (Woodbury)
        and on the QP testbed with ``xi_k = t_k^0.5`` (dense LU, ``delta_k
        = delta xi_{k+1}`` varying).  A relative perturbation of 1e-8 of
        one entry of ``lam_{k+1}`` at step 50 breaks it there."""
        inst, schedule, case = {
            "qp-explicit": (qp_testbed,
                            chambolle_dossal(10.0, eta="noncritical"),
                            "explicit"),
            "lp-newton": (make_random_lp(seed=0), nesterov(), "implicit"),
            "ring-woodbury": (make_ring_logistic(10, 20), nesterov(),
                              "implicit"),
            "qp-scaled": (qp_testbed,
                          replace(chambolle_dossal(10.0), xi=np.sqrt),
                          "implicit")}[which]
        cfg = resolve_config(inst, SolverConfig(schedule=schedule, case=case,
                                                max_iter=100))
        plan = step_plan(inst, cfg.case)
        states = [initial_state(inst, cfg, np.zeros(inst.dim),
                                np.zeros(inst.n_constraints))]
        for _ in range(100):
            states.append(step(states[-1], cfg, inst, plan))
        assert self._identity_deviations(inst, cfg, states).max() <= 1e-10
        lam = states[50].lam_curr.copy()
        lam[0] += 1e-8 * (1.0 + np.linalg.norm(lam))
        states[50] = replace(states[50], lam_curr=lam)
        assert self._identity_deviations(inst, cfg, states)[49] > 1e-10


class TestRecordBlocks:
    """The run loop records its iterates in blocks; no record depends on
    where the block boundaries fall."""

    @pytest.fixture(scope="class")
    def ring(self):
        ring = make_ring_logistic(10, 20, 0.5, seed=0)
        return ring, kkt_refine(ring)

    @pytest.fixture(scope="class")
    def lp(self):
        lp = make_random_lp(seed=0)
        return lp, kkt_refine(lp)

    @staticmethod
    def _run(inst, kkt, n, case="explicit"):
        cfg = SolverConfig(schedule=nesterov(), case=case, max_iter=n)
        return run(inst, cfg, np.zeros(inst.dim),
                   np.zeros(inst.n_constraints), kkt=kkt)

    def test_block_sizes(self, qp_testbed, ring):
        """256 rows on the QP (the row cap), 40 on the 10x20 ring and 4 on
        the 10x200 ring (the byte cap); one under a stopping tolerance."""
        assert _block_rows(qp_testbed, StoppingRule()) == 256
        assert _block_rows(ring[0], StoppingRule()) == 40
        assert _block_rows(make_ring_logistic(10, 200),
                           StoppingRule()) == 4
        assert _block_rows(qp_testbed, StoppingRule(stat_tol=1e-6)) == 1

    @pytest.mark.parametrize("which", ["qp", "ring", "lp"])
    def test_short_runs_are_prefixes(self, which, qp_testbed, qp_reference,
                                     ring, lp):
        """Runs of block - 1, block and block + 1 iterations are bitwise
        prefixes of a longer run: 2000 explicit iterations on the QP and
        the ring, 1000 implicit ones on the lp instance (its inner Newton
        meets the floating-point floor at k=1528)."""
        inst, kkt = {"qp": (qp_testbed, qp_reference), "ring": ring,
                     "lp": lp}[which]
        case, n_long = (("implicit", 1000) if which == "lp"
                        else ("explicit", 2000))
        block = _block_rows(inst, StoppingRule())
        _, long = self._run(inst, kkt, n_long, case)
        for n in (block - 1, block, block + 1):
            _, short = self._run(inst, kkt, n, case)
            assert short == long[:n]

    @pytest.mark.parametrize("which", ["qp", "ring"])
    def test_make_record_is_a_block_row(self, which, qp_testbed,
                                        qp_reference, ring):
        """``make_record`` on one iterate equals the matching row of a
        ``make_records`` block bitwise."""
        inst, kkt = (qp_testbed, qp_reference) if which == "qp" else ring
        rng = np.random.default_rng(3)
        X = rng.normal(size=(6, inst.dim))
        L = rng.normal(size=(6, inst.n_constraints))
        t, xi = np.array([1.0, 2.5, 3.0, 4.25, 7.0]), np.linspace(1, 2, 5)
        args = (0.3, 1.7, 0.8, 1.2)
        block = make_records(inst, 4, t, xi, X, L, *args, kkt=kkt)
        assert [r.k for r in block] == [4, 5, 6, 7, 8]
        for j, rec in enumerate(block):
            one = make_record(inst, 4 + j, t[j], X[j + 1], X[j], L[j + 1],
                              L[j], *args, xi_k=xi[j], kkt=kkt)
            assert one == rec

    def test_shared_work_list(self, ring, monkeypatch):
        """Blocks of 5 and then 3 rows recorded in four caller-owned
        arrays of 6 rows equal calls without them bitwise, and such a call
        allocates no difference array of its own: ``make_records`` itself
        makes four arrays by ``np.empty`` without ``work`` and none with
        it, and it writes only the block's rows of ``work``."""
        inst, kkt = ring
        rng = np.random.default_rng(8)
        work = [np.full((6, a), np.nan)
                for a in (inst.dim, inst.n_constraints) * 2]
        real_empty, made = np.empty, []

        def empty(*args, **kwargs):
            if sys._getframe(1).f_code.co_filename == diagnostics.__file__:
                made.append(args[0])
            return real_empty(*args, **kwargs)

        monkeypatch.setattr(np, "empty", empty)
        for rows in (5, 3):
            X = rng.normal(size=(rows + 1, inst.dim))
            L = rng.normal(size=(rows + 1, inst.n_constraints))
            t = np.linspace(2.0, 3.0, rows)
            args = (inst, 3, t, np.ones(rows), X, L, 0.3, 1.7, 0.8, 1.2)
            own = make_records(*args, kkt=kkt)
            assert len(made) == 4
            made.clear()
            assert make_records(*args, kkt=kkt, work=work) == own
            assert made == []
            assert all(not np.isnan(a[:rows]).any() for a in work)
            assert all(np.isnan(a[5:]).all() for a in work)

    @pytest.mark.parametrize("which", ["lp", "qp"])
    def test_trace_is_records_of_iterates(self, which, qp_testbed,
                                          qp_reference, lp):
        """A run's trace is bitwise ``make_records`` over its iterates
        alone, in one block: 300 implicit Nesterov iterations on the lp
        instance (whose inner Newton carries ``f(x_k)`` and
        ``grad f(x_k)`` on the state) and 300 explicit CD(10) ones on the
        QP testbed, each with its reference."""
        inst, kkt = lp if which == "lp" else (qp_testbed, qp_reference)
        schedule, case = ((nesterov(), "implicit") if which == "lp"
                          else (chambolle_dossal(10.0), "explicit"))
        n = 300
        cfg = resolve_config(inst, SolverConfig(schedule=schedule, case=case,
                                                max_iter=n))
        x0, lam0 = np.zeros(inst.dim), np.zeros(inst.n_constraints)
        state = initial_state(inst, cfg, x0, lam0)
        plan = step_plan(inst, cfg.case)
        xs, lams = [state.x_curr], [state.lam_curr]
        for _ in range(n):
            state = step(state, cfg, inst, plan)
            xs.append(state.x_curr)
            lams.append(state.lam_curr)
        records = make_records(
            inst, 2, state.t_seq[1:n + 1], state.xi_seq[1:n + 1],
            np.array(xs), np.array(lams), cfg.gamma, cfg.delta,
            cfg.schedule.eta, cfg.beta, kkt=kkt)
        _, trace = run(inst, cfg, x0, lam0, kkt=kkt)
        assert len(trace) == n
        assert records == trace

    def test_ring_flush_allocates_few_blocks(self, monkeypatch):
        """On the 10x200 ring (4-row blocks; a 4 x 2000 block array is
        64 kB) every flush, the run's first included, traces at most three
        block arrays: the run allocates its iterate rows and the four
        difference arrays before its first step, and the block's other
        arrays are combined in place (the out-of-place formula traced
        about ten, and a first flush that made the difference arrays
        itself six)."""
        inst = make_ring_logistic()
        kkt = kkt_refine(inst)
        real, peaks = aalm_solver.make_records, []

        def traced(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            records = real(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            return records

        monkeypatch.setattr(aalm_solver, "make_records", traced)
        tracemalloc.start()
        try:
            _, trace = self._run(inst, kkt, 12)
        finally:
            tracemalloc.stop()
        assert len(trace) == 12 and len(peaks) == 3
        assert max(peaks) <= 3 * (4 * inst.dim * 8), peaks

    def test_stop_rule_ends_at_first_k(self, qp_testbed, qp_reference,
                                       monkeypatch):
        """A stopping rule ends the run at the first ``k`` meeting it,
        with no step beyond: the final state is that record's iterate."""
        stop = StoppingRule(feas_tol=1e-4, stat_tol=1e-4)
        _, full = self._run(qp_testbed, qp_reference, 2000)
        first = next(i for i, r in enumerate(full)
                     if r.feas <= 1e-4 and r.stat_res <= 1e-4)
        steps = []
        real = aalm_solver.step

        def counted(*args):
            steps.append(args[0].k)
            return real(*args)

        monkeypatch.setattr(aalm_solver, "step", counted)
        cfg = SolverConfig(schedule=nesterov(), case="explicit",
                           max_iter=2000, stop=stop)
        state, trace = run(qp_testbed, cfg, np.zeros(50), np.zeros(10),
                           kkt=qp_reference)
        assert 1 < len(trace) < 2000
        assert trace == full[:first + 1]
        assert state.k == len(trace) + 1 == trace[-1].k
        assert len(steps) == len(trace)

    @pytest.mark.parametrize("which", ["qp", "ring"])
    def test_cached_transpose_products(self, which, qp_testbed, ring):
        """Products through the instance's ``At`` equal ``A.T @ v``
        bitwise, for the dense QP and the ring's ``KronIdentity``."""
        inst = qp_testbed if which == "qp" else ring[0]
        rng = np.random.default_rng(5)
        for _ in range(5):
            v = rng.normal(size=inst.n_constraints)
            assert np.array_equal(inst.At @ v, inst.A.T @ v)


class TestRecordForms:
    """Records evaluate ``f`` and ``grad f`` through the objective's row
    forms, one call per block, never through its per-row callables."""

    @staticmethod
    def _run(inst, kkt, n=300):
        cfg = SolverConfig(schedule=nesterov(), case="explicit", max_iter=n)
        return run(inst, cfg, np.zeros(inst.dim),
                   np.zeros(inst.n_constraints), kkt=kkt)[1]

    def test_per_row_fallback_matches_described_rows(self, qp_testbed,
                                                     qp_reference):
        """An explicit QP run whose oracle has no ``quadratic`` (so its
        rows loop over the callables) writes bitwise the described run's
        trace."""
        plain = replace(qp_testbed, objective=replace(
            qp_testbed.objective, quadratic=None))
        assert self._run(plain, qp_reference, 600) == self._run(
            qp_testbed, qp_reference, 600)

    def test_records_make_no_per_row_calls(self, qp_testbed, qp_reference):
        """A 300-iteration explicit QP run with a reference calls
        ``gradient`` once per step (the linearization anchor) and
        ``value`` once (``f*``); its 300 records call neither."""
        calls = {"value": 0, "gradient": 0}
        obj = qp_testbed.objective

        def counted(name):
            oracle = getattr(obj, name)

            def call(x):
                calls[name] += 1
                return oracle(x)

            return call

        counting = replace(qp_testbed, objective=replace(
            obj, value=counted("value"), gradient=counted("gradient")))
        trace = self._run(counting, qp_reference)
        assert len(trace) == 300
        assert calls == {"value": 1, "gradient": 300}


def _counting(instance):
    """A copy of ``instance`` whose ``A`` (a dense array or a
    ``KronIdentity``) counts its products with vectors in ``A.count``;
    each product returns what ``A`` would.  Only products by ``A`` itself
    count, not by ``A.T`` or by ``A'A`` formed from it."""
    A = instance.A
    base = type(A)

    class Counting(base):
        count = 0

        def __matmul__(self, other):
            if self.shape == A.shape and np.ndim(other) == 1:
                Counting.count += 1
            if isinstance(self, np.ndarray):
                return np.asarray(self) @ np.asarray(other)
            return super().__matmul__(other)

    counted = replace(instance)
    object.__setattr__(counted, "A", A.view(Counting)
                       if isinstance(A, np.ndarray) else Counting(A.K, A.m))
    return counted


class TestCarriedProduct:
    """``A x_k`` is formed once per iterate and carried on the state into
    the next step.  Trace records form ``A x_k`` anew, one block product
    per block; the counts below take products with vectors only, so they
    leave those out."""

    CASES = {"qp": "explicit", "ring": "explicit", "lp": "implicit"}

    @pytest.fixture(scope="class")
    def instances(self, qp_testbed):
        return {"qp": qp_testbed,
                "ring": make_ring_logistic(10, 20, 0.5, seed=0),
                "lp": make_random_lp(seed=0)}

    def _run(self, inst, which, n):
        cfg = SolverConfig(schedule=nesterov(), case=self.CASES[which],
                           max_iter=n)
        state, _ = run(inst, cfg, np.zeros(inst.dim),
                       np.zeros(inst.n_constraints))
        return state

    @pytest.mark.parametrize("which", ["qp", "ring", "lp"])
    def test_carried_product_is_A_x(self, which, instances):
        """After a run the state's ``Ax_curr`` is ``A @ x_curr`` bitwise."""
        inst = instances[which]
        state = self._run(inst, which, 300)
        assert np.array_equal(state.Ax_curr, inst.A @ state.x_curr)

    @pytest.mark.parametrize("which", ["qp", "ring"])
    def test_one_product_per_iteration(self, which, instances):
        """A linear-path run multiplies ``A`` by a vector once per outer
        iteration, plus once at the start."""
        inst = _counting(instances[which])
        self._run(inst, which, 300)
        assert type(inst.A).count == 300 + 1

    def test_newton_products_per_iteration(self, instances):
        """The inner Newton forms ``A x`` once per trial point and none at
        its start (the state carries ``A x_k`` in), and ``step`` takes
        the accepted point's product from it: the 1000-iteration lp
        Nesterov run makes 1144 products, one at ``x_1`` and one per
        trial (3144 when the solve re-formed ``A x_k`` and ``step``
        re-formed ``A x_{k+1}``)."""
        inst = _counting(instances["lp"])
        self._run(inst, "lp", 1000)
        assert type(inst.A).count <= 1150

    def test_one_gradient_per_newton_step(self, instances):
        """``grad f(x_k)`` is carried with ``x_k`` into the next inner
        solve: a 300-iteration implicit Nesterov run with a reference
        evaluates ``grad f`` once per Newton step (one Hessian each) plus
        once at ``x_1`` (442 calls; 1041 when the next inner solve and
        the records evaluated their own).  The records evaluate
        ``grad f`` by the objective's row forms, which the separable lp
        objective derives from its description, not from the
        callable."""
        inst = instances["lp"]
        kkt = kkt_refine(inst)
        calls = {"gradient": 0, "hessian": 0}

        def counted(name):
            oracle = getattr(inst.objective, name)

            def call(x):
                calls[name] += 1
                return oracle(x)

            return call

        counting = replace(inst, objective=replace(
            inst.objective, gradient=counted("gradient"),
            hessian=counted("hessian")))
        cfg = SolverConfig(schedule=nesterov(), case="implicit", max_iter=300)
        run(counting, cfg, np.zeros(inst.dim), np.zeros(inst.n_constraints),
            kkt=kkt)
        assert calls["hessian"] >= 300
        assert calls["gradient"] == calls["hessian"] + 1

    @pytest.mark.parametrize("which", ["qp", "ring"])
    def test_oracles_ignore_carried_product(self, which, instances):
        """With a corrupted ``Ax_curr``, :func:`step_coupled` returns the
        same state as with the right one (it forms ``A x_k`` itself),
        while :func:`step` returns a different one (it reads it)."""
        inst = instances[which]
        cfg = resolve_config(inst, SolverConfig(
            schedule=nesterov(), case=self.CASES[which], delta=1.3,
            beta=0.5, max_iter=10))
        rng = np.random.default_rng(7)
        x = rng.normal(size=inst.dim)
        good = IterateState(
            x_curr=x, x_prev=rng.normal(size=inst.dim), Ax_curr=inst.A @ x,
            lam_curr=rng.normal(size=inst.n_constraints),
            lam_prev=rng.normal(size=inst.n_constraints), k=2,
            t_seq=np.array([1.0, 2.0, 3.5]), xi_seq=np.ones(3))
        bad = replace(good, Ax_curr=good.Ax_curr + 1.0)

        def same(a, b):
            return all(np.array_equal(getattr(a, f), getattr(b, f))
                       for f in ("x_curr", "x_prev", "Ax_curr", "lam_curr",
                                 "lam_prev", "k"))

        assert same(step_coupled(good, cfg, inst),
                    step_coupled(bad, cfg, inst))
        plan = step_plan(inst, cfg.case)
        assert not same(step(good, cfg, inst, plan),
                        step(bad, cfg, inst, plan))


class TestDegenerateConstraints:
    """A = 0 is permitted: the method reduces to accelerated proximal."""

    def test_zero_constraint_matrix(self):
        Q = np.diag([1.0, 4.0])
        q = np.array([1.0, -2.0])
        inst = make_qp(Q, q, np.zeros((1, 2)), np.zeros(1), name="qp-free")
        cfg = SolverConfig(schedule=nesterov(), case="implicit", max_iter=200)
        state, trace = run(inst, cfg, np.zeros(2), np.zeros(1))
        assert all(r.feas == 0.0 for r in trace)
        x_free = np.linalg.solve(Q, -q)
        np.testing.assert_allclose(state.x_curr, x_free, rtol=0, atol=1e-6)


class TestStructuredConstraints:
    """The ring's ``KronIdentity`` A with a factored Gram eigenbasis
    follows the same trajectory as its dense twin, solved through a dense
    ``eigh`` of ``A'A``."""

    @pytest.fixture(scope="class")
    def ring_pair(self):
        ring = make_ring_logistic(10, 20, 0.5, seed=0)
        twin = ProblemInstance(ring.objective, ring.A.toarray(), ring.b,
                               ring.name)
        assert ring.gram is not None and twin.gram is None
        return ring, twin

    @staticmethod
    def _rel(a, b):
        return np.linalg.norm(a - b) / np.linalg.norm(b)

    def test_accelerated_run_matches_dense_twin(self, ring_pair):
        """CD(10) noncritical, explicit, delta = 10, 300 iterations."""
        cfg = SolverConfig(schedule=chambolle_dossal(10.0, eta="noncritical"),
                           case="explicit", delta=10.0, max_iter=300)
        finals = []
        for inst in ring_pair:
            state, _ = run(inst, cfg, np.zeros(inst.dim),
                           np.zeros(inst.n_constraints))
            finals.append(state)
        kron_run, dense_run = finals
        assert self._rel(kron_run.x_curr, dense_run.x_curr) <= 1e-10
        assert self._rel(kron_run.lam_curr, dense_run.lam_curr) <= 1e-10

    def test_vanilla_run_matches_dense_twin(self, ring_pair):
        finals = []
        for inst in ring_pair:
            state, _ = run_vanilla(inst, VanillaConfig(), 300,
                                   np.zeros(inst.dim),
                                   np.zeros(inst.n_constraints))
            finals.append(state)
        kron_run, dense_run = finals
        assert self._rel(kron_run.x_curr, dense_run.x_curr) <= 1e-10
        assert self._rel(kron_run.lam_curr, dense_run.lam_curr) <= 1e-10


class TestStepCoupled:
    """The joint primal-dual linear system as an independent arithmetic
    path."""

    def test_pure_momentum_closed_form(self):
        """f = 0 and A = 0 make the coupled step return the momentum
        points themselves."""
        inst = make_qp(np.zeros((1, 1)), np.zeros(1), np.zeros((1, 1)),
                       np.zeros(1))
        state = _scalar_state(3.0, 4.0, 2.0, 0.0, 1.0, 0.5)
        cfg = SolverConfig(schedule=nesterov(eta=1.0), gamma=1.0)
        out = step_coupled(state, cfg, inst)
        np.testing.assert_allclose(out.x_curr, [3.0], rtol=0, atol=1e-14)
        np.testing.assert_allclose(out.lam_curr, [1.25], rtol=0, atol=1e-14)

    def test_agrees_with_sequential_step(self, qp_testbed):
        """Both paths produce the same iterate on a generic QP step."""
        rng = np.random.default_rng(3)
        x = rng.normal(size=50)
        state = IterateState(
            x_curr=x, x_prev=rng.normal(size=50), Ax_curr=qp_testbed.A @ x,
            lam_curr=rng.normal(size=10), lam_prev=rng.normal(size=10),
            k=2, t_seq=np.array([1.0, 2.0, 3.5]), xi_seq=np.ones(3))
        cfg = SolverConfig(schedule=nesterov(eta=0.8), case="implicit",
                           gamma=0.7, delta=1.3, beta=0.5)
        a = step(replace_state(state), cfg, qp_testbed,
                 step_plan(qp_testbed, cfg.case))
        b = step_coupled(replace_state(state), cfg, qp_testbed)
        np.testing.assert_allclose(a.x_curr, b.x_curr, rtol=0, atol=1e-9)
        np.testing.assert_allclose(a.lam_curr, b.lam_curr, rtol=0, atol=1e-9)

    def test_nonquadratic_rejected(self):
        inst = make_random_lp(d=10, n=6, seed=1)
        state = IterateState(
            x_curr=np.zeros(6), x_prev=np.zeros(6), Ax_curr=np.zeros(1),
            lam_curr=np.zeros(1), lam_prev=np.zeros(1), k=2,
            t_seq=np.array([1.0, 2.0, 3.0]), xi_seq=np.ones(3))
        cfg = SolverConfig(schedule=nesterov(eta=1.0), gamma=1.0)
        with pytest.raises(ValueError, match="quadratic"):
            step_coupled(state, cfg, inst)


def replace_state(s):
    """Deep-enough copy: step mutates nothing, but stay on the safe side."""
    return IterateState(x_curr=s.x_curr.copy(), x_prev=s.x_prev.copy(),
                        Ax_curr=s.Ax_curr.copy(), lam_curr=s.lam_curr.copy(),
                        lam_prev=s.lam_prev.copy(), k=s.k,
                        t_seq=s.t_seq.copy(), xi_seq=s.xi_seq.copy())


class TestScaledRuns:
    """The scaled variant at the run level."""

    @pytest.mark.parametrize("max_iter", [300, 3000])
    def test_unit_scaling_reproduces_unscaled(self, qp_testbed, qp_reference,
                                              max_iter):
        """xi = 1 gives the identical trajectory, field for field, at any
        budget (at 3000 the certification horizon is 30000).  (The
        reference is passed so no field is NaN and record equality is a
        true bitwise comparison.)"""
        base = chambolle_dossal(10.0)
        cfg_plain = SolverConfig(schedule=base, case="implicit",
                                 max_iter=max_iter)
        cfg_scaled = SolverConfig(schedule=replace(base, xi=np.ones_like),
                                  case="implicit", max_iter=max_iter)
        _, t_plain = run(qp_testbed, cfg_plain, np.zeros(50), np.zeros(10),
                         kkt=qp_reference)
        _, t_scaled = run(qp_testbed, cfg_scaled, np.zeros(50), np.zeros(10),
                          kkt=qp_reference)
        assert t_plain == t_scaled

    def test_growing_scaling_accelerates_feasibility(self, qp_testbed):
        """xi = sqrt(t) keeps t^2 xi feas bounded, so plain t^2 feas decays
        faster than in the unscaled run."""
        scaled = replace(chambolle_dossal(10.0), xi=np.sqrt)
        cfg = SolverConfig(schedule=scaled, case="implicit", max_iter=400)
        _, trace = run(qp_testbed, cfg, np.zeros(50), np.zeros(10))
        scaled = [r.scaled_feas for r in trace if r.k >= 50]
        assert max(scaled) <= 10.0 * scaled[0]
