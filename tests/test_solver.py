"""Tests for the outer iteration: configuration, stepping, and the run loop.

The single step is pinned against an independent scalar oracle and the
coupled primal-dual solve; loop-level behavior (fixed points, stopping,
trace indexing, reproducibility, the scaled variant) is verified on the
seeded QP testbed.
"""

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
    make_qp,
    make_random_lp,
    make_random_qp,
    nesterov,
    resolve_config,
    run,
    step,
    step_coupled,
)
from aalm.diagnostics import make_record, make_records
from aalm.harness import VanillaConfig, run_vanilla
from aalm.oracle import kkt_refine
from aalm.problems import make_ring_logistic
from aalm import solver as aalm_solver
from aalm.solver import _block_rows
from aalm.subsolver import inner_tolerance


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
            out = step(state, cfg, inst)
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

    def test_bit_identical_reruns(self, qp_testbed, qp_reference):
        """Identical inputs produce bit-identical traces."""
        cfg = SolverConfig(schedule=nesterov(), case="explicit", max_iter=100)
        _, t1 = run(qp_testbed, cfg, np.zeros(50), np.zeros(10),
                    kkt=qp_reference)
        _, t2 = run(qp_testbed, cfg, np.zeros(50), np.zeros(10),
                    kkt=qp_reference)
        assert t1 == t2

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

    def test_identity_checks_clean(self, qp_testbed):
        """The dual-correction identity holds along a real trajectory."""
        cfg = SolverConfig(schedule=chambolle_dossal(10.0, eta="noncritical"),
                           case="explicit", max_iter=100,
                           check_identities=True)
        run(qp_testbed, cfg, np.zeros(50), np.zeros(10))


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
        meets the floating-point floor at k=1528), whose records read the
        ``f(x_k)`` and ``grad f(x_k)`` the state carries."""
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
        AX = np.array([inst.A @ v for v in X[1:]])
        block = make_records(inst, 4, t, xi, X, L, AX, *args, kkt=kkt)
        assert [r.k for r in block] == [4, 5, 6, 7, 8]
        for j, rec in enumerate(block):
            one = make_record(inst, 4 + j, t[j], X[j + 1], X[j], L[j + 1],
                              L[j], *args, xi_k=xi[j], kkt=kkt)
            assert one == rec

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
    the next step and the trace record."""

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
        """``grad f(x_k)`` is carried with ``x_k``: a 300-iteration
        implicit Nesterov run with a reference evaluates ``grad f`` once
        per Newton step (one Hessian each) plus once at ``x_1``; neither
        the next inner solve nor the trace record evaluates it again
        (442 calls; 1041 when both evaluated their own)."""
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
        assert not same(step(good, cfg, inst), step(bad, cfg, inst))


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
    follows the same trajectory as its dense twin solved by Cholesky."""

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
        a = step(replace_state(state), cfg, qp_testbed)
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

    def test_unit_scaling_reproduces_unscaled(self, qp_testbed, qp_reference):
        """xi = 1 gives the identical trajectory, field for field.  (The
        reference is passed so no field is NaN and record equality is a
        true bitwise comparison.)"""
        base = chambolle_dossal(10.0)
        cfg_plain = SolverConfig(schedule=base, case="implicit", max_iter=300)
        cfg_scaled = SolverConfig(schedule=replace(base, xi=np.ones_like),
                                  case="implicit", max_iter=300)
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
