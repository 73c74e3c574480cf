"""Tests for the primal subproblem solvers and the dual update.

The direct linear path is pinned against scalar closed forms and against
the inner Newton path; the Newton path is exercised on the logistic
objective where no closed form exists.  Gradient/value consistency of the
assembled subproblem is audited by finite differences.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from aalm import (
    MaxInnerIterations,
    ObjectiveOracle,
    ProblemInstance,
    SolverConfig,
    SubproblemSpec,
    chambolle_dossal,
    make_qp,
    make_random_lp,
    make_random_qp,
    make_ring_logistic,
    multiplier_update,
    nesterov,
    run,
    solve_inner_newton,
    solve_linear_case,
)
from aalm import subsolver
from aalm.subsolver import (
    solve_subproblem,
    spd_solve,
    step_plan,
    subproblem_gradient,
    subproblem_value,
)


def _scalar_instance(quad=0.0, lin=0.0, a=1.0, b=0.0):
    return make_qp(np.array([[quad]]), np.array([lin]), np.array([[a]]),
                   np.array([b]))


def _spec(implicit=None, gamma=1.0, beta=0.0, delta=1.0, c_k=2.0,
          p_k=None, r_k=None, xbar_k=None, anchor=None, m=1, n=1):
    """A subproblem whose implicit part is ``implicit`` (an instance's
    objective, or None for a purely linearized step)."""
    return SubproblemSpec(
        implicit=implicit, gamma=gamma, beta=beta, delta=delta, c_k=c_k,
        p_k=np.zeros(m) if p_k is None else np.asarray(p_k, dtype=float),
        r_k=np.zeros(m) if r_k is None else np.asarray(r_k, dtype=float),
        xbar_k=np.ones(n) if xbar_k is None else np.asarray(xbar_k,
                                                            dtype=float),
        gradient_anchor=anchor)


class TestSubproblemSpec:
    """Construction-time validation of the coefficient bundle."""

    def test_nonpositive_stepsizes_rejected(self):
        with pytest.raises(ValueError):
            _spec(gamma=0.0)
        with pytest.raises(ValueError):
            _spec(delta=-1.0)
        with pytest.raises(ValueError):
            _spec(beta=-0.1)



class TestStepPlan:
    """The case split, resolved once per run."""

    def test_unknown_case_rejected(self):
        inst = make_random_qp(n=4, m=2, seed=0)
        with pytest.raises(ValueError, match="case"):
            step_plan(inst, "semi-implicit")

    def test_explicit_needs_anchor(self):
        """The explicit plan linearizes the whole objective, so every
        explicit step carries its gradient as the anchor; an objective
        without a Lipschitz constant has no explicit plan."""
        inst = make_random_qp(n=4, m=2, seed=0)
        plan = step_plan(inst, "explicit")
        assert plan.implicit is None and plan.linearized is inst.objective
        x = np.arange(4.0)
        np.testing.assert_array_equal(plan.anchor(x),
                                      inst.objective.gradient(x))
        assert step_plan(inst, "implicit").anchor(x) is None
        with pytest.raises(ValueError, match="Lipschitz"):
            step_plan(make_random_lp(d=10, n=6, seed=0), "explicit")

    def test_backend_and_gram_formed_once(self):
        """A quadratic implicit part gets a linear cache sharing the
        plan's A'A; a non-quadratic one gets inner Newton and a dense
        A'A; without the backend the plan holds neither."""
        qp = make_random_qp(n=6, m=2, seed=0)
        plan = step_plan(qp, "implicit")
        assert plan.cache is not None and plan.cache.AtA is plan.AtA
        lp = make_random_lp(d=10, n=6, seed=0)
        plan = step_plan(lp, "implicit")
        assert plan.cache is None
        np.testing.assert_array_equal(plan.AtA, lp.A.T @ lp.A)
        bare = step_plan(lp, "implicit", backend=False)
        assert bare.AtA is None and bare.cache is None


class TestValueGradientConsistency:
    """subproblem_gradient is the derivative of subproblem_value."""

    def test_finite_differences(self):
        inst = make_random_qp(n=6, m=2, seed=8)
        rng = np.random.default_rng(8)
        spec = _spec(inst.objective, gamma=0.7, beta=0.3, delta=1.2, c_k=1.5,
                     p_k=rng.normal(size=2), r_k=rng.normal(size=2),
                     xbar_k=rng.normal(size=6), m=2, n=6)
        x = rng.normal(size=6)
        g = subproblem_gradient(spec, inst, x)
        h = 1e-6
        for i in range(6):
            e = np.zeros(6)
            e[i] = h
            fd = (subproblem_value(spec, inst, x + e)
                  - subproblem_value(spec, inst, x - e)) / (2.0 * h)
            np.testing.assert_allclose(fd, g[i], rtol=0, atol=1e-6)

    def test_solution_is_stationary(self):
        """The direct solve returns a point with vanishing subgradient."""
        inst = make_random_qp(n=6, m=2, seed=8)
        rng = np.random.default_rng(9)
        spec = _spec(inst.objective, gamma=0.7, beta=0.3, delta=1.2, c_k=1.5,
                     p_k=rng.normal(size=2), r_k=rng.normal(size=2),
                     xbar_k=rng.normal(size=6), m=2, n=6)
        x = solve_linear_case(spec, inst)
        assert np.linalg.norm(subproblem_gradient(spec, inst, x)) <= 1e-10


class TestSolveLinearCase:
    """The closed-form path for quadratic/explicit subproblems."""

    def test_scalar_zero_objective(self):
        """f = 0, a = 1, gamma = delta = 1, c = 2, xbar = 1: 5x = 1."""
        inst = _scalar_instance()
        x = solve_linear_case(_spec(inst.objective), inst)
        np.testing.assert_allclose(x, [0.2], rtol=1e-15)

    def test_scalar_quadratic(self):
        """Adding f = x^2/2 makes the system (1 + 1 + 4) x = 1: x = 1/6."""
        inst = _scalar_instance(quad=1.0)
        x = solve_linear_case(_spec(inst.objective), inst)
        np.testing.assert_allclose(x, [1.0 / 6.0], rtol=1e-15)

    def test_no_coupling_is_gradient_step(self):
        """With c = 0, beta = 0, p = 0 the explicit solve collapses to
        xbar - gamma * grad f(xbar)."""
        inst = make_random_qp(n=8, m=3, seed=1)
        rng = np.random.default_rng(1)
        xbar = rng.normal(size=8)
        gamma = 0.25
        g = inst.objective.gradient(xbar)
        spec = _spec(gamma=gamma, c_k=0.0, xbar_k=xbar, anchor=g, m=3, n=8)
        x = solve_linear_case(spec, inst)
        np.testing.assert_allclose(x, xbar - gamma * g, rtol=0, atol=1e-12)

    def test_newton_agrees_on_quadratics(self):
        """One (damped) Newton pass reproduces the direct solution."""
        inst = make_random_qp(n=8, m=3, seed=2)
        rng = np.random.default_rng(2)
        spec = _spec(inst.objective, gamma=0.5, beta=1.0, delta=2.0, c_k=3.0,
                     p_k=rng.normal(size=3), r_k=rng.normal(size=3),
                     xbar_k=rng.normal(size=8), m=3, n=8)
        x_lin = solve_linear_case(spec, inst)
        x_newton, _, _, _ = solve_inner_newton(spec, inst, np.zeros(8), 1e-12)
        np.testing.assert_allclose(x_newton, x_lin, rtol=0, atol=1e-9)

    @staticmethod
    def _dense_solve(spec, Q, q, A, b):
        """The stationarity system assembled densely, by np.linalg.solve."""
        A = A.toarray() if hasattr(A, "toarray") else A
        n = A.shape[1]
        coef = spec.beta + spec.delta * spec.c_k ** 2
        M = coef * (A.T @ A) + np.eye(n) / spec.gamma
        rhs = spec.xbar_k / spec.gamma + A.T @ (
            spec.beta * b - spec.p_k + spec.delta * spec.c_k * spec.r_k)
        if Q is not None:
            M, rhs = M + Q, rhs - q
        if spec.gradient_anchor is not None:
            rhs = rhs - spec.gradient_anchor
        return np.linalg.solve(M, rhs)

    def test_eig_path_matches_cholesky(self):
        """An identity quadratic without a gram basis goes through a dense
        eigh of A'A and matches the dense system's solution."""
        Q, q = 2.0 * np.eye(6), np.arange(6.0)
        A = np.vstack([np.eye(3), -np.eye(3)]).T.reshape(3, 6)
        b = np.array([0.5, -0.5, 1.0])
        inst = make_qp(Q, q, A, b)
        rng = np.random.default_rng(4)
        spec = _spec(inst.objective, gamma=0.5, beta=1.0, delta=2.0, c_k=4.0,
                     p_k=rng.normal(size=3), r_k=rng.normal(size=3),
                     xbar_k=rng.normal(size=6), m=3, n=6)
        cache = step_plan(inst, "implicit").cache
        assert cache.basis is not None and cache.mu == 2.0
        np.testing.assert_allclose(solve_linear_case(spec, inst, cache),
                                   self._dense_solve(spec, Q, q, A, b),
                                   rtol=0, atol=1e-10)

    def test_eig_path_explicit_case(self):
        """Explicit subproblems always take the eigen path (the quadratic
        part does not enter the system), whatever Q is."""
        inst = make_random_qp(n=8, m=3, seed=6)
        rng = np.random.default_rng(6)
        xbar = rng.normal(size=8)
        spec = _spec(gamma=0.3, beta=0.5, delta=1.0,
                     c_k=2.0, p_k=rng.normal(size=3),
                     r_k=rng.normal(size=3), xbar_k=xbar,
                     anchor=inst.objective.gradient(xbar), m=3, n=8)
        cache = step_plan(inst, "explicit").cache
        assert cache.basis is not None and cache.mu == 0.0
        np.testing.assert_allclose(
            solve_linear_case(spec, inst, cache),
            self._dense_solve(spec, None, None, inst.A, inst.b),
            rtol=0, atol=1e-10)

    def test_factored_basis_or_cholesky_fallback(self):
        """An instance's gram basis serves identity quadratics; any other
        Q is solved by Cholesky.  Both match the dense system's solution
        at a large dual coefficient."""
        ring = make_ring_logistic(p_agents=4, m_dim=5, rho_reg=0.5, seed=0)
        rng = np.random.default_rng(8)
        G = rng.normal(size=(20, 20))
        spec = _spec(gamma=0.5, beta=1.0, delta=2.0, c_k=40.0,
                     p_k=rng.normal(size=20), r_k=rng.normal(size=20),
                     xbar_k=rng.normal(size=20), m=20, n=20)
        for Q, factored in ((3.0 * np.eye(20), True),
                            (G @ G.T + np.eye(20), False)):
            q = rng.normal(size=20)
            inst = replace(make_qp(Q, q, ring.A, ring.b), gram=ring.gram)
            cache = step_plan(inst, "implicit").cache
            assert (cache.basis is ring.gram) == factored
            assert (cache.basis is None) == (not factored)
            x_dense = self._dense_solve(spec, Q, q, ring.A, ring.b)
            np.testing.assert_allclose(solve_linear_case(
                replace(spec, implicit=inst.objective), inst, cache),
                                       x_dense, rtol=0, atol=1e-10)

    def test_backend_chosen_from_instance(self):
        """gram for mu I with a gram basis (explicit included), a dense
        eigh for mu I without one, whatever the plan's gamma; for a
        general Q, a generalized eigenbasis when the plan is built for a
        fixed gamma and Cholesky (no basis) otherwise."""
        ring = make_ring_logistic(p_agents=4, m_dim=5, rho_reg=0.5, seed=0)
        rng = np.random.default_rng(9)
        G = rng.normal(size=(20, 20))
        q = rng.normal(size=20)
        Q = G @ G.T + np.eye(20)
        AtA = (ring.A.T @ ring.A).toarray()
        ident = make_qp(3.0 * np.eye(20), q, ring.A, ring.b)
        general = make_qp(Q, q, ring.A, ring.b)
        for gamma in (None, 0.5):
            for inst, case, backend in (
                    (replace(ident, gram=ring.gram), "implicit", "gram"),
                    (replace(general, gram=ring.gram), "explicit", "gram"),
                    (ring, "explicit", "gram"),
                    (ident, "implicit", "eigh"),
                    (general, "explicit", "eigh"),
                    (replace(general, gram=ring.gram), "implicit",
                     gamma and "generalized"),
                    (general, "implicit", gamma and "generalized")):
                cache = step_plan(inst, case, gamma=gamma).cache
                basis = cache.basis
                if backend is None:
                    assert basis is None and cache.gamma is None
                    continue
                assert cache.gamma == (0.5 if backend == "generalized"
                                       else None)
                if backend == "gram":
                    assert basis is ring.gram
                    continue
                V = basis.apply_V(np.eye(20))
                if backend == "eigh":
                    assert basis is not ring.gram
                    np.testing.assert_allclose(
                        V @ (basis.evals[:, None] * V.T), AtA,
                        rtol=0, atol=1e-12)
                else:
                    np.testing.assert_allclose(
                        V.T @ (Q + 2.0 * np.eye(20)) @ V, np.eye(20),
                        rtol=0, atol=1e-12)
                    np.testing.assert_allclose(
                        V.T @ AtA @ V, np.diag(basis.evals),
                        rtol=0, atol=1e-12)

    def test_nonquadratic_implicit_rejected(self):
        """The linear path refuses non-quadratic implicit parts."""
        inst = make_random_lp(d=10, n=6, seed=0)
        spec = _spec(inst.objective, n=6)
        with pytest.raises(ValueError, match="quadratic"):
            solve_linear_case(spec, inst)


class TestGeneralizedBasis:
    """A general Q at a fixed gamma: one generalized eigenbasis of
    ``(A'A, Q + I/gamma)`` per run in place of a Cholesky per solve."""

    GAMMA = 0.7

    @staticmethod
    def _instances():
        """The suite's QP testbed, and a copy whose A repeats two rows (a
        rank-deficient A'A with a larger null space)."""
        qp = make_random_qp(n=50, m=10, seed=0)
        Q, q = qp.objective.quadratic
        A = np.vstack([qp.A, qp.A[:2]])
        b = np.concatenate([qp.b, qp.b[:2]])
        return qp, make_qp(Q, q, A, b)

    def _spec(self, inst, coef, seed):
        rng = np.random.default_rng(seed)
        m = inst.n_constraints
        return _spec(inst.objective, gamma=self.GAMMA, beta=0.0, delta=coef,
                     c_k=1.0, p_k=rng.normal(size=m), r_k=rng.normal(size=m),
                     xbar_k=rng.normal(size=inst.dim), m=m, n=inst.dim)

    def test_matches_dense_solve(self):
        for inst in self._instances():
            cache = step_plan(inst, "implicit", gamma=self.GAMMA).cache
            assert cache.basis is not None and cache.B is not None
            Q, q = inst.objective.quadratic
            for seed, coef in enumerate((1.0, 1e2, 1e4)):
                spec = self._spec(inst, coef, seed)
                np.testing.assert_allclose(
                    solve_linear_case(spec, inst, cache),
                    TestSolveLinearCase._dense_solve(spec, Q, q, inst.A,
                                                     inst.b),
                    rtol=0, atol=1e-10)

    def test_residual_assertion_holds_at_large_coefficients(self):
        """solve_linear_case asserts its residual on every solve, so
        returning is the check."""
        for inst in self._instances():
            cache = step_plan(inst, "implicit", gamma=self.GAMMA).cache
            for seed, coef in enumerate((1e6, 1e8, 1e10)):
                x = solve_linear_case(self._spec(inst, coef, seed), inst,
                                      cache)
                assert np.all(np.isfinite(x))

    def test_other_gamma_refactors(self):
        """A basis serves its own gamma only; a solve at another gamma
        takes the Cholesky path and still matches the dense solve."""
        inst, _ = self._instances()
        cache = step_plan(inst, "implicit", gamma=self.GAMMA).cache
        Q, q = inst.objective.quadratic
        spec = replace(self._spec(inst, 1e2, 0), gamma=0.3)
        np.testing.assert_allclose(
            solve_linear_case(spec, inst, cache),
            TestSolveLinearCase._dense_solve(spec, Q, q, inst.A, inst.b),
            rtol=0, atol=1e-10)


class TestFactorizationsPerRun:
    """An unscaled implicit run on a general Q factors once; a scaled
    one, whose gamma changes every step, once per iteration."""

    @staticmethod
    def _counted_run(monkeypatch, schedule):
        counts = {"basis": 0, "spd_solve": 0}

        def spy(name, fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(subsolver, "generalized_eigenbasis",
                            spy("basis", subsolver.generalized_eigenbasis))
        monkeypatch.setattr(subsolver, "spd_solve",
                            spy("spd_solve", subsolver.spd_solve))
        inst = make_random_qp(n=50, m=10, seed=0)
        cfg = SolverConfig(schedule=schedule, case="implicit", max_iter=300)
        run(inst, cfg, np.zeros(50), np.zeros(10))
        return counts

    def test_fixed_gamma_builds_one_basis(self, monkeypatch):
        counts = self._counted_run(monkeypatch, chambolle_dossal(10.0))
        assert counts == {"basis": 1, "spd_solve": 0}

    def test_scaled_run_factors_every_step(self, monkeypatch):
        sched = replace(chambolle_dossal(10.0), xi=np.sqrt)
        counts = self._counted_run(monkeypatch, sched)
        assert counts == {"basis": 0, "spd_solve": 300}


class TestSolveSubproblem:
    """Failures of a subproblem solve name the outer iteration."""

    def test_singular_system_names_iteration(self):
        """A quadratic part that cancels the proximal term on null(A)
        (built without make_qp, which would reject it) makes the LU solve
        of a varying-gamma step singular; the error gains k and t_k."""
        inst = ProblemInstance(
            ObjectiveOracle(lambda x: 0.0, lambda x: np.zeros(2),
                            quadratic=(np.diag([0.0, -1.0]), np.zeros(2))),
            np.array([[1.0, 0.0]]), np.zeros(1), "singular")
        plan = step_plan(inst, "implicit")
        state = SimpleNamespace(k=7, t_curr=4.5, x_curr=np.zeros(2))
        with pytest.raises(np.linalg.LinAlgError, match=r"at k=7, t_k=4.5$"):
            solve_subproblem(_spec(inst.objective, gamma=1.0, n=2), inst,
                             plan, state)


class TestSpdSolve:
    """The numpy SPD solve agrees with scipy's Cholesky solve."""

    def test_agrees_with_scipy_cholesky(self):
        """Relative agreement to 1e-12 with cho_solve(cho_factor(M), r),
        and ``M`` is left unchanged."""
        rng = np.random.default_rng(3)
        for n in (1, 7, 50):
            G = rng.normal(size=(n, n))
            M = G @ G.T + 0.1 * np.eye(n)
            r = rng.normal(size=n)
            keep = M.copy()
            x = spd_solve(M, r)
            ref = cho_solve(cho_factor(M), r)
            assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
            np.testing.assert_array_equal(M, keep)


class TestInnerNewton:
    """Damped Newton with backtracking on non-quadratic subproblems."""

    def _logistic_spec(self, seed=0, gamma=1.0, c_k=2.0, coupling=True):
        inst = make_ring_logistic(p_agents=4, m_dim=5, rho_reg=0.5,
                                  seed=seed)
        rng = np.random.default_rng(seed)
        m = inst.n_constraints
        if coupling:
            spec = _spec(inst.objective, gamma=gamma, beta=0.5, delta=1.0,
                         c_k=c_k, p_k=0.1 * rng.normal(size=m),
                         r_k=0.1 * rng.normal(size=m),
                         xbar_k=rng.normal(size=inst.dim), m=m, n=inst.dim)
        else:
            spec = _spec(inst.objective, gamma=gamma, beta=0.0, delta=1.0,
                         c_k=0.0, p_k=np.zeros(m), r_k=np.zeros(m),
                         xbar_k=rng.normal(size=inst.dim), m=m, n=inst.dim)
        return inst, spec

    def test_meets_tight_tolerance(self, inner_solves):
        """From a warm start Newton takes at least one step and the
        returned subgradient norm is <= 1e-10."""
        inst, spec = self._logistic_spec()
        x, _, _, _ = subsolver.solve_inner_newton(spec, inst, spec.xbar_k,
                                                  1e-10)
        assert np.linalg.norm(subproblem_gradient(spec, inst, x)) <= 1e-10
        assert inner_solves[0].steps >= 1

    def test_budget_exhaustion_raises_with_final_norm(self, monkeypatch):
        """A one-iteration budget from a cold start cannot reach 1e-13
        (``INNER_MAX_STEPS`` is read at call time)."""
        inst, spec = self._logistic_spec()
        monkeypatch.setattr(subsolver, "INNER_MAX_STEPS", 1)
        with pytest.raises(MaxInnerIterations,
                           match="inner Newton: 1 iterations") as exc:
            solve_inner_newton(spec, inst,
                               spec.xbar_k + 50.0 * np.ones(inst.dim), 1e-13)
        assert exc.value.grad_norm > 1e-13

    def test_tiny_gamma_pins_to_prox_center(self):
        """gamma -> 0 with all coupling off leaves x within
        1e-6 (1 + ||grad f(xbar)||) of xbar: the proximal term dominates.
        (The tolerance stays modest: the (x - xbar)/gamma term amplifies
        rounding noise by 1/gamma, so 1e-10 is not evaluable here.)"""
        inst, spec = self._logistic_spec(gamma=1e-8, coupling=False)
        x, _, _, _ = solve_inner_newton(spec, inst, spec.xbar_k, 1e-6)
        gnorm = np.linalg.norm(inst.objective.gradient(spec.xbar_k))
        assert np.linalg.norm(x - spec.xbar_k) <= 1e-6 * (1.0 + gnorm)

    def test_indefinite_hessian_falls_back_to_steepest_descent(
            self, inner_solves):
        """A Hessian oracle that reports ``-3 I`` for ``f = ||x - a||^2/2``
        makes every Newton system ``-2.5 I + coef A'A`` indefinite (A has
        a null space), so Cholesky fails and each inner step is steepest
        descent.  The run still meets every inner tolerance and follows
        the run with the true Hessian.  (A is small and gamma = 2 so that
        the true subproblem Hessian stays below 2 and unit steps, which
        the line search takes once the decrease is below the value's
        resolution, still contract.)"""
        A = 0.02 * np.array([[1.0, 0.5, 0.0], [0.0, 1.0, -0.5]])
        b = np.array([0.02, -0.02])
        a = np.array([0.3, -0.2, 0.5])

        def instance(hessian):
            return ProblemInstance(ObjectiveOracle(
                lambda x: 0.5 * float((x - a) @ (x - a)),
                lambda x: x - a, hessian=hessian), A, b, "shifted-norm")

        cfg = SolverConfig(schedule=nesterov(), case="implicit", gamma=2.0,
                           max_iter=30)
        runs = {}
        for name, h in (("true", np.eye(3)), ("indefinite", -3.0 * np.eye(3))):
            state, trace = run(instance(lambda x, h=h: h.copy()), cfg,
                               np.zeros(3), np.zeros(2))
            assert len(inner_solves) == 30
            assert all(s.grad_norm <= s.tol for s in inner_solves)
            runs[name] = state, trace, max(s.steps for s in inner_solves)
            inner_solves.clear()
        (x_true, t_true, n_true) = runs["true"]
        (x_sd, t_sd, n_sd) = runs["indefinite"]
        assert n_true == 1 < n_sd
        np.testing.assert_allclose(x_sd.x_curr, x_true.x_curr, rtol=0,
                                   atol=1e-7)
        np.testing.assert_allclose([r.feas for r in t_sd],
                                   [r.feas for r in t_true], rtol=0,
                                   atol=1e-8)

    def test_missing_hessian_rejected(self):
        """Objectives without second-order access cannot use this path:
        their implicit plan has no solve backend."""
        inst = make_random_qp(n=4, m=2, seed=0)
        obj = inst.objective
        stripped = ProblemInstance(
            ObjectiveOracle(obj.value, obj.gradient), inst.A, inst.b,
            "no-hessian")
        with pytest.raises(ValueError, match="hessian"):
            step_plan(stripped, "implicit")


class TestMultiplierUpdate:
    """lambda_bar + delta (c A x - r) from the formed product A x."""

    def test_scalar_continuation(self):
        """Continuing the scalar example: 0 + 1*(2*0.2 - 0) = 0.4."""
        lam = multiplier_update(np.zeros(1), 1.0, 2.0,
                                np.array([[1.0]]) @ np.array([0.2]),
                                np.zeros(1))
        np.testing.assert_allclose(lam, [0.4], rtol=1e-15)

    def test_matches_formula_exactly(self):
        """The vector form is literally the written formula."""
        rng = np.random.default_rng(12)
        A = rng.normal(size=(4, 7))
        lam_bar = rng.normal(size=4)
        x = rng.normal(size=7)
        r = rng.normal(size=4)
        out = multiplier_update(lam_bar, 0.7, 1.3, A @ x, r)
        np.testing.assert_allclose(out, lam_bar + 0.7 * (1.3 * (A @ x) - r),
                                   rtol=0, atol=0)
