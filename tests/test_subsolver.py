"""Tests for the primal subproblem solvers and the dual update.

The direct linear path is pinned against scalar closed forms and against
the inner Newton path; the Newton path is exercised on the logistic
objective where no closed form exists.  Gradient/value consistency of the
assembled subproblem is audited by finite differences.
"""

from dataclasses import replace

import numpy as np
import pytest

from aalm import (
    InnerSolverPolicy,
    MaxInnerIterations,
    SubproblemSpec,
    make_qp,
    make_random_lp,
    make_random_qp,
    make_ring_logistic,
    multiplier_update,
    solve_inner_newton,
    solve_linear_case,
)
from aalm.subsolver import (
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
        x_newton = solve_inner_newton(spec, inst,
                                      InnerSolverPolicy(tol_grad=1e-12),
                                      np.zeros(8))
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
        eigh for mu I without one, Cholesky (no basis) for a general Q."""
        ring = make_ring_logistic(p_agents=4, m_dim=5, rho_reg=0.5, seed=0)
        rng = np.random.default_rng(9)
        G = rng.normal(size=(20, 20))
        q = rng.normal(size=20)
        ident = make_qp(3.0 * np.eye(20), q, ring.A, ring.b)
        general = make_qp(G @ G.T + np.eye(20), q, ring.A, ring.b)
        for inst, case, backend in (
                (replace(ident, gram=ring.gram), "implicit", "gram"),
                (replace(general, gram=ring.gram), "explicit", "gram"),
                (ring, "explicit", "gram"),
                (ident, "implicit", "eigh"),
                (general, "explicit", "eigh"),
                (replace(general, gram=ring.gram), "implicit", None),
                (general, "implicit", None)):
            basis = step_plan(inst, case).cache.basis
            if backend == "gram":
                assert basis is ring.gram
            elif backend == "eigh":
                assert basis is not None and basis is not ring.gram
                Vt = basis.apply_Vt(np.eye(20))
                np.testing.assert_allclose(
                    basis.apply_V(basis.evals[:, None] * Vt),
                    (ring.A.T @ ring.A).toarray(), rtol=0, atol=1e-12)
            else:
                assert basis is None

    def test_nonquadratic_implicit_rejected(self):
        """The linear path refuses non-quadratic implicit parts."""
        inst = make_random_lp(d=10, n=6, seed=0)
        spec = _spec(inst.objective, n=6)
        with pytest.raises(ValueError, match="quadratic"):
            solve_linear_case(spec, inst)


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

    def test_meets_tight_tolerance(self):
        """From a warm start the returned subgradient norm is <= 1e-10."""
        inst, spec = self._logistic_spec()
        x = solve_inner_newton(spec, inst, InnerSolverPolicy(tol_grad=1e-10),
                               spec.xbar_k)
        assert np.linalg.norm(subproblem_gradient(spec, inst, x)) <= 1e-10

    def test_report_filled(self):
        inst, spec = self._logistic_spec()
        report = {}
        solve_inner_newton(spec, inst, InnerSolverPolicy(tol_grad=1e-10),
                           spec.xbar_k, report=report)
        assert report["iterations"] >= 1
        assert report["grad_norm"] <= 1e-10

    def test_budget_exhaustion_raises_with_final_norm(self):
        """A one-iteration budget from a cold start cannot reach 1e-13."""
        inst, spec = self._logistic_spec()
        policy = InnerSolverPolicy(tol_grad=1e-13, max_inner=1)
        with pytest.raises(MaxInnerIterations) as exc:
            solve_inner_newton(spec, inst, policy,
                               spec.xbar_k + 50.0 * np.ones(inst.dim))
        assert exc.value.grad_norm > 1e-13

    def test_tiny_gamma_pins_to_prox_center(self):
        """gamma -> 0 with all coupling off leaves x within
        1e-6 (1 + ||grad f(xbar)||) of xbar: the proximal term dominates.
        (The tolerance stays modest: the (x - xbar)/gamma term amplifies
        rounding noise by 1/gamma, so 1e-10 is not evaluable here.)"""
        inst, spec = self._logistic_spec(gamma=1e-8, coupling=False)
        x = solve_inner_newton(spec, inst, InnerSolverPolicy(tol_grad=1e-6),
                               spec.xbar_k)
        gnorm = np.linalg.norm(inst.objective.gradient(spec.xbar_k))
        assert np.linalg.norm(x - spec.xbar_k) <= 1e-6 * (1.0 + gnorm)

    def test_missing_hessian_rejected(self):
        """Objectives without second-order access cannot use this path:
        their implicit plan has no solve backend."""
        inst = make_random_qp(n=4, m=2, seed=0)
        obj = inst.objective
        from aalm import ObjectiveOracle, ProblemInstance
        stripped = ProblemInstance(
            ObjectiveOracle(obj.value, obj.gradient), inst.A, inst.b,
            "no-hessian")
        with pytest.raises(ValueError, match="hessian"):
            step_plan(stripped, "implicit")


class TestMultiplierUpdate:
    """lambda_bar + delta (c A x - r): one matvec and one axpy."""

    def test_scalar_continuation(self):
        """Continuing the scalar example: 0 + 1*(2*0.2 - 0) = 0.4."""
        lam = multiplier_update(np.zeros(1), 1.0, 2.0, np.array([[1.0]]),
                                np.array([0.2]), np.zeros(1))
        np.testing.assert_allclose(lam, [0.4], rtol=1e-15)

    def test_matches_formula_exactly(self):
        """The vector form is literally the written formula."""
        rng = np.random.default_rng(12)
        A = rng.normal(size=(4, 7))
        lam_bar = rng.normal(size=4)
        x = rng.normal(size=7)
        r = rng.normal(size=4)
        out = multiplier_update(lam_bar, 0.7, 1.3, A, x, r)
        np.testing.assert_allclose(out, lam_bar + 0.7 * (1.3 * (A @ x) - r),
                                   rtol=0, atol=0)
