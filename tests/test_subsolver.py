"""Tests for the primal subproblem solvers and the dual update.

The direct linear path is pinned against scalar closed forms and against
the inner Newton path; the Newton path is exercised on the logistic
objective where no closed form exists.  Each solver takes the run's one
system, made here by ``step_plan``.  The subproblem objective the inner
Newton evaluates is pinned bitwise to the literal formulas ``F_ref`` and
``grad_F_ref`` (``conftest.py``), which are audited against each other by
finite differences.
"""

import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
from aalm.diagnostics import energy
from aalm.oracle import kkt_refine
from aalm.problems import KronIdentity, dense
from aalm.solver import initial_state, resolve_config, step
from aalm.subsolver import LinearCache, solve_subproblem, spd_solve, step_plan
from conftest import F_ref, grad_F_ref


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


def _system(inst, case="implicit"):
    """The system a run of ``case`` on ``inst`` solves with."""
    return step_plan(inst, case).system


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


def _system_instances():
    """The system table's instances: the suite's QP testbed, lp seed 0
    (30 terms over 20 unknowns, no gram), the 10x20 ring (10 terms over
    200 unknowns, with its gram) and the same ring without its gram."""
    ring = make_ring_logistic(10, 20)
    return {"qp": make_random_qp(n=50, m=10, seed=0),
            "lp": make_random_lp(seed=0), "ring": ring,
            "ring-no-gram": replace(ring, gram=None)}


class TestSystem:
    """The run's one system ``M = H + coef A'A + I/gamma`` for every
    instance and case: the backend it picks, and ``solve``, ``apply`` and
    ``scale`` against the dense ``M``."""

    # (instance, case) -> backend: the eigenbasis of A'A (the instance's
    # gram, or its SVD basis), with a Woodbury form or not; or dense LU.
    BACKENDS = {("qp", "explicit"): "svd", ("qp", "implicit"): "dense",
                ("lp", "explicit"): "svd", ("lp", "implicit"): "dense",
                ("ring", "explicit"): "gram",
                ("ring", "implicit"): "gram+woodbury",
                ("ring-no-gram", "explicit"): "svd",
                ("ring-no-gram", "implicit"): "dense"}

    @staticmethod
    def _dense_M(inst, part, spec, x):
        A = dense(inst.A)
        M = ((spec.beta + spec.delta * spec.c_k ** 2) * (A.T @ A)
             + np.eye(inst.dim) / spec.gamma)
        if part is None:
            return M
        H = (part.quadratic[0] if part.quadratic is not None
             else part.hessian(x))
        return M + H

    @pytest.mark.parametrize("case", ["explicit", "implicit"])
    @pytest.mark.parametrize("name", ["qp", "lp", "ring", "ring-no-gram"])
    def test_backend_solve_and_apply(self, name, case):
        """Each cell picks its backend; ``solve`` agrees with
        ``np.linalg.solve`` of the dense ``M`` to 1e-10 relative, ``apply``
        with ``M @ v`` to 1e-12 relative, and ``scale`` bounds ``||M||_2``,
        at small and large coupling and stepsize and at points of several
        sizes.  A dense system holds a dense ``A'A`` equal to ``A'A``;
        a basis system keeps the storage of ``A`` (the ring's Kronecker
        operator), and its Woodbury form holds ``B = V'U`` to 1e-15."""
        inst = _system_instances()[name]
        part = inst.objective if case == "implicit" else None
        system = LinearCache(inst, part)
        backend = self.BACKENDS[name, case]
        if backend == "dense":
            assert system.basis is None
            np.testing.assert_array_equal(system.AtA,
                                          dense(inst.A.T @ inst.A))
        else:
            assert (system.basis is inst.gram) == backend.startswith("gram")
            assert (system.form is not None) == backend.endswith("woodbury")
            assert (isinstance(system.AtA, KronIdentity)
                    == isinstance(inst.A, KronIdentity))
        if system.form is not None:
            V = np.column_stack([inst.gram.apply_V(e)
                                 for e in np.eye(inst.dim)])
            np.testing.assert_allclose(system.B,
                                       V.T @ inst.objective.separable.U,
                                       rtol=0, atol=1e-15)
        rng = np.random.default_rng(5)
        n, m = inst.dim, inst.n_constraints
        for gamma, c_k in ((1.0, 1.0), (1e-3, 1.0), (1e-3, 10.0)):
            spec = _spec(part, gamma=gamma, beta=1.0, delta=10.0, c_k=c_k,
                         m=m, n=n)
            at = system.at(spec)
            for size in (0.1, 3.0):
                x, v = size * rng.normal(size=n), rng.normal(size=n)
                M = self._dense_M(inst, part, spec, x)
                solve, apply, scale = at(x)
                ref = np.linalg.solve(M, v)
                assert (np.linalg.norm(solve(v) - ref)
                        <= 1e-10 * np.linalg.norm(ref))
                assert (np.linalg.norm(apply(v) - M @ v)
                        <= 1e-12 * np.linalg.norm(M @ v))
                assert scale() >= (1.0 - 1e-12) * np.linalg.norm(M, 2)

    @pytest.mark.parametrize("case", ["explicit", "implicit"])
    @pytest.mark.parametrize("name", ["qp", "lp", "ring", "ring-no-gram"])
    def test_one_system_per_run(self, monkeypatch, name, case):
        """A run builds its system once, in its plan, whatever the case
        and backend (lp has no explicit plan: no Lipschitz constant); a
        plan without a backend holds none."""
        inst = _system_instances()[name]
        if name == "lp" and case == "explicit":
            with pytest.raises(ValueError, match="Lipschitz"):
                step_plan(inst, case)
            return
        assert step_plan(inst, case, backend=False).system is None
        built = []
        init = LinearCache.__init__

        def counted(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(LinearCache, "__init__", counted)
        run(inst, SolverConfig(schedule=nesterov(), case=case, max_iter=3),
            np.zeros(inst.dim), np.zeros(inst.n_constraints))
        assert len(built) == 1

    def test_woodbury_backward_error(self):
        """On the 10x20 ring the Woodbury solve of ``M d = g`` has a
        backward error ``||M d - g|| / (||M|| ||d||)`` below 4e-16 at a
        few points, from small to large coupling and stepsize (without
        its refinement pass it reaches 8e-16 at ``gamma = 1e-3``,
        ``c = 1``), and agrees with the dense LU system of the ring
        without its gram to 1e-12 relative where ``M`` is well
        conditioned (at ``cond(M) ~ 2e6`` both are backward stable and
        differ by about ``cond(M) eps``)."""
        instances = _system_instances()
        ring, plain = instances["ring"], instances["ring-no-gram"]
        gram = LinearCache(ring, ring.objective)
        lu = LinearCache(plain, plain.objective)
        assert gram.form is not None and lu.basis is None
        n, m = ring.dim, ring.n_constraints
        rng = np.random.default_rng(5)
        for gamma, c_k, conditioned in ((1.0, 1.0, True),
                                        (1e-3, 1.0, True),
                                        (1e-3, 10.0, True),
                                        (50.0, 300.0, False)):
            spec = _spec(ring.objective, gamma=gamma, beta=1.0, delta=10.0,
                         c_k=c_k, m=m, n=n)
            for scale in (0.1, 3.0, 30.0):
                x, g = scale * rng.normal(size=n), rng.normal(size=n)
                M = self._dense_M(ring, ring.objective, spec, x)
                d = gram.at(spec)(x)[0](g)
                assert (np.linalg.norm(M @ d - g) <= 4e-16
                        * np.linalg.norm(M, 2) * np.linalg.norm(d))
                d_ref = lu.at(spec)(x)[0](g)
                assert (np.linalg.cond(M) < 1e3) == conditioned
                if conditioned:
                    assert (np.linalg.norm(d - d_ref)
                            <= 1e-12 * np.linalg.norm(d_ref))


class TestValueGradientConsistency:
    """grad_F_ref is the derivative of F_ref, and the inner Newton's F and
    grad F are those formulas."""

    def test_finite_differences(self):
        inst = make_random_qp(n=6, m=2, seed=8)
        rng = np.random.default_rng(8)
        spec = _spec(inst.objective, gamma=0.7, beta=0.3, delta=1.2, c_k=1.5,
                     p_k=rng.normal(size=2), r_k=rng.normal(size=2),
                     xbar_k=rng.normal(size=6), m=2, n=6)
        x = rng.normal(size=6)
        g = grad_F_ref(spec, inst, x)
        h = 1e-6
        for i in range(6):
            e = np.zeros(6)
            e[i] = h
            fd = (F_ref(spec, inst, x + e)
                  - F_ref(spec, inst, x - e)) / (2.0 * h)
            np.testing.assert_allclose(fd, g[i], rtol=0, atol=1e-6)

    def test_solution_is_stationary(self):
        """The direct solve returns a point with vanishing subgradient."""
        inst = make_random_qp(n=6, m=2, seed=8)
        rng = np.random.default_rng(9)
        spec = _spec(inst.objective, gamma=0.7, beta=0.3, delta=1.2, c_k=1.5,
                     p_k=rng.normal(size=2), r_k=rng.normal(size=2),
                     xbar_k=rng.normal(size=6), m=2, n=6)
        x = solve_linear_case(spec, inst, _system(inst))
        assert np.linalg.norm(grad_F_ref(spec, inst, x)) <= 1e-10

    def test_shared_terms_bitwise(self):
        """F and grad F built from the terms the inner Newton shares per
        point equal the literal formulas bitwise, at random points of lp
        seed 0."""
        inst = make_random_lp(seed=0)
        m, n = inst.A.shape
        rng = np.random.default_rng(11)
        spec = _spec(inst.objective, gamma=0.7, beta=0.3, delta=1.2, c_k=1.5,
                     p_k=rng.normal(size=m), r_k=rng.normal(size=m),
                     xbar_k=rng.normal(size=n), m=m, n=n)
        obj = inst.objective
        for _ in range(5):
            x = rng.normal(size=n)
            terms = subsolver._constraint_terms(spec, inst, x, inst.A @ x)
            assert (subsolver._value_from_terms(spec, terms, obj.value(x))
                    == F_ref(spec, inst, x))
            np.testing.assert_array_equal(
                subsolver._gradient_from_terms(spec, inst, terms,
                                               obj.gradient(x)),
                grad_F_ref(spec, inst, x))


class TestSolveLinearCase:
    """The closed-form path for quadratic/explicit subproblems."""

    def test_scalar_zero_objective(self):
        """f = 0, a = 1, gamma = delta = 1, c = 2, xbar = 1: 5x = 1."""
        inst = _scalar_instance()
        x = solve_linear_case(_spec(inst.objective), inst, _system(inst))
        np.testing.assert_allclose(x, [0.2], rtol=1e-15)

    def test_scalar_quadratic(self):
        """Adding f = x^2/2 makes the system (1 + 1 + 4) x = 1: x = 1/6."""
        inst = _scalar_instance(quad=1.0)
        x = solve_linear_case(_spec(inst.objective), inst, _system(inst))
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
        x = solve_linear_case(spec, inst, _system(inst, "explicit"))
        np.testing.assert_allclose(x, xbar - gamma * g, rtol=0, atol=1e-12)

    def test_newton_agrees_on_quadratics(self):
        """One (damped) Newton pass reproduces the direct solution."""
        inst = make_random_qp(n=8, m=3, seed=2)
        rng = np.random.default_rng(2)
        spec = _spec(inst.objective, gamma=0.5, beta=1.0, delta=2.0, c_k=3.0,
                     p_k=rng.normal(size=3), r_k=rng.normal(size=3),
                     xbar_k=rng.normal(size=8), m=3, n=8)
        system = _system(inst)
        x_lin = solve_linear_case(spec, inst, system)
        x_newton, _, _, _ = solve_inner_newton(spec, inst, np.zeros(8), 1e-12,
                                               system)
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

    def test_eig_path_matches_dense_solve(self):
        """Without a gram basis the explicit case goes through the SVD
        eigenbasis of A'A and an identity quadratic through LU; both
        match the dense system's solution."""
        Q, q = 2.0 * np.eye(6), np.arange(6.0)
        A = np.vstack([np.eye(3), -np.eye(3)]).T.reshape(3, 6)
        b = np.array([0.5, -0.5, 1.0])
        inst = make_qp(Q, q, A, b)
        rng = np.random.default_rng(4)
        xbar = rng.normal(size=6)
        spec = _spec(inst.objective, gamma=0.5, beta=1.0, delta=2.0, c_k=4.0,
                     p_k=rng.normal(size=3), r_k=rng.normal(size=3),
                     xbar_k=xbar, m=3, n=6)
        cache = step_plan(inst, "implicit").system
        assert cache.basis is None
        np.testing.assert_allclose(solve_linear_case(spec, inst, cache),
                                   self._dense_solve(spec, Q, q, A, b),
                                   rtol=0, atol=1e-10)
        spec = replace(spec, implicit=None,
                       gradient_anchor=inst.objective.gradient(xbar))
        cache = step_plan(inst, "explicit").system
        assert cache.basis is not None
        np.testing.assert_allclose(solve_linear_case(spec, inst, cache),
                                   self._dense_solve(spec, None, None, A, b),
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
        cache = step_plan(inst, "explicit").system
        assert cache.basis is not None
        np.testing.assert_allclose(
            solve_linear_case(spec, inst, cache),
            self._dense_solve(spec, None, None, inst.A, inst.b),
            rtol=0, atol=1e-10)

    def test_factored_basis_or_lu_fallback(self):
        """An instance's gram basis serves the explicit case; every
        quadratic implicit part, the identity included, is solved by LU.
        All match the dense system's solution at a large dual
        coefficient."""
        ring = make_ring_logistic(p_agents=4, m_dim=5, rho_reg=0.5, seed=0)
        rng = np.random.default_rng(8)
        G = rng.normal(size=(20, 20))
        spec = _spec(gamma=0.5, beta=1.0, delta=2.0, c_k=40.0,
                     p_k=rng.normal(size=20), r_k=rng.normal(size=20),
                     xbar_k=rng.normal(size=20), m=20, n=20)
        for Q in (3.0 * np.eye(20), G @ G.T + np.eye(20)):
            q = rng.normal(size=20)
            inst = replace(make_qp(Q, q, ring.A, ring.b), gram=ring.gram)
            cache = step_plan(inst, "implicit").system
            assert cache.basis is None
            x_dense = self._dense_solve(spec, Q, q, ring.A, ring.b)
            np.testing.assert_allclose(solve_linear_case(
                replace(spec, implicit=inst.objective), inst, cache),
                                       x_dense, rtol=0, atol=1e-10)
            explicit = replace(spec, gradient_anchor=q)
            cache = step_plan(inst, "explicit").system
            assert cache.basis is ring.gram
            x_dense = self._dense_solve(explicit, None, None, ring.A, ring.b)
            np.testing.assert_allclose(
                solve_linear_case(explicit, inst, cache), x_dense,
                rtol=0, atol=1e-10)

    def test_backend_chosen_from_instance(self):
        """The explicit case takes the instance's gram when it has one and
        its dense SVD eigenbasis otherwise; every quadratic implicit part,
        mu I included, takes LU (no basis)."""
        ring = make_ring_logistic(p_agents=4, m_dim=5, rho_reg=0.5, seed=0)
        rng = np.random.default_rng(9)
        G = rng.normal(size=(20, 20))
        q = rng.normal(size=20)
        Q = G @ G.T + np.eye(20)
        AtA = (ring.A.T @ ring.A).toarray()
        ident = make_qp(3.0 * np.eye(20), q, ring.A, ring.b)
        general = make_qp(Q, q, ring.A, ring.b)
        for inst, case, backend in (
                (replace(ident, gram=ring.gram), "implicit", None),
                (replace(general, gram=ring.gram), "explicit", "gram"),
                (ring, "explicit", "gram"),
                (ident, "implicit", None),
                (ident, "explicit", "svd"),
                (general, "explicit", "svd"),
                (replace(general, gram=ring.gram), "implicit", None),
                (general, "implicit", None)):
            basis = step_plan(inst, case).system.basis
            if backend is None:
                assert basis is None
            elif backend == "gram":
                assert basis is ring.gram
            else:
                assert basis is not ring.gram
                V = basis.apply_V(np.eye(20))
                np.testing.assert_allclose(
                    V @ (basis.evals[:, None] * V.T), AtA,
                    rtol=0, atol=1e-12)

    def test_nonquadratic_implicit_rejected(self):
        """The linear path refuses non-quadratic implicit parts."""
        inst = make_random_lp(d=10, n=6, seed=0)
        spec = _spec(inst.objective, n=6)
        with pytest.raises(ValueError, match="quadratic"):
            solve_linear_case(spec, inst, _system(inst))


_coefficients = st.floats(0.0, 1e12, allow_subnormal=False)
_eigenvalues = st.lists(
    st.one_of(st.floats(-1e-15, 0.0), st.floats(0.0, 1e8)),
    min_size=1, max_size=30)


@settings(derandomize=True, database=None)
@given(h=st.floats(1e-12, 1e12), coef=_coefficients, e=_eigenvalues)
def test_largest_diagonal_from_largest_eigenvalue(h, coef, e):
    """The basis system bounds ``||M||`` by its largest diagonal entry
    ``max(h + coef e)``, formed only when a residual needs it: bitwise
    ``h + coef max(e)``, the 2-norm its largest eigenvalue gives, for
    ``coef >= 0``, because rounding is monotone, including for
    eigenvalues below zero at rounding level, which a user-supplied
    ``gram`` may carry (the SVD basis's ``s^2`` never is negative)."""
    e = np.array(e)
    assert float((h + coef * e).max()) == h + coef * float(e.max())


class TestGeneralQuadraticLU:
    """A general Q: an LU solve of the whole system at every solve, at
    any gamma."""

    @staticmethod
    def _instances():
        """The suite's QP testbed, and a copy whose A repeats two rows (a
        rank-deficient A'A with a larger null space)."""
        qp = make_random_qp(n=50, m=10, seed=0)
        Q, q = qp.objective.quadratic
        A = np.vstack([qp.A, qp.A[:2]])
        b = np.concatenate([qp.b, qp.b[:2]])
        return qp, make_qp(Q, q, A, b)

    @staticmethod
    def _spec(inst, coef, seed, gamma=0.7):
        rng = np.random.default_rng(seed)
        m = inst.n_constraints
        return _spec(inst.objective, gamma=gamma, beta=0.0, delta=coef,
                     c_k=1.0, p_k=rng.normal(size=m), r_k=rng.normal(size=m),
                     xbar_k=rng.normal(size=inst.dim), m=m, n=inst.dim)

    @pytest.mark.parametrize("gamma", [0.7, 0.3])
    def test_matches_dense_solve(self, gamma):
        for inst in self._instances():
            cache = step_plan(inst, "implicit").system
            assert cache.basis is None
            Q, q = inst.objective.quadratic
            for seed, coef in enumerate((1.0, 1e2, 1e4)):
                spec = self._spec(inst, coef, seed, gamma)
                np.testing.assert_allclose(
                    solve_linear_case(spec, inst, cache),
                    TestSolveLinearCase._dense_solve(spec, Q, q, inst.A,
                                                     inst.b),
                    rtol=0, atol=1e-10)

    def test_residual_assertion_holds_at_large_coefficients(self):
        """solve_linear_case asserts its residual on every solve, so
        returning is the check."""
        for inst in self._instances():
            cache = step_plan(inst, "implicit").system
            for seed, coef in enumerate((1e6, 1e8, 1e10)):
                x = solve_linear_case(self._spec(inst, coef, seed), inst,
                                      cache)
                assert np.all(np.isfinite(x))

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_residual_bound_is_backward_error_scale(self, monkeypatch,
                                                    factor):
        """A solve whose residual is ``factor`` times the part
        ``||M||_inf ||x||`` of the bound, on top of the ``1 + ||rhs||``
        part, passes at 0.5 and fails at 2.0: the norm of ``M`` enters
        the bound, though it is formed only for a residual past
        ``1e-10 (1 + ||rhs||)``."""
        inst = self._instances()[0]
        cache = step_plan(inst, "implicit").system
        solve = subsolver.spd_solve

        def off_by(M, rhs):
            x = solve(M, rhs)
            m_part = np.abs(M).sum(axis=1).max() * np.linalg.norm(x)
            target = subsolver.LINEAR_RESIDUAL_TOL * (
                1.0 + np.linalg.norm(rhs) + factor * m_part)
            u = np.zeros_like(rhs)
            u[0] = target
            return x + solve(M, u)

        monkeypatch.setattr(subsolver, "spd_solve", off_by)
        spec = self._spec(inst, 1e4, 0)
        if factor < 1.0:
            solve_linear_case(spec, inst, cache)
        else:
            with pytest.raises(subsolver.SubsolverError, match="exceeds"):
                solve_linear_case(spec, inst, cache)


@pytest.mark.parametrize("xi", [None, np.sqrt], ids=["unscaled", "scaled"])
def test_general_q_run_solves_by_lu_every_step(monkeypatch, xi):
    """An implicit run on a general Q makes one LU solve per iteration,
    whether its gamma is fixed or changes every step (``xi_k = t_k^0.5``)."""
    calls = []

    def counted(M, rhs):
        calls.append(1)
        return spd_solve(M, rhs)

    monkeypatch.setattr(subsolver, "spd_solve", counted)
    inst = make_random_qp(n=50, m=10, seed=0)
    cfg = SolverConfig(schedule=replace(chambolle_dossal(10.0), xi=xi),
                       case="implicit", max_iter=300)
    run(inst, cfg, np.zeros(50), np.zeros(10))
    assert len(calls) == 300


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
                                                  1e-10, _system(inst))
        assert np.linalg.norm(grad_F_ref(spec, inst, x)) <= 1e-10
        assert inner_solves[0].steps >= 1

    def test_budget_exhaustion_raises_with_final_norm(self, monkeypatch):
        """A one-iteration budget from a cold start cannot reach 1e-13
        (``INNER_MAX_STEPS`` is read at call time)."""
        inst, spec = self._logistic_spec()
        monkeypatch.setattr(subsolver, "INNER_MAX_STEPS", 1)
        with pytest.raises(MaxInnerIterations,
                           match="inner Newton: 1 iterations") as exc:
            solve_inner_newton(spec, inst,
                               spec.xbar_k + 50.0 * np.ones(inst.dim), 1e-13,
                               _system(inst))
        assert exc.value.grad_norm > 1e-13

    def test_tiny_gamma_pins_to_prox_center(self):
        """gamma -> 0 with all coupling off leaves x within
        1e-6 (1 + ||grad f(xbar)||) of xbar: the proximal term dominates.
        (The tolerance stays modest: the (x - xbar)/gamma term amplifies
        rounding noise by 1/gamma, so 1e-10 is not evaluable here.)"""
        inst, spec = self._logistic_spec(gamma=1e-8, coupling=False)
        x, _, _, _ = solve_inner_newton(spec, inst, spec.xbar_k, 1e-6,
                                        _system(inst))
        gnorm = np.linalg.norm(inst.objective.gradient(spec.xbar_k))
        assert np.linalg.norm(x - spec.xbar_k) <= 1e-6 * (1.0 + gnorm)

    def test_indefinite_hessian_falls_back_to_steepest_descent(
            self, inner_solves):
        """A Hessian oracle that reports ``-3 I`` for ``f = ||x - a||^2/2``
        makes every Newton system ``-2.5 I + coef A'A`` negative definite
        (``-2.5 I`` on the null space of A, and ``coef A'A`` stays small).
        The LU solve of that nonsingular system succeeds, but it returns
        an ascent direction, which the descent test rejects, so each inner
        step is steepest descent.  The run still meets every inner tolerance and follows
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

    def test_nan_gradient_never_converged(self):
        """A NaN gradient norm does not meet the tolerance: when the
        objective's gradient turns NaN on its 20th call, the run fails in
        that inner solve, naming the iteration, instead of carrying the
        NaN gradient on and returning every later start unchanged.  It
        fails at once, with no further gradient call, rather than after
        spending the step budget on NaN data."""
        inst = make_random_lp(seed=0)
        obj = inst.objective
        calls = []

        def gradient(x):
            calls.append(None)
            g = obj.gradient(x)
            return np.full_like(g, np.nan) if len(calls) == 20 else g

        planted = replace(inst, objective=replace(obj, gradient=gradient))
        with pytest.raises(MaxInnerIterations,
                           match=r"gradient norm nan > tol .* at k=3, t_k="):
            run(planted, SolverConfig(schedule=nesterov(), case="implicit",
                                      max_iter=40),
                np.zeros(inst.dim), np.zeros(inst.n_constraints))
        assert len(calls) == 20

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

    def test_anchored_spec_rejected(self):
        """A spec with a gradient anchor (a linearized step) is refused,
        as the linear path refuses a non-quadratic part."""
        inst, spec = self._logistic_spec()
        spec = replace(spec, gradient_anchor=np.ones(inst.dim))
        with pytest.raises(ValueError, match="anchor"):
            solve_inner_newton(spec, inst, spec.xbar_k, 1e-6, _system(inst))


class TestGramNewton:
    """Inner Newton on the ring by Woodbury through its gram basis,
    against the dense LU system of the ring without it."""

    @staticmethod
    def _cd_run(instance, iters, kkt=None):
        cfg = SolverConfig(schedule=chambolle_dossal(10.0, eta="noncritical"),
                           case="implicit", delta=10.0, max_iter=iters)
        return run(instance, resolve_config(instance, cfg),
                   np.zeros(instance.dim), np.zeros(instance.n_constraints),
                   kkt=kkt)

    def test_ring_trace_matches_dense_newton(self):
        """300 implicit CD(10) noncritical iterations (``delta = 10``) on
        the 10x20 ring: every trace column agrees with the dense-Newton
        run (the same instance without its gram basis) within 1e-10 of
        the column's largest value."""
        ring = make_ring_logistic(10, 20)
        kkt = kkt_refine(ring)
        _, fast = self._cd_run(ring, 300, kkt)
        _, slow = self._cd_run(replace(ring, gram=None), 300, kkt)
        F, S = np.array(fast), np.array(slow)
        scale = np.abs(S).max(axis=0)
        assert np.all(np.abs(F - S) <= 1e-10 * scale)

    def test_ring_step_allocates_no_square_array(self):
        """Planning and taking one implicit step on the 10x200 ring
        (n = 2000) peaks under 2 MB of allocations: no n x n array (32 MB)
        and no dense ``A'A``.  Its ``hessian`` is never called."""
        ring = make_ring_logistic()

        def hessian(x):
            raise AssertionError("the ring's Newton step formed H")

        ring = replace(ring, objective=replace(ring.objective,
                                               hessian=hessian))
        cfg = resolve_config(ring, SolverConfig(
            schedule=chambolle_dossal(10.0, eta="noncritical"),
            case="implicit", delta=10.0, max_iter=5))
        state = initial_state(ring, cfg, np.ones(ring.dim),
                              np.zeros(ring.n_constraints))
        tracemalloc.start()
        try:
            state = step(state, cfg, ring, step_plan(ring, cfg.case))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert state.k == 2 and state.grad_curr is not None
        assert peak < 2e6, peak

    def test_full_ring_run_keeps_energy_monotone(self):
        """3000 implicit CD(10) noncritical iterations on the 10x200 ring
        complete, and the energy rises by at most c2's cap,
        ``1e-10 max(1, E_1)``."""
        ring = make_ring_logistic()
        kkt = kkt_refine(ring)
        cfg = resolve_config(ring, SolverConfig(
            schedule=chambolle_dossal(10.0, eta="noncritical"),
            case="implicit", delta=10.0, max_iter=3000))
        _, trace = self._cd_run(ring, 3000, kkt)
        x0, lam0 = np.zeros(ring.dim), np.zeros(ring.n_constraints)
        e1 = energy(ring, kkt, cfg.gamma, cfg.delta, cfg.schedule.eta,
                    cfg.beta, 1.0, x0, x0, lam0, lam0)
        energies = np.array([e1] + [r.energy_E for r in trace])
        assert len(trace) == 3000
        assert np.diff(energies).max() <= 1e-10 * max(1.0, e1)


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
