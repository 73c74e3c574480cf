"""Tests for the reference oracles and the KKT sidecar.

kkt_solve_qp is pinned on hand-solved saddle systems (including a
rank-deficient dual and an infeasible system); kkt_refine is asserted on
its own certificate for the non-quadratic families; the scalar brute
oracle's closed forms are frozen here before they pin the solver.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from aalm import (
    brute_step_oracle,
    kkt_refine,
    kkt_solve_qp,
    make_lp_regression,
    make_random_lp,
    make_ring_logistic,
)
from aalm import oracle as oracle_module
from aalm.oracle import (
    InfeasibleConstraints,
    ReferenceNotConverged,
    _min_norm_solve as min_norm_solve,
    load_kkt,
    save_kkt,
)
from aalm.problems import KKTPoint, ObjectiveOracle, ProblemInstance


class TestKktSolveQp:
    """Direct saddle-system solves with frozen expected pairs."""

    def test_unit_quadratic(self):
        """Q = I, q = 0, x_1 = 1: x* = (1, 0), lam* = -1."""
        kkt = kkt_solve_qp(np.eye(2), np.zeros(2), np.array([[1.0, 0.0]]),
                           np.array([1.0]))
        np.testing.assert_allclose(kkt.x, [1.0, 0.0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(kkt.lam, [-1.0], rtol=0, atol=1e-12)
        assert kkt.kkt_tol <= 1e-10

    def test_zero_objective_minimum_norm(self):
        """Q = 0, q = 0: the minimum-norm feasible point with lam* = 0."""
        A = np.array([[1.0, 1.0]])
        b = np.array([2.0])
        kkt = kkt_solve_qp(np.zeros((2, 2)), np.zeros(2), A, b)
        np.testing.assert_allclose(kkt.x, [1.0, 1.0], rtol=0, atol=1e-10)
        np.testing.assert_allclose(kkt.lam, [0.0], rtol=0, atol=1e-10)

    def test_three_by_three_system(self):
        """Q = diag(1,2), q = (1,1), x_1 + x_2 = 1: x* = (2/3, 1/3),
        lam* = -5/3 (eliminate x from the stationarity rows)."""
        Q = np.diag([1.0, 2.0])
        q = np.ones(2)
        A = np.array([[1.0, 1.0]])
        b = np.array([1.0])
        kkt = kkt_solve_qp(Q, q, A, b)
        np.testing.assert_allclose(kkt.x, [2.0 / 3.0, 1.0 / 3.0],
                                   rtol=1e-12)
        np.testing.assert_allclose(kkt.lam, [-5.0 / 3.0], rtol=1e-12)
        resid = np.linalg.norm(Q @ kkt.x + q + A.T @ kkt.lam)
        assert resid <= 1e-12
        assert abs(A @ kkt.x - b)[0] <= 1e-12

    def test_rank_deficient_dual_minimum_norm(self):
        """Duplicated constraint rows: lam* splits evenly, (-1/2, -1/2)."""
        A = np.array([[1.0, 0.0], [1.0, 0.0]])
        b = np.array([1.0, 1.0])
        kkt = kkt_solve_qp(np.eye(2), np.zeros(2), A, b)
        np.testing.assert_allclose(kkt.x, [1.0, 0.0], rtol=0, atol=1e-10)
        np.testing.assert_allclose(kkt.lam, [-0.5, -0.5], rtol=0, atol=1e-10)

    def test_infeasible_rejected(self):
        """b outside range(A) has no feasible point at all."""
        A = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(InfeasibleConstraints):
            kkt_solve_qp(np.eye(2), np.zeros(2), A, np.array([1.0, 2.0]))

    @pytest.mark.parametrize("where", ["q", "b"])
    def test_nan_data_certifies_nothing(self, where):
        """A NaN in ``q`` or ``b`` makes both residuals NaN, which meet
        no bound: no reference with ``kkt_tol = nan`` is returned."""
        q, b = np.zeros(3), np.ones(1)
        {"q": q, "b": b}[where][0] = np.nan
        with pytest.raises(ReferenceNotConverged,
                           match="stationarity residual nan"):
            kkt_solve_qp(np.eye(3), q, np.ones((1, 3)), b)

    def test_certificate_rechecks(self, qp_testbed, qp_reference):
        """The recorded kkt_tol holds under independent re-evaluation."""
        g = qp_testbed.objective.gradient(qp_reference.x)
        stat = np.linalg.norm(g + qp_testbed.A.T @ qp_reference.lam)
        feas = np.linalg.norm(qp_testbed.A @ qp_reference.x - qp_testbed.b)
        assert max(stat, feas) <= qp_reference.kkt_tol + 1e-14
        assert qp_reference.kkt_tol <= 1e-10


def _dense_null_basis(inst, k):
    """The ``k`` columns of the instance's eigenbasis ``V`` of ``A'A``
    with the smallest eigenvalues, in index order (the order of the
    oracle's null indices), formed here column by column from ``V e_i``."""
    basis = inst.eigenbasis()
    V = np.column_stack([basis.apply_V(e) for e in np.eye(inst.dim)])
    return V[:, np.sort(np.argsort(basis.evals)[:k])]


class TestKktRefine:
    """The iterative reference path for non-quadratic instances."""

    def test_qp_agrees_with_direct_solve(self, qp_testbed, qp_reference):
        """On quadratics the two reference paths coincide to 1e-8."""
        kkt = kkt_refine(qp_testbed)
        np.testing.assert_allclose(kkt.x, qp_reference.x, rtol=0, atol=1e-8)
        np.testing.assert_allclose(kkt.lam, qp_reference.lam, rtol=0,
                                   atol=1e-8)

    def test_nan_stationarity_certifies_nothing(self):
        """A NaN gradient leaves the feasibility residual finite, but the
        NaN stationarity residual is the one that decides: it meets no
        target, so the refinement fails instead of returning
        ``kkt_tol = nan``."""
        inst = make_random_lp(seed=0)
        obj = dataclasses.replace(inst.objective,
                                  gradient=lambda x: np.full(x.shape, np.nan))
        with pytest.raises(ReferenceNotConverged,
                           match=r"KKT residual nan \(stationarity nan, "
                                 r"feasibility \d") as exc:
            kkt_refine(dataclasses.replace(inst, objective=obj))
        assert np.isnan(exc.value.stat_res)
        assert np.isfinite(exc.value.feas_res)

    def test_small_ring_logistic(self):
        """p = 4, m = 5 ring: residuals certified and rechecked <= 1e-9."""
        inst = make_ring_logistic(p_agents=4, m_dim=5, rho_reg=0.5, seed=0)
        kkt = kkt_refine(inst)
        assert kkt.kkt_tol <= 1e-9
        g = inst.objective.gradient(kkt.x)
        assert np.linalg.norm(g + inst.A.T @ kkt.lam) <= 1e-9
        assert np.linalg.norm(inst.A @ kkt.x - inst.b) <= 1e-9

    @pytest.fixture(scope="class")
    def ring_refs(self):
        """References of the 10x20 ring (Kronecker gram basis) and of its
        dense twin (no gram, so the polish takes a dense SVD)."""
        ring = make_ring_logistic(p_agents=10, m_dim=20, rho_reg=0.5, seed=0)
        twin = ProblemInstance(ring.objective, ring.A.toarray(), ring.b,
                               ring.name)
        assert ring.gram is not None and twin.gram is None
        return kkt_refine(ring), kkt_refine(twin)

    @staticmethod
    def _agreement(lam):
        """Norm of lam's component along the agreement directions
        1 kron v, the null space of A'."""
        return np.sqrt(10) * np.linalg.norm(lam.reshape(10, 20).mean(axis=0))

    def test_ring_dual_is_minimum_norm(self, ring_refs):
        """The reference dual of a ring has no component along the
        agreement directions 1 kron v, the null space of A'."""
        kkt, _ = ring_refs
        assert self._agreement(kkt.lam) <= 1e-12

    def test_ring_dense_twin_agrees(self, ring_refs):
        """Both eigenbases (the ring's factored ``gram`` and the twin's
        dense SVD) certify the same minimum-norm pair."""
        kkt, twin = ring_refs
        for got, want in ((twin.x, kkt.x), (twin.lam, kkt.lam)):
            assert (np.linalg.norm(got - want)
                    <= 1e-12 * np.linalg.norm(want))
        assert self._agreement(twin.lam) <= 1e-12
        assert max(kkt.kkt_tol, twin.kkt_tol) <= 1e-9

    def test_singular_reduced_hessian(self, monkeypatch):
        """f = (x1 + x2 - 1)^2/2 + (x3 - 2)^2/2 (not tagged quadratic)
        under x1 + x2 + x3 = 0: the Hessian's null direction (1, -1, 0)
        lies in null(A), so Z'HZ is singular, Cholesky fails and the
        least-squares fallback still certifies the pair."""
        H = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        h = np.array([1.0, 1.0, 2.0])
        objective = ObjectiveOracle(
            value=lambda x: 0.5 * (x[0] + x[1] - 1.0) ** 2
            + 0.5 * (x[2] - 2.0) ** 2,
            gradient=lambda x: H @ x - h,
            hessian=lambda x: H,
            lipschitz=2.0)
        inst = ProblemInstance(objective, np.ones((1, 3)), np.zeros(1),
                               "singular-reduced-hessian")
        shapes = []

        def recording(M, rhs):
            shapes.append(M.shape)
            return min_norm_solve(M, rhs)

        monkeypatch.setattr(oracle_module, "_min_norm_solve", recording)
        kkt = kkt_refine(inst)
        assert (2, 2) in shapes
        assert kkt.kkt_tol <= 1e-9
        stat = np.linalg.norm(H @ kkt.x - h + kkt.lam[0])
        feas = abs(kkt.x.sum())
        assert max(stat, feas) <= 1e-9

    def test_lp_seed_8_certified(self):
        """make_random_lp(seed=8), whose accelerated warm run ran out of
        inner Newton steps, is certified by the Newton-first polish."""
        inst = make_random_lp(seed=8)
        kkt = kkt_refine(inst)
        assert kkt.kkt_tol <= 1e-9
        g = inst.objective.gradient(kkt.x)
        assert np.linalg.norm(g + inst.A.T @ kkt.lam) <= 1e-9
        assert np.linalg.norm(inst.A @ kkt.x - inst.b) <= 1e-9

    @pytest.mark.parametrize("inst", [
        make_ring_logistic(p_agents=10, m_dim=20, rho_reg=0.5, seed=0),
        make_ring_logistic(p_agents=10, m_dim=5, rho_reg=0.5, seed=0),
        make_random_lp(seed=0)], ids=["ring", "ring-wide", "lp"])
    def test_structured_curvature_matches_dense(self, inst):
        """The structured solve with Z'HZ (Woodbury on the 10x20 ring,
        r = 10 < k = 20; the factored Z'HZ = mu Z'Z + (U'Z)' W (U'Z) on
        the 10x5 ring, r = 10 >= k = 5, and on lp) and H v = mu v +
        U (W U'v) equal a dense solve with Z'HZ, formed from a dense basis
        and the dense Hessian, and the dense H v, to 1e-12 relative."""
        _, Zt, Z, k = oracle_module._gram_pseudoinverse(inst)
        Z_dense = _dense_null_basis(inst, k)
        structured = oracle_module._curvature(inst.objective, Zt, Z, k)
        rng = np.random.default_rng(3)
        for _ in range(3):
            x, v = rng.normal(size=inst.dim), rng.normal(size=inst.dim)
            rhs = rng.normal(size=k)
            H = inst.objective.hessian(x)
            apply_H, solve = structured(x)
            want = np.linalg.solve(Z_dense.T @ H @ Z_dense, rhs)
            assert (np.linalg.norm(solve(rhs) - want)
                    <= 1e-12 * np.linalg.norm(want))
            assert (np.linalg.norm(apply_H(v) - H @ v)
                    <= 1e-12 * np.linalg.norm(H @ v))

    @staticmethod
    def _woodbury_case(m_dim, spread, rho_reg):
        """``(ZHZ, rhs, dz)`` on a 10 x m_dim ring: the dense Z'HZ (from a
        dense basis and the dense Hessian) at an x whose first five agents
        are scaled by ``spread``, a random rhs, and the curvature's dz."""
        inst = make_ring_logistic(p_agents=10, m_dim=m_dim, rho_reg=rho_reg,
                                  seed=0)
        _, Zt, Z, k = oracle_module._gram_pseudoinverse(inst)
        Z_dense = _dense_null_basis(inst, k)
        form = inst.objective.separable
        rng = np.random.default_rng(4)
        x = rng.normal(size=inst.dim)
        x[:inst.dim // 2] *= spread
        w = form.d2phi(form.U.T @ x - form.c)
        assert (w == 0).any() == (spread > 1)
        rhs = rng.normal(size=k)
        ZHZ = Z_dense.T @ inst.objective.hessian(x) @ Z_dense
        _, solve = oracle_module._curvature(inst.objective, Zt, Z, k)(x)
        return ZHZ, rhs, solve(rhs)

    @pytest.mark.parametrize("m_dim", [20, 200])
    @pytest.mark.parametrize("spread", [1.0, 1e3], ids=["random", "underflow"])
    def test_woodbury_solve_matches_dense(self, m_dim, spread):
        """On the 10x20 and 10x200 rings (r = 10 < k = m_dim, mu = 0.5)
        the r x r capacitance solve gives the dz of a dense Z'HZ solve to
        1e-12 relative: at random x, and at an x whose first five agents
        are scaled by 1e3, so that some weights phi'' underflow to 0."""
        ZHZ, rhs, dz = self._woodbury_case(m_dim, spread, 0.5)
        want = np.linalg.solve(ZHZ, rhs)
        assert np.linalg.norm(dz - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("m_dim", [20, 200])
    def test_woodbury_solve_small_mu(self, m_dim):
        """At rho_reg = mu = 1e-6, where Z'HZ has condition numbers up to
        about 4e6 and ``(rhs - P'S y) / mu`` cancels, the Woodbury dz
        keeps a normwise backward error ``||Z'HZ dz - rhs|| / (||Z'HZ||_2
        ||dz|| + ||rhs||)`` below 1e-15 (a dense LU solve's is about
        3e-17), at random x and where phi'' underflows, and kkt_refine
        still certifies kkt_tol <= 1e-9 without a refinement pass."""
        for spread in (1.0, 1e3):
            ZHZ, rhs, dz = self._woodbury_case(m_dim, spread, 1e-6)
            scale = (np.linalg.norm(ZHZ, 2) * np.linalg.norm(dz)
                     + np.linalg.norm(rhs))
            assert np.linalg.norm(ZHZ @ dz - rhs) <= 1e-15 * scale
        inst = make_ring_logistic(p_agents=10, m_dim=m_dim, rho_reg=1e-6,
                                  seed=0)
        assert kkt_refine(inst).kkt_tol <= 1e-9

    @pytest.mark.parametrize("inst, dense", [
        (make_ring_logistic(p_agents=10, m_dim=20, rho_reg=0.5, seed=0),
         False),
        (make_ring_logistic(p_agents=10, m_dim=5, rho_reg=0.5, seed=0),
         True),
        (make_random_lp(seed=0), True)], ids=["ring", "ring-wide", "lp"])
    def test_polish_solve_follows_objective(self, inst, dense, monkeypatch):
        """The polish factors a dense Z'HZ on lp (mu = 0) and on the 10x5
        ring (mu > 0, r = 10 >= k = 5), and never on the 10x20 ring
        (mu > 0, r = 10 < k = 20), which solves by Woodbury."""
        calls = []

        def recording(ZHZ):
            calls.append(ZHZ.shape)
            return dense_solve(ZHZ)

        dense_solve = oracle_module._dense_solve
        monkeypatch.setattr(oracle_module, "_dense_solve", recording)
        assert kkt_refine(inst).kkt_tol <= 1e-9
        assert bool(calls) == dense

    def test_ring_reference_never_forms_hessian(self):
        """On the 10x200 ring the polish calls no ``hessian`` and its
        allocations peak under 0.5 MB (the dense H alone is 32 MB, a dense
        null-space basis 3.2 MB and a dense Z'HZ 320 kB)."""
        ring = make_ring_logistic()

        def hessian(x):
            raise AssertionError("kkt_refine formed the dense Hessian")

        inst = dataclasses.replace(ring, objective=dataclasses.replace(
            ring.objective, hessian=hessian))
        tracemalloc.start()
        try:
            kkt = kkt_refine(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kkt.kkt_tol <= 1e-9
        assert peak < 5e5, peak

    def test_no_hessian_rejected(self):
        """An objective that is neither quadratic nor has a Hessian (nor a
        separable form) is rejected at once, before any gradient is
        evaluated."""
        ring = make_ring_logistic(p_agents=10, m_dim=20, rho_reg=0.5, seed=0)
        calls = []

        def gradient(x):
            calls.append(1)
            return ring.objective.gradient(x)

        objective = dataclasses.replace(ring.objective, gradient=gradient,
                                        hessian=None, separable=None)
        inst = dataclasses.replace(ring, objective=objective)
        with pytest.raises(ValueError, match="neither"):
            kkt_refine(inst)
        assert calls == []

    @staticmethod
    def _pseudo_huber(scale=2000.0):
        """f = sum sqrt(1 + (x - c)^2) with c = (scale, -scale) under
        x1 + x2 = 0: the solution is x* = c, lam* = 0.  At the
        minimum-norm feasible start 0 the curvature is about scale^-3, so
        the Newton step is about scale^3 long, and even damped by 1e-6 it
        overshoots far enough to raise the KKT residual."""
        c = np.array([scale, -scale])
        objective = ObjectiveOracle(
            value=lambda x: float(np.sum(np.sqrt(1.0 + (x - c) ** 2))),
            gradient=lambda x: (x - c) / np.sqrt(1.0 + (x - c) ** 2),
            hessian=lambda x: np.diag((1.0 + (x - c) ** 2) ** -1.5),
            lipschitz=1.0)
        return ProblemInstance(objective, np.ones((1, 2)), np.zeros(1),
                               "pseudo-huber"), c

    def test_stalled_newton_falls_back(self):
        """No damping of the first Newton steps on the pseudo-Huber
        instance lowers the KKT residual; the Armijo damping on f takes
        over and the polish certifies x* = c, lam* = 0 to 1e-9."""
        inst, c = self._pseudo_huber()
        kkt = kkt_refine(inst)
        assert kkt.kkt_tol <= 1e-9
        np.testing.assert_allclose(kkt.x, c, rtol=1e-9)
        np.testing.assert_allclose(kkt.lam, [0.0], rtol=0, atol=1e-9)

    @pytest.mark.parametrize("scale", [1e3, 1e5, 1e7])
    def test_far_start_certified(self, scale):
        """Flatter starts need far smaller Armijo dampings: at scale 1e7
        the Newton step is about 1e21 long and the accepted s about 1e-14,
        near the 1e-16 floor."""
        inst, c = self._pseudo_huber(scale)
        kkt = kkt_refine(inst)
        assert kkt.kkt_tol <= 1e-9
        np.testing.assert_allclose(kkt.x, c, rtol=1e-9)
        np.testing.assert_allclose(kkt.lam, [0.0], rtol=0, atol=1e-9)

    def test_infeasible_reports_residuals(self):
        """No KKT point exists: with no argument but the instance, the
        error carries the stuck feasibility (here dist(b, range A) =
        1/sqrt(2)), and its message names the polish, its stalled damping
        and both residuals."""
        rng = np.random.default_rng(0)
        B = rng.normal(size=(8, 4))
        c = rng.normal(size=8)
        A = np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
        bad = make_lp_regression(B, c, 1.5, A, np.array([0.0, 1.0]))
        with pytest.raises(ReferenceNotConverged) as exc:
            kkt_refine(bad)
        np.testing.assert_allclose(exc.value.feas_res, np.sqrt(0.5),
                                   rtol=1e-6)
        message = str(exc.value)
        assert "polish steps, damping stalled" in message
        assert f"stationarity {exc.value.stat_res:.3e}" in message
        assert f"feasibility {exc.value.feas_res:.3e}" in message


class TestFactoredNullBasis:
    """The null-space basis is applied through the instance's eigenbasis
    (here the ring's ``gram``) and never formed; it agrees with the dense
    ``V[:, null]``."""

    ring = make_ring_logistic(p_agents=10, m_dim=20, rho_reg=0.5, seed=0)

    def test_products_match_dense_basis(self):
        """Z'v and Z y agree with the dense basis to 1e-14 relative, and
        U'Z, formed as the curvature forms it (Z' of each column of U),
        with its dense product."""
        _, Zt, Z, k = oracle_module._gram_pseudoinverse(self.ring)
        Z_dense = _dense_null_basis(self.ring, k)
        assert Z_dense.shape == (200, 20)
        rng = np.random.default_rng(5)
        for _ in range(3):
            v, y = rng.normal(size=200), rng.normal(size=20)
            for got, want in [(Zt(v), Z_dense.T @ v), (Z(y), Z_dense @ y)]:
                assert (np.linalg.norm(got - want)
                        <= 1e-14 * np.linalg.norm(want))
        U = self.ring.objective.separable.U
        want = U.T @ Z_dense
        UZ = np.column_stack([Zt(u) for u in U.T]).T
        assert np.linalg.norm(UZ - want) <= 1e-14 * np.linalg.norm(want)

    def test_orthonormal_basis(self, monkeypatch):
        """The dense basis has ||Z'Z - I|| <= 1e-14, the contract that
        lets the separable curvature take Z'Z to be the identity exactly:
        on a ring whose dense branch forms Z'HZ (10x5, r = 10 >= k = 5),
        with zero curvature weights that Z'HZ is exactly mu I."""
        _, _, _, k = oracle_module._gram_pseudoinverse(self.ring)
        Z_dense = _dense_null_basis(self.ring, k)
        assert np.linalg.norm(Z_dense.T @ Z_dense - np.eye(k)) <= 1e-14
        wide = make_ring_logistic(p_agents=10, m_dim=5, rho_reg=0.5, seed=0)
        _, Zt, Z, k = oracle_module._gram_pseudoinverse(wide)
        form = wide.objective.separable
        assert form.U.shape[1] >= k
        flat = dataclasses.replace(wide.objective,
                                   separable=dataclasses.replace(
                                       form, d2phi=np.zeros_like))
        formed = []
        monkeypatch.setattr(oracle_module, "_dense_solve", formed.append)
        oracle_module._curvature(flat, Zt, Z, k)(np.zeros(wide.dim))
        np.testing.assert_array_equal(formed[0], form.mu * np.eye(k))

    def test_hessian_branch_densifies_same_basis(self):
        """Without a separable form the curvature forms the dense basis:
        its solve with Z'HZ agrees with a dense solve with the Z'HZ of the
        basis built from ``V e_i`` to 1e-14 relative, and its H v is the
        Hessian's."""
        _, Zt, Z, k = oracle_module._gram_pseudoinverse(self.ring)
        dense_obj = dataclasses.replace(self.ring.objective, separable=None)
        rng = np.random.default_rng(6)
        x, v, rhs = (rng.normal(size=n) for n in (200, 200, k))
        apply_H, solve = oracle_module._curvature(dense_obj, Zt, Z, k)(x)
        Z_dense = _dense_null_basis(self.ring, k)
        H = dense_obj.hessian(x)
        want = np.linalg.solve(Z_dense.T @ H @ Z_dense, rhs)
        assert (np.linalg.norm(solve(rhs) - want)
                <= 1e-14 * np.linalg.norm(want))
        np.testing.assert_array_equal(apply_H(v), H @ v)


class TestBruteStepOracle:
    """Literal-substitution scalar steps with frozen outputs."""

    def test_zero_objective_step(self):
        """f = 0, a = 1, b = -1, gamma = delta = 1, eta = 1, t: 1 -> 2
        (so xbar = 1, c = 2, r = 0): x = 0.2, lam = 0.4."""
        x, lam = brute_step_oracle(0.0, 0.0, 1.0, -1.0, 1.0, 1.0, 0.0, 1.0,
                                   1.0, 2.0, 1.0, 1.0, 0.0, 0.0)
        np.testing.assert_allclose(x, 0.2, rtol=1e-14)
        np.testing.assert_allclose(lam, 0.4, rtol=1e-14)

    def test_quadratic_step(self):
        """Adding f = x^2/2 to the same data gives x = 1/6, lam = 1/3."""
        x, lam = brute_step_oracle(1.0, 0.0, 1.0, -1.0, 1.0, 1.0, 0.0, 1.0,
                                   1.0, 2.0, 1.0, 1.0, 0.0, 0.0)
        np.testing.assert_allclose(x, 1.0 / 6.0, rtol=1e-14)
        np.testing.assert_allclose(lam, 1.0 / 3.0, rtol=1e-14)

    def test_explicit_linearization(self):
        """Explicit handling of f = x^2/2 anchors the gradient at xbar = 1,
        cancelling the proximal pull entirely: x = 0, lam = 0."""
        x, lam = brute_step_oracle(1.0, 0.0, 1.0, -1.0, 1.0, 1.0, 0.0, 1.0,
                                   1.0, 2.0, 1.0, 1.0, 0.0, 0.0,
                                   case="explicit")
        np.testing.assert_allclose(x, 0.0, rtol=0, atol=1e-14)
        np.testing.assert_allclose(lam, 0.0, rtol=0, atol=1e-14)

    def test_kkt_start_is_fixed_point(self):
        """From (x*, lam*) = (1, -1) of min x^2/2 s.t. x = 1 the step
        returns the same pair."""
        x, lam = brute_step_oracle(1.0, 0.0, 1.0, 1.0, 0.5, 1.3, 0.7, 0.8,
                                   2.2, 2.9, 1.0, 1.0, -1.0, -1.0)
        np.testing.assert_allclose(x, 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(lam, -1.0, rtol=0, atol=1e-12)

    def test_composite_case_unsupported(self):
        with pytest.raises(ValueError, match="implicit/explicit"):
            brute_step_oracle(1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0,
                              1.0, 2.0, 0.0, 0.0, 0.0, 0.0,
                              case="composite")


class TestReferenceCache:
    """The KKT sidecar written next to experiment outputs."""

    def test_save_load_round_trip_exact(self, tmp_path, qp_reference):
        """repr-based serialization round-trips every bit."""
        path = tmp_path / "ref.kkt.csv"
        save_kkt(path, qp_reference)
        back = load_kkt(path)
        np.testing.assert_allclose(back.x, qp_reference.x, rtol=0, atol=0)
        np.testing.assert_allclose(back.lam, qp_reference.lam, rtol=0,
                                   atol=0)
        assert back.kkt_tol == qp_reference.kkt_tol

    def test_numpy_scalar_tolerance_round_trips(self, tmp_path):
        """A numpy-scalar kkt_tol is written as a plain float literal."""
        path = tmp_path / "ref.kkt.csv"
        kkt = KKTPoint(x=np.ones(2), lam=np.ones(1),
                       kkt_tol=np.float64(1e-12))
        save_kkt(path, kkt)
        assert path.read_text().splitlines()[0] == "kkt_tol,1e-12"
        assert load_kkt(path).kkt_tol == 1e-12
