"""Tests for the problem factories: QP, lp-regression, ring logistic.

Objective values and gradients are pinned against hand-evaluated closed
forms, every oracle is audited with central finite differences, and the
structural facts the solver relies on (Lipschitz constants, consensus
null space, symmetry) are verified directly.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse
from scipy.special import expit

from aalm import (
    SolverConfig,
    chambolle_dossal,
    check_gradient,
    kkt_solve_qp,
    make_lp_regression,
    make_qp,
    make_random_lp,
    make_random_qp,
    make_ring_logistic,
    run,
)
from aalm.problems import (
    KronIdentity,
    ProblemInstance,
    dense,
    ring_mixing_matrix,
)
from aalm.solver import StoppingRule, _block_rows


class TestMakeQp:
    """Quadratic objective f(x) = x'Qx/2 + q'x."""

    def test_pinned_value_and_gradient(self):
        """Q = diag(1,2), q = (1,1): f(1,1) = 3.5 and grad = (2,3)."""
        inst = make_qp(np.diag([1.0, 2.0]), np.ones(2),
                       np.array([[1.0, 1.0]]), np.array([1.0]))
        x = np.ones(2)
        np.testing.assert_allclose(inst.objective.value(x), 3.5, rtol=1e-15)
        np.testing.assert_allclose(inst.objective.gradient(x), [2.0, 3.0],
                                   rtol=1e-15)

    def test_lipschitz_is_top_eigenvalue(self):
        """L equals the largest eigenvalue of Q."""
        inst = make_qp(np.diag([1.0, 2.0]), np.zeros(2),
                       np.array([[1.0, 0.0]]), np.array([0.0]))
        np.testing.assert_allclose(inst.objective.lipschitz, 2.0, rtol=1e-12)

    def test_quadratic_fields_round_trip(self):
        """The (Q, q) pair is exposed for the direct linear solves."""
        Q = np.diag([1.0, 2.0])
        q = np.array([0.5, -0.5])
        inst = make_qp(Q, q, np.array([[1.0, 0.0]]), np.array([0.0]))
        Qr, qr = inst.objective.quadratic
        np.testing.assert_allclose(Qr, Q, rtol=0, atol=0)
        np.testing.assert_allclose(qr, q, rtol=0, atol=0)

    def test_nonsymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            make_qp(np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros(2),
                    np.array([[1.0, 0.0]]), np.array([0.0]))

    def test_indefinite_rejected(self):
        """An indefinite Q is rejected where it is built, naming its
        smallest eigenvalue; a PSD Q with an eigenvalue at rounding level
        below zero is accepted."""
        with pytest.raises(ValueError, match=r"semidefinite.* -1$"):
            make_qp(np.diag([1.0, -1.0, 2.0]), np.zeros(3),
                    np.array([[1.0, 0.0, 0.0]]), np.array([0.0]))
        make_qp(np.diag([1.0, -1e-13, 2.0]), np.zeros(3),
                np.array([[1.0, 0.0, 0.0]]), np.array([0.0]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_qp(np.eye(2), np.zeros(3), np.array([[1.0, 0.0]]),
                    np.array([0.0]))
        with pytest.raises(ValueError):
            make_qp(np.eye(2), np.zeros(2), np.array([[1.0, 0.0, 0.0]]),
                    np.array([0.0]))

    def test_gradient_exact_on_quadratics(self):
        """Central differences are exact on quadratics up to rounding."""
        inst = make_random_qp(n=12, m=4, seed=3)
        rng = np.random.default_rng(3)
        for _ in range(5):
            assert check_gradient(inst, rng.normal(size=12), h=1e-5) <= 1e-6

    def test_testbed_reproducible(self):
        """The seeded testbed factory is deterministic."""
        a = make_random_qp(n=8, m=3, seed=11)
        b = make_random_qp(n=8, m=3, seed=11)
        np.testing.assert_allclose(a.A, b.A, rtol=0, atol=0)
        np.testing.assert_allclose(a.objective.quadratic[0],
                                   b.objective.quadratic[0], rtol=0, atol=0)
        assert a.name == "qp-n8-m3-pcg64-11"


class TestLpRegression:
    """f(x) = (1/p) sum |B_i x - c_i|^p with 1 < p < 2."""

    def test_scalar_closed_form(self):
        """B = [1], c = 0, p = 1.5: f(2) = 2^1.5/1.5 and f'(2) = sqrt(2)."""
        inst = make_lp_regression(np.eye(1), np.zeros(1), 1.5,
                                  np.array([[1.0]]), np.array([0.0]))
        x = np.array([2.0])
        np.testing.assert_allclose(inst.objective.value(x),
                                   2.0 ** 1.5 / 1.5, rtol=1e-15)
        np.testing.assert_allclose(inst.objective.gradient(x),
                                   [np.sqrt(2.0)], rtol=1e-15)

    def test_zero_residual_kills_gradient(self):
        """Any x with Bx = c has gradient exactly 0 (p - 1 > 0)."""
        B = np.array([[1.0, 1.0], [1.0, -1.0]])
        x = np.array([0.3, -0.2])
        inst = make_lp_regression(B, B @ x, 1.5, np.array([[1.0, 0.0]]),
                                  np.array([0.3]))
        np.testing.assert_allclose(inst.objective.gradient(x), 0.0,
                                   rtol=0, atol=0)

    def test_p_outside_open_interval_rejected(self):
        for p in (1.0, 2.0, 0.5, 2.5):
            with pytest.raises(ValueError, match=r"p must lie"):
                make_lp_regression(np.eye(1), np.zeros(1), p,
                                   np.array([[1.0]]), np.array([0.0]))

    def test_hessian_clamped_at_zero_residual(self):
        """At r = 0 the curvature weight is (p-1) * clamp^(p-2), finite."""
        inst = make_lp_regression(np.eye(1), np.zeros(1), 1.5,
                                  np.array([[1.0]]), np.array([0.0]))
        H = inst.objective.hessian(np.zeros(1))
        np.testing.assert_allclose(H, [[0.5 * 1e-8 ** (-0.5)]], rtol=1e-12)

    def test_hessian_matches_differences(self):
        """Away from kinks the derived Hessian B' diag(phi''(r)) B agrees
        with differenced gradients."""
        inst = make_random_lp(seed=0)
        x = np.random.default_rng(0).normal(size=20)
        H = inst.objective.hessian(x)
        np.testing.assert_allclose(H, H.T, rtol=0, atol=1e-15)
        g = inst.objective.gradient
        h = 1e-6
        for i in range(20):
            e = np.zeros(20)
            e[i] = h
            col = (g(x + e) - g(x - e)) / (2.0 * h)
            np.testing.assert_allclose(H[:, i], col, rtol=0, atol=1e-7)

    def test_gradient_at_kink_still_first_order(self):
        """Central differences agree at a zero-residual point: the gradient
        exists there, only the curvature blows up."""
        inst = make_lp_regression(np.eye(2), np.zeros(2), 1.5,
                                  np.array([[1.0, 1.0]]), np.array([0.0]))
        assert check_gradient(inst, np.zeros(2), h=1e-5) <= 1e-4

    def test_midpoint_convexity(self):
        """f((x+y)/2) <= (f(x)+f(y))/2 on sampled pairs."""
        inst = make_random_lp(d=15, n=10, p=1.5, seed=2)
        f = inst.objective.value
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.normal(size=10)
            y = rng.normal(size=10)
            assert f(0.5 * (x + y)) <= 0.5 * (f(x) + f(y)) + 1e-12

    def test_no_lipschitz_exposed(self):
        """The gradient is not globally Lipschitz, so none is advertised."""
        inst = make_random_lp(seed=0)
        assert inst.objective.lipschitz is None

    def test_random_factory_shape_and_name(self):
        """The default fit is overdetermined: 30 residual rows over n=20."""
        inst = make_random_lp(seed=0)
        assert inst.dim == 20
        assert inst.n_constraints == 1
        assert inst.name == "lp1.5-d30-n20-c1-pcg64-0"


@pytest.mark.parametrize("factory, params, message", [
    (make_random_qp, {"m": -1}, "m must be >= 0, got -1"),
    (make_random_qp, {"seed": -3}, "seed must be >= 0, got -3"),
    (make_random_lp, {"n_constraints": -1},
     "n_constraints must be >= 0, got -1"),
    (make_random_lp, {"seed": -3}, "seed must be >= 0, got -3"),
    (make_ring_logistic, {"seed": -3}, "seed must be >= 0, got -3"),
], ids=["qp-m", "qp-seed", "lp-n_constraints", "lp-seed", "ring-seed"])
def test_negative_size_or_seed_named(factory, params, message):
    """A random family's negative size or seed is a ValueError naming the
    parameter, not numpy's message about a dimension or a seed."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        factory(**params)


class TestRingMixingMatrix:
    """Metropolis weights of the ring: 1/2 diagonal, 1/4 to each neighbour."""

    def test_structure(self):
        W = ring_mixing_matrix(5)
        np.testing.assert_allclose(np.diag(W), 0.5, rtol=0, atol=0)
        np.testing.assert_allclose(W, W.T, rtol=0, atol=0)
        np.testing.assert_allclose(W.sum(axis=1), 1.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(W.sum(axis=0), 1.0, rtol=0, atol=1e-15)

    def test_small_ring_rejected(self):
        with pytest.raises(ValueError):
            ring_mixing_matrix(2)


class TestRingLogistic:
    """Sum of per-agent regularized logistic losses under ring consensus."""

    def test_value_at_zero(self):
        """Each logistic term is ln 2 at x = 0; the penalty vanishes."""
        inst = make_ring_logistic(p_agents=6, m_dim=4, rho_reg=0.5, seed=0)
        np.testing.assert_allclose(inst.objective.value(np.zeros(24)),
                                   6.0 * np.log(2.0), rtol=1e-14)

    def test_gradient_at_zero_is_half_feature(self):
        """grad of one agent term at x_i = 0 is -c_i/2: sigmoid(0) = 1/2."""
        inst = make_ring_logistic(p_agents=5, m_dim=3, rho_reg=0.5, seed=4)
        g = inst.objective.gradient(np.zeros(15))
        # Features live on [0, 1], so every entry sits in [-1/2, 0].
        assert np.all(g <= 0.0) and np.all(g >= -0.5)
        assert check_gradient(inst, np.zeros(15), h=1e-5) <= 1e-5

    def test_lipschitz_constant_formula(self):
        """L = max_i (||c_i||^2/4 + rho); c_i recovered from -2 grad(0)."""
        inst = make_ring_logistic(p_agents=5, m_dim=3, rho_reg=0.5, seed=4)
        C = -2.0 * inst.objective.gradient(np.zeros(15)).reshape(5, 3)
        L_expect = float((np.sum(C ** 2, axis=1) / 4.0 + 0.5).max())
        np.testing.assert_allclose(inst.objective.lipschitz, L_expect,
                                   rtol=1e-12)

    def test_lipschitz_bound_holds_on_samples(self):
        """||grad f(x) - grad f(y)|| <= L ||x - y|| on random pairs."""
        inst = make_ring_logistic(p_agents=4, m_dim=3, rho_reg=0.5, seed=1)
        g = inst.objective.gradient
        L = inst.objective.lipschitz
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.normal(size=12)
            y = rng.normal(size=12)
            assert (np.linalg.norm(g(x) - g(y))
                    <= L * np.linalg.norm(x - y) * (1 + 1e-12))

    def test_consensus_operator(self):
        """A = (I - W) kron I_m is symmetric, kills agreement vectors, and
        has rank (p - 1) m."""
        inst = make_ring_logistic(p_agents=4, m_dim=3, rho_reg=0.5, seed=0)
        A = inst.A.toarray()
        np.testing.assert_allclose(A, A.T, rtol=0, atol=0)
        rng = np.random.default_rng(0)
        v = rng.normal(size=3)
        agree = np.tile(v, 4)
        np.testing.assert_allclose(A @ agree, 0.0, rtol=0, atol=1e-14)
        assert np.linalg.matrix_rank(A) == 9
        np.testing.assert_allclose(inst.b, 0.0, rtol=0, atol=0)

    def test_constraint_operator_is_exact_kron(self):
        """The ring's ``KronIdentity`` A equals ``(I - W) kron I_m`` entry
        for entry; its products with a vector (``A``, ``A'`` and ``A'A``,
        itself a ``KronIdentity``), and those of a rectangular
        nonsymmetric operator, match the dense ones to rounding.
        Rebuilding the instance keeps the operator as given."""
        inst = make_ring_logistic(p_agents=5, m_dim=4, rho_reg=0.5, seed=0)
        W = ring_mixing_matrix(5)
        np.testing.assert_array_equal(inst.A.toarray(),
                                      np.kron(np.eye(5) - W, np.eye(4)))
        assert replace(inst).A is inst.A
        assert inst.A.nbytes == W.nbytes
        rng = np.random.default_rng(0)
        for A in (inst.A, KronIdentity(rng.normal(size=(3, 5)), 4)):
            dense = np.kron(A.K, np.eye(4))
            np.testing.assert_array_equal(A.toarray(), dense)
            assert A.shape == dense.shape
            assert isinstance(A.T @ A, KronIdentity)
            for op, M in ((A, dense), (A.T, dense.T),
                          (A.T @ A, dense.T @ dense)):
                v = rng.normal(size=M.shape[1])
                np.testing.assert_allclose(op @ v, M @ v, rtol=0,
                                           atol=1e-14 * np.linalg.norm(v))

    def test_logistic_weights_match_expit(self):
        """``phi'`` and ``phi''`` agree with ``scipy.special.expit`` to 4
        eps relative (subnormal results to the smallest normal) on
        ``[-800, 800]`` and at +-0, without an overflow, division or
        invalid operation (which ``filterwarnings = error`` would also
        turn into a failure), and keep their ranges ``-1 <= phi' <= 0``
        and ``phi'' >= 0``."""
        form = make_ring_logistic(p_agents=3, m_dim=2).objective.separable
        t = np.concatenate([np.linspace(-800.0, 800.0, 200001),
                            np.linspace(-40.0, 40.0, 80001), [0.0, -0.0]])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            dphi, d2phi = form.dphi(t), form.d2phi(t)
        tol = 4 * np.finfo(float).eps
        tiny = np.finfo(float).tiny
        for got, ref in ((dphi, -expit(-t)), (d2phi, expit(-t) * expit(t))):
            assert np.all(np.abs(got - ref) <= tol * np.abs(ref) + tiny)
        assert np.all((dphi >= -1.0) & (dphi <= 0.0))
        assert np.all(d2phi >= 0.0)

    def test_gram_eigenbasis_reproduces_gram(self):
        """V diag(evals) V' = A'A to 1e-13, with V orthogonal."""
        inst = make_ring_logistic(p_agents=10, m_dim=20, rho_reg=0.5, seed=0)
        n = inst.dim
        V = np.column_stack([inst.gram.apply_V(e) for e in np.eye(n)])
        Vt = np.column_stack([inst.gram.apply_Vt(e) for e in np.eye(n)])
        A = inst.A.toarray()
        np.testing.assert_array_equal(Vt, V.T)
        np.testing.assert_allclose(V.T @ V, np.eye(n), rtol=0, atol=1e-13)
        np.testing.assert_allclose((V * inst.gram.evals) @ V.T, A.T @ A,
                                   rtol=0, atol=1e-13)

    def test_hessian_matches_differences(self):
        """The blockwise Hessian agrees with differenced gradients."""
        inst = make_ring_logistic(p_agents=4, m_dim=2, rho_reg=0.5, seed=2)
        rng = np.random.default_rng(2)
        x = rng.normal(size=8)
        H = inst.objective.hessian(x)
        np.testing.assert_allclose(H, H.T, rtol=0, atol=1e-15)
        g = inst.objective.gradient
        h = 1e-6
        for i in range(8):
            e = np.zeros(8)
            e[i] = h
            col = (g(x + e) - g(x - e)) / (2.0 * h)
            np.testing.assert_allclose(H[:, i], col, rtol=0, atol=1e-7)

    def test_seed_determinism(self):
        """Same seed, same instance; different seed, different data."""
        x = np.full(12, 0.3)
        a = make_ring_logistic(4, 3, 0.5, seed=9)
        b = make_ring_logistic(4, 3, 0.5, seed=9)
        c = make_ring_logistic(4, 3, 0.5, seed=10)
        assert a.objective.value(x) == b.objective.value(x)
        assert a.objective.value(x) != c.objective.value(x)
        assert a.name == "ring-logistic-p4-m3-rho0.5-pcg64-9"

    def test_paper_scale_defaults(self):
        """Defaults give the p = 10, m = 200 configuration (dim 2000)."""
        inst = make_ring_logistic()
        assert inst.dim == 2000
        assert inst.n_constraints == 2000


class TestEigenbasis:
    """``ProblemInstance.eigenbasis``: the instance's ``gram`` when it
    carries one, else an orthonormal basis from a dense SVD of ``A``."""

    @staticmethod
    def _without_gram():
        """Instances without a ``gram``: a dense A, a rank-deficient A
        (two rows repeated) and the 10x20 ring's A."""
        qp = make_random_qp(n=50, m=10, seed=0)
        Q, q = qp.objective.quadratic
        repeated = make_qp(Q, q, np.vstack([qp.A, qp.A[:2]]),
                           np.concatenate([qp.b, qp.b[:2]]))
        ring = make_ring_logistic(p_agents=10, m_dim=20, rho_reg=0.5, seed=0)
        twin = ProblemInstance(ring.objective, ring.A.toarray(), ring.b,
                               ring.name)
        return {"dense": qp, "repeated": repeated, "ring": twin}

    @staticmethod
    def _formed(basis, n):
        """``V`` formed column by column from ``V e_i``."""
        return np.column_stack([basis.apply_V(e) for e in np.eye(n)])

    def test_gram_returned_as_is(self):
        ring = make_ring_logistic(p_agents=4, m_dim=5, rho_reg=0.5, seed=0)
        assert ring.eigenbasis() is ring.gram

    @pytest.mark.parametrize("key", ["dense", "repeated", "ring"])
    def test_svd_basis_rebuilds_gram(self, key):
        """V diag(e) V' = A'A to 1e-12, with V orthogonal and V' applied
        as the transpose of V."""
        inst = self._without_gram()[key]
        assert inst.gram is None
        basis, n, A = inst.eigenbasis(), inst.dim, dense(inst.A)
        V = self._formed(basis, n)
        Vt = np.column_stack([basis.apply_Vt(e) for e in np.eye(n)])
        np.testing.assert_array_equal(Vt, V.T)
        np.testing.assert_allclose(V.T @ V, np.eye(n), rtol=0, atol=1e-13)
        np.testing.assert_allclose((V * basis.evals) @ V.T, A.T @ A,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("key", ["dense", "repeated", "ring"])
    def test_eigenvalues_nonnegative_with_zero_padding(self, key):
        """The eigenvalues are ``s^2 >= 0`` padded with ``n - min(m, n)``
        exact zeros, and ``n - rank(A)`` of them lie at or below the
        reference's zero cutoff ``(max(m, n) eps)^2 max(e)``: a
        rank-deficient A's own null directions get rounding-level
        ``s^2``, not exact zeros."""
        inst = self._without_gram()[key]
        A = dense(inst.A)
        (m, n), e = A.shape, inst.eigenbasis().evals
        assert e.shape == (n,) and np.all(e >= 0.0)
        assert np.count_nonzero(e[min(m, n):]) == 0
        cutoff = (max(m, n) * np.finfo(float).eps) ** 2 * e.max()
        assert np.count_nonzero(e <= cutoff) == n - np.linalg.matrix_rank(A)

    def test_lp_null_basis_orthonormal(self):
        """On lp seed 0 the columns of V with zero eigenvalue span
        null(A) orthonormally: ||A Z|| and ||Z'Z - I|| at most 1e-14."""
        lp = make_random_lp(seed=0)
        basis = lp.eigenbasis()
        Z = self._formed(basis, lp.dim)[:, basis.evals == 0.0]
        assert Z.shape == (20, 19)
        assert np.linalg.norm(lp.A @ Z) <= 1e-14
        assert np.linalg.norm(Z.T @ Z - np.eye(19)) <= 1e-14


class TestCheckGradient:
    """The finite-difference audit itself, across every built-in family."""

    def test_every_builtin_passes(self):
        """All three families stay within 1e-4 at 20 seeded points."""
        instances = [
            make_random_qp(n=10, m=3, seed=5),
            make_random_lp(d=12, n=8, seed=5),
            make_ring_logistic(p_agents=4, m_dim=3, rho_reg=0.5, seed=5),
        ]
        rng = np.random.default_rng(5)
        for inst in instances:
            for _ in range(20):
                x = rng.normal(size=inst.dim)
                assert check_gradient(inst, x, h=1e-6) <= 1e-4


def _lp_closed_form(B, c, p):
    """lp-regression's value, gradient and Hessian written out directly."""
    def value(x):
        return float(np.sum(np.abs(B @ x - c) ** p)) / p

    def gradient(x):
        r = B @ x - c
        return B.T @ (np.sign(r) * np.abs(r) ** (p - 1.0))

    def hessian(x):
        r = np.maximum(np.abs(B @ x - c), 1e-8)
        return (B.T * ((p - 1.0) * r ** (p - 2.0))) @ B

    return value, gradient, hessian


def _ring_closed_form(C, rho):
    """The ring loss's value, gradient and Hessian, block by block."""
    p_agents, m_dim = C.shape

    def value(x):
        t = np.sum(C * x.reshape(C.shape), axis=1)
        return float(np.sum(np.logaddexp(0.0, -t)) + 0.5 * rho * x @ x)

    def gradient(x):
        X = x.reshape(C.shape)
        t = np.sum(C * X, axis=1)
        return (-expit(-t)[:, None] * C + rho * X).ravel()

    def hessian(x):
        t = np.sum(C * x.reshape(C.shape), axis=1)
        H = rho * np.eye(x.size)
        for i in range(p_agents):
            s = slice(i * m_dim, (i + 1) * m_dim)
            H[s, s] += expit(-t[i]) * expit(t[i]) * np.outer(C[i], C[i])
        return H

    return value, gradient, hessian


class TestSeparable:
    """The lp and ring oracles are derived from one separable description
    f(x) = sum_i phi(u_i'x - c_i) + (mu/2)||x||^2."""

    @staticmethod
    def _lp():
        rng = np.random.default_rng(0)
        B, c = rng.normal(size=(30, 20)), rng.normal(size=30)
        inst = make_lp_regression(B, c, 1.5, np.ones((1, 20)), np.zeros(1))
        return inst, _lp_closed_form(B, c, 1.5), rng

    @staticmethod
    def _ring():
        inst = make_ring_logistic(p_agents=10, m_dim=20, rho_reg=0.5, seed=0)
        C = -2.0 * inst.objective.gradient(np.zeros(200)).reshape(10, 20)
        return inst, _ring_closed_form(C, 0.5), np.random.default_rng(1)

    def test_descriptions(self):
        """lp: U = B' and mu = 0; ring: U = blockdiag(c_i), c = 0,
        mu = rho_reg; both U stored dense and column-major."""
        lp = make_random_lp(seed=0).objective.separable
        ring = make_ring_logistic(p_agents=10, m_dim=20, rho_reg=0.5,
                                  seed=0).objective.separable
        assert lp.U.shape == (20, 30) and lp.mu == 0.0
        assert ring.U.shape == (200, 10) and ring.mu == 0.5
        np.testing.assert_array_equal(ring.c, 0.0)
        for form in (lp, ring):
            assert form.U.flags.f_contiguous
        blocks = ring.U.reshape(10, 20, 10)
        for i in range(10):
            off = np.delete(blocks[i], i, axis=1)
            np.testing.assert_array_equal(off, 0.0)
            assert np.all(blocks[i][:, i] > 0.0)

    @pytest.mark.parametrize("family", ["_lp", "_ring"])
    def test_derived_oracle_matches_closed_form(self, family):
        """Value, gradient and Hessian agree with the directly written
        formulas to 1e-12 relative at seeded points."""
        inst, (value, gradient, hessian), rng = getattr(self, family)()
        obj = inst.objective
        for _ in range(5):
            x = rng.normal(size=inst.dim)
            np.testing.assert_allclose(obj.value(x), value(x), rtol=1e-12)
            g = gradient(x)
            assert (np.linalg.norm(obj.gradient(x) - g)
                    <= 1e-12 * np.linalg.norm(g))
            H = hessian(x)
            assert (np.linalg.norm(obj.hessian(x) - H)
                    <= 1e-12 * np.linalg.norm(H))

    @pytest.mark.parametrize("family", ["_lp", "_ring"])
    def test_derived_gradient_audited(self, family):
        """Central differences confirm the derived gradients to 1e-6."""
        inst, _, rng = getattr(self, family)()
        for _ in range(3):
            assert check_gradient(inst, rng.normal(size=inst.dim)) <= 1e-6


def test_sparse_A_is_stored_dense():
    """A ``ProblemInstance`` given a ``scipy.sparse.csr_array`` stores
    its ``toarray()`` bitwise, with ``At`` its transpose, and a
    50-iteration explicit CD(10) run on it is bitwise the dense twin's;
    ``kkt_solve_qp`` given the CSR array returns the dense twin's pair."""
    twin = make_random_qp(n=12, m=4, seed=1)
    twin = replace(twin, A=twin.A * (np.random.default_rng(2).random(
        twin.A.shape) < 0.5))
    sparse = scipy.sparse.csr_array(twin.A)
    inst = replace(twin, A=sparse)
    assert type(inst.A) is np.ndarray
    assert inst.A.tobytes() == sparse.toarray().tobytes()
    assert inst.At.shape == (12, 4)
    assert inst.At.tobytes() == inst.A.T.tobytes()
    Q, q = twin.objective.quadratic
    kkt = kkt_solve_qp(Q, q, twin.A, twin.b)
    from_csr = kkt_solve_qp(Q, q, sparse, twin.b)
    assert from_csr.x.tobytes() == kkt.x.tobytes()
    assert from_csr.lam.tobytes() == kkt.lam.tobytes()
    cfg = SolverConfig(schedule=chambolle_dossal(10.0), case="explicit",
                       max_iter=50)
    (state, trace), (want_state, want) = (
        run(i, cfg, np.zeros(12), np.zeros(4), kkt=kkt) for i in (inst, twin))
    assert len(trace) == 50
    assert np.array(trace).tobytes() == np.array(want).tobytes()
    assert state.x_curr.tobytes() == want_state.x_curr.tobytes()
    assert state.lam_curr.tobytes() == want_state.lam_curr.tobytes()


class TestRowForms:
    """The row-block forms of the objective, of ``A`` and of ``A'`` give
    bitwise the per-row results, so trace records do not depend on how
    iterates are grouped into blocks (nor on which form produced them)."""

    FAMILIES = {
        "qp": lambda: make_random_qp(n=50, m=10, seed=0),
        "lp": lambda: make_random_lp(seed=0),
        "ring-10x20": lambda: make_ring_logistic(10, 20, 0.5, seed=0),
        "ring-10x200": lambda: make_ring_logistic(10, 200, 0.5, seed=0),
    }

    @staticmethod
    def _same_bits(a, b):
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_rows_equal_per_row_calls(self, family):
        """On blocks of 1, the record row cap - 1, the cap and the cap + 1
        rows, every row of the objective's row form (gradients and
        values), ``A_rows`` and ``At_rows`` is bitwise the per-row
        callable's (or ``A @ x``'s, or ``At @ lam``'s) result, so every
        block is a bitwise prefix of the longer ones; both products come
        C-ordered."""
        inst = self.FAMILIES[family]()
        obj = inst.objective
        cap = _block_rows(inst, StoppingRule())
        rng = np.random.default_rng(5)
        X = rng.normal(size=(cap + 1, inst.dim))
        L = rng.normal(size=(cap + 1, inst.n_constraints))
        for b in sorted({1, cap - 1, cap, cap + 1} - {0}):
            x, lam = X[:b], L[:b]
            G, values = obj.rows(x)
            assert self._same_bits(G, [obj.gradient(v) for v in x])
            assert self._same_bits(values(), [obj.value(v) for v in x])
            AX = inst.A_rows(x)
            assert AX.flags.c_contiguous
            assert self._same_bits(AX, [inst.A @ v for v in x])
            AtL = inst.At_rows(lam)
            assert AtL.flags.c_contiguous
            assert self._same_bits(AtL, [inst.At @ v for v in lam])

    def test_forms_follow_the_description(self):
        """The row form is derived from ``quadratic``, else ``separable``,
        else the callables, and ``replace`` derives it anew; the
        callables' loop calls ``value`` only when the values are asked
        for."""
        qp = make_random_qp(n=6, m=2, seed=3).objective
        plain = replace(qp, quadratic=None)
        assert plain.rows is not qp.rows
        X = np.random.default_rng(0).normal(size=(3, 6))
        (G, values), (want_G, want_values) = plain.rows(X), qp.rows(X)
        assert self._same_bits(G, want_G)
        assert self._same_bits(values(), want_values())
        lp = make_random_lp(d=8, n=5, seed=1).objective
        doubled = replace(lp, gradient=lambda x: 2.0 * lp.gradient(x))
        Y = np.random.default_rng(1).normal(size=(3, 5))
        assert self._same_bits(doubled.rows(Y)[0], lp.rows(Y)[0])
        counted = []
        bare = replace(lp, separable=None,
                       value=lambda x: counted.append(1) or lp.value(x))
        G, values = bare.rows(Y)
        assert self._same_bits(G, lp.rows(Y)[0])
        assert not counted
        assert self._same_bits(values(), lp.rows(Y)[1]())
        assert len(counted) == 3
