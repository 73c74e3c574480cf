"""Tests for the reference oracles and the KKT cache.

kkt_solve_qp is pinned on hand-solved saddle systems (including a
rank-deficient dual and an infeasible system); kkt_refine is asserted on
its own certificate for the non-quadratic families; the scalar brute
oracle's closed forms are frozen here before they pin the solver.
"""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from aalm import (
    brute_step_oracle,
    cached_reference,
    kkt_refine,
    kkt_solve_qp,
    make_lp_regression,
    make_qp,
    make_random_lp,
    make_random_qp,
    make_ring_logistic,
)
from aalm import oracle as oracle_module
from aalm.harness import load_manifest
from aalm.oracle import (
    InfeasibleConstraints,
    ReferenceNotConverged,
    _min_norm_solve as min_norm_solve,
    instance_hash,
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

    def test_certificate_rechecks(self, qp_testbed, qp_reference):
        """The recorded kkt_tol holds under independent re-evaluation."""
        g = qp_testbed.objective.gradient(qp_reference.x)
        stat = np.linalg.norm(g + qp_testbed.A.T @ qp_reference.lam)
        feas = np.linalg.norm(qp_testbed.A @ qp_reference.x - qp_testbed.b)
        assert max(stat, feas) <= qp_reference.kkt_tol + 1e-14
        assert qp_reference.kkt_tol <= 1e-10


class TestKktRefine:
    """The iterative reference path for non-quadratic instances."""

    def test_qp_agrees_with_direct_solve(self, qp_testbed, qp_reference):
        """On quadratics the two reference paths coincide to 1e-8."""
        kkt = kkt_refine(qp_testbed)
        np.testing.assert_allclose(kkt.x, qp_reference.x, rtol=0, atol=1e-8)
        np.testing.assert_allclose(kkt.lam, qp_reference.lam, rtol=0,
                                   atol=1e-8)

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
        """Both eigenbasis providers give the same minimum-norm pair."""
        kkt, twin = ring_refs
        for got, want in ((twin.x, kkt.x), (twin.lam, kkt.lam)):
            assert (np.linalg.norm(got - want)
                    <= 1e-12 * np.linalg.norm(want))
        assert self._agreement(twin.lam) <= 1e-12
        assert twin.kkt_tol <= 1e-9

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
        make_random_lp(seed=0)], ids=["ring", "lp"])
    def test_structured_curvature_matches_dense(self, inst):
        """Z'HZ = mu Z'Z + (U'Z)' W (U'Z) and H v = mu v + U (W U'v) equal
        the products with the dense Hessian to 1e-12 relative."""
        _, Z = oracle_module._gram_pseudoinverse(inst)
        dense_obj = dataclasses.replace(inst.objective, separable=None)
        structured = oracle_module._curvature(inst.objective, Z)
        reference = oracle_module._curvature(dense_obj, Z)
        rng = np.random.default_rng(3)
        for _ in range(3):
            x, v = rng.normal(size=inst.dim), rng.normal(size=inst.dim)
            (apply_s, ZHZ_s), (apply_d, ZHZ_d) = structured(x), reference(x)
            assert (np.linalg.norm(ZHZ_s - ZHZ_d)
                    <= 1e-12 * np.linalg.norm(ZHZ_d))
            assert (np.linalg.norm(apply_s(v) - apply_d(v))
                    <= 1e-12 * np.linalg.norm(apply_d(v)))

    def test_ring_reference_never_forms_hessian(self):
        """On the 10x200 ring the polish calls no ``hessian`` and its
        allocations peak under 8 MB (the dense H alone is 32 MB)."""
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
        assert peak < 8e6, peak

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
    """Content-hashed KKT sidecar files."""

    def test_hash_keyed_to_data_and_name(self):
        a = make_random_qp(n=6, m=2, seed=0)
        b = make_random_qp(n=6, m=2, seed=0)
        c = make_random_qp(n=6, m=2, seed=1)
        assert instance_hash(a) == instance_hash(b)
        assert instance_hash(a) != instance_hash(c)
        renamed = make_random_qp(n=6, m=2, seed=0, name="other")
        assert instance_hash(a) != instance_hash(renamed)

    def test_hash_keyed_to_separable_data(self):
        """Same name, different U, c, mu or lp exponent p: different
        hashes."""
        ring = make_ring_logistic(p_agents=4, m_dim=3, rho_reg=0.5, seed=0)
        for other in (
                make_ring_logistic(4, 3, 0.6, seed=0, name=ring.name),
                make_ring_logistic(4, 3, 0.5, seed=1, name=ring.name)):
            assert instance_hash(other) != instance_hash(ring)
        assert instance_hash(ring) == instance_hash(
            make_ring_logistic(4, 3, 0.5, seed=0))
        rng = np.random.default_rng(0)
        B, c = rng.normal(size=(6, 3)), rng.normal(size=6)
        lp = make_lp_regression(B, c, 1.5, np.ones((1, 3)), np.zeros(1))
        shifted = make_lp_regression(B, c + 1e-3, 1.5, np.ones((1, 3)),
                                     np.zeros(1))
        assert instance_hash(shifted) != instance_hash(lp)
        p12, p15 = (make_lp_regression(B, c, p, np.ones((1, 3)), np.zeros(1),
                                       name="m") for p in (1.2, 1.5))
        assert instance_hash(p12) != instance_hash(p15)

    def test_save_load_round_trip_exact(self, tmp_path, qp_reference):
        """repr-based serialization round-trips every bit."""
        path = tmp_path / "ref.kkt.csv"
        save_kkt(path, qp_reference)
        back = load_kkt(path)
        np.testing.assert_allclose(back.x, qp_reference.x, rtol=0, atol=0)
        np.testing.assert_allclose(back.lam, qp_reference.lam, rtol=0,
                                   atol=0)
        assert back.kkt_tol == qp_reference.kkt_tol

    def test_cache_computes_once(self, tmp_path):
        inst = make_random_qp(n=6, m=2, seed=3)
        calls = []

        def compute(instance):
            calls.append(instance.name)
            return kkt_refine(instance)

        first = cached_reference(inst, tmp_path, compute=compute)
        second = cached_reference(inst, tmp_path, compute=compute)
        assert calls == [inst.name]
        np.testing.assert_allclose(second.x, first.x, rtol=0, atol=0)
        files = list(tmp_path.glob("*.kkt.csv"))
        assert len(files) == 1
        assert instance_hash(inst) in files[0].name

    def test_refresh_recomputes(self, tmp_path):
        inst = make_random_qp(n=6, m=2, seed=3)
        calls = []

        def compute(instance):
            calls.append(instance.name)
            return kkt_refine(instance)

        cached_reference(inst, tmp_path, compute=compute)
        cached_reference(inst, tmp_path, compute=compute, refresh=True)
        assert len(calls) == 2

    def test_changed_data_invalidates(self, tmp_path):
        """Same name, different b: the content hash forces a recompute."""
        base = make_random_qp(n=6, m=2, seed=3, name="shared")
        Q, q = base.objective.quadratic
        shifted = make_qp(Q, q, base.A, base.b + 1e-3, name="shared")
        calls = []

        def compute(instance):
            calls.append(instance.name)
            return kkt_refine(instance)

        cached_reference(base, tmp_path, compute=compute)
        cached_reference(shifted, tmp_path, compute=compute)
        assert len(calls) == 2
        assert len(list(tmp_path.glob("*.kkt.csv"))) == 2

    @staticmethod
    def _qp_manifest(directory, Q_scale=1.0):
        """Write an 8x3 manifest QP named "shared-qp" (fixed data, ``Q``
        scaled by ``Q_scale``) into ``directory`` and load it."""
        rng = np.random.default_rng(11)
        G = rng.normal(size=(8, 8))
        files = {"Q.csv": Q_scale * (G @ G.T + np.eye(8)),
                 "q.csv": rng.normal(size=8),
                 "A.csv": rng.normal(size=(3, 8)), "b.csv": rng.normal(size=3)}
        manifest = {"name": "shared-qp",
                    "objective": {"kind": "qp", "Q": "Q.csv", "q": "q.csv"},
                    "A": "A.csv", "b": "b.csv"}
        directory.mkdir(parents=True, exist_ok=True)
        for fname, arr in files.items():
            np.savetxt(directory / fname, arr, delimiter=",")
        (directory / "inst.json").write_text(json.dumps(manifest))
        return load_manifest(directory / "inst.json")

    def test_changed_quadratic_changes_hash(self, tmp_path):
        """Two manifest QPs that differ only in Q.csv get different cache
        files."""
        cache = tmp_path / "refs"
        before = self._qp_manifest(tmp_path / "one")
        after = self._qp_manifest(tmp_path / "three", Q_scale=3.0)
        assert instance_hash(after) != instance_hash(before)
        cached_reference(before, cache)
        cached_reference(after, cache)
        assert len(list(cache.glob("*.kkt.csv"))) == 2

    def test_changed_objective_recomputed(self, tmp_path):
        """A stale pair planted under the cache file of a manifest QP whose
        Q.csv was tripled fails the residual recheck and is replaced by
        one certified for the new objective."""
        cache = tmp_path / "refs"
        before = self._qp_manifest(tmp_path / "one")
        stale = cached_reference(before, cache)
        after = self._qp_manifest(tmp_path / "three", Q_scale=3.0)
        path = cache / f"{after.name}-{instance_hash(after)}.kkt.csv"
        save_kkt(path, stale)
        kkt = cached_reference(after, cache)
        Q, q = after.objective.quadratic
        stat = np.linalg.norm(Q @ kkt.x + q + after.A.T @ kkt.lam)
        assert stat <= 1e-10
        assert load_kkt(path).x.tolist() == kkt.x.tolist()

    def test_wrong_dual_shape_recomputed(self, tmp_path):
        """A sidecar whose lam has the wrong length is not returned."""
        inst = make_random_qp(n=6, m=2, seed=3)
        good = cached_reference(inst, tmp_path)
        path = next(tmp_path.glob("*.kkt.csv"))
        save_kkt(path, KKTPoint(x=good.x, lam=np.zeros(3),
                                kkt_tol=good.kkt_tol))
        again = cached_reference(inst, tmp_path)
        assert again.lam.shape == (2,)
        np.testing.assert_allclose(again.lam, good.lam, rtol=0, atol=0)
