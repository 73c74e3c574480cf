"""Tests for the convergence diagnostics: gap, energy, rates, witnesses.

The gap and energy are pinned on a worked two-variable QP, the rate
fitter is checked on synthetic exact power laws, and the little-o witness
on sequences with known decay.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from aalm import (
    TraceRecord,
    fit_rate,
    gap,
    kkt_solve_qp,
    littleo_witness,
    make_qp,
    make_random_lp,
    make_random_qp,
    make_ring_logistic,
    stationarity,
)
from aalm.diagnostics import (TRACE_FIELDS, energy, make_record,
                              make_records, mnorm_sq)
from aalm.problems import KKTPoint
from aalm.solver import StoppingRule, _block_rows


def _worked_qp():
    """min ||x||^2/2 s.t. x_1 = 1: KKT pair x* = (1, 0), lam* = -1."""
    inst = make_qp(np.eye(2), np.zeros(2), np.array([[1.0, 0.0]]),
                   np.array([1.0]))
    kkt = kkt_solve_qp(np.eye(2), np.zeros(2), np.array([[1.0, 0.0]]),
                       np.array([1.0]))
    return inst, kkt


def _synthetic_trace(power, k_max=300, scale=2.0):
    """Records with feas = scale / t_k^power on t_k = k / 3."""
    out = []
    for k in range(1, k_max + 1):
        t = k / 3.0
        v = scale / t ** power
        out.append(TraceRecord(k=k, t_k=t, feas=v, obj_res=v, stat_res=v,
                               gap_H=v, energy_E=v, step_norm_M=v,
                               scaled_feas=t ** 2 * v))
    return out


class TestMNorm:
    """||z||_M^2 = ||x||^2/gamma + ||lam||^2/delta."""

    def test_hand_value(self):
        np.testing.assert_allclose(
            mnorm_sq(np.array([3.0]), np.array([4.0]), 0.5, 2.0), 26.0,
            rtol=1e-15)


class TestGap:
    """H(x) = f(x) - f* + <lam*, Ax - b> + (beta/2)||Ax - b||^2."""

    def test_worked_example(self):
        """At x = (0,0) with beta = 1: H = -1/2 + 1 + 1/2 = 1."""
        inst, kkt = _worked_qp()
        np.testing.assert_allclose(kkt.x, [1.0, 0.0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(kkt.lam, [-1.0], rtol=0, atol=1e-12)
        H = gap(inst, kkt, 1.0, np.zeros(2))
        np.testing.assert_allclose(H, 1.0, rtol=1e-12)

    def test_zero_at_solution(self):
        inst, kkt = _worked_qp()
        np.testing.assert_allclose(gap(inst, kkt, 1.0, kkt.x), 0.0,
                                   rtol=0, atol=1e-12)

    def test_nonnegative_everywhere(self):
        """The saddle inequality makes H >= 0 even off the constraint."""
        inst, kkt = _worked_qp()
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = 3.0 * rng.normal(size=2)
            assert gap(inst, kkt, 1.0, x) >= -1e-12

    def test_precomputed_values_respected(self):
        """Passing f_x/f_star skips the oracle evaluations."""
        inst, kkt = _worked_qp()
        H = gap(inst, kkt, 0.0, np.zeros(2), f_x=7.0, f_star=2.0)
        np.testing.assert_allclose(H, 7.0 - 2.0 + 1.0, rtol=1e-15)


class TestStationarity:
    """||grad f(x) + A' lam||."""

    def test_worked_example(self):
        """x = (1, 0), lam = 0 on the worked QP: ||x|| = 1."""
        inst, _ = _worked_qp()
        np.testing.assert_allclose(
            stationarity(inst, np.array([1.0, 0.0]), np.zeros(1)), 1.0,
            rtol=1e-15)

    def test_invariant_to_null_space_shift(self):
        """Shifting lam inside null(A') leaves the residual unchanged:
        on the symmetric ring operator that null space is the agreement
        directions."""
        inst = make_ring_logistic(p_agents=4, m_dim=2, rho_reg=0.5, seed=0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=8)
        lam = rng.normal(size=8)
        shift = np.tile(rng.normal(size=2), 4)
        s0 = stationarity(inst, x, lam)
        s1 = stationarity(inst, x, lam + shift)
        np.testing.assert_allclose(s1, s0, rtol=1e-12)


class TestEnergy:
    """E_k = t_k^2 xi_k H_k + ||w_k||_M^2/2 + eta(1-eta)/2 ||z_k-z*||_M^2."""

    def test_initial_energy_formula(self):
        """At k = 1 (t = 1, z_0 = z_1):
        E_1 = H_1 + (eta/2gamma)||x1-x*||^2 + (eta/2delta)||lam1-lam*||^2."""
        inst, kkt = _worked_qp()
        rng = np.random.default_rng(5)
        x1 = rng.normal(size=2)
        lam1 = rng.normal(size=1)
        gamma, delta, eta, beta = 0.7, 1.3, 0.6, 1.0
        E1 = energy(inst, kkt, gamma, delta, eta, beta, 1.0, x1, x1, lam1,
                    lam1)
        H1 = gap(inst, kkt, beta, x1)
        expect = (H1 + eta / (2.0 * gamma) * np.sum((x1 - kkt.x) ** 2)
                  + eta / (2.0 * delta) * np.sum((lam1 - kkt.lam) ** 2))
        np.testing.assert_allclose(E1, expect, rtol=1e-12)

    def test_critical_damping_drops_distance_term(self):
        """eta = 1 kills the eta(1-eta) term; only H and w survive."""
        inst, kkt = _worked_qp()
        rng = np.random.default_rng(6)
        x, xp = rng.normal(size=2), rng.normal(size=2)
        lam, lamp = rng.normal(size=1), rng.normal(size=1)
        t = 4.0
        E = energy(inst, kkt, 1.0, 1.0, 1.0, 1.0, t, x, xp, lam, lamp)
        wx = (x - kkt.x) + (t - 1.0) * (x - xp)
        wl = (lam - kkt.lam) + (t - 1.0) * (lam - lamp)
        expect = (t ** 2 * gap(inst, kkt, 1.0, x)
                  + 0.5 * (wx @ wx + wl @ wl))
        np.testing.assert_allclose(E, expect, rtol=1e-12)

    def test_zero_at_rest_on_solution(self):
        """Sitting at the KKT pair with no motion gives E = 0."""
        inst, kkt = _worked_qp()
        E = energy(inst, kkt, 1.0, 1.0, 0.5, 1.0, 3.0, kkt.x, kkt.x,
                   kkt.lam, kkt.lam)
        np.testing.assert_allclose(E, 0.0, rtol=0, atol=1e-12)


class TestMakeRecord:
    """The assembled record agrees with the standalone diagnostics."""

    def test_fields_consistent(self):
        inst, kkt = _worked_qp()
        rng = np.random.default_rng(7)
        x, xp = rng.normal(size=2), rng.normal(size=2)
        lam, lamp = rng.normal(size=1), rng.normal(size=1)
        gamma, delta, eta, beta, t = 0.8, 1.1, 0.7, 1.0, 3.0
        rec = make_record(inst, 5, t, x, xp, lam, lamp, gamma, delta, eta,
                          beta, kkt=kkt)
        np.testing.assert_allclose(rec.feas,
                                   abs(inst.A @ x - inst.b)[0], rtol=1e-15)
        np.testing.assert_allclose(rec.stat_res, stationarity(inst, x, lam),
                                   rtol=1e-15)
        np.testing.assert_allclose(rec.gap_H, gap(inst, kkt, beta, x),
                                   rtol=1e-12)
        np.testing.assert_allclose(
            rec.energy_E,
            energy(inst, kkt, gamma, delta, eta, beta, t, x, xp, lam, lamp),
            rtol=1e-12)
        np.testing.assert_allclose(
            rec.step_norm_M,
            math.sqrt(mnorm_sq(x - xp, lam - lamp, gamma, delta)),
            rtol=1e-15)
        np.testing.assert_allclose(rec.scaled_feas, t ** 2 * rec.feas,
                                   rtol=1e-15)

    def test_no_reference_gives_nan(self):
        inst, _ = _worked_qp()
        rec = make_record(inst, 2, 1.5, np.ones(2), np.zeros(2), np.ones(1),
                          np.zeros(1), 1.0, 1.0, 1.0, 1.0)
        assert math.isnan(rec.obj_res)
        assert math.isnan(rec.gap_H)
        assert math.isnan(rec.energy_E)
        assert math.isfinite(rec.feas) and math.isfinite(rec.stat_res)

    @pytest.mark.parametrize("family", ["qp", "lp", "ring-10x20"])
    def test_records_without_reference(self, family):
        """On blocks of 1 row and of the record row cap, records made
        without a reference agree bitwise with those made with one on
        every field the reference does not enter, and they form no
        objective values: the row form's ``values`` is called once per
        block with a reference and never without one."""
        inst = {"qp": lambda: make_random_qp(n=50, m=10, seed=0),
                "lp": lambda: make_random_lp(seed=0),
                "ring-10x20": lambda: make_ring_logistic(10, 20, 0.5,
                                                         seed=0)}[family]()
        rows, formed = inst.objective.rows, []

        def spy(X):
            G, values = rows(X)
            return G, lambda: formed.append(len(X)) or values()

        obj = replace(inst.objective)
        object.__setattr__(obj, "rows", spy)
        inst = replace(inst, objective=obj)
        rng = np.random.default_rng(11)
        kkt = KKTPoint(rng.normal(size=inst.dim),
                       rng.normal(size=inst.n_constraints), 0.0)
        same = ("k", "t_k", "feas", "stat_res", "step_norm_M",
                "scaled_feas")
        cap = _block_rows(inst, StoppingRule())
        for b in sorted({1, cap}):
            X = rng.normal(size=(b + 1, inst.dim))
            L = rng.normal(size=(b + 1, inst.n_constraints))
            t = 1.0 + rng.random(b)
            args = (inst, 3, t, np.sqrt(t), X, L, 0.8, 1.1, 0.7, 1.0)
            bare = make_records(*args)
            assert not formed
            full = make_records(*args, kkt=kkt)
            assert formed == [b]
            formed.clear()
            for f in same:
                assert (np.array([getattr(r, f) for r in bare]).tobytes()
                        == np.array([getattr(r, f) for r in full]).tobytes())
            assert all(math.isnan(r.gap_H) for r in bare)

    def test_trace_fields_schema(self):
        """The serialization schema is frozen."""
        assert TRACE_FIELDS == ("k", "t_k", "feas", "obj_res", "stat_res",
                                "gap_H", "energy_E", "step_norm_M",
                                "scaled_feas")


class TestTraceRecord:
    """A record is an immutable value in ``TRACE_FIELDS`` order."""

    VALUES = (7, 2.5, 0.1, float("nan"), 0.3, -0.0, 4.0, 0.5, 0.625)

    def test_keyword_and_positional_construction(self):
        by_name = TraceRecord(**dict(zip(TRACE_FIELDS, self.VALUES)))
        by_position = TraceRecord(*self.VALUES)
        assert by_name == by_position
        assert TraceRecord._fields == TRACE_FIELDS
        assert [getattr(by_name, f) for f in TRACE_FIELDS] == list(
            self.VALUES)
        with pytest.raises(TypeError):
            TraceRecord(*self.VALUES[:-1])

    def test_fields_cannot_be_set(self):
        rec = TraceRecord(*self.VALUES)
        for name in TRACE_FIELDS:
            with pytest.raises(AttributeError):
                setattr(rec, name, 1.0)

    def test_equality_and_hash_compare_field_tuples(self):
        """As for the frozen dataclass: records are equal when their field
        tuples are, and hash like them; a NaN field is equal only to the
        same float object."""
        rec = TraceRecord(*self.VALUES)
        same = TraceRecord(*self.VALUES)
        assert rec == same and hash(rec) == hash(same)
        assert hash(rec) == hash(self.VALUES)
        assert len({rec, same}) == 1
        assert rec != TraceRecord(8, *self.VALUES[1:])
        assert rec != TraceRecord(*self.VALUES[:3], float("nan"),
                                  *self.VALUES[4:])


class TestFitRate:
    """Log-log slope estimation on synthetic exact power laws."""

    def test_inverse_square(self):
        est = fit_rate(_synthetic_trace(2.0), "feas", (10, 300))
        np.testing.assert_allclose(est.slope, -2.0, rtol=0, atol=1e-9)
        assert est.r_squared >= 1.0 - 1e-12
        assert est.n_dropped == 0

    def test_inverse_cube(self):
        est = fit_rate(_synthetic_trace(3.0), "obj_res", (10, 300))
        np.testing.assert_allclose(est.slope, -3.0, rtol=0, atol=1e-9)

    def test_window_respected(self):
        est = fit_rate(_synthetic_trace(2.0), "feas", (50, 100))
        assert est.window == (50, 100)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="at least 5"):
            fit_rate(_synthetic_trace(2.0), "feas", (10, 13))

    def test_nonpositive_values_dropped_and_counted(self):
        trace = _synthetic_trace(2.0, k_max=50)
        trace[4] = TraceRecord(k=5, t_k=5 / 3.0, feas=0.0, obj_res=0.0,
                               stat_res=0.0, gap_H=0.0, energy_E=0.0,
                               step_norm_M=0.0, scaled_feas=0.0)
        est = fit_rate(trace, "feas", (1, 50))
        assert est.n_dropped == 1
        np.testing.assert_allclose(est.slope, -2.0, rtol=0, atol=1e-9)


class TestLittleoWitness:
    """t^2-weighted late/early ratio as a strict-decay witness."""

    def test_exact_inverse_square_is_one(self):
        """A C/t^2 sequence gives ratio exactly 1 (the negative control)."""
        r = littleo_witness(_synthetic_trace(2.0, k_max=2500), "feas",
                            200, 2000)
        np.testing.assert_allclose(r, 1.0, rtol=0, atol=1e-9)

    def test_inverse_cube_gives_t_ratio(self):
        """A C/t^3 sequence gives ratio t_early/t_late."""
        r = littleo_witness(_synthetic_trace(3.0, k_max=2500), "feas",
                            200, 2000)
        np.testing.assert_allclose(r, 200.0 / 2000.0, rtol=1e-12)

    def test_missing_k_rejected(self):
        with pytest.raises(ValueError, match="no record"):
            littleo_witness(_synthetic_trace(2.0, k_max=50), "feas", 10, 99)

    def test_zero_baseline(self):
        """Zero early and late -> 0.0; zero early, nonzero late -> error."""
        trace = _synthetic_trace(2.0, k_max=50)
        zero = TraceRecord(k=10, t_k=10 / 3.0, feas=0.0, obj_res=0.0,
                           stat_res=0.0, gap_H=0.0, energy_E=0.0,
                           step_norm_M=0.0, scaled_feas=0.0)
        trace[9] = zero
        with pytest.raises(ValueError, match="zero"):
            littleo_witness(trace, "feas", 10, 40)
        trace[39] = TraceRecord(k=40, t_k=40 / 3.0, feas=0.0, obj_res=0.0,
                                stat_res=0.0, gap_H=0.0, energy_E=0.0,
                                step_norm_M=0.0, scaled_feas=0.0)
        assert littleo_witness(trace, "feas", 10, 40) == 0.0
