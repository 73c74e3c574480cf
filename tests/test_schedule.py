"""Tests for the extrapolation schedules and their growth certification.

Every rule is checked against hand-computed early terms, the growth
condition (t_{k+1}^2 - t_k^2 <= rho t_{k+1}) is certified numerically, and
the damping resolution eta -> [rho, 1] is pinned for both regimes.
"""

import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from aalm import (
    Schedule,
    ScheduleError,
    attouch_cabot,
    certify_rho,
    chambolle_dossal,
    coefficients,
    custom_schedule,
    generate,
    generate_scaled,
    nesterov,
    resolve,
    resolve_eta,
)
from aalm import schedule as schedule_module
from aalm.schedule import baseline


class TestNesterov:
    """The classical recurrence t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2."""

    def test_first_terms(self):
        """t_1 = 1 and t_2 is the golden ratio (1 + sqrt(5)) / 2."""
        t = generate(nesterov(), 5)
        np.testing.assert_allclose(float(t[0]), 1.0, rtol=0, atol=0)
        np.testing.assert_allclose(float(t[1]), (1.0 + np.sqrt(5.0)) / 2.0,
                                   rtol=1e-15)

    def test_defining_identity(self):
        """The recurrence makes t_{k+1}^2 - t_k^2 - t_{k+1} vanish."""
        t = generate(nesterov(), 10_000)
        excess = np.abs(t[1:] ** 2 - t[:-1] ** 2 - t[1:])
        assert float(excess.max()) <= 1e-9

    def test_certifies_at_rho_one(self):
        """The growth ratio equals 1, so certification returns rho_hat ~ 1."""
        rho_hat = certify_rho(nesterov(), 10_000)
        np.testing.assert_allclose(rho_hat, 1.0, rtol=0, atol=1e-9)

    def test_linear_growth(self):
        """t_k grows like k/2, so t_1000 lies near 500."""
        t = generate(nesterov(), 1000)
        assert 490 < float(t[-1]) < 510

    def test_memoized_prefix_bit_identical(self):
        """Every horizon reads the same extended-precision bits as a fresh
        iteration of the recurrence, also past an extension of the shared
        prefix, and the values handed out are read-only."""
        half, one, four = (np.longdouble(v) for v in (0.5, 1.0, 4.0))
        fresh = [one]
        for _ in range(2999):
            fresh.append(half * (one + np.sqrt(one + four * fresh[-1]
                                                * fresh[-1])))
        fresh = np.array(fresh, dtype=np.longdouble)
        known = schedule_module._nesterov_cache.size
        longer = generate(nesterov(), max(known, 3000) + 10)
        assert np.array_equal(generate(nesterov(), 3000), fresh)
        assert np.array_equal(longer[:3000], fresh)
        cur = longer[-11]
        for value in longer[-10:]:
            cur = half * (one + np.sqrt(one + four * cur * cur))
            assert value == cur
        assert longer.dtype == np.longdouble
        assert not longer.flags.writeable


class TestChambolleDossal:
    """The affine rule t_k = (k + alpha - 2) / (alpha - 1), alpha > 2."""

    def test_early_terms(self):
        """alpha = 10 gives t_1 = 1, t_2 = 10/9, t_3 = 11/9."""
        t = generate(chambolle_dossal(10.0), 3)
        np.testing.assert_allclose(t, [1.0, 10.0 / 9.0, 11.0 / 9.0],
                                   rtol=1e-15)

    def test_alpha_at_most_two_rejected(self):
        """The rule needs alpha > 2 for the growth condition to hold."""
        with pytest.raises(ScheduleError):
            chambolle_dossal(2.0)

    def test_growth_approaches_two_over_alpha_minus_one(self):
        """The growth ratio increases towards 2/(alpha-1) from below."""
        rho_hat = certify_rho(chambolle_dossal(10.0), 10_000)
        assert 0.222 < rho_hat < 2.0 / 9.0

    def test_exact_second_differences_for_binary_alpha(self):
        """With alpha - 1 a power of two the increments are exactly equal."""
        t = generate(chambolle_dossal(5.0), 500)
        assert np.all(np.diff(t, 2) == 0.0)

    def test_second_differences_near_zero_generally(self):
        """For generic alpha the affine rule is flat to a few ulps."""
        for alpha in (10.0, 3.7):
            t = generate(chambolle_dossal(alpha), 500)
            eps = np.finfo(float).eps
            assert np.abs(np.diff(t, 2)).max() <= 4 * eps * float(t[-1])


class TestAttouchCabot:
    """The clamped rule t_k = max(1, (k - 1) / (alpha - 1)), alpha > 1."""

    def test_plateau_then_ramp(self):
        """For alpha = 4 the sequence sits at 1 through k = 4, then ramps."""
        t = generate(attouch_cabot(4.0), 20)
        np.testing.assert_allclose(t[:4], 1.0, rtol=0, atol=0)
        np.testing.assert_allclose(t[4], 4.0 / 3.0, rtol=1e-15)

    def test_alpha_at_most_one_rejected(self):
        """The ramp needs alpha > 1."""
        with pytest.raises(ScheduleError):
            attouch_cabot(1.0)

    def test_growth_supremum(self):
        """The ratio tends to 2/(alpha-1) from below across the clamp."""
        rho_hat = certify_rho(attouch_cabot(4.0), 10_000)
        assert 0.66 < rho_hat < 2.0 / 3.0

    def test_alpha_two_fails_certification(self):
        """alpha = 2 gives ratio (2k-1)/k > 1: the condition is violated."""
        with pytest.raises(ScheduleError) as exc:
            certify_rho(attouch_cabot(2.0), 1000)
        assert exc.value.index is not None

    def test_alpha_three_certifies_just_under_one(self):
        """alpha = 3 has ratio (2k-1)/(2k), approaching 1 from below."""
        rho_hat = certify_rho(attouch_cabot(3.0), 10_000)
        assert 0.999 < rho_hat <= 1.0


class TestCustomAndValidation:
    """User-supplied rules go through the same shape checks as built-ins."""

    def test_constant_growth_rule(self):
        """t_k = 1 + (k-1)/2 has factored ratio below 1, so rho = 1 works."""
        sched = custom_schedule(lambda k: 1.0 + (k - 1.0) / 2.0, rho=1.0)
        resolved = resolve(sched, 1000)
        assert resolved.rho == 1.0
        assert resolved.eta == 1.0

    def test_wrong_start_rejected(self):
        """A sequence with t_1 != 1 is rejected with index 1."""
        with pytest.raises(ScheduleError) as exc:
            generate(custom_schedule(lambda k: k + 1.0), 10)
        assert exc.value.index == 1

    def test_decreasing_rejected(self):
        """A decreasing sequence violates monotone growth."""
        with pytest.raises(ScheduleError):
            generate(custom_schedule(lambda k: 2.0 - k + (k == 1)), 10)

    def test_stalled_rejected(self):
        """A constant sequence never grows without bound."""
        with pytest.raises(ScheduleError):
            generate(custom_schedule(lambda k: np.ones_like(k)), 50)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_term_rejected(self, bad):
        """A NaN or infinite ``t_k`` is rejected where the sequence is
        generated, with its index, before certification meets it (an
        infinite ``t_7`` used to raise a numpy RuntimeWarning there)."""
        rule = custom_schedule(lambda k: np.where(k == 7, bad, k))
        for check in (lambda: generate(rule, 20),
                      lambda: generate_scaled(rule, 20),
                      lambda: certify_rho(rule, 20),
                      lambda: resolve(rule, 20)):
            with pytest.raises(ScheduleError,
                               match="t_7 = .* not finite") as exc:
                check()
            assert exc.value.index == 7

    def test_scalar_fallback(self):
        """Rules that only accept scalar k are evaluated pointwise."""
        sched = custom_schedule(lambda k: 1.0 + (float(k) - 1.0) / 4.0)
        t = generate(sched, 8)
        np.testing.assert_allclose(t, 1.0 + np.arange(8) / 4.0, rtol=1e-15)

    def test_squared_dip_rejected(self):
        """A dip in t_k within CERT_TOL passes the shape checks, but at
        t_k ~ 1000 it takes t_k^2 down by about 1e-9: certification
        rejects it and names the step."""
        sched = custom_schedule(
            lambda k: 1.0 + (np.minimum(k, 2000.0) - 1.0) / 2.0
            + np.maximum(k - 2001.0, 0.0) / 2.0 - 5e-13 * (k == 2001))
        t = generate(sched, 10_000)
        assert -1e-12 < t[2000] - t[1999] < 0
        with pytest.raises(ScheduleError,
                           match="t_k\\^2 xi_k decreases at k=2000") as exc:
            certify_rho(sched, 10_000)
        assert exc.value.index == 2000

    def test_user_rho_below_measured_rejected(self):
        """A supplied rho must dominate the measured growth supremum."""
        sched = custom_schedule(lambda k: 1.0 + (k - 1.0) / 2.0, rho=0.5)
        with pytest.raises(ScheduleError):
            resolve(sched, 1000)

    def test_unknown_rule_rejected(self):
        """Schedules constructed with a bogus rule name fail generation."""
        with pytest.raises(ScheduleError):
            generate(Schedule(rule="fibonacci"), 10)

    @pytest.mark.parametrize("k_max", [0, 1])
    @pytest.mark.parametrize("xi", [None, np.ones_like])
    def test_certification_needs_two_terms(self, k_max, xi):
        """A horizon of fewer than two terms measures no growth ratio, so
        certification refuses it instead of reporting rho_hat = 0."""
        with pytest.raises(ScheduleError, match=f"k_max .*got {k_max}"):
            certify_rho(replace(nesterov(), xi=xi), k_max)


class TestResolveEta:
    """Damping resolution: None/'critical' -> rho, 'noncritical' -> midpoint."""

    def test_default_is_critical(self):
        assert resolve_eta(None, 0.4) == 0.4

    def test_critical_keyword(self):
        assert resolve_eta("critical", 2.0 / 9.0) == 2.0 / 9.0

    def test_noncritical_keyword(self):
        """'noncritical' lands at the midpoint (rho + 1) / 2."""
        np.testing.assert_allclose(resolve_eta("noncritical", 2.0 / 9.0),
                                   (2.0 / 9.0 + 1.0) / 2.0, rtol=1e-15)

    def test_numeric_in_range(self):
        assert resolve_eta(0.7, 0.5) == 0.7

    def test_below_rho_rejected(self):
        """eta < rho breaks the energy contraction; rejected."""
        with pytest.raises(ScheduleError):
            resolve_eta(0.3, 0.5)

    def test_above_one_rejected(self):
        with pytest.raises(ScheduleError):
            resolve_eta(1.2, 0.5)

    def test_unknown_keyword_rejected(self):
        with pytest.raises(ScheduleError):
            resolve_eta("overdamped", 0.5)


class TestResolveAndCoefficients:
    """End-to-end schedule resolution and the per-iteration coefficients."""

    def test_nesterov_resolves_critical(self):
        """Default Nesterov settles at rho = eta = 1."""
        resolved = resolve(nesterov(), 500)
        assert resolved.rho == 1.0
        assert resolved.eta == 1.0

    def test_cd_noncritical_midpoint(self):
        """CD(10) with 'noncritical' resolves eta to (rho_hat + 1) / 2."""
        resolved = resolve(chambolle_dossal(10.0, eta="noncritical"), 500)
        assert resolved.rho < 2.0 / 9.0
        np.testing.assert_allclose(resolved.eta, (resolved.rho + 1.0) / 2.0,
                                   rtol=1e-15)

    @pytest.mark.parametrize("budget", [None, 1, 500, 5000])
    def test_baseline_resolves_at_one(self, budget):
        """The baseline t_k = 1 keeps its rho = eta = 1 over every
        horizon: alpha_k = 0 and c_k = 1."""
        resolved = resolve(baseline(), budget)
        assert (resolved.rho, resolved.eta) == (1.0, 1.0)
        assert coefficients(1.0, resolved.eta) == (0.0, 1.0)

    def test_baseline_alone_is_exempt_from_growth(self):
        """generate gives the baseline its ones (certified rho_hat = 0),
        but a custom rule of ones is still stalled, and the baseline is
        no rule a config names."""
        t = generate(baseline(), 50)
        assert t.dtype == np.float64 and np.all(t == 1.0)
        assert certify_rho(baseline(), 50) == 0.0
        with pytest.raises(ScheduleError, match="strictly increasing"):
            generate(custom_schedule(np.ones_like), 50)
        assert "baseline" not in schedule_module.SCHEDULE_RULES
        with pytest.raises(ScheduleError, match="unknown schedule rule"):
            schedule_module.named_schedule("baseline")

    def test_coefficients_pinned(self):
        """t_{k+1} = 11/9, eta = 2/9 give alpha = 9/2 and c = 11/2."""
        alpha, c = coefficients(11.0 / 9.0, 2.0 / 9.0)
        np.testing.assert_allclose(alpha, 4.5, rtol=1e-14)
        np.testing.assert_allclose(c, 5.5, rtol=1e-14)

    def test_c_is_exactly_one_plus_alpha(self):
        """The identity c = 1 + alpha holds bitwise, not just to rounding."""
        rng = np.random.default_rng(7)
        for _ in range(50):
            t_next = 1.0 + 10.0 * rng.random()
            eta = 0.1 + 0.9 * rng.random()
            alpha, c = coefficients(t_next, eta)
            assert c == 1.0 + alpha


class TestScaledSchedules:
    """Certification of t_k^2 xi_k growth for the scaled variant."""

    @pytest.mark.parametrize("horizon", [3001, 10_000, 20_000, 30_000])
    @pytest.mark.parametrize("base", [
        chambolle_dossal(10.0), chambolle_dossal(3.5), attouch_cabot(10.0),
        nesterov()], ids=["cd10", "cd3.5", "ac10", "nesterov"])
    def test_unit_scaling_matches_base(self, base, horizon):
        """xi = 1 certifies bitwise as no xi: one arithmetic serves both,
        with ``* 1.0`` and ``+ 0.0`` where the factors enter."""
        scaled = replace(base, xi=np.ones_like)
        t, xi = generate_scaled(scaled, 100)
        np.testing.assert_allclose(xi, 1.0, rtol=0, atol=0)
        assert certify_rho(scaled, horizon) == certify_rho(base, horizon)

    def test_scalar_only_xi(self):
        """A stepsize rule that takes scalars only (``math.sqrt``) is
        applied element by element, bitwise as its vectorized twin."""
        scalar = replace(chambolle_dossal(10.0), xi=math.sqrt)
        vector = replace(chambolle_dossal(10.0), xi=np.sqrt)
        for got, want in zip(generate_scaled(scalar, 2001),
                             generate_scaled(vector, 2001)):
            np.testing.assert_array_equal(got, want)
        assert resolve(scalar, 200) == replace(resolve(vector, 200),
                                               xi=math.sqrt)

    @pytest.mark.parametrize("base, xi", [
        (chambolle_dossal(10.0), np.sqrt),
        (chambolle_dossal(10.0), lambda t: t ** -0.5),
        (attouch_cabot(10.0), lambda t: t)],
        ids=["cd10-sqrt", "cd10-inverse-sqrt", "ac10-linear"])
    def test_scaled_rho_is_exact_supremum(self, base, xi):
        """The certified rho lies within one ulp of the exact supremum of
        (t_{k+1}^2 xi_{k+1} - t_k^2 xi_k) / (t_{k+1} xi_{k+1}) over the
        same float arrays, evaluated in rational arithmetic."""
        scaled = replace(base, xi=xi)
        t, x = generate_scaled(scaled, 10_000)
        t = [Fraction(v) for v in t.tolist()]
        x = [Fraction(v) for v in x.tolist()]
        exact = max((t1 * t1 * x1 - t0 * t0 * x0) / (t1 * x1)
                    for t0, t1, x0, x1 in zip(t, t[1:], x, x[1:]))
        rho = certify_rho(scaled, 10_000)
        assert abs(Fraction(rho) - exact) <= Fraction(np.spacing(rho))

    def test_sqrt_scaling_certifies_on_cd(self):
        """xi_k = sqrt(t_k) on CD(10) keeps the scaled ratio near 5/18."""
        scaled = replace(chambolle_dossal(10.0), xi=np.sqrt)
        rho_s = certify_rho(scaled, 10_000)
        assert 0.25 < rho_s < 2.5 / 9.0

    def test_sqrt_scaling_fails_on_nesterov(self):
        """On Nesterov the scaled ratio tends to 5/4 > 1: rejected."""
        scaled = replace(nesterov(), xi=np.sqrt)
        with pytest.raises(ScheduleError):
            certify_rho(scaled, 2000)

    def test_nonpositive_xi_rejected(self):
        """Scaling factors must be strictly positive."""
        scaled = replace(chambolle_dossal(10.0), xi=lambda t: t - 5.0)
        with pytest.raises(ScheduleError):
            generate_scaled(scaled, 10)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_xi_rejected(self, bad):
        """A NaN or infinite ``xi_k`` is rejected with its index (a NaN
        ``xi`` used to surface as ``eta must lie in [nan, 1]``)."""
        scaled = replace(chambolle_dossal(10.0),
                         xi=lambda t: np.where(t > 1.3, bad, 1.0))
        k = 1 + int(np.argmax(generate(scaled, 20) > 1.3))
        for check in (lambda: generate_scaled(scaled, 20),
                      lambda: certify_rho(scaled, 20),
                      lambda: resolve(scaled, 20)):
            with pytest.raises(ScheduleError,
                               match=f"xi_{k} = .* not finite") as exc:
                check()
            assert exc.value.index == k

    def test_initial_product_must_be_one(self):
        """t_1^2 xi_1 = 1 anchors the scaled energy; xi_1 != 1 fails."""
        scaled = replace(chambolle_dossal(10.0),
                         xi=lambda t: 2.0 * np.ones_like(t))
        with pytest.raises(ScheduleError):
            certify_rho(scaled, 100)

    def test_supplied_rho_states_scaled_growth(self):
        """On a schedule with ``xi`` a supplied rho is the growth constant
        of t_k^2 xi_k: Nesterov's built-in rho = 1 is verified against the
        scaled growth (0.83 at k=1 for xi = t^-1/2) and kept, so the
        critical eta is 1 rather than the measured constant."""
        scaled = replace(nesterov(), xi=lambda t: t ** -0.5)
        assert 0.8 < certify_rho(scaled, 10_000) < 0.84
        resolved = resolve(scaled)
        assert resolved.rho == 1.0
        assert resolved.eta == 1.0

    def test_supplied_rho_below_scaled_growth_rejected(self):
        """rho = 0.23 covers CD(10)'s plain growth (2/9) but not its
        growth under xi = sqrt(t) (about 5/18): rejected."""
        plain = replace(chambolle_dossal(10.0), rho=0.23)
        assert resolve(plain).rho == 0.23
        with pytest.raises(ScheduleError, match="below the measured growth"):
            resolve(replace(plain, xi=np.sqrt))

    def test_growth_exponent_boundary(self):
        """On CD(10) the scaled ratio tends to (2 + a)/9 for xi = t^a, so
        a = 1 certifies near 1/3 while a = 8 crosses 1 and is rejected."""
        ok = replace(chambolle_dossal(10.0), xi=lambda t: t)
        assert 0.3 < certify_rho(ok, 10_000) < 1.0 / 3.0
        bad = replace(chambolle_dossal(10.0), xi=lambda t: t ** 8)
        with pytest.raises(ScheduleError):
            certify_rho(bad, 10_000)


CHUNK = schedule_module.CERT_CHUNK
CERT_TOL = schedule_module.CERT_TOL


def _whole_array_certificate(schedule, k_max):
    """``certify_rho``'s arithmetic over the whole horizon at once: the
    reference its sliced evaluation must reproduce bitwise, errors
    included."""
    t, xi = generate_scaled(schedule, k_max)
    s1 = t[0] * t[0] * xi[0]
    if abs(s1 - 1.0) > CERT_TOL:
        raise ScheduleError(f"t_1^2 xi_1 must equal 1, got {s1}", index=1)
    t0, t1, xi0, xi1 = t[:-1], t[1:], xi[:-1], xi[1:]
    ds = (t1 - t0) * (t1 + t0) * xi1 + t0 * t0 * (xi1 - xi0)
    if ds.min() < -CERT_TOL:
        i = 1 + int(np.argmax(ds < -CERT_TOL))
        raise ScheduleError(f"t_k^2 xi_k decreases at k={i}", index=i)
    ratio = ds / (t1 * xi1)
    rho_hat = float(ratio.max())
    if rho_hat > 1.0 + CERT_TOL:
        k = 1 + int(np.argmax(ratio > 1.0 + CERT_TOL))
        raise ScheduleError(
            f"growth condition fails at k={k}: (t_{k + 1}^2 xi_{k + 1} - "
            f"t_{k}^2 xi_{k})/(t_{k + 1} xi_{k + 1}) = {ratio[k - 1]:.6g} > 1",
            index=k)
    return rho_hat


def _linear(k):
    """CD(10)'s ``t_k = (k + 8) / 9`` as a custom rule."""
    return (k + 8.0) / 9.0


def _jump_at(j):
    """``t_k`` of CD(10) plus 1 beyond ``k = j``: the growth ratio at
    ``k = j`` exceeds 1 and is the only one that does."""
    return lambda k: _linear(k) + (k > j)


def _dip_at(j):
    """Stepsize factors with ``xi_{j+1} = 1/2`` and 1 elsewhere: ``t_k^2
    xi_k`` decreases at ``k = j`` and nowhere else."""
    return lambda t: np.where(np.arange(1, t.size + 1) == j + 1, 0.5, 1.0)


@pytest.mark.parametrize("sched", [nesterov(), chambolle_dossal(10.0),
                                   custom_schedule(_linear)],
                         ids=["nesterov", "cd10", "custom"])
def test_unit_factors_are_float64(sched):
    """A schedule without stepsize factors gets ``xi = 1`` in float64,
    whatever the dtype of its ``t`` (Nesterov's is a view of a
    ``longdouble`` prefix): 8 bytes per term over a certification
    horizon, not 16."""
    t, xi = generate_scaled(sched, 20_000)
    assert xi.dtype == np.float64 and xi.shape == t.shape
    assert np.all(xi == 1.0)


class TestSlicedCertificate:
    """``certify_rho`` evaluates its ratios ``CERT_CHUNK`` terms at a time;
    its result and its errors are the whole-array formula's, bitwise."""

    HORIZONS = (2, CHUNK, CHUNK + 1, CHUNK + 2, 2 * CHUNK + 1, 20_000,
                100_000)

    @pytest.mark.parametrize("sched", [
        nesterov(), chambolle_dossal(10.0), chambolle_dossal(3.5),
        attouch_cabot(10.0), custom_schedule(lambda k: (k + 1.0) / 2.0),
        replace(chambolle_dossal(10.0), xi=np.sqrt),
        replace(chambolle_dossal(10.0), xi=lambda t: t ** -0.5)],
        ids=["nesterov", "cd10", "cd3.5", "ac10", "custom", "cd10-sqrt",
             "cd10-inverse-sqrt"])
    def test_rho_is_whole_array_formula(self, sched):
        """``rho_hat`` is bitwise the whole-array result at horizons on
        both sides of each slice boundary and at 2e4 and 1e5 terms (or
        both raise alike: AC(10) stalls at ``t_1 = t_2 = 1``)."""
        def outcome(certify, horizon):
            try:
                return certify(sched, horizon).hex()
            except ScheduleError as e:
                return str(e), e.index

        for horizon in self.HORIZONS:
            assert (outcome(certify_rho, horizon)
                    == outcome(_whole_array_certificate, horizon)), horizon

    @pytest.mark.parametrize("kind", ["growth", "dip"])
    @pytest.mark.parametrize("k", [100, CHUNK, CHUNK + 1, 19_999],
                             ids=["first-slice", "last-of-slice",
                                  "first-of-next", "last-slice"])
    def test_planted_failure_matches_whole_array(self, kind, k):
        """A failure planted at step ``k`` in the first slice, on either
        side of the first slice boundary or at the last ratio of a
        20000-term horizon raises the whole-array message and index."""
        if kind == "growth":
            sched = custom_schedule(_jump_at(k))
        else:
            sched = replace(custom_schedule(_linear), xi=_dip_at(k))
        with pytest.raises(ScheduleError) as want:
            _whole_array_certificate(sched, 20_000)
        with pytest.raises(ScheduleError) as got:
            certify_rho(sched, 20_000)
        assert want.value.index == k
        assert (str(got.value), got.value.index) == (str(want.value), k)
        word = "growth condition fails" if kind == "growth" else "decreases"
        assert word in str(got.value)

    def test_later_dip_outranks_earlier_growth(self):
        """A growth violation in the first slice and a ``t_k^2 xi_k`` dip
        in the second: the dip is the error reported, as over the whole
        array, although the slice that holds the violation is seen
        first."""
        sched = replace(custom_schedule(_jump_at(100)),
                        xi=_dip_at(CHUNK + 50))
        with pytest.raises(ScheduleError) as want:
            _whole_array_certificate(sched, 20_000)
        with pytest.raises(ScheduleError,
                           match=f"decreases at k={CHUNK + 50}") as got:
            certify_rho(sched, 20_000)
        assert got.value.index == want.value.index == CHUNK + 50
        assert str(got.value) == str(want.value)

    def test_working_memory_is_one_slice(self):
        """Certifying Nesterov over 100000 terms, its prefix warmed,
        allocates at most 3 MB at its peak: ``xi`` (1.6 MB of
        ``longdouble``) and one slice, not the 6.4 MB of whole-horizon
        temporaries."""
        certify_rho(nesterov(), 100_000)
        tracemalloc.start()
        try:
            certify_rho(nesterov(), 100_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3e6, peak


class TestNonFiniteCertificate:
    """``certify_rho`` never returns NaN: the horizon ends before the first
    step whose ``t_{k+1}^2 xi_{k+1}`` or growth ratio is not finite."""

    def test_violation_before_overflow_is_raised(self):
        """``t_k = 1.04^(k-1)``: ``t_k^2`` overflows from about k = 9050
        while ``t_k`` stays finite, and the growth ratio exceeds 1 from
        k = 66; that violation is the error at 2000 and 10000 terms, and
        ``resolve`` raises it too."""
        sched = custom_schedule(lambda k: 1.04 ** (k - 1.0))
        for horizon in (2000, 10_000):
            with pytest.raises(ScheduleError,
                               match="growth condition fails at k=66") as e:
                certify_rho(sched, horizon)
            assert e.value.index == 66
        with pytest.raises(ScheduleError, match="k=66"):
            resolve(sched, 70)

    def test_overflow_without_violation_names_step(self):
        """``t_k = 1 + 1e-4 (k-1)`` with ``xi_k = e^{0.07096 (k-1)}``:
        every growth ratio is at most 0.14, but ``t_k^2 xi_k`` overflows
        from k = 9985 while ``xi_k`` stays finite.  The error names the
        step into that term; a 9000-term horizon certifies."""
        a = 709.5 / 9999
        sched = replace(custom_schedule(lambda k: 1.0 + 1e-4 * (k - 1.0)),
                        xi=lambda t: np.exp(a * (t - 1.0) / 1e-4))
        t, xi = generate_scaled(sched, 10_000)
        with np.errstate(over="ignore"):
            first = 1 + int(np.argmax(~np.isfinite(t * t * xi)))
        assert first == 9985 and np.isfinite(xi).all()
        with pytest.raises(ScheduleError, match="not finite") as e:
            certify_rho(sched, 10_000)
        assert e.value.index == first - 1
        assert f"t_{first}^2 xi_{first}" in str(e.value)
        assert 0 < certify_rho(sched, 9000) < 0.14
