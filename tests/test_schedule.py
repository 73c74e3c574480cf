"""Tests for the extrapolation schedules and their growth certification.

Every rule is checked against hand-computed early terms, the growth
condition (t_{k+1}^2 - t_k^2 <= rho t_{k+1}) is certified numerically, and
the damping resolution eta -> [rho, 1] is pinned for both regimes.
"""

from dataclasses import replace

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

    def test_scalar_fallback(self):
        """Rules that only accept scalar k are evaluated pointwise."""
        sched = custom_schedule(lambda k: 1.0 + (float(k) - 1.0) / 4.0)
        t = generate(sched, 8)
        np.testing.assert_allclose(t, 1.0 + np.arange(8) / 4.0, rtol=1e-15)

    def test_user_rho_below_measured_rejected(self):
        """A supplied rho must dominate the measured growth supremum."""
        sched = custom_schedule(lambda k: 1.0 + (k - 1.0) / 2.0, rho=0.5)
        with pytest.raises(ScheduleError):
            resolve(sched, 1000)

    def test_unknown_rule_rejected(self):
        """Schedules constructed with a bogus rule name fail generation."""
        with pytest.raises(ScheduleError):
            generate(Schedule(rule="fibonacci"), 10)


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

    def test_unit_scaling_matches_base(self):
        """xi = 1 reduces the scaled condition to the plain one."""
        scaled = replace(chambolle_dossal(10.0), xi=np.ones_like)
        t, xi = generate_scaled(scaled, 100)
        np.testing.assert_allclose(xi, 1.0, rtol=0, atol=0)
        rho_s = certify_rho(scaled, 10_000)
        rho = certify_rho(chambolle_dossal(10.0), 10_000)
        np.testing.assert_allclose(rho_s, rho, rtol=1e-12)

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
