"""Inertial parameter schedules for the accelerated augmented Lagrangian loop.

A schedule is a sequence ``t_1, t_2, ...`` driving the extrapolation weight
``(t_k - 1) / t_{k+1}`` and the dual coefficients of the solver.  Every rate
statement of the solver rests on the growth condition

    t_{k+1}^2 - t_k^2 <= rho * t_{k+1},    rho in (0, 1],

together with ``t_1 = 1``, ``t_k > 1`` for ``k > 2``, monotonicity and
``t_k -> +infty``.  The damping parameter ``eta in [rho, 1]`` selects the
regime: ``eta = rho`` is the critical choice (plain O(1/t^2) rates), while
``eta > rho`` buys the little-o refinements and iterate convergence.

Three named rules are built in:

* ``nesterov``:          t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2   (rho = 1)
* ``chambolle-dossal``:  t_k = (k + alpha - 2) / (alpha - 1),  alpha > 2
* ``attouch-cabot``:     t_k = (k - 1) / (alpha - 1),  alpha > 1, clamped
                         from below at 1 so that t_1 = 1 holds

plus user-supplied callables.  ``certify_rho`` measures the sharpest rho
over a finite horizon; it both validates user-provided values and fills in
rho when absent.

A schedule may also carry stepsize factors ``xi_k > 0``.  Rates are then
stated against ``t_k^2 xi_k``, and ``rho`` and ``certify_rho`` refer to its
growth condition, which ``xi=None`` (``xi_k = 1``) reduces to the one above:

    t_1^2 xi_1 = 1,   t_{k+1}^2 xi_{k+1} - t_k^2 xi_k <= rho t_{k+1} xi_{k+1}.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

import numpy as np

# Slack accepted when comparing a certified growth ratio against 1.
CERT_TOL = 1e-12

# Default certification horizon when none is implied by an iteration budget.
DEFAULT_HORIZON = 10_000

# Growth ratios that certify_rho evaluates at once: its working memory is
# one slice of this many terms, whatever the horizon.
CERT_CHUNK = 4096


class ScheduleError(ValueError):
    """Raised when a schedule violates the growth assumption.

    Attributes
    ----------
    index : int or None
        1-based iteration index at which the violation occurred, when the
        failure is tied to a specific step.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class Schedule:
    """An inertial sequence rule plus its certified parameters.

    Parameters
    ----------
    rule : str
        One of ``"nesterov"``, ``"chambolle-dossal"``, ``"attouch-cabot"``,
        ``"custom"``, or ``"baseline"`` (:func:`baseline`).
    alpha : float, optional
        Rule parameter for the affine families.
    fn : callable, optional
        For ``rule="custom"``: maps a 1-based index array to ``t_k`` values.
    rho : float, optional
        Growth constant in (0, 1].  ``None`` means "certify me": it is
        filled by :func:`resolve` from a finite-horizon measurement.
    eta : float or str or None
        Damping in [rho, 1].  ``None`` or ``"critical"`` resolves to
        ``rho``; ``"noncritical"`` resolves to ``(rho + 1) / 2``.
    xi : callable, optional
        Stepsize factors: maps the generated ``t`` array to ``xi_k > 0``
        (e.g. ``xi = sqrt`` gives ``xi_k = t_k^{1/2}``); a rule that takes
        scalars only is applied element by element.  ``None`` means
        ``xi_k = 1``, and certifies exactly as a unit ``xi``; any ``xi``,
        a unit one included, runs in the implicit case only.
    """

    rule: str
    alpha: Optional[float] = None
    fn: Optional[Callable] = None
    rho: Optional[float] = None
    eta: Union[float, str, None] = None
    xi: Optional[Callable] = None


def nesterov(eta=None):
    """The classical recurrence ``t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2``.

    Satisfies the growth condition with equality at ``rho = 1``, so the
    critical damping ``eta = 1`` is the only admissible choice of regime
    up to the certified rho.
    """
    return Schedule(rule="nesterov", rho=1.0, eta=eta)


def baseline():
    """``t_k = 1``, ``eta = 1``: the proximal ALM baseline, no momentum."""
    return Schedule(rule="baseline", rho=1.0, eta=1.0)


def chambolle_dossal(alpha, eta=None):
    """Affine rule ``t_k = (k + alpha - 2) / (alpha - 1)`` with ``alpha > 2``.

    The growth ratio ``(t_{k+1}^2 - t_k^2) / t_{k+1}`` increases towards
    ``2 / (alpha - 1)`` from below, so any ``rho >= 2 / (alpha - 1)`` works;
    ``resolve`` certifies the exact supremum over the horizon.
    """
    if alpha <= 2:
        raise ScheduleError(f"chambolle-dossal needs alpha > 2, got {alpha}")
    return Schedule(rule="chambolle-dossal", alpha=float(alpha), eta=eta)


def attouch_cabot(alpha, eta=None):
    """Affine rule ``t_k = max(1, (k - 1) / (alpha - 1))`` with ``alpha > 1``.

    The unclamped sequence starts at 0, so it is floored at 1 to meet the
    ``t_1 = 1`` convention; certification then checks the growth condition
    across the clamp junction as well.
    """
    if alpha <= 1:
        raise ScheduleError(f"attouch-cabot needs alpha > 1, got {alpha}")
    return Schedule(rule="attouch-cabot", alpha=float(alpha), eta=eta)


#: Named rules by every accepted spelling.
SCHEDULE_RULES = {"nesterov": nesterov, "chambolle-dossal": chambolle_dossal,
                  "cd": chambolle_dossal, "attouch-cabot": attouch_cabot,
                  "ac": attouch_cabot}


def named_schedule(rule, alpha=None, eta=None):
    """The schedule ``SCHEDULE_RULES[rule]``; ``alpha`` defaults to 10,
    and ``nesterov`` takes none."""
    if rule not in SCHEDULE_RULES:
        raise ScheduleError(f"unknown schedule rule {rule!r}")
    if rule == "nesterov":
        if alpha is not None:
            raise ScheduleError(f"nesterov takes no alpha, got {alpha}")
        return nesterov(eta=eta)
    return SCHEDULE_RULES[rule](10.0 if alpha is None else alpha, eta=eta)


def custom_schedule(fn, rho=None, eta=None):
    """Wrap a user rule ``fn: k -> t_k`` (1-based, accepts index arrays)."""
    return Schedule(rule="custom", fn=fn, rho=rho, eta=eta)


def generate(schedule, k_max):
    """Generate ``t_1 .. t_{k_max}`` and validate the shape constraints.

    Parameters
    ----------
    schedule : Schedule
    k_max : int
        Horizon; must be >= 1.

    Returns
    -------
    numpy.ndarray
        The values ``[t_1, ..., t_{k_max}]``; for ``nesterov`` a read-only
        ``longdouble`` view of a process-wide prefix.

    Raises
    ------
    ScheduleError
        If a value is not finite, or the sequence fails ``t_1 = 1``,
        monotonicity, or, unless it is ``baseline``, has a non-increasing
        tail (stalled growth: ``t_k`` must exceed 1 and grow without
        bound); the failing step's index is ``.index``.
    """
    if k_max < 1:
        raise ScheduleError(f"k_max must be >= 1, got {k_max}")
    k = np.arange(1, k_max + 1, dtype=float)
    if schedule.rule == "baseline":
        return np.ones_like(k)
    if schedule.rule == "nesterov":
        t = _nesterov_prefix(k_max)
    elif schedule.rule == "chambolle-dossal":
        t = (k + schedule.alpha - 2.0) / (schedule.alpha - 1.0)
    elif schedule.rule == "attouch-cabot":
        t = np.maximum(1.0, (k - 1.0) / (schedule.alpha - 1.0))
    elif schedule.rule == "custom":
        t = _evaluate(schedule.fn, k, int)
    else:
        raise ScheduleError(f"unknown schedule rule {schedule.rule!r}")
    _validate_sequence(t)
    return t


# Process-wide prefix t_1 .. t_K of the Nesterov recurrence (read-only).
_nesterov_cache = np.ones(1, dtype=np.longdouble)
_nesterov_cache.flags.writeable = False


def _nesterov_prefix(k_max):
    """Read-only view of ``t_1 .. t_{k_max}`` of the Nesterov recurrence.

    The recurrence is iterated in extended precision: in plain double
    arithmetic the accumulated root error breaks the defining identity
    ``t_{k+1}^2 - t_k^2 = t_{k+1}`` at the 1e-9 level by ``k ~ 1e4``, which
    is enough to trip certification on long horizons.  Its values are kept
    for the process and extended, by continuing the same recurrence, only
    when a longer horizon is asked for, so every horizon sees bit-identical
    values.  Views, never copies, are handed out: certification horizons
    reach 1e6 terms (16 MB).
    """
    global _nesterov_cache
    known = _nesterov_cache.size
    if k_max > known:
        t = np.empty(k_max, dtype=np.longdouble)
        t[:known] = _nesterov_cache
        half, one, four = (np.longdouble(x) for x in (0.5, 1.0, 4.0))
        cur = t[known - 1]
        for i in range(known, k_max):
            cur = half * (one + np.sqrt(one + four * cur * cur))
            t[i] = cur
        t.flags.writeable = False
        _nesterov_cache = t
    return _nesterov_cache[:k_max]


def _first_nonfinite(values, name):
    """Raise ScheduleError at the first entry of ``values`` (``name_k``,
    1-based) that is NaN or infinite."""
    bad = ~np.isfinite(values)
    if bad.any():
        i = 1 + int(np.argmax(bad))
        raise ScheduleError(f"{name}_{i} = {values[i - 1]} is not finite",
                            index=i)


def _validate_sequence(t):
    """Shape checks shared by every rule; tied to the convergence theory."""
    _first_nonfinite(t, "t")
    if abs(t[0] - 1.0) > CERT_TOL:
        raise ScheduleError(f"t_1 must equal 1, got {t[0]}", index=1)
    d = np.diff(t)
    if d.size and d.min() < -CERT_TOL:
        i = int(np.argmax(d < -CERT_TOL))
        raise ScheduleError(f"schedule decreases at k={i + 1}", index=i + 1)
    # "t_k exceeds 1 eventually and grows without bound" is not decidable on
    # a finite horizon; require a strictly increasing tail so stalled
    # sequences (e.g. t_k == 1, or a clamped ramp that never leaves its
    # plateau over the generated horizon) are rejected.
    tail = min(10, t.size - 1)
    if tail > 0 and not np.all(np.diff(t[-tail - 1:]) > 0):
        raise ScheduleError("schedule tail is not strictly increasing; "
                            "t_k must grow without bound", index=int(t.size))


def _evaluate(fn, x, scalar):
    """``fn(x)`` as a float array shaped like ``x``: one vectorized call,
    or, when that raises ``TypeError``/``ValueError`` or returns another
    shape, ``fn`` applied to each element converted by ``scalar``."""
    try:
        y = np.asarray(fn(x), dtype=float)
        if y.shape == x.shape:
            return y
    except (TypeError, ValueError):
        pass
    return np.array([float(fn(scalar(a))) for a in x])


def generate_scaled(schedule, k_max):
    """Generate ``(t, xi)`` arrays for ``k = 1 .. k_max``, with ``xi``
    evaluated on ``t``; ``xi`` is ones when the schedule has no stepsize
    factors.  A ``xi_k`` that is not finite or not positive raises
    ScheduleError with ``index = k``."""
    t = generate(schedule, k_max)
    if schedule.xi is None:
        return t, np.ones(t.shape)
    xi = _evaluate(schedule.xi, t, float)
    _first_nonfinite(xi, "xi")
    if xi.min() <= 0:
        i = 1 + int(np.argmax(xi <= 0))
        raise ScheduleError(f"xi_k must be positive; xi_{i} = {xi[i - 1]}",
                            index=i)
    return t, xi


def certify_rho(schedule, k_max=DEFAULT_HORIZON):
    """Measure the growth constant of ``s_k = t_k^2 xi_k`` up to ``k_max``.

    Checks ``s_1 = 1`` and monotone ``s_k``, and measures ``rho_hat =
    sup_k (s_{k+1} - s_k) / (t_{k+1} xi_{k+1})``; ``xi_k = 1`` when the
    schedule has no stepsize factors.  The difference is factored as
    ``(t_{k+1} - t_k)(t_{k+1} + t_k) xi_{k+1} + t_k^2 (xi_{k+1} - xi_k)``,
    whose differences are exact for neighbours within a factor two
    (Sterbenz): squared first, the growth margin would drown in rounding
    noise of order ``ulp(s_k)``.  Unit factors enter as ``* 1.0`` and ``+ 0.0``, so a unit
    ``xi`` and none certify bitwise alike.  The ratios are evaluated in
    slices of ``CERT_CHUNK`` terms, each element by the same operations as
    over the whole horizon, so the working memory beyond ``(t, xi)`` is one
    slice and ``rho_hat`` and the errors do not depend on the slicing.
    Where ``s_{k+1}`` or a ratio is not finite (``t_k^2`` can overflow
    while ``t_k`` is finite), the horizon is cut before that step: a
    decrease or growth violation before it is raised as usual, and
    otherwise the overflow is, so ``rho_hat`` is never NaN.

    Parameters
    ----------
    schedule : Schedule
    k_max : int
        Horizon over which the supremum is taken (k < k_max); at least 2,
        so that one growth ratio is measured.

    Returns
    -------
    float
        The measured supremum ``rho_hat``.

    Raises
    ------
    ScheduleError
        If ``k_max < 2``, ``s_1 != 1``, ``s_k`` decreases or ``rho_hat >
        1``, each beyond ``CERT_TOL``, or ``s_{k+1}`` or the ratio at a
        step ``k`` is not finite; a failing step's index is ``.index``.
    """
    if k_max < 2:
        raise ScheduleError(f"k_max must be >= 2 to measure a growth ratio, "
                            f"got {k_max}")
    t, xi = generate_scaled(schedule, k_max)
    s1 = t[0] * t[0] * xi[0]
    if abs(s1 - 1.0) > CERT_TOL:
        raise ScheduleError(f"t_1^2 xi_1 must equal 1, got {s1}", index=1)
    ds_min, rho_hat, drop, rise, overflow = np.inf, -np.inf, None, None, None
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, k_max - 1, CERT_CHUNK):
            hi = min(lo + CERT_CHUNK, k_max - 1)
            t0, t1 = t[lo:hi], t[lo + 1:hi + 1]
            xi0, xi1 = xi[lo:hi], xi[lo + 1:hi + 1]
            ds = (t1 - t0) * (t1 + t0) * xi1 + t0 * t0 * (xi1 - xi0)
            ratio = ds / (t1 * xi1)
            ok = (np.isfinite(ds) & np.isfinite(ratio)
                  & np.isfinite(t1 * t1 * xi1))
            if not ok.all():
                # Certify the finite prefix: the horizon ends before the
                # first step whose ratio or t_{k+1}^2 xi_{k+1} is not finite.
                cut = int(np.argmin(ok))
                ds, ratio, overflow = ds[:cut], ratio[:cut], lo + 1 + cut
            low, high = ds.min(initial=np.inf), ratio.max(initial=-np.inf)
            ds_min, rho_hat = min(ds_min, low), max(rho_hat, high)
            if drop is None and low < -CERT_TOL:
                drop = lo + 1 + int(np.argmax(ds < -CERT_TOL))
            if rise is None and high > 1.0 + CERT_TOL:
                i = int(np.argmax(ratio > 1.0 + CERT_TOL))
                rise = lo + 1 + i, ratio[i]
            if overflow is not None:
                break
    if ds_min < -CERT_TOL:
        raise ScheduleError(f"t_k^2 xi_k decreases at k={drop}", index=drop)
    rho_hat = float(rho_hat)
    if rho_hat > 1.0 + CERT_TOL:
        k, r = rise
        raise ScheduleError(
            f"growth condition fails at k={k}: (t_{k + 1}^2 xi_{k + 1} - "
            f"t_{k}^2 xi_{k})/(t_{k + 1} xi_{k + 1}) = {r:.6g} > 1",
            index=k)
    if overflow is not None:
        k = overflow
        raise ScheduleError(
            f"t_{k + 1}^2 xi_{k + 1} or the growth ratio at k={k} is not "
            f"finite in float64", index=k)
    return rho_hat


def resolve(schedule, budget=None):
    """Fill in ``rho`` (by certification) and a numeric ``eta``.

    Parameters
    ----------
    schedule : Schedule
        A supplied ``rho`` must lie in (0, 1] and dominate the growth
        of ``t_k^2 xi_k`` that :func:`certify_rho` measures, or is filled.
    budget : int, optional
        Iteration budget of the run the schedule will drive.  The
        certification horizon is ``max(10 * budget, 10_000)`` so the
        measured supremum covers the run with a wide margin.

    Returns
    -------
    Schedule
        A copy with ``rho`` a float in (0, 1] and ``eta`` a float in
        [rho, 1].
    """
    rho = schedule.rho
    if rho is not None and not 0 < rho <= 1:
        raise ScheduleError(f"rho must lie in (0, 1], got {rho}")
    horizon = max(10 * budget, DEFAULT_HORIZON) if budget else DEFAULT_HORIZON
    rho_hat = certify_rho(schedule, horizon)
    if rho is None:
        rho = min(rho_hat, 1.0)
        if rho <= 0:
            raise ScheduleError(f"certified rho = {rho} is not in (0, 1]")
    elif rho_hat > rho + CERT_TOL:
        raise ScheduleError(
            f"supplied rho = {rho} is below the measured growth "
            f"rho_hat = {rho_hat:.6g}")
    return replace(schedule, rho=float(rho),
                   eta=resolve_eta(schedule.eta, rho))


def resolve_eta(eta, rho):
    """Turn an eta spec (float, keyword, or None) into a float in [rho, 1].

    ``None`` and ``"critical"`` give ``rho``; ``"noncritical"`` gives the
    midpoint ``(rho + 1) / 2``.
    """
    if eta is None or eta == "critical":
        eta = rho
    elif eta == "noncritical":
        eta = 0.5 * (rho + 1.0)
    elif isinstance(eta, str):
        raise ScheduleError(f"unknown eta keyword {eta!r}")
    eta = float(eta)
    if not rho - CERT_TOL <= eta <= 1.0 + CERT_TOL:
        raise ScheduleError(
            f"eta must lie in [rho, 1] = [{rho:.6g}, 1], got {eta}")
    return min(eta, 1.0)


def coefficients(t_next, eta):
    """Per-iteration dual coefficients ``alpha_k`` and ``c_k``.

    ``alpha_k = (t_{k+1} - eta) / eta`` and ``c_k = t_{k+1} / eta``; the
    identity ``c_k = 1 + alpha_k`` is enforced exactly in floating point
    (``c`` is computed as ``1 + alpha``), which the dual update relies on.

    Returns
    -------
    (float, float)
        ``(alpha_k, c_k)``.
    """
    alpha = (t_next - eta) / eta
    return alpha, 1.0 + alpha

