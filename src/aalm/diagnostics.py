"""Convergence diagnostics: residuals, Lyapunov energy, and rate fitting.

With a reference pair ``(x*, lam*)`` and the combined iterate
``z_k = (x_k, lam_k)``, the quantities tracked per iteration are

* feasibility        ``||A x_k - b||``;
* objective residual ``|f(x_k) - f(x*)|``;
* stationarity       ``||grad f(x_k) + A' lam_k||``;
* the nonnegative gap
  ``H_k = f(x_k) - f(x*) + <lam*, A x_k - b> + (beta/2)||A x_k - b||^2``;
* the energy ``E_k = t_k^2 xi_k H_k + B_k`` with

      B_k = (1/2)||eta (z_k - z*) + (t_k - 1)(z_k - z_{k-1})||_M^2
            + (eta (1 - eta) / 2) ||z_k - z*||_M^2,

  measured in the stepsize norm
  ``||(x, lam)||_M^2 = ||x||^2 / gamma + ||lam||^2 / delta``.

The theory promises ``E_k`` nonincreasing whenever ``eta`` dominates the
schedule's growth constant, which yields ``H_k <= E_1 / (t_k^2 xi_k)`` and
the ``O(1/t_k^2)`` residual rates.  The energy here must be evaluated with
the *same* ``gamma, delta, eta, beta`` the run used -- a mismatch silently
destroys monotonicity -- so the solver loop computes records itself from
its own configuration rather than re-deriving parameters.

Records are computed a block of iterates at a time (:func:`make_records`)
from the iterates and the schedule alone: the run loop copies ``x_k`` and
``lam_k`` into the rows of one block it allocates before its first step,
and pays for the array operations once per block, in difference arrays
allocated with that block and reused by every flush.  Gradients, and
values only given a reference, come from the objective's row form
(:class:`aalm.problems.ObjectiveOracle`), and ``A x`` and ``A' lam`` from
:meth:`aalm.problems.ProblemInstance.A_rows` and
:meth:`~aalm.problems.ProblemInstance.At_rows`, one call each per block.
Each of those rows is bitwise the per-row product and every reduction is
a row reduction, so a record is bitwise the same however the iterates
were grouped; :func:`make_record` is the one-row call.  :func:`gap`,
:func:`stationarity` and :func:`energy` evaluate single iterates on their
own arithmetic path.

``fit_rate`` estimates empirical decay orders by least squares on
``log(field)`` against ``log(t_k)``, and ``littleo_witness`` compares
``t^2``-scaled residuals at two indices to witness ``o(1/t^2)`` decay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np

#: Column order of serialized traces (the harness writes exactly these).
TRACE_FIELDS = ("k", "t_k", "feas", "obj_res", "stat_res", "gap_H",
                "energy_E", "step_norm_M", "scaled_feas")


class TraceRecord(NamedTuple):
    """One iteration's diagnostics, an immutable tuple in
    :data:`TRACE_FIELDS` order (fields by name or by position).

    ``scaled_feas`` is ``t_k^2 xi_k * feas`` (``xi_k = 1`` for unscaled
    runs): bounded iff the feasibility rate holds.  Reference-dependent
    fields (``obj_res``, ``gap_H``, ``energy_E``) are NaN when the run was
    given no reference point.
    """

    k: int
    t_k: float
    feas: float
    obj_res: float
    stat_res: float
    gap_H: float
    energy_E: float
    step_norm_M: float
    scaled_feas: float


@dataclass(frozen=True)
class RateEstimate:
    """Fitted slope of ``log(field)`` vs ``log(t_k)`` over a window.

    ``n_dropped`` counts nonpositive values excluded before taking logs.
    """

    slope: float
    window: Tuple[int, int]
    r_squared: float
    n_dropped: int


def mnorm_sq(dx, dlam, gamma, delta):
    """Squared stepsize norm ``||dx||^2 / gamma + ||dlam||^2 / delta``."""
    return float(dx @ dx) / gamma + float(dlam @ dlam) / delta


def gap(instance, kkt, beta, x, f_x=None, f_star=None):
    """The Lagrangian-type gap ``H`` at ``x`` (nonnegative by convexity).

    ``f_x`` and ``f_star`` may be passed to avoid re-evaluating them.
    """
    if f_x is None:
        f_x = instance.objective.value(x)
    if f_star is None:
        f_star = instance.objective.value(kkt.x)
    Axb = instance.A @ x - instance.b
    return (f_x - f_star + float(kkt.lam @ Axb)
            + 0.5 * beta * float(Axb @ Axb))


def stationarity(instance, x, lam):
    """Dual residual ``||grad f(x) + A' lam||``."""
    return float(np.linalg.norm(instance.objective.gradient(x)
                                + instance.A.T @ lam))


def energy(instance, kkt, gamma, delta, eta, beta, t_k, x, x_prev, lam,
           lam_prev, xi_k=1.0):
    """Lyapunov energy ``E_k`` at the state ``(z_k, z_{k-1}, t_k)``."""
    H = gap(instance, kkt, beta, x)
    dx_star, dlam_star = x - kkt.x, lam - kkt.lam
    wx = eta * dx_star + (t_k - 1.0) * (x - x_prev)
    wl = eta * dlam_star + (t_k - 1.0) * (lam - lam_prev)
    B = (0.5 * mnorm_sq(wx, wl, gamma, delta)
         + 0.5 * eta * (1.0 - eta)
         * mnorm_sq(dx_star, dlam_star, gamma, delta))
    return t_k ** 2 * xi_k * H + B


def _rowdot(U, V):
    """Row-wise inner products ``<U_i, V_i>``."""
    return np.einsum("ij,ij->i", U, V)


def make_records(instance, k, t, xi, X, L, gamma, delta, eta, beta,
                 kkt=None, f_star=None, work=None):
    """The :class:`TraceRecord` of every iterate in a block, from the
    iterates alone.

    Row ``j >= 1`` of ``X`` (B+1, n) and ``L`` (B+1, m) holds iterate
    ``k + j - 1`` and row 0 the iterate before the block's first record.
    The objective's row form evaluates ``grad f``, and ``f`` given
    ``kkt``, of the recorded iterates, and
    :meth:`aalm.problems.ProblemInstance.A_rows` and
    :meth:`~aalm.problems.ProblemInstance.At_rows` form ``A x`` and
    ``A' lam``, each in one call per block.  ``t`` and ``xi`` (B,) hold
    ``t_k`` and ``xi_k`` of the B recorded iterates (a ``longdouble``
    schedule is rounded to float here).  Returns B records, for
    ``k .. k + B - 1``.

    The four difference arrays ``x - x_prev``, ``lam - lam_prev``,
    ``x - x*`` and ``lam - lam*`` go into the first B rows of the four
    arrays ``work``, shaped like ``x``, ``lam``, ``x``, ``lam`` with at
    least B rows; without ``work`` they are this call's own.  The block's
    other arrays are combined in place, so a run that passes its own
    ``work`` to every block allocates no block-sized array per block
    beyond those of ``A x``, ``A' lam`` and the row form.  Every value is
    bitwise the out-of-place formula's.
    """
    obj = instance.objective
    t = np.asarray(t, dtype=float)
    xi = np.asarray(xi, dtype=float)
    x, lam = X[1:], L[1:]

    def mnorm_rows(u, w):
        return _rowdot(u, u) / gamma + _rowdot(w, w) / delta

    G, values = obj.rows(x)
    G += instance.At_rows(lam)
    stat = np.sqrt(_rowdot(G, G))
    del G
    Axb = instance.A_rows(x)
    Axb -= instance.b
    feas_sq = _rowdot(Axb, Axb)
    feas = np.sqrt(feas_sq)
    if work is None:
        work = [np.empty(a.shape) for a in (x, lam, x, lam)]
    dx, dlam, sx, slam = (a[:t.size] for a in work)
    np.subtract(x, X[:-1], out=dx)
    np.subtract(lam, L[:-1], out=dlam)
    step = np.sqrt(mnorm_rows(dx, dlam))
    if kkt is None:
        obj_res = gap_H = energy_E = np.full(t.shape, np.nan)
    else:
        f_x = values()
        if f_star is None:
            f_star = obj.value(kkt.x)
        obj_res = np.abs(f_x - f_star)
        gap_H = (f_x - f_star + np.einsum("ij,j->i", Axb, kkt.lam)
                 + 0.5 * beta * feas_sq)
        np.subtract(x, kkt.x, out=sx)
        np.subtract(lam, kkt.lam, out=slam)
        dist = mnorm_rows(sx, slam)
        # eta (z - z*) + (t - 1)(z - z_prev), built in the difference
        # arrays now that their own norms are read.
        w = (t - 1.0)[:, None]
        for d, s in ((dx, sx), (dlam, slam)):
            d *= w
            s *= eta
            d += s
        B = (0.5 * mnorm_rows(dx, dlam)
             + 0.5 * eta * (1.0 - eta) * dist)
        energy_E = t ** 2 * xi * gap_H + B
    cols = (t, feas, obj_res, stat, gap_H, energy_E, step,
            t ** 2 * xi * feas)
    ks = range(int(k), int(k) + t.size)
    return list(map(TraceRecord._make,
                    zip(ks, *(c.tolist() for c in cols))))


def make_record(instance, k, t_k, x, x_prev, lam, lam_prev, gamma, delta,
                eta, beta, xi_k=1.0, kkt=None, f_star=None):
    """The :class:`TraceRecord` of one iterate: :func:`make_records` on a
    one-row block."""
    return make_records(instance, k, [t_k], [xi_k], np.stack([x_prev, x]),
                        np.stack([lam_prev, lam]), gamma, delta, eta, beta,
                        kkt=kkt, f_star=f_star)[0]


def fit_rate(trace, field, window):
    """Least-squares slope of ``log(field)`` against ``log(t_k)``.

    Parameters
    ----------
    trace : sequence of TraceRecord
    field : str
        Record attribute to fit (e.g. ``"feas"``).
    window : (int, int)
        Inclusive range of iteration indices ``k`` used for the fit.

    Returns
    -------
    RateEstimate

    Raises
    ------
    ValueError
        If fewer than 5 usable (positive) points remain in the window, or
        if ``t_k`` is constant there (a log-log fit against ``t_k`` is
        meaningless for an unscheduled baseline).
    """
    lo, hi = window
    pts = [(r.t_k, getattr(r, field)) for r in trace if lo <= r.k <= hi]
    vals = np.array([v for _, v in pts])
    n_dropped = int(np.sum(~(vals > 0)))
    kept = [(t, v) for t, v in pts if v > 0]
    if len(kept) < 5:
        raise ValueError(
            f"rate fit needs at least 5 positive points in k-window "
            f"[{lo}, {hi}]; got {len(kept)} ({n_dropped} dropped)")
    logs_t = np.log([t for t, _ in kept])
    logs_v = np.log([v for _, v in kept])
    if np.ptp(logs_t) == 0.0:
        raise ValueError(
            f"rate fit needs a growing t_k over k-window [{lo}, {hi}]; "
            f"all kept records have t_k = {kept[0][0]!r}")
    slope, intercept = np.polyfit(logs_t, logs_v, 1)
    fitted = slope * logs_t + intercept
    ss_res = float(np.sum((logs_v - fitted) ** 2))
    ss_tot = float(np.sum((logs_v - logs_v.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateEstimate(slope=float(slope), window=(lo, hi),
                        r_squared=r2, n_dropped=n_dropped)


def littleo_witness(trace, field, k_early, k_late):
    """Ratio of ``t_k^2 * field`` at ``k_late`` versus ``k_early``.

    A ratio well below 1 over a decade of iterations witnesses decay
    strictly faster than ``1/t_k^2``; an exact ``C/t_k^2`` sequence gives
    ratio 1.  If the early value is exactly zero the witness is moot: the
    function returns 0.0 when the late value also vanished ("already
    zero") and raises otherwise.
    """
    by_k = {r.k: r for r in trace}
    try:
        early, late = by_k[k_early], by_k[k_late]
    except KeyError as e:
        raise ValueError(f"trace has no record for k={e.args[0]}") from None
    v_early = early.t_k ** 2 * getattr(early, field)
    v_late = late.t_k ** 2 * getattr(late, field)
    if v_early == 0.0:
        if v_late == 0.0:
            return 0.0
        raise ValueError(
            f"baseline t^2*{field} at k={k_early} is zero but the late "
            f"value is {v_late:.3e}")
    return v_late / v_early
