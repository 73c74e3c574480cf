"""The accelerated augmented Lagrangian loop.

One outer iteration, at state ``(x_k, x_{k-1}, lam_k, lam_{k-1}, t_k)`` and
with ``alpha_k = (t_{k+1} - eta)/eta``, ``c_k = t_{k+1}/eta``:

1. extrapolate   ``xbar_k = x_k + ((t_k - 1)/t_{k+1})(x_k - x_{k-1})`` and
   likewise ``lambdabar_k``;
2. aggregate the dual data ``p_k = c_k lambdabar_k - alpha_k lam_k`` and
   ``r_k = alpha_k A x_k + b``, reading ``A x_k`` from the state;
3. minimize the strongly convex subproblem (see :mod:`aalm.subsolver`)
   built from ``(p_k, r_k, xbar_k)`` -- with ``f`` kept implicit, or
   linearized at ``xbar_k`` when a gradient Lipschitz constant is known and
   ``gamma <= 1/L``;
4. ascend the dual: ``lam_{k+1} = lambdabar_k + delta (c_k A x_{k+1} - r_k)``.
   ``A x_{k+1}`` comes from step 3's solve, which formed it once (the
   inner Newton at its accepted point), and is carried to the next
   step's ``r_{k+1}`` and the next inner solve's start.  So are
   ``f(x_{k+1})`` and ``grad f(x_{k+1})`` when the inner Newton evaluated
   them, for the next inner solve to start from.  Trace records read
   none of these: they are functions of the iterates alone
   (:func:`aalm.diagnostics.make_records`).

The same iteration can be written as a coupled pair of proximal-type
inclusions in ``(x_{k+1}, lam_{k+1})``; :func:`step_coupled` solves that
pair directly as a joint linear system and serves as an independent oracle
for :func:`step` in the tests.  Equivalence of the two forms hinges on the
dual-correction identity

    lam_{k+1} + alpha_k (lam_{k+1} - lam_k)
        = p_k + delta c_k (c_k A x_{k+1} - r_k),

which the tests recompute from consecutive states along runs of every
solve path (``tests/test_solver.py``).

A schedule with stepsize factors ``xi`` (see :mod:`aalm.schedule`)
multiplies both stepsizes by ``xi_{k+1}`` at iteration ``k`` (implicit
case only); rates are then measured against ``t_k^2 xi_k`` and every
trace record carries that scaling.

The baseline :func:`aalm.harness.run_vanilla` runs the schedule ``t_k = 1``,
``eta = 1`` (:func:`aalm.schedule.baseline`: no extrapolation, no dual
correction) with ``beta`` lowered by ``delta``.  Every run is resolved by
:func:`resolve_config` and advanced by the one loop, :func:`_run_resolved`,
which fixes the split of ``f`` and the step's one system once
(:func:`aalm.subsolver.step_plan`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from .diagnostics import TraceRecord, make_records
from .problems import dense
from .schedule import Schedule, coefficients, generate_scaled, resolve
from .subsolver import (MaxInnerIterations, SubproblemSpec, SubsolverError,
                        inner_tolerance, multiplier_update,
                        solve_inner_newton, solve_linear_case, step_plan)

# The run loop buffers iterates and records them a block at a time: at
# most this many bytes of stacked x and lam, and at most this many rows
# (256 rows on the QP and lp instances, 4 on the 10x200 ring).
RECORD_BLOCK_BYTES = 128 * 1024
RECORD_BLOCK_ROWS = 256


class SolverError(RuntimeError):
    """A coupled step's joint system failed its residual check
    (:func:`step_coupled`)."""


@dataclass(frozen=True, kw_only=True)
class StoppingRule:
    """Optional early-exit tolerances; the budget is the run's ``max_iter``.

    The run stops early only when *every* tolerance that is set has been
    met (feasibility and/or stationarity).
    """

    feas_tol: Optional[float] = None
    stat_tol: Optional[float] = None

    @property
    def active(self):
        """Whether any tolerance is set."""
        return self.feas_tol is not None or self.stat_tol is not None

    def satisfied(self, feas, stat):
        if not self.active:
            return False
        ok = True
        if self.feas_tol is not None:
            ok = ok and feas <= self.feas_tol
        if self.stat_tol is not None:
            ok = ok and stat <= self.stat_tol
        return ok


@dataclass(frozen=True)
class SolverConfig:
    """Full configuration of a run.

    ``gamma=None`` requests the default stepsize: ``1/L`` for the
    explicit case (``1.0`` for a linear ``f``, ``L = 0``), ``1.0`` for
    the implicit case.  ``schedule`` (with its stepsize factors, if any)
    may be unresolved (``rho``/``eta`` symbolic); :func:`resolve_config`
    certifies and freezes it against the iteration budget ``max_iter``,
    the run's only budget (``stop`` can only end it earlier).
    """

    schedule: Schedule
    case: str = "implicit"
    gamma: Optional[float] = None
    delta: float = 1.0
    beta: float = 1.0
    max_iter: int = 1000
    stop: StoppingRule = field(default_factory=StoppingRule)


@dataclass(slots=True)
class IterateState:
    """Mutable loop state.

    ``t_seq``/``xi_seq`` hold the precomputed schedule values
    ``t_1 .. t_{K+1}`` so that ``t_curr = t_seq[k-1]`` and
    ``t_next = t_seq[k]`` are plain lookups; ``k`` is the 1-based iterate
    index (``k = 1`` is the initial point, with ``x_prev = x_curr``).
    ``Ax_curr`` is ``A x_k``: formed once per iterate by the subproblem
    solve and carried to the next step's ``r_k`` and the next inner
    Newton solve's start.
    ``f_curr`` and ``grad_curr`` are ``f(x_k)`` and ``grad f(x_k)`` when
    the inner Newton solve that returned ``x_k`` evaluated them (None
    otherwise, and always on the linear path), carried to the next inner
    solve only.
    """

    x_curr: np.ndarray
    x_prev: np.ndarray
    Ax_curr: np.ndarray
    lam_curr: np.ndarray
    lam_prev: np.ndarray
    k: int
    t_seq: np.ndarray
    xi_seq: np.ndarray
    f_curr: Optional[float] = None
    grad_curr: Optional[np.ndarray] = None

    @property
    def t_curr(self):
        return float(self.t_seq[self.k - 1])

    @property
    def t_next(self):
        return float(self.t_seq[self.k])

    @property
    def xi_next(self):
        return float(self.xi_seq[self.k])

    def successor(self, x_next, lam_next, Ax_next, f_next=None,
                  grad_next=None):
        """The ``k+1`` state with iterates ``x_next``, ``lam_next``,
        ``Ax_next = A x_next`` and, when known, ``f_next = f(x_next)`` and
        ``grad_next = grad f(x_next)``."""
        return IterateState(x_curr=x_next, x_prev=self.x_curr,
                            Ax_curr=Ax_next, lam_curr=lam_next,
                            lam_prev=self.lam_curr, k=self.k + 1,
                            t_seq=self.t_seq, xi_seq=self.xi_seq,
                            f_curr=f_next, grad_curr=grad_next)


def resolve_config(instance, config):
    """Validate ``config`` against ``instance`` and freeze open parameters.

    Fills the default ``gamma`` (``1/L`` with a linearized part, else 1),
    checks ``gamma``, ``delta`` and ``beta`` (positive, positive and
    nonnegative, each finite) and the stepsize restriction ``gamma <=
    1/L`` of a linearized step, checks that ``max_iter`` is a nonnegative
    integer and each stopping tolerance set is nonnegative, and resolves
    the schedule against the budget ``max_iter``
    (:func:`aalm.schedule.resolve`, which certifies the growth of
    ``t_k^2 xi_k`` when it has stepsize factors).  Each ValueError names
    its field.

    Returns
    -------
    SolverConfig
        A copy safe to hand to :func:`step`/:func:`run`.
    """
    plan = step_plan(instance, config.case, backend=False)
    # A linear f (L = 0) counts as no linearized part: it meets the
    # descent inequality at every gamma.
    L = (plan.linearized.lipschitz or None) if plan.linearized else None
    gamma, delta, beta = config.gamma, config.delta, config.beta
    if gamma is None:
        gamma = 1.0 / L if L is not None else 1.0
    # Checked before the first step: a NaN would otherwise surface as a
    # failed solve at k = 1, and an infinity would run.
    if not 0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    if L is not None and gamma > 1.0 / L * (1.0 + 1e-12):
        raise ValueError(
            f"gamma = {gamma:.6g} violates the stepsize restriction "
            f"1/L = {1.0 / L:.6g} of the linearized step")
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    if not 0 <= beta < math.inf:
        raise ValueError(f"beta must be nonnegative and finite, got {beta}")
    if config.schedule.xi is not None and plan.linearized is not None:
        raise ValueError("stepsize scaling is defined for the implicit "
                         "case only")
    n = config.max_iter
    if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 0:
        raise ValueError(f"max_iter must be a nonnegative integer, got {n}")
    for name in ("feas_tol", "stat_tol"):
        tol = getattr(config.stop, name)
        if tol is not None and not tol >= 0:
            raise ValueError(f"{name} must be nonnegative, got {tol}")
    return replace(config, gamma=float(gamma),
                   schedule=resolve(config.schedule, n))


def initial_state(instance, config, x0, lam0):
    """Build the ``k = 1`` state (``x_1 = x_0``, ``lam_1 = lam_0``).

    ``config`` must be resolved.  Schedule values are generated once for
    the whole budget (``t_1 .. t_{K+1}``).
    """
    t_seq, xi_seq = generate_scaled(config.schedule, config.max_iter + 1)
    x0 = np.asarray(x0, dtype=float)
    lam0 = np.asarray(lam0, dtype=float)
    if x0.shape != (instance.dim,):
        raise ValueError(f"x0 must have shape ({instance.dim},), got {x0.shape}")
    if lam0.shape != (instance.n_constraints,):
        raise ValueError(
            f"lam0 must have shape ({instance.n_constraints},), got {lam0.shape}")
    x_curr = x0.copy()
    return IterateState(x_curr=x_curr, x_prev=x0.copy(),
                        Ax_curr=instance.A @ x_curr,
                        lam_curr=lam0.copy(), lam_prev=lam0.copy(),
                        k=1, t_seq=t_seq, xi_seq=xi_seq)


def extrapolate(state):
    """Momentum points ``(xbar_k, lambdabar_k)`` with weight
    ``(t_k - 1) / t_{k+1}``."""
    w = (state.t_curr - 1.0) / state.t_next
    xbar = state.x_curr + w * (state.x_curr - state.x_prev)
    lbar = state.lam_curr + w * (state.lam_curr - state.lam_prev)
    return xbar, lbar


def step(state, config, instance, plan):
    """Advance one outer iteration by the four steps above; returns the
    ``k+1`` state.

    ``config`` must be resolved (see :func:`resolve_config`), and
    ``plan`` is the run's ``step_plan(instance, config.case)``, made once
    per run: its split of ``f`` and its one system serve every step.
    Step 3 calls :func:`~aalm.subsolver.solve_inner_newton` for a
    non-quadratic implicit part, from ``x_k`` and its carried ``A x_k``,
    ``f`` and ``grad f`` at ``inner_tolerance(t_k)``, and one
    :func:`~aalm.subsolver.solve_linear_case` otherwise; a failure's
    message gains `` at k=..., t_k=...``.
    """
    eta = config.schedule.eta
    alpha_k, c_k = coefficients(state.t_next, eta)
    xbar, lbar = extrapolate(state)
    p_k = c_k * lbar - alpha_k * state.lam_curr
    r_k = alpha_k * state.Ax_curr + instance.b
    gamma_eff = config.gamma * state.xi_next
    delta_eff = config.delta * state.xi_next
    spec = SubproblemSpec(gamma=gamma_eff, beta=config.beta, delta=delta_eff,
                          c_k=c_k, p_k=p_k, r_k=r_k, xbar_k=xbar,
                          implicit=plan.implicit,
                          gradient_anchor=plan.anchor(xbar))
    try:
        if plan.newton:
            x_next, Ax_next, f_next, grad_next = solve_inner_newton(
                spec, instance, state.x_curr, inner_tolerance(state.t_curr),
                plan.system, state.f_curr, state.grad_curr, state.Ax_curr)
        else:
            x_next = solve_linear_case(spec, instance, plan.system)
            Ax_next, f_next, grad_next = instance.A @ x_next, None, None
    except (MaxInnerIterations, SubsolverError, np.linalg.LinAlgError) as e:
        e.args = (f"{e} at k={state.k}, t_k={state.t_curr:.6g}",)
        raise
    lam_next = multiplier_update(lbar, delta_eff, c_k, Ax_next, r_k)
    return state.successor(x_next, lam_next, Ax_next, f_next, grad_next)


def step_coupled(state, config, instance):
    """Advance one iteration through the coupled primal-dual system.

    Solves the joint stationarity conditions

        gamma^{-1}(x - xbar) + g + A'(c_k lam - alpha_k lam_k)
            + beta A'(A x - b) = 0,
        delta^{-1}(lam - lambdabar) - c_k A x + alpha_k A x_k + b = 0,

    directly as one linear system in ``(x, lam)`` -- only available when
    the implicit part is (at most) quadratic.  This is an independent
    arithmetic path from :func:`step` (dense throughout, whatever the
    storage of ``A``) and is used to cross-validate it; only the split of
    ``f`` comes from :func:`~aalm.subsolver.step_plan`.  It forms
    ``A x_k`` itself and never reads the state's carried ``Ax_curr``.
    """
    plan = step_plan(instance, config.case, backend=False)
    eta = config.schedule.eta
    alpha_k, c_k = coefficients(state.t_next, eta)
    xbar, lbar = extrapolate(state)
    A = dense(instance.A)
    m, n = A.shape
    gamma_eff = config.gamma * state.xi_next
    delta_eff = config.delta * state.xi_next
    if plan.implicit is not None and plan.implicit.quadratic is None:
        raise ValueError("step_coupled needs a quadratic implicit part")
    Q_eff, q_eff = plan.implicit.quadratic if plan.implicit else (None, None)
    anchor = plan.anchor(xbar)
    K = np.zeros((n + m, n + m))
    K[:n, :n] = config.beta * (A.T @ A)
    K[np.diag_indices(n)] += 1.0 / gamma_eff
    if Q_eff is not None:
        K[:n, :n] += Q_eff
    K[:n, n:] = c_k * A.T
    K[n:, :n] = -c_k * A
    K[n:, n:] = np.eye(m) / delta_eff
    rhs = np.empty(n + m)
    rhs[:n] = (xbar / gamma_eff + config.beta * (A.T @ instance.b)
               + alpha_k * (A.T @ state.lam_curr))
    if q_eff is not None:
        rhs[:n] -= q_eff
    if anchor is not None:
        rhs[:n] -= anchor
    rhs[n:] = lbar / delta_eff - instance.b - alpha_k * (A @ state.x_curr)
    sol = np.linalg.solve(K, rhs)
    resid = np.linalg.norm(K @ sol - rhs)
    if resid > 1e-10 * (1.0 + np.linalg.norm(rhs)):
        raise SolverError(f"coupled system residual {resid:.3e} too large")
    return state.successor(sol[:n], sol[n:], instance.A @ sol[:n])


def run(instance, config, x0, lam0, kkt=None):
    """Run the loop for ``config.max_iter`` iterations (fewer when
    ``config.stop`` is met).

    Parameters
    ----------
    instance : ProblemInstance
    config : SolverConfig
        Resolved or not (it is resolved here either way).
    x0, lam0 : ndarray
        Starting point; the convention ``x_1 = x_0``, ``lam_1 = lam_0``
        makes the first extrapolation a no-op.
    kkt : KKTPoint, optional
        Reference for the gap/energy/objective-residual diagnostics.
        Without it those trace fields are NaN.

    Returns
    -------
    (IterateState, list of TraceRecord)
        Final state and one record per completed iteration (record ``k``
        describes iterate ``x_k``, so the trace spans ``k = 2 .. K+1`` for
        a full ``K``-iteration run).  Two runs from identical inputs
        produce bit-identical traces.
    """
    return _run_resolved(instance, resolve_config(instance, config), x0, lam0,
                         kkt)


def _block_rows(instance, stop):
    """Iterates per record block: one under a stopping rule with a
    tolerance set, else as many as the byte and row caps allow."""
    if stop.active:
        return 1
    row_bytes = 8 * (instance.dim + instance.n_constraints)
    return max(1, min(RECORD_BLOCK_ROWS, RECORD_BLOCK_BYTES // row_bytes))


def _run_resolved(instance, config, x0, lam0, kkt=None):
    """The run loop: :func:`run` for a ``config`` that
    :func:`resolve_config` returned.  Builds the ``k = 1`` state and
    advances it by :func:`step` for ``config.max_iter`` iterations or until
    ``config.stop``, recording each iterate with the resolved ``config``'s
    own ``gamma, delta, eta, beta``, by the run's one step plan, made here.

    Records are computed in blocks (:func:`aalm.diagnostics.make_records`)
    of up to :data:`RECORD_BLOCK_ROWS` iterates and
    :data:`RECORD_BLOCK_BYTES` of ``x`` and ``lam``, flushed when a block
    fills and at the end.  The run owns one record block, allocated before
    its first step and released with it: the rows of ``X`` and ``L`` that
    each step copies ``x_k`` and ``lam_k`` into (row 0 holds the iterate
    before the block), and the four difference arrays ``make_records``
    works in.  A stopping rule with a tolerance set reads every record as
    it is made, so its blocks are one iterate and the run stops at the
    first ``k`` that meets it."""
    state = initial_state(instance, config, x0, lam0)
    plan = step_plan(instance, config.case)
    f_star = instance.objective.value(kkt.x) if kkt is not None else None
    rows = _block_rows(instance, config.stop)
    trace: List[TraceRecord] = []
    X = np.empty((rows + 1, instance.dim))
    L = np.empty((rows + 1, instance.n_constraints))
    work = [np.empty((rows, a.shape[1])) for a in (X, L, X, L)]
    X[0], L[0] = state.x_curr, state.lam_curr
    j = 0  # iterates in the block, in rows 1 .. j

    def flush(k):
        """Record rows 1 .. j, the last of which is ``x_k``."""
        trace.extend(make_records(
            instance, k - j + 1, state.t_seq[k - j:k], state.xi_seq[k - j:k],
            X[:j + 1], L[:j + 1], config.gamma, config.delta,
            config.schedule.eta, config.beta, kkt=kkt, f_star=f_star,
            work=work))
        X[0], L[0] = X[j], L[j]

    for _ in range(config.max_iter):
        state = step(state, config, instance, plan)
        j += 1
        X[j], L[j] = state.x_curr, state.lam_curr
        if j == rows:
            flush(state.k)
            j = 0
            if config.stop.satisfied(trace[-1].feas, trace[-1].stat_res):
                break
    if j:
        flush(state.k)
    return state, trace
