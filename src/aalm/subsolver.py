"""Inner solvers for the per-iteration primal subproblem.

Each outer iteration minimizes, over ``x``,

    F(x) = f_part(x) + (beta/2)||Ax - b||^2 + (1/(2 gamma))||x - xbar||^2
           + <p, Ax - b> + (delta/2)||c Ax - r||^2

where ``f_part`` is the objective itself (implicit step) or its
linearization ``<grad f(xbar), x>`` (explicit step).  The strong convexity
injected by the proximal term makes F well-posed for any convex
``f_part``.

:func:`step_plan` resolves a step case once per run into a frozen
:class:`StepPlan`, the one place that reads a case string and the one
that builds the run's subproblem system (:class:`LinearCache`: in the
eigenbasis of ``A'A``, plus an r x r Woodbury capacitance for a separable
part of few terms, or dense and LU-solved).  Two solvers take it, and
:func:`aalm.solver.step` calls the one its plan needs:

* :func:`solve_linear_case` -- one solve when ``f_part`` is (at most)
  quadratic;
* :func:`solve_inner_newton` -- damped Newton with backtracking for smooth
  non-quadratic implicit parts, one solve per step, to the fixed
  tolerance schedule :func:`inner_tolerance` within at most
  :data:`INNER_MAX_STEPS` steps; it returns ``A x``, ``f`` and ``grad f``
  at its point with the point, and the next solve starts from them.

Everything a solve reuses is built once per run (the system) or once per
subproblem (its ``at``), so a step costs a few products and one small
solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .problems import ObjectiveOracle, dense

# Residual tolerance asserted after every direct solve (scaled by the rhs).
LINEAR_RESIDUAL_TOL = 1e-10

# Inner Newton tolerance schedule: min(INNER_TOL_CAP, INNER_TOL_SCALE /
# t_k^3).  The cubic decay outpaces the energy telescoping (the errors are
# summable), so inexact inner solves do not pollute the measured rates.
INNER_TOL_CAP = 1e-8
INNER_TOL_SCALE = 1e-2

# Inner Newton steps per subproblem before MaxInnerIterations.
INNER_MAX_STEPS = 50

# Predicted decreases below this fraction of the objective value cannot be
# resolved by the Armijo comparison in double precision; the line search
# then accepts the unit step on the strength of the descent test alone
# (the gradient stays measurable well below the value's resolution).
VALUE_RESOLUTION = 1e-14

# Backtracking of the inner line search: the step shrinks by this factor
# until the Armijo condition with this sufficient-decrease fraction holds.
BACKTRACK_SHRINK = 0.5
SUFFICIENT_DECREASE = 1e-4

#: Step cases understood throughout the package.
CASES = ("implicit", "explicit")


class SubsolverError(RuntimeError):
    """A direct solve failed its residual assertion."""


class MaxInnerIterations(RuntimeError):
    """Inner Newton ran out of iterations before meeting its tolerance.

    Attributes
    ----------
    grad_norm : float
        Subproblem gradient norm at the final iterate.
    """

    def __init__(self, message, grad_norm):
        super().__init__(message)
        self.grad_norm = grad_norm


@dataclass(slots=True)
class SubproblemSpec:
    """Coefficients of one outer iteration's subproblem.

    ``gamma`` and ``delta`` are the *effective* stepsizes (already
    multiplied by any scaling factor).  ``implicit`` (the part of ``f``
    kept) and ``gradient_anchor`` (the linearized part's gradient at the
    extrapolated point) come from the run's :class:`StepPlan`; only the
    linear solve takes an anchor, as a step linearizes all of ``f`` or
    none of it.  The coefficients are not checked here: a run checks
    ``gamma``, ``delta`` and ``beta`` once (:meth:`StepPlan.stepsize`,
    :func:`aalm.solver.check_penalties`).
    """

    gamma: float
    beta: float
    delta: float
    c_k: float
    p_k: np.ndarray
    r_k: np.ndarray
    xbar_k: np.ndarray
    implicit: Optional[ObjectiveOracle] = None
    gradient_anchor: Optional[np.ndarray] = None


def inner_tolerance(t_curr):
    """Per-iteration inner gradient tolerance ``min(1e-8, 1e-2 / t_k^3)``."""
    return min(INNER_TOL_CAP, INNER_TOL_SCALE / t_curr ** 3)


def _constraint_terms(spec, instance, x, Ax):
    """``(A x - b, x - xbar, c A x - r)``: the terms ``F`` and its
    gradient share at ``x``, formed once per point."""
    return Ax - instance.b, x - spec.xbar_k, spec.c_k * Ax - spec.r_k


def _value_from_terms(spec, terms, f_x):
    """``F(x)`` from :func:`_constraint_terms` and the implicit part's
    value ``f_x``."""
    Axb, d, cAxr = terms
    return (f_x + 0.5 * spec.beta * float(Axb @ Axb)
            + 0.5 / spec.gamma * float(d @ d)
            + float(spec.p_k @ Axb)
            + 0.5 * spec.delta * float(cAxr @ cAxr))


def _gradient_from_terms(spec, instance, terms, grad_x):
    """``grad F(x)`` from :func:`_constraint_terms` and the implicit
    part's gradient ``grad_x``, with the constraint terms gathered under
    one product by ``A'``."""
    Axb, d, cAxr = terms
    return (grad_x + d / spec.gamma
            + instance.At @ (spec.beta * Axb + spec.p_k
                             + spec.delta * spec.c_k * cAxr))


def spd_solve(M, rhs):
    """``M^{-1} rhs`` for a symmetric positive definite ``M`` by numpy's
    LU solve (LAPACK ``gesv``), which needs no scipy.  ``M`` is left
    unchanged.  Definiteness is not checked here: a quadratic part is
    checked once where it is built (:func:`aalm.problems.make_qp`), and
    each caller guards its result (a residual assertion, a descent test).
    Raises ``np.linalg.LinAlgError`` when ``M`` is singular."""
    return np.linalg.solve(M, rhs)


def _shift_diagonal(M, s):
    """``M += s I`` in place for a C-contiguous square ``M``, through a
    strided view of its diagonal."""
    M.reshape(-1)[::M.shape[0] + 1] += s


class LinearCache:
    """The run's one subproblem system ``M = H + coef A'A + I/gamma``
    (``H`` the implicit ``part``'s Hessian, zero without one; ``coef =
    beta + delta c^2``), built once per run by :func:`step_plan` for the
    linear solve and inner Newton alike.  Its backend is picked from the
    instance and the part:

    * basis: the instance's orthonormal eigenbasis of ``A'A``
      (:meth:`~aalm.problems.ProblemInstance.eigenbasis`), without a part
      and for a separable non-quadratic part of ``r < n`` terms on an
      instance with a ``gram``, whose ``U W U'`` enters by Woodbury (Golub
      & Van Loan, *Matrix Computations*, 2.1.4) through ``B = V'U``,
      formed here, and one r x r solve per point; ``A'A`` keeps the
      storage of ``A`` and nothing n x n is formed;
    * dense: ``M`` formed with a dense ``A'A`` (``H = Q`` for a quadratic
      part, so ``hessian`` is never called, else ``hessian(x)``) and
      LU-solved by :func:`spd_solve`.
    """

    def __init__(self, instance, part):
        form = part.separable if part is not None else None
        self.form = form if (form is not None and part.quadratic is None
                             and instance.gram is not None
                             and form.U.shape[1] < instance.dim) else None
        AtA = instance.A.T @ instance.A
        if part is None or self.form is not None:
            self.AtA, self.basis = AtA, instance.eigenbasis()
            if self.form is not None:
                self.B = np.column_stack([self.basis.apply_Vt(u)
                                          for u in self.form.U.T])
        else:
            self.AtA, self.basis, self.part = dense(AtA), None, part

    def at(self, spec):
        """``x -> (solve, apply, scale)`` for ``spec``'s subproblem:
        ``v -> M(x)^{-1} v``, ``v -> M(x) v`` and ``() ->`` a bound on
        ``||M(x)||_2`` (in the basis its largest diagonal entry, plus
        ``sum_i w_i ||u_i||^2`` with Woodbury; the infinity norm when
        dense).  ``solve`` raises ``np.linalg.LinAlgError`` when a dense
        ``M(x)`` is singular."""
        coef = spec.beta + spec.delta * spec.c_k ** 2  # the weight of A'A
        h, AtA = 1.0 / spec.gamma, self.AtA
        if self.basis is None:
            part = self.part

            def point(x):
                M = coef * AtA  # C-ordered, so the shift is in place
                M += (part.quadratic[0] if part.quadratic is not None
                      else part.hessian(x))
                _shift_diagonal(M, h)
                return (lambda v: spd_solve(M, v), lambda v: M @ v,
                        lambda: float(np.abs(M).sum(axis=1).max()))

            return point
        V, Vt, form = self.basis.apply_V, self.basis.apply_Vt, self.form
        if form is not None:
            h = form.mu + h
        d = h + coef * self.basis.evals
        # One refinement pass per solve: it leaves the forward error as it
        # is but cuts the residual ||M x - v|| that stationarity reads (5x
        # on the 10x200 ring; without it c10's ratio there is 0.45 > 0.1).
        if form is None:
            def apply(v):
                return h * v + coef * (AtA @ v)

            def solve(v):
                x = V(Vt(v) / d)
                return x + V(Vt(v - apply(x)) / d)

            return lambda x: (solve, apply, lambda: float(d.max()))
        U, Ut, c, d2phi = form.U, form.U.T, form.c, form.d2phi
        DB = self.B / d[:, None]
        G = self.B.T @ DB

        def point(x):
            w = d2phi(Ut @ x - c)
            s = np.sqrt(w)
            # I + W^1/2 B'D^-1 B W^1/2: eigenvalues >= 1, and W is never
            # inverted, as phi'' can underflow.
            C = s[:, None] * G * s
            _shift_diagonal(C, 1.0)

            def inverse(v):
                y = Vt(v)
                return V(y / d - DB @ (s * np.linalg.solve(C, s * (DB.T @ y))))

            def apply(v):
                return h * v + coef * (AtA @ v) + U @ (w * (Ut @ v))

            def solve(v):
                x = inverse(v)
                return x + inverse(v - apply(x))

            return solve, apply, lambda: float(d.max() + w @ (U * U).sum(0))

        return point


@dataclass(frozen=True)
class StepPlan:
    """How a run treats ``f``: solved implicitly or linearized at
    ``xbar`` (the other field is None), and the run's one subproblem
    system (a :class:`LinearCache`; None without a backend)."""

    implicit: Optional[ObjectiveOracle]
    linearized: Optional[ObjectiveOracle]
    system: Optional[LinearCache] = None

    @property
    def newton(self):
        """Whether inner Newton solves: the implicit part is not quadratic."""
        return self.implicit is not None and self.implicit.quadratic is None

    def anchor(self, x):
        """Gradient of the linearized part at ``x`` (None without one)."""
        return self.linearized.gradient(x) if self.linearized else None

    def stepsize(self, gamma):
        """``gamma`` as a float, by default ``1/L`` with a linearized part
        and 1 without; must be positive and finite and, with one, at most
        ``1/L``.  A linear ``f`` (``L = 0``) counts as none: it meets the
        descent inequality at every ``gamma``."""
        L = (self.linearized.lipschitz or None) if self.linearized else None
        if gamma is None:
            gamma = 1.0 / L if L is not None else 1.0
        if not 0 < gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got "
                             f"{gamma}")
        if L is not None and gamma > 1.0 / L * (1.0 + 1e-12):
            raise ValueError(
                f"gamma = {gamma:.6g} violates the stepsize restriction "
                f"1/L = {1.0 / L:.6g} of the linearized step")
        return float(gamma)


def step_plan(instance, case, backend=True):
    """The :class:`StepPlan` of ``case`` on ``instance`` (without
    ``backend``: the split of ``f`` only).  Raises ValueError for a case
    outside :data:`CASES`, a linearized part without ``lipschitz``, or a
    Newton part without ``hessian``."""
    if case not in CASES:
        raise ValueError(f"case must be one of {CASES}, got {case!r}")
    obj = instance.objective
    implicit, linearized = (obj, None) if case == "implicit" else (None, obj)
    if linearized is not None and linearized.lipschitz is None:
        raise ValueError(
            f"{case} case needs a gradient Lipschitz constant on the "
            f"linearized part; use the implicit case instead")
    plan = StepPlan(implicit, linearized)
    if not backend:
        return plan
    if plan.newton and implicit.hessian is None:
        raise ValueError("inner Newton needs an implicit part with a hessian")
    return StepPlan(implicit, linearized, LinearCache(instance, implicit))


def solve_linear_case(spec, instance, cache):
    """Solve the subproblem exactly when its stationarity system is linear.

    Applicable to the explicit case and to an implicit case whose
    objective is quadratic.  Solves

        (Q_eff + gamma^{-1} I + (beta + delta c^2) A'A) x
            = gamma^{-1} xbar - g_anchor - q_eff + A'(beta b - p + delta c r)

    by ``cache``, the run's system (a :class:`StepPlan`'s, built for
    ``spec.implicit``).  Asserts the residual against ``1e-10`` on the
    backward-error scale ``1 + ||rhs|| + ||M|| ||x||`` (the two scales
    differ materially once ``delta c^2`` is large and ``A`` has a null
    space), with the system's bound on ``||M||``, formed only for a
    residual above ``1e-10 (1 + ||rhs||)``.
    """
    part = spec.implicit
    if part is not None and part.quadratic is None:
        raise ValueError("linear path needs a quadratic implicit part; "
                         "use solve_inner_newton instead")
    solve, apply, scale = cache.at(spec)(spec.xbar_k)
    rhs = spec.xbar_k / spec.gamma + instance.At @ (
        spec.beta * instance.b - spec.p_k + spec.delta * spec.c_k * spec.r_k)
    if spec.gradient_anchor is not None:
        rhs = rhs - spec.gradient_anchor
    if part is not None:
        rhs = rhs - part.quadratic[1]
    x = solve(rhs)
    res = apply(x) - rhs
    resid = math.sqrt(res @ res)
    base = 1.0 + math.sqrt(rhs @ rhs)
    # The bound is at least LINEAR_RESIDUAL_TOL * base (rounding is
    # monotone), so ||M|| ||x|| is formed only for a residual past that.
    if not resid <= LINEAR_RESIDUAL_TOL * base:
        bound = LINEAR_RESIDUAL_TOL * (base + scale() * math.sqrt(x @ x))
        if not resid <= bound:
            raise SubsolverError(f"linear subproblem residual {resid:.3e} "
                                 f"exceeds {bound:.3e}")
    return x


def solve_inner_newton(spec, instance, x0, tol, system, f0=None,
                       grad0=None, Ax0=None):
    """Damped Newton on the subproblem for smooth non-quadratic implicit
    parts (a spec with a gradient anchor is refused by a ValueError: a
    linearized step is one linear solve).

    Iterates from the warm start ``x0`` until the subproblem gradient norm
    drops to ``tol``.  Directions come from the exact
    subproblem Hessian; when a computed direction fails the descent test
    ``<d, g> <= -1e-12 ||d|| ||g||`` it falls back to steepest descent for
    that iteration.  Backtracking halves the step until the Armijo
    sufficient-decrease condition holds.  ``A x`` is formed once for each
    point visited (each trial, and the start unless ``Ax0`` is given), and
    so are the constraint terms that ``F`` and its gradient share
    (:func:`_constraint_terms`); the accepted trial's value is the next
    step's ``F(x)``.  The implicit part ``f`` is evaluated at most once
    per point: its gradient at each accepted point (for the stopping test)
    and its value at each trial.

    Parameters
    ----------
    system : LinearCache
        The run's subproblem system (a :class:`StepPlan`'s, built for
        ``spec.implicit``), solved for each Newton direction.
    f0, grad0 : optional
        ``f(x0)`` and ``grad f(x0)`` when the caller has them (a previous
        solve returned them); each is evaluated here when needed otherwise.
    Ax0 : ndarray, optional
        ``A x0`` when the caller has it; formed here otherwise.

    Returns
    -------
    (x, Ax, f_x, grad_x)
        The accepted point with ``A x``, ``f(x)`` -- None when the last
        step was taken without evaluating it (a decrease below the value's
        resolution, or a line search that ran out) -- and ``grad f(x)``.

    Raises
    ------
    MaxInnerIterations
        After :data:`INNER_MAX_STEPS` steps (read at call time) without
        meeting the tolerance, or at once when the gradient norm is not
        finite (a NaN norm never meets it); names the steps taken and
        carries the final gradient norm.
    """
    if spec.gradient_anchor is not None:
        raise ValueError("inner Newton needs an implicit step without a "
                         "gradient anchor; use solve_linear_case instead")
    newton = system.at(spec)
    A, obj = instance.A, spec.implicit
    x = np.array(x0, dtype=float)
    Ax = A @ x if Ax0 is None else Ax0
    terms = _constraint_terms(spec, instance, x, Ax)
    f, grad = f0, (obj.gradient(x) if grad0 is None else grad0)
    g = _gradient_from_terms(spec, instance, terms, grad)
    gnorm = math.sqrt(g @ g)
    fx = None  # F(x), when it was evaluated
    it = 0
    while not gnorm <= tol:  # a NaN norm has not converged
        if it >= INNER_MAX_STEPS or not math.isfinite(gnorm):
            raise MaxInnerIterations(
                f"inner Newton: {it} iterations, gradient norm "
                f"{gnorm:.3e} > tol {tol:.3e}", gnorm)
        try:
            d = -newton(x)[0](g)
        except np.linalg.LinAlgError:
            d = -g
        slope = float(g @ d)
        if slope > -1e-12 * math.sqrt(d @ d) * gnorm:
            d = -g  # not a descent direction; fall back
            slope = float(g @ d)
        if fx is None:
            fx = _value_from_terms(spec, terms,
                                   obj.value(x) if f is None else f)
        s = 1.0
        x_new = x + d
        Ax_new = A @ x_new
        f = fx_new = None
        if -slope > VALUE_RESOLUTION * (1.0 + abs(fx)):
            while True:
                f_new = obj.value(x_new)
                terms_new = _constraint_terms(spec, instance, x_new, Ax_new)
                F = _value_from_terms(spec, terms_new, f_new)
                if not F > fx + SUFFICIENT_DECREASE * s * slope:
                    f, fx_new = f_new, F
                    break
                s *= BACKTRACK_SHRINK
                x_new = x + s * d
                Ax_new = A @ x_new
                if s < 1e-16:
                    break  # step to the last trial unevaluated
        x, Ax, fx = x_new, Ax_new, fx_new
        # An accepted trial's value was formed from its terms.
        terms = (terms_new if fx is not None
                 else _constraint_terms(spec, instance, x, Ax))
        grad = obj.gradient(x)
        g = _gradient_from_terms(spec, instance, terms, grad)
        gnorm = math.sqrt(g @ g)
        it += 1
    return x, Ax, f, grad


def multiplier_update(lambda_bar, delta, c_k, Ax_next, r_k):
    """Dual ascent step ``lambda_bar + delta (c_k A x_next - r_k)`` from
    the product ``Ax_next = A x_next``."""
    return lambda_bar + delta * (c_k * Ax_next - r_k)
