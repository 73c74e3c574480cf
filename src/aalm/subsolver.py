"""Inner solvers for the per-iteration primal subproblem.

Each outer iteration minimizes, over ``x``,

    F(x) = f_part(x) + (beta/2)||Ax - b||^2 + (1/(2 gamma))||x - xbar||^2
           + <p, Ax - b> + (delta/2)||c Ax - r||^2

where ``f_part`` is the objective itself (implicit step) or its
linearization ``<grad f(xbar), x>`` (explicit step).  The strong convexity
injected by the proximal term makes F well-posed for any convex
``f_part``.

:func:`step_plan` resolves a step case once per run into a frozen
:class:`StepPlan`, the one place that reads a case string.  Its backend
is one of two paths:

* :func:`solve_linear_case` -- one SPD solve when ``f_part`` is (at most)
  quadratic: a few applications of an eigenbasis built once per run (see
  :class:`LinearCache`) -- of ``A'A`` when the quadratic part is a
  multiple of the identity, of the pair ``(A'A, Q + I/gamma)`` for any
  other ``Q`` when the run's ``gamma`` is fixed -- and an LU solve
  (:func:`spd_solve`) per solve otherwise;
* :func:`solve_inner_newton` -- damped Newton with backtracking for smooth
  non-quadratic implicit parts, one LU solve per step, to
  the fixed tolerance schedule :func:`inner_tolerance` within at most
  :data:`INNER_MAX_STEPS` steps; it returns ``A x``, ``f`` and ``grad f``
  at its point with the point, and the next solve starts from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .problems import GramEigenbasis, ObjectiveOracle, dense

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


@dataclass(frozen=True)
class SubproblemSpec:
    """Coefficients of one outer iteration's subproblem.

    ``gamma`` and ``delta`` are the *effective* stepsizes (already
    multiplied by any scaling factor).  ``implicit`` (the part of ``f``
    kept) and ``gradient_anchor`` (the linearized part's gradient at the
    extrapolated point) come from the run's :class:`StepPlan`.
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

    def __post_init__(self):
        if self.gamma <= 0 or self.delta <= 0:
            raise ValueError("gamma and delta must be positive")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")


def inner_tolerance(t_curr):
    """Per-iteration inner gradient tolerance ``min(1e-8, 1e-2 / t_k^3)``."""
    return min(INNER_TOL_CAP, INNER_TOL_SCALE / t_curr ** 3)


def subproblem_value(spec, instance, x, Ax=None, f_x=None):
    """Objective value F(x) of the subproblem (used by line searches/tests).

    ``Ax`` is ``A x`` and ``f_x`` the implicit part's value at ``x`` when
    the caller has them; each is formed here otherwise."""
    if f_x is None:
        f_x = spec.implicit.value(x) if spec.implicit is not None else 0.0
    v = f_x
    if spec.gradient_anchor is not None:
        v += float(spec.gradient_anchor @ x)
    if Ax is None:
        Ax = instance.A @ x
    Axb = Ax - instance.b
    d = x - spec.xbar_k
    cAxr = spec.c_k * Ax - spec.r_k
    return (v + 0.5 * spec.beta * float(Axb @ Axb)
            + 0.5 / spec.gamma * float(d @ d)
            + float(spec.p_k @ Axb)
            + 0.5 * spec.delta * float(cAxr @ cAxr))


def subproblem_gradient(spec, instance, x, Ax=None, grad_x=None):
    """Gradient of F at ``x``, with the constraint terms gathered under
    one product by ``A'``; ``Ax`` is ``A x`` and ``grad_x`` the implicit
    part's gradient at ``x`` when the caller has them, and each is formed
    here otherwise."""
    g = grad_x
    if g is None:
        g = (spec.implicit.gradient(x) if spec.implicit is not None
             else np.zeros_like(x))
    if spec.gradient_anchor is not None:
        g = g + spec.gradient_anchor
    if Ax is None:
        Ax = instance.A @ x
    return (g + (x - spec.xbar_k) / spec.gamma
            + instance.At @ (spec.beta * (Ax - instance.b) + spec.p_k
                             + spec.delta * spec.c_k
                             * (spec.c_k * Ax - spec.r_k)))


def spd_solve(M, rhs):
    """``M^{-1} rhs`` for a symmetric positive definite ``M`` by numpy's
    LU solve (LAPACK ``gesv``), which needs no scipy.  ``M`` is left
    unchanged.  Definiteness is not checked here: a quadratic part is
    checked once where it is built (:func:`aalm.problems.make_qp`), and
    each caller guards its result (a residual assertion, a descent test).
    Raises ``np.linalg.LinAlgError`` when ``M`` is singular."""
    return np.linalg.solve(M, rhs)


def generalized_eigenbasis(K, B):
    """``(evals, V)`` with ``V'BV = I`` and ``V'KV = diag(evals)`` for a
    symmetric positive semidefinite ``K`` and a positive definite ``B``:
    with ``B = LL'``, ``V = L^{-T} W`` where ``W`` diagonalizes
    ``L^{-1} K L^{-T}`` (Golub & Van Loan, *Matrix Computations*, 8.7)."""
    Linv = np.linalg.inv(np.linalg.cholesky(B))
    evals, W = np.linalg.eigh(Linv @ K @ Linv.T)
    return evals, Linv.T @ W


def _dense_basis(evals, V):
    """A :class:`~aalm.problems.GramEigenbasis` applying a dense ``V``."""
    return GramEigenbasis(evals, lambda y: V @ y, lambda x: V.T @ x)


class LinearCache:
    """Per-run precomputation shared by every linear subproblem solve.

    Holds ``A'A``, the implicit ``part``'s ``(Q, q)`` and the solve
    backend, chosen from the instance and the run's stepsize ``gamma``
    (None when it varies over the run):

    * ``Q = mu I`` (``mu = 0`` in the explicit case): ``basis`` is an
      orthonormal eigenbasis of ``A'A`` (a
      :class:`~aalm.problems.GramEigenbasis`) -- the instance's factored
      ``gram`` when it carries one, else a dense ``eigh`` computed here --
      and serves every ``gamma``;
    * any other ``Q`` with a fixed ``gamma``: ``basis`` is a generalized
      eigenbasis ``V`` of the pair ``(A'A, B)``, ``B = Q + I/gamma`` (kept
      as ``B``), with ``V'BV = I`` and ``V'A'AV = diag(evals)``, built
      here once; it serves solves at that ``gamma`` only;
    * any other ``Q`` otherwise: ``basis`` is None and each solve is an
      LU solve of the system (:func:`spd_solve`).

    Either way each solve with a basis is a few basis applications.
    ``A'A`` keeps the storage of ``A`` on the orthonormal path and is
    dense (formed once) on the other two.
    """

    def __init__(self, instance, part, gamma=None):
        if part is not None and part.quadratic is None:
            raise ValueError("linear path needs a quadratic implicit part; "
                             "use solve_inner_newton instead")
        AtA = instance.A.T @ instance.A
        self.Q, self.q = part.quadratic if part is not None else (None, None)
        self.mu = self._identity_coefficient()
        self.AtA = AtA if self.mu is not None else dense(AtA)
        self.gamma = self.B = self.basis = None
        if self.mu is not None and instance.gram is not None:
            self.basis = instance.gram
        elif self.mu is not None:
            self.basis = _dense_basis(*np.linalg.eigh(dense(AtA)))
        elif gamma is not None:
            self.gamma = gamma
            self.B = self.Q + np.eye(self.Q.shape[0]) / gamma
            self.basis = _dense_basis(
                *generalized_eigenbasis(self.AtA, self.B))

    def _identity_coefficient(self):
        """``mu`` with ``Q = mu I`` (0 without ``Q``), or None."""
        if self.Q is None:
            return 0.0
        n = self.Q.shape[0]
        mu = float(np.trace(self.Q)) / n
        if np.abs(self.Q - mu * np.eye(n)).max() > 1e-12 * max(1.0, abs(mu)):
            return None
        return mu


@dataclass(frozen=True)
class StepPlan:
    """How a run treats ``f``: solved implicitly or linearized at
    ``xbar`` (the other field is None), ``A'A`` and the solve backend --
    a :class:`LinearCache`, or None for inner Newton."""

    implicit: Optional[ObjectiveOracle]
    linearized: Optional[ObjectiveOracle]
    AtA: object = None
    cache: Optional[LinearCache] = None

    def anchor(self, x):
        """Gradient of the linearized part at ``x`` (None without one)."""
        return self.linearized.gradient(x) if self.linearized else None

    def stepsize(self, gamma):
        """``gamma`` as a float, by default ``1/L`` with a linearized part
        and 1 without; must be positive and, with one, at most ``1/L``."""
        L = self.linearized.lipschitz if self.linearized else None
        if gamma is None:
            gamma = 1.0 / L if L is not None else 1.0
        if gamma <= 0:
            raise ValueError(f"gamma must be positive, got {gamma}")
        if L is not None and gamma > 1.0 / L * (1.0 + 1e-12):
            raise ValueError(
                f"gamma = {gamma:.6g} violates the stepsize restriction "
                f"1/L = {1.0 / L:.6g} of the linearized step")
        return float(gamma)


def step_plan(instance, case, backend=True, gamma=None):
    """The :class:`StepPlan` of ``case`` on ``instance`` (without
    ``backend``: the split of ``f`` only).  ``gamma`` is the run's
    stepsize when every step uses it, which lets a linear backend factor
    a general quadratic part once (see :class:`LinearCache`); None means
    it may vary.  Raises ValueError for a case outside :data:`CASES`, a
    linearized part without ``lipschitz``, or a Newton part without
    ``hessian``."""
    if case not in CASES:
        raise ValueError(f"case must be one of {CASES}, got {case!r}")
    obj = instance.objective
    implicit, linearized = (obj, None) if case == "implicit" else (None, obj)
    if linearized is not None and linearized.lipschitz is None:
        raise ValueError(
            f"{case} case needs a gradient Lipschitz constant on the "
            f"linearized part; use the implicit case instead")
    if not backend:
        return StepPlan(implicit, linearized)
    if implicit is None or implicit.quadratic is not None:
        cache = LinearCache(instance, implicit, gamma)
        return StepPlan(implicit, linearized, cache.AtA, cache)
    if implicit.hessian is None:
        raise ValueError("inner Newton needs an implicit part with a hessian")
    return StepPlan(implicit, linearized, dense(instance.A.T @ instance.A))


def solve_linear_case(spec, instance, cache=None):
    """Solve the subproblem exactly when its stationarity system is linear.

    Applicable to the explicit case and to an implicit case whose
    objective is quadratic.  Solves

        (Q_eff + gamma^{-1} I + (beta + delta c^2) A'A) x
            = gamma^{-1} xbar - g_anchor - q_eff + A'(beta b - p + delta c r)

    through the cache's eigenbasis when it holds one for ``spec.gamma``
    (see :class:`LinearCache`), with one refinement pass, and by an LU
    solve otherwise.  Asserts the residual against
    ``1e-10`` on the backward-error scale ``1 + ||rhs|| + ||M|| ||x||``
    (the two scales differ materially once ``delta c^2`` is large and
    ``A`` has a null space), with ``||M||`` the 2-norm on the orthonormal
    path, the largest diagonal entry (at most the 2-norm) on the
    generalized one and the infinity norm under the LU solve.
    """
    if cache is None:
        cache = LinearCache(instance, spec.implicit)
    coef = spec.beta + spec.delta * spec.c_k ** 2
    rhs = spec.xbar_k / spec.gamma + instance.At @ (
        spec.beta * instance.b - spec.p_k + spec.delta * spec.c_k * spec.r_k)
    if spec.gradient_anchor is not None:
        rhs = rhs - spec.gradient_anchor
    if cache.q is not None:
        rhs = rhs - cache.q
    if cache.basis is not None and cache.gamma in (None, spec.gamma):
        # M = h B + coef A'A with V'BV = I: B = I and h = mu + 1/gamma on
        # the orthonormal path, B = Q + I/gamma and h = 1 on the
        # generalized one.
        h = cache.mu + 1.0 / spec.gamma if cache.B is None else 1.0

        def apply_M(x):
            hBx = h * x if cache.B is None else cache.B @ x
            return hBx + coef * (cache.AtA @ x)

        diag = h + coef * cache.basis.evals
        V, Vt = cache.basis.apply_V, cache.basis.apply_Vt
        x = V(Vt(rhs) / diag)
        # One refinement pass: the eigenfactorization's backward error
        # leaves an O(n eps ||M||) residual that two extra matvecs remove.
        x = x + V(Vt(rhs - apply_M(x)) / diag)
        Mx = apply_M(x)
        # A factored basis need not order its eigenvalues.
        m_scale = float(diag.max() if cache.B is None else
                        (cache.B.diagonal()
                         + coef * cache.AtA.diagonal()).max())
    else:
        M = coef * cache.AtA
        M.flat[::M.shape[0] + 1] += 1.0 / spec.gamma
        if cache.Q is not None:
            M += cache.Q
        x = spd_solve(M, rhs)
        Mx = M @ x
        m_scale = float(np.abs(M).sum(axis=1).max())
    res = Mx - rhs
    resid = math.sqrt(res @ res)
    bound = LINEAR_RESIDUAL_TOL * (1.0 + math.sqrt(rhs @ rhs)
                                   + m_scale * math.sqrt(x @ x))
    if not resid <= bound:
        raise SubsolverError(
            f"linear subproblem residual {resid:.3e} exceeds {bound:.3e}")
    return x


def solve_subproblem(spec, instance, plan, state):
    """Solve the subproblem at ``state`` by ``plan``'s backend (inner Newton
    from ``state.x_curr`` at ``inner_tolerance(t_k)``, starting from the
    state's carried ``A x_k``, ``f(x_k)`` and ``grad f(x_k)``).  Returns
    ``(x, Ax, f_x, grad_x)`` as :func:`solve_inner_newton` does; the
    linear backend forms ``A x`` once, evaluates ``f`` nowhere and returns
    ``(x, Ax, None, None)``.  An inner failure's or a singular system's
    message gains ``k`` and ``t_k``."""
    try:
        if plan.cache is not None:
            x = solve_linear_case(spec, instance, plan.cache)
            return x, instance.A @ x, None, None
        return solve_inner_newton(spec, instance, state.x_curr,
                                  inner_tolerance(state.t_curr), plan.AtA,
                                  state.f_curr, state.grad_curr,
                                  state.Ax_curr)
    except (MaxInnerIterations, SubsolverError,
            np.linalg.LinAlgError) as e:
        e.args = (f"{e} at k={state.k}, t_k={state.t_curr:.6g}",)
        raise


def solve_inner_newton(spec, instance, x0, tol, AtA=None, f0=None,
                       grad0=None, Ax0=None):
    """Damped Newton on the subproblem for smooth non-quadratic parts.

    Iterates from the warm start ``x0`` until the subproblem gradient norm
    drops to ``tol``.  Directions come from the exact
    subproblem Hessian; when a computed direction fails the descent test
    ``<d, g> <= -1e-12 ||d|| ||g||`` it falls back to steepest descent for
    that iteration.  Backtracking halves the step until the Armijo
    sufficient-decrease condition holds.  ``A x`` is formed once for each
    point visited (each trial, and the start unless ``Ax0`` is given), and
    the accepted trial's value is the next step's ``F(x)``.  The implicit
    part ``f`` is evaluated at most once per point: its gradient at each
    accepted point (for the stopping test) and its value at each trial.

    Parameters
    ----------
    AtA : ndarray, optional
        Dense ``A'A`` (a Newton :class:`StepPlan`'s); formed when omitted.
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
        meeting the tolerance; carries the final gradient norm.
    """
    if AtA is None:
        AtA = dense(instance.A.T @ instance.A)
    A, obj = instance.A, spec.implicit
    coef = spec.beta + spec.delta * spec.c_k ** 2
    x = np.array(x0, dtype=float)
    Ax = A @ x if Ax0 is None else Ax0
    f, grad = f0, (obj.gradient(x) if grad0 is None else grad0)
    g = subproblem_gradient(spec, instance, x, Ax, grad)
    gnorm = math.sqrt(g @ g)
    fx = None  # F(x), when it was evaluated
    it = 0
    while gnorm > tol:
        if it >= INNER_MAX_STEPS:
            raise MaxInnerIterations(
                f"inner Newton: {INNER_MAX_STEPS} iterations, gradient "
                f"norm {gnorm:.3e} > tol {tol:.3e}", gnorm)
        H = obj.hessian(x) + coef * AtA
        H.flat[::H.shape[0] + 1] += 1.0 / spec.gamma
        try:
            d = -spd_solve(H, g)
        except np.linalg.LinAlgError:
            d = -g
        if g @ d > -1e-12 * math.sqrt(d @ d) * gnorm:
            d = -g  # not a descent direction; fall back
        if fx is None:
            fx = subproblem_value(spec, instance, x, Ax, f)
        slope = float(g @ d)
        s = 1.0
        x_new = x + d
        Ax_new = A @ x_new
        f = fx_new = None
        if -slope > VALUE_RESOLUTION * (1.0 + abs(fx)):
            while True:
                f_new = obj.value(x_new)
                F = subproblem_value(spec, instance, x_new, Ax_new, f_new)
                if not F > fx + SUFFICIENT_DECREASE * s * slope:
                    f, fx_new = f_new, F
                    break
                s *= BACKTRACK_SHRINK
                x_new = x + s * d
                Ax_new = A @ x_new
                if s < 1e-16:
                    break  # step to the last trial unevaluated
        x, Ax, fx = x_new, Ax_new, fx_new
        grad = obj.gradient(x)
        g = subproblem_gradient(spec, instance, x, Ax, grad)
        gnorm = math.sqrt(g @ g)
        it += 1
    return x, Ax, f, grad


def multiplier_update(lambda_bar, delta, c_k, Ax_next, r_k):
    """Dual ascent step ``lambda_bar + delta (c_k A x_next - r_k)`` from
    the product ``Ax_next = A x_next``."""
    return lambda_bar + delta * (c_k * Ax_next - r_k)
