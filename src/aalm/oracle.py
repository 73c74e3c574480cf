"""Independent reference solutions and cross-checking oracles.

Diagnostics compare iterates against a KKT pair ``(x*, lam*)`` satisfying
``grad f(x*) + A' lam* = 0`` and ``A x* = b``.  This module is the only
producer of such pairs:

* :func:`kkt_solve_qp` solves the quadratic case directly from the saddle
  system, falling back to a minimum-norm least-squares solve when the
  constraints are rank deficient;
* :func:`kkt_refine` handles general smooth objectives: damped
  null-space Newton polish on the KKT equations from the minimum-norm
  feasible point, in the instance's eigenbasis of ``A'A``
  (:meth:`~aalm.problems.ProblemInstance.eigenbasis`: its structured
  ``gram``, or a dense SVD of ``A``), down to a certified residual,
  without running any solver of this package;
* :func:`brute_step_oracle` recomputes a single solver iteration for
  scalar problems by literal formula substitution -- a deliberately
  separate arithmetic path used to pin down :func:`aalm.solver.step`.

:func:`cached_reference` computes a fresh pair on every run and writes it
to a CSV sidecar next to the experiment's outputs (:func:`save_kkt`);
:func:`load_kkt` reads that format back for callers outside the run.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .problems import KKTPoint, dense

# Residual scale accepted from the direct KKT solve before falling back to
# (or failing out of) the least-squares path.
KKT_RESIDUAL_TOL = 1e-10

# kkt_refine certifies max(stationarity, feasibility) <= REFINE_TARGET
# within POLISH_STEPS damped Newton steps.
REFINE_TARGET = 1e-9
POLISH_STEPS = 60

# The polish's fallback damping: an Armijo test with this sufficient
# decrease, tried only when the predicted decrease exceeds this fraction of
# 1 + |f| (the inner Newton's rule in aalm.subsolver).
SUFFICIENT_DECREASE = 1e-4
VALUE_RESOLUTION = 1e-14


class ReferenceNotConverged(RuntimeError):
    """Refinement missed the target KKT residual.

    Attributes
    ----------
    stat_res, feas_res : float
        Final stationarity and feasibility residuals.
    """

    def __init__(self, message, stat_res, feas_res):
        super().__init__(message)
        self.stat_res = stat_res
        self.feas_res = feas_res


class InfeasibleConstraints(ValueError):
    """``b`` is not in the range of ``A``: no feasible point exists."""


def _min_norm_solve(M, rhs):
    """Minimum-norm least-squares solve (numpy's SVD-based ``lstsq``).

    Singular values below ``max(M.shape) * eps`` relative to the largest
    count as zero (numpy's ``matrix_rank`` default).  With LAPACK's
    default cutoff of ``eps`` the rounding-level singular values of a
    rank-deficient ``M`` count as rank, and the solution picks up a large,
    arithmetic-dependent component along the null space.
    """
    rcond = max(M.shape) * np.finfo(float).eps
    return np.linalg.lstsq(M, rhs, rcond=rcond)[0]


def kkt_solve_qp(Q, q, A, b):
    """Closed-form KKT pair of ``min x'Qx/2 + q'x  s.t.  Ax = b``.

    Solves the saddle system ``[[Q, A'], [A, 0]] [x; lam] = [-q; b]``
    directly; if the system is singular (rank-deficient ``A`` or ``Q``
    singular on the null space), the minimum-norm least-squares solution
    is taken instead, which in particular selects the minimum-norm dual.

    Raises
    ------
    InfeasibleConstraints
        When no point satisfies ``Ax = b`` to within ``1e-10``.
    ReferenceNotConverged
        When the stationarity equation cannot be satisfied (e.g. the QP is
        unbounded below on the feasible set).
    """
    Q = np.asarray(Q, dtype=float)
    q = np.asarray(q, dtype=float)
    A = np.atleast_2d(np.asarray(dense(A), dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    n, m = Q.shape[0], A.shape[0]
    K = np.zeros((n + m, n + m))
    K[:n, :n] = Q
    K[:n, n:] = A.T
    K[n:, :n] = A
    rhs = np.concatenate([-q, b])
    scale = 1.0 + np.linalg.norm(rhs)
    try:
        sol = np.linalg.solve(K, rhs)
        if np.linalg.norm(K @ sol - rhs) > KKT_RESIDUAL_TOL * scale:
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        sol = _min_norm_solve(K, rhs)
    x, lam = sol[:n], sol[n:]
    feas = float(np.linalg.norm(A @ x - b))
    stat = float(np.linalg.norm(Q @ x + q + A.T @ lam))
    feas_tol = KKT_RESIDUAL_TOL * (1.0 + np.linalg.norm(b))
    if feas > feas_tol:
        raise InfeasibleConstraints(
            f"constraint residual {feas:.3e}: b is not in the range of A")
    # A NaN residual meets no bound: NaN data has no finite KKT point.
    if not (stat <= KKT_RESIDUAL_TOL * scale and feas <= feas_tol):
        raise ReferenceNotConverged(
            f"stationarity residual {stat:.3e} (feasibility {feas:.3e}); "
            f"the QP has no finite KKT point", stat, feas)
    return KKTPoint(x=x, lam=lam, kkt_tol=max(stat, feas))


def _kkt_residuals(instance, x, lam):
    g = instance.objective.gradient(x)
    stat = float(np.linalg.norm(g + instance.A.T @ lam))
    feas = float(np.linalg.norm(instance.A @ x - instance.b))
    return stat, feas


def _gram_pseudoinverse(instance):
    """``(A'A)^+`` and a basis ``Z`` of ``null(A)`` from the instance's
    eigenbasis ``V`` of ``A'A``
    (:meth:`~aalm.problems.ProblemInstance.eigenbasis`: its ``gram``, or
    a dense SVD of ``A``).  Eigenvalues at most
    ``(max(m, n) * eps)^2 * max(e)`` count as zero: the singular-value
    cutoff of :func:`_min_norm_solve`.

    Returns
    -------
    (callable, callable, callable, int)
        ``pinv(v) = V (e^+ * V'v)``, ``Zt(v) = (V'v)[null]`` and
        ``Z(y) = V u`` with ``u`` zero except ``u[null] = y``, where
        ``null`` indexes the ``k`` zero eigenvalues, and ``k``.  ``Z`` is
        the columns ``V[:, null]``, applied through ``V`` and never
        formed; ``Z'Z = I`` because ``V`` is orthogonal.
    """
    basis = instance.eigenbasis()
    V, Vt, e = basis.apply_V, basis.apply_Vt, basis.evals
    zero = e <= (max(instance.A.shape) * np.finfo(float).eps) ** 2 * e.max()
    e_plus = np.zeros(e.size)
    e_plus[~zero] = 1.0 / e[~zero]
    null = np.flatnonzero(zero)

    def Z(y):
        u = np.zeros(e.size)
        u[null] = y
        return V(u)

    return ((lambda v: V(e_plus * Vt(v))), (lambda v: Vt(v)[null]), Z,
            null.size)


def _curvature(objective, Zt, Z, k):
    """``at(x) -> (v -> H v, rhs -> (Z'HZ)^{-1} rhs)`` for the null-space
    basis ``Z`` of :func:`_gram_pseudoinverse` (``k`` columns).

    A separable objective with ``mu > 0`` and fewer terms than null-space
    directions (``r < k``) solves by Sherman--Morrison--Woodbury (Golub &
    Van Loan, *Matrix Computations*, 2.1.4): with ``P = U'Z`` (r x k) and
    ``S = W^{1/2}``, ``Z'HZ = mu I + (SP)'(SP)`` and

        (Z'HZ)^{-1} rhs = (rhs - P'S C^{-1} S P rhs) / mu,
        C = mu I + S (PP') S,

    an r x r capacitance system (eigenvalues at least ``mu``; ``W`` is
    never inverted, as ``phi''`` can underflow), with ``P`` and ``PP'``
    formed once here and no k x k array.  Any other separable objective
    forms ``Z'HZ = mu Z'Z + (U'Z)' W (U'Z)`` (``Z'Z = I``), and an
    objective without a separable form ``Z'HZ`` from ``hessian(x)`` and
    ``Z`` formed densely once here; both solve it by :func:`_dense_solve`.
    """
    form = objective.separable
    if form is None:
        Zd = np.column_stack([Z(y) for y in np.eye(k)])  # H is n x n anyway

        def at(x):
            H = objective.hessian(x)
            return (lambda v: H @ v), _dense_solve(Zd.T @ (H @ Zd))
        return at
    U, mu = form.U, form.mu
    UZ = np.column_stack([Zt(u) for u in U.T]).T

    def apply_H(w):
        return lambda v: mu * v + U @ (w * (U.T @ v))

    if mu > 0 and U.shape[1] < k:
        PPt = UZ @ UZ.T

        def at(x):
            w = form.d2phi(U.T @ x - form.c)
            s = np.sqrt(w)
            C = s[:, None] * PPt * s
            C[np.diag_indices_from(C)] += mu

            def solve(rhs):
                y = np.linalg.solve(C, s * (UZ @ rhs))
                return (rhs - UZ.T @ (s * y)) / mu
            return apply_H(w), solve
        return at
    muZZ = mu * np.eye(k)

    def at(x):
        w = form.d2phi(U.T @ x - form.c)
        return apply_H(w), _dense_solve(muZZ + (UZ.T * w) @ UZ)
    return at


def _dense_solve(ZHZ):
    """``rhs -> ZHZ^{-1} rhs`` through a Cholesky factor, or by a
    minimum-norm least-squares solve when ``ZHZ`` is not positive
    definite."""
    # Cholesky through numpy, not scipy: each wheel bundles an OpenBLAS
    # whose workers spin for about 0.1 s after a threaded call, and a
    # second spinning pool next to numpy's (busy after Z'HZ) would preempt
    # the caller's next phase on a 2-core machine.  The dense path loads
    # numpy's OpenBLAS only.
    def solve(rhs):
        try:
            L = np.linalg.cholesky(ZHZ)
            return np.linalg.solve(L.T, np.linalg.solve(L, rhs))
        except np.linalg.LinAlgError:
            return _min_norm_solve(ZHZ, rhs)
    return solve


def _armijo_damping(objective, x, g, dx):
    """Largest ``s = 1, 1/2, ...`` (down to ``1e-16``) with
    ``f(x + s dx) <= f(x) + SUFFICIENT_DECREASE s g'dx``, or ``None`` when
    there is none or ``dx`` predicts no decrease that ``f``'s value can
    resolve."""
    fx = objective.value(x)
    slope = float(g @ dx)
    if -slope <= VALUE_RESOLUTION * (1.0 + abs(fx)):
        return None
    s = 1.0
    while s >= 1e-16:
        if objective.value(x + s * dx) <= fx + SUFFICIENT_DECREASE * s * slope:
            return s
        s *= 0.5
    return None


def _polish(instance, pinv, Zt, Z, k, x, lam):
    """Damped null-space Newton steps on the KKT system from ``(x, lam)``.

    A step is accepted at the largest damping ``s = 1, 1/2, ...`` (down to
    ``1e-6``) that lowers ``max(stationarity, feasibility)``, else at the
    damping of :func:`_armijo_damping` (``lam`` moves by the same ``s``);
    with neither the damping has stalled and polishing stops.  At most
    ``POLISH_STEPS`` steps are taken, fewer once the residual is below
    ``0.01 * REFINE_TARGET``.  The final dual is the minimum-norm
    multiplier of the final ``x`` when that does not raise the residual.
    ``H`` enters only as ``H v`` and a solve with ``Z'HZ``
    (:func:`_curvature`), and ``Z`` only as the products ``Zt(v)`` and
    ``Z(dz)`` (:func:`_gram_pseudoinverse`), so neither is formed for a
    separable objective.  Returns the pair and a note naming the steps
    taken and whether the damping stalled.
    """
    obj = instance.objective
    A, b = instance.A, instance.b
    curvature = _curvature(obj, Zt, Z, k)
    best = max(_kkt_residuals(instance, x, lam))
    steps, stalled = 0, False
    for _ in range(POLISH_STEPS):
        if best <= 0.01 * REFINE_TARGET:
            break
        apply_H, solve = curvature(x)
        g = obj.gradient(x)
        dx_p = pinv(A.T @ (b - A @ x))
        dx = dx_p + Z(solve(-Zt(g + apply_H(dx_p))))
        lam_new = -(A @ pinv(g + apply_H(dx)))
        # Damped acceptance on the KKT residual.
        s = 1.0
        while s > 1e-6:
            x_try = x + s * dx
            lam_try = lam + s * (lam_new - lam)
            stat_t, feas_t = _kkt_residuals(instance, x_try, lam_try)
            if max(stat_t, feas_t) < best:
                x, lam, best = x_try, lam_try, max(stat_t, feas_t)
                steps += 1
                break
            s *= 0.5
        else:
            s = _armijo_damping(obj, x, g, dx)
            if s is None:
                stalled = True  # no progress in any damping; stop polishing
                break
            x, lam = x + s * dx, lam + s * (lam_new - lam)
            best = max(_kkt_residuals(instance, x, lam))
            steps += 1
    # Deterministic dual: minimum-norm multiplier for the final x.
    lam_mn = -(A @ pinv(obj.gradient(x)))
    if max(_kkt_residuals(instance, x, lam_mn)) <= best:
        lam = lam_mn
    return x, lam, (f"{steps} polish steps, damping "
                    f"{'stalled' if stalled else 'did not stall'}")


def kkt_refine(instance):
    """High-accuracy KKT pair for a general smooth instance.

    Quadratic objectives short-circuit to :func:`kkt_solve_qp`.  Any other
    objective needs a Hessian or a separable form: it is polished by
    damped Newton steps on the KKT system (:func:`_polish`) from the
    minimum-norm feasible point ``x0 = (A'A)^+ A'b`` and its minimum-norm
    multiplier ``-A (A'A)^+ grad f(x0)``.  Each polish step is a
    null-space Newton step (Nocedal & Wright, *Numerical Optimization*,
    16.2) in an eigenbasis of ``A'A`` (see :func:`_gram_pseudoinverse`),
    with ``Z`` a basis of ``null(A)``:

        dx_p    = (A'A)^+ A'(b - A x),
        Z'HZ dz = -Z'(g + H dx_p),      dx = dx_p + Z dz,
        lam_new = -A (A'A)^+ (g + H dx),

    so rank-deficient constraints are handled throughout and ``lam_new``
    is the minimum-norm multiplier.  A separable objective has
    ``H = mu I + U W U'`` with ``W = diag(phi''(U'x - c))``, so

        Z'HZ = mu Z'Z + (U'Z)' W (U'Z),    H v = mu v + U (W U'v),

    with ``U'Z`` formed once per call and no n x n array (Nocedal &
    Wright, ch. 7); other objectives form ``H`` once per step.  ``Z`` is
    applied through the instance's eigenbasis ``V`` and never formed for
    a separable objective: ``U'Z`` takes one ``V'`` product per column of
    ``U``, and ``Z'Z = I`` because ``V`` is orthogonal.
    With ``mu > 0`` and fewer terms than null-space directions
    (``r < k``; the 10x200 ring has r = 10, k = 200) ``Z'HZ dz = rhs`` is
    solved by Woodbury through an r x r capacitance matrix and no k x k
    array is formed (:func:`_curvature`); otherwise ``Z'HZ`` is factored
    by Cholesky, with a minimum-norm least-squares solve when it is
    singular.  No solver of this package is run: the
    reference stays an arithmetic path separate from the iterations it
    checks.  The returned ``kkt_tol`` certifies
    ``max(stationarity, feasibility) <= REFINE_TARGET``, evaluated from
    ``A`` and the gradient.

    Raises
    ------
    ValueError
        If the objective is not quadratic and has neither a Hessian nor a
        separable form.
    ReferenceNotConverged
        If the residual target is not met; carries the final residuals,
        and its message names the polish steps taken and whether the
        damping stalled.
    """
    obj = instance.objective
    if obj.quadratic is not None:
        Q, q = obj.quadratic
        return kkt_solve_qp(Q, q, instance.A, instance.b)
    if obj.hessian is None and obj.separable is None:
        raise ValueError(f"kkt_refine needs a quadratic objective or one "
                         f"with a hessian or separable form; "
                         f"{instance.name!r} has neither")
    A = instance.A
    pinv, Zt, Z, k = _gram_pseudoinverse(instance)
    x = pinv(A.T @ instance.b)
    x, lam, note = _polish(instance, pinv, Zt, Z, k, x,
                           -(A @ pinv(obj.gradient(x))))
    stat, feas = _kkt_residuals(instance, x, lam)
    # np.max, unlike max, keeps a NaN residual, which meets no target.
    res = float(np.max((stat, feas)))
    if not res <= REFINE_TARGET:
        raise ReferenceNotConverged(
            f"KKT residual {res:.3e} (stationarity {stat:.3e}, feasibility "
            f"{feas:.3e}) exceeds target {REFINE_TARGET:.1e} after {note}",
            stat, feas)
    return KKTPoint(x=x, lam=lam, kkt_tol=res)


def brute_step_oracle(quad_coef, lin_coef, a, b, gamma, delta, beta, eta,
                      t_curr, t_next, x_curr, x_prev, lam_curr, lam_prev,
                      case="implicit"):
    """One solver iteration for the scalar problem, by literal substitution.

    The problem is ``min quad_coef*x^2/2 + lin_coef*x  s.t.  a*x = b`` in
    one variable with one constraint.  Every formula of the iteration is
    written out in plain scalar arithmetic, independent of the solver
    modules, so agreement with :func:`aalm.solver.step` pins the
    implementation:

        alpha = (t_{k+1} - eta)/eta,   c = t_{k+1}/eta,
        xbar  = x_k + (t_k - 1)/t_{k+1} (x_k - x_{k-1}),
        p = c*lbar - alpha*lam_k,      r = alpha*a*x_k + b,
        x_{k+1} = [xbar/gamma - g0 - ql + a(beta*b - p + delta*c*r)]
                  / [qc + 1/gamma + beta*a^2 + delta*c^2*a^2],
        lam_{k+1} = lbar + delta*(c*a*x_{k+1} - r),

    where ``(qc, ql, g0)`` are ``(quad_coef, lin_coef, 0)`` for the
    implicit case and ``(0, 0, f'(xbar))`` for the explicit case.

    Returns
    -------
    (float, float)
        ``(x_{k+1}, lam_{k+1})``.
    """
    alpha = (t_next - eta) / eta
    c = t_next / eta
    w = (t_curr - 1.0) / t_next
    xbar = x_curr + w * (x_curr - x_prev)
    lbar = lam_curr + w * (lam_curr - lam_prev)
    p = c * lbar - alpha * lam_curr
    r = alpha * a * x_curr + b
    if case == "explicit":
        qc, ql, g0 = 0.0, 0.0, quad_coef * xbar + lin_coef
    elif case == "implicit":
        qc, ql, g0 = quad_coef, lin_coef, 0.0
    else:
        raise ValueError(f"scalar oracle handles implicit/explicit, "
                         f"got {case!r}")
    denom = qc + 1.0 / gamma + beta * a * a + delta * c * c * a * a
    numer = xbar / gamma - g0 - ql + a * (beta * b - p + delta * c * r)
    x_next = numer / denom
    lam_next = lbar + delta * (c * a * x_next - r)
    return x_next, lam_next


# ---------------------------------------------------------------------------
# Reference sidecar: the KKT pair written next to experiment outputs.

def save_kkt(path, kkt):
    """Write a KKT pair as a small CSV sidecar (round-trip exact)."""
    with open(path, "w") as f:
        f.write(f"kkt_tol,{float(kkt.kkt_tol)!r}\n")
        f.write("x," + ",".join(repr(float(v)) for v in kkt.x) + "\n")
        f.write("lam," + ",".join(repr(float(v)) for v in kkt.lam) + "\n")


def load_kkt(path):
    """Read a sidecar written by :func:`save_kkt`."""
    with open(path) as f:
        rows = [line.rstrip("\n").split(",") for line in f if line.strip()]
    fields = {r[0]: r[1:] for r in rows}
    return KKTPoint(x=np.array([float(v) for v in fields["x"]]),
                    lam=np.array([float(v) for v in fields["lam"]]),
                    kkt_tol=float(fields["kkt_tol"][0]))


def cached_reference(instance, directory):
    """Compute the reference pair for ``instance`` with :func:`kkt_refine`,
    write it to ``directory / <name>.kkt.csv`` and return it.

    The pair is recomputed on every call; the sidecar is an output for
    readers of the run, never read back here.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    kkt = kkt_refine(instance)
    save_kkt(directory / f"{instance.name}.kkt.csv", kkt)
    return kkt
