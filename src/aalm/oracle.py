"""Independent reference solutions and cross-checking oracles.

Diagnostics compare iterates against a KKT pair ``(x*, lam*)`` satisfying
``grad f(x*) + A' lam* = 0`` and ``A x* = b``.  This module is the only
producer of such pairs:

* :func:`kkt_solve_qp` solves the quadratic case directly from the saddle
  system, falling back to a minimum-norm least-squares solve when the
  constraints are rank deficient;
* :func:`kkt_refine` handles general smooth objectives: damped
  null-space Newton polish on the KKT equations from the minimum-norm
  feasible point, in an eigenbasis of ``A'A`` (the instance's structured
  one when it carries one, a dense SVD otherwise), down to a certified
  residual, without running any solver of this package;
* :func:`brute_step_oracle` recomputes a single solver iteration for
  scalar problems by literal formula substitution -- a deliberately
  separate arithmetic path used to pin down :func:`aalm.solver.step`.

References are expensive for the larger benchmark instances, so they can
be cached to sidecar CSV files keyed by a content hash of the instance.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from .problems import GramEigenbasis, KKTPoint, dense, issparse

# Residual scale accepted from the direct KKT solve before falling back to
# (or failing out of) the least-squares path.
KKT_RESIDUAL_TOL = 1e-10

# A cached pair is trusted while its re-evaluated KKT residual stays below
# FACTOR * recorded kkt_tol + FLOOR; the floor absorbs the rounding of a
# re-evaluation in a different operation order.
CACHE_RECHECK_FACTOR = 10.0
CACHE_RECHECK_FLOOR = 1e-13

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
    """Minimum-norm least-squares solve (complete orthogonal factorization).

    Singular values below ``max(M.shape) * eps`` relative to the largest
    count as zero (numpy's ``matrix_rank`` default).  With LAPACK's
    default cutoff of ``eps`` the rounding-level singular values of a
    rank-deficient ``M`` count as rank, and the solution picks up a large,
    arithmetic-dependent component along the null space.  scipy is
    imported here, on this fallback only.
    """
    from scipy.linalg import lstsq
    cond = max(M.shape) * np.finfo(float).eps
    sol, _, _, _ = lstsq(M, rhs, cond=cond, lapack_driver="gelsy")
    return sol


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
    if feas > KKT_RESIDUAL_TOL * (1.0 + np.linalg.norm(b)):
        raise InfeasibleConstraints(
            f"constraint residual {feas:.3e}: b is not in the range of A")
    if stat > KKT_RESIDUAL_TOL * scale:
        raise ReferenceNotConverged(
            f"stationarity residual {stat:.3e}; the QP has no finite "
            f"KKT point", stat, feas)
    return KKTPoint(x=x, lam=lam, kkt_tol=max(stat, feas))


def _kkt_residuals(instance, x, lam):
    g = instance.objective.gradient(x)
    stat = float(np.linalg.norm(g + instance.A.T @ lam))
    feas = float(np.linalg.norm(instance.A @ x - instance.b))
    return stat, feas


def _gram_pseudoinverse(instance):
    """``(A'A)^+`` and a basis of ``null(A)`` from an eigenbasis of ``A'A``.

    Uses the instance's ``gram`` when it has one, otherwise a dense SVD
    ``A = U diag(s) V'`` with eigenvalues ``s^2`` padded with zeros to
    ``n``.  Eigenvalues at most ``(max(m, n) * eps)^2 * max(e)`` count as
    zero: the singular-value cutoff of :func:`_min_norm_solve`.

    Returns
    -------
    (callable, ndarray)
        ``pinv(v) = V (e^+ * V'v)`` and ``Z`` (n, k), the eigenvectors of
        the zero eigenvalues.
    """
    A, n = instance.A, instance.dim
    gram = instance.gram
    if gram is None:
        _, sigma, Vt = np.linalg.svd(dense(A), full_matrices=True)
        evals = np.zeros(n)
        evals[:sigma.size] = sigma ** 2
        gram = GramEigenbasis(evals, apply_V=lambda y: Vt.T @ y,
                              apply_Vt=lambda x: Vt @ x)
    e = gram.evals
    zero = e <= (max(A.shape) * np.finfo(float).eps) ** 2 * e.max()
    e_plus = np.zeros(n)
    e_plus[~zero] = 1.0 / e[~zero]
    null = np.flatnonzero(zero)
    if instance.gram is None:
        Z = np.ascontiguousarray(Vt[null].T)
    else:
        Z = np.empty((n, null.size))
        for j, i in enumerate(null):
            unit = np.zeros(n)
            unit[i] = 1.0
            Z[:, j] = gram.apply_V(unit)
    return (lambda v: gram.apply_V(e_plus * gram.apply_Vt(v))), Z


def _curvature(objective, Z):
    """``at(x) -> (v -> H v, Z'HZ)``: factored for a separable objective,
    with ``U'Z`` and ``Z'Z`` formed once here, else from ``hessian(x)``."""
    form = objective.separable
    if form is None:
        def at(x):
            H = objective.hessian(x)
            return (lambda v: H @ v), Z.T @ (H @ Z)
        return at
    U, mu = form.U, form.mu
    UZ = U.T @ Z
    muZZ = mu * (Z.T @ Z)

    def at(x):
        w = form.d2phi(U.T @ x - form.c)
        return ((lambda v: mu * v + U @ (w * (U.T @ v))),
                muZZ + (UZ.T * w) @ UZ)
    return at


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


def _polish(instance, pinv, Z, x, lam):
    """Damped null-space Newton steps on the KKT system from ``(x, lam)``.

    A step is accepted at the largest damping ``s = 1, 1/2, ...`` (down to
    ``1e-6``) that lowers ``max(stationarity, feasibility)``, else at the
    damping of :func:`_armijo_damping` (``lam`` moves by the same ``s``);
    with neither the damping has stalled and polishing stops.  At most
    ``POLISH_STEPS`` steps are taken, fewer once the residual is below
    ``0.01 * REFINE_TARGET``.  The final dual is the minimum-norm
    multiplier of the final ``x`` when that does not raise the residual.
    ``H`` enters only as ``H v = mu v + U (W U'v)`` and
    ``Z'HZ = mu Z'Z + (U'Z)' W (U'Z)`` for a separable objective
    (:func:`_curvature`).  Returns the pair and a note naming the steps
    taken and whether the damping stalled.
    """
    obj = instance.objective
    A, b = instance.A, instance.b
    curvature = _curvature(obj, Z)
    best = max(_kkt_residuals(instance, x, lam))
    steps, stalled = 0, False
    for _ in range(POLISH_STEPS):
        if best <= 0.01 * REFINE_TARGET:
            break
        apply_H, ZHZ = curvature(x)
        g = obj.gradient(x)
        dx_p = pinv(A.T @ (b - A @ x))
        rhs = -(Z.T @ (g + apply_H(dx_p)))
        # Cholesky through numpy, not scipy: each wheel bundles an
        # OpenBLAS whose workers spin for about 0.1 s after a threaded
        # call, and a second spinning pool next to numpy's (busy after
        # Z'HZ) would preempt the caller's next phase on a 2-core
        # machine.  The dense path loads numpy's OpenBLAS only.
        try:
            L = np.linalg.cholesky(ZHZ)
            dz = np.linalg.solve(L.T, np.linalg.solve(L, rhs))
        except np.linalg.LinAlgError:
            dz = _min_norm_solve(ZHZ, rhs)
        dx = dx_p + Z @ dz
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

    with ``U'Z`` and ``Z'Z`` formed once per call and no n x n array
    (Nocedal & Wright, ch. 7); other objectives form ``H`` once per step.
    ``Z'HZ`` is factored by Cholesky, with a minimum-norm least-squares
    solve when it is singular.  No solver of this package is run: the
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
    pinv, Z = _gram_pseudoinverse(instance)
    x = pinv(A.T @ instance.b)
    x, lam, note = _polish(instance, pinv, Z, x,
                           -(A @ pinv(obj.gradient(x))))
    stat, feas = _kkt_residuals(instance, x, lam)
    res = max(stat, feas)
    if res > REFINE_TARGET:
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
# Reference cache: KKT points persisted next to experiment outputs.

def instance_hash(instance):
    """Content hash binding a cache entry to the instance's exact data.

    A sparse ``A`` is hashed through its canonical CSR form (shape, then
    ``data``, ``indices`` and ``indptr`` with 64-bit indices), without a
    dense copy.  A quadratic objective's ``Q`` and ``q`` are hashed too,
    and so are a separable objective's ``U``, ``c``, ``mu`` and the
    ``params`` of its ``phi``; the callables of any objective are opaque,
    covered only by the re-verification in :func:`cached_reference`.
    """
    h = hashlib.sha256()
    h.update(instance.name.encode())
    A = instance.A
    if issparse(A):
        h.update(np.asarray(A.shape, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(A.data).tobytes())
        h.update(A.indices.astype(np.int64).tobytes())
        h.update(A.indptr.astype(np.int64).tobytes())
    else:
        h.update(np.ascontiguousarray(A).tobytes())
    h.update(np.ascontiguousarray(instance.b).tobytes())
    obj = instance.objective
    form = obj.separable
    parts = (obj.quadratic or ()) + (
        (form.U, form.c, form.mu, form.params) if form is not None else ())
    for part in parts:
        h.update(np.ascontiguousarray(part, dtype=float).tobytes())
    return h.hexdigest()[:16]


def save_kkt(path, kkt):
    """Write a KKT pair as a small CSV sidecar (round-trip exact)."""
    with open(path, "w") as f:
        f.write(f"kkt_tol,{kkt.kkt_tol!r}\n")
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


def _cached_pair_holds(instance, kkt):
    """Whether a loaded pair fits ``instance`` and still certifies its
    recorded ``kkt_tol`` (up to ``CACHE_RECHECK_FACTOR`` and rounding)."""
    if (kkt.x.shape != (instance.dim,)
            or kkt.lam.shape != (instance.n_constraints,)):
        return False
    res = max(_kkt_residuals(instance, kkt.x, kkt.lam))
    return res <= CACHE_RECHECK_FACTOR * kkt.kkt_tol + CACHE_RECHECK_FLOOR


def cached_reference(instance, directory, compute=None, refresh=False):
    """Fetch (or compute and persist) the reference pair for ``instance``.

    The cache file name embeds :func:`instance_hash`, so any change to
    ``A``, ``b``, the name or a quadratic or separable objective's data
    invalidates the entry.  The hash does not cover callables, so a loaded
    pair is also re-verified: its shapes
    must match the instance and its KKT residual, recomputed here (one
    gradient, two matvecs), must not lie far above the recorded
    ``kkt_tol``.  A pair that fails either test is recomputed and
    overwritten.  ``compute`` defaults to :func:`kkt_refine`.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{instance.name}-{instance_hash(instance)}.kkt.csv"
    if path.exists() and not refresh:
        kkt = load_kkt(path)
        if _cached_pair_holds(instance, kkt):
            return kkt
    kkt = compute(instance) if compute is not None else kkt_refine(instance)
    save_kkt(path, kkt)
    return kkt
