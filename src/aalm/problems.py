"""Problem instances: objectives with oracles plus linear equality constraints.

A problem is ``min f(x)  s.t.  A x = b`` with ``f`` convex.  The solver only
touches ``f`` through an :class:`ObjectiveOracle` (value/gradient, optional
Hessian and gradient Lipschitz constant), so instances are cheap to define;
three families used throughout the tests and benchmarks are built in:

* :func:`make_qp` -- convex quadratics ``f(x) = x'Qx/2 + q'x``;
* :func:`make_lp_regression` -- ``f(x) = (1/p) sum_i |B_i x - c_i|^p`` with
  ``1 < p < 2``, whose gradient is not globally Lipschitz (implicit-step
  territory);
* :func:`make_ring_logistic` -- a decentralized regularized logistic loss on
  a ring of agents, with the consensus constraint expressed through the
  Kronecker product of a ring Laplacian with the identity.  Its constraint
  matrix is symmetric and rank deficient, which exercises the minimum-norm
  dual paths; it is stored sparse and carries a factored eigenbasis of
  ``A'A`` (see :class:`GramEigenbasis`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
import scipy.sparse
from scipy.special import expit

# Residual magnitudes below this are clamped when forming lp-regression
# curvature, keeping the Newton systems bounded near kinks.
LP_HESSIAN_CLAMP = 1e-8


@dataclass(frozen=True)
class ObjectiveOracle:
    """First-order (and optionally second-order) access to a convex ``f``.

    Parameters
    ----------
    value : callable
        ``x -> float``.
    gradient : callable
        ``x -> ndarray`` of the same shape as ``x``.
    hessian : callable, optional
        ``x -> ndarray`` (n, n); required by the inner Newton solver for
        non-quadratic implicit steps.
    lipschitz : float, optional
        A Lipschitz constant of the gradient; required by the explicit
        (linearized) step, absent when no global constant exists.
    quadratic : (ndarray, ndarray), optional
        ``(Q, q)`` when ``f`` is exactly ``x'Qx/2 + q'x``; lets implicit
        steps go through a single linear solve.
    split : (ObjectiveOracle, ObjectiveOracle), optional
        ``(f1, f2)`` with ``f = f1 + f2`` for the mixed step: ``f1`` is
        handled implicitly, ``f2`` (which must carry ``lipschitz``) is
        linearized at the extrapolated point.
    """

    value: Callable
    gradient: Callable
    hessian: Optional[Callable] = None
    lipschitz: Optional[float] = None
    quadratic: Optional[Tuple[np.ndarray, np.ndarray]] = None
    split: Optional[Tuple["ObjectiveOracle", "ObjectiveOracle"]] = None


@dataclass(frozen=True)
class GramEigenbasis:
    """A factored eigendecomposition ``A'A = V diag(evals) V'``.

    ``V`` is orthogonal and never formed: ``apply_V(y)`` returns ``V y``
    and ``apply_Vt(x)`` returns ``V' x``.  ``evals`` (n,) need not be
    sorted.  Constructors that know the structure of ``A`` attach one so
    that linear subproblem solves cost a few structured products instead
    of a dense ``eigh`` and two dense matvecs.  (A generalized eigenbasis
    of :class:`aalm.subsolver.LinearCache`, whose ``V`` is orthonormal in
    the inner product of ``Q + I/gamma`` instead, takes the same form.)
    """

    evals: np.ndarray
    apply_V: Callable
    apply_Vt: Callable


@dataclass(frozen=True)
class ProblemInstance:
    """A constrained problem ``min f(x) s.t. A x = b``.

    ``A`` (m, n) is either a dense ``ndarray`` or a ``scipy.sparse``
    matrix, which is stored as a CSR array in canonical form (sorted
    indices, no duplicates); every per-iteration product uses it as
    given, and only the independent oracles and one-off factorizations
    densify it.  ``b`` has shape (m,).  ``gram``, when given, is a
    factored eigenbasis of ``A'A`` that the linear subproblem solve uses
    in place of a dense ``eigh`` (see :class:`aalm.subsolver.LinearCache`).
    ``name`` identifies the instance in traces, summaries and reference
    caches, so constructors bake the generating parameters (and seed)
    into it.
    """

    objective: ObjectiveOracle
    A: np.ndarray
    b: np.ndarray
    name: str
    gram: Optional[GramEigenbasis] = None

    def __post_init__(self):
        if scipy.sparse.issparse(self.A):
            A = scipy.sparse.csr_array(self.A, dtype=float, copy=True)
            A.sum_duplicates()
        else:
            A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if A.ndim != 2:
            raise ValueError(f"A must be 2-D, got shape {A.shape}")
        if b.shape != (A.shape[0],):
            raise ValueError(
                f"b must have shape ({A.shape[0]},) to match A, got {b.shape}")
        if self.gram is not None and self.gram.evals.shape != (A.shape[1],):
            raise ValueError(
                f"gram eigenvalues must have shape ({A.shape[1]},), got "
                f"{self.gram.evals.shape}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def dim(self):
        return self.A.shape[1]

    @property
    def n_constraints(self):
        return self.A.shape[0]


@dataclass(frozen=True)
class KKTPoint:
    """A reference primal-dual pair with its certified KKT residual.

    ``kkt_tol`` records ``max(||grad f(x) + A' lam||, ||A x - b||)``
    achieved by whichever oracle produced the point.
    """

    x: np.ndarray
    lam: np.ndarray
    kkt_tol: float


def dense(M):
    """``M`` as a dense ``ndarray`` (a copy only when ``M`` is sparse)."""
    return M.toarray() if scipy.sparse.issparse(M) else M


def make_qp(Q, q, A, b, name="qp"):
    """Quadratic objective ``f(x) = x'Qx/2 + q'x`` under ``Ax = b``.

    ``Q`` must be symmetric (the caller's contract; it is checked, not
    repaired) and positive semidefinite for the convergence theory to
    apply.  The gradient Lipschitz constant is ``lambda_max(Q)``.
    """
    Q = np.asarray(Q, dtype=float)
    q = np.asarray(q, dtype=float)
    n = Q.shape[0]
    if Q.shape != (n, n):
        raise ValueError(f"Q must be square, got shape {Q.shape}")
    if q.shape != (n,):
        raise ValueError(f"q must have shape ({n},), got {q.shape}")
    scale = max(1.0, float(np.abs(Q).max()))
    if np.abs(Q - Q.T).max() > 1e-12 * scale:
        raise ValueError("Q must be symmetric")
    if np.shape(A)[1] != n:
        raise ValueError(f"A has {np.shape(A)[1]} columns, expected {n}")
    L = float(np.linalg.eigvalsh(Q).max()) if n else 0.0
    objective = ObjectiveOracle(
        value=lambda x: 0.5 * float(x @ (Q @ x)) + float(q @ x),
        gradient=lambda x: Q @ x + q,
        hessian=lambda x: Q,
        lipschitz=L,
        quadratic=(Q, q),
    )
    return ProblemInstance(objective, A, b, name)


def make_lp_regression(B, c, p, A, b, name="lp-regression"):
    """Smooth-but-not-Lipschitz objective ``f(x) = (1/p) sum |B_i x - c_i|^p``.

    Requires ``1 < p < 2``.  With residuals ``r = Bx - c`` the gradient is
    ``B' s`` where ``s_i = sign(r_i) |r_i|^{p-1}``; its derivative
    ``(p-1)|r_i|^{p-2}`` blows up at ``r_i = 0``, so no ``lipschitz`` is
    exposed and the curvature used by Newton caps ``|r_i|`` from below at
    ``1e-8`` (i.e. weight ``(p-1) max(|r_i|, 1e-8)^{p-2}``).
    """
    if not 1.0 < p < 2.0:
        raise ValueError(f"p must lie in (1, 2), got {p}")
    B = np.asarray(B, dtype=float)
    c = np.asarray(c, dtype=float)
    if B.ndim != 2 or c.shape != (B.shape[0],):
        raise ValueError(f"incompatible B {B.shape} and c {c.shape}")
    if np.shape(A)[1] != B.shape[1]:
        raise ValueError(
            f"A has {np.shape(A)[1]} columns, expected {B.shape[1]}")

    def value(x):
        r = B @ x - c
        return float(np.sum(np.abs(r) ** p)) / p

    def gradient(x):
        r = B @ x - c
        return B.T @ (np.sign(r) * np.abs(r) ** (p - 1.0))

    def hessian(x):
        r = B @ x - c
        w = (p - 1.0) * np.maximum(np.abs(r), LP_HESSIAN_CLAMP) ** (p - 2.0)
        return (B.T * w) @ B

    objective = ObjectiveOracle(value, gradient, hessian)
    return ProblemInstance(objective, A, b, name)


def ring_mixing_matrix(p_agents):
    """Metropolis weights of a ring graph: 1/2 on the diagonal, 1/4 to each
    neighbour.  Symmetric and doubly stochastic."""
    if p_agents < 3:
        raise ValueError(f"a ring needs at least 3 agents, got {p_agents}")
    W = np.zeros((p_agents, p_agents))
    np.fill_diagonal(W, 0.5)
    for i in range(p_agents):
        W[i, (i + 1) % p_agents] = 0.25
        W[i, (i - 1) % p_agents] = 0.25
    return W


def make_ring_logistic(p_agents=10, m_dim=200, rho_reg=0.5, seed=0,
                       name=None):
    """Decentralized regularized logistic loss on a ring of agents.

    The variable stacks per-agent blocks ``x = (x_1, ..., x_p)`` with
    ``x_i`` of dimension ``m_dim`` and

        f(x) = sum_i [ log(1 + exp(-c_i' x_i)) + (rho_reg / 2) ||x_i||^2 ],

    with features ``c_i ~ U[0, 1]^m`` drawn from a PCG64 stream seeded by
    ``seed``.  The consensus constraint is ``A x = 0`` with
    ``A = (I - W) kron I_m`` for the ring's Metropolis matrix ``W``; ``A``
    is symmetric PSD with rank ``(p_agents - 1) * m_dim`` (its null space
    is spanned by agreement vectors ``1 kron v``).  The exposed gradient
    Lipschitz constant is ``max_i { ||c_i||^2 / 4 + rho_reg }``.

    ``A`` is stored as a CSR array (three nonzeros per row).  With
    ``I - W = V_W diag(l) V_W'`` from a p x p ``eigh``, ``A'A`` has the
    eigenbasis ``V_W kron I_m`` with eigenvalues ``l_i^2``, each repeated
    ``m_dim`` times; it is attached as ``gram`` and applied blockwise as
    ``(V_W @ x.reshape(p, m)).ravel()``.
    """
    if m_dim < 1:
        raise ValueError(f"m_dim must be >= 1, got {m_dim}")
    if rho_reg < 0:
        raise ValueError(f"rho_reg must be >= 0, got {rho_reg}")
    W = ring_mixing_matrix(p_agents)
    rng = np.random.Generator(np.random.PCG64(seed))
    C = rng.uniform(0.0, 1.0, size=(p_agents, m_dim))
    laplacian = np.eye(p_agents) - W
    A = scipy.sparse.kron(scipy.sparse.csr_array(laplacian),
                          scipy.sparse.eye_array(m_dim), format="csr")
    b = np.zeros(p_agents * m_dim)
    lap_evals, V_W = np.linalg.eigh(laplacian)
    gram = GramEigenbasis(
        evals=np.repeat(lap_evals ** 2, m_dim),
        apply_V=lambda y: (V_W @ y.reshape(p_agents, m_dim)).ravel(),
        apply_Vt=lambda x: (V_W.T @ x.reshape(p_agents, m_dim)).ravel())
    L = float((np.sum(C ** 2, axis=1) / 4.0 + rho_reg).max())

    def value(x):
        X = x.reshape(p_agents, m_dim)
        t = np.sum(C * X, axis=1)
        return float(np.sum(np.logaddexp(0.0, -t)) + 0.5 * rho_reg * x @ x)

    def gradient(x):
        X = x.reshape(p_agents, m_dim)
        t = np.sum(C * X, axis=1)
        G = -expit(-t)[:, None] * C + rho_reg * X
        return G.ravel()

    def hessian(x):
        X = x.reshape(p_agents, m_dim)
        t = np.sum(C * X, axis=1)
        w = expit(-t) * expit(t)  # sigma'(t), symmetric in the sign of t
        H = np.zeros((x.size, x.size))
        for i in range(p_agents):
            s = slice(i * m_dim, (i + 1) * m_dim)
            H[s, s] = w[i] * np.outer(C[i], C[i])
        H[np.diag_indices_from(H)] += rho_reg
        return H

    if name is None:
        name = (f"ring-logistic-p{p_agents}-m{m_dim}-rho{rho_reg:g}"
                f"-pcg64-{seed}")
    objective = ObjectiveOracle(value, gradient, hessian, lipschitz=L)
    return ProblemInstance(objective, A, b, name, gram=gram)


def make_random_qp(n=50, m=10, seed=0, cond=10.0, name=None):
    """Seeded random strongly convex QP testbed.

    ``Q`` has log-spaced eigenvalues in ``[2/cond, 2]`` under a random
    orthogonal basis, ``A`` is Gaussian (m, n) scaled to unit row norm in
    expectation, and ``b = A x_feas`` for a random ``x_feas`` so the
    constraints are consistent by construction.  All draws come from a
    PCG64 stream seeded by ``seed`` (recorded in the name).
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    V, _ = np.linalg.qr(rng.normal(size=(n, n)))
    evals = np.logspace(np.log10(2.0 / cond), np.log10(2.0), n)
    Q = (V * evals) @ V.T
    Q = 0.5 * (Q + Q.T)
    q = 0.5 * rng.normal(size=n)
    A = rng.normal(size=(m, n)) / np.sqrt(n)
    b = A @ (0.5 * rng.normal(size=n))
    if name is None:
        name = f"qp-n{n}-m{m}-pcg64-{seed}"
    return make_qp(Q, q, A, b, name=name)


def make_random_lp(d=30, n=20, p=1.5, n_constraints=1, seed=0, name=None):
    """Seeded random lp-regression instance (see :func:`make_lp_regression`).

    ``B`` is (d, n): ``d`` residual rows over an ``n``-dimensional variable.
    With ``d > n`` the fit is overdetermined, so the solution's residuals
    stay away from the ``|r| = 0`` kinks generically and the curvature
    clamp is inert at the optimum; an underdetermined fit would put the
    minimizer exactly on the kinks (interpolation), where no float64
    algorithm can drive the gradient below roughly ``sqrt(eps)``.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    B = rng.normal(size=(d, n)) / np.sqrt(n)
    c = rng.normal(size=d)
    A = rng.normal(size=(n_constraints, n)) / np.sqrt(n)
    b = A @ (0.5 * rng.normal(size=n))
    if name is None:
        name = f"lp{p:g}-d{d}-n{n}-c{n_constraints}-pcg64-{seed}"
    return make_lp_regression(B, c, p, A, b, name=name)


def check_gradient(instance, x, h=1e-6):
    """Central-difference audit of the instance's gradient at ``x``.

    Returns the maximum relative deviation
    ``max_i |g_fd_i - g_i| / (1 + |g_i|)`` between the oracle gradient and
    coordinate-wise central differences with stencil ``h``.
    """
    x = np.asarray(x, dtype=float)
    f = instance.objective.value
    g = instance.objective.gradient(x)
    worst = 0.0
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        fd = (f(x + e) - f(x - e)) / (2.0 * h)
        worst = max(worst, abs(fd - g[i]) / (1.0 + abs(g[i])))
    return worst
