"""Problem instances: objectives with oracles plus linear equality constraints.

A problem is ``min f(x)  s.t.  A x = b`` with ``f`` convex.  The solver only
touches ``f`` through an :class:`ObjectiveOracle` (value/gradient, optional
Hessian and gradient Lipschitz constant), so instances are cheap to define.
A separable ``f`` is described once, by data (:class:`Separable`), and its
oracle is derived from it.  Three families are built in:

* :func:`make_qp` -- convex quadratics ``f(x) = x'Qx/2 + q'x``;
* :func:`make_lp_regression` -- ``f(x) = (1/p) sum_i |B_i x - c_i|^p`` with
  ``1 < p < 2``, whose gradient is not globally Lipschitz (implicit-step
  territory);
* :func:`make_ring_logistic` -- a decentralized regularized logistic loss on
  a ring of agents, with the consensus constraint expressed through the
  Kronecker product of a ring Laplacian with the identity.  Its constraint
  matrix is symmetric and rank deficient, which exercises the minimum-norm
  dual paths; it is stored as that product (:class:`KronIdentity`) and
  carries a factored eigenbasis of ``A'A`` (see :class:`GramEigenbasis`).

Every built-in family is built and run on numpy alone; scipy is imported
only for a sparse ``A`` (a ``.mtx`` manifest's).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

# Residual magnitudes below this are clamped when forming lp-regression
# curvature, keeping the Newton systems bounded near kinks.
LP_HESSIAN_CLAMP = 1e-8


@dataclass(frozen=True)
class Separable:
    """Data of ``f(x) = sum_i phi(u_i'x - c_i) + (mu/2)||x||^2``.

    ``U`` (n, r) holds the ``u_i`` as dense columns, column-major so that
    ``U'x`` and ``U y`` are contiguous matvecs; ``c`` (r,) holds the
    offsets; ``phi``, ``dphi`` and ``d2phi`` evaluate ``phi``, ``phi'``
    and ``phi''`` elementwise.  The Hessian is ``mu I + U W U'`` with
    ``W = diag(phi''(U'x - c))``.
    """

    U: np.ndarray
    c: np.ndarray
    phi: Callable
    dphi: Callable
    d2phi: Callable
    mu: float = 0.0


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
    separable : Separable, optional
        The data :func:`separable_oracle` derived the callables from, for
        code that uses the Hessian in factored form.
    """

    value: Callable
    gradient: Callable
    hessian: Optional[Callable] = None
    lipschitz: Optional[float] = None
    quadratic: Optional[Tuple[np.ndarray, np.ndarray]] = None
    separable: Optional[Separable] = None


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
class KronIdentity:
    """The constraint operator ``K kron I_m`` for a small dense ``K``.

    A vector ``v`` is multiplied as ``(K @ v.reshape(-1, m)).ravel()``:
    one product of ``K`` with the length-``m`` blocks of ``v`` stacked as
    rows, never touching the zeros of ``K kron I_m``.  The product of two
    such operators is ``KronIdentity(K1 @ K2, m)``, so ``A'A`` keeps the
    form.  ``toarray()`` forms the dense matrix for the independent
    oracles and one-off factorizations; ``nbytes`` counts the stored ``K``.
    """

    K: np.ndarray
    m: int

    @property
    def shape(self):
        return (self.K.shape[0] * self.m, self.K.shape[1] * self.m)

    @property
    def T(self):
        return KronIdentity(self.K.T, self.m)

    @property
    def nbytes(self):
        return self.K.nbytes

    def toarray(self):
        return np.kron(self.K, np.eye(self.m))

    def __matmul__(self, other):
        if isinstance(other, KronIdentity):
            return KronIdentity(self.K @ other.K, self.m)
        return (self.K @ other.reshape(-1, self.m)).ravel()


@dataclass(frozen=True)
class ProblemInstance:
    """A constrained problem ``min f(x) s.t. A x = b``.

    ``A`` (m, n) is a dense ``ndarray``, a :class:`KronIdentity` (kept
    as given) or a ``scipy.sparse`` matrix, which is stored as a CSR array
    in canonical form (sorted indices, no duplicates); every per-iteration
    product uses it as given, and only the independent oracles and one-off
    factorizations densify it.  ``b`` has shape (m,).  ``gram``, when
    given, is a factored eigenbasis of ``A'A`` that the linear subproblem
    solve uses in place of a dense ``eigh`` (see
    :class:`aalm.subsolver.LinearCache`).  ``name`` identifies the
    instance in traces, summaries and reference sidecars, so constructors
    bake the generating parameters (and seed) into it.  ``At`` is ``A'``,
    built once per instance for the products ``A' v`` of every iteration:
    a CSR array for a sparse ``A`` (whose ``.T`` is a CSC array made anew
    on each access), ``A.T`` otherwise.
    """

    objective: ObjectiveOracle
    A: np.ndarray
    b: np.ndarray
    name: str
    gram: Optional[GramEigenbasis] = None
    At: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if issparse(self.A):
            import scipy.sparse
            A = scipy.sparse.csr_array(self.A, dtype=float, copy=True)
            A.sum_duplicates()
        elif isinstance(self.A, KronIdentity):
            A = self.A
        else:
            A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if len(A.shape) != 2:
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
        object.__setattr__(self, "At", A.T.tocsr() if issparse(A) else A.T)

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


def issparse(M):
    """Whether ``M`` is a ``scipy.sparse`` matrix or array, without
    importing scipy: nothing is sparse before ``scipy.sparse`` is loaded."""
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(M)


def dense(M):
    """``M`` as a dense ``ndarray`` (a copy only when ``M`` is sparse or a
    :class:`KronIdentity`)."""
    return M.toarray() if issparse(M) or isinstance(M, KronIdentity) else M


def separable_oracle(form, lipschitz=None):
    """The :class:`ObjectiveOracle` of a :class:`Separable` ``form``, which
    it carries; with ``mu = 0`` the callables skip the quadratic term."""
    U, Ut, c, mu = form.U, form.U.T, form.c, form.mu

    def value(x):
        v = form.phi(Ut @ x - c).sum()
        return float(v + 0.5 * mu * x @ x) if mu else float(v)

    def gradient(x):
        g = U @ form.dphi(Ut @ x - c)
        return g + mu * x if mu else g

    def hessian(x):
        H = (U * form.d2phi(Ut @ x - c)) @ Ut
        if mu:
            H[np.diag_indices_from(H)] += mu
        return H

    return ObjectiveOracle(value, gradient, hessian, lipschitz=lipschitz,
                           separable=form)


def make_qp(Q, q, A, b, name="qp"):
    """Quadratic objective ``f(x) = x'Qx/2 + q'x`` under ``Ax = b``.

    ``Q`` must be symmetric and positive semidefinite (the caller's
    contract; it is checked, not repaired): an eigenvalue below
    ``-1e-12 max(1, max|Q_ij|)`` is rejected here, once, so that no
    subproblem solve meets an indefinite system.  The gradient Lipschitz
    constant is ``lambda_max(Q)``.
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
    evals = np.linalg.eigvalsh(Q) if n else np.zeros(1)
    if evals[0] < -1e-12 * scale:
        raise ValueError(f"Q must be positive semidefinite; its smallest "
                         f"eigenvalue is {evals[0]:.6g}")
    L = float(evals[-1])
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
    ``1e-8`` (i.e. weight ``(p-1) max(|r_i|, 1e-8)^{p-2}``, the
    ``phi''`` of its :class:`Separable` form with ``U = B'``).
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

    form = Separable(
        B.T, c, phi=lambda r: np.abs(r) ** p / p,
        dphi=lambda r: np.sign(r) * np.abs(r) ** (p - 1.0),
        d2phi=lambda r: ((p - 1.0) * np.maximum(np.abs(r), LP_HESSIAN_CLAMP)
                         ** (p - 2.0)))
    return ProblemInstance(separable_oracle(form), A, b, name)


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


def _logistic_slope(t):
    """``phi'(t) = -1 / (1 + e^t)`` of ``phi(t) = log(1 + e^-t)``, from
    ``e = exp(-|t|)`` so that nothing overflows: ``-e / (1 + e)`` for
    ``t >= 0`` and ``-1 / (1 + e)`` otherwise (within 2 ulp of the exact
    value, as ``scipy.special.expit`` is)."""
    e = np.exp(-np.abs(t))
    return -np.where(t >= 0, e, 1.0) / (1.0 + e)


def _logistic_curvature(t):
    """``phi''(t) = e^t / (1 + e^t)^2``, as ``e / (1 + e)^2`` with
    ``e = exp(-|t|)`` (it is even in ``t``)."""
    e = np.exp(-np.abs(t))
    return e / (1.0 + e) ** 2


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

    ``A`` is stored as ``KronIdentity(I - W, m_dim)``, so each product
    with a vector is one p x p by p x m product.  With
    ``I - W = V_W diag(l) V_W'`` from a p x p ``eigh``, ``A'A`` has the
    eigenbasis ``V_W kron I_m`` with eigenvalues ``l_i^2``, each repeated
    ``m_dim`` times; it is attached as ``gram`` and applied blockwise as
    ``(V_W @ x.reshape(p, m)).ravel()``.  ``f`` is :class:`Separable` with
    ``U = blockdiag(c_1, ..., c_p)`` (n x p) and ``mu = rho_reg``, whose
    ``phi'`` and ``phi''`` cannot overflow (:func:`_logistic_slope`,
    :func:`_logistic_curvature`).
    """
    if m_dim < 1:
        raise ValueError(f"m_dim must be >= 1, got {m_dim}")
    if rho_reg < 0:
        raise ValueError(f"rho_reg must be >= 0, got {rho_reg}")
    W = ring_mixing_matrix(p_agents)
    rng = np.random.Generator(np.random.PCG64(seed))
    C = rng.uniform(0.0, 1.0, size=(p_agents, m_dim))
    laplacian = np.eye(p_agents) - W
    A = KronIdentity(laplacian, m_dim)
    b = np.zeros(p_agents * m_dim)
    lap_evals, V_W = np.linalg.eigh(laplacian)
    gram = GramEigenbasis(
        evals=np.repeat(lap_evals ** 2, m_dim),
        apply_V=lambda y: (V_W @ y.reshape(p_agents, m_dim)).ravel(),
        apply_Vt=lambda x: (V_W.T @ x.reshape(p_agents, m_dim)).ravel())
    L = float((np.sum(C ** 2, axis=1) / 4.0 + rho_reg).max())
    rows = np.arange(p_agents * m_dim)
    U = np.zeros((rows.size, p_agents), order="F")
    U[rows, rows // m_dim] = C.ravel()
    form = Separable(U, np.zeros(p_agents),
                     phi=lambda t: np.logaddexp(0.0, -t),
                     dphi=_logistic_slope, d2phi=_logistic_curvature,
                     mu=rho_reg)
    if name is None:
        name = (f"ring-logistic-p{p_agents}-m{m_dim}-rho{rho_reg:g}"
                f"-pcg64-{seed}")
    return ProblemInstance(separable_oracle(form, lipschitz=L), A, b, name,
                           gram=gram)


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
