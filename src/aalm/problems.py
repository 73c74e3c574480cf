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

Every instance is built and run on numpy alone: its ``A`` is a dense
array or a :class:`KronIdentity`.
"""

from __future__ import annotations

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

    ``value_rows`` and ``gradient_rows`` map a block ``X`` (B, n) of
    points, one per row, to their values (B,) and gradients (B, n), each
    row bitwise the callable's result at that row.  They are derived in
    ``__post_init__`` (so ``dataclasses.replace`` re-derives them) from
    ``quadratic`` if given, else from ``separable``, else as a loop over
    ``value`` and ``gradient``.  Like the linear path, which trusts
    ``quadratic``, and the Newton curvature, which trusts ``separable``,
    they read the description: an oracle whose callables are swapped
    while it keeps its description gets its rows from the description.
    """

    value: Callable
    gradient: Callable
    hessian: Optional[Callable] = None
    lipschitz: Optional[float] = None
    quadratic: Optional[Tuple[np.ndarray, np.ndarray]] = None
    separable: Optional[Separable] = None
    value_rows: Callable = field(init=False, repr=False, compare=False)
    gradient_rows: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.quadratic is not None:
            rows = _quadratic_rows(*self.quadratic)
        elif self.separable is not None:
            rows = _separable_rows(self.separable)
        else:
            value, gradient = self.value, self.gradient
            rows = (lambda X: np.array([value(x) for x in X]),
                    lambda X: np.array([gradient(x) for x in X]))
        object.__setattr__(self, "value_rows", rows[0])
        object.__setattr__(self, "gradient_rows", rows[1])


# The row forms below are stacked matrix-vector products, ``M @ X[..., None]``
# (one matvec per row), and stacked dots: only these reproduce the per-row
# products bitwise.  One GEMM ``X @ M.T`` is faster but rounds differently,
# and its rows change with the block size.

def _matvec_rows(M, X):
    """``M @ x`` of every row ``x`` of ``X``."""
    return (M @ X[..., None])[..., 0]


def _dot_rows(X, Y):
    """``x @ y`` of every pair of rows of ``X`` and ``Y``."""
    return (X[:, None, :] @ Y[..., None])[:, 0, 0]


def _quadratic_rows(Q, q):
    """Row forms of ``x'Qx/2 + q'x``, matching :func:`make_qp`'s callables."""

    def value_rows(X):
        return (0.5 * _dot_rows(X, _matvec_rows(Q, X))
                + (X[:, None, :] @ q)[:, 0])

    def gradient_rows(X):
        return _matvec_rows(Q, X) + q

    return value_rows, gradient_rows


def _separable_rows(form):
    """Row forms of a :class:`Separable` ``f``, matching
    :func:`separable_oracle`'s callables."""
    U, Ut, c, mu = form.U, form.U.T, form.c, form.mu

    def value_rows(X):
        v = form.phi(_matvec_rows(Ut, X) - c).sum(axis=1)
        return v + _dot_rows((0.5 * mu) * X, X) if mu else v

    def gradient_rows(X):
        G = _matvec_rows(U, form.dphi(_matvec_rows(Ut, X) - c))
        return np.add(G, mu * X, out=G) if mu else G

    return value_rows, gradient_rows


@dataclass(frozen=True)
class GramEigenbasis:
    """A factored eigendecomposition ``A'A = V diag(evals) V'``.

    ``V`` is orthogonal and never formed: ``apply_V(y)`` returns ``V y``
    and ``apply_Vt(x)`` returns ``V' x``.  ``evals`` (n,) need not be
    sorted.  Constructors that know the structure of ``A`` attach one as
    the instance's ``gram`` so that its users apply ``V`` by a few
    structured products; for any other instance
    :meth:`ProblemInstance.eigenbasis` builds one from a dense SVD of
    ``A``.  :func:`aalm.oracle.kkt_refine` relies on ``V`` being
    orthogonal: it applies the null-space basis of ``A`` as the columns
    of ``V`` with zero eigenvalue and takes its ``Z'Z`` to be ``I``.
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


def _operator_rows(M, X):
    """``M @ x`` of every row ``x`` of ``X`` for a dense or
    :class:`KronIdentity` ``M``: a C-ordered array whose rows are bitwise
    ``M @ x``."""
    if isinstance(M, KronIdentity):
        return (M.K @ X.reshape(len(X), -1, M.m)).reshape(len(X), -1)
    return _matvec_rows(M, X)


@dataclass(frozen=True)
class ProblemInstance:
    """A constrained problem ``min f(x) s.t. A x = b``.

    ``A`` (m, n) is a :class:`KronIdentity`, kept as given, or else is
    stored as a dense float ``ndarray``: any other matrix with a
    ``toarray()`` method (one of scipy's sparse arrays, say) through that
    method.  Every per-iteration product uses ``A`` as stored, and only
    the independent oracles and one-off factorizations densify a
    :class:`KronIdentity`.  ``b`` has shape (m,).  ``gram``, when given,
    is a factored eigenbasis of ``A'A``; :meth:`eigenbasis` returns it,
    and builds a dense one otherwise.  ``name`` identifies the instance in
    traces, summaries and reference sidecars, so constructors bake the
    generating parameters (and seed) into it.  ``At`` is ``A.T``, taken
    once per instance for the products ``A' v`` of every iteration.
    """

    objective: ObjectiveOracle
    A: np.ndarray
    b: np.ndarray
    name: str
    gram: Optional[GramEigenbasis] = None
    At: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A = self.A
        if not isinstance(A, KronIdentity):
            A = np.asarray(dense(A), dtype=float)
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
        object.__setattr__(self, "At", A.T)

    def A_rows(self, X):
        """``A x`` of every row ``x`` of ``X`` (B, n), as a C-ordered
        (B, m) array whose rows are bitwise ``A @ x``."""
        return _operator_rows(self.A, X)

    def At_rows(self, L):
        """``A' lam`` of every row ``lam`` of ``L`` (B, m), as a C-ordered
        (B, n) array whose rows are bitwise ``At @ lam``."""
        return _operator_rows(self.At, L)

    def eigenbasis(self):
        """An orthonormal eigenbasis of ``A'A``: ``gram`` when the
        instance carries one, else a new :class:`GramEigenbasis` from a
        dense SVD ``A = U diag(s) V'`` (Golub & Van Loan, *Matrix
        Computations*, 5.4), with eigenvalues ``s^2`` padded with exact
        zeros to ``n`` and ``V`` applied densely.  The only code that
        builds a dense eigenbasis of ``A'A``; its callers build it once
        per run or per reference."""
        if self.gram is not None:
            return self.gram
        _, sigma, Vt = np.linalg.svd(dense(self.A), full_matrices=True)
        evals = np.zeros(self.dim)
        evals[:sigma.size] = sigma ** 2
        V = Vt.T
        return GramEigenbasis(evals, apply_V=lambda y: V @ y,
                              apply_Vt=lambda x: Vt @ x)

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
    """``M`` as a dense ``ndarray``: ``M.toarray()`` (a copy) for a
    :class:`KronIdentity` or any other matrix with that method, such as
    one of scipy's sparse arrays; ``M`` itself otherwise."""
    return M.toarray() if hasattr(M, "toarray") else M


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


def _stream(seed):
    """The PCG64 stream of ``seed``; a negative one is a ValueError."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.PCG64(seed))


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
    rng = _stream(seed)
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
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if not cond > 0:
        raise ValueError(f"cond must be positive, got {cond}")
    rng = _stream(seed)
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
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n_constraints < 0:
        raise ValueError(f"n_constraints must be >= 0, got {n_constraints}")
    rng = _stream(seed)
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
