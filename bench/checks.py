"""Output checks, computed apart from the program.

Nothing here imports ``aalm``.  The checks read what an experiment wrote
(``summary.csv``, ``<solver>.trace.csv`` and the reference sidecar
``*.kkt.csv``) and compare it with

* a reference residual recomputed with the benchmark's own arithmetic on
  instance data regenerated here from the generating parameters (the
  draw order documented in ``aalm.problems``): a saddle-system solve for
  the QP, an own gradient and an own ``(I - W) kron I`` for the ring,
  an own gradient for the lp regression;
* properties the method must have: a nonincreasing Lyapunov energy, the
  ``1/t^2`` feasibility slope, the little-o witness, the ring benchmark's
  accelerated-vs-baseline gap and the bounded ``t^2 xi`` feasibility of
  the scaled variant (acceptance claims c2, c5/c9, c6, c10, c13).

Each check returns ``(ok, message)``; a check whose input is missing or
unreadable fails with the reason as its message.
"""

import math
from pathlib import Path

import numpy as np

TRACE_FIELDS = ("k", "t_k", "feas", "obj_res", "stat_res", "gap_H",
                "energy_E", "step_norm_M", "scaled_feas")

# A reference pair must satisfy the KKT equations to kkt_refine's target
# (the QP's direct solve to 1e-10 on the rhs scale), and the sidecar's own
# kkt_tol may understate the recomputed residual by rounding only.
REFINE_TARGET = 1e-9
QP_RESIDUAL_TOL = 1e-10
SIDECAR_SLACK = 10.0
SIDECAR_FLOOR = 1e-12

# Energy increments allowed by rounding: c2's relative slack plus the
# error of forming t^2 xi (f(x) - f*) from two O(|f*|) values.
ENERGY_REL_TOL = 1e-10
ENERGY_ULPS = 16.0


def read_summary(out_dir):
    """Rows of ``summary.csv`` as dicts of strings."""
    with open(Path(out_dir) / "summary.csv") as f:
        header = f.readline().rstrip("\n").split(",")
        rows = []
        for line in f:
            # Only the trailing status column may contain commas.
            parts = line.rstrip("\n").split(",", len(header) - 1)
            rows.append(dict(zip(header, parts)))
    return rows


def read_trace(path):
    """A trace CSV as a dict of float arrays keyed by column."""
    with open(path) as f:
        header = tuple(f.readline().strip().split(","))
        if header != TRACE_FIELDS:
            raise ValueError(f"unexpected trace header {header}")
        data = np.loadtxt(f, delimiter=",", ndmin=2)
    return {name: data[:, i] for i, name in enumerate(TRACE_FIELDS)}


def read_sidecar(out_dir):
    """``(kkt_tol, x, lam)`` from the single ``*.kkt.csv`` in ``out_dir``."""
    paths = sorted(Path(out_dir).glob("*.kkt.csv"))
    if len(paths) != 1:
        raise ValueError(f"expected one reference sidecar, found {len(paths)}")
    fields = {}
    with open(paths[0]) as f:
        for line in f:
            if line.strip():
                key, *vals = line.rstrip("\n").split(",")
                fields[key] = np.array([float(v) for v in vals])
    return float(fields["kkt_tol"][0]), fields["x"], fields["lam"]


# ---------------------------------------------------------------------------
# Instance data, regenerated from the generating parameters.

def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def qp_data(n, m, seed, cond=10.0):
    """``(Q, q, A, b)`` of ``make_random_qp(n, m, seed, cond)``."""
    rng = _rng(seed)
    V, _ = np.linalg.qr(rng.normal(size=(n, n)))
    evals = np.logspace(np.log10(2.0 / cond), np.log10(2.0), n)
    Q = (V * evals) @ V.T
    Q = 0.5 * (Q + Q.T)
    q = 0.5 * rng.normal(size=n)
    A = rng.normal(size=(m, n)) / np.sqrt(n)
    b = A @ (0.5 * rng.normal(size=n))
    return Q, q, A, b


def lp_data(d, n, n_constraints, seed):
    """``(B, c, A, b)`` of ``make_random_lp(d, n, p, n_constraints, seed)``."""
    rng = _rng(seed)
    B = rng.normal(size=(d, n)) / np.sqrt(n)
    c = rng.normal(size=d)
    A = rng.normal(size=(n_constraints, n)) / np.sqrt(n)
    b = A @ (0.5 * rng.normal(size=n))
    return B, c, A, b


def ring_features(p_agents, m_dim, seed):
    """Agent features ``C`` (p_agents, m_dim) of ``make_ring_logistic``."""
    return _rng(seed).uniform(0.0, 1.0, size=(p_agents, m_dim))


def ring_laplacian(p_agents):
    """``I - W`` for the ring's Metropolis weights (1/2 self, 1/4 each
    neighbour)."""
    L = 0.5 * np.eye(p_agents)
    for i in range(p_agents):
        L[i, (i + 1) % p_agents] -= 0.25
        L[i, (i - 1) % p_agents] -= 0.25
    return L


class Problem:
    """Objective value, gradient and constraint operator of one instance,
    in the benchmark's own arithmetic."""

    def __init__(self, spec):
        kind = spec["builtin"]
        if kind == "qp":
            self.Q, self.q, A, b = qp_data(spec["n"], spec["m"], spec["seed"])
            self.value = lambda x: 0.5 * x @ self.Q @ x + self.q @ x
            self.gradient = lambda x: self.Q @ x + self.q
        elif kind == "lp-regression":
            B, c, A, b = lp_data(spec["d"], spec["n"], spec["n_constraints"],
                                 spec["seed"])
            p = spec["p"]
            self.value = lambda x: np.sum(np.abs(B @ x - c) ** p) / p
            self.gradient = lambda x: B.T @ (np.sign(B @ x - c)
                                             * np.abs(B @ x - c) ** (p - 1))
        elif kind == "ring-logistic":
            self._ring(spec)
            return
        else:
            raise ValueError(f"no check data for problem {kind!r}")
        self.A, self.b = A, b
        self.apply_A = lambda x: A @ x
        self.apply_At = lambda lam: A.T @ lam

    def _ring(self, spec):
        p, m, reg = spec["p_agents"], spec["m_dim"], spec["rho_reg"]
        C = ring_features(p, m, spec["seed"])
        L = ring_laplacian(p)

        def margins(x):
            return np.sum(C * x.reshape(p, m), axis=1)

        self.value = lambda x: (np.sum(np.logaddexp(0.0, -margins(x)))
                                + 0.5 * reg * x @ x)
        self.gradient = lambda x: (
            (-C / (1.0 + np.exp(margins(x)))[:, None]).ravel() + reg * x)
        # (I - W) kron I_m acting on stacked agent blocks; symmetric.
        self.apply_A = lambda x: (L @ x.reshape(p, m)).ravel()
        self.apply_At = self.apply_A
        self.b = np.zeros(p * m)

    def kkt_residual(self, x, lam):
        stat = np.linalg.norm(self.gradient(x) + self.apply_At(lam))
        feas = np.linalg.norm(self.apply_A(x) - self.b)
        return max(float(stat), float(feas))


# ---------------------------------------------------------------------------
# The checks.

def check_reference(problem, out_dir):
    kkt_tol, x, lam = read_sidecar(out_dir)
    res = problem.kkt_residual(x, lam)
    if hasattr(problem, "Q"):
        A = problem.A
        n, m = A.shape[1], A.shape[0]
        K = np.block([[problem.Q, A.T], [A, np.zeros((m, m))]])
        rhs = np.concatenate([-problem.q, problem.b])
        sol = np.linalg.solve(K, rhs)
        dist = (np.linalg.norm(x - sol[:n])
                / (1.0 + np.linalg.norm(sol[:n])))
        tol = QP_RESIDUAL_TOL * (1.0 + np.linalg.norm(rhs))
        ok = res <= tol and dist <= 1e-8
        detail = f"distance to own saddle solve {dist:.2e} <= 1e-8, "
    else:
        tol = REFINE_TARGET
        ok = res <= tol
        detail = ""
    honest = res <= max(SIDECAR_SLACK * kkt_tol, SIDECAR_FLOOR)
    return ok and honest, (
        f"{detail}own KKT residual {res:.2e} <= {tol:.1e}, sidecar kkt_tol "
        f"{kkt_tol:.2e} (own residual within {SIDECAR_SLACK:g}x of it: "
        f"{honest})")


def check_energy(trace, f_star, xi_exponent=0.0):
    E = trace["energy_E"]
    t = trace["t_k"]
    weight = t[1:] ** (2.0 + xi_exponent)
    cap = (ENERGY_REL_TOL * max(1.0, abs(E[0]))
           + ENERGY_ULPS * np.finfo(float).eps * weight * (1.0 + abs(f_star)))
    excess = np.diff(E) - cap
    worst = int(np.argmax(excess))
    ok = bool(np.all(np.isfinite(E))) and excess[worst] <= 0.0
    return ok, (f"largest increment over its rounding cap at "
                f"k={int(trace['k'][worst + 1])}: "
                f"{np.diff(E)[worst]:.2e} vs {cap[worst]:.2e}")


def fit_slope(trace, fld, window):
    """Least-squares slope of log(fld) against log(t_k) over k in window."""
    k = trace["k"]
    sel = (k >= window[0]) & (k <= window[1]) & (trace[fld] > 0)
    if sel.sum() < 5:
        raise ValueError(f"fewer than 5 positive {fld} values in {window}")
    return float(np.polyfit(np.log(trace["t_k"][sel]),
                            np.log(trace[fld][sel]), 1)[0])


def check_slope(trace, window, limit):
    s = fit_slope(trace, "feas", window)
    return s <= limit, f"feas slope over k={window} {s:.3f} <= {limit}"


def _weighted(trace, fld, k):
    i = int(np.flatnonzero(trace["k"] == k)[0])
    return trace["t_k"][i] ** 2 * trace[fld][i]


def check_littleo(trace, window, limit):
    ratios = []
    for fld in ("feas", "obj_res"):
        early, late = (_weighted(trace, fld, k) for k in window)
        ratios.append(late / early if early > 0 else math.inf)
    ok = max(ratios) <= limit
    return ok, (f"t^2-weighted ratios k={window[0]}->{window[1]}: feas "
                f"{ratios[0]:.1e}, obj {ratios[1]:.1e} <= {limit}")


def check_beats(fast, slow, limit):
    ratios = [fast[f][-1] / slow[f][-1]
              for f in ("feas", "obj_res", "stat_res")]
    ok = max(ratios) <= limit
    return ok, ("final accelerated/baseline ratios feas {:.1e}, obj {:.1e}, "
                "stat {:.1e} <= {}".format(*ratios, limit))


def check_scaled(trace, head_k, limit):
    head = trace["scaled_feas"][trace["k"] <= head_k].max()
    sup = trace["scaled_feas"].max()
    return sup <= limit * head, (f"sup t^2 xi feas / max over k<={head_k}: "
                                 f"{sup / head:.2f} <= {limit}")


def run_checks(workload, out_dir):
    """Run every check of ``workload`` on ``out_dir``.

    Returns a list of ``(label, ok, message)``.
    """
    out_dir = Path(out_dir)
    results = []
    problem = None
    traces = {}

    def trace(name):
        if name not in traces:
            traces[name] = read_trace(out_dir / f"{name}.trace.csv")
        return traces[name]

    for chk in workload.checks:
        try:
            if problem is None:
                problem = Problem(workload.problem)
            if chk.kind == "reference":
                ok, msg = check_reference(problem, out_dir)
            elif chk.kind == "energy":
                _, x_ref, _ = read_sidecar(out_dir)
                ok, msg = check_energy(
                    trace(chk.solver), float(problem.value(x_ref)),
                    workload.scaled_exponent.get(chk.solver, 0.0))
            elif chk.kind == "slope":
                ok, msg = check_slope(trace(chk.solver), chk.window,
                                      chk.limit)
            elif chk.kind == "littleo":
                ok, msg = check_littleo(trace(chk.solver), chk.window,
                                        chk.limit)
            elif chk.kind == "beats":
                ok, msg = check_beats(trace(chk.solver), trace(chk.other),
                                      chk.limit)
            elif chk.kind == "scaled":
                ok, msg = check_scaled(trace(chk.solver), chk.window[1],
                                       chk.limit)
            else:
                raise ValueError(f"unknown check kind {chk.kind!r}")
        except (OSError, ValueError, KeyError, IndexError) as e:
            ok, msg = False, f"could not check: {type(e).__name__}: {e}"
        results.append((chk.label, bool(ok), msg))
    return results
