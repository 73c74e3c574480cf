"""Benchmark harness: JSON experiment configs, traces, and summaries.

An experiment runs a list of named solvers on one problem instance and
writes, into the output directory:

* ``<name>.trace.csv`` per solver -- one row per iteration with the exact
  header ``k,t_k,feas,obj_res,stat_res,gap_H,energy_E,step_norm_M,
  scaled_feas``;
* ``summary.csv`` -- one row per solver with the resolved configuration,
  final residuals, rate slopes fitted over the last half of the run, and
  little-o witnesses;
* the cached reference sidecar (``*.kkt.csv``);
* optionally ``plots.gp``, a gnuplot script laying the six standard
  panels (raw and ``t``-scaled residuals) out in a 2x3 grid.

Configs are strict: unknown keys and values of the wrong type are errors
(fail-fast beats a silently ignored typo or cast).  Floats are serialized
with ``repr`` so traces round-trip exactly and re-running a config
byte-identically reproduces its outputs.  The environment variable
``AALM_OUTPUT_DIR`` overrides the config's ``output_dir`` when set.

The non-accelerated baseline (:func:`run_vanilla`) is the classical
proximal augmented Lagrangian iteration

    x_{k+1} = argmin f + <lam_k, Ax - b> + (beta/2)||Ax - b||^2
                     + (1/(2 gamma))||x - x_k||^2,
    lam_{k+1} = lam_k + delta (A x_{k+1} - b),

with the same implicit/linearized treatment of ``f`` as the accelerated
loop, so a comparison at equal stepsizes isolates the effect of the
momentum and dual corrections.  It is the accelerated step on ``t_k = 1``
with ``eta = 1`` (``alpha_k = 0``, ``c_k = 1``) and penalty weight
``beta - delta``, so it needs ``delta <= beta`` and its records carry the
energy certificate at ``beta - delta``.
"""

from __future__ import annotations

import json
import numbers
import operator
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional

import numpy as np
import scipy.io
import scipy.sparse

from . import solver as aalm_solver
from .diagnostics import TRACE_FIELDS, TraceRecord, fit_rate, littleo_witness
from .oracle import cached_reference
from .problems import (make_lp_regression, make_qp, make_random_lp,
                       make_random_qp, make_ring_logistic)
from .schedule import SCHEDULE_RULES, custom_schedule, named_schedule
from .solver import SolverConfig, StoppingRule
from .subsolver import CASES, step_plan

# Fixed offset deriving the instance's stream from the master seed.
INSTANCE_SEED_OFFSET = 1000

RNG_NAME = "pcg64"


class ConfigError(ValueError):
    """An experiment config is malformed (unknown key, bad value, ...)."""


@dataclass(frozen=True)
class VanillaConfig:
    """Stepsizes of the non-accelerated baseline."""

    case: str = "explicit"
    gamma: Optional[float] = None
    delta: float = 1.0
    beta: float = 1.0


@dataclass(frozen=True)
class SolverEntry:
    """One named solver of an experiment: accelerated or vanilla."""

    name: str
    method: str  # "aalm" | "vanilla"
    config: object  # SolverConfig or VanillaConfig


@dataclass(frozen=True)
class ExperimentConfig:
    problem: dict
    solvers: List[SolverEntry]
    iterations: int
    seed: int = 0
    output_dir: str = "results"
    emit_gnuplot: bool = False

    def __post_init__(self):
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if not self.solvers:
            raise ConfigError("at least one solver is required")
        names = [s.name for s in self.solvers]
        for n in names:
            if names.count(n) > 1:
                raise ConfigError(f"duplicate solver name {n!r}")


def _check_object(block, context):
    """Reject a ``block`` that is not a JSON object."""
    if not isinstance(block, dict):
        raise ConfigError(f"{context} must be a JSON object, got {block!r}")


def _check_keys(block, allowed, context):
    """Reject a ``block`` that is not a JSON object or has a key outside
    ``allowed``."""
    _check_object(block, context)
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {context}")


def _require_keys(block, keys, context):
    """Reject a ``block`` missing any of ``keys``."""
    for key in keys:
        if key not in block:
            raise ConfigError(f"{context} needs {key!r}")


def _check_real(block, keys, context, default=1.0, kind=numbers.Real):
    """Reject a value under ``keys`` that is not a real number, or not an
    integer when ``kind`` is ``numbers.Integral`` (a bool is neither).  A
    missing key reads as ``default``, so ``null`` passes only where it is
    the default."""
    what = "an integer" if kind is numbers.Integral else "a number"
    for key in keys:
        v = block.get(key, default)
        if v is None and default is None:
            continue
        if isinstance(v, bool) or not isinstance(v, kind):
            raise ConfigError(f"{key} must be {what}, got {v!r} "
                              f"({context})")


def _parse_schedule(block):
    _check_keys(block, {"rule", "alpha", "rho", "eta"}, "schedule")
    rule = block.get("rule")
    if rule not in SCHEDULE_RULES:
        raise ConfigError(f"unknown schedule rule {rule!r}")
    _check_real(block, ("alpha",), "schedule", default=None)
    _check_real(block, ("rho",), "schedule")
    sched = named_schedule(rule, block.get("alpha"), eta=block.get("eta"))
    if "rho" in block:
        sched = replace(sched, rho=float(block["rho"]))
    return sched


def _parse_scaling(block, schedule):
    """``schedule`` with the stepsize factors of a ``scaling`` block.  A
    constant scaling is an explicit unit ``xi``, so it is certified and
    run through the scaled arithmetic like any other."""
    _check_keys(block, {"form", "exponent"}, "scaling")
    _check_real(block, ("exponent",), "scaling")
    form = block.get("form")
    if form == "t-power":
        e = float(block.get("exponent", 0.5))
        return replace(schedule, xi=lambda t: t ** e)
    if form == "constant":
        return replace(schedule, xi=np.ones_like)
    raise ConfigError(f"unknown scaling form {form!r}")


def _parse_stop(block):
    _check_keys(block, {"feas_tol", "stat_tol"}, "stop")
    _check_real(block, ("feas_tol", "stat_tol"), "stop", default=None)
    return StoppingRule(feas_tol=block.get("feas_tol"),
                        stat_tol=block.get("stat_tol"))


def _parse_solver(block, iterations):
    _check_keys(block, {"name", "method", "case", "schedule", "gamma",
                        "delta", "beta", "scaling", "stop", "use_eig"},
                "solver entry")
    name = block.get("name")
    if not name:
        raise ConfigError("every solver entry needs a name")
    method = block.get("method", "aalm")
    case = block.get("case", "explicit")
    if case not in CASES:
        raise ConfigError(f"unknown case {case!r} (solver {name!r}); "
                          f"choose from {CASES}")
    # Types only: resolve_config checks the ranges of gamma, delta and
    # beta.  gamma: null stands for the default stepsize.
    _check_real(block, ("gamma",), f"solver {name!r}", default=None)
    _check_real(block, ("delta", "beta"), f"solver {name!r}")
    if method == "vanilla":
        for bad in ("schedule", "scaling", "stop", "use_eig"):
            if bad in block:
                raise ConfigError(f"{bad!r} does not apply to the vanilla "
                                  f"baseline (solver {name!r})")
        cfg = VanillaConfig(case=case, gamma=block.get("gamma"),
                            delta=block.get("delta", 1.0),
                            beta=block.get("beta", 1.0))
        _check_vanilla(cfg, f"vanilla solver {name!r}")
    elif method == "aalm":
        if "schedule" not in block:
            raise ConfigError(f"solver {name!r} needs a schedule")
        sched = _parse_schedule(block["schedule"])
        if "scaling" in block:
            sched = _parse_scaling(block["scaling"], sched)
        # Accepted for older configs and ignored: the instance picks the
        # linear solve backend (see aalm.subsolver.LinearCache).
        if not isinstance(block.get("use_eig", False), bool):
            raise ConfigError(f"use_eig must be true or false "
                              f"(solver {name!r})")
        cfg = SolverConfig(schedule=sched, case=case, gamma=block.get("gamma"),
                           delta=block.get("delta", 1.0),
                           beta=block.get("beta", 1.0),
                           max_iter=iterations,
                           stop=_parse_stop(block.get("stop", {})))
    else:
        raise ConfigError(f"unknown method {method!r} (solver {name!r})")
    return SolverEntry(name=name, method=method, config=cfg)


def parse_config(source):
    """Parse an experiment config from a JSON file path or a dict.

    Raises :class:`ConfigError` on any unknown key or malformed value.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source) as f:
                raw = json.load(f)
        except OSError as e:
            raise ConfigError(f"cannot read config: {e}") from None
        except json.JSONDecodeError as e:
            raise ConfigError(f"malformed JSON in {source}: {e}") from None
    else:
        raw = source
    _check_keys(raw, {"problem", "solvers", "iterations", "seed",
                      "output_dir", "emit_gnuplot"}, "config")
    _require_keys(raw, ("problem", "solvers", "iterations"), "config")
    _check_real(raw, ("iterations", "seed"), "config", default=0,
                kind=numbers.Integral)
    if not isinstance(raw.get("emit_gnuplot", False), bool):
        raise ConfigError(f"emit_gnuplot must be true or false, got "
                          f"{raw['emit_gnuplot']!r} (config)")
    _check_problem(raw["problem"])
    if not isinstance(raw["solvers"], list):
        raise ConfigError(f"solvers must be a JSON list, got "
                          f"{raw['solvers']!r} (config)")
    iterations = raw["iterations"]
    solvers = [_parse_solver(b, iterations) for b in raw["solvers"]]
    return ExperimentConfig(problem=raw["problem"], solvers=solvers,
                            iterations=iterations, seed=raw.get("seed", 0),
                            output_dir=raw.get("output_dir", "results"),
                            emit_gnuplot=raw.get("emit_gnuplot", False))


# ---------------------------------------------------------------------------
# Instances from config blocks and manifest files.

def _load_array(path, keep_sparse=False):
    """Dense array from ``.csv`` or ``.mtx``; a sparse Matrix Market file
    stays sparse (as CSR) when ``keep_sparse``."""
    path = str(path)
    if path.endswith(".mtx"):
        mat = scipy.io.mmread(path)
        if scipy.sparse.issparse(mat):
            if keep_sparse:
                return scipy.sparse.csr_array(mat, dtype=float)
            mat = mat.toarray()
        return np.asarray(mat, dtype=float)
    return np.loadtxt(path, delimiter=",", dtype=float)


def load_manifest(path):
    """Instance from a manifest binding an objective to matrix files.

    The manifest is JSON with keys ``name``, ``objective``, ``A``, ``b``;
    matrix paths (``.mtx`` Matrix Market or ``.csv`` dense) are resolved
    relative to the manifest's directory.  A sparse (coordinate) ``A.mtx``
    stays sparse, as a CSR array; every other matrix is loaded dense.
    Objective kinds: ``qp`` (keys ``Q``, ``q``) and ``lp-regression``
    (keys ``B``, ``c``, ``p``).
    """
    path = Path(path)
    try:
        with open(path) as f:
            raw = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read manifest: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed JSON in {path}: {e}") from None
    _check_keys(raw, {"name", "objective", "A", "b"}, "manifest")
    _require_keys(raw, ("objective", "A", "b"), "manifest")
    obj = raw["objective"]
    _check_object(obj, "objective")

    def load(block, key, context, **kw):
        if not isinstance(block[key], str):
            raise ConfigError(f"{key} must be a file path, got "
                              f"{block[key]!r} ({context})")
        return _load_array(path.parent / block[key], **kw)

    A = load(raw, "A", "manifest", keep_sparse=True)
    if not scipy.sparse.issparse(A):
        A = np.atleast_2d(A)
    b = np.atleast_1d(load(raw, "b", "manifest"))
    kind = obj.get("kind")
    name = raw.get("name", path.stem)
    if kind == "qp":
        _check_keys(obj, {"kind", "Q", "q"}, "objective")
        _require_keys(obj, ("Q", "q"), "objective")
        Q = np.atleast_2d(load(obj, "Q", "objective"))
        q = np.atleast_1d(load(obj, "q", "objective"))
        return make_qp(Q, q, A, b, name=name)
    if kind == "lp-regression":
        _check_keys(obj, {"kind", "B", "c", "p"}, "objective")
        _require_keys(obj, ("B", "c", "p"), "objective")
        _check_real(obj, ("p",), "objective")
        B = np.atleast_2d(load(obj, "B", "objective"))
        c = np.atleast_1d(load(obj, "c", "objective"))
        return make_lp_regression(B, c, float(obj["p"]), A, b, name=name)
    raise ConfigError(f"unknown objective kind {kind!r}")


def _check_problem(block):
    """Reject a ``problem`` block that is not an object or has unknown
    keys, and sizes and seeds that are not integers or parameters that
    are not numbers."""
    _check_object(block, "problem")
    if "manifest" in block:
        _check_keys(block, {"manifest"}, "problem")
        return
    _check_keys(block, {"builtin", "n", "m", "cond", "d", "p",
                        "n_constraints", "p_agents", "m_dim", "rho_reg",
                        "seed"}, "problem")
    _check_real(block, ("n", "m", "d", "n_constraints", "p_agents",
                        "m_dim", "seed"), "problem", default=0,
                kind=numbers.Integral)
    _check_real(block, ("cond", "p", "rho_reg"), "problem")


def build_problem(block, master_seed=0):
    """Instance from a config ``problem`` block (builtin or manifest)."""
    _check_problem(block)
    if "manifest" in block:
        return load_manifest(block["manifest"])
    builtin = block.get("builtin")
    seed = block.get("seed", master_seed + INSTANCE_SEED_OFFSET)
    if builtin == "qp":
        return make_random_qp(n=block.get("n", 50), m=block.get("m", 10),
                              seed=seed, cond=block.get("cond", 10.0))
    if builtin == "lp-regression":
        return make_random_lp(d=block.get("d", 30), n=block.get("n", 20),
                              p=block.get("p", 1.5),
                              n_constraints=block.get("n_constraints", 1),
                              seed=seed)
    if builtin == "ring-logistic":
        return make_ring_logistic(p_agents=block.get("p_agents", 10),
                                  m_dim=block.get("m_dim", 200),
                                  rho_reg=block.get("rho_reg", 0.5),
                                  seed=seed)
    raise ConfigError(f"unknown builtin problem {builtin!r}")


# ---------------------------------------------------------------------------
# The vanilla (non-accelerated) proximal ALM baseline.

def _check_vanilla(vcfg, where="the vanilla baseline"):
    """Reject a baseline with ``delta > beta``: its ``t_k = 1`` run would
    need the accelerated penalty weight ``beta - delta < 0``."""
    if vcfg.delta > vcfg.beta:
        raise ConfigError(f"{where} needs delta <= beta, got delta = "
                          f"{vcfg.delta!r} > beta = {vcfg.beta!r}")


# The benchmark's span tracer (bench/tracing.py) still wraps the baseline's
# step by this name; it is the accelerated step, under the same span.
vanilla_alm_step = aalm_solver.step


def _vanilla_stepsize(instance, vcfg):
    """The baseline's ``gamma`` as a float (default ``1/L`` or 1)."""
    return step_plan(instance, vcfg.case, backend=False).stepsize(vcfg.gamma)


def run_vanilla(instance, vcfg, iterations, x0, lam0, kkt=None):
    """Run the baseline; returns ``(state, trace)`` like :func:`aalm.solver.run`.

    The run is the accelerated loop on ``t_k = 1``, ``eta = 1`` with
    ``beta - delta`` in place of ``beta`` (see the module docstring), so
    records carry ``t_k = 1`` and the energy and gap at ``beta - delta``.
    """
    _check_vanilla(vcfg)
    config = SolverConfig(schedule=custom_schedule(np.ones_like, eta=1.0),
                          case=vcfg.case,
                          gamma=_vanilla_stepsize(instance, vcfg),
                          delta=vcfg.delta, beta=vcfg.beta - vcfg.delta,
                          max_iter=iterations)
    ones = np.ones(iterations + 1)
    return aalm_solver._run_loop(
        instance, config, aalm_solver._start(instance, x0, lam0, ones, ones),
        kkt)


# ---------------------------------------------------------------------------
# Trace and summary serialization.

def write_trace_csv(path, trace):
    """Serialize records with the canonical header; floats via
    ``repr(float(v))``, so a numpy scalar prints as a plain float."""
    floats = operator.attrgetter(*TRACE_FIELDS[1:])
    with open(path, "w") as f:
        f.write(",".join(TRACE_FIELDS) + "\n")
        f.writelines(f"{r.k},{','.join(map(repr, map(float, floats(r))))}\n"
                     for r in trace)


def read_trace_csv(path):
    """Inverse of :func:`write_trace_csv`."""
    with open(path) as f:
        header = f.readline().strip().split(",")
        if tuple(header) != TRACE_FIELDS:
            raise ValueError(f"unexpected trace header {header}")
        out = []
        for line in f:
            parts = line.strip().split(",")
            out.append(TraceRecord(int(parts[0]),
                                   *[float(v) for v in parts[1:]]))
    return out


SUMMARY_FIELDS = ("name", "method", "case", "schedule", "gamma", "delta",
                  "beta", "rho", "eta", "iterations", "seed", "rng",
                  "reference", "final_feas", "final_obj_res",
                  "final_stat_res", "slope_feas", "r2_feas", "slope_obj_res",
                  "r2_obj_res", "witness_t2_feas", "witness_t2_obj", "status")


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_summary_csv(path, rows):
    with open(path, "w") as f:
        f.write(",".join(SUMMARY_FIELDS) + "\n")
        for row in rows:
            f.write(",".join(_fmt(row[k]) for k in SUMMARY_FIELDS) + "\n")


def _schedule_label(entry):
    if entry.method == "vanilla":
        return ""
    sched = entry.config.schedule
    label = sched.rule
    if sched.alpha is not None:
        label += f"({sched.alpha:g})"
    if sched.xi is not None:
        label += "+scaled"
    return label


def summarize_trace(trace):
    """Rate slopes over the last half of the run plus little-o witnesses."""
    nan = float("nan")
    out = {"slope_feas": nan, "r2_feas": nan, "slope_obj_res": nan,
           "r2_obj_res": nan, "witness_t2_feas": nan, "witness_t2_obj": nan}
    if len(trace) < 2:
        return out
    k_mid = trace[len(trace) // 2].k
    k_last = trace[-1].k
    for fld, s_key, r_key in (("feas", "slope_feas", "r2_feas"),
                              ("obj_res", "slope_obj_res", "r2_obj_res")):
        try:
            est = fit_rate(trace, fld, (k_mid, k_last))
            out[s_key], out[r_key] = est.slope, est.r_squared
        except ValueError:
            pass
    for fld, key in (("feas", "witness_t2_feas"), ("obj_res",
                                                   "witness_t2_obj")):
        try:
            out[key] = littleo_witness(trace, fld, k_mid, k_last)
        except ValueError:
            pass
    return out


def run_experiment(config):
    """Execute an :class:`ExperimentConfig`; returns the summary rows.

    Per-solver failures are recorded in the ``status`` column without
    aborting the remaining solvers.  Outputs land in ``output_dir``
    (overridden by ``$AALM_OUTPUT_DIR`` when set).
    """
    out_dir = Path(os.environ.get("AALM_OUTPUT_DIR") or config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    instance = build_problem(config.problem, config.seed)
    seed = int(config.problem.get("seed",
                                  config.seed + INSTANCE_SEED_OFFSET)) \
        if "manifest" not in config.problem else -1
    try:
        kkt = cached_reference(instance, out_dir)
        ref_status = f"kkt_tol={kkt.kkt_tol:.3e}"
    except Exception as e:
        kkt = None
        # Only the trailing status column of summary.csv may hold commas.
        reason = str(e).replace(",", ";").replace("\n", " ")
        ref_status = f"failed: {type(e).__name__}: {reason}"
    rows = []
    x0 = np.zeros(instance.dim)
    lam0 = np.zeros(instance.n_constraints)
    for entry in config.solvers:
        nan = float("nan")
        row = {k: nan for k in SUMMARY_FIELDS}
        row.update(name=entry.name, method=entry.method, case="",
                   schedule=_schedule_label(entry), iterations=0, seed=seed,
                   rng=RNG_NAME, reference=ref_status, status="ok")
        try:
            if entry.method == "aalm":
                resolved = aalm_solver.resolve_config(instance, entry.config)
                _, trace = aalm_solver._run_resolved(instance, resolved, x0,
                                                     lam0, kkt=kkt)
                row.update(rho=resolved.schedule.rho,
                           eta=resolved.schedule.eta)
            else:
                # The row states the baseline's own beta, not beta - delta.
                vcfg = entry.config
                resolved = replace(
                    vcfg, gamma=_vanilla_stepsize(instance, vcfg))
                _, trace = run_vanilla(instance, resolved, config.iterations,
                                       x0, lam0, kkt=kkt)
            row.update(case=resolved.case, gamma=resolved.gamma,
                       delta=resolved.delta, beta=resolved.beta)
            write_trace_csv(out_dir / f"{entry.name}.trace.csv", trace)
            row.update(iterations=len(trace),
                       final_feas=trace[-1].feas,
                       final_obj_res=trace[-1].obj_res,
                       final_stat_res=trace[-1].stat_res,
                       **summarize_trace(trace))
        except Exception as e:  # record and continue with the next solver
            row["status"] = f"failed: {type(e).__name__}: {e}"
        rows.append(row)
    write_summary_csv(out_dir / "summary.csv", rows)
    if config.emit_gnuplot:
        write_gnuplot(out_dir / "plots.gp",
                      [e.name for e in config.solvers])
    return rows


GNUPLOT_PANELS = (
    ("objective residual", "1:4"),
    ("feasibility", "1:3"),
    ("stationarity", "1:5"),
    ("t^2 * objective residual", "1:($2**2*$4)"),
    ("t^2 * feasibility", "1:($2**2*$3)"),
    ("t * stationarity", "1:($2*$5)"),
)


def write_gnuplot(path, names):
    """Emit a gnuplot script with the six standard panels (2x3 grid)."""
    lines = [
        "# gnuplot script generated by the benchmark harness",
        "set datafile separator ','",
        "set terminal pngcairo size 1500,900",
        "set output 'panels.png'",
        "set multiplot layout 2,3",
        "set logscale xy",
        "set format y '%.0e'",
        "set key left bottom",
    ]
    for title, using in GNUPLOT_PANELS:
        lines.append(f"set title '{title}'")
        plots = ", ".join(
            f"'{n}.trace.csv' every ::1 using {using} with lines "
            f"title '{n}'" for n in names)
        lines.append("plot " + plots)
    lines.append("unset multiplot")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
