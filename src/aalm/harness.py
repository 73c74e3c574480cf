"""Benchmark harness: JSON experiment configs, traces, and summaries.

An experiment runs a list of named solvers on one problem instance and
writes, into the output directory:

* ``<name>.trace.csv`` per solver -- one row per iteration with the exact
  header ``k,t_k,feas,obj_res,stat_res,gap_H,energy_E,step_norm_M,
  scaled_feas``;
* ``summary.csv`` -- one row per solver with the resolved configuration,
  final residuals, rate slopes fitted over the last half of the run, and
  little-o witnesses;
* ``<instance name>.kkt.csv`` -- the reference pair, computed afresh on
  every run and written before any solver starts;
* optionally ``plots.gp``, a gnuplot script laying the six standard
  panels (raw and ``t``-scaled residuals) out in a 2x3 grid.

Configs and manifests are checked against one schema before anything
runs: each block (config, builtin or manifest problem, accelerated or
vanilla solver entry, schedule, scaling, stop, manifest, objective) is a
table mapping each key it admits to a :class:`Kind` and a default, or
:data:`REQUIRED`.  :func:`_validate` checks a block against its table,
naming the block in every error, and fills in the defaults.

Floats are serialized with ``repr`` so traces round-trip exactly and
re-running a config byte-identically reproduces its outputs.  The
environment variable ``AALM_OUTPUT_DIR`` overrides the config's
``output_dir`` when set.

The non-accelerated baseline (:func:`run_vanilla`) is the classical
proximal augmented Lagrangian iteration

    x_{k+1} = argmin f + <lam_k, Ax - b> + (beta/2)||Ax - b||^2
                     + (1/(2 gamma))||x - x_k||^2,
    lam_{k+1} = lam_k + delta (A x_{k+1} - b),

with the same implicit/linearized treatment of ``f`` as the accelerated
loop, so a comparison at equal stepsizes isolates the effect of the
momentum and dual corrections.  It is the accelerated run on the schedule
``t_k = 1``, ``eta = 1`` (:func:`aalm.schedule.baseline`: ``alpha_k = 0``,
``c_k = 1``) with penalty weight ``beta - delta``, resolved and run like
every entry, so it needs ``delta <= beta`` and its records carry the
energy certificate at ``beta - delta``.
"""

from __future__ import annotations

import inspect
import json
import numbers
import os
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, List, NamedTuple, Optional

import numpy as np

from . import solver as aalm_solver
from .diagnostics import TRACE_FIELDS, TraceRecord, fit_rate, littleo_witness
from .oracle import cached_reference
from .problems import (dense, make_lp_regression, make_qp, make_random_lp,
                       make_random_qp, make_ring_logistic)
from .schedule import SCHEDULE_RULES, baseline, named_schedule
from .solver import SolverConfig, StoppingRule
from .subsolver import CASES

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


# ---------------------------------------------------------------------------
# The schema: one table per block, checked by one function.

#: The default of a key that its block must give.
REQUIRED = object()


class Kind(NamedTuple):
    """What a key's value must be: one that ``accepts`` holds for, called
    ``what`` in errors; for a ``choice`` of names, any other value is
    ``unknown <what> <value>``."""

    what: str
    accepts: Callable[[object], bool]
    choice: bool = False


def _choice(what, names):
    """The kind of a key naming one of ``names`` (a value that is not a
    string is never hashed)."""
    return Kind(what, lambda v: isinstance(v, str) and v in names, True)


INT = Kind("an integer", lambda v: isinstance(v, numbers.Integral)
           and not isinstance(v, bool))
NUMBER = Kind("a number", lambda v: isinstance(v, numbers.Real)
              and not isinstance(v, bool))
NUMBER_OR_NULL = Kind("a number or null",
                      lambda v: v is None or NUMBER.accepts(v))
ETA = Kind("a number, 'critical', 'noncritical' or null",
           lambda v: NUMBER_OR_NULL.accepts(v)
           or v in ("critical", "noncritical"))
BOOL = Kind("true or false", lambda v: isinstance(v, bool))
PATH = Kind("a file path", lambda v: isinstance(v, str))
# A name is written unquoted into summary.csv and makes file names, so it
# holds no comma, no path separator and no space.
NAME = Kind("a name of letters, digits, '.', '_' and '-'",
            lambda v: isinstance(v, str)
            and re.fullmatch(r"[A-Za-z0-9._-]+", v) is not None)
LIST = Kind("a JSON list", lambda v: isinstance(v, list))
BLOCK = Kind("a JSON object", lambda v: isinstance(v, dict))

CONFIG = {"problem": (BLOCK, REQUIRED), "solvers": (LIST, REQUIRED),
          "iterations": (INT, REQUIRED), "seed": (INT, 0),
          "output_dir": (PATH, "results"), "emit_gnuplot": (BOOL, False)}

# A problem block names a builtin family, whose factory's keywords and
# defaults make its table, or else a manifest: an int default is an
# INT, a float one a NUMBER.  A builtin's seed defaults to the master
# seed's instance stream (see _instance_seed).
FACTORIES = {"qp": make_random_qp, "lp-regression": make_random_lp,
             "ring-logistic": make_ring_logistic}
BUILTIN = _choice("builtin problem", tuple(FACTORIES))
BUILTIN_PROBLEMS = {
    family: {"builtin": (BUILTIN, REQUIRED), "seed": (INT, None),
             **{key: ({int: INT, float: NUMBER}[type(p.default)], p.default)
                for key, p in inspect.signature(f).parameters.items()
                if key not in ("seed", "name")}}
    for family, f in FACTORIES.items()}
MANIFEST_PROBLEM = {"manifest": (PATH, REQUIRED)}

# A solver entry's name and method pick its table and name it in errors.
# use_eig is accepted for older configs and ignored: the instance picks
# the subproblem system's backend (aalm.subsolver.LinearCache).  A baseline
# entry names no schedule (its t_k = 1 is fixed), scaling, stop or use_eig.
SOLVER_HEAD = {"name": (NAME, REQUIRED),
               "method": (_choice("method", ("aalm", "vanilla")), "aalm")}
AALM_ENTRY = {**SOLVER_HEAD, "case": (_choice("case", CASES), "explicit"),
              "gamma": (NUMBER_OR_NULL, None), "delta": (NUMBER, 1.0),
              "beta": (NUMBER, 1.0), "schedule": (BLOCK, REQUIRED),
              "scaling": (BLOCK, None), "stop": (BLOCK, {}),
              "use_eig": (BOOL, False)}
VANILLA_ENTRY = {k: v for k, v in AALM_ENTRY.items()
                 if k not in ("schedule", "scaling", "stop", "use_eig")}
SOLVER_ENTRIES = {"aalm": AALM_ENTRY, "vanilla": VANILLA_ENTRY}
SCHEDULE = {"rule": (_choice("schedule rule", tuple(SCHEDULE_RULES)),
                     REQUIRED),
            "alpha": (NUMBER_OR_NULL, None), "rho": (NUMBER, None),
            "eta": (ETA, None)}
SCALING = {"form": (_choice("scaling form", ("t-power", "constant")),
                    REQUIRED),
           "exponent": (NUMBER, 0.5)}
STOP = {"feas_tol": (NUMBER_OR_NULL, None),
        "stat_tol": (NUMBER_OR_NULL, None)}

MANIFEST = {"name": (NAME, None), "objective": (BLOCK, REQUIRED),
            "A": (PATH, REQUIRED), "b": (PATH, REQUIRED)}
_OBJECTIVE = {"kind": (_choice("objective kind", ("qp", "lp-regression")),
                       REQUIRED)}
OBJECTIVES = {
    "qp": {**_OBJECTIVE, "Q": (PATH, REQUIRED), "q": (PATH, REQUIRED)},
    "lp-regression": {**_OBJECTIVE, "B": (PATH, REQUIRED),
                      "c": (PATH, REQUIRED), "p": (NUMBER, REQUIRED)},
}


def _validate(block, schema, context, strict=True):
    """``block`` checked against ``schema`` (key -> ``(kind, default)``),
    with the defaults of absent keys filled in.  Raises ConfigError,
    naming ``context``, for a ``block`` that is not a JSON object, has a
    key outside ``schema`` (only when ``strict``; otherwise such keys are
    dropped), lacks a REQUIRED key or holds a value of the wrong kind."""
    if not isinstance(block, dict):
        raise ConfigError(f"{context} must be a JSON object, got {block!r}")
    unknown = sorted(set(block) - set(schema))
    if strict and unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {context}")
    out = {}
    for key, (kind, default) in schema.items():
        v = block.get(key, default)
        if v is REQUIRED:
            raise ConfigError(f"{context} needs {key!r}")
        if key in block and not kind.accepts(v):
            raise ConfigError(f"unknown {kind.what} {v!r} ({context})"
                              if kind.choice else f"{key} must be "
                              f"{kind.what}, got {v!r} ({context})")
        out[key] = v
    return out


def _read_json(path, what):
    """The JSON document in the file ``path``, a ``what`` (for errors)."""
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read {what}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed JSON in {path}: {e}") from None


def _parse_schedule(block, scaling):
    """The schedule of a ``schedule`` block, with the stepsize factors of
    a ``scaling`` block unless that is None.  A constant scaling is an
    explicit unit ``xi``: it certifies bitwise as no scaling, and runs in
    the implicit case only, like any other ``xi``."""
    s = _validate(block, SCHEDULE, "schedule")
    sched = named_schedule(s["rule"], s["alpha"], eta=s["eta"])
    if s["rho"] is not None:
        sched = replace(sched, rho=float(s["rho"]))
    if scaling is None:
        return sched
    scaling = _validate(scaling, SCALING, "scaling")
    e = float(scaling["exponent"])
    return replace(sched, xi=np.ones_like if scaling["form"] == "constant"
                   else lambda t: t ** e)


def _parse_solver(block, iterations):
    head = _validate(block, SOLVER_HEAD, "solver entry", strict=False)
    name, method = head["name"], head["method"]
    where = f"{'vanilla ' if method == 'vanilla' else ''}solver {name!r}"
    e = _validate(block, SOLVER_ENTRIES[method], where)
    # Types only: resolve_config checks the ranges of gamma, delta and
    # beta.  gamma: null stands for the default stepsize.
    steps = {k: e[k] for k in ("case", "gamma", "delta", "beta")}
    if method == "vanilla":
        cfg = VanillaConfig(**steps)
        _check_vanilla(cfg, where)
    else:
        sched = _parse_schedule(e["schedule"], e["scaling"])
        stop = StoppingRule(**_validate(e["stop"], STOP, "stop"))
        cfg = SolverConfig(schedule=sched, max_iter=iterations, stop=stop,
                           **steps)
    return SolverEntry(name=name, method=method, config=cfg)


def parse_config(source):
    """Parse an experiment config from a JSON file path or a dict.

    Raises :class:`ConfigError` on any unknown key or malformed value.
    """
    raw = (_read_json(source, "config") if isinstance(source, (str, Path))
           else source)
    cfg = _validate(raw, CONFIG, "config")
    _validate_problem(cfg["problem"])
    solvers = [_parse_solver(b, cfg["iterations"]) for b in cfg["solvers"]]
    return ExperimentConfig(**dict(cfg, solvers=solvers))


# ---------------------------------------------------------------------------
# Instances from config blocks and manifest files.

def _load_array(path):
    """Dense float array from a ``.csv`` or a Matrix Market ``.mtx`` file
    (read by ``scipy.io``, the package's one use of scipy); a coordinate
    ``.mtx`` is read dense, the values of an entry it repeats summed.
    Raises a ConfigError naming the file unless it can be read and holds
    finite real numbers only."""
    path = str(path)
    try:
        if path.endswith(".mtx"):
            import scipy.io
            mat = scipy.io.mmread(path)
        else:
            mat = np.loadtxt(path, delimiter=",", dtype=float)
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot read matrix {path}: {e}") from None
    if np.iscomplexobj(mat):
        raise ConfigError(f"matrix {path} holds complex numbers")
    mat = np.asarray(dense(mat), dtype=float)
    if not np.isfinite(mat).all():
        raise ConfigError(f"matrix {path} holds a non-finite entry")
    return mat


def load_instance(path):
    """Instance from the JSON file ``path``, read once: a problem block
    when it is an object with a ``builtin`` key, else a manifest binding
    an objective to matrix files, with keys ``name``, ``objective``, ``A``,
    ``b``.  Matrix paths (``.mtx`` Matrix Market or ``.csv`` dense) are
    resolved relative to the manifest's directory, and every matrix is
    loaded dense, a coordinate ``.mtx`` one included.  Objective kinds:
    ``qp`` (keys ``Q``, ``q``) and ``lp-regression`` (``B``, ``c``, ``p``).
    """
    raw = _read_json(path, "manifest")
    if isinstance(raw, dict) and "builtin" in raw:
        return build_problem(raw)
    return _manifest_instance(raw, Path(path))


def _manifest_instance(raw, path):
    """Instance from the parsed manifest ``raw`` of the file ``path``."""
    m = _validate(raw, MANIFEST, "manifest")
    kind = _validate(m["objective"], _OBJECTIVE, "objective",
                     strict=False)["kind"]
    obj = _validate(m["objective"], OBJECTIVES[kind], "objective")

    def load(block, key):
        return _load_array(path.parent / block[key])

    A = np.atleast_2d(load(m, "A"))
    b = np.atleast_1d(load(m, "b"))
    name = path.stem if m["name"] is None else m["name"]
    if kind == "qp":
        return make_qp(np.atleast_2d(load(obj, "Q")),
                       np.atleast_1d(load(obj, "q")), A, b, name=name)
    return make_lp_regression(np.atleast_2d(load(obj, "B")),
                              np.atleast_1d(load(obj, "c")), float(obj["p"]),
                              A, b, name=name)


def _validate_problem(block):
    """A ``problem`` block checked against its builtin family's table, or
    the manifest table when it names no builtin."""
    builtin = _validate(block, {"builtin": (BUILTIN, None)}, "problem",
                        strict=False)["builtin"]
    return _validate(block, MANIFEST_PROBLEM if builtin is None
                     else BUILTIN_PROBLEMS[builtin], "problem")


def _instance_seed(problem, master_seed):
    """The seed of a ``problem`` block's instance: its own ``seed``, by
    default the master seed offset by :data:`INSTANCE_SEED_OFFSET`; -1
    for a manifest, which draws nothing."""
    if "builtin" not in problem:
        return -1
    seed = problem.get("seed")
    if seed is None and master_seed + INSTANCE_SEED_OFFSET < 0:
        raise ConfigError(f"seed must be >= {-INSTANCE_SEED_OFFSET} for a "
                          f"problem without a seed, got {master_seed}")
    return master_seed + INSTANCE_SEED_OFFSET if seed is None else seed


def build_problem(block, master_seed=0):
    """Instance from a config ``problem`` block: its builtin family's, or
    that of the manifest file it names (see :func:`load_instance`)."""
    params = _validate_problem(block)
    if "manifest" in params:
        path = params["manifest"]
        return _manifest_instance(_read_json(path, "manifest"), Path(path))
    params["seed"] = _instance_seed(params, master_seed)
    return FACTORIES[params.pop("builtin")](**params)


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


def _baseline_config(vcfg, iterations):
    """The baseline's unresolved run config (see the module docstring)."""
    _check_vanilla(vcfg)
    return SolverConfig(schedule=baseline(), case=vcfg.case,
                        gamma=vcfg.gamma, delta=vcfg.delta,
                        beta=vcfg.beta - vcfg.delta, max_iter=iterations)


def run_vanilla(instance, vcfg, iterations, x0, lam0, kkt=None):
    """Run the baseline; returns ``(state, trace)`` like :func:`aalm.solver.run`.

    The run is the accelerated loop on ``t_k = 1``, ``eta = 1`` with
    ``beta - delta`` in place of ``beta`` (see the module docstring), so
    records carry ``t_k = 1`` and the energy and gap at ``beta - delta``.
    """
    config = aalm_solver.resolve_config(instance,
                                        _baseline_config(vcfg, iterations))
    return aalm_solver._run_resolved(instance, config, x0, lam0, kkt)


# ---------------------------------------------------------------------------
# Trace and summary serialization.

def write_trace_csv(path, trace):
    """Serialize records with the canonical header; floats via
    ``repr(float(v))``, so a numpy scalar prints as a plain float."""
    with open(path, "w") as f:
        f.write(",".join(TRACE_FIELDS) + "\n")
        f.writelines(f"{r[0]},{','.join(map(repr, map(float, r[1:])))}\n"
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


def _failure(e):
    """The summary cell ``failed: <type>: <message>`` of an exception, on
    one line (newlines become spaces) so that it cannot split its row."""
    return f"failed: {type(e).__name__}: " + str(e).replace("\n", " ")


def _run_entry(instance, entry, x0, lam0, kkt, iterations, path, row):
    """Run one solver entry, write its trace CSV to ``path`` and fill in
    ``row``; the trace is released when this returns.  A failure is
    recorded in ``row["status"]``."""
    try:
        config = (entry.config if entry.method == "aalm"
                  else _baseline_config(entry.config, iterations))
        resolved = aalm_solver.resolve_config(instance, config)
        _, trace = aalm_solver._run_resolved(instance, resolved, x0, lam0,
                                             kkt=kkt)
        # A baseline row states its own beta, not beta - delta, no rho, eta.
        if entry.method == "aalm":
            row.update(rho=resolved.schedule.rho, eta=resolved.schedule.eta)
        row.update(case=resolved.case, gamma=resolved.gamma,
                   delta=resolved.delta, beta=entry.config.beta)
        write_trace_csv(path, trace)
        row.update(iterations=len(trace),
                   final_feas=trace[-1].feas,
                   final_obj_res=trace[-1].obj_res,
                   final_stat_res=trace[-1].stat_res,
                   **summarize_trace(trace))
    except Exception as e:  # record and continue with the next solver
        row["status"] = _failure(e)
    return row


def run_experiment(config):
    """Execute an :class:`ExperimentConfig`; returns the summary rows.

    Per-solver failures are recorded in the ``status`` column without
    aborting the remaining solvers.  Outputs land in ``output_dir``
    (overridden by ``$AALM_OUTPUT_DIR`` when set).  Each entry's trace
    CSV is written, and its trace released, before the next entry runs,
    so at most one trace is held at a time.
    """
    out_dir = Path(os.environ.get("AALM_OUTPUT_DIR") or config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    instance = build_problem(config.problem, config.seed)
    seed = _instance_seed(config.problem, config.seed)
    try:
        kkt = cached_reference(instance, out_dir)
        ref_status = f"kkt_tol={kkt.kkt_tol:.3e}"
    except Exception as e:
        kkt = None
        # Only the trailing status column of summary.csv may hold commas.
        ref_status = _failure(e).replace(",", ";")
    rows = []
    x0 = np.zeros(instance.dim)
    lam0 = np.zeros(instance.n_constraints)
    for entry in config.solvers:
        nan = float("nan")
        row = {k: nan for k in SUMMARY_FIELDS}
        row.update(name=entry.name, method=entry.method, case="",
                   schedule=_schedule_label(entry), iterations=0, seed=seed,
                   rng=RNG_NAME, reference=ref_status, status="ok")
        rows.append(_run_entry(instance, entry, x0, lam0, kkt,
                               config.iterations,
                               out_dir / f"{entry.name}.trace.csv", row))
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
