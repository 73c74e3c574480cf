"""Span tracer for the benchmark's per-layer run.

The traced run wraps public functions of each ``aalm`` module from the
outside: every module-level binding of a wrapped function (including the
names other modules imported with ``from .x import f``) is replaced by a
wrapper that records a span ``(name, parent, start, end)``.  Spans are
kept in compact in-memory arrays and written out once, at the end.  A
span's self time is its duration minus the durations of its child spans.

Span names are ``<layer>.<what>``; :data:`LAYER_METRICS` lists the
per-layer metrics computed from them.  Untraced runs install nothing.
"""

import collections
import dataclasses
import functools
import types
from array import array
from time import perf_counter

import numpy as np

#: (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("schedule.generate_s", "s"), ("schedule.terms", "count"),
    ("solver.step_self_s", "s"), ("solver.run_self_s", "s"),
    ("solver.resolve_config_s", "s"), ("solver.outer_iters", "count"),
    ("solver.warm_iters", "count"),
    ("subsolver.linear_solve_s", "s"), ("subsolver.linear_solves", "count"),
    ("subsolver.cache_build_s", "s"), ("subsolver.newton_s", "s"),
    ("subsolver.newton_inner_iters", "count"),
    ("subsolver.multiplier_update_s", "s"),
    ("diagnostics.make_record_s", "s"), ("diagnostics.records", "count"),
    ("diagnostics.discarded_records", "count"),
    ("oracle.reference_s", "s"), ("oracle.polish_s", "s"),
    ("problems.build_s", "s"), ("problems.oracle_s", "s"),
    ("problems.value_calls", "count"), ("problems.gradient_calls", "count"),
    ("problems.hessian_calls", "count"),
    ("problems.constraint_bytes", "bytes"),
    ("harness.write_trace_s", "s"), ("harness.trace_bytes", "bytes"),
    ("harness.experiment_self_s", "s"),
    ("trace.overhead_pct", "%"),
)

class Tracer:
    """Records nested spans of wrapped calls in one thread."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.terms = 0
        self.constraint_bytes = 0

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _current(self):
        return self.names[self.name_id[self._stack[-1]]] if self._stack \
            else None

    def wrap(self, name, fn, after=None):
        """``fn`` recording a span ``name`` per call; ``after(result)``,
        when given, runs outside the span and replaces the result."""
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            return after(result) if after is not None else result

        return traced

    # -- instrumentation of the aalm modules --------------------------------

    def _count_terms(self, t):
        self.terms += len(t)
        return t

    def _trace_instance(self, instance):
        """Wrap the objective oracle of an outermost build's instance."""
        if self._current() == "problems.build":
            return instance  # inner factory call (make_random_qp -> make_qp)
        obj = instance.objective
        hooks = {f: self.wrap(f"problems.{f}", getattr(obj, f))
                 for f in ("value", "gradient", "hessian")
                 if getattr(obj, f) is not None}
        A = instance.A
        self.constraint_bytes = sum(
            getattr(A, part).nbytes for part in ("data", "indices", "indptr")
            if hasattr(A, part)) if hasattr(A, "indptr") else A.nbytes
        return dataclasses.replace(
            instance, objective=dataclasses.replace(obj, **hooks))

    def install(self):
        """Wrap the public functions of every ``aalm`` layer in place."""
        import aalm
        from aalm import (cli, diagnostics, harness, oracle, problems,
                          schedule, solver, subsolver)
        spans = {
            "schedule.generate": [(schedule.generate, self._count_terms),
                                  (schedule.generate_scaled, None)],
            "solver.step": [solver.step, harness.vanilla_alm_step],
            "solver.run": [solver.run, harness.run_vanilla],
            "solver.resolve_config": [solver.resolve_config],
            "subsolver.linear_solve": [subsolver.solve_linear_case],
            "subsolver.newton": [subsolver.solve_inner_newton],
            "subsolver.multiplier_update": [subsolver.multiplier_update],
            "diagnostics.make_record": [diagnostics.make_record],
            "oracle.reference": [oracle.cached_reference],
            "oracle.kkt_refine": [oracle.kkt_refine],
            "problems.build": [(f, self._trace_instance) for f in (
                problems.make_qp, problems.make_random_qp,
                problems.make_lp_regression, problems.make_random_lp,
                problems.make_ring_logistic)],
            "harness.write": [harness.write_trace_csv,
                              harness.write_summary_csv],
            "harness.experiment": [harness.run_experiment],
        }
        wrapped = {}
        for name, fns in spans.items():
            for entry in fns:
                fn, after = entry if isinstance(entry, tuple) else (entry,
                                                                    None)
                wrapped[fn] = self.wrap(name, fn, after)
        for mod in (aalm, cli, diagnostics, harness, oracle, problems,
                    schedule, solver, subsolver):
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in wrapped:
                    setattr(mod, attr, wrapped[val])
        cache = subsolver.LinearCache
        cache.__init__ = self.wrap("subsolver.cache_build", cache.__init__)

    # -- reduction ----------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays: name ids, parents, starts, ends."""
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end))

    def save(self, path):
        nid, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=nid,
                 parent=parent, start=start, end=end)

    def layer_metrics(self):
        """Per-layer metrics (all but ``harness.trace_bytes`` and
        ``trace.overhead_pct``, which need the run's files and its
        untraced twin)."""
        nid, parent, start, end = self.arrays()
        n = nid.size
        dur = end - start
        has_parent = parent >= 0
        self_t = dur - np.bincount(parent[has_parent],
                                   weights=dur[has_parent], minlength=n)
        ids = collections.defaultdict(lambda: -1, self._ids)

        def is_(name):
            return nid == ids[name]

        parent_nid = np.where(has_parent, nid[np.maximum(parent, 0)], -1)

        # Spans below kkt_refine (its warm run): parents precede children.
        refine = ids["oracle.kkt_refine"]
        flags = [False] * n
        names_l = nid.tolist()
        for i, p in enumerate(parent.tolist()):
            if p >= 0:
                flags[i] = flags[p] or names_l[p] == refine
        in_refine = np.array(flags, dtype=bool)

        def total(name, mask=None, use_self=False):
            sel = is_(name) if mask is None else is_(name) & mask
            return float((self_t if use_self else dur)[sel].sum())

        def count(name, mask=None):
            sel = is_(name) if mask is None else is_(name) & mask
            return int(sel.sum())

        def outermost(name):
            return parent_nid != ids[name]

        warm_runs = is_("solver.run") & (parent_nid == refine)
        warm_by_refine = np.bincount(parent[warm_runs],
                                     weights=dur[warm_runs], minlength=n)
        oracle_sel = (is_("problems.value") | is_("problems.gradient")
                      | is_("problems.hessian"))
        return {
            "schedule.generate_s": total("schedule.generate",
                                         outermost("schedule.generate")),
            "schedule.terms": self.terms,
            "solver.step_self_s": total("solver.step", use_self=True),
            "solver.run_self_s": total("solver.run", use_self=True),
            "solver.resolve_config_s": total("solver.resolve_config"),
            "solver.outer_iters": count("solver.step"),
            "solver.warm_iters": count("solver.step", in_refine),
            "subsolver.linear_solve_s": total("subsolver.linear_solve"),
            "subsolver.linear_solves": count("subsolver.linear_solve"),
            "subsolver.cache_build_s": total("subsolver.cache_build"),
            "subsolver.newton_s": total("subsolver.newton"),
            "subsolver.newton_inner_iters": count(
                "problems.hessian", parent_nid == ids["subsolver.newton"]),
            "subsolver.multiplier_update_s": total(
                "subsolver.multiplier_update"),
            "diagnostics.make_record_s": total("diagnostics.make_record"),
            "diagnostics.records": count("diagnostics.make_record"),
            "diagnostics.discarded_records": count("diagnostics.make_record",
                                                   in_refine),
            "oracle.reference_s": total("oracle.reference"),
            "oracle.polish_s": float(
                (dur - warm_by_refine)[is_("oracle.kkt_refine")].sum()),
            "problems.build_s": total("problems.build",
                                      outermost("problems.build")),
            "problems.oracle_s": float(dur[oracle_sel].sum()),
            "problems.value_calls": count("problems.value"),
            "problems.gradient_calls": count("problems.gradient"),
            "problems.hessian_calls": count("problems.hessian"),
            "problems.constraint_bytes": self.constraint_bytes,
            "harness.write_trace_s": total("harness.write"),
            "harness.experiment_self_s": total("harness.experiment",
                                               use_self=True),
        }
