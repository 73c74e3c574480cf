"""Tests for the repository's tooling and layering around the package.

The benchmark's span tracer (``bench/tracing.py``) wraps ``aalm``
functions by name, so renaming or removing one of them breaks
``bench/run.py --trace 1`` and ``--self-check``.  Installing the tracer
here makes such a rename fail the suite instead.

The reference oracle must stay an arithmetic path separate from the
solver it checks; its imports are pinned here.  Every shipped experiment
config (the demos and the benchmark's workloads) must still parse, so
that a config key cannot be removed from under them, and every shipped
demo script must still run.  An experiment on any built-in family runs on
numpy alone: it imports no scipy module.
"""

import ast
import csv
import importlib.util
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def _fresh(code, cwd=ROOT):
    """Run ``code`` in a fresh interpreter with ``src`` and ``bench`` on
    its path, in ``cwd``; returns its standard output."""
    env = {k: v for k, v in os.environ.items() if k != "AALM_OUTPUT_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _traced(code):
    """Run ``code`` after ``tracer = Tracer(); tracer.install()`` in a
    fresh interpreter (installing rebinds module globals for the rest of
    the process); returns its standard output."""
    return _fresh("from tracing import Tracer\ntracer = Tracer()\n"
                  "tracer.install()\n" + code)


def test_bench_tracer_installs():
    """``Tracer().install()`` finds every function it wraps."""
    _traced("")


def test_basis_build_is_a_cache_build_span():
    """A fixed-gamma implicit run on a general Q builds its generalized
    eigenbasis inside ``LinearCache.__init__``, so the tracer charges it
    to ``subsolver.cache_build`` (once per run), not to the solves."""
    out = _traced("""
import numpy as np
from aalm import SolverConfig, chambolle_dossal, make_random_qp, run
from aalm import subsolver
subsolver.generalized_eigenbasis = tracer.wrap(
    "probe.basis", subsolver.generalized_eigenbasis)
run(make_random_qp(n=20, m=4, seed=0),
    SolverConfig(schedule=chambolle_dossal(10.0), case="implicit",
                 max_iter=5), np.zeros(20), np.zeros(4))
nid, parent, _, _ = tracer.arrays()
names = [tracer.names[i] for i in nid]
print([names[parent[i]] for i, n in enumerate(names) if n == "probe.basis"])
print(names.count("subsolver.cache_build"),
      names.count("subsolver.linear_solve"))
""")
    assert out.split("\n")[:2] == ["['subsolver.cache_build']", "1 5"]


def test_oracle_imports_no_solver_layer():
    """``aalm/oracle.py`` imports nothing from ``solver``, ``subsolver`` or
    ``schedule``, so no reference pair is produced by the iterations it
    is used to check."""
    tree = ast.parse((ROOT / "src" / "aalm" / "oracle.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module or ''}.{a.name}"
                            for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    layers = {"solver", "subsolver", "schedule"}
    bad = sorted(name for name in imported
                 if layers & set(name.split(".")))
    assert bad == [], bad


def test_vanilla_steps_are_solver_step_spans():
    """The baseline runs the accelerated step, which the tracer wraps once
    under both of its names: a 5-iteration ``run_vanilla`` records
    exactly 5 ``solver.step`` spans inside 1 ``solver.run`` span, so the
    benchmark's iteration count neither drops nor doubles them."""
    out = _traced("""
import numpy as np
from aalm import make_random_qp
from aalm.harness import VanillaConfig, run_vanilla
run_vanilla(make_random_qp(n=20, m=4, seed=0), VanillaConfig(), 5,
            np.zeros(20), np.zeros(4))
nid, parent, _, _ = tracer.arrays()
names = [tracer.names[i] for i in nid]
print(names.count("solver.step"), names.count("solver.run"))
print(sorted({names[parent[i]] for i, n in enumerate(names)
              if n == "solver.step"}))
""")
    assert out.split("\n")[:2] == ["5 1", "['solver.run']"]


def test_dual_updates_are_multiplier_update_spans():
    """The tracer wraps ``multiplier_update`` and ``step`` by object, so
    the update's signature (it takes the formed ``A x_{k+1}``) drops no
    span: a traced 5-iteration qp run records 5 of each."""
    out = _traced("""
import numpy as np
from aalm import SolverConfig, make_random_qp, nesterov, run
run(make_random_qp(n=20, m=4, seed=0),
    SolverConfig(schedule=nesterov(), case="explicit", max_iter=5),
    np.zeros(20), np.zeros(4))
nid, _, _, _ = tracer.arrays()
names = [tracer.names[i] for i in nid]
print(names.count("subsolver.multiplier_update"), names.count("solver.step"))
""")
    assert out.split("\n")[0] == "5 5"


def test_newton_steps_are_newton_spans():
    """The run calls ``solve_inner_newton`` by its module-level name, so
    the tracer sees every inner solve: a traced 20-iteration implicit lp
    run records one ``subsolver.newton`` span per outer iteration, and
    every ``problems.hessian`` span (one per Newton step, the benchmark's
    ``newton_inner_iters``) is a child of one of them."""
    out = _traced("""
import numpy as np
from aalm import SolverConfig, make_random_lp, nesterov, run
lp = make_random_lp(seed=0)
run(lp, SolverConfig(schedule=nesterov(), case="implicit", max_iter=20),
    np.zeros(lp.dim), np.zeros(lp.n_constraints))
nid, parent, _, _ = tracer.arrays()
names = [tracer.names[i] for i in nid]
hessians = [i for i, n in enumerate(names) if n == "problems.hessian"]
print(names.count("subsolver.newton"), names.count("solver.step"),
      len(hessians) >= 20)
print(sorted({names[parent[i]] for i in hessians}))
""")
    assert out.split("\n")[:2] == ["20 20 True", "['subsolver.newton']"]


def test_derived_oracle_calls_are_problem_spans():
    """The tracer swaps in its wrappers for the callables a separable
    objective derives, so one ``value`` and one ``gradient`` call on a
    ring built under it record exactly one span each."""
    out = _traced("""
import numpy as np
from aalm import make_ring_logistic
ring = make_ring_logistic(10, 20)
ring.objective.value(np.zeros(200))
ring.objective.gradient(np.zeros(200))
nid, _, _, _ = tracer.arrays()
names = [tracer.names[i] for i in nid]
print(names.count("problems.value"), names.count("problems.gradient"))
""")
    assert out.split("\n")[0] == "1 1"


def test_record_blocks_bound_run_memory():
    """The run loop buffers a bounded block of iterates for its trace
    records, not the run: a 300-iteration explicit CD(10) run on the
    10x200 ring allocates at most 2 MB at its peak (buffering all 300
    iterates would take about 10 MB)."""
    from aalm import SolverConfig, chambolle_dossal, make_ring_logistic, run
    ring = make_ring_logistic(10, 200)
    cfg = SolverConfig(schedule=chambolle_dossal(10.0), case="explicit",
                       max_iter=300)
    tracemalloc.start()
    try:
        run(ring, cfg, np.zeros(ring.dim), np.zeros(ring.n_constraints))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6, peak


def test_shipped_configs_parse():
    """Every ``demos/*.json`` config and every benchmark workload's config
    (``bench/workloads.build``, full and reduced) gets through
    ``parse_config``."""
    from aalm.harness import parse_config
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    demos = sorted((ROOT / "demos").glob("*.json"))
    assert demos
    for path in demos:
        parse_config(path)
    for name in workloads.NAMES:
        for reduced in (False, True):
            cfg = workloads.build(name, 2024, reduced).config
            assert len(parse_config(cfg).solvers) == len(cfg["solvers"])


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda p: p.name)
def test_demo_script_runs(demo, tmp_path):
    """Each ``demos/*.py`` runs to completion in a fresh interpreter and
    writes no file."""
    _fresh(f"import runpy\nrunpy.run_path({str(demo)!r}, "
           f"run_name='__main__')", cwd=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_builtin_experiments_import_no_scipy(tmp_path):
    """A fresh interpreter imports ``aalm.cli`` and runs a dense QP config
    (explicit and scaled implicit entries), an implicit lp config and a
    ring config (an explicit CD entry and vanilla, with the ring's
    ``kkt_refine`` reference) through ``run_experiment`` without loading
    any ``scipy`` module."""
    out = _fresh(f"""
import sys
import aalm.cli
from aalm import harness

cd = {{"rule": "cd", "alpha": 10.0, "eta": "noncritical"}}
qp = {{"problem": {{"builtin": "qp", "n": 12, "m": 4, "seed": 3}},
      "iterations": 20, "output_dir": {str(tmp_path / "qp")!r},
      "solvers": [
          {{"name": "explicit", "case": "explicit", "schedule": cd}},
          {{"name": "scaled", "case": "implicit", "schedule": cd,
            "scaling": {{"form": "t-power", "exponent": 0.5}}}}]}}
lp = {{"problem": {{"builtin": "lp-regression", "d": 8, "n": 5}},
      "iterations": 20, "output_dir": {str(tmp_path / "lp")!r},
      "solvers": [{{"name": "implicit", "case": "implicit",
                    "schedule": {{"rule": "nesterov"}}}}]}}
ring = {{"problem": {{"builtin": "ring-logistic", "p_agents": 4,
                      "m_dim": 5}},
        "iterations": 20, "output_dir": {str(tmp_path / "ring")!r},
        "solvers": [
            {{"name": "cd", "case": "explicit", "schedule": cd,
              "delta": 10.0}},
            {{"name": "vanilla", "method": "vanilla", "case": "explicit"}}]}}
for cfg in (qp, lp, ring):
    harness.run_experiment(harness.parse_config(cfg))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
""")
    assert out.strip() == "[]"
    for run, n_entries in (("qp", 2), ("lp", 1), ("ring", 2)):
        with open(tmp_path / run / "summary.csv") as f:
            rows = list(csv.DictReader(f))
        assert [r["status"] for r in rows] == ["ok"] * n_entries
        assert all(r["reference"].startswith("kkt_tol=") for r in rows)
