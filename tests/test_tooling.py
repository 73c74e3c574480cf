"""Tests for the repository's tooling and layering around the package.

The benchmark's span tracer (``bench/tracing.py``) wraps ``aalm``
functions by name, so renaming or removing one of them breaks
``bench/run.py --trace 1`` and ``--self-check``.  Installing the tracer
here makes such a rename fail the suite instead.

The reference oracle must stay an arithmetic path separate from the
solver it checks; its imports are pinned here, and so are the one way
every run enters the solver's loop and the one place that builds a run's
subproblem system.  Every shipped experiment
config (the demos and the benchmark's workloads) must still parse, so
that a config key cannot be removed from under them, and every shipped
demo script must still run.  An experiment on any built-in family runs on
numpy alone, and so does the reference oracle's minimum-norm fallback:
neither imports a scipy module.  The package imports scipy in one place
only, where a Matrix Market file is read.
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


@pytest.mark.parametrize("problem, case, basis", [
    ("make_random_qp(n=20, m=4, seed=0)", "explicit", True),
    ("make_random_qp(n=20, m=4, seed=0)", "implicit", False),
    ("make_random_lp(seed=0)", "implicit", False),
    ("make_ring_logistic(10, 20)", "implicit", True),
], ids=["qp-explicit", "qp-implicit", "lp-implicit", "ring-implicit"])
def test_basis_build_is_a_cache_build_span(problem, case, basis):
    """Every run builds one subproblem system, ``LinearCache``, which the
    tracer charges to one ``subsolver.cache_build`` span, not to the
    solves: the linear solves (QP) and the inner Newton solves (lp, ring)
    of a 5-iteration run share it.  A system in the eigenbasis of ``A'A``
    (explicit QP; the ring's Woodbury form) takes that basis
    (``ProblemInstance.eigenbasis``) inside the span; a dense one (the
    implicit QP and lp) takes none."""
    out = _traced(f"""
import numpy as np
from aalm import (SolverConfig, nesterov, make_random_lp, make_random_qp,
                  make_ring_logistic, run)
from aalm.problems import ProblemInstance
ProblemInstance.eigenbasis = tracer.wrap("probe.basis",
                                         ProblemInstance.eigenbasis)
inst = {problem}
run(inst, SolverConfig(schedule=nesterov(), case="{case}", max_iter=5),
    np.zeros(inst.dim), np.zeros(inst.n_constraints))
nid, parent, _, _ = tracer.arrays()
names = [tracer.names[i] for i in nid]
print([names[parent[i]] for i, n in enumerate(names) if n == "probe.basis"])
print(names.count("subsolver.cache_build"),
      names.count("subsolver.linear_solve") + names.count("subsolver.newton"))
""")
    spans = "['subsolver.cache_build']" if basis else "[]"
    assert out.split("\n")[:2] == [spans, "1 5"]


@pytest.mark.parametrize("module, layers", [
    ("oracle", {"solver", "subsolver", "schedule"}),
    ("diagnostics", {"solver", "subsolver", "schedule", "oracle"}),
], ids=["oracle", "diagnostics"])
def test_oracle_imports_no_solver_layer(module, layers):
    """``aalm/oracle.py`` imports nothing from ``solver``, ``subsolver`` or
    ``schedule``, so no reference pair is produced by the iterations it
    is used to check; ``aalm/diagnostics.py`` imports nothing from those
    or from ``oracle``, so records stay functions of the iterates and
    cannot come to depend on the step."""
    tree = ast.parse((ROOT / "src" / "aalm" / f"{module}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module or ''}.{a.name}"
                            for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    bad = sorted(name for name in imported
                 if layers & set(name.split(".")))
    assert bad == [], bad


def _names(tree, name):
    """Whether ``tree`` names ``name``: as a bare name, an attribute or
    an imported name."""
    return any(isinstance(node, ast.Name) and node.id == name
               or isinstance(node, ast.Attribute) and node.attr == name
               or isinstance(node, ast.alias) and name in (node.name,
                                                           node.asname)
               for node in ast.walk(tree))


def _sources():
    """``(path, tree)`` of every Python file of the package, the demos
    and the benchmark."""
    return [(path, ast.parse(path.read_text())) for path in
            sorted((ROOT / "src" / "aalm").glob("*.py"))
            + sorted((ROOT / "demos").glob("*.py"))
            + sorted((ROOT / "bench").glob("*.py"))]


def _calls(tree, name):
    """The calls in ``tree`` of ``name``, bare or as an attribute."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None),
                         getattr(node.func, "attr", None))]


def _resolved_by_caller(fn, arg):
    """Whether the config argument ``arg`` of a call in the function
    ``fn`` is a ``resolve_config`` call, or a name that ``fn`` assigns
    one to."""
    if isinstance(arg, ast.Call):
        return _names(arg.func, "resolve_config")
    return isinstance(arg, ast.Name) and any(
        isinstance(node, ast.Assign) and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id == arg.id and isinstance(node.value, ast.Call)
        and _names(node.value.func, "resolve_config")
        for node in ast.walk(fn))


def test_one_entry_to_the_run_loop():
    """Every run enters the loop, ``solver._run_resolved``, after
    ``resolve_config``: only ``solver.run``, ``harness.run_vanilla`` and
    ``harness._run_entry`` call it, each with a config that
    ``resolve_config`` returned.  ``step`` calls its two solvers itself,
    by their bare module-level names (which the benchmark's tracer
    rebinds), and no module of the package, demo or benchmark file names
    the layers that once stood between them (``_run_loop``,
    ``solve_subproblem``) or the manifest-only reader
    (``load_manifest``)."""
    named, callers = [], []
    for path, tree in _sources():
        named += [f"{path.name}: {name}" for name in (
            "_run_loop", "solve_subproblem", "load_manifest")
            if _names(tree, name)]
        for top in tree.body:
            for call in _calls(top, "_run_resolved"):
                where = f"{path.stem}.{getattr(top, 'name', '<module>')}"
                callers.append((where, len(call.args) > 1
                                and _resolved_by_caller(top, call.args[1])))
    assert named == [], named
    assert callers == [("harness.run_vanilla", True),
                       ("harness._run_entry", True),
                       ("solver.run", True)], callers
    tree = ast.parse((ROOT / "src" / "aalm" / "solver.py").read_text())
    (step,) = [stmt for stmt in tree.body
               if getattr(stmt, "name", None) == "step"]
    bare = {node.func.id for node in ast.walk(step)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert {"solve_linear_case", "solve_inner_newton"} <= bare, bare


def test_one_system_builder_and_no_identity_knob():
    """In ``src/aalm/*.py`` only ``subsolver.step_plan`` calls
    ``LinearCache``, so every solve takes the run's one system, and no
    module names the per-step identity check (``check_identities``,
    ``IDENTITY_TOL``) or standalone subproblem formulas
    (``subproblem_value``, ``subproblem_gradient``): the tests check the
    identity along runs and write ``F`` and its gradient out
    themselves."""
    builders, named = [], []
    for path in sorted((ROOT / "src" / "aalm").glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            where = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            builders += [where for node in ast.walk(top)
                         if isinstance(node, ast.Call)
                         and _names(node.func, "LinearCache")]
        named += [f"{path.stem}: {name}" for name in (
            "check_identities", "IDENTITY_TOL", "subproblem_value",
            "subproblem_gradient") if _names(tree, name)]
    assert builders == ["subsolver.step_plan"], builders
    assert named == [], named


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


def test_scipy_imported_only_to_read_mtx():
    """Every ``import scipy...`` and ``from scipy... import`` statement
    in ``src/aalm/*.py`` lies inside ``harness._load_array``, which reads
    ``.mtx`` files: no other code of the package can come to need scipy."""
    found = []
    for path in sorted((ROOT / "src" / "aalm").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            where = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                found += [where for name in names
                          if name.split(".")[0] == "scipy"]
    assert found and set(found) == {"harness._load_array"}, found


def test_min_norm_fallback_imports_no_scipy():
    """The reference oracle's minimum-norm fallback runs on numpy alone:
    ``kkt_solve_qp`` on duplicated constraint rows (a singular 4x4 saddle
    system) and ``kkt_refine`` on an instance whose ``Z'HZ`` is singular
    (the 2x2 fallback) both reach it, in a fresh interpreter, and load no
    ``scipy`` module."""
    out = _fresh("""
import sys
import numpy as np
from aalm import oracle
from aalm.problems import ObjectiveOracle, ProblemInstance

shapes = []
solve = oracle._min_norm_solve
oracle._min_norm_solve = lambda M, rhs: shapes.append(M.shape) or solve(M, rhs)
A = np.array([[1.0, 0.0], [1.0, 0.0]])
kkt = oracle.kkt_solve_qp(np.eye(2), np.zeros(2), A, np.ones(2))
assert np.allclose(kkt.lam, [-0.5, -0.5], rtol=0, atol=1e-10)
H = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
h = np.array([1.0, 1.0, 2.0])
objective = ObjectiveOracle(
    value=lambda x: 0.5 * (x[0] + x[1] - 1.0) ** 2 + 0.5 * (x[2] - 2.0) ** 2,
    gradient=lambda x: H @ x - h, hessian=lambda x: H, lipschitz=2.0)
inst = ProblemInstance(objective, np.ones((1, 3)), np.zeros(1), "singular")
assert oracle.kkt_refine(inst).kkt_tol <= 1e-9
print(sorted(set(shapes)))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
""")
    assert out.split("\n")[:2] == ["[(2, 2), (4, 4)]", "[]"]
