"""Tests for the repository's tooling and layering around the package.

The benchmark's span tracer (``bench/tracing.py``) wraps ``aalm``
functions by name, so renaming or removing one of them breaks
``bench/run.py --trace 1`` and ``--self-check``.  Installing the tracer
here makes such a rename fail the suite instead.

The reference oracle must stay an arithmetic path separate from the
solver it checks; its imports are pinned here.
"""

import ast
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def _traced(code):
    """Run ``code`` after ``tracer = Tracer(); tracer.install()`` in a
    fresh interpreter (installing rebinds module globals for the rest of
    the process); returns its standard output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c",
         "from tracing import Tracer\ntracer = Tracer()\ntracer.install()\n"
         + code],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


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
