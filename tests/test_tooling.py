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
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_tracer_installs():
    """``Tracer().install()`` finds every function it wraps.  It runs in a
    fresh interpreter because installing rebinds module globals for the
    rest of the process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c",
         "from tracing import Tracer; Tracer().install()"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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
