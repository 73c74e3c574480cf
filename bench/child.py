"""One fresh interpreter of the benchmark: set up, then run one experiment.

Usage (from ``run.py``)::

    python3 bench/child.py CONFIG.json [--setup-only] [--probe]
                           [--trace SPANS.npz]

Set-up is what a fresh ``aalm run`` pays before the experiment starts:
import the package, parse the config file, build the instance.  When it
is done the child prints ``ready`` (the parent times set-up from spawning
the process to reading that line), times the calibration kernel and,
unless ``--setup-only``, runs the config through
``aalm.harness.run_experiment`` -- which builds the instance again
itself, as ``aalm run`` does.  The last line it prints is a JSON object:

* ``setup_kernel_s`` -- seconds per :func:`kernel` loop right after
  set-up;
* ``kernel_s`` -- with ``--probe``, the speed probe's trimmed mean over
  the experiment;
* ``wall_s`` -- the ``run_experiment`` call;
* ``solver_s`` -- from the reference sidecar's modification time (it is
  written as the cold reference finishes) to the end of the call, so the
  untraced run needs no wrapper to split off the reference;
* ``layers`` -- with ``--trace``, the per-layer metrics of
  :class:`tracing.Tracer`, whose spans are saved to ``SPANS.npz``.
"""

import argparse
import contextlib
import json
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import aalm.cli  # noqa: F401  (what ``aalm run`` imports)
from aalm import harness

# The speed probe times PROBE_LOOPS kernel loops every PROBE_PERIOD_S
# (about 1% of the time at the fast speed).
PROBE_PERIOD_S = 0.1
PROBE_LOOPS = 300


def kernel(loops):
    """Seconds per loop of a fixed kernel of small numpy operations driven
    from Python -- the mix of the QP and lp solver loops -- measuring how
    fast this core runs right now."""
    M = 0.5 * np.eye(30)
    v = np.ones(30)
    start = time.perf_counter()
    for _ in range(loops):
        v = M @ v + 1.0
        float(np.linalg.norm(v))
    return (time.perf_counter() - start) / loops


class SpeedProbe:
    """Samples :func:`kernel` from a timer signal while active.

    The handler runs in this process's main thread between bytecodes, so
    it samples the core the experiment runs on, throughout the
    experiment.  Its data stay in L1, so the program's own memory use
    does not change what it reads.
    """

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(kernel(PROBE_LOOPS))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self):
        """Mean sample with the slowest and fastest tenth trimmed."""
        xs = sorted(self.samples) or [kernel(PROBE_LOOPS)]
        cut = len(xs) // 10
        return statistics.fmean(xs[cut:len(xs) - cut])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("config")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", default=None)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    config = harness.parse_config(args.config)
    harness.build_problem(config.problem, config.seed)
    print("ready", flush=True)
    result = {"setup_kernel_s": statistics.median(kernel(4000)
                                                  for _ in range(3))}
    if args.setup_only:
        print(json.dumps(result))
        return

    tracer = None
    if args.trace:
        from tracing import Tracer  # not imported by untraced children
        tracer = Tracer()
        tracer.install()
    probe = SpeedProbe()
    with probe if args.probe else contextlib.nullcontext():
        start = time.perf_counter()
        harness.run_experiment(config)
        wall = time.perf_counter() - start
    finished = time.time()
    if args.probe:
        result["kernel_s"] = probe.speed()

    out_dir = Path(config.output_dir)
    sidecars = list(out_dir.glob("*.kkt.csv"))
    # Without a sidecar the reference failed (a counted failure); the
    # whole call then stands in for the solver phase.
    solver_s = (finished - sidecars[0].stat().st_mtime
                if len(sidecars) == 1 else wall)
    result.update(wall_s=wall, solver_s=solver_s)
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["harness.trace_bytes"] = sum(
            p.stat().st_size for p in out_dir.glob("*.csv")
            if not p.name.endswith(".kkt.csv"))
        tracer.save(args.trace)
        result["layers"] = layers
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
