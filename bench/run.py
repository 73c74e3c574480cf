"""End-to-end and per-layer benchmark of aalm.

Usage, from the root of a checkout::

    python3 bench/run.py --blas-threads 2 --workload qp-sweep --seed 1 \\
        --seconds 10 --trace 0
    python3 bench/run.py --self-check

A run builds the workload's experiment config from ``--seed`` and drives
it the way ``aalm run`` does, each time in a fresh interpreter
(``child.py``) and a fresh output directory, so the reference is
computed cold.  One process runs at a time; BLAS threads are pinned to
``--blas-threads`` in every child.

``--trace 0`` repeats whole experiments, each preceded by a
set-up-only launch, until ``--seconds`` have passed (at least one; at
least five set-up launches), after one untimed warm-up launch.  It
reports medians over the run of

* ``setup_s`` -- spawn to a ready experiment (import, parse, build);
* ``wall_s`` -- the ``run_experiment`` call;
* ``iters_per_s`` -- outer iterations over solver-phase time;
* ``peak_rss_mb`` -- peak resident memory of an experiment's process.

Set-up times, and the times of qp-sweep and lp-implicit, are scaled to a
reference speed: each child times a fixed kernel right after set-up and,
for those two workloads, every 0.1 s during the experiment.  A sample
measured at kernel time ``k`` per loop is multiplied by
``REFERENCE_KERNEL_S / k`` (the README gives the reason and the
evidence).  ring-consensus times are reported as measured.

``--trace 1`` alternates untraced and traced experiments for the same
time and reports the per-layer metrics of the median traced one plus
its overhead over the median untraced one.

Every experiment attempts the same operations -- the reference, each
solver entry, each output check of ``workloads.py`` -- and each failure
is printed with its message.  The last line of standard output is the
result: ``{"correct", "attempted", "failed", "metrics"}``.  Output files
go to ``.bench_out/`` in the checkout.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import checks
import workloads
from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set-up-only launches per run at least (one precedes each experiment).
SETUP_SAMPLES = 5

# Seconds per child.kernel loop at the fast speed of the 2-core machine
# the reference figures were recorded on.  Timed samples are scaled by
# this over the kernel time measured in the same process (see the
# README).
REFERENCE_KERNEL_S = 3.6e-6

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("iters_per_s", "1/s"),
              ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    """The benchmark itself could not run (not an operation failure)."""


def child_env(blas_threads):
    env = dict(os.environ)
    env.pop("AALM_OUTPUT_DIR", None)  # would redirect the outputs
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    return env


def launch(config_path, env, *flags):
    """Run ``child.py`` once; returns (setup seconds, result, peak RSS MB),
    ``result`` being the child's final JSON line."""
    cmd = [sys.executable, str(HERE / "child.py"), str(config_path), *flags]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            text=True)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited with {proc.returncode}")
    result = json.loads(rest.strip().splitlines()[-1])
    return setup, result, usage.ru_maxrss / 1024.0


def write_config(workload, exp_dir):
    shutil.rmtree(exp_dir, ignore_errors=True)
    exp_dir.mkdir(parents=True)
    path = exp_dir / "config.json"
    path.write_text(json.dumps(dict(workload.config,
                                    output_dir=str(exp_dir))))
    return path


def account(workload, exp_dir):
    """Operations of one finished experiment: (iterations, failures).

    ``failures`` holds one message per failed operation.
    """
    failures = []
    try:
        rows = checks.read_summary(exp_dir)
    except OSError as e:
        return 0, [f"summary: {e}"] * workload.operations
    if not rows[0]["reference"].startswith("kkt_tol"):
        failures.append(f"reference: {rows[0]['reference']}")
    for row in rows:
        if row["status"] != "ok":
            failures.append(f"solver {row['name']}: {row['status']}")
    for label, ok, msg in checks.run_checks(workload, exp_dir):
        if not ok:
            failures.append(f"check {label}: {msg}")
    return sum(int(r["iterations"]) for r in rows), failures


def scaled_setup(setup, res):
    """Set-up seconds at the reference speed."""
    return setup * REFERENCE_KERNEL_S / res["setup_kernel_s"]


def setup_sample(config_path, env):
    """One set-up-only launch."""
    setup, res, _ = launch(config_path, env, "--setup-only")
    return scaled_setup(setup, res)


def experiment(workload, exp_dir, env, trace=False):
    """One experiment in a fresh interpreter and directory.

    Set-up time is scaled to the reference speed by the kernel timed right
    after it; for a probed workload every other time is scaled by the
    speed probe's reading over the experiment.
    """
    path = write_config(workload, exp_dir)
    flags = (("--probe",) if workload.probed else ()) + (
        ("--trace", str(exp_dir / "spans.npz")) if trace else ())
    setup, res, rss = launch(path, env, *flags)
    iters, failures = account(workload, exp_dir)
    for msg in failures:
        print(f"FAILED {workload.name}: {msg}")
    scale = (REFERENCE_KERNEL_S / res["kernel_s"] if workload.probed
             else 1.0)
    print(f"# {'traced ' if trace else ''}experiment: wall "
          f"{res['wall_s']:.3f} s, solver phase {res['solver_s']:.3f} s, "
          f"scale {scale:.3f}, {iters} iterations, peak RSS {rss:.1f} MB, "
          f"{workload.operations - len(failures)}/{workload.operations} "
          f"operations ok")
    if trace:
        units = dict(LAYER_METRICS)
        res["layers"] = {name: v * scale if units[name] == "s" else v
                         for name, v in res["layers"].items()}
    res.update(setup_s=scaled_setup(setup, res),
               wall_s=res["wall_s"] * scale,
               iters_per_s=iters / (res["solver_s"] * scale),
               iterations=iters, failures=failures, peak_rss_mb=rss)
    return res


def machine():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"{len(os.sched_getaffinity(0))} cores, "
            f"{blas.get('name')} {blas.get('version')}, numpy "
            f"{np.__version__}, scipy {metadata.version('scipy')}, "
            f"Python {platform.python_version()}")


def measure(workload, seconds, trace, env):
    """Run experiments for ``seconds``; returns (metrics, attempted,
    failures).  Every metric is the median over the run's samples."""
    run_dir = OUT / workload.name
    shutil.rmtree(run_dir, ignore_errors=True)
    exps, traced, setups = [], [], []
    if not trace:
        setup_cfg = write_config(workload, run_dir / "setup")
        launch(setup_cfg, env, "--setup-only")  # warm-up: bytecode, cache
    deadline = time.perf_counter() + seconds
    while not exps or time.perf_counter() < deadline:
        i = len(exps)
        if not trace:
            setups.append(setup_sample(setup_cfg, env))
        exps.append(experiment(workload, run_dir / f"exp{i}", env))
        if trace:
            traced.append(experiment(workload, run_dir / f"traced{i}", env,
                                     trace=True))
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(setup_cfg, env))
    runs = exps + traced
    failures = [m for r in runs for m in r["failures"]]
    attempted = workload.operations * len(runs)

    def median(key, rs=exps):
        return statistics.median(r[key] for r in rs)

    if trace:
        mid = sorted(traced, key=lambda r: r["wall_s"])[len(traced) // 2]
        values = dict(mid["layers"])
        values["trace.overhead_pct"] = 100.0 * (mid["wall_s"]
                                                / median("wall_s") - 1.0)
        units = dict(LAYER_METRICS)
    else:
        values = {"setup_s": statistics.median(
                      setups + [r["setup_s"] for r in exps]),
                  "wall_s": median("wall_s"),
                  "iters_per_s": median("iters_per_s"),
                  "peak_rss_mb": median("peak_rss_mb")}
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    return metrics, attempted, failures


def self_check(env):
    """Every workload at reduced size: untraced and traced experiments
    with zero failures, every per-layer metric present, and checks that
    catch a corrupted reference and a rising energy."""
    ok = True

    def verdict(label, passed, detail=""):
        nonlocal ok
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'} {label} {detail}")

    shutil.rmtree(OUT / "self-check", ignore_errors=True)
    for name in workloads.NAMES:
        wl = workloads.build(name, seed=1, reduced=True)
        run_dir = OUT / "self-check" / name
        plain = experiment(wl, run_dir / "plain", env)
        traced = experiment(wl, run_dir / "traced", env, trace=True)
        verdict(f"{name}: no failed operation",
                not plain["failures"] and not traced["failures"])
        missing = [m for m, _ in LAYER_METRICS
                   if m != "trace.overhead_pct" and m not in traced["layers"]]
        verdict(f"{name}: per-layer metrics", not missing, str(missing))
        verdict(f"{name}: traced run counts every iteration",
                traced["layers"]["solver.outer_iters"]
                - traced["layers"]["solver.warm_iters"]
                == traced["iterations"])

        bad = run_dir / "tampered"
        shutil.copytree(run_dir / "plain", bad)
        sidecar = next(bad.glob("*.kkt.csv"))
        lines = sidecar.read_text().splitlines()
        key, first, *rest = lines[1].split(",")
        lines[1] = ",".join([key, repr(float(first) + 1e-6), *rest])
        sidecar.write_text("\n".join(lines) + "\n")
        results = dict((lbl, good) for lbl, good, _ in
                       checks.run_checks(wl, bad))
        verdict(f"{name}: perturbed reference is caught",
                not results["reference"])
    trace = {f: np.array([2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
             for f in checks.TRACE_FIELDS}
    trace["energy_E"] = np.array([5.0, 4.0, 3.0, 3.1, 2.0, 1.0])
    verdict("rising energy is caught", not checks.check_energy(trace, 1.0)[0])
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--blas-threads", type=int, default=1)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()

    cores = len(os.sched_getaffinity(0))
    if not 1 <= args.blas_threads <= cores:
        ap.error(f"--blas-threads must lie in [1, {cores}]")
    if not (SRC / "aalm" / "__init__.py").is_file():
        print(f"error: no aalm sources under {SRC}", file=sys.stderr)
        return 2
    env = child_env(args.blas_threads)
    print(f"# machine: {machine()}; BLAS threads {args.blas_threads}")
    try:
        if args.self_check:
            return 0 if self_check(env) else 1
        if args.workload is None:
            ap.error("--workload is required")
        wl = workloads.build(args.workload, args.seed)
        metrics, attempted, failures = measure(wl, args.seconds,
                                               bool(args.trace), env)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": not any(m.startswith("check ")
                                         for m in failures),
                      "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
