"""Experiment configs and output checks of the benchmark's workloads.

Each workload is one ``aalm run`` experiment config plus the checks its
outputs must pass.  ``build(name, seed, reduced)`` returns both; the
reduced variants keep every solver entry and every check but shrink
iteration budgets (and the ring) so that ``run.py --self-check`` finishes
in seconds.

Only ``qp-sweep`` draws its instance from the seed: its work is the same
for every instance (fixed iteration budgets, closed-form reference).  The
ring and lp references stop at a residual basin, so their cost depends on
the instance (ring warm-run length 2034..2393 iterations over instance
seeds 0..4, lp reference 1.1..2.4 s over seeds 0..7), and
``kkt_refine`` fails outright on lp seed 8.  Those two workloads
therefore use the shipped seed-0 instances for every ``--seed``.
"""

from dataclasses import dataclass, field
from typing import List, Tuple

NAMES = ("qp-sweep", "ring-consensus", "lp-implicit")


@dataclass(frozen=True)
class Check:
    """One output check.

    ``kind`` selects the test in :mod:`checks`:

    * ``reference`` -- the sidecar pair against the benchmark's own KKT
      residual (and, for the QP, its own saddle-system solve);
    * ``energy`` -- ``energy_E`` nonincreasing along ``solver``'s trace;
    * ``slope`` -- log-log feasibility slope over ``window`` at most
      ``limit``;
    * ``littleo`` -- ``t^2 feas`` and ``t^2 obj_res`` shrink by
      ``limit`` from ``window[0]`` to ``window[1]``;
    * ``beats`` -- every final residual of ``solver`` at most ``limit``
      times that of ``other``;
    * ``scaled`` -- ``sup t^2 xi feas`` at most ``limit`` times its
      maximum over ``k <= window[1]``.
    """

    kind: str
    solver: str = ""
    other: str = ""
    window: Tuple[int, int] = (0, 0)
    limit: float = 0.0

    @property
    def label(self):
        return f"{self.kind}:{self.solver}" if self.solver else self.kind


@dataclass(frozen=True)
class Workload:
    """One experiment config, its checks, and how its time is measured.

    ``probed`` marks experiments whose time goes to small numpy
    operations driven from Python, which the speed probe tracks; their
    times are scaled to the reference speed.  The ring's time goes to
    two-thread dense matvecs over a 32 MB matrix, which it does not.
    """

    name: str
    config: dict
    problem: dict          # generating parameters, for the checks
    checks: List[Check] = field(default_factory=list)
    scaled_exponent: dict = field(default_factory=dict)
    probed: bool = True

    @property
    def operations(self):
        """Operations per experiment: the reference, each solver entry,
        each check."""
        return 1 + len(self.config["solvers"]) + len(self.checks)


def _cd(eta):
    return {"rule": "cd", "alpha": 10.0, "eta": eta}


def _qp(seed, reduced):
    iters = 600 if reduced else 2000
    n, m = (20, 4) if reduced else (50, 10)
    solvers = [
        {"name": "nesterov-explicit", "method": "aalm", "case": "explicit",
         "schedule": {"rule": "nesterov"}},
        {"name": "cd10-noncritical-explicit", "method": "aalm",
         "case": "explicit", "schedule": _cd("noncritical")},
        {"name": "cd10-critical-implicit", "method": "aalm",
         "case": "implicit", "schedule": _cd("critical")},
        {"name": "cd10-noncritical-implicit-scaled", "method": "aalm",
         "case": "implicit", "schedule": _cd("noncritical"),
         "scaling": {"form": "t-power", "exponent": 0.5}},
        {"name": "vanilla-explicit", "method": "vanilla",
         "case": "explicit"},
    ]
    problem = {"builtin": "qp", "n": n, "m": m, "seed": seed}
    slope_w = (iters // 20, iters // 2)
    wit_w = (iters // 10, iters)
    accel = [s["name"] for s in solvers if s["method"] == "aalm"]
    checks = ([Check("reference")]
              + [Check("energy", s) for s in accel]
              + [Check("slope", "nesterov-explicit", window=slope_w,
                       limit=-1.9),
                 Check("slope", "cd10-noncritical-explicit",
                       window=slope_w, limit=-1.9),
                 Check("littleo", "cd10-noncritical-explicit",
                       window=wit_w, limit=0.1),
                 Check("scaled", "cd10-noncritical-implicit-scaled",
                       window=(1, iters // 10), limit=10.0)])
    return Workload(
        name="qp-sweep",
        config={"problem": problem, "iterations": iters, "seed": seed,
                "solvers": solvers},
        problem=problem, checks=checks,
        scaled_exponent={"cd10-noncritical-implicit-scaled": 0.5})


def _ring(seed, reduced):
    # The instance is the shipped one (seed 0) whatever the run seed.
    iters = 150 if reduced else 300
    p_agents, m_dim = (10, 20) if reduced else (10, 200)
    problem = {"builtin": "ring-logistic", "p_agents": p_agents,
               "m_dim": m_dim, "rho_reg": 0.5, "seed": 0}
    solvers = [
        {"name": "cd10-noncritical", "method": "aalm", "case": "explicit",
         "schedule": _cd("noncritical"), "delta": 10.0, "use_eig": True},
        {"name": "vanilla", "method": "vanilla", "case": "explicit"},
    ]
    checks = [Check("reference"), Check("energy", "cd10-noncritical"),
              Check("beats", "cd10-noncritical", other="vanilla",
                    limit=0.1)]
    return Workload(
        name="ring-consensus",
        config={"problem": problem, "iterations": iters, "seed": seed,
                "solvers": solvers},
        problem=problem, checks=checks, probed=False)


def _lp(seed, reduced):
    # The instance is the acceptance suite's c9 instance (seed 0).
    iters = 300 if reduced else 1000
    problem = {"builtin": "lp-regression", "d": 30, "n": 20, "p": 1.5,
               "n_constraints": 1, "seed": 0}
    solvers = [
        {"name": "nesterov", "method": "aalm", "case": "implicit",
         "schedule": {"rule": "nesterov"}},
        {"name": "cd10-critical", "method": "aalm", "case": "implicit",
         "schedule": _cd("critical")},
        {"name": "ac10", "method": "aalm", "case": "implicit",
         "schedule": {"rule": "ac", "alpha": 10.0}},
        {"name": "vanilla", "method": "vanilla", "case": "implicit"},
    ]
    accel = ["nesterov", "cd10-critical", "ac10"]
    checks = ([Check("reference")]
              + [Check("energy", s) for s in accel]
              + [Check("slope", "nesterov", window=(iters // 10, iters),
                       limit=-1.9)])
    return Workload(
        name="lp-implicit",
        config={"problem": problem, "iterations": iters, "seed": seed,
                "solvers": solvers},
        problem=problem, checks=checks)


def build(name, seed, reduced=False):
    """The :class:`Workload` ``name`` for ``seed``."""
    makers = {"qp-sweep": _qp, "ring-consensus": _ring, "lp-implicit": _lp}
    if name not in makers:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    return makers[name](seed, reduced)
