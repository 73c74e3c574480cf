"""Accelerated augmented Lagrangian methods for ``min f(x) s.t. Ax = b``.

The package couples a momentum schedule ``t_k`` with corrected dual
updates so that feasibility and objective residuals decay at ``O(1/t_k^2)``
-- certified at runtime by a monotone Lyapunov energy -- with little-o
refinements away from the critical damping.  See :mod:`aalm.solver` for
the iteration, :mod:`aalm.diagnostics` for the certificates, and
:mod:`aalm.harness` for the benchmark front end.
"""

__version__ = "0.1.0"

from .diagnostics import (RateEstimate, TraceRecord, fit_rate, gap,
                          littleo_witness, stationarity)
from .oracle import (ReferenceNotConverged, brute_step_oracle,
                     cached_reference, kkt_refine, kkt_solve_qp)
from .problems import (GramEigenbasis, KKTPoint, ObjectiveOracle,
                       ProblemInstance, check_gradient, make_lp_regression,
                       make_qp, make_random_lp, make_random_qp,
                       make_ring_logistic)
from .schedule import (Schedule, ScheduleError, attouch_cabot, certify_rho,
                       chambolle_dossal, coefficients, custom_schedule,
                       generate, generate_scaled, nesterov, resolve,
                       resolve_eta)
from .solver import (IterateState, SolverConfig, StoppingRule, extrapolate,
                     resolve_config, run, step, step_coupled)
from .subsolver import (MaxInnerIterations, SubproblemSpec, multiplier_update,
                        solve_inner_newton, solve_linear_case, step_plan)

__all__ = [
    "GramEigenbasis", "IterateState", "KKTPoint",
    "MaxInnerIterations",
    "ObjectiveOracle", "ProblemInstance", "RateEstimate",
    "ReferenceNotConverged", "Schedule", "ScheduleError", "SolverConfig",
    "StoppingRule", "SubproblemSpec", "TraceRecord",
    "attouch_cabot", "brute_step_oracle", "cached_reference", "certify_rho",
    "chambolle_dossal", "check_gradient", "coefficients", "custom_schedule",
    "extrapolate", "fit_rate", "gap",
    "generate", "generate_scaled", "kkt_refine", "kkt_solve_qp",
    "littleo_witness", "make_lp_regression", "make_qp", "make_random_lp",
    "make_random_qp", "make_ring_logistic", "multiplier_update", "nesterov",
    "resolve", "resolve_config", "resolve_eta", "run", "solve_inner_newton",
    "solve_linear_case", "stationarity", "step", "step_coupled", "step_plan",
]
