"""Shared fixtures: the seeded QP testbed and its closed-form reference,
and an observer of the inner Newton solves."""

import math
from dataclasses import replace
from typing import NamedTuple

import pytest

from aalm import kkt_solve_qp, make_random_qp, subsolver


@pytest.fixture(scope="session")
def qp_testbed():
    """The n=50, m=10 random strongly convex QP used across the suite."""
    return make_random_qp(n=50, m=10, seed=0)


@pytest.fixture(scope="session")
def qp_reference(qp_testbed):
    """Closed-form KKT pair of the testbed from the saddle-system solve."""
    Q, q = qp_testbed.objective.quadratic
    return kkt_solve_qp(Q, q, qp_testbed.A, qp_testbed.b)


class InnerSolve(NamedTuple):
    """One inner Newton solve as seen from outside: the tolerance it was
    given, the subproblem gradient norm recomputed at the point it
    returned, and its Newton steps (calls of the subproblem's hessian)."""

    tol: float
    grad_norm: float
    steps: int


@pytest.fixture
def inner_solves(monkeypatch):
    """A list that receives an :class:`InnerSolve` for every call of
    ``aalm.subsolver.solve_inner_newton`` made during the test, in call
    order (the outer iteration ``k`` of a run's ``i``-th solve is
    ``i + 1``)."""
    solves = []
    solve = subsolver.solve_inner_newton

    def observed(spec, instance, x0, tol, AtA=None, f0=None, grad0=None,
                 Ax0=None):
        steps = 0
        hessian = spec.implicit.hessian

        def counted(x):
            nonlocal steps
            steps += 1
            return hessian(x)

        x, Ax, f_x, grad_x = solve(
            replace(spec, implicit=replace(spec.implicit, hessian=counted)),
            instance, x0, tol, AtA, f0, grad0, Ax0)
        g = subsolver.subproblem_gradient(spec, instance, x)
        solves.append(InnerSolve(tol, math.sqrt(g @ g), steps))
        return x, Ax, f_x, grad_x

    monkeypatch.setattr(subsolver, "solve_inner_newton", observed)
    return solves
