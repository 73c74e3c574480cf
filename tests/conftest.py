"""Shared fixtures: the seeded QP testbed and its closed-form reference,
and an observer of the inner Newton solves; and the subproblem objective
``F`` and its gradient, written out literally."""

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


def F_ref(spec, instance, x):
    """The subproblem objective of :mod:`aalm.subsolver`, term by term,
    for a spec with an implicit part and no gradient anchor:
    ``f(x) + (beta/2)||Ax - b||^2 + (1/(2 gamma))||x - xbar||^2
    + <p, Ax - b> + (delta/2)||c Ax - r||^2``."""
    assert spec.gradient_anchor is None
    Ax, b, d = instance.A @ x, instance.b, x - spec.xbar_k
    return (spec.implicit.value(x)
            + 0.5 * spec.beta * float((Ax - b) @ (Ax - b))
            + 0.5 / spec.gamma * float(d @ d) + float(spec.p_k @ (Ax - b))
            + 0.5 * spec.delta * float((spec.c_k * Ax - spec.r_k)
                                       @ (spec.c_k * Ax - spec.r_k)))


def grad_F_ref(spec, instance, x):
    """The gradient of :func:`F_ref`, term by term."""
    assert spec.gradient_anchor is None
    Ax, b = instance.A @ x, instance.b
    return (spec.implicit.gradient(x) + (x - spec.xbar_k) / spec.gamma
            + instance.At @ (spec.beta * (Ax - b) + spec.p_k
                             + spec.delta * spec.c_k
                             * (spec.c_k * Ax - spec.r_k)))


class InnerSolve(NamedTuple):
    """One inner Newton solve as seen from outside: the tolerance it was
    given, the subproblem gradient norm recomputed at the point it
    returned, and its Newton steps.  A step is counted by the implicit
    part's gradient, which the solve evaluates once at each point it
    accepts (and at its start when it is not handed ``grad0``), whichever
    way it solves its Newton systems."""

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

    def observed(spec, instance, x0, tol, system, f0=None, grad0=None,
                 Ax0=None):
        calls = 0
        gradient = spec.implicit.gradient

        def counted(x):
            nonlocal calls
            calls += 1
            return gradient(x)

        x, Ax, f_x, grad_x = solve(
            replace(spec, implicit=replace(spec.implicit, gradient=counted)),
            instance, x0, tol, system, f0, grad0, Ax0)
        g = grad_F_ref(spec, instance, x)
        steps = calls - (grad0 is None)
        solves.append(InnerSolve(tol, math.sqrt(g @ g), steps))
        return x, Ax, f_x, grad_x

    monkeypatch.setattr(subsolver, "solve_inner_newton", observed)
    return solves
