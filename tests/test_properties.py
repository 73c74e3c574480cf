"""Property-based differential net around the step.

``step`` (the sequential update with its linear solve) is checked against
``step_coupled`` (the joint primal-dual system, an independent arithmetic
path) on drawn full-rank instances: small random QPs whose ``Q`` has any
rank, under every named schedule, either case, scaled stepsizes on the
implicit CD and AC schedules, drawn penalties and starting points.  Two
deterministic teeth tests plant a perturbation of the linear solve's
result and a sign error in the dual update, and check that the net's
bound catches each on every draw.

Rank-deficient ``A`` is not drawn: there ``step`` drifts from
``step_coupled`` by the ``c_k^2`` cancellation of the step, which a
rewrite of the step for its increment is to remove.
"""

import warnings
from dataclasses import replace
from typing import NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aalm import (SolverConfig, attouch_cabot, chambolle_dossal, make_qp,
                  nesterov, resolve_config, solver, step, step_coupled,
                  step_plan)
from aalm.solver import initial_state

# Hypothesis's pytest plugin imports its source-patching module, and with
# it libcst, when a property fails; libcst's DeprecationWarning would then
# be an error under the suite's filterwarnings and end the session before
# the falsifying example is printed.  Importing it here once, with that
# warning ignored, leaves the plugin nothing to import.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

#: Steps of each drawn run, and the bound on the relative deviation of
#: ``z = (x, lam)`` from the coupled path at every step.
STEPS = 40
BOUND = 1e-10

#: 20 draws for each rule, 60 in all, the same on every run.
PROFILE = settings(max_examples=20, derandomize=True, database=None,
                   deadline=None)

RULES = {"cd": lambda eta: chambolle_dossal(10.0, eta=eta),
         "ac": lambda eta: attouch_cabot(10.0, eta=eta),
         "nesterov": lambda eta: nesterov(eta=eta)}

class Draw(NamedTuple):
    """One drawn run: sizes, the rank of ``Q``, the schedule, the case,
    the exponent of ``xi = t^e`` (None: no scaling), the penalties and
    the seed of the Gaussian data."""

    n: int
    m: int
    rank: int
    rule: str
    eta: str
    case: str
    exponent: Optional[float]
    beta: float
    delta: float
    seed: int


@st.composite
def draws(draw, rule):
    """A :class:`Draw` of ``rule``.  Only implicit CD and AC runs are
    scaled: an explicit step takes no scaling, and a scaled Nesterov
    schedule fails certification by design."""
    n = draw(st.integers(1, 8))
    case = draw(st.sampled_from(["implicit", "explicit"]))
    scaled = (case == "implicit" and rule != "nesterov"
              and draw(st.booleans()))
    beta = draw(st.floats(0.5, 2.0))
    return Draw(
        n=n, m=draw(st.integers(1, min(4, n))),
        rank=draw(st.integers(0, n)), rule=rule,
        eta=draw(st.sampled_from(["critical", "noncritical"])), case=case,
        exponent=draw(st.floats(0.0, 1.0)) if scaled else None,
        beta=beta, delta=beta * draw(st.floats(0.05, 1.0)),
        seed=draw(st.integers(0, 2 ** 32 - 1)))


def deviation(d):
    """The largest ``||z - z_coupled|| / max(1, ||z||)`` over ``STEPS``
    steps of ``step`` and of ``step_coupled`` from the draw's start."""
    rng = np.random.default_rng(d.seed)
    B = rng.normal(size=(d.rank, d.n))
    inst = make_qp(B.T @ B / max(d.rank, 1), rng.normal(size=d.n),
                   rng.normal(size=(d.m, d.n)), rng.normal(size=d.m))
    schedule = RULES[d.rule](d.eta)
    if d.exponent is not None:
        schedule = replace(schedule, xi=lambda t: t ** d.exponent)
    cfg = resolve_config(inst, SolverConfig(
        schedule=schedule, case=d.case, beta=d.beta, delta=d.delta,
        max_iter=STEPS))
    x0, lam0 = rng.normal(size=d.n), rng.normal(size=d.m)
    seq = initial_state(inst, cfg, x0, lam0)
    coup = initial_state(inst, cfg, x0, lam0)
    plan = step_plan(inst, cfg.case)
    worst = 0.0
    for _ in range(STEPS):
        seq = step(seq, cfg, inst, plan)
        coup = step_coupled(coup, cfg, inst)
        z = np.concatenate([seq.x_curr, seq.lam_curr])
        dz = z - np.concatenate([coup.x_curr, coup.lam_curr])
        worst = max(worst, np.linalg.norm(dz) / max(1.0, np.linalg.norm(z)))
    return worst


@pytest.mark.parametrize("rule", sorted(RULES))
@PROFILE
@given(data=st.data())
def test_step_matches_step_coupled(rule, data):
    """Over ``STEPS`` steps, ``step`` stays within ``BOUND`` of
    ``step_coupled``, relative to ``max(1, ||z||)``."""
    d = data.draw(draws(rule))
    assert deviation(d) <= BOUND


@pytest.mark.parametrize("rule", sorted(RULES))
@PROFILE
@given(data=st.data())
def test_perturbed_linear_solve_is_caught(rule, data):
    """A relative perturbation of 1e-8 in the linear solve's result (the
    name ``step`` calls) breaks the bound on every draw."""
    d = data.draw(draws(rule))
    solve = solver.solve_linear_case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "solve_linear_case",
                   lambda *args: solve(*args) * (1.0 + 1e-8))
        assert deviation(d) > BOUND


@pytest.mark.parametrize("rule", sorted(RULES))
@PROFILE
@given(data=st.data())
def test_flipped_dual_update_is_caught(rule, data):
    """A dual update that subtracts its increment breaks the bound on
    every draw."""
    d = data.draw(draws(rule))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "multiplier_update",
                   lambda lbar, delta, c_k, Ax, r_k:
                   lbar - delta * (c_k * Ax - r_k))
        assert deviation(d) > BOUND
