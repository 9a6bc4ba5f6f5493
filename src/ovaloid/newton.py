"""The damped Newton loop that the Monge-Ampere and Minkowski solvers share.

Each solver passes its Newton step, its evaluation and its admissibility
test as callbacks; the step control and the repair of a start live here,
and so does the sparse solve that their steps and the flex equation share.
"""

from __future__ import annotations

from typing import Any, NamedTuple

import numpy as np
from scipy.sparse.linalg import splu


class NewtonRun(NamedTuple):
    x: np.ndarray
    state: Any           # what ``evaluate`` gave for x
    history: list        # residual at the start and after each accepted step
    steps: int           # accepted steps
    backtracks: int      # rejected trials, each followed by a halving
    failure: str | None  # why the loop stopped above tol, or None


def damped_newton(x, state, residual, step, evaluate, tol, max_iter, admissible):
    """Damped Newton steps from the evaluated start (x, state, residual).

    ``step(x, state, residual)`` is the full step; ``evaluate(x, residual)``
    is (state, residual) at a trial, or None when the trial has none, and an
    inexact evaluation should outpace the current residual it is passed.
    The full step is halved, up to 30 times, until a trial is
    ``admissible(state)`` with a residual below ``residual * (1 - 0.1 *
    alpha)``, alpha the step's fraction.  The loop stops at ``residual <=
    tol``, or fails after ``max_iter`` accepted steps, at a non-finite step
    or after 30 rejected trials.
    """
    history = [residual]
    steps = backtracks = 0
    failure = None
    while residual > tol:
        if steps == max_iter:
            failure = f"residual {residual} after {max_iter} Newton steps"
            break
        delta = step(x, state, residual)
        if not np.isfinite(delta).all():
            failure = f"non-finite Newton step at residual {residual}"
            break
        alpha = 1.0
        for _ in range(30):
            trial = x + alpha * delta
            got = evaluate(trial, residual)
            if (got is not None and admissible(got[0])
                    and got[1] < residual * (1 - 0.1 * alpha)):
                break
            alpha *= 0.5
            backtracks += 1
        else:
            failure = f"no damped Newton step lowers the residual {residual}"
            break
        x, (state, residual) = trial, got
        steps += 1
        history.append(residual)
    return NewtonRun(x, state, history, steps, backtracks, failure)


def sparse_solve(a, b):
    """x with a @ x = b for a square CSC matrix a, from one SuperLU factor;
    all NaN when SuperLU finds a exactly singular.

    The matrices solved here are structurally symmetric: Laplacian-like
    Newton Jacobians and the 9-point flex stencil of grids too anisotropic
    for ``rigidity_lab.solve_defo``'s Krylov path.  Minimum degree on
    A^T + A with one-column supernodes (``relax`` and ``panel_size`` 1)
    fills in and runs less on them than the default COLAMD; minimum degree
    with the default supernodes is several times slower than either.
    """
    try:
        lu = splu(a, permc_spec="MMD_AT_PLUS_A", relax=1, panel_size=1)
    except RuntimeError:  # exactly singular
        return np.full(a.shape[0], np.nan)
    return lu.solve(b)


def blend_start(start, init, alive):
    """(x, alive(x)) for the first x of init and its 29 halvings toward
    start at which ``alive`` gives a state; (start, None) when none does."""
    x = init
    for _ in range(30):
        state = alive(x)
        if state is not None:
            return x, state
        x = start + 0.5 * (x - start)
    return start, None
