"""The shared damped Newton loop on a toy system (componentwise x**3 = c),
and the sparse solve that the Newton steps and the flex equation share."""

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import spsolve

from ovaloid import core, newton, shapes
from ovaloid import ma_solver as ma
from ovaloid import minkowski_solver as mk
from test_ma_solver import random_forward_instance

C = np.array([1.0, 2.0])


def _residual(x):
    return float(np.max(np.abs(x**3 - C) / C))


def _cube_root_system(log, cannot=lambda x: False):
    """(step, evaluate) for x**3 = C that append each step and trial to log."""
    def step(x, state, res):
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = (C - x**3) / (3.0 * x**2)
        log.append(("step", x, delta, res))
        return delta

    def evaluate(x, res):
        r = None if cannot(x) else _residual(x)
        log.append(("trial", x, r))
        return None if r is None else (x, r)

    return step, evaluate


def test_full_step_first_then_halving_until_sufficient_decrease():
    # from x = 0.1 the full Newton step overshoots to about 33
    log = []
    step, evaluate = _cube_root_system(log)
    x0 = np.array([0.1, 0.1])
    run = newton.damped_newton(x0, x0, _residual(x0), step, evaluate, 1e-12, 100,
                               lambda state: True)
    assert run.failure is None
    np.testing.assert_allclose(run.x, np.cbrt(C), rtol=1e-12)
    assert run.history[-1] <= 1e-12 and run.history[0] == _residual(x0)
    assert run.steps == len(run.history) - 1
    steps = [k for k, entry in enumerate(log) if entry[0] == "step"]
    assert len(steps) == run.steps
    rejected = 0
    for k, start in enumerate(steps):
        _, x, delta, res = log[start]
        assert res == run.history[k]
        trials = log[start + 1: steps[k + 1] if k + 1 < len(steps) else len(log)]
        for j, (_, trial, r) in enumerate(trials):
            alpha = 0.5**j
            np.testing.assert_array_equal(trial, x + alpha * delta)
            accepted = r < res * (1 - 0.1 * alpha)
            assert accepted == (j == len(trials) - 1)
        assert trials[-1][2] == run.history[k + 1]
        rejected += len(trials) - 1
    assert run.backtracks == rejected > 0


def test_unevaluable_and_inadmissible_trials_are_rejected():
    # trials beyond x = 5 cannot be evaluated, and states with a component
    # above 1.5 are not admissible: both only halve the step
    log, verdicts = [], []
    step, evaluate = _cube_root_system(log, cannot=lambda x: (x > 5.0).any())

    def admissible(state):
        verdicts.append(bool((state <= 1.5).all()))
        return verdicts[-1]

    x0 = np.array([0.1, 0.1])
    run = newton.damped_newton(x0, x0, _residual(x0), step, evaluate, 1e-12, 100,
                               admissible)
    assert run.failure is None
    np.testing.assert_allclose(run.x, np.cbrt(C), rtol=1e-12)
    trials = [entry for entry in log if entry[0] == "trial"]
    assert any(r is None for _, _, r in trials)
    assert not all(verdicts)
    assert run.backtracks == len(trials) - run.steps


def test_non_finite_step_fails_at_once():
    log = []
    step, evaluate = _cube_root_system(log)
    x0 = np.array([0.0, 1.0])  # x**2 = 0 in the step's denominator
    run = newton.damped_newton(x0, "state", _residual(x0), step, evaluate, 1e-12, 100,
                               lambda state: True)
    assert run.failure == f"non-finite Newton step at residual {_residual(x0)}"
    assert run.x is x0 and run.state == "state"
    assert (run.steps, run.backtracks, run.history) == (0, 0, [_residual(x0)])
    assert [entry[0] for entry in log] == ["step"]


def test_thirty_rejected_halvings_fail():
    log = []
    step, evaluate = _cube_root_system(log)
    x0 = np.array([0.5, 0.5])
    run = newton.damped_newton(x0, x0, _residual(x0), step, evaluate, 1e-12, 100,
                               lambda state: False)
    assert run.failure == f"no damped Newton step lowers the residual {_residual(x0)}"
    assert run.x is x0 and run.steps == 0
    assert run.backtracks == 30
    assert len(log) == 31


@pytest.mark.parametrize("tol, failure", [
    (1e-3, None), (1e-12, "residual {} after 0 Newton steps")])
def test_zero_budget(tol, failure):
    log = []
    step, evaluate = _cube_root_system(log)
    x0 = np.cbrt(C) * (1 + 1e-6)
    r0 = _residual(x0)
    run = newton.damped_newton(x0, x0, r0, step, evaluate, tol, 0, lambda state: True)
    assert run.failure == (None if failure is None else failure.format(r0))
    assert (run.steps, run.backtracks, run.history) == (0, 0, [r0])
    assert log == []


def test_blend_start_halves_toward_the_start():
    start = np.zeros(2)
    seen = []

    def alive(x):
        seen.append(x)
        return "live" if np.linalg.norm(x) < 1.0 else None

    x, state = newton.blend_start(start, np.array([8.0, 0.0]), alive)
    np.testing.assert_array_equal(x, [0.5, 0.0])
    assert state == "live"
    assert [v[0] for v in seen] == [8.0, 4.0, 2.0, 1.0, 0.5]

    seen.clear()
    x, state = newton.blend_start(start, np.array([0.5, 0.0]), alive)
    assert state == "live" and len(seen) == 1

    seen.clear()
    x, state = newton.blend_start(start, np.array([8.0, 0.0]), lambda x: None)
    assert x is start and state is None


# ---------------------------------------------------------------------------
# the sparse solve, checked against scipy's spsolve (COLAMD) that it replaced


def _assert_matches_spsolve(a, b):
    want = spsolve(a, b)
    got = newton.sparse_solve(a, b)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_sparse_solve_matches_spsolve_on_ma_jacobian():
    problem, values = random_forward_instance(0, n_side=48, extent=48.0)
    nodes = problem.all_nodes()
    vals = np.concatenate([values, problem.boundary_values])
    idx = np.arange(len(values))
    assert len(idx) == 2209
    cells = ma._cells(nodes, vals, idx, None, check_nodes=False)
    jac = ma._mass_jacobian(nodes, vals, idx, cells, None)
    _assert_matches_spsolve(jac, np.random.default_rng(1).standard_normal(len(idx)))


def test_sparse_solve_matches_spsolve_on_pinned_minkowski_jacobian(monkeypatch):
    poly = shapes.random_hull(200, seed=1)
    n = poly.normals
    edges = core.dual_hull(n, poly.support_numbers, np.zeros(3)).edges
    seen, solve = [], newton.sparse_solve

    def capture(a, b):  # SuperLU sums the duplicates of a in place
        seen.append((a.copy(), b.copy()))
        return solve(a, b)

    monkeypatch.setattr(newton, "sparse_solve", capture)
    rhs = np.random.default_rng(2).standard_normal(len(n))
    mk._pinned_step(edges.jacobian(), n, rhs)
    (pinned, b), = seen
    assert pinned.shape == (len(n) - 3, len(n) - 3)
    _assert_matches_spsolve(pinned, b)


@pytest.mark.parametrize("dense", [
    np.zeros((5, 5)),
    np.where(np.arange(5) == 2, 0.0, np.eye(5) * 4.0 + 1.0),  # column 2 empty
], ids=["zero", "empty-column"])
def test_sparse_solve_of_singular_matrix_is_not_finite(dense):
    x = newton.sparse_solve(sparse.csc_matrix(dense), np.ones(5))
    assert x.shape == (5,) and not np.isfinite(x).any()
