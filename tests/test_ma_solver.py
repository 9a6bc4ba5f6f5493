import dataclasses
import warnings

import numpy as np
import pytest
from scipy import sparse

from conftest import grid_problem
from oracles import cell_masses, lower_envelope_evaluator, masses_from_density
from ovaloid import ma_solver as ma
from ovaloid import planar
from ovaloid.errors import (
    DuplicateNodes, Infeasible, IncomparableProblems, MalformedMAProblem,
    MaxIterExceeded,
)


def random_forward_instance(seed, n_side=6, extent=6.0):
    """Random PL convex values on a uniform grid plus their exact masses."""
    rng = np.random.default_rng(seed)
    problem = grid_problem(n_side, extent)
    interior = problem.interior_nodes
    boundary = problem.boundary_nodes
    cx, cy = rng.uniform(0.4, 0.6, 2) * extent
    ax, ay = rng.uniform(0.2, 0.45, 2)
    base = lambda p: ax * (p[:, 0] - cx) ** 2 + ay * (p[:, 1] - cy) ** 2
    v_int = base(interior) + rng.normal(0, 0.03, len(interior))
    v_bnd = base(boundary)
    nodes = np.vstack([interior, boundary])
    values = np.concatenate([v_int, v_bnd])
    mu = cell_masses(nodes, values, np.arange(len(interior)), None)
    assert mu.min() > 1e-4, "degenerate forward instance"
    problem = ma.MAProblem(
        domain=problem.domain, interior_nodes=interior, masses=mu,
        boundary_nodes=boundary, boundary_values=v_bnd,
    )
    return problem, v_int


def test_cone_recovered_from_mass():
    dom = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], float)
    problem = ma.MAProblem(
        domain=dom,
        interior_nodes=np.array([[0.0, 0.0]]),
        masses=np.array([2.0]),
        boundary_nodes=dom,
        boundary_values=np.ones(4),
    )
    u = ma.solve_ma(problem, tol=1e-12)
    assert abs(u.values[0] - 0.0) < 1e-10


def test_forward_inverse_roundtrip():
    for seed in (0, 1):
        problem, v_int = random_forward_instance(seed, n_side=6)
        u = ma.solve_ma(problem, tol=1e-11)
        err = np.abs(u.values[: len(v_int)] - v_int).max()
        assert err < 1e-7, err


def test_residual_history_monotone():
    problem, _ = random_forward_instance(5)
    u = ma.solve_ma(problem, tol=1e-11)
    hist = u.solve_info["residual_history"]
    assert all(hist[k + 1] <= hist[k] + 1e-9 for k in range(len(hist) - 1))
    assert u.solve_info["final_residual"] <= 1e-11


def test_infeasible_masses_detected():
    theta = lambda p1, p2, z, x1, x2: np.exp(-(p1**2 + p2**2))
    problem = grid_problem(3, 3.0, theta=theta, mass_bound=np.pi)
    problem.masses[:] = np.pi / len(problem.masses) * 1.001
    with pytest.raises(Infeasible):
        ma.solve_ma(problem)


def test_feasible_weighted_solve():
    theta = lambda p1, p2, z, x1, x2: np.exp(-(p1**2 + p2**2))
    problem = grid_problem(3, 3.0, theta=theta, mass_bound=np.pi)
    problem.masses[:] = 0.5 * np.pi / len(problem.masses)
    u = ma.solve_ma(problem, tol=1e-8)
    assert u.solve_info["final_residual"] <= 1e-8


def test_unweighted_big_masses_still_solvable():
    # with theta == 1 the attainable mass is unbounded: scaling the targets
    # by 4 deepens the solution instead of failing
    problem, v_int = random_forward_instance(2, n_side=4)
    problem.masses = problem.masses * 4.0
    u = ma.solve_ma(problem, tol=1e-10)
    assert u.solve_info["final_residual"] <= 1e-10
    assert (u.values[: len(v_int)] <= v_int + 1e-12).all()


def test_maximum_principle_identical_and_shift():
    problem, _ = random_forward_instance(7, n_side=4)
    u1 = ma.solve_ma(problem, tol=1e-11)
    u2 = ma.solve_ma(problem, tol=1e-11)
    rep = ma.maximum_principle_check(u1, u2, problem, problem)
    assert rep.ok and abs(rep.max_gap) < 1e-9

    shifted = ma.MAProblem(
        domain=problem.domain, interior_nodes=problem.interior_nodes,
        masses=problem.masses, boundary_nodes=problem.boundary_nodes,
        boundary_values=problem.boundary_values + 0.5,
    )
    u3 = ma.solve_ma(shifted, tol=1e-11)
    rep2 = ma.maximum_principle_check(u1, u3, problem, shifted)
    assert rep2.ok
    np.testing.assert_allclose(u3.values, u1.values + 0.5, atol=1e-9)


def test_maximum_principle_mass_ordering():
    for seed in (3, 4, 5):
        problem, _ = random_forward_instance(seed, n_side=4)
        heavier = ma.MAProblem(
            domain=problem.domain, interior_nodes=problem.interior_nodes,
            masses=2.0 * problem.masses, boundary_nodes=problem.boundary_nodes,
            boundary_values=problem.boundary_values,
        )
        u1 = ma.solve_ma(heavier, tol=1e-10)
        u2 = ma.solve_ma(problem, tol=1e-10)
        rep = ma.maximum_principle_check(u1, u2, heavier, problem)
        assert rep.ok, rep.violations


def test_incomparable_problems_rejected():
    problem, _ = random_forward_instance(9, n_side=4)
    u = ma.solve_ma(problem, tol=1e-9)
    other = ma.MAProblem(
        domain=problem.domain, interior_nodes=problem.interior_nodes,
        masses=problem.masses * 0.5, boundary_nodes=problem.boundary_nodes,
        boundary_values=problem.boundary_values,
    )
    with pytest.raises(IncomparableProblems):
        ma.maximum_principle_check(u, u, other, problem)


def test_uniqueness_under_restarts():
    problem, _ = random_forward_instance(11, n_side=4)
    rng = np.random.default_rng(0)
    u0 = ma.solve_ma(problem, tol=1e-11)
    for _ in range(3):
        init = rng.uniform(-4.0, 0.5, len(problem.interior_nodes))
        u1 = ma.solve_ma(problem, tol=1e-11, init_values=init)
        assert np.abs(u1.values - u0.values).max() < 1e-8


def test_z_decreasing_weight_uniqueness():
    # theta strictly decreasing in z: a solve from a start above the
    # solution lands on the same values
    theta = lambda p1, p2, z, x1, x2: np.exp(-0.3 * z) * np.exp(-(p1**2 + p2**2))
    problem = grid_problem(3, 3.0, theta=theta, theta_z_dependent=True)
    problem.masses[:] = 0.3
    u0 = ma.solve_ma(problem, tol=1e-8, max_iter=80)
    assert u0.solve_info["final_residual"] <= 1e-8
    rng = np.random.default_rng(1)
    init = u0.values[: len(problem.interior_nodes)] + rng.uniform(
        0.05, 0.3, len(problem.interior_nodes)
    )
    u1 = ma.solve_ma(problem, tol=1e-8, max_iter=80, init_values=init)
    assert np.abs(u1.values - u0.values).max() < 1e-6


def test_masses_from_density():
    problem = grid_problem(4, 4.0)
    # constant density: interior masses are the Voronoi cell areas (h^2 for
    # a uniform grid) and a pure-quadratic solve reproduces the paraboloid
    phi = lambda pts: np.full(len(pts), 2.0)
    mu = masses_from_density(
        problem.domain, problem.interior_nodes, problem.boundary_nodes, phi
    )
    np.testing.assert_allclose(mu, 2.0, atol=1e-12)  # h = 1 grid cells
    # a linear density integrates exactly as well (degree-5 quadrature)
    phi2 = lambda pts: 1.0 + pts[:, 0]
    mu2 = masses_from_density(
        problem.domain, problem.interior_nodes, problem.boundary_nodes, phi2
    )
    np.testing.assert_allclose(
        mu2, 1.0 + problem.interior_nodes[:, 0], atol=1e-12
    )


def test_weighted_solve_with_curved_boundary_data():
    # on the lower envelope of curved boundary data some cells are zero-area
    # polygons under the quadrature; the weight with and without z recovers
    # the generating values
    gauss = lambda p1, p2, z, x1, x2: np.exp(-(p1**2 + p2**2))
    gauss_z = lambda p1, p2, z, x1, x2: np.exp(-0.3 * z) * gauss(p1, p2, z, x1, x2)
    shape = lambda p: 0.175 * (p[:, 0] - 1.5) ** 2 + 0.15 * (p[:, 1] - 1.5) ** 2
    grid = grid_problem(4, 3.0, boundary_fn=shape)
    nodes = grid.all_nodes()
    n = len(grid.interior_nodes)
    for theta, z_dependent, bound in ((gauss, False, np.pi), (gauss_z, True, None)):
        window = planar.box_polygon(0.0, 0.0, ma._theta_window(theta))
        mu = cell_masses(nodes, shape(nodes), np.arange(n), theta, 1e-12, window)
        problem = ma.MAProblem(
            domain=grid.domain, interior_nodes=grid.interior_nodes, masses=mu,
            boundary_nodes=grid.boundary_nodes,
            boundary_values=grid.boundary_values, theta=theta,
            theta_z_dependent=z_dependent, mass_bound=bound,
        )
        u = ma.solve_ma(problem, tol=1e-8)
        assert np.abs(u.values[:n] - shape(grid.interior_nodes)).max() < 1e-9


def test_solver_validates_problem():
    problem, _ = random_forward_instance(1, n_side=4)
    problem.masses = problem.masses.copy()
    problem.masses[0] = -1.0
    with pytest.raises(ValueError):
        ma.solve_ma(problem)



def test_invalid_problems_raise_named_errors():
    problem, _ = random_forward_instance(1, n_side=4)
    b = problem.boundary_nodes
    malformed = [
        dataclasses.replace(problem, masses=-problem.masses),
        dataclasses.replace(problem, masses=problem.masses[1:]),
        dataclasses.replace(problem, boundary_nodes=np.outer(b @ [1.0, 0.1], [1.0, 0.0])),
        dataclasses.replace(problem, mass_bound=-1.0),
        dataclasses.replace(problem, theta=lambda p1, p2, z, x1, x2: -np.ones_like(p1)),
    ]
    for bad in malformed:
        with pytest.raises(MalformedMAProblem):
            ma.solve_ma(bad)
    twin = problem.interior_nodes.copy()
    twin[1] = twin[0]
    with pytest.raises(DuplicateNodes):
        dataclasses.replace(problem, interior_nodes=twin).validate()
    # callers that catch ValueError still do
    assert issubclass(MalformedMAProblem, ValueError)
    assert issubclass(DuplicateNodes, ValueError)


def test_domain_with_a_repeated_vertex_validates_without_warnings():
    # a zero-length domain edge once divided 0 by 0 in the boundary test
    problem, _ = random_forward_instance(2, n_side=4, extent=4.0)
    d = problem.domain
    doubled = dataclasses.replace(problem, domain=np.vstack([d[:2], d[1:]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert doubled.validate() is doubled
        on_b = planar.on_polygon_boundary(doubled.domain, doubled.all_nodes())
    n = len(doubled.interior_nodes)
    assert not on_b[:n].any() and on_b[n:].all()
    # the corner at the repeated vertex is on the boundary, a node just
    # inside it is not
    assert planar.on_polygon_boundary(doubled.domain, [d[1], d[1] + [-0.1, 0.1]]).tolist() \
        == [True, False]


def _fd_jacobian(nodes, values, n, theta, window, h, rel_tol):
    """Central differences of the interior masses in each interior value."""
    idx = np.arange(n)
    cols = []
    for j in range(n):
        up, down = values.copy(), values.copy()
        up[j] += h
        down[j] -= h
        cols.append((cell_masses(nodes, up, idx, theta, rel_tol, window)
                     - cell_masses(nodes, down, idx, theta, rel_tol, window))
                    / (2 * h))
    return np.column_stack(cols)


def _sparse_jacobian(nodes, values, n, theta, window, z_dependent=False):
    idx = np.arange(n)
    cells = ma._cells(nodes, values, idx, window)
    jac = ma._mass_jacobian(nodes, values, idx, cells, theta).toarray()
    if z_dependent:
        jac += np.diag(ma._theta_z_masses(nodes, values, idx, cells, theta, 1e-13))
    return jac


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sparse_jacobian_matches_finite_differences(seed):
    problem, v_int = random_forward_instance(seed, n_side=5)
    nodes = problem.all_nodes()
    n = len(v_int)
    values = np.concatenate([v_int, problem.boundary_values])
    jac = _sparse_jacobian(nodes, values, n, None, None)
    fd = _fd_jacobian(nodes, values, n, None, None, 1e-6, 1e-6)
    assert np.abs(jac - fd).max() <= 1e-8 * np.abs(fd).max()
    # Laplacian structure: lower-hull neighbours only, rows sum to minus
    # the flux into the boundary
    assert (np.diag(jac) < 0).all()
    off = jac - np.diag(np.diag(jac))
    assert (off >= 0).all() and (jac.sum(axis=1) <= 1e-12).all()


def test_sparse_jacobian_matches_finite_differences_weighted():
    theta = lambda p1, p2, z, x1, x2: np.exp(-(p1**2 + p2**2))
    grid = grid_problem(4, 3.0)
    nodes = grid.all_nodes()
    n = len(grid.interior_nodes)
    rng = np.random.default_rng(4)
    values = 0.175 * (nodes[:, 0] - 1.5) ** 2 + 0.15 * (nodes[:, 1] - 1.5) ** 2
    values[:n] += rng.normal(0, 0.01, n)
    window = planar.box_polygon(0.0, 0.0, ma._theta_window(theta))
    jac = _sparse_jacobian(nodes, values, n, theta, window)
    fd = _fd_jacobian(nodes, values, n, theta, window, 1e-5, 1e-13)
    assert np.abs(jac - fd).max() <= 1e-8 * np.abs(fd).max()


def test_sparse_jacobian_matches_finite_differences_z_dependent():
    # theta is taken at each node's own value, so the diagonal also carries
    # the integral of d theta / dz over the node's cell
    theta = lambda p1, p2, z, x1, x2: np.exp(-0.3 * z) * np.exp(-(p1**2 + p2**2))
    grid = grid_problem(4, 3.0)
    nodes = grid.all_nodes()
    n = len(grid.interior_nodes)
    rng = np.random.default_rng(4)
    values = 0.175 * (nodes[:, 0] - 1.5) ** 2 + 0.15 * (nodes[:, 1] - 1.5) ** 2
    values[:n] += rng.normal(0, 0.01, n)
    window = planar.box_polygon(0.0, 0.0, ma._theta_window(theta))
    jac = _sparse_jacobian(nodes, values, n, theta, window, z_dependent=True)
    fd = _fd_jacobian(nodes, values, n, theta, window, 1e-5, 1e-13)
    assert np.abs(jac - fd).max() <= 1e-8 * np.abs(fd).max()
    # without the theta_z term the diagonal is visibly off
    laplacian = _sparse_jacobian(nodes, values, n, theta, window)
    assert np.abs(laplacian - fd).max() > 1e-3 * np.abs(fd).max()


def _z_dependent_problem():
    theta = lambda p1, p2, z, x1, x2: np.exp(-0.3 * z) * np.exp(-(p1**2 + p2**2))
    problem = grid_problem(3, 3.0, theta=theta, theta_z_dependent=True)
    problem.masses[:] = 0.3
    return problem


def test_z_dependent_solves_take_no_sweeps():
    u = ma.solve_ma(_z_dependent_problem(), tol=1e-8)
    info = u.solve_info
    assert info["final_residual"] <= 1e-8
    assert info["sweeps"] == info["newton_iters"] > 0
    # with the theta_z diagonal the steps converge quadratically; without
    # it this solve takes 8 linearly converging steps
    assert info["newton_iters"] <= 4


def test_z_independent_solves_take_no_sweeps():
    theta = lambda p1, p2, z, x1, x2: np.exp(-(p1**2 + p2**2))
    weighted = grid_problem(4, 3.0, theta=theta, mass_bound=np.pi)
    weighted.masses[:] = 0.5 * np.pi / len(weighted.masses)
    for problem in (random_forward_instance(3)[0], weighted):
        u = ma.solve_ma(problem, tol=1e-10)
        info = u.solve_info
        assert info["final_residual"] <= 1e-10
        assert info["sweeps"] == info["newton_iters"] > 0


def test_given_start_with_nonempty_cells_is_used_unchanged():
    problem, v_int = random_forward_instance(4)
    nodes = problem.all_nodes()
    n = len(v_int)
    init = v_int + np.random.default_rng(2).normal(0, 0.01, n)
    masses = cell_masses(nodes, np.concatenate([init, problem.boundary_values]),
                         np.arange(n), None)
    assert masses.min() > 0
    want = np.max(np.abs(masses - problem.masses) / problem.masses)
    u = ma.solve_ma(problem, tol=1e-10, init_values=init)
    assert u.solve_info["residual_history"][0] == pytest.approx(want, rel=1e-12)
    assert u.solve_info["final_residual"] <= 1e-10


def test_unweighted_newton_solve_clips_nothing(monkeypatch):
    # every interior cell is read off a closed fan of lower-hull facets
    calls = []
    clip = ma._Cells.clip

    def counted(*args, **kwargs):
        calls.append(1)
        return clip(*args, **kwargs)

    monkeypatch.setattr(ma._Cells, "clip", counted)
    u = ma.solve_ma(random_forward_instance(2)[0], tol=1e-10)
    assert u.solve_info["final_residual"] <= 1e-10
    assert u.solve_info["newton_iters"] > 0
    assert calls == []


def _envelope_start(problem):
    """The lower envelope of the boundary data plus t (|x - c|^2 - rho^2):
    strictly convex, every cell nonempty, and far from the solution."""
    x, b = problem.interior_nodes, problem.boundary_nodes
    env = lower_envelope_evaluator(b, problem.boundary_values)(x)
    c = b.mean(axis=0)
    rho2 = np.max(np.sum((b - c) ** 2, axis=1))
    t = 0.5 * np.sqrt(problem.masses.sum() / abs(planar.polygon_area(problem.domain)))
    return env + t * (np.sum((x - c) ** 2, axis=1) - rho2)


def _assert_rejected_step_raises(monkeypatch, problem, init_values=None):
    # with a zero Jacobian no step is accepted, and the solve raises at once
    calls = []

    def zero_jacobian(nodes, values, idx, cells, theta):
        calls.append(1)
        return sparse.csc_matrix((len(idx), len(idx)))

    monkeypatch.setattr(ma, "_mass_jacobian", zero_jacobian)
    monkeypatch.setattr(ma, "_theta_z_masses", lambda *args: np.zeros(len(args[2])))
    with pytest.raises(MaxIterExceeded) as err:
        ma.solve_ma(problem, tol=1e-8, init_values=init_values)
    assert len(calls) == 1
    info = err.value.best.solve_info
    assert info["newton_iters"] == 0
    assert info["converged"] is False


def test_rejected_newton_step_raises_max_iter_exceeded(monkeypatch):
    a, extent = 0.5, 3.0
    centre = np.full(2, 0.5 * extent)
    quad = lambda p: a * np.sum((p - centre) ** 2, axis=1)
    problem = grid_problem(4, extent, boundary_fn=quad)
    nodes = problem.all_nodes()
    n = len(problem.interior_nodes)
    problem.masses[:] = cell_masses(nodes, quad(nodes), np.arange(n), None)
    # the default start is this quadratic, the solution: start elsewhere
    _assert_rejected_step_raises(monkeypatch, problem, _envelope_start(problem))


def test_z_dependent_rejected_newton_step_raises_max_iter_exceeded(monkeypatch):
    _assert_rejected_step_raises(monkeypatch, _z_dependent_problem())


@pytest.mark.parametrize("seed", range(6))
def test_strictly_convex_start_has_positive_cells(seed):
    # convex boundary data on grids of several sizes: a random quadratic
    # plus the largest of a few random planes, and data that no quadratic
    # fits: a cubic, an exponential and a cone plus a quadratic
    rng = np.random.default_rng(seed)
    planes = rng.normal(0, 1.0, (4, 3))
    a = rng.uniform(0.0, 0.5, 2)

    def convex(p):
        return (a[0] * p[:, 0] ** 2 + a[1] * p[:, 1] ** 2
                + (p @ planes[:, :2].T + planes[:, 2]).max(axis=1))

    b, w, apex = rng.uniform(0.1, 1.0, 2), rng.normal(0, 1.0, 2), rng.uniform(0, 3, 2)
    for data in (convex,
                 lambda p: (p + 1.0) ** 3 @ b,  # convex where p > -1
                 lambda p: np.exp(p @ w),
                 lambda p: np.linalg.norm(p - apex, axis=1) + 0.1 * (p ** 2) @ b):
        problem = grid_problem(3 + seed, 3.0, boundary_fn=data)
        n = len(problem.interior_nodes)
        nodes = problem.all_nodes()
        start = ma._boundary_start_values(problem)
        values = np.concatenate([start, problem.boundary_values])
        areas = cell_masses(nodes, values, np.arange(n), None)
        assert (areas > 1e-9 * problem.masses.sum()).all(), areas.min()
        # the lower envelope of the boundary data alone leaves cells empty
        env = lower_envelope_evaluator(
            problem.boundary_nodes, problem.boundary_values
        )(problem.interior_nodes)
        values[:n] = env
        assert cell_masses(nodes, values, np.arange(n), None).min() == 0.0


def test_start_on_zero_boundary_data_is_the_centred_paraboloid():
    # t (|x - c|^2 - rho^2) with 4 t^2 area the total target, as in the
    # weighted solves, whose boundary data is zero
    problem = grid_problem(7, 3.5)
    b = problem.boundary_nodes
    c = b.mean(axis=0)
    rho2 = np.max(np.sum((b - c) ** 2, axis=1))
    t = 0.5 * np.sqrt(problem.masses.sum() / 3.5 ** 2)
    want = t * (np.sum((problem.interior_nodes - c) ** 2, axis=1) - rho2)
    np.testing.assert_allclose(ma._boundary_start_values(problem), want,
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("hessian, centre", [
    ((0.5, 0.0, 0.5), (1.5, 1.5)),
    ((0.3, 0.1, 0.4), (1.2, 2.1)),
    ((1.0, -0.4, 0.6), (-1.0, 0.5)),
], ids=["round", "tilted", "off-centre"])
def test_quadratic_data_with_its_own_masses_converges_at_the_start(hessian, centre):
    (a, b, c), centre = hessian, np.asarray(centre)

    def quad(p):
        y = p - centre
        return a * y[:, 0] ** 2 + 2 * b * y[:, 0] * y[:, 1] + c * y[:, 1] ** 2

    problem = grid_problem(5, 3.0, boundary_fn=quad)
    nodes = problem.all_nodes()
    n = len(problem.interior_nodes)
    problem.masses[:] = cell_masses(nodes, quad(nodes), np.arange(n), None)
    u = ma.solve_ma(problem, tol=1e-10)
    assert u.solve_info["newton_iters"] == 0
    assert u.solve_info["converged"]
    assert np.abs(u.values[:n] - quad(problem.interior_nodes)).max() < 1e-12


@pytest.mark.parametrize("n_side", [6, 20, 49])
def test_forward_instances_take_few_steps(n_side):
    # from the boundary data's best-fitting convex quadratic; the lower
    # envelope of the boundary data took 6, 7 and 10 steps, the last with
    # 3 backtracks
    problem, v_int = random_forward_instance(0, n_side, extent=float(n_side))
    u = ma.solve_ma(problem, tol=1e-10)
    info = u.solve_info
    assert info["newton_iters"] <= 5 and info["backtracks"] == 0, info
    assert np.abs(u.values[: len(v_int)] - v_int).max() < 1e-7


def test_backtracks_count_rejected_trials(monkeypatch):
    # masses spread over three decades: some full steps are halved
    problem, _ = random_forward_instance(1, n_side=5)
    rng = np.random.default_rng(0)
    problem.masses = problem.masses * np.exp(
        rng.uniform(np.log(1e-3), 0.0, len(problem.masses)))
    calls = []
    cells = ma._cells

    def counted(*args, **kwargs):
        calls.append(1)
        return cells(*args, **kwargs)

    monkeypatch.setattr(ma, "_cells", counted)
    # from the default start this solve takes no backtrack
    u = ma.solve_ma(problem, tol=1e-11, init_values=_envelope_start(problem))
    info = u.solve_info
    assert info["final_residual"] <= 1e-11
    assert info["backtracks"] > 0
    # one evaluation of the start, then one per accepted or rejected trial
    assert len(calls) == 1 + info["newton_iters"] + info["backtracks"]


# ---------------------------------------------------------------------------
# the lower hull carried from one evaluation to the next


def _zero_boundary_weighted_grid(n_side):
    """A weighted grid with zero boundary data and uneven masses.  The
    lifted nodes of each side are collinear, so no lower-hull facet uses
    the middle ones."""
    theta = lambda p1, p2, z, x1, x2: np.exp(-(p1**2 + p2**2))
    problem = grid_problem(
        n_side, 3.0, mass_fn=lambda x: 1.0 + 0.5 * np.sin(x[:, 0] + 2.0 * x[:, 1]),
        theta=theta, mass_bound=np.pi)
    problem.masses *= 0.5 * np.pi / problem.masses.sum()
    return problem


def _lifted(problem, interior_values):
    return problem.all_nodes(), np.concatenate([interior_values,
                                                problem.boundary_values])


def _gaps(nodes, values, topology):
    """Height of the node across each interior edge over the plane through
    the lifted vertices of the facet on this side, by a 3 x 3 solve."""
    f, w = topology.edge_across.T
    quad = np.column_stack([topology.facets[f], w])
    lift = np.concatenate([nodes[quad], np.ones(quad.shape + (1,))], axis=2)
    planes = np.linalg.solve(lift[:, :3], values[quad[:, :3], None])[..., 0]
    return values[quad[:, 3]] - np.einsum("ij,ij->i", lift[:, 3], planes)


def test_solve_info_counts_hull_builds():
    problem, _ = random_forward_instance(0, n_side=48, extent=48.0)
    info = ma.solve_ma(problem, tol=1e-10).solve_info
    evaluations = 1 + info["newton_iters"] + info["backtracks"]
    assert 1 <= info["hull_builds"] < evaluations, info


@pytest.mark.parametrize("case", ["forward0", "forward1", "forward2", "forward2209",
                                  "zero-boundary"])
def test_reused_hull_gives_the_cells_of_a_fresh_one(monkeypatch, case):
    if case == "zero-boundary":
        problem = _zero_boundary_weighted_grid(6)
    elif case == "forward2209":
        problem, _ = random_forward_instance(0, n_side=48, extent=48.0)
    else:
        problem, _ = random_forward_instance(int(case[-1]))
    cells = ma._cells
    reused = []

    def checked(nodes, values, which, clip=None, check_nodes=True, reuse=None):
        got = cells(nodes, values, which, clip, check_nodes, reuse)
        if reuse is not None and got.topology is reuse:
            fresh = cells(nodes, values, which, clip, check_nodes)
            assert np.array_equal(got.owner, fresh.owner)
            assert np.array_equal(got.label, fresh.label)
            err = np.abs(got.verts - fresh.verts).max()
            assert err <= 1e-12 * np.abs(fresh.verts).max()
            reused.append(len(reuse.unused))
        return got

    monkeypatch.setattr(ma, "_cells", checked)
    info = ma.solve_ma(problem, tol=1e-10).solve_info
    assert info["final_residual"] <= 1e-10
    evaluations = 1 + info["newton_iters"] + info["backtracks"]
    assert reused and info["hull_builds"] + len(reused) == evaluations
    if case == "zero-boundary":
        # the certificate held with the middle boundary nodes on the surface
        assert min(reused) == 4 * (6 - 1)


@pytest.mark.parametrize("seed", range(4))
def test_certificate_refuses_a_flipped_quad(seed):
    problem, v_int = random_forward_instance(seed)
    nodes, values = _lifted(problem, v_int)
    which = np.arange(len(v_int))
    hull = ma._cells(nodes, values, which).topology
    gaps = _gaps(nodes, values, hull)
    k = int(np.argmin(gaps))
    w = hull.edge_across[k, 1]
    below = values.copy()
    below[w] -= 0.99 * gaps[k]
    assert ma._still_lower(nodes, below, hull) is not None
    flipped = values.copy()
    flipped[w] -= 1.5 * gaps[k]
    assert ma._still_lower(nodes, flipped, hull) is None
    got = ma._cells(nodes, flipped, which, reuse=hull)
    assert got.topology is not hull
    # the fresh hull has the other diagonal of that one quad
    old = {tuple(sorted(f)) for f in hull.facets}
    new = {tuple(sorted(f)) for f in got.topology.facets}
    assert len(old - new) == len(new - old) == 2


def test_certificate_refuses_an_unused_node_below_the_surface():
    problem = _zero_boundary_weighted_grid(6)
    nodes, values = problem.all_nodes(), ma.solve_ma(problem, tol=1e-10).values
    which = np.arange(len(problem.interior_nodes))
    hull = ma._cells(nodes, values, which, problem.domain).topology
    assert len(hull.unused) == 4 * (6 - 1)
    assert ma._still_lower(nodes, values, hull) is not None
    lowered = values.copy()
    lowered[hull.unused[0]] -= 1e-9
    assert ma._still_lower(nodes, lowered, hull) is None
    got = ma._cells(nodes, lowered, which, problem.domain, reuse=hull)
    assert hull.unused[0] not in got.topology.unused


def test_certificate_refuses_an_interior_node_above_the_surface():
    problem, v_int = random_forward_instance(5)
    nodes, values = _lifted(problem, v_int)
    which = np.arange(len(v_int))
    hull = ma._cells(nodes, values, which).topology
    raised = values.copy()
    raised[7] += np.ptp(values)
    assert ma._still_lower(nodes, raised, hull) is None
    got = ma._cells(nodes, raised, which, reuse=hull)
    assert 7 in got.topology.unused
    assert len(got.cell(7)[0]) == 0


def _hull_cases():
    problem, v_int = random_forward_instance(3)
    yield pytest.param(*_lifted(problem, v_int), id="forward")
    # coplanar lifted quads, and unused middle boundary nodes
    problem = _zero_boundary_weighted_grid(6)
    yield pytest.param(*_lifted(problem, ma._boundary_start_values(problem)),
                       id="zero-boundary")
    rng = np.random.default_rng(4)
    nodes = rng.uniform(-1.0, 1.0, (80, 2))
    yield pytest.param(nodes, np.sum(nodes**2, axis=1) + rng.normal(0, 0.05, 80),
                       id="scattered")


@pytest.mark.parametrize("nodes, values", _hull_cases())
def test_interior_edges_are_all_paired(nodes, values):
    facets, _ = ma._lower_hull(nodes, values)
    # qhull's simplices come in either orientation; flip some more
    flip = np.random.default_rng(0).random(len(facets)) < 0.5
    facets = np.where(flip[:, None], facets[:, ::-1], facets)
    hull = ma._topology(nodes, facets, np.arange(len(nodes)))
    # Euler on a triangulated disk: h = 2 V - F - 2 boundary edges
    n_facets, used = len(facets), len(nodes) - len(hull.unused)
    boundary = 2 * used - n_facets - 2
    assert len(hull.edge_across) == (3 * n_facets - boundary) // 2
    # each row is a facet and the fourth vertex of a facet across a side
    known = {tuple(sorted(f)) for f in facets}
    for k, w in hull.edge_across:
        f = hull.facets[k].tolist()
        assert tuple(sorted(f)) in known and w not in f
        assert any(tuple(sorted(set(f) - {x} | {w})) in known for x in f)
    # and the heights over the facets' planes are those of a plane solve
    planes = ma._facet_planes(nodes, values, hull.facets)
    k, w = hull.edge_across.T
    gaps = values[w] - np.einsum("ij,ij->i", nodes[w], planes[k, :2]) - planes[k, 2]
    assert np.abs(gaps - _gaps(nodes, values, hull)).max() <= 1e-12
