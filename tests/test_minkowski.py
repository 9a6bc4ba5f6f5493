import numpy as np
import pytest

from conftest import support_cases
from oracles import (
    half_edge_area_jacobian,
    intersect_about,
    pair_scan_area_jacobian,
    per_face_polytope_from_support,
    sphere_partition,
)
from ovaloid import core, errors, shapes
from ovaloid import minkowski_solver as mk
from ovaloid.errors import MaxIterExceeded


def test_check_closing_cube(cube):
    prob = mk.MinkowskiProblem(normals=cube.normals, target_areas=cube.areas)
    np.testing.assert_allclose(mk.check_closing(prob), 0.0, atol=1e-15)


def test_check_closing_imbalance(cube):
    areas = cube.areas.copy()
    areas[0] *= 2.0
    prob = mk.MinkowskiProblem(normals=cube.normals, target_areas=areas)
    defect = mk.check_closing(prob)
    assert abs(np.linalg.norm(defect) - 1.0) < 1e-12
    np.testing.assert_allclose(np.abs(defect / np.linalg.norm(defect)),
                               np.abs(cube.normals[0]), atol=1e-12)
    with pytest.raises(ValueError):
        prob.validate()


def test_closing_from_random_polytope():
    poly = shapes.random_hull(40, seed=3)
    prob = mk.MinkowskiProblem(normals=poly.normals, target_areas=poly.areas)
    assert np.linalg.norm(mk.check_closing(prob)) <= 1e-9


def test_cube_solution_forced_by_symmetry():
    normals = np.vstack([np.eye(3), -np.eye(3)])
    prob = mk.MinkowskiProblem(normals=normals, target_areas=np.ones(6))
    body = mk.solve_minkowski(prob, tol=1e-10)
    np.testing.assert_allclose(body.support_numbers, 0.5, atol=1e-10)
    assert abs(body.volume() - 1.0) < 1e-9


def test_octahedron_normals_equal_areas():
    n = core.unit_vectors(
        np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1)
                  for sz in (-1, 1)], float) / np.sqrt(3)
    )
    prob = mk.MinkowskiProblem(normals=n, target_areas=np.ones(8))
    body = mk.solve_minkowski(prob, tol=1e-9)
    assert np.ptp(body.support_numbers) < 1e-8
    # round trip through the support representation
    back = core.polytope_from_support(body.normals, body.support_numbers)
    np.testing.assert_allclose(np.sort(back.areas), 1.0, atol=1e-7)


def test_roundtrip_random_polytopes():
    for seed in (0, 1, 2):
        src = shapes.random_hull(20, seed=seed).centered()
        prob = mk.MinkowskiProblem(normals=src.normals, target_areas=src.areas)
        rec, rep = mk.solve_minkowski(prob, tol=1e-9, full_output=True)
        err = np.max(np.abs(rec.support_numbers - src.support_numbers)
                     / np.abs(src.support_numbers))
        assert err < 1e-6
        assert np.linalg.norm(rec.centroid()) < 1e-9
        v = rec.volume()
        assert abs(v - (rec.areas @ rec.support_numbers) / 3.0) <= 1e-9 * v


def test_area_map_cube_and_homogeneity(cube):
    a1 = mk.area_map(cube.normals, cube.support_numbers)
    np.testing.assert_allclose(a1, 1.0, atol=1e-12)
    a2 = mk.area_map(cube.normals, 2 * cube.support_numbers)
    np.testing.assert_allclose(a2, 4.0 * a1, rtol=1e-12)
    lam = 1.73
    a3 = mk.area_map(cube.normals, lam * cube.support_numbers)
    np.testing.assert_allclose(a3, lam**2 * a1, rtol=1e-12)


def test_volume_gradient_is_area():
    rng = np.random.default_rng(1)
    src = shapes.random_hull(12, seed=5)
    n = src.normals
    h = src.support_numbers + rng.uniform(-0.02, 0.02, len(n))
    base = core.polytope_from_support(n, h)
    eps = 1e-6
    for i in range(len(n)):
        hp, hm = h.copy(), h.copy()
        hp[i] += eps
        hm[i] -= eps
        fd = (core.polytope_from_support(n, hp).volume()
              - core.polytope_from_support(n, hm).volume()) / (2 * eps)
        assert abs(fd - base.areas[i]) < 1e-6


def test_area_jacobian_matches_finite_differences():
    src = shapes.random_hull(14, seed=8).centered()
    poly = core.polytope_from_support(src.normals, src.support_numbers)
    jac = mk.area_jacobian(poly).toarray()
    assert np.abs(jac - jac.T).max() < 1e-12
    eps = 1e-7
    for j in range(0, len(src.normals), 5):
        hp = src.support_numbers.copy()
        hm = src.support_numbers.copy()
        hp[j] += eps
        hm[j] -= eps
        fd = (mk.area_map(src.normals, hp) - mk.area_map(src.normals, hm)) / (2 * eps)
        assert np.abs(jac[:, j] - fd).max() < 5e-5


def test_area_jacobian_matches_pair_scan_reference():
    for n, h in support_cases():
        poly = core.polytope_from_support(n, h)
        ref = pair_scan_area_jacobian(poly)
        jac = mk.area_jacobian(poly).toarray()
        assert np.abs(jac - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("n_points", [52, 200])
def test_pinned_step_is_minimum_norm_least_squares(n_points):
    # the first Newton step of a solve with 100 and 396 faces
    src = shapes.random_hull(n_points, seed=1).centered()
    n = src.normals
    poly = core.polytope_from_support(n, np.ones(len(n)))
    poly = poly.scaled(np.sqrt(src.areas.sum() / poly.areas.sum()))
    rhs = src.areas - poly.areas
    jac = mk.area_jacobian(poly)
    step = mk._pinned_step(jac, n, rhs)
    ref, *_ = np.linalg.lstsq(jac.toarray(), rhs, rcond=1e-12)
    assert np.abs(step - ref).max() <= 1e-10 * np.abs(ref).max()
    assert np.abs(n.T @ step).max() <= 1e-12 * np.abs(step).max()


def _cube_and_corner_plane(reach):
    """The cube's normals and support numbers, and a seventh plane with
    normal (1, 1, 1)/sqrt(3) at ``reach`` times the cube's support there:
    at 2 it misses the cube, at 1 it passes through one vertex."""
    cube = shapes.cube()
    corner = np.full((1, 3), 1 / np.sqrt(3))
    touch = float((cube.vertices @ corner[0]).max())
    return (np.vstack([cube.normals, corner]),
            np.append(cube.support_numbers, reach * touch))


def _edge_pass_cases():
    """``support_cases()``, the octahedron at h = const (every vertex on 4
    planes), the cube, and the cube with a plane that misses it or passes
    through one vertex."""
    cube = shapes.cube()
    octahedron = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1)
                           for sz in (-1, 1)], float) / np.sqrt(3)
    return support_cases() + [(octahedron, np.ones(8)),
                              (cube.normals, cube.support_numbers),
                              _cube_and_corner_plane(2.0), _cube_and_corner_plane(1.0)]


def test_edge_pass_matches_the_code_it_replaced():
    # about the Chebyshev centre against the per-face areas and the pair
    # scan; about the origin, where the solver intersects its iterates,
    # against the HalfspaceIntersection evaluation and half-edge Jacobian
    for n, h in _edge_pass_cases():
        n = core.unit_vectors(n)
        centre = core.chebyshev_centre(n, h)
        fast = core.dual_hull(n, h, centre)
        ref = per_face_polytope_from_support(n, h)
        scale = ref.areas.max()
        assert np.abs(fast.edges.areas - ref.areas).max() <= 1e-13 * scale
        jac = pair_scan_area_jacobian(core.polytope_from_support(n, h))
        assert np.abs(fast.edges.jacobian().toarray() - jac).max() \
            <= 1e-13 * np.abs(jac).max()
        assert np.abs(fast.polytope().areas - ref.areas).max() <= 1e-13 * scale
        if h.min() > mk.ORIGIN_MARGIN * np.abs(h).max():
            fast = core.dual_hull(n, h, np.zeros(3))
            ref = intersect_about(n, h, np.zeros(3))
            assert np.abs(fast.edges.areas - ref.areas).max() <= 1e-13 * scale
            jac = half_edge_area_jacobian(ref).toarray()
            assert np.abs(fast.edges.jacobian().toarray() - jac).max() \
                <= 1e-13 * np.abs(jac).max()


def test_edge_pass_on_planes_that_miss_or_touch_the_body():
    for reach in (2.0, 1.0):
        n, h = _cube_and_corner_plane(reach)
        hull = core.dual_hull(core.unit_vectors(n), h, np.zeros(3))
        np.testing.assert_allclose(hull.edges.areas[:6], 1.0, rtol=1e-13)
        assert abs(hull.edges.areas[6]) <= 1e-13
        jac = hull.edges.jacobian().toarray()
        assert np.abs(jac[6]).max() <= 1e-13 * np.abs(jac).max()
        poly = hull.polytope()
        assert len(poly.vertices) == 8 and poly.faces[6] == ()


def _count_calls(monkeypatch, module, name):
    """The list that grows by one at each call of ``module.name``."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_hull_per_evaluation_and_face_cycles_once(monkeypatch):
    src = shapes.random_hull(52, seed=1).centered()
    prob = mk.MinkowskiProblem(normals=src.normals, target_areas=src.areas)
    hulls = _count_calls(monkeypatch, core, "ConvexHull")
    cycles = _count_calls(monkeypatch, core, "_face_cycles")
    _, rep = mk.solve_minkowski(prob, tol=1e-9, full_output=True)
    # the start, each accepted step and each rejected trial is one evaluation
    assert len(hulls) == rep["iterations"] + rep["backtracks"]
    assert len(cycles) == 1 and not hasattr(core, "HalfspaceIntersection")


@pytest.mark.parametrize("n_points, seed, iterations, backtracks", [
    (20, 0, 6, 1), (52, 1, 8, 3), (200, 1, 8, 3), (800, 3, 11, 20),
])
def test_steps_match_the_halfspace_intersection_solver(n_points, seed, iterations,
                                                       backtracks):
    # iterations and rejected trials of the solver that evaluated each
    # iterate by HalfspaceIntersection and face cycles (36 to 1596 faces)
    src = shapes.random_hull(n_points, seed=seed).centered()
    prob = mk.MinkowskiProblem(normals=src.normals, target_areas=src.areas)
    body, rep = mk.solve_minkowski(prob, tol=1e-9, full_output=True)
    assert (rep["iterations"], rep["backtracks"]) == (iterations, backtracks)
    rel = np.abs(body.support_numbers - src.support_numbers) / src.support_numbers
    assert rel.max() < 1e-6


def test_discretize_curvature_unit_and_scaled():
    centers, areas = sphere_partition(200, seed=1)
    assert abs(areas.sum() - 4 * np.pi) < 1e-9
    samp = mk.CurvatureSample(centers=centers, cell_areas=areas,
                              curvature=np.ones(200))
    prob = mk.discretize_curvature(samp)
    # the closing repair shifts the total by at most the partition defect
    assert abs(prob.target_areas.sum() - 4 * np.pi) < 1e-6
    R = 3.0
    samp2 = mk.CurvatureSample(centers=centers, cell_areas=areas,
                               curvature=np.full(200, 1 / R**2))
    prob2 = mk.discretize_curvature(samp2)
    assert abs(prob2.target_areas.sum() - 4 * np.pi * R**2) < 1e-6


def test_discretize_smooth_profile_records_defect():
    centers, areas = sphere_partition(162, seed=0)
    K = 1.0 / (1.0 + 0.3 * centers[:, 2] ** 2)
    samp = mk.CurvatureSample(centers=centers, cell_areas=areas, curvature=K)
    prob = mk.discretize_curvature(samp)
    before = np.linalg.norm(prob.metadata["closing_defect_before"])
    assert before < 0.05  # partition quadrature error only
    assert np.linalg.norm(mk.check_closing(prob)) < 1e-12
    assert prob.metadata["area_correction_norm"] >= 0


def test_negative_curvature_rejected():
    centers, areas = sphere_partition(80, seed=2)
    K = np.ones(80)
    K[3] = -0.1
    with pytest.raises(mk.NegativeCurvature):
        mk.CurvatureSample(centers=centers, cell_areas=areas,
                           curvature=K).validate()


def test_uniqueness_across_initializations():
    src = shapes.random_hull(18, seed=4).centered()
    prob = mk.MinkowskiProblem(normals=src.normals, target_areas=src.areas)
    a = mk.solve_minkowski(prob, tol=1e-9)
    rng = np.random.default_rng(3)
    h0 = np.ones(len(src.normals)) * rng.uniform(0.5, 2.0, len(src.normals))
    b = mk.solve_minkowski(prob, tol=1e-9, init_support=h0)
    rel = np.max(np.abs(a.support_numbers - b.support_numbers)
                 / np.abs(a.support_numbers))
    assert rel < 1e-6


def test_solver_reports_budget_exhaustion():
    src = shapes.random_hull(20, seed=9).centered()
    prob = mk.MinkowskiProblem(normals=src.normals, target_areas=src.areas)
    with pytest.raises(MaxIterExceeded) as err:
        mk.solve_minkowski(prob, tol=1e-9, max_iter=2)
    assert err.value.best is not None
    assert err.value.residual > 0


def test_negative_curvature_is_a_named_value_error():
    assert mk.NegativeCurvature is errors.NegativeCurvature
    assert issubclass(mk.NegativeCurvature, errors.OvaloidError)
    assert issubclass(mk.NegativeCurvature, ValueError)


def _residual(poly, prob):
    return float(np.max(np.abs(poly.areas - prob.target_areas) / prob.target_areas))


def test_budget_counts_accepted_steps():
    src = shapes.random_hull(20, seed=9).centered()
    prob = mk.MinkowskiProblem(normals=src.normals, target_areas=src.areas)
    _, rep = mk.solve_minkowski(prob, tol=1e-9, full_output=True)
    steps = rep["iterations"] - 1
    assert len(rep["residual_history"]) == rep["iterations"]
    # a solve that reaches tol on its last allowed step returns
    body, last = mk.solve_minkowski(prob, tol=1e-9, max_iter=steps, full_output=True)
    assert last["iterations"] == steps + 1 and last["final_residual"] <= 1e-9
    # one step fewer raises, with the residual of the iterate it carries
    with pytest.raises(MaxIterExceeded) as err:
        mk.solve_minkowski(prob, tol=1e-9, max_iter=steps - 1)
    assert err.value.residual > 1e-9
    assert err.value.residual == pytest.approx(_residual(err.value.best, prob),
                                               rel=1e-12)
    assert err.value.residual == pytest.approx(rep["residual_history"][steps - 1],
                                               rel=1e-12)


def test_start_with_a_dead_face_is_blended():
    src = shapes.random_hull(18, seed=4).centered()
    prob = mk.MinkowskiProblem(normals=src.normals, target_areas=src.areas)
    a = mk.solve_minkowski(prob, tol=1e-9)
    h0 = src.support_numbers.copy()
    h0[0] += 5.0 * h0.max()  # the plane of face 0 no longer touches the body
    assert core.polytope_from_support(src.normals, h0).areas[0] == 0.0
    b = mk.solve_minkowski(prob, tol=1e-9, init_support=h0)
    rel = np.max(np.abs(a.support_numbers - b.support_numbers)
                 / np.abs(a.support_numbers))
    assert rel < 1e-6


def test_backtracks_are_reported():
    src = shapes.random_hull(10, seed=9).centered()
    prob = mk.MinkowskiProblem(normals=src.normals, target_areas=src.areas)
    _, rep = mk.solve_minkowski(prob, tol=1e-9, full_output=True)
    assert rep["backtracks"] > 0
    assert rep["final_residual"] <= 1e-9


def _count_lps(monkeypatch):
    """The list that grows by one at each call of ``core.linprog``."""
    return _count_calls(monkeypatch, core, "linprog")


def test_solve_intersects_about_the_origin(monkeypatch):
    src = shapes.random_hull(200, seed=5).centered()
    prob = mk.MinkowskiProblem(normals=src.normals, target_areas=src.areas)
    calls = _count_lps(monkeypatch)
    body, rep = mk.solve_minkowski(prob, tol=1e-9, full_output=True)
    assert calls == []
    assert rep["iterations"] > 1 and rep["final_residual"] <= 1e-9
    rel = np.abs(body.support_numbers - src.support_numbers) / src.support_numbers
    assert rel.max() < 1e-6


def test_start_outside_the_origin_falls_back_to_the_lp(monkeypatch):
    src = shapes.random_hull(18, seed=4).centered()
    prob = mk.MinkowskiProblem(normals=src.normals, target_areas=src.areas)
    a = mk.solve_minkowski(prob, tol=1e-9)
    # the round start moved by 3: the origin is outside it, and the steps,
    # orthogonal to translations, keep every iterate there
    h0 = 1.0 + src.normals @ [3.0, 0.0, 0.0]
    assert h0.min() < 0
    calls = _count_lps(monkeypatch)
    b, rep = mk.solve_minkowski(prob, tol=1e-9, init_support=h0, full_output=True)
    assert len(calls) >= rep["iterations"] > 1
    assert np.abs(b.support_numbers - a.support_numbers).max() <= 1e-8


def _coplanar(m):
    t = 2 * np.pi * np.arange(m) / m
    return np.column_stack([np.cos(t), np.sin(t), np.zeros(m)])


OCTAHEDRON_NORMALS = np.vstack([np.eye(3), -np.eye(3)])


@pytest.mark.parametrize("normals, areas, error", [
    (np.eye(3), np.ones(3), errors.MalformedMinkowskiData),
    (OCTAHEDRON_NORMALS, np.ones(5), errors.MalformedMinkowskiData),
    (OCTAHEDRON_NORMALS, [1, 1, 1, 1, 1, 0], errors.MalformedMinkowskiData),
    (np.vstack([OCTAHEDRON_NORMALS, [[1, 0, 0]]]), np.ones(7), errors.DegenerateNormals),
    (_coplanar(6), np.ones(6), errors.DegenerateNormals),
    (OCTAHEDRON_NORMALS, [2, 1, 1, 1, 1, 1], errors.OpenAreaVector),
], ids=["three", "lengths", "zero-area", "repeated", "coplanar", "open"])
def test_invalid_problem_raises_named_value_error(normals, areas, error):
    with pytest.raises(error) as err:
        mk.MinkowskiProblem(normals=normals, target_areas=areas).validate()
    assert isinstance(err.value, errors.OvaloidError)
    assert isinstance(err.value, ValueError)


@pytest.mark.parametrize("centers, cell_areas, error", [
    (OCTAHEDRON_NORMALS, np.ones(6), errors.MalformedMinkowskiData),
    (_coplanar(6), np.full(6, 4 * np.pi / 6), errors.DegenerateNormals),
    (np.eye(3), np.full(3, 4 * np.pi / 3), errors.OpenAreaVector),
], ids=["sphere-total", "coplanar", "repair"])
def test_invalid_curvature_sample_raises_named_value_error(centers, cell_areas, error):
    sample = mk.CurvatureSample(centers=centers, cell_areas=cell_areas,
                                curvature=np.ones(len(centers)))
    with pytest.raises(error) as err:
        mk.discretize_curvature(sample)
    assert isinstance(err.value, ValueError)
