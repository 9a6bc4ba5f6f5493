import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import counted_calls
from oracles import (constraint_residual, full_svd_bending_space, lil_flex_system,
                     loop_isometry_constraints)
from ovaloid import rigidity_lab as rl
from ovaloid import core, newton, shapes
from ovaloid.errors import (DegenerateGeometry, MalformedGrid, MalformedSurface,
                            NotStrictlyConvex, OpenSurface, PrecisionWarning)


def surface_of(poly):
    return rl.TriangulatedSurface(
        vertices=poly.vertices, triangles=core.fan_triangles(poly.faces)
    )


def test_single_edge_constraint_row():
    surf = rl.TriangulatedSurface(
        vertices=np.array([[0, 0, 0], [2, 0, 0], [0, 2, 0]], float),
        triangles=np.array([[0, 1, 2]]),
        with_boundary=True,
    )
    mat = rl.isometry_constraints(surf).toarray()
    assert mat.shape == (3, 9)
    # row for edge (0, 1): unit direction +- (1, 0, 0)
    row = mat[0]
    np.testing.assert_allclose(row[0:3], [-1, 0, 0], atol=1e-15)
    np.testing.assert_allclose(row[3:6], [1, 0, 0], atol=1e-15)


def test_translation_and_rotation_fields_flat():
    surf = surface_of(shapes.icosahedron())
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = rng.normal(size=3), rng.normal(size=3)
        tau = np.cross(a, surf.vertices) + b
        assert constraint_residual(surf, tau) <= 1e-12


def _rank_oracle(mat):
    """Independent rank estimate: QR with column pivoting."""
    import scipy.linalg as sla

    _, r, _ = sla.qr(mat, pivoting=True, mode="economic")
    diag = np.abs(np.diag(r))
    return int(np.sum(diag > 1e-10 * diag.max()))


@pytest.mark.parametrize(
    "builder, expected_nontrivial",
    [
        (lambda: surface_of(shapes.octahedron()), 0),
        (lambda: surface_of(shapes.icosahedron()), 0),
    ],
)
def test_regular_bodies_rigid(builder, expected_nontrivial):
    surf = builder()
    rep = rl.bending_space(surf)
    assert rep.kernel_dim == 6
    assert rep.nontrivial_dim == expected_nontrivial
    mat = rl.isometry_constraints(surf).toarray()
    assert mat.shape[1] - _rank_oracle(mat) == rep.kernel_dim


def test_cube_with_face_centers_has_six_flexes():
    v, t = shapes.cube_with_face_centers()
    surf = rl.TriangulatedSurface(vertices=v, triangles=t)
    rep = rl.bending_space(surf)
    assert rep.kernel_dim == 12
    assert rep.nontrivial_dim == 6
    mat = rl.isometry_constraints(surf).toarray()
    assert mat.shape[1] - _rank_oracle(mat) == 12
    # one explicit normal flex per flat face-centre vertex: each is a
    # first-order isometry and independent of the rigid motions
    cube = shapes.cube()
    fields = []
    for k, cyc in enumerate(cube.faces):
        tau = np.zeros_like(v)
        tau[8 + k] = cube.normals[k]
        assert constraint_residual(surf, tau) <= 1e-12
        fields.append(tau.ravel())
    stack = np.column_stack(
        [rl.trivial_motion_basis(v)] + [f[:, None] for f in fields]
    )
    assert np.linalg.matrix_rank(stack, tol=1e-10) == 12


def test_random_convex_surfaces_rigid():
    for seed in (0, 1, 2, 3):
        surf = surface_of(shapes.random_hull(20, seed=seed))
        rep = rl.bending_space(surf)
        assert rep.nontrivial_dim == 0, seed


def geodesic_sphere(levels):
    """The icosahedron with every triangle split into four ``levels`` times,
    the new vertices pushed out to the unit sphere."""
    ico = shapes.icosahedron()
    verts, tris = list(ico.vertices), core.fan_triangles(ico.faces).tolist()
    for _ in range(levels):
        mids = {}

        def mid(a, b):
            key = min(a, b), max(a, b)
            if key not in mids:
                p = verts[a] + verts[b]
                verts.append(p / np.linalg.norm(p))
                mids[key] = len(verts) - 1
            return mids[key]

        tris = [t for a, b, c in tris for t in (
            (a, mid(a, b), mid(c, a)), (b, mid(b, c), mid(a, b)),
            (c, mid(c, a), mid(b, c)), (mid(a, b), mid(b, c), mid(c, a)))]
    return rl.TriangulatedSurface(vertices=np.array(verts), triangles=tris)


def with_flat_vertex(surf, height):
    """``surf`` with a new vertex over the centroid of its first triangle, at
    ``height`` along the normal, coned to that triangle's sides."""
    (a, b, c), v = surf.triangles[0], surf.vertices
    normal = np.cross(v[b] - v[a], v[c] - v[a])
    apex = (v[a] + v[b] + v[c]) / 3 + height * normal / np.linalg.norm(normal)
    k = len(v)
    return rl.TriangulatedSurface(
        vertices=np.vstack([v, apex]),
        triangles=np.vstack([surf.triangles[1:], [[a, b, k], [b, c, k], [c, a, k]]]),
    )


def without_vertex(surf, vertex):
    """``surf`` with ``vertex`` and its triangles removed: an open surface."""
    keep = ~(surf.triangles == vertex).any(axis=1)
    tris = surf.triangles[keep]
    return rl.TriangulatedSurface(vertices=np.delete(surf.vertices, vertex, axis=0),
                                  triangles=tris - (tris > vertex), with_boundary=True)


def _check_against_full_svd(surf):
    mat = rl.isometry_constraints(surf)
    assert np.abs((mat - loop_isometry_constraints(surf)).toarray()).max() <= 1e-15
    rep = rl.bending_space(surf)
    kernel_dim, extra, basis, svals, resid = full_svd_bending_space(surf)
    assert rep.kernel_dim == kernel_dim
    assert rep.nontrivial_dim == kernel_dim - 6 == extra
    np.testing.assert_allclose(rep.spectrum_tail, svals[-12:], rtol=0,
                               atol=1e-13 * svals[0])
    assert abs(rep.trivial_residual - resid) <= 1e-15
    # the same flex space: equal orthogonal projectors
    np.testing.assert_allclose(rep.basis @ rep.basis.T, basis @ basis.T,
                               rtol=0, atol=1e-10)
    return rep


@pytest.mark.parametrize("builder", [
    lambda: surface_of(shapes.octahedron()),
    lambda: surface_of(shapes.icosahedron()),
    lambda: rl.TriangulatedSurface(*shapes.cube_with_face_centers()),
    *[lambda seed=seed: surface_of(shapes.random_hull(20, seed=seed))
      for seed in (0, 1, 2, 3)],
    lambda: geodesic_sphere(2),  # five-fold singular values in the tail
    lambda: surface_of(shapes.random_hull(400, seed=1)),
])
def test_bending_space_matches_full_svd_reference(builder):
    _check_against_full_svd(builder())


@pytest.fixture
def svd_calls(monkeypatch):
    """Counts the calls of ``numpy.linalg.svd``."""
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


@pytest.mark.parametrize("builder", [
    lambda: surface_of(shapes.random_hull(200, seed=2)),
    lambda: geodesic_sphere(2),
])
def test_rigid_sphere_takes_the_sparse_path(builder, svd_calls):
    surf = builder()
    assert 3 * len(surf.vertices) >= rl.SPARSE_MIN_COLUMNS
    rep = rl.bending_space(surf)
    assert not svd_calls
    assert (rep.kernel_dim, rep.nontrivial_dim, rep.basis.shape[1]) == (6, 0, 0)
    assert len(rep.spectrum_tail) == 12 and not rep.spectrum_tail[6:].any()


@pytest.mark.parametrize("builder, nontrivial", [
    (lambda: surface_of(shapes.octahedron()), 0),
    (lambda: rl.TriangulatedSurface(*shapes.cube_with_face_centers()), 6),
    # a hole where a vertex of degree 4 was: E = 3V - 7, one flex
    (lambda: without_vertex(surface_of(shapes.random_hull(150, seed=1)), 0), 1),
    # a coned triangle, exactly flat, and so near flat that cond(P) > 1e7
    (lambda: with_flat_vertex(surface_of(shapes.random_hull(150, seed=1)), 0.0), 1),
    (lambda: with_flat_vertex(surface_of(shapes.random_hull(150, seed=1)), 5e-8), 0),
], ids=["octahedron", "cube-centres", "with-boundary", "flat-vertex", "near-flat-vertex"])
def test_dense_path_answers_where_sparse_cannot(builder, nontrivial, svd_calls):
    surf = builder()
    rl.bending_space(surf)
    assert svd_calls
    assert _check_against_full_svd(surf).nontrivial_dim == nontrivial


def test_rank_test_not_clear_cut_takes_the_dense_path(svd_calls):
    # a coarse tol puts the smallest singular values of a rigid sphere under
    # tol * sqrt(|M|_1 |M|_inf) but some of them above tol * sigma_max
    surf = surface_of(shapes.random_hull(200, seed=2))
    rep = rl.bending_space(surf, tol=0.05)
    assert svd_calls
    kernel_dim, extra, basis, _, _ = full_svd_bending_space(surf, tol=0.05)
    assert rep.kernel_dim == kernel_dim > 6 and rep.nontrivial_dim == extra
    np.testing.assert_allclose(rep.basis @ rep.basis.T, basis @ basis.T,
                               rtol=0, atol=1e-10)


def test_condition_guard_routes_the_near_flat_vertex(monkeypatch, svd_calls):
    # its smallest singular value, 2.5e-7, clears the rank test 500 times
    # over: only the condition estimate of P sends it to the dense SVD
    surf = with_flat_vertex(surface_of(shapes.random_hull(150, seed=1)), 5e-8)
    monkeypatch.setattr(rl, "MAX_BLOCK_COND", 1e10)
    rep = rl.bending_space(surf)
    assert not svd_calls
    kernel_dim, extra, _, svals, _ = full_svd_bending_space(surf)
    assert (rep.kernel_dim, rep.nontrivial_dim) == (kernel_dim, extra) == (6, 0)
    np.testing.assert_allclose(rep.spectrum_tail, svals[-12:], rtol=0,
                               atol=1e-13 * svals[0])


def test_degenerate_geometry_rejected():
    line = rl.TriangulatedSurface(
        vertices=np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], float),
        triangles=np.array([[0, 1, 2]]),
        with_boundary=True,
    )
    with pytest.raises(DegenerateGeometry):
        rl.bending_space(line)


def test_open_surface_rejected():
    surf = rl.TriangulatedSurface(
        vertices=np.eye(3), triangles=np.array([[0, 1, 2]])
    )
    with pytest.raises(ValueError):
        surf.validate()


def grid(n, lo=0.0, hi=1.0):
    xs = np.linspace(lo, hi, n)
    X, Y = np.meshgrid(xs, xs)
    return X, Y, xs[1] - xs[0]


def test_defo_residual_examples():
    X, Y, h = grid(9)
    z = 0.5 * (X**2 + Y**2)
    assert rl.defo_residual(rl.GridPatch(h=h, z=z, zeta=X**2 - Y**2)) < 1e-12
    assert rl.defo_residual(rl.GridPatch(h=h, z=z, zeta=X * Y)) < 1e-12
    r = rl.defo_residual(rl.GridPatch(h=h, z=z, zeta=X**2))
    assert abs(r - 2.0) < 1e-12


def test_solve_defo_zero_boundary_gives_zero():
    X, Y, h = grid(11)
    z = 0.5 * (X**2 + Y**2) + 0.1 * X * Y
    sol = rl.solve_defo(rl.GridPatch(h=h, z=z, zeta=np.zeros_like(z)))
    assert np.abs(sol.zeta).max() < 1e-12


def test_solve_defo_recovers_harmonic_quadratic():
    X, Y, h = grid(13)
    z = 0.5 * (X**2 + Y**2)
    sol = rl.solve_defo(rl.GridPatch(h=h, z=z, zeta=X**2 - Y**2))
    assert np.abs(sol.zeta - (X**2 - Y**2)).max() < 1e-11


def test_solve_defo_convergence_order_two():
    gamma = 0.2
    mu = np.sqrt(1 - gamma**2)
    exact = lambda X, Y: np.exp(X + gamma * Y) * np.cos(mu * Y)
    errs = []
    for n in (9, 17, 33):
        X, Y, h = grid(n)
        z = 0.5 * (X**2 + Y**2) + gamma * X * Y
        sol = rl.solve_defo(rl.GridPatch(h=h, z=z, zeta=exact(X, Y)))
        errs.append(np.abs(sol.zeta - exact(X, Y)).max())
    orders = [np.log2(errs[k] / errs[k + 1]) for k in range(2)]
    for o in orders:
        assert abs(o - 2.0) <= 0.3


def test_solve_defo_ordering_matches_default_solve():
    # the BiCGSTAB path (q = 0.2 here) changes the solver, not the answer
    from scipy.sparse.linalg import spsolve

    X, Y, h = grid(129)
    z = 0.5 * (X**2 + Y**2) + 0.2 * X * Y
    zb = np.exp(X + 0.2 * Y) * np.cos(0.9 * Y)
    sol = rl.solve_defo(rl.GridPatch(h=h, z=z, zeta=zb))
    mat, rhs = rl._flex_system(*rl._second_diffs(z, h), zb)
    want = spsolve(mat, rhs)
    got = sol.zeta[1:-1, 1:-1].ravel()
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_solve_defo_returns_a_new_patch(monkeypatch):
    # the input keeps its boundary-only zeta, and only the answer is checked
    X, Y, h = grid(9)
    zb = X**2 - Y**2
    zb[1:-1, 1:-1] = 0.0
    patch = rl.GridPatch(h=h, z=0.5 * (X**2 + Y**2), zeta=zb.copy())
    counted = counted_calls(monkeypatch, rl, "_second_diffs")
    sol = rl.solve_defo(patch)
    assert len(counted) == 2
    assert np.array_equal(patch.zeta, zb)
    assert np.abs(sol.zeta - (X**2 - Y**2)).max() < 1e-12
    with pytest.raises(dataclasses.FrozenInstanceError):
        sol.zeta = zb


def laplacian_5_point(my, mx):
    """(E + W + N + S - 4C) / 2 on an my x mx interior, zero ring, row-major."""
    def second(m):
        return sp.diags([np.ones(m - 1), -2.0 * np.ones(m), np.ones(m - 1)], [-1, 0, 1])
    return 0.5 * (sp.kron(sp.eye(my), second(mx)) + sp.kron(second(my), sp.eye(mx)))


@pytest.mark.parametrize("my, mx", [(1, 1), (1, 7), (7, 12), (31, 31)])
def test_half_laplacian_solver_inverts_the_5_point_laplacian(my, mx):
    v = np.random.default_rng(my * mx).normal(size=my * mx)
    got = rl._half_laplacian_solver(my, mx)(laplacian_5_point(my, mx) @ v)
    assert np.abs(got - v).max() <= 1e-13 * np.abs(v).max()


def flex_grid(ny, nx, gamma):
    """z = (x^2 + y^2)/2 + gamma x y (anisotropy |gamma|) on an ny x nx grid
    of [0.3, 1.1] in x, and random Dirichlet data."""
    h = 0.8 / (nx - 1)
    X, Y = np.meshgrid(0.3 + h * np.arange(nx), 0.3 + h * np.arange(ny))
    zb = np.random.default_rng(ny * nx).normal(size=X.shape)
    return 0.5 * (X**2 + Y**2) + gamma * X * Y, h, zb


@pytest.mark.parametrize("ny, nx", [(3, 3), (3, 17), (9, 14), (65, 65), (129, 129)])
@pytest.mark.parametrize("gamma", [0.0, 0.3, -0.3])
def test_krylov_solve_matches_lu(ny, nx, gamma):
    z, h, zb = flex_grid(ny, nx, gamma)
    diffs = rl._second_diffs(z, h)
    mat, rhs = rl._flex_system(*diffs, zb)
    want = newton.sparse_solve(mat, rhs)
    got = rl._krylov_solve(mat.copy(), rhs.copy(), diffs[0] + diffs[1])
    assert got is not None
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.fixture
def lu_calls(monkeypatch):
    """The answers of every newton.sparse_solve call."""
    answers = []
    sparse_solve = newton.sparse_solve

    def counted(a, b):
        answers.append(sparse_solve(a, b))
        return answers[-1]
    monkeypatch.setattr(newton, "sparse_solve", counted)
    return answers


def test_near_isotropic_flex_solve_factors_nothing(lu_calls):
    z, h, zb = flex_grid(33, 33, 0.3)
    sol = rl.solve_defo(rl.GridPatch(h=h, z=z, zeta=zb))
    assert not lu_calls
    assert rl.defo_residual(sol) < 1e-9


@pytest.mark.parametrize("surface", [
    lambda X, Y: 50 * X**2 + 0.5 * Y**2 + 0.5 * X * Y,
    lambda X, Y: np.exp(2 * X + Y) + 0.5 * Y**2,
], ids=["stretched", "exponential"])
def test_anisotropic_flex_solve_factors_once(lu_calls, surface):
    X, Y, h = grid(33)
    sol = rl.solve_defo(rl.GridPatch(h=h, z=surface(X, Y), zeta=np.cos(3 * X) * np.sinh(Y)))
    assert len(lu_calls) == 1
    assert np.array_equal(sol.zeta[1:-1, 1:-1].ravel(), lu_calls[0])
    assert rl.defo_residual(sol) < 1e-9


def test_unconverged_krylov_solve_falls_back_to_lu(monkeypatch, lu_calls):
    monkeypatch.setattr(rl, "bicgstab", lambda a, b, **kw: (np.zeros_like(b), 1))
    z, h, zb = flex_grid(17, 17, 0.1)
    sol = rl.solve_defo(rl.GridPatch(h=h, z=z, zeta=zb))
    assert len(lu_calls) == 1
    assert np.array_equal(sol.zeta[1:-1, 1:-1].ravel(), lu_calls[0])
    assert rl.defo_residual(sol) < 1e-9


def test_flex_system_matches_lil_reference():
    rng = np.random.default_rng(4)
    for ny, nx, gamma in ((9, 9, 0.0), (17, 17, 0.2), (33, 33, -0.25), (9, 14, 0.1)):
        h = 0.8 / (nx - 1)
        X, Y = np.meshgrid(0.3 + h * np.arange(nx), 0.3 + h * np.arange(ny))
        z = 0.5 * (X**2 + Y**2) + gamma * X * Y
        zb = rng.normal(size=z.shape)
        diffs = rl._second_diffs(z, h)
        mat, rhs = rl._flex_system(*diffs, zb)
        ref_mat, ref_rhs = lil_flex_system(*diffs, zb)
        assert mat.nnz == ref_mat.nnz
        assert np.array_equal(mat.toarray(), ref_mat.toarray())
        assert np.array_equal(rhs, ref_rhs)


def test_not_strictly_convex_names_nodes():
    X, Y, h = grid(9)
    z = 0.5 * (X**2 - Y**2)  # saddle
    with pytest.raises(NotStrictlyConvex) as err:
        rl.solve_defo(rl.GridPatch(h=h, z=z, zeta=np.zeros_like(z)))
    assert err.value.nodes


def test_main_lemma_trivial_examples():
    X, Y, h = grid(9)
    z = 0.5 * (X**2 + Y**2)
    rep = rl.main_lemma_check(rl.GridPatch(h=h, z=z, zeta=X**2 - Y**2))
    assert rep.ok and abs(rep.max_det + 4.0) < 1e-9
    rep2 = rl.main_lemma_check(rl.GridPatch(h=h, z=z, zeta=X * Y))
    assert rep2.ok and abs(rep2.max_det + 1.0) < 1e-9


def test_main_lemma_on_solver_outputs():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = 15
        X, Y, h = grid(n)
        ax, ay = rng.uniform(0.5, 2.0, 2)
        gxy = rng.uniform(-0.4, 0.4) * np.sqrt(ax * ay)
        z = 0.5 * (ax * X**2 + ay * Y**2) + gxy * X * Y
        zb = rng.normal(0, 1, (n, n))
        sol = rl.solve_defo(rl.GridPatch(h=h, z=z, zeta=zb))
        rep = rl.main_lemma_check(sol, tol=1e-8)
        assert rep.ok, rep.violations


def test_precision_warning_on_sloppy_patch():
    X, Y, h = grid(9)
    z = 0.5 * (X**2 + Y**2)
    zeta = X**3 + Y**2  # does not satisfy the flex equation
    with pytest.warns(PrecisionWarning):
        rl.main_lemma_check(rl.GridPatch(h=h, z=z, zeta=zeta))


def test_grid_patch_validation():
    with pytest.raises(ValueError):
        rl.GridPatch(h=0.1, z=np.zeros((2, 5)), zeta=np.zeros((2, 5)))
    with pytest.raises(ValueError):
        rl.GridPatch(h=0.1, z=np.zeros((5, 5)), zeta=np.zeros((4, 5)))


def test_surface_and_grid_errors_are_named():
    for vertices, triangles in ((np.eye(3)[:, :2], [[0, 1, 2]]), (np.eye(3), [[0, 1]]),
                                (np.eye(3), [[0, 1, 3]])):
        with pytest.raises(MalformedSurface):
            rl.TriangulatedSurface(vertices=vertices, triangles=triangles).validate()
    with pytest.raises(OpenSurface, match="3 edges"):
        rl.TriangulatedSurface(vertices=np.eye(3), triangles=[[0, 1, 2]]).validate()
    for z, zeta in ((np.zeros((2, 5)), np.zeros((2, 5))), (np.zeros((5, 5)), np.zeros((4, 5)))):
        with pytest.raises(MalformedGrid):
            rl.GridPatch(h=0.1, z=z, zeta=zeta)
    X, Y, _ = grid(5)
    z = 0.5 * (X**2 + Y**2)
    # h^2 infinite, subnormal or zero; second differences near 1e200
    for h in (1e300, 1e160, 1e-160, 1e-170, 1e-300, 1e-100):
        with pytest.raises(MalformedGrid):
            rl.GridPatch(h=h, z=z, zeta=np.zeros_like(z))
        with pytest.raises(MalformedGrid):
            rl.solve_defo(rl.GridPatch(h=h, z=z, zeta=np.zeros_like(z)))
    with pytest.raises(MalformedGrid):
        rl.solve_defo(rl.GridPatch(h=0.25, z=z, zeta=np.zeros((4, 5))))
