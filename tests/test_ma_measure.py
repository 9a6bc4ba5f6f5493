import numpy as np
import pytest
from scipy.spatial import ConvexHull

from conftest import envelope_flags, grid_problem, interior_indices
from oracles import (
    clip_halfplane,
    clipped_cell,
    convex_clip,
    masses_from_density,
    monte_carlo_cell_areas,
    per_cell_masses,
    per_triangle_quad,
)
from ovaloid import ma_solver as ma
from ovaloid import planar
from ovaloid.errors import (
    DuplicateNodes,
    NotEnvelopeVertex,
    QuadratureFailure,
    UnboundedCell,
)


def cone_function():
    """max(x, -x, y, -y) on the square [-1, 1]^2 with one interior node."""
    dom = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], float)
    nodes = np.vstack([[0.0, 0.0], dom])
    values = np.array([0.0, 1.0, 1.0, 1.0, 1.0])
    return ma.PLConvexFunction(nodes=nodes, values=values, domain=dom)


def random_pl(seed, n_inner=7, extent=2.0):
    rng = np.random.default_rng(seed)
    dom = np.array([[0, 0], [extent, 0], [extent, extent], [0, extent]], float)
    inner = rng.uniform(0.25 * extent, 0.75 * extent, (n_inner, 2))
    nodes = np.vstack([dom, inner])
    base = 0.4 * ((nodes[:, 0] - 1) ** 2 + (nodes[:, 1] - 0.8) ** 2)
    values = base + rng.normal(0, 0.02, len(nodes))
    return ma.PLConvexFunction(nodes=nodes, values=values, domain=dom)


def _assert_same_cell(nodes, values, i, window=None):
    """The lifted-hull cell of node i equals the all-halfplane reference."""
    got = ma.subgradient_cell_polygon(nodes, values, i, clip=window)
    _assert_cell_equal(got, clipped_cell(nodes, values, i, window), i)


def _assert_cell_equal(got, want, i):
    """Same vertices within 1e-12 of the cell's scale, and the same labels
    on every edge longer than that."""
    (got_v, got_l), (want_v, want_l) = got, want
    scale = max(1.0, float(np.abs(want_v).max())) if len(want_v) else 1.0
    tol = 1e-12 * scale
    assert (len(got_v) == 0) == (len(want_v) == 0), i
    for a, b in ((got_v, want_v), (want_v, got_v)):
        for p in a:
            assert np.linalg.norm(b - p, axis=1).min() <= tol, (i, p)

    def edges(verts, labels):
        return [
            (verts[k], verts[(k + 1) % len(verts)], labels[k])
            for k in range(len(verts))
            if np.linalg.norm(verts[(k + 1) % len(verts)] - verts[k]) > tol
        ]

    got_e, want_e = edges(got_v, got_l), edges(want_v, want_l)
    assert len(got_e) == len(want_e), i
    for a, b, lab in got_e:
        assert any(
            np.linalg.norm(a - a2) <= tol and np.linalg.norm(b - b2) <= tol
            and lab == lab2
            for a2, b2, lab2 in want_e
        ), (i, a, b, lab)


@pytest.mark.parametrize("seed", range(8))
def test_hull_cells_match_reference_random(seed):
    u = random_pl(seed)
    window = planar.box_polygon(0.0, 0.0, 6.0)
    for i in range(len(u.nodes)):
        _assert_same_cell(u.nodes, u.values, i, window)
    for i in interior_indices(u):
        _assert_same_cell(u.nodes, u.values, int(i))


def test_hull_cells_match_reference_coplanar_quads():
    # every grid square of a quadratic lifts to a planar quad, which the
    # hull splits along an arbitrary diagonal
    grid = grid_problem(4, 4.0)
    nodes = grid.all_nodes()
    values = 0.5 * np.einsum("ij,ij->i", nodes, nodes)
    for i in range(len(nodes)):
        _assert_same_cell(nodes, values, i, grid.domain)
    for i in range(len(grid.interior_nodes)):
        _assert_same_cell(nodes, values, i)


def test_hull_cells_match_reference_flat_lift():
    grid = grid_problem(4, 4.0)
    nodes = grid.all_nodes()
    values = 0.3 * nodes[:, 0] - 0.2 * nodes[:, 1] + 1.0
    window = planar.box_polygon(0.0, 0.0, 2.0)
    for i in range(len(nodes)):
        _assert_same_cell(nodes, values, i, window)
    # inner cells shrink to the plane's slope and need no window
    for i in range(len(grid.interior_nodes)):
        verts, _ = ma.subgradient_cell_polygon(nodes, values, i)
        assert np.abs(verts - [0.3, -0.2]).max(initial=0.0) < 1e-12
    # the corners' cells are cones cut by the window; a cone needs a window
    corners = [int(np.argmin(np.linalg.norm(nodes - c, axis=1)))
               for c in grid.domain]
    for i in corners:
        verts, _ = ma.subgradient_cell_polygon(nodes, values, i, clip=window)
        assert abs(planar.polygon_area(verts)) > 1.0
        with pytest.raises(ValueError):
            ma.subgradient_cell_polygon(nodes, values, i)


def test_hull_cells_match_reference_node_above_envelope():
    u = cone_function()
    nodes = np.vstack([u.nodes, [[0.5, 0.0]]])
    values = np.concatenate([u.values, [0.9]])
    for i in range(len(nodes)):
        _assert_same_cell(nodes, values, i, u.domain)
    assert len(ma.subgradient_cell_polygon(nodes, values, 5)[0]) == 0


def jittered_grid(n_side=20, seed=0):
    """(nodes, values, interior indices) of a grid on [0, n_side]^2 whose
    interior nodes are moved off it, under a noisy convex quadratic."""
    rng = np.random.default_rng(seed)
    grid = grid_problem(n_side, float(n_side))
    inner = grid.interior_nodes + rng.uniform(-0.3, 0.3, grid.interior_nodes.shape)
    nodes = np.vstack([inner, grid.boundary_nodes])
    values = 0.05 * np.sum((nodes - 0.5 * n_side) ** 2, axis=1)
    values += rng.normal(0, 0.01, len(nodes))
    return nodes, values, np.arange(len(inner))


def _cell_cases():
    for seed in range(8):
        u = random_pl(seed)
        yield pytest.param(f"random{seed}", u.nodes, u.values,
                           interior_indices(u), planar.box_polygon(0.0, 0.0, 6.0),
                           id=f"random{seed}")
    grid = grid_problem(4, 4.0)
    nodes = grid.all_nodes()
    inner = np.arange(len(grid.interior_nodes))
    yield pytest.param("quads", nodes, 0.5 * np.einsum("ij,ij->i", nodes, nodes),
                       inner, grid.domain, id="quads")
    yield pytest.param("flat", nodes, 0.3 * nodes[:, 0] - 0.2 * nodes[:, 1] + 1.0,
                       inner, planar.box_polygon(0.0, 0.0, 2.0), id="flat")
    # qhull accepts this lift, and all its lower facets lie in one plane
    above = np.vstack([nodes, [[2.5, 2.5]]])
    values = 0.3 * above[:, 0] - 0.2 * above[:, 1] + 1.0
    values[-1] += 0.5
    yield pytest.param("flat-above", above, values, inner,
                       planar.box_polygon(0.0, 0.0, 2.0), id="flat-above")
    # the window cuts closed cells as well as the boundary ones
    yield pytest.param("jittered441", *jittered_grid(),
                       planar.box_polygon(0.0, 0.0, 0.6), id="jittered441")


@pytest.mark.parametrize("name, nodes, values, inner, window", _cell_cases())
def test_all_cells_at_once_match_reference(name, nodes, values, inner, window):
    cells = ma._cells(nodes, values, range(len(nodes)), window)
    for i in range(len(nodes)):
        _assert_cell_equal(cells.cell(i), clipped_cell(nodes, values, i, window), i)
    cells = ma._cells(nodes, values, inner)
    for k, i in enumerate(inner):
        if name == "flat":
            # each cell is the plane's slope, from a closed Delaunay fan
            verts, _ = cells.cell(k)
            assert len(verts) >= 3 and np.abs(verts - [0.3, -0.2]).max() < 1e-12
        else:
            _assert_cell_equal(cells.cell(k), clipped_cell(nodes, values, i), i)


def _convex_layout(rng, sizes):
    """A _Cells layout of random convex polygons with the given vertex
    counts, each edge labelled by its index in the layout, and the polygons."""
    polys = []
    for size in sizes:
        pts = rng.normal(size=(size + 8, 2)) * rng.uniform(0.2, 2.0) + rng.normal(size=2)
        polys.append(pts[ConvexHull(pts).vertices])
    verts = np.vstack(polys)
    owner = np.repeat(np.arange(len(polys)), [len(p) for p in polys])
    return ma._Cells(verts, owner, np.arange(len(verts)), len(polys)), polys


def _assert_same_cut(got, want, k):
    (got_v, got_l), (want_v, want_l) = got, want
    assert len(got_v) == len(want_v), k
    np.testing.assert_allclose(got_v, np.reshape(want_v, (-1, 2)), rtol=0, atol=1e-14)
    assert got_l == list(want_l), k


@pytest.mark.parametrize("seed", range(4))
def test_clip_matches_one_halfplane_oracle(seed):
    rng = np.random.default_rng(seed)
    cells, polys = _convex_layout(rng, rng.integers(3, 9, 12))
    normal = rng.normal(size=(12, 2))
    offset = np.einsum("ij,ij->i", normal, [p.mean(axis=0) for p in polys])
    offset += rng.normal(0, 0.3, 12)
    # wholly inside, wholly outside, the zero half-plane, and lines through
    # a vertex, along x and along y
    offset[0], offset[1] = 1e6, -1e6
    normal[2], offset[2] = 0.0, 0.0
    normal[3], offset[3] = [1.0, 0.0], polys[3][1, 0]
    normal[4], offset[4] = [0.0, -1.0], -polys[4][0, 1]
    cut = np.arange(100, 112)
    got = cells.clip(normal, offset, cut)
    assert (np.diff(got.owner) >= 0).all()
    assert got.cell(1)[0].shape == (0, 2)
    for k in (0, 2):
        _assert_same_cut(got.cell(k), cells.cell(k), k)
    for k, poly in enumerate(polys):
        labels = cells.cell(k)[1]
        want = clip_halfplane(poly, labels, normal[k], offset[k], int(cut[k]))
        _assert_same_cut(got.cell(k), want, k)


@pytest.mark.parametrize("seed", range(4))
def test_clip_rounds_match_convex_clip(seed):
    # each polygon cut by its own number of half-planes, the missing rounds
    # zero half-planes
    rng = np.random.default_rng(seed)
    cells, polys = _convex_layout(rng, rng.integers(3, 9, 10))
    cells = ma._Cells(cells.verts, cells.owner, np.full(len(cells.owner), -1), cells.n)
    counts = rng.integers(0, 7, len(polys))
    planes = []
    for poly, m in zip(polys, counts):
        normal = rng.normal(size=(m, 2))
        planes.append(np.column_stack(
            [normal, normal @ poly.mean(axis=0) + rng.uniform(-0.2, 0.6, m)]))
    for r in range(counts.max()):
        hp = np.array([p[r] if r < len(p) else np.zeros(3) for p in planes])
        cells = cells.clip(hp[:, :2], hp[:, 2], np.full(len(polys), r))
    for k, (poly, hp) in enumerate(zip(polys, planes)):
        want = convex_clip(poly, hp, labels=list(range(len(hp))))
        _assert_same_cut(cells.cell(k), want, k)


def test_clockwise_window_gives_the_same_cells():
    nodes, values, _ = jittered_grid(8, seed=3)
    window = planar.box_polygon(0.0, 0.0, 0.25)
    ccw = ma._cells(nodes, values, range(len(nodes)), window)
    cw = ma._cells(nodes, values, range(len(nodes)), window[::-1])
    for i in range(len(nodes)):
        _assert_cell_equal(cw.cell(i), ccw.cell(i), i)
    grid = grid_problem(4, 4.0)
    phi = lambda p: np.exp(-np.sum((p - 1.5) ** 2, axis=1))
    want = masses_from_density(grid.domain, grid.interior_nodes,
                               grid.boundary_nodes, phi)
    got = masses_from_density(grid.domain[::-1], grid.interior_nodes,
                              grid.boundary_nodes, phi)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_cell_errors_are_named():
    u = cone_function()
    with pytest.raises(UnboundedCell):
        ma._cells(u.nodes, u.values, [0, 1])
    assert issubclass(UnboundedCell, ValueError)
    nodes = np.vstack([u.nodes, u.nodes[:1]])
    with pytest.raises(DuplicateNodes):
        ma._cells(nodes, np.append(u.values, 0.5), [0])
    assert issubclass(DuplicateNodes, ValueError)



def test_public_cell_entry_points_name_duplicate_nodes():
    u = cone_function()
    twin = ma.PLConvexFunction(nodes=np.vstack([u.nodes, u.nodes[:1]]),
                               values=np.append(u.values, 0.5), domain=u.domain)
    with pytest.raises(DuplicateNodes):
        ma.subgradient_cell_polygon(twin.nodes, twin.values, 0)
    with pytest.raises(DuplicateNodes):
        ma.ma_measure(twin, 0)


def test_cone_atom_cell():
    u = cone_function()
    cell = ma.ma_measure(u, 0)
    assert abs(cell.area - 2.0) < 1e-12
    want = {(-1, 0), (1, 0), (0, -1), (0, 1)}
    got = {tuple(np.round(v, 9)) for v in cell.polygon}
    assert got == want


def test_quadratic_total_equals_domain_area():
    rng = np.random.default_rng(3)
    dom = np.array([[0, 0], [3, 0], [3, 2], [0, 2]], float)
    inner = np.column_stack([rng.uniform(0.3, 2.7, 15), rng.uniform(0.3, 1.7, 15)])
    nodes = np.vstack([dom, inner])
    values = 0.5 * (nodes[:, 0] ** 2 + nodes[:, 1] ** 2)
    u = ma.PLConvexFunction(nodes=nodes, values=values, domain=dom)
    total = 0.0
    for i in range(len(nodes)):
        try:
            total += ma.ma_measure(u, i, clip=dom).area
        except NotEnvelopeVertex:
            pass
    assert abs(total - 6.0) < 1e-9


def test_cells_tile_any_window():
    u = random_pl(11)
    window = planar.box_polygon(0.0, 0.0, 6.0)
    total = 0.0
    for i in range(len(u.nodes)):
        try:
            total += ma.ma_measure(u, i, clip=window).area
        except NotEnvelopeVertex:
            pass
    assert abs(total - 144.0) < 1e-9


def test_monte_carlo_oracle():
    u = random_pl(4)
    interior = interior_indices(u)
    box = planar.box_polygon(0.0, 0.0, 4.0)
    mc = monte_carlo_cell_areas(u, samples=400_000, seed=0, box=box)
    for i in interior:
        try:
            cell = ma.ma_measure(u, int(i))
        except NotEnvelopeVertex:
            continue
        if cell.area > 0.05:
            assert abs(mc[i] - cell.area) / cell.area < 0.05


def test_off_envelope_node_flagged():
    u = cone_function()
    lifted = ma.PLConvexFunction(
        nodes=np.vstack([u.nodes, [[0.5, 0.0]]]),
        values=np.concatenate([u.values, [0.9]]),  # strictly above the cone
        domain=u.domain,
    )
    flags = envelope_flags(lifted)
    assert not flags[-1]
    with pytest.raises(NotEnvelopeVertex):
        ma.ma_measure(lifted, len(lifted.nodes) - 1)


def test_boundary_cell_requires_clip():
    u = cone_function()
    with pytest.raises(ValueError):
        ma.ma_measure(u, 1)
    cell = ma.ma_measure(u, 1, clip=u.domain)
    assert cell.area > 0


def test_translation_covariance():
    u = random_pl(6)
    a = np.array([0.35, -0.2])
    shifted = ma.PLConvexFunction(
        nodes=u.nodes, values=u.values + u.nodes @ a + 1.7, domain=u.domain
    )
    for i in interior_indices(u):
        try:
            c0 = ma.ma_measure(u, int(i))
        except NotEnvelopeVertex:
            continue
        c1 = ma.ma_measure(shifted, int(i))
        assert abs(c0.area - c1.area) < 1e-10
        # the cell translates by a in slope space
        np.testing.assert_allclose(
            np.sort(c0.polygon, axis=0) + a, np.sort(c1.polygon, axis=0),
            atol=1e-9,
        )


def test_conditional_curvature_constants():
    u = cone_function()
    assert abs(ma.conditional_curvature(u, 0) - 2.0) < 1e-12
    two = ma.conditional_curvature(u, 0, theta=lambda p1, p2, z, x1, x2: 2.0 + 0 * p1)
    assert abs(two - 4.0) < 1e-12


def test_conditional_curvature_polynomial_exact():
    u = cone_function()
    # degree-5 rule integrates quartics exactly over the cell;
    # integral of p1^2 p2^2 over the L1 ball is 4/3 * B(3,4) = 1/45
    val = ma.conditional_curvature(
        u, 0, theta=lambda p1, p2, z, x1, x2: 1.0 + p1**2 * p2**2
    )
    assert abs(val - (2.0 + 1.0 / 45.0)) < 1e-12


def test_conditional_curvature_smooth_vs_mc():
    u = cone_function()
    theta = lambda p1, p2, z, x1, x2: 1.0 / (1.0 + p1**2 + p2**2)
    val = ma.conditional_curvature(u, 0, theta=theta)
    rng = np.random.default_rng(2)
    pts = rng.random((2_000_000, 2)) * 2 - 1
    inside = np.abs(pts[:, 0]) + np.abs(pts[:, 1]) <= 1
    mc = 4.0 * float(np.mean(theta(pts[inside][:, 0], pts[inside][:, 1], 0, 0, 0))
                     * np.mean(inside))
    assert abs(val - mc) / mc < 0.005


def test_quadrature_of_zero_area_polygons():
    # a cell met by solve_ma: two corners, each listed twice
    gaussian = lambda pts: np.exp(-(pts[:, 0] ** 2 + pts[:, 1] ** 2))
    four_gon = np.array([[-0.119, -0.034], [-0.119, -0.034],
                         [-0.289, -0.204], [-0.289, -0.204]])
    assert abs(planar.polygon_quad(gaussian, four_gon, rel_tol=1e-8)) < 1e-15
    # a sliver whose area is rounding noise, not exactly zero
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=2), rng.normal(size=2)
    along = a + np.sort(rng.random(4))[:, None] * (b - a)
    sliver = np.vstack([along, along[::-1] + rng.normal(size=(4, 2)) * 1e-17])
    assert abs(planar.polygon_quad(gaussian, sliver, rel_tol=1e-10)) < 1e-14


def test_batched_quadrature_matches_per_triangle():
    # one weight call per refinement level gives the sum of the depth-first,
    # one-triangle-at-a-time quadrature on the same triangles
    rng = np.random.default_rng(12)
    for _ in range(12):
        pts = rng.normal(size=(int(rng.integers(3, 12)), 2))
        pts = pts * rng.uniform(0.1, 3.0) + rng.normal(size=2)
        poly = pts[ConvexHull(pts).vertices]
        s = rng.uniform(0.3, 3.0)
        gaussian = lambda p: np.exp(-s * (p[:, 0] ** 2 + p[:, 1] ** 2))
        for rel_tol in (1e-3, 1e-6):
            want = per_triangle_quad(gaussian, poly, rel_tol=rel_tol)
            got = planar.polygon_quad(gaussian, poly, rel_tol=rel_tol)
            assert abs(got - want) <= 1e-14 * abs(want), (got, want)


def test_quadrature_failure_on_nonfinite():
    u = cone_function()

    def bad_theta(p1, p2, z, x1, x2):
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0 / (p1 - p1)

    with pytest.raises(QuadratureFailure):
        ma.conditional_curvature(u, 0, theta=bad_theta)


def _weight_of_all(p1, p2, z, x1, x2):
    """A weight that reads its node's value and position at every point."""
    return np.exp(-0.3 * z - (p1 - 0.2 * x1) ** 2 - (p2 + 0.1 * x2) ** 2)


@pytest.mark.parametrize("rel_tol", [1e-3, 1e-6, 1e-9])
@pytest.mark.parametrize("seed", range(4))
def test_batched_masses_match_per_cell(seed, rel_tol):
    u = random_pl(seed)
    which = np.arange(len(u.nodes))
    cells = ma._cells(u.nodes, u.values, which, planar.box_polygon(0.0, 0.0, 3.0))
    got = ma._cell_masses(u.nodes, u.values, which, cells, _weight_of_all, rel_tol)
    want = per_cell_masses(u.nodes, u.values, which, cells, _weight_of_all, rel_tol)
    assert (np.abs(got - want) <= rel_tol * np.abs(want)).all(), (got, want)


def test_batched_masses_of_degenerate_cells():
    # an empty cell, a 2-vertex cell and a rounding-noise sliver among
    # whole ones, each with its own node value and position
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=2), rng.normal(size=2)
    along = a + np.sort(rng.random(4))[:, None] * (b - a)
    polys = {
        0: planar.box_polygon(0.2, -0.1, 0.5),
        2: np.array([[0.1, 0.1], [0.4, -0.3]]),
        3: np.vstack([along, along[::-1] + rng.normal(size=(4, 2)) * 1e-17]),
        4: np.array([[0.0, 0.0], [1.0, 0.2], [0.3, 0.9]]),
    }
    verts = np.vstack(list(polys.values()))
    owner = np.concatenate([np.full(len(p), k) for k, p in polys.items()])
    cells = ma._Cells(verts, owner, np.full(len(owner), -1), 5)
    nodes, values, which = rng.normal(size=(5, 2)), rng.normal(size=5), np.arange(5)
    for rel_tol in (1e-3, 1e-6, 1e-9):
        got = ma._cell_masses(nodes, values, which, cells, _weight_of_all, rel_tol)
        want = per_cell_masses(nodes, values, which, cells, _weight_of_all, rel_tol)
        assert got[1] == got[2] == 0.0 and abs(got[3]) < 1e-14
        assert (np.abs(got - want) <= rel_tol * np.abs(want) + 1e-14).all(), (got, want)


def test_one_weight_call_per_level_for_the_grid():
    calls = []

    def theta(p1, p2, z, x1, x2):
        calls.append(len(p1))
        return _weight_of_all(p1, p2, z, x1, x2)

    for n_side in (4, 16):
        grid = grid_problem(n_side, 3.0)
        nodes, idx = grid.all_nodes(), np.arange(len(grid.interior_nodes))
        values = 0.2 * np.sum((nodes - 1.5) ** 2, axis=1)
        cells = ma._cells(nodes, values, idx)
        for max_depth in (2, 30):
            calls.clear()
            ma._cell_masses(nodes, values, idx, cells, theta, 1e-12, max_depth)
            assert 2 <= len(calls) <= max_depth + 2
        calls.clear()
        ma._mass_jacobian(nodes, values, idx, cells, theta)
        assert len(calls) == 1


def test_forward_monotonicity_single_move():
    u = random_pl(8)
    i = int(interior_indices(u)[0])
    j = int(interior_indices(u)[1])
    try:
        m_i0 = ma.conditional_curvature(u, i)
    except NotEnvelopeVertex:
        m_i0 = 0.0
    try:
        m_j0 = ma.conditional_curvature(u, j)
    except NotEnvelopeVertex:
        m_j0 = 0.0
    lowered = ma.PLConvexFunction(
        nodes=u.nodes, values=u.values.copy(), domain=u.domain
    )
    lowered.values[i] -= 0.05
    m_i1 = ma.conditional_curvature(lowered, i)
    try:
        m_j1 = ma.conditional_curvature(lowered, j)
    except NotEnvelopeVertex:
        m_j1 = 0.0
    assert m_i1 >= m_i0 - 1e-12
    assert m_j1 <= m_j0 + 1e-12
