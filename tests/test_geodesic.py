import numpy as np
import pytest

from conftest import corner_point, random_face_point
from oracles import brute_force_distance, windowed_search
from ovaloid import intrinsic_metric as im
from ovaloid import shapes
from ovaloid.errors import (
    ArclengthOutOfRange,
    InvalidNet,
    NonConvexPolygon,
    SearchBudgetExceeded,
)


def test_adjacent_face_centers(cube_net):
    (a, _), (b, _) = cube_net.identifications[0]
    pa = im.SurfacePoint(a, tuple(cube_net.polygons[a].mean(axis=0)))
    pb = im.SurfacePoint(b, tuple(cube_net.polygons[b].mean(axis=0)))
    path = im.shortest_path(cube_net, pa, pb)
    assert abs(path.length - 1.0) < 1e-12
    assert len(path.face_sequence) == 2


def test_opposite_corners_sqrt5(cube_net):
    p, q = corner_point(cube_net, 0), corner_point(cube_net, 7)
    path = im.shortest_path(cube_net, p, q)
    assert abs(path.length - np.sqrt(5.0)) < 1e-9
    oracle = brute_force_distance(cube_net, p, q, max_faces=4)
    assert abs(path.length - oracle) < 1e-9


def test_same_face_epsilon(cube_net):
    c = cube_net.polygons[2].mean(axis=0)
    p = im.SurfacePoint(2, tuple(c))
    q = im.SurfacePoint(2, tuple(c + [0.003, 0.004]))
    path = im.shortest_path(cube_net, p, q)
    assert abs(path.length - 0.005) < 1e-15
    assert path.face_sequence == (2,)


def test_random_pairs_match_oracle(cube_net):
    rng = np.random.default_rng(12)
    for _ in range(25):
        a = random_face_point(cube_net, rng)
        b = random_face_point(cube_net, rng)
        d = im.shortest_path(cube_net, a, b).length
        assert abs(d - brute_force_distance(cube_net, a, b, max_faces=4)) < 1e-9


def test_symmetry_and_triangle_inequality(cube_net):
    rng = np.random.default_rng(5)
    pts = [random_face_point(cube_net, rng) for _ in range(6)]
    dist = {}
    for i in range(6):
        for j in range(6):
            if i != j:
                dist[i, j] = im.shortest_path(cube_net, pts[i], pts[j]).length
    for i in range(6):
        for j in range(6):
            if i == j:
                continue
            assert abs(dist[i, j] - dist[j, i]) < 1e-12
            for k in range(6):
                if k in (i, j):
                    continue
                assert dist[i, j] <= dist[i, k] + dist[k, j] + 1e-9


def test_invariance_under_relabeling_and_motion(cube_net):
    rng = np.random.default_rng(8)
    p = random_face_point(cube_net, rng)
    q = random_face_point(cube_net, rng)
    d0 = im.shortest_path(cube_net, p, q).length

    # relabel polygons and apply an independent rigid motion to each
    perm = rng.permutation(len(cube_net.polygons))
    polys = [None] * len(cube_net.polygons)
    motion = []
    for f, poly in enumerate(cube_net.polygons):
        ang = rng.uniform(0, 2 * np.pi)
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        t = rng.uniform(-3, 3, 2)
        polys[perm[f]] = poly @ rot.T + t
        motion.append((rot, t))
    idents = tuple(
        ((int(perm[a]), ea), (int(perm[b]), eb))
        for (a, ea), (b, eb) in cube_net.identifications
    )
    net2 = im.MetricNet(polygons=tuple(polys), identifications=idents)

    def move(sp):
        rot, t = motion[sp.polygon]
        xy = rot @ sp.coords + t
        return im.SurfacePoint(int(perm[sp.polygon]), (float(xy[0]), float(xy[1])))

    d1 = im.shortest_path(net2, move(p), move(q)).length
    assert abs(d0 - d1) < 1e-9


def test_point_at_endpoints(cube_net):
    p, q = corner_point(cube_net, 0), corner_point(cube_net, 7)
    path = im.shortest_path(cube_net, p, q)
    start = path.point_at(0.0)
    end = path.point_at(path.length)
    assert start.polygon == path.points[0].polygon
    assert np.allclose(start.coords, path.points[0].coords)
    # the end may come back in any chart of the identified endpoint
    reps = im._point_representations(cube_net, path.points[-1])
    assert any(
        f == end.polygon and np.allclose(xy, end.coords, atol=1e-9)
        for f, xy in reps
    )
    # midpoint splits the length
    mid = path.point_at(path.length / 2)
    d1 = im.shortest_path(cube_net, p, mid).length
    assert abs(d1 - path.length / 2) < 1e-9


def test_reversed_path(cube_net):
    p, q = corner_point(cube_net, 0), corner_point(cube_net, 7)
    path = im.shortest_path(cube_net, p, q)
    rev = path.reversed()
    assert rev.length == path.length
    assert rev.face_sequence == tuple(reversed(path.face_sequence))
    a = path.point_at(0.7)
    b = rev.point_at(path.length - 0.7)
    try:
        d = im.shortest_path(cube_net, a, b).length
    except ValueError:  # the two descriptions already coincide
        d = 0.0
    assert d < 1e-9


def test_coincident_points_rejected(cube_net):
    c = cube_net.polygons[0].mean(axis=0)
    p = im.SurfacePoint(0, tuple(c))
    with pytest.raises(ValueError):
        im.shortest_path(cube_net, p, p)


def test_budget_guard(cube_net):
    p, q = corner_point(cube_net, 0), corner_point(cube_net, 7)
    with pytest.raises(SearchBudgetExceeded):
        im.shortest_path(cube_net, p, q, max_states=3)


def test_geodesic_on_random_polytope_nets_vs_oracle():
    rng = np.random.default_rng(0)
    for seed in (4, 5, 6):
        poly = shapes.random_hull(12, seed=seed)
        net = im.net_from_polytope(poly)
        for _ in range(6):
            a = random_face_point(net, rng)
            b = random_face_point(net, rng)
            path = im.shortest_path(net, a, b)
            assert np.isfinite(path.length) and path.length > 0
            d_oracle = brute_force_distance(net, a, b, max_faces=5)
            # the windowed search explores a superset of the oracle's
            # sequences, so it can never be longer; when its own path fits
            # the oracle's depth the two agree exactly
            assert path.length <= d_oracle + 1e-12
            if len(path.face_sequence) <= 5:
                assert abs(path.length - d_oracle) <= 1e-9


def test_path_crossings_consistent(cube_net):
    # consecutive exit/entry points describe the same identified edge point
    rng = np.random.default_rng(42)
    for _ in range(10):
        a = random_face_point(cube_net, rng)
        b = random_face_point(cube_net, rng)
        path = im.shortest_path(cube_net, a, b)
        pts = path.points
        for k in range(len(path.face_sequence) - 1):
            exit_sp, enter_sp = pts[2 * k + 1], pts[2 * k + 2]
            f, g = exit_sp.polygon, enter_sp.polygon
            # locate the crossed edge of f and its partner in g
            matched = False
            for e in range(len(cube_net.polygons[f])):
                partner = cube_net.edge_partner.get((f, e))
                if partner is None or partner[0] != g:
                    continue
                p0, p1 = cube_net.edge_points(f, e)
                d = p1 - p0
                s = float((exit_sp.coords - p0) @ d / (d @ d))
                if not (-1e-9 <= s <= 1 + 1e-9):
                    continue
                if np.linalg.norm(p0 + s * d - exit_sp.coords) > 1e-9:
                    continue
                q0, q1 = cube_net.edge_points(*partner)
                expect = q0 + (1.0 - s) * (q1 - q0)
                if np.linalg.norm(expect - enter_sp.coords) <= 1e-9:
                    matched = True
                    break
            assert matched, (k, exit_sp, enter_sp)
        # straight-segment property: per-face segment lengths add up
        total = sum(
            np.linalg.norm(pts[2 * k + 1].coords - pts[2 * k].coords)
            for k in range(len(path.face_sequence))
        )
        assert abs(total - path.length) < 1e-9


@pytest.mark.parametrize("n_points", [12, 40, 100, 202])
def test_float_search_matches_numpy_search(n_points):
    """The float search against the numpy one it replaced, on nets of 20 to
    400 faces: between vertices and between interior points, the same
    length to 1e-12 of the scale and the same faces."""
    net = im.net_from_polytope(shapes.random_hull(n_points, seed=n_points))
    rng = np.random.default_rng(n_points)
    corners = [corner_point(net, int(v)) for v in rng.choice(n_points, 8, replace=False)]
    pairs = list(zip(corners[::2], corners[1::2]))
    pairs += [(random_face_point(net, rng), random_face_point(net, rng)) for _ in range(4)]
    for p, q in pairs:
        path = im.shortest_path(net, p, q)
        length, faces = windowed_search(net, p, q, max_faces=200)
        assert abs(path.length - length) <= 1e-12 * net.scale
        assert path.face_sequence == faces


def test_paths_across_more_than_32_faces_match_the_numpy_search():
    """No cap on the face sequence: v0 to its antipode crosses 36 faces,
    and the search agrees with the numpy one under a cap that does not
    bind."""
    hull = shapes.random_hull(400, seed=7)
    net = im.net_from_polytope(hull)
    p = corner_point(net, 0)
    q = corner_point(net, int(np.argmin(hull.vertices @ hull.vertices[0])))
    path = im.shortest_path(net, p, q)
    length, faces = windowed_search(net, p, q, max_faces=200)
    assert len(path.face_sequence) > 32
    assert path.face_sequence == faces
    assert abs(path.length - length) <= 1e-12 * net.scale


def test_points_in_different_components_fail_before_the_search():
    tet = im.net_from_polytope(shapes.regular_tetrahedron())
    n = len(tet.polygons)
    copy = tuple(((a + n, ea), (b + n, eb)) for (a, ea), (b, eb) in tet.identifications)
    net = im.MetricNet(tet.polygons * 2, tet.identifications + copy)
    assert not im.validate_net(net).connected
    p, q, r = (im.SurfacePoint(f, tuple(net.polygons[f].mean(axis=0))) for f in (0, 1, n))
    assert im.shortest_path(net, p, q).length > 0
    # ten states would not get the search across a single face
    with pytest.raises(InvalidNet, match="different components"):
        im.shortest_path(net, p, r, max_states=10)


def test_reflex_polygon_is_rejected():
    """The straight segment between these points leaves the L; the path
    round its reflex corner is longer."""
    ell = [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]
    net = im.MetricNet(*shapes.doubled_polygon(ell))
    p, q = im.SurfacePoint(0, (1.9, 0.9)), im.SurfacePoint(0, (0.9, 1.9))
    with pytest.raises(NonConvexPolygon, match="polygon 0 has a reflex corner"):
        im.shortest_path(net, p, q)
    # a corner at pi is not reflex
    square = [[0, 0], [1, 0], [2, 0], [2, 2], [0, 2]]
    net = im.MetricNet(*shapes.doubled_polygon(square))
    p, q = im.SurfacePoint(0, (1.9, 0.1)), im.SurfacePoint(0, (0.1, 1.9))
    assert abs(im.shortest_path(net, p, q).length - np.hypot(1.8, 1.8)) < 1e-12


def test_arclength_outside_the_path_is_named(cube_net):
    path = im.shortest_path(cube_net, corner_point(cube_net, 0), corner_point(cube_net, 7))
    with pytest.raises(ArclengthOutOfRange):
        path.point_at(path.length + 0.1)


@pytest.mark.parametrize("src, dst, untied_length", [
    (0, 15, 1.5582643145962733), (1, 17, 0.6978247721237955)])
def test_path_does_not_end_in_a_face_touched_only_at_its_end(src, dst, untied_length):
    """On this hull the search without the tie rule ended these paths by
    stepping into one more face at the end vertex, by a rounding-level
    length gain: its reports ended in two equal points."""
    net = im.net_from_polytope(shapes.random_hull(20, seed=1))
    path = im.shortest_path(net, corner_point(net, src), corner_point(net, dst))
    last, before = path.points[-1], path.points[-2]
    assert (last.polygon, last.xy) != (before.polygon, before.xy)
    assert abs(path.length - untied_length) <= 1e-12 * net.scale
