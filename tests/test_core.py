import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import hull_point_sets, support_cases
from oracles import (
    newell,
    per_face_polytope_from_mesh,
    per_face_polytope_from_support,
    solid_angle_monte_carlo,
    total_normal_cone_area,
    union_find_convex_hull,
)
from ovaloid import core, planar, shapes
from ovaloid.errors import (
    DegenerateInput,
    DegenerateVertex,
    EmptyBody,
    InvalidPolytope,
    MalformedGeometry,
    NonPositiveScale,
    OvaloidError,
    UnboundedBody,
)
from ovaloid.minkowski_solver import ORIGIN_MARGIN


def test_cube_hull_structure(cube):
    assert len(cube.faces) == 6
    assert len(cube.vertices) == 8
    np.testing.assert_allclose(cube.areas, 1.0, atol=1e-14)
    np.testing.assert_allclose(np.sort(cube.support_numbers), 0.5, atol=1e-14)
    # normals are the signed axes
    total = np.abs(cube.normals).sum(axis=0)
    np.testing.assert_allclose(total, 2.0, atol=1e-14)


def test_tetrahedron_hull():
    tet = shapes.regular_tetrahedron()
    assert len(tet.faces) == 4
    assert all(len(f) == 3 for f in tet.faces)
    np.testing.assert_allclose(tet.areas, tet.areas[0], rtol=1e-12)


def test_random_hull_closing_defect():
    poly = shapes.random_hull(50, seed=0)
    defect = core.closing_defect(poly.normals, poly.areas)
    assert np.linalg.norm(defect) <= 1e-9 * poly.areas.sum()
    assert np.linalg.norm(defect) <= 1e-9


def test_closing_defect_single_face():
    np.testing.assert_allclose(
        core.closing_defect(np.array([[0.0, 0.0, 1.0]]), np.array([1.0])),
        [0.0, 0.0, 1.0],
    )


def test_degenerate_hull_inputs():
    flat = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], float)
    with pytest.raises(DegenerateInput):
        core.convex_hull(flat)
    with pytest.raises(DegenerateInput):
        core.convex_hull(flat[:3])


def test_from_support_cube(cube):
    p = core.polytope_from_support(cube.normals, cube.support_numbers)
    np.testing.assert_allclose(np.sort(p.areas), 1.0, atol=1e-12)
    assert len(p.vertices) == 8
    # scaling h by 2 scales areas by 4
    p2 = core.polytope_from_support(cube.normals, 2 * cube.support_numbers)
    np.testing.assert_allclose(p2.areas, 4.0, atol=1e-12)


def test_from_support_octahedron_roundtrip():
    n = core.unit_vectors(
        np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1)
                  for sz in (-1, 1)], float) / np.sqrt(3)
    )
    p = core.polytope_from_support(n, np.full(8, 1 / np.sqrt(3)))
    assert len(p.vertices) == 6
    direct = core.convex_hull(p.vertices)
    np.testing.assert_allclose(
        np.sort(direct.areas), np.sort(p.areas), rtol=1e-12
    )


def test_from_support_matches_per_face_reference():
    # the two number the vertices differently, so each face is compared as
    # the cyclic sequence of its vertex coordinates, exactly and in
    # orientation; a face cut off in one is cut off in the other
    dead = 0
    for n, h in support_cases():
        fast = core.polytope_from_support(n, h)
        ref = per_face_polytope_from_support(n, h)
        assert len(fast.faces) == len(ref.faces)
        for a, b in zip(fast.faces, ref.faces):
            a = list(map(tuple, fast.vertices[list(a)]))
            b = list(map(tuple, ref.vertices[list(b)]))
            assert a == b == [] or _same_cycle(a, b)
        dead += sum(len(f) == 0 for f in fast.faces)
        assert np.abs(fast.areas - ref.areas).max() <= 1e-14 * ref.areas.max()
        assert np.abs(fast.support_numbers - ref.support_numbers).max() \
            <= 1e-14 * np.abs(h).max()
    assert dead > 100  # the perturbed supports do cut faces off


def _same_cycle(a, b):
    return len(a) == len(b) and a[0] in b and b[b.index(a[0]):] + b[:b.index(a[0])] == a


def _assert_same_geometry(fast, ref):
    assert np.abs(fast.normals - ref.normals).max() <= 1e-14
    assert np.abs(fast.areas - ref.areas).max() <= 1e-14 * ref.areas.max()
    assert np.abs(fast.support_numbers - ref.support_numbers).max() \
        <= 1e-14 * np.abs(ref.support_numbers).max()


def test_hull_matches_union_find_reference():
    merged = 0
    for pts in hull_point_sets():
        fast = core.convex_hull(pts)
        ref = union_find_convex_hull(pts)
        assert len(fast.faces) == len(ref.faces)
        assert all(_same_cycle(a, b) for a, b in zip(fast.faces, ref.faces))
        merged += sum(len(f) > 3 for f in fast.faces)
        _assert_same_geometry(fast, ref)
    assert merged == 12  # the squares of the cube and of its jittered copy


def test_mesh_matches_per_face_reference():
    for pts in hull_point_sets():
        hull = core.convex_hull(pts)
        fast = core.polytope_from_mesh(hull.vertices, hull.faces)
        ref = per_face_polytope_from_mesh(hull.vertices, hull.faces)
        assert fast.faces == ref.faces
        _assert_same_geometry(fast, ref)


def test_half_edges_pair_each_edge_with_its_reverse():
    # a tetrahedron with one face missing: its three rim edges have no twin
    faces = ((0, 2, 1), (0, 1, 3), (1, 2, 3))
    face, tail, head, twin = core.half_edges(faces)
    assert face.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2]
    assert tail.tolist() == [0, 2, 1, 0, 1, 3, 1, 2, 3]
    assert head.tolist() == [2, 1, 0, 1, 3, 0, 2, 3, 1]
    glued = twin >= 0
    assert glued.sum() == 6
    assert (tail[twin[glued]] == head[glued]).all()
    assert (head[twin[glued]] == tail[glued]).all()
    assert sorted(zip(tail[~glued], head[~glued])) == [(0, 2), (2, 3), (3, 0)]
    assert all(len(a) == 0 for a in core.half_edges(()))


def test_half_edges_heads_follow_each_cycle_past_empty_ones():
    faces = ((0, 2, 1), (), (3, 4, 5, 6), (7, 1, 2), ())
    face, tail, head, _ = core.half_edges(faces)
    assert face.tolist() == [0, 0, 0, 2, 2, 2, 2, 3, 3, 3]
    assert head.tolist() == [c[(k + 1) % len(c)] for c in faces for k in range(len(c))]


def _cycle_next_reference(owner):
    """The successor of each entry within its run of equal owners, by a
    Python walk over the runs."""
    nxt = []
    for _, run in itertools.groupby(range(len(owner)), key=owner.__getitem__):
        run = list(run)
        nxt += run[1:] + run[:1]
    return nxt


@pytest.mark.parametrize("seed", range(6))
def test_cycle_next_matches_a_per_group_successor(seed):
    rng = np.random.default_rng(seed)
    # empty groups (gaps in the owner ids, also at either end) and groups of
    # one entry among longer ones
    counts = rng.integers(0, 5, rng.integers(1, 40))
    owner = np.repeat(np.arange(len(counts)), counts)
    assert planar.cycle_next(owner, len(counts)).tolist() == \
        _cycle_next_reference(owner.tolist())
    assert planar.cycle_next(owner, len(counts) + 3).tolist() == \
        _cycle_next_reference(owner.tolist())


def test_undirected_edges_count_face_sides():
    # the tetrahedron with one face missing, one face wound the wrong way and
    # one extra triangle on the edge (0, 1): sides counted whatever the winding
    faces = ((0, 2, 1), (1, 0, 3), (1, 2, 3), (0, 1, 4))
    edges, sides = core.undirected_edges(faces)
    count = {}
    for cyc in faces:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            count[min(a, b), max(a, b)] = count.get((min(a, b), max(a, b)), 0) + 1
    assert edges.tolist() == sorted(map(list, count))
    assert sides.tolist() == [count[tuple(e)] for e in edges.tolist()]
    assert sides.tolist() == [3, 1, 1, 1, 2, 2, 1, 1]
    assert core.undirected_edges(())[0].shape == (0, 2)


def test_from_support_unbounded_and_empty():
    up = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0], [0.6, 0.8, 0]])
    with pytest.raises(UnboundedBody):
        core.polytope_from_support(up, np.ones(4))
    n = np.vstack([np.eye(3), -np.eye(3)])
    h = np.array([1.0, 1, 1, -2, 1, 1])  # x <= 1 and -x <= -2: empty
    with pytest.raises(EmptyBody):
        core.polytope_from_support(n, h)


def _coordinate_ids(verts, ref, eps):
    """For each vertex, the index of the first ``ref`` vertex within eps."""
    near = np.linalg.norm(verts[:, None] - ref[None], axis=2) <= eps
    assert near.any(axis=1).all()
    return near.argmax(axis=1)


def test_intersect_about_origin_matches_lp_path():
    # qhull numbers the vertices by interior point, so faces are compared
    # as sets of vertex positions; the worst area gap measured on these
    # cases is 8.1e-14 of the largest area
    cases = [(n, h) for n, h in support_cases()
             if h.min() > ORIGIN_MARGIN * np.abs(h).max()]
    assert len(cases) >= 10
    for seed, size in enumerate(np.linspace(20, 400, 8).astype(int)):
        src = shapes.random_hull(size, seed=seed)
        cases.append((src.normals, src.support_numbers))
    for n, h in cases:
        lp = core.polytope_from_support(n, h)
        origin = core.dual_hull(n, h, np.zeros(3)).polytope()
        scale = np.abs(h).max()
        for poly in (lp, origin):
            for i, f in enumerate(poly.faces):
                assert np.abs(poly.vertices[list(f)] @ n[i] - h[i]).max(initial=0.0) \
                    <= 1e-14 * scale
        lp_ids = _coordinate_ids(lp.vertices, lp.vertices, 1e-12 * scale)
        origin_ids = _coordinate_ids(origin.vertices, lp.vertices, 1e-12 * scale)
        assert [set(lp_ids[list(f)]) for f in lp.faces] \
            == [set(origin_ids[list(f)]) for f in origin.faces]
        assert np.abs(origin.areas - lp.areas).max() <= 2e-13 * lp.areas.max()


def test_intersect_about_rejects_unbounded_body():
    # every normal has z > 0.3, so the body runs off toward z = -inf; qhull
    # itself raises nothing and returns 12 intersections
    t = 2 * np.pi * np.arange(8) / 8
    z = np.linspace(0.35, 0.9, 8)
    r = np.sqrt(1 - z**2)
    n = np.column_stack([r * np.cos(t), r * np.sin(t), z])
    with pytest.raises(UnboundedBody):
        core.dual_hull(n, np.ones(8), np.zeros(3))


def test_hull_support_roundtrip_reproduces_areas():
    for seed in (1, 2, 3):
        poly = shapes.random_hull(30, seed=seed)
        back = core.polytope_from_support(poly.normals, poly.support_numbers)
        np.testing.assert_allclose(back.areas, poly.areas, rtol=1e-9)


def test_normal_cone_cube_and_tetra(cube):
    for v in range(8):
        assert abs(core.normal_cone_area(cube, v) - np.pi / 2) < 1e-12
    tet = shapes.regular_tetrahedron()
    for v in range(4):
        assert abs(core.normal_cone_area(tet, v) - np.pi) < 1e-12


def test_normal_cone_total_and_monte_carlo():
    poly = shapes.random_hull(30, seed=7)
    total = total_normal_cone_area(poly)
    assert abs(total - 4 * np.pi) < 1e-9
    # Monte-Carlo oracle on the largest cone
    areas = [core.normal_cone_area(poly, v) for v in range(len(poly.vertices))]
    v = int(np.argmax(areas))
    est = solid_angle_monte_carlo(poly, v, samples=400_000, seed=1)
    sigma = np.sqrt(areas[v] * 4 * np.pi / 400_000)
    assert abs(est - areas[v]) < 5 * sigma


def test_normal_cone_needs_three_faces(cube):
    chopped = core.ConvexPolytope(
        vertices=cube.vertices,
        faces=cube.faces[:2],
        normals=cube.normals[:2],
        areas=cube.areas[:2],
        support_numbers=cube.support_numbers[:2],
    )
    with pytest.raises(DegenerateVertex):
        core.normal_cone_area(chopped, cube.faces[0][0])


def test_normal_cone_flat_vertex_rejected():
    # cube with triangulated faces: each face-centre vertex has coplanar
    # incident normals, i.e. a flat normal cone
    verts, tris = shapes.cube_with_face_centers()
    normals, areas, supports = [], [], []
    for t in tris:
        nvec, area = newell(verts[list(t)])
        normals.append(nvec)
        areas.append(area)
        supports.append(float((verts @ nvec).max()))
    flatpoly = core.ConvexPolytope(
        vertices=verts,
        faces=tuple(tuple(int(i) for i in t) for t in tris),
        normals=np.array(normals),
        areas=np.array(areas),
        support_numbers=np.array(supports),
    )
    with pytest.raises(DegenerateVertex):
        core.normal_cone_area(flatpoly, 8)  # first face-centre vertex


@settings(max_examples=60, deadline=None)
@given(st.floats(0.2, 5.0), st.integers(4, 30))
def test_support_homogeneity(lam, seed):
    poly = shapes.random_hull(12, seed=seed)
    scaled = poly.scaled(lam)
    np.testing.assert_allclose(
        scaled.support_numbers, lam * poly.support_numbers, rtol=1e-12
    )
    np.testing.assert_allclose(scaled.areas, lam**2 * poly.areas, rtol=1e-12)
    # scaling vertices directly agrees
    rebuilt = core.convex_hull(poly.vertices * lam)
    np.testing.assert_allclose(
        np.sort(rebuilt.areas), np.sort(scaled.areas), rtol=1e-9
    )


def test_volume_identity():
    for seed in (0, 4):
        poly = shapes.random_hull(24, seed=seed)
        v1 = poly.volume()
        v2 = (poly.areas @ poly.support_numbers) / 3.0
        assert abs(v1 - v2) <= 1e-9 * v1


def test_centering():
    poly = shapes.random_hull(20, seed=9).translated([0.3, -0.2, 1.1])
    cen = poly.centered()
    assert np.linalg.norm(cen.centroid()) < 1e-12
    np.testing.assert_allclose(cen.areas, poly.areas, rtol=1e-12)


def test_validate_rejects_bad_polytope(cube):
    bad = core.ConvexPolytope(
        vertices=cube.vertices * 1.5,
        faces=cube.faces,
        normals=cube.normals,
        areas=cube.areas,
        support_numbers=cube.support_numbers,
    )
    with pytest.raises(ValueError):
        bad.validate()


def _raises_named_value_error(error, fn, *args):
    with pytest.raises(error) as err:
        fn(*args)
    assert isinstance(err.value, OvaloidError) and isinstance(err.value, ValueError)


def test_malformed_arrays_raise_malformed_geometry(cube):
    for points in (np.zeros((4, 2)), [[0.0, 0.0, np.nan]] * 4):
        _raises_named_value_error(MalformedGeometry, core.as_points, points)
    _raises_named_value_error(MalformedGeometry, core.unit_vectors, 2 * cube.normals)
    _raises_named_value_error(MalformedGeometry, core.closing_defect,
                              cube.normals, cube.areas[:5])
    _raises_named_value_error(MalformedGeometry, core.polytope_from_support,
                              cube.normals, cube.support_numbers[:5])


def test_broken_boundary_complex_raises_invalid_polytope(cube):
    outside = dataclasses.replace(cube, vertices=cube.vertices * 1.5)
    open_fan = dataclasses.replace(cube, support_numbers=cube.support_numbers + 1.0)
    _raises_named_value_error(InvalidPolytope, outside.validate)
    _raises_named_value_error(InvalidPolytope, open_fan.validate)
    _raises_named_value_error(InvalidPolytope, core.polytope_from_mesh,
                              cube.vertices, list(cube.faces) + [(0, 1)])


def test_mesh_without_faces_raises_invalid_polytope(cube):
    # named, not numpy's error from reducing zero support numbers
    _raises_named_value_error(InvalidPolytope, core.polytope_from_mesh, cube.vertices, [])


def test_non_positive_scale_is_named(cube):
    for s in (0.0, -2.0):
        _raises_named_value_error(NonPositiveScale, cube.scaled, s)
