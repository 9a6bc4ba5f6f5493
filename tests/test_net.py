import numpy as np
import pytest

from conftest import hull_point_sets
from oracles import interior_angles, per_face_net_from_polytope, union_find_vertex_classes
from ovaloid import core, intrinsic_metric as im
from ovaloid import shapes
from ovaloid.errors import InvalidNet, MalformedNet


def equilateral_double():
    tri = np.array([[0, 0], [1, 0], [0.5, np.sqrt(3) / 2]])
    polys, ids = shapes.doubled_polygon(tri)
    return im.MetricNet(polygons=polys, identifications=ids)


def test_cube_net_passes(cube_net):
    rep = im.validate_net(cube_net)
    assert rep.ok
    assert rep.euler_characteristic == 2
    assert len(cube_net.identifications) == 12
    assert len(cube_net.vertex_classes) == 8
    np.testing.assert_allclose(rep.angle_sums, 1.5 * np.pi, atol=1e-12)


def test_tetrahedron_net_passes():
    net = im.net_from_polytope(shapes.regular_tetrahedron())
    rep = im.validate_net(net)
    assert rep.ok
    assert len(net.polygons) == 4
    assert len(net.identifications) == 6


def test_doubled_triangle_passes():
    net = equilateral_double()
    rep = im.validate_net(net)
    assert rep.ok
    # angle sums are twice the corner angles
    np.testing.assert_allclose(rep.angle_sums, 2 * np.pi / 3, atol=1e-12)


def _stretched_cube_net(base, pair_index, factor=1.01):
    """Stretch one polygon of an identified pair along the shared edge."""
    (a, ea), (_, _) = base.identifications[pair_index]
    poly = base.polygons[a]
    p0, p1 = base.edge_points(a, ea)
    e = (p1 - p0) / np.linalg.norm(p1 - p0)
    stretch = np.eye(2) + (factor - 1.0) * np.outer(e, e)
    polys = list(base.polygons)
    polys[a] = (poly - p0) @ stretch.T + p0
    return im.MetricNet(polygons=tuple(polys), identifications=base.identifications)


def test_every_single_edge_perturbation_caught(cube_net):
    for k in range(len(cube_net.identifications)):
        bad = _stretched_cube_net(cube_net, k)
        rep = im.validate_net(bad)
        assert not rep.edge_lengths_ok
        assert any(m[0] == k for m in rep.edge_mismatches), k


def test_stretched_square_fails_on_four_edges(cube_net):
    polys = list(cube_net.polygons)
    polys[0] = polys[0] * 1.01
    bad = im.MetricNet(polygons=tuple(polys),
                       identifications=cube_net.identifications)
    rep = im.validate_net(bad)
    assert not rep.ok
    assert len(rep.edge_mismatches) == 4


def test_unmatched_edge_reported():
    net = equilateral_double()
    open_net = im.MetricNet(
        polygons=net.polygons, identifications=net.identifications[:2]
    )
    rep = im.validate_net(open_net)
    assert not rep.closed
    assert not rep.sphere_topology_ok
    assert rep.unmatched_edges


def test_angle_condition_violation_reported():
    # doubling a convex polygon keeps every angle sum below 2*pi
    quad = np.array([[0, 0], [1, 0], [1.4, 1.2], [-0.9, 1.1]])
    polys, ids = shapes.doubled_polygon(quad)
    rep = im.validate_net(im.MetricNet(polygons=polys, identifications=ids))
    assert rep.angle_sums_ok
    # a reflex corner doubles to more than 2*pi and must be flagged
    arrow = np.array([[0, 0], [2, 0], [0.2, 0.2], [0, 2]])
    polys, ids = shapes.doubled_polygon(arrow)
    rep2 = im.validate_net(im.MetricNet(polygons=polys, identifications=ids))
    assert not rep2.angle_sums_ok
    assert rep2.angle_violations


def test_vertex_curvatures_cube(cube_net):
    rep = im.vertex_curvatures(cube_net)
    np.testing.assert_allclose(rep.curvatures, np.pi / 2, atol=1e-12)
    assert abs(rep.total - 4 * np.pi) < 1e-12


def test_vertex_curvatures_tetrahedron():
    net = im.net_from_polytope(shapes.regular_tetrahedron())
    rep = im.vertex_curvatures(net)
    np.testing.assert_allclose(rep.curvatures, np.pi, atol=1e-12)


def test_vertex_curvatures_doubled_triangle():
    rep = im.vertex_curvatures(equilateral_double())
    np.testing.assert_allclose(rep.curvatures, 4 * np.pi / 3, atol=1e-12)
    assert abs(rep.total - 4 * np.pi) < 1e-12


def test_invalid_net_raises():
    net = equilateral_double()
    bad = im.MetricNet(
        polygons=(net.polygons[0], net.polygons[1] * 1.1),
        identifications=net.identifications,
    )
    with pytest.raises(InvalidNet):
        im.vertex_curvatures(bad)


def test_egregium_random_hull():
    from ovaloid import core

    poly = shapes.random_hull(30, seed=21)
    net = im.net_from_polytope(poly)
    rep = im.vertex_curvatures(net)
    for lab, w in zip(rep.labels, rep.curvatures):
        assert abs(w - core.normal_cone_area(poly, lab)) < 1e-9
    assert abs(rep.total - 4 * np.pi) < 1e-9


def test_ccw_enforced():
    with pytest.raises(ValueError):
        im.MetricNet(
            polygons=(np.array([[0, 0], [0, 1], [1, 0]]),),  # clockwise
            identifications=(),
        )


def test_net_matches_per_face_reference():
    for pts in hull_point_sets():
        poly = core.convex_hull(pts)
        fast = im.net_from_polytope(poly)
        ref = per_face_net_from_polytope(poly)
        assert fast.identifications == ref.identifications
        assert fast.corner_labels == ref.corner_labels
        assert len(fast.polygons) == len(ref.polygons)
        scale = ref.scale
        for a, b in zip(fast.polygons, ref.polygons):
            assert np.abs(a - b).max() <= 1e-14 * scale
        assert fast.vertex_classes == union_find_vertex_classes(ref)


def test_vertex_classes_match_union_find_reference():
    quad = np.array([[0, 0], [1, 0], [1.4, 1.2], [-0.9, 1.1]])
    nets = [equilateral_double(), im.MetricNet(*shapes.doubled_polygon(quad))]
    # an open net: corners on unglued edges stay in classes of their own
    nets.append(im.MetricNet(nets[1].polygons, nets[1].identifications[:2]))
    for net in nets:
        assert net.vertex_classes == union_find_vertex_classes(net)


@pytest.mark.parametrize("glued", [((0, 0), (5, 0)), ((0, 7), (1, 0)),
                                   ((0, -1), (1, 0)), ((-1, 0), (1, 0))])
def test_identification_out_of_range_rejected(glued):
    net = equilateral_double()
    with pytest.raises(ValueError, match="is not in the net"):
        im.MetricNet(net.polygons, (glued,) + net.identifications[1:])


def test_empty_net_rejected():
    with pytest.raises(ValueError, match="at least one polygon"):
        im.MetricNet(polygons=(), identifications=())


def test_derived_data_matches_per_polygon_reference():
    """Scale, corner classes, edge partners, labelled corners and interior
    angles of the flat layout against per-polygon computations."""
    quad = np.array([[0, 0], [1, 0], [1.4, 1.2], [-0.9, 1.1]])
    doubled = im.MetricNet(*shapes.doubled_polygon(quad))
    nets = [im.net_from_polytope(core.convex_hull(pts)) for pts in hull_point_sets()]
    nets += [equilateral_double(), doubled,
             im.MetricNet(doubled.polygons, doubled.identifications[:2])]
    for net in nets:
        assert net.scale == max(float(np.abs(p).max()) for p in net.polygons)
        classes = union_find_vertex_classes(net)
        labels = [{net.corner_class_of(f, c) for f, c in cls} for cls in classes]
        assert all(len(lab) == 1 for lab in labels)
        assert len(set.union(*labels)) == len(classes)
        partner = {}
        for a, b in net.identifications:
            partner[a], partner[b] = b, a
        assert net.edge_partner == partner
        first = {}
        for corner, label in (net.corner_labels or {}).items():
            first.setdefault(label, corner)
        assert net.labelled_corners == first
        assert np.array_equal(net._angles,
                              np.concatenate([interior_angles(p) for p in net.polygons]))
    with pytest.raises(KeyError):
        nets[0].corner_class_of(0, 3)


def test_edge_in_two_identifications_rejected():
    net = equilateral_double()
    twice = im.MetricNet(net.polygons, net.identifications + net.identifications[:1])
    with pytest.raises(InvalidNet, match="more than one identification"):
        twice.edge_partner
    p = im.SurfacePoint(0, tuple(net.polygons[0].mean(axis=0)))
    q = im.SurfacePoint(1, tuple(net.polygons[1].mean(axis=0)))
    with pytest.raises(InvalidNet, match="more than one identification"):
        im.shortest_path(twice, p, q)


def test_malformed_nets_raise_a_named_value_error():
    net = equilateral_double()
    for polygons, identifications in [
        ((), ()),
        ((np.zeros((2, 2)),), ()),
        ((net.polygons[0][::-1],), ()),
        (net.polygons, (((0, 7), (1, 0)),)),
    ]:
        with pytest.raises(MalformedNet):
            im.MetricNet(polygons, identifications)
