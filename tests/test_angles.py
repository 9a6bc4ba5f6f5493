import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_face_point
from oracles import TooFewSamples, angle_monotonicity_scan
from ovaloid import intrinsic_metric as im
from ovaloid import shapes
from ovaloid.errors import TriangleInequalityViolated


def test_comparison_angle_examples():
    assert abs(im.comparison_angle(1, 1, 1) - np.pi / 3) < 1e-15
    assert abs(im.comparison_angle(1, 1, 2) - np.pi) < 1e-12
    assert abs(im.comparison_angle(3, 4, 5) - np.pi / 2) < 1e-15


def test_comparison_angle_violations():
    with pytest.raises(TriangleInequalityViolated):
        im.comparison_angle(1, 1, 2.1)
    with pytest.raises(TriangleInequalityViolated):
        im.comparison_angle(1, 3, 1.5)
    with pytest.raises(TriangleInequalityViolated):
        im.comparison_angle(0, 1, 1)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(0.1, 10), st.floats(0.1, 10),
    st.floats(0.0, 1.0), st.floats(0.0, 1.0),
)
def test_comparison_angle_monotone_in_d(x, y, t1, t2):
    lo, hi = abs(x - y), x + y
    d1 = lo + min(t1, t2) * (hi - lo)
    d2 = lo + max(t1, t2) * (hi - lo)
    assert im.comparison_angle(x, y, d1) <= im.comparison_angle(x, y, d2) + 1e-12


@settings(max_examples=50, deadline=None)
@given(st.floats(0.1, 10), st.floats(0.1, 10), st.floats(0.05, 0.95))
def test_comparison_angle_symmetric(x, y, t):
    d = abs(x - y) + t * (2 * min(x, y))
    assert abs(im.comparison_angle(x, y, d) - im.comparison_angle(y, x, d)) < 1e-12


def flat_square_net():
    sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float)
    polys, ids = shapes.doubled_polygon(sq)
    return im.MetricNet(polygons=polys, identifications=ids)


def test_scan_constant_on_flat_net():
    net = flat_square_net()
    O = im.SurfacePoint(0, (0.25, 0.2))
    A = im.SurfacePoint(0, (0.85, 0.35))
    B = im.SurfacePoint(0, (0.4, 0.9))
    rep = angle_monotonicity_scan(net, O, A, B, samples=6)
    assert not rep.violations
    assert np.ptp(rep.alphas) < 1e-12


def test_scan_needs_two_samples():
    net = flat_square_net()
    O, A, B = (im.SurfacePoint(0, xy) for xy in ((0.25, 0.2), (0.85, 0.35), (0.4, 0.9)))
    with pytest.raises(TooFewSamples):
        angle_monotonicity_scan(net, O, A, B, samples=1)


def test_scan_cube_no_violations(cube_net):
    O = im.SurfacePoint(0, (0.1, 0.15))
    A = im.SurfacePoint(1, (0.6, 0.55))
    B = im.SurfacePoint(2, (0.5, 0.45))
    rep = angle_monotonicity_scan(cube_net, O, A, B, samples=8)
    assert rep.violations == []
    assert rep.angle_estimate == rep.alphas[0]


def test_scan_detects_injected_inflation(cube_net):
    O = im.SurfacePoint(0, (0.1, 0.15))
    A = im.SurfacePoint(1, (0.6, 0.55))
    B = im.SurfacePoint(2, (0.5, 0.45))
    rep = angle_monotonicity_scan(cube_net, O, A, B, samples=6)
    # recompute angles with distances artificially inflated at later scales
    alphas = [
        im.comparison_angle(x, y, min(d * (1.01 ** k), x + y))
        for k, (x, y, d) in enumerate(zip(rep.xs, rep.ys, rep.ds))
    ]
    bad = [
        k for k in range(len(alphas) - 1)
        if alphas[k + 1] > alphas[k] + 1e-9
    ]
    assert bad, "inflated distances must create monotonicity violations"


def test_randomized_scans_on_polytope_nets():
    rng = np.random.default_rng(77)
    nets = [im.net_from_polytope(shapes.random_hull(14, seed=s)) for s in (1, 2)]
    done = 0
    while done < 6:
        net = nets[done % 2]
        O = random_face_point(net, rng)
        A = random_face_point(net, rng)
        B = random_face_point(net, rng)
        try:
            rep = angle_monotonicity_scan(net, O, A, B, samples=6)
        except (ValueError, TriangleInequalityViolated):
            continue
        if not (0.3 < rep.alphas[0] < np.pi - 0.3):
            continue
        assert rep.violations == []
        done += 1


def test_triangle_excess_flat(cube_net):
    A = im.SurfacePoint(3, (0.2, 0.2))
    B = im.SurfacePoint(3, (0.8, 0.3))
    C = im.SurfacePoint(3, (0.4, 0.75))
    exc = im.triangle_excess(cube_net, A, B, C)
    assert abs(exc) < 1e-10


def test_triangle_excess_encloses_one_corner(cube_net):
    # triangle looping around one cube vertex: pick the three face centres
    # incident to vertex 0
    inv = {}
    for (f, c), lab in cube_net.corner_labels.items():
        inv.setdefault(lab, []).append((f, c))
    faces = [f for f, _ in inv[0]]
    pts = [im.SurfacePoint(f, tuple(cube_net.polygons[f].mean(axis=0)))
           for f in faces]
    exc = im.triangle_excess(cube_net, *pts)
    assert abs(exc - np.pi / 2) < 1e-9


def test_triangle_excess_two_corners_additive():
    # a geodesic triangle wrapping one bottom edge of the cube encloses
    # exactly the edge's two endpoint vertices: excess pi/2 + pi/2
    from ovaloid import shapes as sh

    cube = sh.cube()
    net = im.net_from_polytope(cube)

    def sp_from_3d(face, p3):
        cyc = cube.faces[face]
        pts = cube.vertices[list(cyc)]
        n = cube.normals[face]
        e1 = pts[1] - pts[0]
        e1 = e1 / np.linalg.norm(e1)
        e2 = np.cross(n, e1)
        return im.SurfacePoint(
            face,
            (float((p3 - pts[0]) @ e1), float((p3 - pts[0]) @ e2)),
        )

    def face_with_normal(n):
        return int(np.argmax(cube.normals @ np.asarray(n, float)))

    p1 = sp_from_3d(face_with_normal([0, -1, 0]), np.array([0.0, -0.5, 0.2]))
    p2 = sp_from_3d(face_with_normal([-1, 0, 0]), np.array([-0.5, 0.0, -0.2]))
    p3 = sp_from_3d(face_with_normal([1, 0, 0]), np.array([0.5, 0.0, -0.2]))
    exc = im.triangle_excess(net, p1, p2, p3)
    assert abs(exc - np.pi) < 1e-9


def test_triangle_excess_face_centers_loose(cube_net):
    # three face centres around antipodal corners enclose k vertices;
    # whatever k is, the excess is a multiple of the atomic curvature pi/2
    inv = {}
    for (f, c), lab in cube_net.corner_labels.items():
        inv.setdefault(lab, []).append((f, c))
    f0 = [f for f, _ in inv[0]]
    f7 = [f for f, _ in inv[7]]
    pts = [im.SurfacePoint(f, tuple(cube_net.polygons[f].mean(axis=0)))
           for f in (f0[0], f0[1], f7[0])]
    exc = im.triangle_excess(cube_net, *pts)
    k = exc / (np.pi / 2)
    assert abs(k - round(k)) < 1e-8
    assert 1 <= round(k) <= 7
