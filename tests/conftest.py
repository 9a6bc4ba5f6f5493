import numpy as np
import pytest

from ovaloid import intrinsic_metric as im
from ovaloid import shapes


@pytest.fixture
def cube_net():
    return im.net_from_polytope(shapes.cube())


@pytest.fixture
def cube():
    return shapes.cube()


def corner_point(net, vertex_id):
    """SurfacePoint at the corner labelled with the given mesh vertex id."""
    for (f, c), lab in net.corner_labels.items():
        if lab == vertex_id:
            xy = net.polygons[f][c]
            return im.SurfacePoint(f, (float(xy[0]), float(xy[1])))
    raise KeyError(vertex_id)


def random_face_point(net, rng, margin=0.15):
    """Random point strictly inside a random polygon of the net."""
    f = int(rng.integers(0, len(net.polygons)))
    poly = net.polygons[f]
    c = poly.mean(axis=0)
    # convex combination biased toward the centroid keeps a safe margin
    w = rng.dirichlet(np.ones(len(poly)))
    p = (1.0 - margin) * (w @ poly) + margin * c
    return im.SurfacePoint(f, (float(p[0]), float(p[1])))


def counted_calls(monkeypatch, owner, name):
    """A list that grows by one entry at each call of ``owner.name``."""
    calls = []
    wrapped = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def interior_indices(u):
    """Indices of the nodes of a PLConvexFunction off its domain's boundary."""
    from ovaloid import planar

    return np.nonzero(~planar.on_polygon_boundary(u.domain, u.nodes))[0]


def envelope_flags(u):
    """True where a node of a PLConvexFunction is on its lower envelope."""
    from oracles import lower_envelope_evaluator

    scale = max(np.ptp(u.values), 1.0)
    env = lower_envelope_evaluator(u.nodes, u.values)(u.nodes)
    return u.values <= env + 1e-9 * scale


def grid_problem(n_side, extent, mass_fn=None, boundary_fn=None, **kw):
    """Uniform grid MAProblem on [0, extent]^2 with n_side+1 nodes per axis."""
    from ovaloid import ma_solver as ma

    coords = np.linspace(0.0, extent, n_side + 1)
    xx, yy = np.meshgrid(coords, coords)
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    on_b = (
        (pts[:, 0] == 0) | (pts[:, 0] == extent)
        | (pts[:, 1] == 0) | (pts[:, 1] == extent)
    )
    interior, boundary = pts[~on_b], pts[on_b]
    domain = np.array([[0, 0], [extent, 0], [extent, extent], [0, extent]], float)
    masses = (
        np.full(len(interior), 1.0) if mass_fn is None else mass_fn(interior)
    )
    bvals = (
        np.zeros(len(boundary)) if boundary_fn is None else boundary_fn(boundary)
    )
    return ma.MAProblem(
        domain=domain, interior_nodes=interior, masses=masses,
        boundary_nodes=boundary, boundary_values=bvals, **kw,
    )


def support_cases():
    """Random hulls, their supports perturbed enough to cut faces off, and
    the cube and octahedron, whose vertices lie on 4 planes."""
    cases = []
    for seed in range(8):
        src = shapes.random_hull(30 + 10 * seed, seed=seed)
        jitter = np.random.default_rng(seed).uniform(-0.15, 0.15, len(src.normals))
        cases += [(src.normals, src.support_numbers),
                  (src.normals, src.support_numbers + jitter)]
    for src in (shapes.cube(), shapes.octahedron()):
        cases.append((src.normals, src.support_numbers))
    return cases


def hull_point_sets():
    """Random points on the sphere (seeds 0-7, 20 to 400 points), the
    cube, octahedron and icosahedron, and a cube whose corners are jittered
    by 1e-10, so that its hull merges qhull triangles into squares."""
    sets = [shapes.random_sphere_points(n, seed=seed)
            for seed, n in enumerate(np.linspace(20, 400, 8).astype(int))]
    cube = shapes.cube().vertices
    jitter = np.random.default_rng(0).uniform(-1e-10, 1e-10, cube.shape)
    return sets + [cube, shapes.octahedron().vertices,
                   shapes.icosahedron_vertices(), cube + jitter]
