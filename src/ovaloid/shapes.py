"""Canonical bodies and random generators used by demos and tests."""

import numpy as np

from .core import convex_hull, half_edges

PHI = (1.0 + np.sqrt(5.0)) / 2.0


def cube(edge=1.0):
    half = edge / 2.0
    corners = np.array(
        [[sx * half, sy * half, sz * half]
         for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
    )
    return convex_hull(corners)


def regular_tetrahedron(edge=1.0):
    pts = np.array(
        [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
    )
    pts *= edge / np.sqrt(8.0)  # raw edge is 2*sqrt(2)
    return convex_hull(pts)


def octahedron(circumradius=1.0):
    pts = circumradius * np.vstack([np.eye(3), -np.eye(3)])
    return convex_hull(pts)


def icosahedron_vertices(circumradius=1.0):
    raw = []
    for s1 in (-1, 1):
        for s2 in (-1, 1):
            raw.append([0.0, s1 * 1.0, s2 * PHI])
            raw.append([s1 * 1.0, s2 * PHI, 0.0])
            raw.append([s2 * PHI, 0.0, s1 * 1.0])
    pts = np.array(raw)
    return circumradius * pts / np.linalg.norm(pts[0])


def icosahedron(circumradius=1.0):
    return convex_hull(icosahedron_vertices(circumradius))


def random_sphere_points(n, seed=None, radius=1.0):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return radius * pts


def random_hull(n, seed=None, radius=1.0):
    """Convex hull of n random points on a sphere (generic simplicial body)."""
    return convex_hull(random_sphere_points(n, seed=seed, radius=radius))


def cube_with_face_centers(edge=1.0):
    """Cube boundary with each square face triangulated through its centre.

    The six added centre vertices are flat (their incident triangles are
    coplanar), so the triangulated surface carries one normal flex per centre.
    Returns (vertices, triangles).
    """
    p = cube(edge)
    face, tail, head, _ = half_edges(p.faces)
    centres = [p.vertices[list(cyc)].mean(axis=0) for cyc in p.faces]
    tris = np.stack([len(p.vertices) + face, tail, head], axis=1)
    return np.vstack([p.vertices, centres]), tris


def doubled_polygon(poly):
    """Net of the flat body obtained by gluing two copies of a polygon.

    The second copy is reflected and re-oriented so both are CCW; edge k of
    the first copy is identified with edge n-2-k (mod n) of the second.
    Returns (polygons, identifications) ready for a MetricNet.
    """
    p = np.asarray(poly, dtype=float)
    n = len(p)
    q = (p * np.array([1.0, -1.0]))[::-1].copy()
    idents = tuple(((0, k), (1, (n - 2 - k) % n)) for k in range(n))
    return (p, q), idents
