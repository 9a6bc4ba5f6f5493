"""Convex polytope primitives.

A bounded convex body is carried by its boundary complex: vertex coordinates,
face cycles (counterclockwise as seen from outside), outer unit normals,
face areas and support numbers h_i = max_v <v, n_i>.  All geometric tests use
a single tolerance relative to the body diameter (default 1e-9).  Objects are
immutable after construction and all operations are pure functions.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

from .errors import DegenerateInput, DegenerateVertex, EmptyBody, UnboundedBody

DEFAULT_TOL = 1e-9


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first use: importing
    ``scipy.optimize`` would add about 0.08 s to every CLI start."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def as_points(points, dim=3):
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ValueError(f"expected an (n, {dim}) array of points, got {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("points must have finite components")
    return pts


def unit_vectors(vectors, tol=1e-8):
    v = as_points(vectors)
    norms = np.linalg.norm(v, axis=1)
    if (np.abs(norms - 1.0) > tol).any():
        raise ValueError("normals must be unit vectors")
    return v / norms[:, None]


@dataclasses.dataclass(frozen=True)
class ConvexPolytope:
    """Boundary complex of a bounded convex body."""

    vertices: np.ndarray        # (V, 3)
    faces: tuple                # per face, tuple of vertex indices, CCW from outside
    normals: np.ndarray         # (F, 3) outer unit normals
    areas: np.ndarray           # (F,)
    support_numbers: np.ndarray  # (F,)

    @property
    def diameter(self):
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        return float(np.linalg.norm(hi - lo))

    def edges(self):
        """Sorted vertex-index pairs of all edges."""
        seen = set()
        for cyc in self.faces:
            for k in range(len(cyc)):
                a, b = cyc[k], cyc[(k + 1) % len(cyc)]
                seen.add((min(a, b), max(a, b)))
        return sorted(seen)

    def faces_at_vertex(self, vi):
        return [f for f, cyc in enumerate(self.faces) if vi in cyc]

    def _fan_tetrahedra(self):
        """Every face fanned into triangles (v0, v1, v2) from its first
        vertex: six times the signed volume of each triangle's tetrahedron
        against the origin, and the sum of its three vertices."""
        tri = [(cyc[0], cyc[k], cyc[k + 1])
               for cyc in self.faces for k in range(1, len(cyc) - 1)]
        v0, v1, v2 = self.vertices[np.array(tri, dtype=int).reshape(-1, 3).T]
        return np.einsum("ij,ij->i", v0, np.cross(v1, v2)), v0 + v1 + v2

    def volume(self):
        """Volume by fanning every face into tetrahedra against the origin."""
        w, _ = self._fan_tetrahedra()
        return float(w.sum()) / 6.0

    def centroid(self):
        """Volume centroid."""
        w, corners = self._fan_tetrahedra()
        vol = float(w.sum())
        if abs(vol) < 1e-300:
            return self.vertices.mean(axis=0)
        return (w @ corners) / 4.0 / vol

    def translated(self, t):
        t = np.asarray(t, dtype=float)
        return ConvexPolytope(
            vertices=self.vertices + t,
            faces=self.faces,
            normals=self.normals,
            areas=self.areas,
            support_numbers=self.support_numbers + self.normals @ t,
        )

    def centered(self):
        """Translate so the volume centroid sits at the origin."""
        return self.translated(-self.centroid())

    def scaled(self, s):
        if s <= 0:
            raise ValueError("scale factor must be positive")
        return ConvexPolytope(
            vertices=self.vertices * s,
            faces=self.faces,
            normals=self.normals,
            areas=self.areas * s * s,
            support_numbers=self.support_numbers * s,
        )

    def validate(self, tol=DEFAULT_TOL):
        """Check the boundary-complex invariants; raises ValueError on failure."""
        scale = max(self.diameter, 1e-300)
        slack = self.vertices @ self.normals.T - self.support_numbers[None, :]
        if slack.max() > tol * scale:
            raise ValueError("a vertex lies outside a face halfspace")
        active = slack > -tol * scale  # vertex on face plane
        ok_faces = [len(f) >= 3 for f in self.faces]
        counts = active[:, np.array(ok_faces, dtype=bool)].sum(axis=1)
        if (counts < 3).any():
            raise ValueError("a vertex touches fewer than 3 face planes")
        defect = np.linalg.norm(closing_defect(self.normals, self.areas))
        if defect > tol * max(self.areas.sum(), 1.0):
            raise ValueError(f"closing defect too large: {defect}")
        for f, cyc in enumerate(self.faces):
            if len(cyc) < 3:
                continue
            pts = self.vertices[list(cyc)]
            if np.abs(pts @ self.normals[f] - self.support_numbers[f]).max() > 10 * tol * scale:
                raise ValueError(f"face {f} is not planar")
        return self


def closing_defect(normals, areas):
    """Sum of area-weighted normals; zero for every closed convex boundary."""
    n = np.asarray(normals, dtype=float)
    a = np.asarray(areas, dtype=float)
    if len(n) != len(a):
        raise ValueError("normals and areas must have equal length")
    return n.T @ a


def _newell(points):
    """Plane normal and area of a 3-D planar polygon via the Newell sum."""
    p = np.asarray(points, dtype=float)
    s = np.cross(p, np.roll(p, -1, axis=0)).sum(axis=0) * 0.5
    area = np.linalg.norm(s)
    return (s / area if area > 0 else s), area


def convex_hull(points, tol=DEFAULT_TOL, merge_tol=1e-7):
    """Convex hull of >= 4 points as a ConvexPolytope.

    Coplanar adjacent qhull triangles are merged into single polygonal faces
    (equations agreeing within ``merge_tol`` relative to the diameter).
    """
    pts = as_points(points)
    if len(pts) < 4:
        raise DegenerateInput("need at least 4 points")
    try:
        hull = ConvexHull(pts)
    except QhullError as exc:
        raise DegenerateInput(f"points are coplanar/collinear: {exc}") from exc

    scale = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    eq = hull.equations  # rows (n, d): n.x + d <= 0, |n| = 1
    nsimp = len(hull.simplices)

    # union-find merge of coplanar neighbours
    parent = list(range(nsimp))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for s in range(nsimp):
        for t in hull.neighbors[s]:
            if t < 0:
                continue
            if (
                np.abs(eq[s, :3] - eq[t, :3]).max() <= merge_tol
                and abs(eq[s, 3] - eq[t, 3]) <= merge_tol * max(scale, 1.0)
            ):
                ra, rb = find(s), find(int(t))
                if ra != rb:
                    parent[rb] = ra

    groups = {}
    for s in range(nsimp):
        groups.setdefault(find(s), []).append(s)

    # reindex hull vertices
    vmap = {int(v): k for k, v in enumerate(hull.vertices)}
    verts = pts[hull.vertices]

    faces, normals, areas, supports = [], [], [], []
    for simps in groups.values():
        n_out = eq[simps[0], :3]
        # orient every triangle CCW w.r.t. the outward normal, then cancel
        # interior directed edges; the survivors chain into the face cycle
        edge_next = {}
        edges = set()
        for s in simps:
            a, b, c = (vmap[int(v)] for v in hull.simplices[s])
            if np.dot(np.cross(verts[b] - verts[a], verts[c] - verts[a]), n_out) < 0:
                b, c = c, b
            for u, w in ((a, b), (b, c), (c, a)):
                if (w, u) in edges:
                    edges.remove((w, u))
                else:
                    edges.add((u, w))
        for u, w in edges:
            edge_next[u] = w
        start = next(iter(edge_next))
        cyc = [start]
        while True:
            nxt = edge_next[cyc[-1]]
            if nxt == start:
                break
            cyc.append(nxt)
            if len(cyc) > len(edge_next):
                raise DegenerateInput("face boundary did not close into one cycle")
        nvec, area = _newell(verts[cyc])
        if np.dot(nvec, n_out) < 0:
            cyc.reverse()
            nvec = -nvec
        faces.append(tuple(cyc))
        normals.append(nvec)
        areas.append(area)
        supports.append(float((verts @ nvec).max()))

    poly = ConvexPolytope(
        vertices=verts,
        faces=tuple(faces),
        normals=np.array(normals),
        areas=np.array(areas),
        support_numbers=np.array(supports),
    )
    return poly.validate(tol)


def polytope_from_support(normals, support_numbers, tol=DEFAULT_TOL):
    """Bounded intersection of halfspaces {x : <x, n_i> <= h_i} as a polytope.

    Faces are returned in the order of the input normals; a face whose plane
    does not touch the body is kept with area 0 and an empty vertex cycle.
    """
    n = unit_vectors(normals)
    h = np.asarray(support_numbers, dtype=float)
    if len(n) != len(h):
        raise ValueError("normals and support numbers must have equal length")
    if len(n) < 4:
        raise UnboundedBody("fewer than 4 halfspaces cannot bound a body")

    # Chebyshev centre: max r s.t. n_i . x + r <= h_i
    res = linprog(
        c=[0.0, 0.0, 0.0, -1.0],
        A_ub=np.hstack([n, np.ones((len(n), 1))]),
        b_ub=h,
        bounds=[(None, None)] * 3 + [(0, None)],
        method="highs",
    )
    if res.status == 3:
        raise UnboundedBody("normals do not positively span space")
    if res.status != 0 or res.x is None:
        raise EmptyBody("halfspace intersection is empty")
    r = res.x[3]
    scale = max(np.abs(h).max(), 1.0)
    if r <= tol * scale:
        raise EmptyBody("halfspace intersection has empty interior")
    interior = res.x[:3]

    hsi = HalfspaceIntersection(np.hstack([n, -h[:, None]]), interior)
    verts = hsi.intersections
    faces, areas = _face_cycles(verts, hsi.dual_facets, n)
    return ConvexPolytope(
        vertices=verts,
        faces=faces,
        normals=n,
        areas=areas,
        support_numbers=(verts @ n.T).max(axis=0),
    )


def _face_cycles(verts, dual_facets, normals):
    """CCW vertex cycles and Newell areas of every face, in one pass.

    ``dual_facets[k]`` lists the halfspaces meeting at vertex k, so the
    (face, vertex) incidence is combinatorial (no tolerance tests).  Each
    face's vertices are sorted by angle about their centroid in a frame of
    the face plane; the Newell sum then tells whether that order runs
    clockwise, and flipped faces are reversed.  A face with fewer than 3
    vertices gets the cycle () and area 0.
    """
    m = len(normals)
    nv = len(verts)
    sizes = np.fromiter(map(len, dual_facets), dtype=np.intp, count=nv)
    face_of = np.fromiter(itertools.chain.from_iterable(dual_facets),
                          dtype=np.intp, count=int(sizes.sum()))
    pair = np.unique(face_of * nv + np.repeat(np.arange(nv), sizes))
    face, vert = np.divmod(pair, nv)  # sorted by face, then vertex
    count = np.bincount(face, minlength=m)
    live = count[face] >= 3
    face, vert = face[live], vert[live]
    count = np.where(count >= 3, count, 0)
    start = np.concatenate([[0], np.cumsum(count)[:-1]])

    pts = verts[vert]
    centre = np.zeros((m, 3))
    np.add.at(centre, face, pts)
    centre /= np.maximum(count, 1)[:, None]
    ref = np.eye(3)[np.argmin(np.abs(normals), axis=1)]
    e1 = np.cross(normals, ref)
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    e2 = np.cross(normals, e1)
    d = pts - centre[face]
    ang = np.arctan2(np.einsum("ij,ij->i", d, e2[face]),
                     np.einsum("ij,ij->i", d, e1[face]))
    order = np.lexsort((-ang, face))
    pts = pts[order]

    # Newell vector of each face in that order; reverse the faces where it
    # points inward
    pos = np.arange(len(face)) - start[face]
    nxt = start[face] + (pos + 1) % count[face]
    newell = np.zeros((m, 3))
    np.add.at(newell, face, np.cross(pts, pts[nxt]))
    newell *= 0.5
    flip = np.einsum("ij,ij->i", newell, normals) < 0
    pos = np.where(flip[face], count[face] - 1 - pos, pos)
    cyc = vert[order][start[face] + pos].tolist()
    faces = tuple(tuple(cyc[a:a + c]) for a, c in zip(start.tolist(), count.tolist()))
    return faces, np.linalg.norm(newell, axis=1)


def polytope_from_mesh(vertices, faces, tol=DEFAULT_TOL):
    """ConvexPolytope from explicit vertex coordinates and CCW face cycles.

    Normals and areas come from the Newell sum per face; the boundary-complex
    invariants are checked, so non-convex or open meshes are rejected.
    """
    verts = as_points(vertices)
    normals, areas, supports, cycles = [], [], [], []
    for cyc in faces:
        cyc = tuple(int(i) for i in cyc)
        if len(cyc) < 3:
            raise ValueError("face with fewer than 3 vertices")
        nvec, area = _newell(verts[list(cyc)])
        cycles.append(cyc)
        normals.append(nvec)
        areas.append(area)
        supports.append(float((verts @ nvec).max()))
    poly = ConvexPolytope(
        vertices=verts,
        faces=tuple(cycles),
        normals=np.array(normals),
        areas=np.array(areas),
        support_numbers=np.array(supports),
    )
    return poly.validate(tol)


def _face_cycle_around_vertex(poly, vi):
    """Incident faces of vertex vi in cyclic order (CCW seen from outside)."""
    incident = poly.faces_at_vertex(vi)
    if len(incident) < 3:
        raise DegenerateVertex(f"vertex {vi} has {len(incident)} incident faces")
    nxt, prv = {}, {}
    for f in incident:
        cyc = poly.faces[f]
        k = cyc.index(vi)
        nxt[f] = cyc[(k + 1) % len(cyc)]
        prv[cyc[(k - 1) % len(cyc)]] = f
    order = [incident[0]]
    while True:
        g = prv.get(nxt[order[-1]])
        if g is None:
            raise DegenerateVertex(f"open fan of faces at vertex {vi}")
        if g == order[0]:
            break
        order.append(g)
        if len(order) > len(incident):
            raise DegenerateVertex(f"faces at vertex {vi} do not form one cycle")
    if len(order) != len(incident):
        raise DegenerateVertex(f"faces at vertex {vi} do not form one cycle")
    return order


def _spherical_triangle_area(a, b, c):
    num = np.dot(a, np.cross(b, c))
    den = 1.0 + np.dot(a, b) + np.dot(b, c) + np.dot(c, a)
    return 2.0 * math.atan2(num, den)


def normal_cone_area(poly, vertex_index, tol=DEFAULT_TOL):
    """Spherical area (steradians) of the normal cone at a vertex.

    The incident face normals, taken in cyclic order, are the vertices of a
    convex spherical polygon; its area is the extrinsic curvature carried by
    the vertex.  Summed over all vertices this is the full sphere.
    """
    order = _face_cycle_around_vertex(poly, vertex_index)
    ns = poly.normals[order]
    sv = np.linalg.svd(ns, compute_uv=False)
    if sv[-1] <= tol * sv[0]:
        raise DegenerateVertex(
            f"normal cone at vertex {vertex_index} is flat (coplanar normals)"
        )
    total = 0.0
    for k in range(1, len(ns) - 1):
        total += _spherical_triangle_area(ns[0], ns[k], ns[k + 1])
    return abs(total)


def total_normal_cone_area(poly):
    return sum(normal_cone_area(poly, v) for v in range(len(poly.vertices)))
