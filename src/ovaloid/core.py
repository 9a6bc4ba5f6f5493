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
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.spatial import ConvexHull, QhullError

from . import planar
from .errors import (
    DegenerateInput,
    DegenerateVertex,
    EmptyBody,
    InvalidPolytope,
    MalformedGeometry,
    NonPositiveScale,
    UnboundedBody,
)

DEFAULT_TOL = 1e-9


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first use: importing
    ``scipy.optimize`` would add about 0.08 s to every CLI start.  Only
    ``chebyshev_centre`` calls it; the Minkowski solver intersects its
    iterates about the origin and falls back to that LP only when the origin
    is not well inside every halfspace."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def as_points(points, dim=3):
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise MalformedGeometry(
            f"expected an (n, {dim}) array of points, got {pts.shape}")
    if not np.isfinite(pts).all():
        raise MalformedGeometry("points must have finite components")
    return pts


def unit_vectors(vectors, tol=1e-8):
    v = as_points(vectors)
    norms = np.linalg.norm(v, axis=1)
    if (np.abs(norms - 1.0) > tol).any():
        raise MalformedGeometry("normals must be unit vectors")
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

    @cached_property
    def _half_edges(self):
        """``half_edges(self.faces)``, built once per polytope."""
        return half_edges(self.faces)

    def _fan_tetrahedra(self):
        """Every face fanned into triangles (v0, v1, v2) from its first
        vertex: six times the signed volume of each triangle's tetrahedron
        against the origin, and the sum of its three vertices."""
        v0, v1, v2 = self.vertices[fan_triangles(self.faces).T]
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
            raise NonPositiveScale("scale factor must be positive")
        return ConvexPolytope(
            vertices=self.vertices * s,
            faces=self.faces,
            normals=self.normals,
            areas=self.areas * s * s,
            support_numbers=self.support_numbers * s,
        )

    def validate(self, tol=DEFAULT_TOL):
        """Check the boundary-complex invariants on the vertices the faces
        use; raises InvalidPolytope on failure."""
        face, tail, _, _ = self._half_edges
        scale = max(self.diameter, 1e-300)
        slack = self.vertices[np.unique(tail)] @ self.normals.T \
            - self.support_numbers[None, :]
        if slack.max() > tol * scale:
            raise InvalidPolytope("a vertex lies outside a face halfspace")
        active = slack > -tol * scale  # vertex on face plane
        ok_faces = np.array([len(f) >= 3 for f in self.faces], dtype=bool)
        counts = active[:, ok_faces].sum(axis=1)
        if (counts < 3).any():
            raise InvalidPolytope("a vertex touches fewer than 3 face planes")
        defect = np.linalg.norm(closing_defect(self.normals, self.areas))
        if defect > tol * max(self.areas.sum(), 1.0):
            raise InvalidPolytope(f"closing defect too large: {defect}")
        off = np.einsum("ij,ij->i", self.vertices[tail], self.normals[face]) \
            - self.support_numbers[face]
        bad = face[ok_faces[face] & (np.abs(off) > 10 * tol * scale)]
        if len(bad):
            raise InvalidPolytope(f"face {bad[0]} is not planar")
        return self


def closing_defect(normals, areas):
    """Sum of area-weighted normals; zero for every closed convex boundary."""
    n = np.asarray(normals, dtype=float)
    a = np.asarray(areas, dtype=float)
    if len(n) != len(a):
        raise MalformedGeometry("normals and areas must have equal length")
    return n.T @ a


def half_edges(faces):
    """Flat half-edge layout of face cycles, as (face, tail, head, twin).

    Half-edge k runs from vertex ``tail[k]`` to ``head[k]`` along face
    ``face[k]``; each face's half-edges are contiguous and in cycle order,
    and the faces follow in their given order.  ``twin[k]`` is the
    half-edge running head -> tail, matched by one sort of the packed
    (tail, head) keys, or -1 where no face has it.  Vertex ids are
    non-negative.
    """
    sizes = np.fromiter(map(len, faces), dtype=np.intp, count=len(faces))
    tail = np.fromiter(itertools.chain.from_iterable(faces), dtype=np.intp,
                       count=int(sizes.sum()))
    face = np.repeat(np.arange(len(faces)), sizes)
    head = tail[planar.cycle_next(face, len(faces))]
    nv = int(tail.max(initial=-1)) + 1
    key, rev = tail * nv + head, head * nv + tail
    order = np.argsort(key)
    at = order[np.minimum(np.searchsorted(key, rev, sorter=order), len(key) - 1)]
    return face, tail, head, np.where(key[at] == rev, at, -1)


def undirected_edges(faces):
    """The undirected edges of face cycles as vertex pairs (i, j), i < j, in
    lexicographic order, and the number of face sides along each (2 on
    every edge of a closed surface), from one sort of the half-edges'
    packed (min, max) keys."""
    _, tail, head, _ = half_edges(faces)
    nv = int(tail.max(initial=-1)) + 1
    keys, sides = np.unique(np.minimum(tail, head) * nv + np.maximum(tail, head),
                            return_counts=True)
    return np.stack([keys // nv, keys % nv], axis=1), sides


def fan_triangles(faces):
    """Every face cycle fanned into triangles (first, tail, head) from its
    first vertex, one per half-edge that does not touch it, in face order;
    each triangle keeps the orientation of its face."""
    face, tail, head, _ = half_edges(faces)
    first = tail[np.searchsorted(face, face)]
    return np.stack([first, tail, head], axis=1)[(tail != first) & (head != first)]


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

    # coplanar neighbouring triangles form one face; components are numbered
    # in the order of their first triangle
    s, t = np.repeat(np.arange(nsimp), 3), hull.neighbors.ravel()
    same = (t >= 0) & (np.abs(eq[s, :3] - eq[t, :3]).max(axis=1) <= merge_tol) \
        & (np.abs(eq[s, 3] - eq[t, 3]) <= merge_tol * max(scale, 1.0))
    graph = sparse.coo_matrix((np.ones(int(same.sum())), (s[same], t[same])),
                              shape=(nsimp, nsimp))
    _, label = connected_components(graph, directed=False)
    first = np.unique(label, return_index=True)[1]

    # reindex hull vertices
    ids, vert = np.unique(hull.simplices.ravel(), return_inverse=True)
    verts = pts[ids]
    faces, newell = _face_cycles(verts, np.repeat(label, 3), vert, eq[first, :3])
    areas = np.linalg.norm(newell, axis=1)
    normals = newell / areas[:, None]
    poly = ConvexPolytope(
        vertices=verts,
        faces=faces,
        normals=normals,
        areas=areas,
        support_numbers=(verts @ normals.T).max(axis=0),
    )
    return poly.validate(tol)


def polytope_from_support(normals, support_numbers, tol=DEFAULT_TOL):
    """Bounded intersection of halfspaces {x : <x, n_i> <= h_i} as a polytope:
    ``dual_hull`` about the Chebyshev centre, its vertices in lexicographic
    coordinate order.

    Faces are returned in the order of the input normals; a face whose plane
    does not touch the body is kept with area 0 and an empty vertex cycle.
    """
    n = unit_vectors(normals)
    h = np.asarray(support_numbers, dtype=float)
    return dual_hull(n, h, chebyshev_centre(n, h, tol)).polytope()


def chebyshev_centre(n, h, tol=DEFAULT_TOL):
    """Centre of the largest ball inside {x : <x, n_i> <= h_i}, unit normals
    ``n``, from one linear program: a point strictly inside every halfspace.

    Raises UnboundedBody when the halfspaces bound no body, EmptyBody when
    their intersection is empty or its inradius is at most ``tol`` times
    max(max|h|, 1).
    """
    if len(n) != len(h):
        raise MalformedGeometry("normals and support numbers must have equal length")
    if len(n) < 4:
        raise UnboundedBody("fewer than 4 halfspaces cannot bound a body")
    # max r s.t. n_i . x + r <= h_i
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
    if res.x[3] <= tol * max(np.abs(h).max(), 1.0):
        raise EmptyBody("halfspace intersection has empty interior")
    return res.x[:3]


class AreaEdges(NamedTuple):
    """Face areas of a convex polytope and their derivatives in the support
    numbers, from its edges (see ``edge_pass``).

    ``pairs`` are the face pairs (i, j) that meet along an edge of positive
    length, and ``coupling`` is that edge's length over sin(angle(n_i, n_j)):
    the derivative of area i in h_j (Alexandrov, *Convex Polyhedra*, ch. 7).
    ``diagonal`` is the derivative of area i in h_i, minus the sum of
    coupling * cos over the edges of face i.
    """

    areas: np.ndarray     # (m,)
    pairs: np.ndarray     # (E, 2)
    coupling: np.ndarray  # (E,)
    diagonal: np.ndarray  # (m,)

    def scaled(self, s):
        """The same for the body scaled by s > 0."""
        return AreaEdges(self.areas * s * s, self.pairs, self.coupling * s,
                         self.diagonal * s)

    def jacobian(self):
        """d(area_i)/d(h_j) as a symmetric sparse COO matrix; the
        translations h_i = <n_i, t> are its kernel."""
        m = len(self.areas)
        i, j = self.pairs.T
        diag = np.arange(m)
        return sparse.coo_matrix(
            (np.concatenate([self.coupling, self.coupling, self.diagonal]),
             (np.concatenate([i, j, diag]), np.concatenate([j, i, diag]))),
            shape=(m, m))


def edge_pass(n, h, vertices, i, j, u, w):
    """``AreaEdges`` of P(h) = {x : <x, n_i> <= h_i}, unit normals ``n``,
    from one vectorised pass over its edges: edge k joins faces i[k] and
    j[k] and runs between vertices u[k] and w[k], in either direction.

    Each edge adds to both of its faces the signed triangle it spans with
    that face's foot point h_i n_i, oriented counterclockwise about the
    face's normal; summed over a face's edges this is its Newell area.  A
    face without edges has area 0.
    """
    # 3-vectors as the rows of (3, E) arrays: np.cross and np.einsum on
    # (E, 3) ones cost more in call overhead than in arithmetic here
    ni, nj = n[i].T, n[j].T
    along = _cross(ni, nj)  # the edge direction counterclockwise about face i
    p, q = vertices[u].T, vertices[w].T
    pq = q - p
    turn = np.sign(_dot(pq, along))
    fi, fj = h[i] * ni, h[j] * nj
    sides = np.concatenate([turn * _dot(ni, _cross(p - fi, q - fi)),
                            -turn * _dot(nj, _cross(p - fj, q - fj))])
    areas = 0.5 * np.bincount(np.concatenate([i, j]), weights=sides, minlength=len(n))

    length = np.sqrt(_dot(pq, pq))
    sin = np.sqrt(_dot(along, along))
    keep = (length > 0) & (sin >= 1e-14)
    i, j = i[keep], j[keep]
    coupling = length[keep] / sin[keep]
    bend = coupling * _dot(ni, nj)[keep]
    diagonal = -np.bincount(np.concatenate([i, j]), weights=np.concatenate([bend, bend]),
                            minlength=len(n))
    return AreaEdges(areas, np.stack([i, j], axis=1), coupling, diagonal)


def _cross(a, b):
    """a x b, each 3-vector given by its three components."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


@dataclasses.dataclass(frozen=True)
class DualHull:
    """The halfspace intersection P(h) = {x : <x, n_i> <= h_i} as its
    vertices and its ``AreaEdges``, read off one triangulated convex hull of
    its dual points (see ``dual_hull``).

    Vertex t is where the faces ``triangles[t]`` meet.  Where more than
    three faces meet, the triangulation splits the vertex into coincident
    copies with equal coordinates, and the edges between them, of length
    0, add nothing.
    """

    normals: np.ndarray    # (m, 3) unit
    vertices: np.ndarray   # (T, 3) one per dual triangle
    triangles: np.ndarray  # (T, 3) the faces meeting at each vertex
    edges: AreaEdges

    def scaled(self, s):
        """P(s h) for s > 0, without a hull."""
        return dataclasses.replace(self, vertices=self.vertices * s,
                                   edges=self.edges.scaled(s))

    def polytope(self):
        """P(h) as a ConvexPolytope: coincident vertex copies merged, every
        face's vertex cycle ordered and its Newell area taken."""
        verts, vert = np.unique(self.vertices, axis=0, return_inverse=True)
        faces, newell = _face_cycles(verts, self.triangles.ravel(),
                                     np.repeat(vert.ravel(), 3), self.normals)
        return ConvexPolytope(
            vertices=verts,
            faces=faces,
            normals=self.normals,
            areas=np.linalg.norm(newell, axis=1),
            support_numbers=(verts @ self.normals.T).max(axis=0),
        )


def dual_hull(n, h, interior):
    """P(h) for unit normals ``n`` about a point c strictly inside every
    halfspace, as a ``DualHull``, from one qhull call.

    About c, halfspace i is the polar of the dual point n_i / (h_i - <n_i, c>),
    so each triangle of the dual points' triangulated hull, with equation
    <a, y> + b = 0, is the vertex c - a / b of P.  Each side of a dual
    triangle is an edge of P between the two faces it joins, running to the
    vertex of the triangle across that side.  A plane that misses the body
    has an interior dual point and no edges.

    Raises UnboundedBody when the halfspaces leave the body unbounded: the
    dual hull then fails to enclose the origin.
    """
    # h_i - <n_i, c> summed in the order of qhull's own halfspace
    # intersection (option H), so that the vertices are bitwise the ones it
    # gives about c
    c = interior
    dist = h - n[:, 0] * c[0] - n[:, 1] * c[1] - n[:, 2] * c[2]
    hull = ConvexHull(n / dist[:, None], qhull_options="Qt")
    eq = hull.equations
    if not (eq[:, 3] < 0).all():
        raise UnboundedBody("normals do not positively span space")
    verts = c - eq[:, :3] / eq[:, 3:]
    tri = hull.simplices
    # side k of triangle t joins the faces other than tri[t, k], and
    # neighbors[t, k] lies across it; each edge is taken at its lower end
    t = np.repeat(np.arange(len(tri)), 3)
    u = hull.neighbors.ravel()
    once = t < u
    i, j = tri[:, [1, 2, 0]].ravel()[once], tri[:, [2, 0, 1]].ravel()[once]
    return DualHull(normals=n, vertices=verts, triangles=tri,
                    edges=edge_pass(n, h, verts, i, j, t[once], u[once]))


def _face_cycles(verts, face, vert, normals):
    """CCW vertex cycles and Newell vectors of every face, in one pass.

    ``face[k]`` and ``vert[k]`` are (face, vertex) incidences, repeats
    allowed, so the faces come from combinatorics (no tolerance tests).
    ``normals`` need only point roughly along each face's outer normal.
    Each face's vertices are sorted by angle about their centroid in a
    frame of the face plane; the Newell sum then tells whether that order
    runs clockwise, and flipped faces are reversed.  A face with fewer than
    3 vertices gets the cycle () and a zero Newell vector.
    """
    m = len(normals)
    nv = len(verts)
    pair = np.unique(face * nv + vert)
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
    newell = np.zeros((m, 3))
    np.add.at(newell, face, np.cross(pts, pts[planar.cycle_next(face, m)]))
    newell *= 0.5
    flip = np.einsum("ij,ij->i", newell, normals) < 0
    pos = np.arange(len(face)) - start[face]
    pos = np.where(flip[face], count[face] - 1 - pos, pos)
    cyc = vert[order][start[face] + pos].tolist()
    faces = tuple(tuple(cyc[a:a + c]) for a, c in zip(start.tolist(), count.tolist()))
    newell[flip] *= -1.0
    return faces, newell


def polytope_from_mesh(vertices, faces, tol=DEFAULT_TOL):
    """ConvexPolytope from explicit vertex coordinates and CCW face cycles.

    Normals and areas come from one Newell sum over the half-edges; the
    boundary-complex invariants are checked, so non-convex or open meshes are rejected.
    """
    verts = as_points(vertices)
    cycles = tuple(tuple(map(int, cyc)) for cyc in faces)
    if not cycles:
        raise InvalidPolytope("a mesh needs at least one face")
    if any(len(cyc) < 3 for cyc in cycles):
        raise InvalidPolytope("face with fewer than 3 vertices")
    half = face, tail, head, _ = half_edges(cycles)
    newell = np.zeros((len(cycles), 3))
    np.add.at(newell, face, np.cross(verts[tail], verts[head]))
    newell *= 0.5
    areas = np.linalg.norm(newell, axis=1)
    normals = newell / np.where(areas > 0, areas, 1.0)[:, None]
    poly = ConvexPolytope(
        vertices=verts,
        faces=cycles,
        normals=normals,
        areas=areas,
        support_numbers=(verts[np.unique(tail)] @ normals.T).max(axis=0),
    )
    vars(poly)["_half_edges"] = half  # the cached property, already at hand
    return poly.validate(tol)


def _face_cycle_around_vertex(poly, vi):
    """Incident faces of vertex vi in cyclic order (CCW seen from outside).

    The face after f is the one across the twin of vi's outgoing half-edge
    in f.
    """
    face, tail, _, twin = poly._half_edges
    out = np.flatnonzero(tail == vi)
    if len(out) < 3:
        raise DegenerateVertex(f"vertex {vi} has {len(out)} incident faces")
    if (twin[out] < 0).any():
        raise DegenerateVertex(f"open fan of faces at vertex {vi}")
    after = dict(zip(face[out].tolist(), face[twin[out]].tolist()))
    order = [int(face[out[0]])]
    while len(order) <= len(out) and after[order[-1]] != order[0]:
        order.append(after[order[-1]])
    if len(order) != len(out):
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
