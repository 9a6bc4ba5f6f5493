"""Intrinsic geometry of polyhedral metrics.

A metric is carried by a net: planar polygons with pairwise edge
identifications.  The module validates the gluing conditions, measures the
cone angle (and hence the curvature 2*pi - theta) at every identified vertex,
and computes shortest paths by exhaustive unfolding of face sequences with a
priority queue on straight-line lower bounds.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import math
import typing
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from . import planar
from .errors import (
    ArclengthOutOfRange,
    CoincidentPoints,
    InvalidNet,
    MalformedNet,
    NonConvexPolygon,
    PointOutsidePolygon,
    SearchBudgetExceeded,
    TriangleInequalityViolated,
)


def _well_shaped(p):
    return p.ndim == 2 and p.shape[1] == 2 and len(p) >= 3


@dataclasses.dataclass(frozen=True)
class MetricNet:
    """Planar polygons plus edge identifications.

    ``polygons[i]`` is a CCW (k_i, 2) array; edge e of a polygon runs from
    corner e to corner e+1.  Each identification ((a, ea), (b, eb)) glues the
    two edges with reversed orientation: corner ea of a meets corner eb+1 of
    b, corner ea+1 meets corner eb.  ``corner_labels`` optionally tags corners
    (e.g. with source polytope vertex ids).

    The derived data is computed once, from one flat corner layout: corner
    c of polygon f is flat corner ``start[f] + c``, and edge e of f is
    named by its first corner.
    """

    polygons: tuple
    identifications: tuple
    corner_labels: dict | None = None

    def __post_init__(self):
        polys = tuple(np.asarray(p, dtype=float) for p in self.polygons)
        if not polys:
            raise MalformedNet("a net needs at least one polygon")
        shaped = all(map(_well_shaped, polys))
        pts = np.concatenate(polys) if shaped else None
        if not shaped or not np.isfinite(pts).all():
            k = next(k for k, p in enumerate(polys)
                     if not (_well_shaped(p) and np.isfinite(p).all()))
            raise MalformedNet(f"polygon {k} is not a finite (n>=3, 2) array")
        sizes = np.array([len(p) for p in polys])
        start = np.cumsum(sizes) - sizes
        nxt = planar.cycle_next(np.repeat(np.arange(len(polys)), sizes), len(polys))
        # twice the signed area of every polygon, by one shoelace sum
        area = np.add.reduceat(pts[:, 0] * pts[nxt, 1] - pts[nxt, 0] * pts[:, 1], start)
        if not (area > 0).all():
            raise MalformedNet(f"polygon {np.argmin(area > 0)} must be CCW with positive area")
        ids = tuple(
            ((int(a), int(ea)), (int(b), int(eb)))
            for (a, ea), (b, eb) in self.identifications
        )
        sides = tuple(itertools.chain.from_iterable(ids))
        try:
            f, e = np.fromiter(itertools.chain.from_iterable(sides), dtype=np.intp,
                               count=2 * len(sides)).reshape(-1, 2).T
        except OverflowError:  # an index beyond any array
            f = e = np.array([-1])
        inside = (f >= 0) & (f < len(polys)) & (e >= 0)
        inside &= e < sizes[np.where(inside, f, 0)]
        if not inside.all():
            f, e = next((f, e) for f, e in sides
                        if not (0 <= f < len(polys) and 0 <= e < len(polys[f])))
            raise MalformedNet(f"edge {e} of polygon {f} is not in the net")
        object.__setattr__(self, "polygons", polys)
        object.__setattr__(self, "identifications", ids)
        object.__setattr__(self, "_pts", pts)
        object.__setattr__(self, "_start", start)
        object.__setattr__(self, "_next", nxt)
        # the flat first corners of the two glued edges, one row per pair
        object.__setattr__(self, "_glued", (start[f] + e).reshape(-1, 2))

    @cached_property
    def scale(self):
        return float(np.abs(self._pts).max())

    def corners(self):
        return [(f, c) for f, poly in enumerate(self.polygons) for c in range(len(poly))]

    @cached_property
    def _flat(self):
        """The corner layout as Python lists for the geodesic search:
        (x, y) pairs, the next corner of the same polygon, and the polygon
        and position of every corner."""
        sizes = [len(p) for p in self.polygons]
        return _FlatNet(
            xy=list(map(tuple, self._pts.tolist())),
            next=self._next.tolist(),
            face=np.repeat(np.arange(len(sizes)), sizes).tolist(),
            pos=(np.arange(len(self._pts)) - np.repeat(self._start, sizes)).tolist(),
            start=self._start.tolist(),
        )

    @cached_property
    def _twin(self):
        """Flat edge glued to each flat edge, -1 where none is: the layout
        of ``core.half_edges``."""
        a, b = self._glued.T
        hits = np.bincount(np.concatenate([a, b[b != a]]), minlength=len(self._pts))
        if hits.max(initial=0) > 1:
            raise InvalidNet("an edge appears in more than one identification")
        twin = np.full(len(self._pts), -1)
        twin[a], twin[b] = b, a
        return twin.tolist()

    @cached_property
    def edge_partner(self):
        """Map (polygon, edge) -> (polygon, edge); None‑safe via .get."""
        face, pos = self._flat.face, self._flat.pos
        return {(face[k], pos[k]): (face[t], pos[t])
                for k, t in enumerate(self._twin) if t >= 0}

    @cached_property
    def _class_label(self):
        """Corner class of every flat corner: the connected components of
        the graph that glues corner ea of a to eb+1 of b, and ea+1 to eb,
        numbered in the order of their first corner."""
        a, b = self._glued.T
        u = np.concatenate([a, self._next[a]])
        w = np.concatenate([self._next[b], b])
        n = len(self._pts)
        return connected_components(
            sparse.coo_matrix((np.ones(len(u)), (u, w)), shape=(n, n)), directed=False)[1]

    @cached_property
    def _component(self):
        """Connected component of every polygon under the identifications."""
        a, b = np.asarray(self._flat.face)[self._glued].T
        n = len(self.polygons)
        return connected_components(
            sparse.coo_matrix((np.ones(len(a)), (a, b)), shape=(n, n)), directed=False)[1]

    @cached_property
    def _angles(self):
        """Interior angle at every flat corner: pi less the turn from the
        edge into the corner to the edge out of it."""
        d = self._pts[self._next] - self._pts  # edge k, into corner next[k]
        dn = d[self._next]
        angles = np.empty(len(d))
        angles[self._next] = np.pi - np.arctan2(d[:, 0] * dn[:, 1] - d[:, 1] * dn[:, 0],
                                                d[:, 0] * dn[:, 0] + d[:, 1] * dn[:, 1])
        return angles

    @cached_property
    def vertex_classes(self):
        """Corner classes induced by the identifications, each sorted, in
        the order of their first corner."""
        label = self._class_label
        classes = [[] for _ in range(int(label.max()) + 1)]
        for corner, k in zip(self.corners(), label.tolist()):
            classes[k].append(corner)
        return tuple(map(tuple, classes))

    def corner_class_of(self, f, c):
        if not (0 <= f < len(self.polygons) and 0 <= c < len(self.polygons[f])):
            raise KeyError((f, c))
        return int(self._class_label[self._start[f] + c])

    @cached_property
    def labelled_corners(self):
        """Map corner label -> the first (polygon, corner) carrying it."""
        labels = self.corner_labels or {}
        return dict(zip(reversed(labels.values()), reversed(labels.keys())))

    def edge_points(self, f, e):
        poly = self.polygons[f]
        return poly[e], poly[(e + 1) % len(poly)]

    def edge_length(self, f, e):
        a, b = self.edge_points(f, e)
        return float(np.linalg.norm(b - a))


class _FlatNet(typing.NamedTuple):
    xy: list
    next: list
    face: list
    pos: list
    start: list


@dataclasses.dataclass(frozen=True)
class SurfacePoint:
    polygon: int
    xy: tuple

    @property
    def coords(self):
        return np.asarray(self.xy, dtype=float)


def surface_point(net, polygon, x, y, tol=1e-9):
    p = np.array([float(x), float(y)])
    if not planar.point_in_polygon(net.polygons[polygon], p, tol=max(tol, 1e-12)):
        raise PointOutsidePolygon(f"point {p} is outside polygon {polygon}")
    return SurfacePoint(polygon=int(polygon), xy=(float(x), float(y)))


@dataclasses.dataclass(frozen=True)
class GeodesicPath:
    """Shortest path as per-face entry/exit points plus the face sequence."""

    points: tuple          # SurfacePoints: [p, x1|f0, x1|f1, x2|f1, ..., q]
    face_sequence: tuple
    length: float

    def point_at(self, s):
        """Surface point at arclength s from the start."""
        if s < -1e-12 or s > self.length + 1e-9 * max(self.length, 1.0):
            raise ArclengthOutOfRange(f"arclength {s} outside [0, {self.length}]")
        s = min(max(s, 0.0), self.length)
        acc = 0.0
        for k, face in enumerate(self.face_sequence):
            a = self.points[2 * k].coords
            b = self.points[2 * k + 1].coords
            seg = float(np.linalg.norm(b - a))
            if s <= acc + seg or k == len(self.face_sequence) - 1:
                t = 0.0 if seg == 0 else (s - acc) / seg
                t = min(max(t, 0.0), 1.0)
                p = a + t * (b - a)
                return SurfacePoint(polygon=face, xy=(float(p[0]), float(p[1])))
            acc += seg
        raise AssertionError("unreachable")

    def reversed(self):
        faces = tuple(reversed(self.face_sequence))
        pts = tuple(reversed(self.points))
        return GeodesicPath(points=pts, face_sequence=faces, length=self.length)


# ---------------------------------------------------------------------------
# net construction and validation


def net_from_polytope(poly):
    """Unfold every face of a convex polytope into its own planar polygon.

    Returns a MetricNet with one congruent polygon per face, identifications
    along the original edges, and corner labels mapping back to vertex ids.
    """
    face, tail, head, twin = poly._half_edges
    start = np.searchsorted(face, np.arange(len(poly.faces)))
    pos = np.arange(len(face)) - start[face]
    origin = poly.vertices[tail[start]]
    e1 = poly.vertices[head[start]] - origin
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    e2 = np.cross(poly.normals, e1)
    d = poly.vertices[tail] - origin[face]
    local = np.stack([np.einsum("ij,ij->i", d, e1[face]),
                      np.einsum("ij,ij->i", d, e2[face])], axis=1)
    # each edge once, from its tail < head side, in face order
    glued = np.flatnonzero((tail < head) & (twin >= 0))
    bounds = [*start.tolist(), len(face)]
    face, pos = face.tolist(), pos.tolist()
    return MetricNet(
        polygons=tuple(local[a:b] for a, b in zip(bounds, bounds[1:])),
        identifications=tuple(((face[k], pos[k]), (face[t], pos[t]))
                              for k, t in zip(glued.tolist(), twin[glued].tolist())),
        corner_labels=dict(zip(zip(face, pos), tail.tolist())),
    )


@dataclasses.dataclass
class NetValidationReport:
    ok: bool
    euler_characteristic: int
    connected: bool
    closed: bool
    unmatched_edges: list
    sphere_topology_ok: bool
    edge_mismatches: list       # (pair_index, length_a, length_b)
    edge_lengths_ok: bool
    angle_sums: list            # theta per vertex class
    angle_violations: list      # (class_index, theta)
    angle_sums_ok: bool

    def as_dict(self):
        return dataclasses.asdict(self)


def validate_net(net, tol=1e-9):
    """Check the three gluing conditions; failures are report entries."""
    scale = max(net.scale, 1.0)

    # closedness: every edge in exactly one identification
    hits = np.bincount(net._glued.ravel(), minlength=len(net._pts))
    unmatched = [c for c, h in zip(net.corners(), hits.tolist()) if h == 0]
    closed = not unmatched and int(hits.max()) <= 1

    connected = int(net._component.max()) == 0
    euler = len(net.vertex_classes) - len(net.identifications) + len(net.polygons)
    sphere_ok = closed and connected and euler == 2

    mismatches = []
    for k, ((a, ea), (b, eb)) in enumerate(net.identifications):
        la, lb = net.edge_length(a, ea), net.edge_length(b, eb)
        if abs(la - lb) > tol * scale:
            mismatches.append((k, la, lb))
    lengths_ok = not mismatches

    # bincount adds each class's angles in flat corner order, the order of
    # the class's corners in vertex_classes
    sums = np.bincount(net._class_label, weights=net._angles).tolist()
    violations = [(ci, theta) for ci, theta in enumerate(sums) if theta > 2 * np.pi + tol]
    angles_ok = not violations

    return NetValidationReport(
        ok=sphere_ok and lengths_ok and angles_ok,
        euler_characteristic=euler,
        connected=connected,
        closed=closed,
        unmatched_edges=unmatched,
        sphere_topology_ok=sphere_ok,
        edge_mismatches=mismatches,
        edge_lengths_ok=lengths_ok,
        angle_sums=sums,
        angle_violations=violations,
        angle_sums_ok=angles_ok,
    )


@dataclasses.dataclass
class CurvatureReport:
    classes: tuple              # corner classes
    labels: tuple               # representative corner label per class (or None)
    full_angles: np.ndarray     # theta per class
    curvatures: np.ndarray      # 2*pi - theta
    total: float

    def as_dict(self):
        return {
            "labels": list(self.labels),
            "full_angles": [float(t) for t in self.full_angles],
            "curvatures": [float(w) for w in self.curvatures],
            "total": float(self.total),
        }


def vertex_curvatures(net, tol=1e-9):
    """Cone angle theta and curvature 2*pi - theta for every vertex class."""
    rep = validate_net(net, tol=tol)
    if not (rep.closed and rep.edge_lengths_ok):
        raise InvalidNet("net fails the closedness or edge-length conditions")
    thetas = np.array(rep.angle_sums)
    labels = [net.corner_labels.get(cls[0]) if net.corner_labels else None
              for cls in net.vertex_classes]
    curv = 2 * np.pi - thetas
    return CurvatureReport(
        classes=net.vertex_classes,
        labels=tuple(labels),
        full_angles=thetas,
        curvatures=curv,
        total=float(curv.sum()),
    )


# ---------------------------------------------------------------------------
# geodesics


def _point_representations(net, sp, tol=1e-9):
    """All (face, (x, y)) descriptions of a surface point."""
    lim = tol * max(net.scale, 1.0)
    xy, nxt, face = net._flat.xy, net._flat.next, net._flat.face
    f = sp.polygon
    px, py = float(sp.xy[0]), float(sp.xy[1])
    corners = range(net._flat.start[f], net._flat.start[f] + len(net.polygons[f]))
    for k in corners:
        if math.hypot(px - xy[k][0], py - xy[k][1]) <= lim:
            label = net._class_label
            return [(face[j], xy[j]) for j in np.flatnonzero(label == label[k]).tolist()]
    reps = [(f, (px, py))]
    for k in corners:
        (ax, ay), (bx, by) = xy[k], xy[nxt[k]]
        abx, aby = bx - ax, by - ay
        length2 = abx * abx + aby * aby
        t = ((px - ax) * abx + (py - ay) * aby) / length2 if length2 else 0.0
        if 0.0 < t < 1.0 and math.hypot(ax + t * abx - px, ay + t * aby - py) <= lim:
            j = net._twin[k]
            if j >= 0:
                (qx, qy), (rx, ry) = xy[j], xy[nxt[j]]
                reps.append((face[j], (qx + (1.0 - t) * (rx - qx), qy + (1.0 - t) * (ry - qy))))
            break
    return reps


def _glue_transform(q0, q1, A, B):
    """Rigid motion (cos, sin, tx, ty) placing the edge q0 -> q1 of a
    polygon on the segment B -> A.

    A, B are the chart positions of the current face's edge (P0, P1); the
    reversed gluing sends q0 -> B and q1 -> A.
    """
    ang = (math.atan2(A[1] - B[1], A[0] - B[0])
           - math.atan2(q1[1] - q0[1], q1[0] - q0[0]))
    c, s = math.cos(ang), math.sin(ang)
    return c, s, B[0] - (c * q0[0] - s * q0[1]), B[1] - (s * q0[0] + c * q0[1])


def _seg_dist(p, a, b):
    abx, aby = b[0] - a[0], b[1] - a[1]
    denom = abx * abx + aby * aby
    if denom == 0.0:
        return math.hypot(p[0] - a[0], p[1] - a[1])
    t = min(1.0, max(0.0, ((p[0] - a[0]) * abx + (p[1] - a[1]) * aby) / denom))
    return math.hypot(a[0] + t * abx - p[0], a[1] + t * aby - p[1])


def _clip_to_cone(src, ca, cb, e0, e1, slack):
    """Clip segment [e0, e1] to the cone at src spanned by rays to ca, cb.

    The cone is the set {x : cross(ca-src, x-src) >= 0 >= cross(cb-src, x-src)}.
    Returns (w0, w1) or None.
    """
    sx, sy = src
    for anchor, sign in ((ca, 1.0), (cb, -1.0)):
        dx, dy = anchor[0] - sx, anchor[1] - sy
        v0 = sign * (dx * (e0[1] - sy) - dy * (e0[0] - sx))
        v1 = sign * (dx * (e1[1] - sy) - dy * (e1[0] - sx))
        in0, in1 = v0 >= -slack, v1 >= -slack
        if in0 and in1:
            continue
        if not (in0 or in1):
            return None
        t = v0 / (v0 - v1)
        cut = (e0[0] + t * (e1[0] - e0[0]), e0[1] + t * (e1[1] - e0[1]))
        e0, e1 = (e0, cut) if in0 else (cut, e1)
    return e0, e1


def _positive_cone_window(src, w0, w1, rel_tol=1e-13):
    """Order window endpoints CCW as seen from src; None if angularly degenerate.

    A window whose supporting line passes through the source subtends no
    angle: the only path through it grazes a net vertex, which shortest
    paths on positively curved nets never do.
    """
    ax, ay = w0[0] - src[0], w0[1] - src[1]
    bx, by = w1[0] - src[0], w1[1] - src[1]
    cr = ax * by - ay * bx
    if abs(cr) <= rel_tol * (math.hypot(ax, ay) * math.hypot(bx, by)):
        return None
    return (w0, w1) if cr > 0 else (w1, w0)


@dataclasses.dataclass(slots=True)
class _State:
    """A face sequence unfolded into the root chart.  Points are (x, y)
    pairs; ``motion`` (cos, sin, tx, ty) maps the face's local coordinates
    into the chart."""

    face: int
    entry_edge: int
    motion: tuple
    win_a: tuple
    win_b: tuple
    edge_a: tuple        # chart endpoints of the full entry edge (P0 side)
    edge_b: tuple
    src: tuple
    depth: int
    parent: object       # parent _State or None (initial states)
    src_rep: tuple       # (face, local coords) of the source in the root chart


def shortest_path(net, p, q, tol=1e-9, max_states=500_000):
    """Shortest path between two surface points by windowed unfolding.

    Face sequences are explored best-first on the straight-line lower bound
    from the unfolded source to the reachability window on the entered edge,
    until that bound reaches the best length found: on a connected net of
    convex polygons no cap on the sequence length is needed.  More than
    ``max_states`` expanded sequences raise SearchBudgetExceeded; a reflex
    corner (NonConvexPolygon) or points in different components raise
    InvalidNet before any is expanded.

    A candidate path replaces the best one only when it is shorter by more
    than ``slack`` (1e-12 of the net's scale), or ties within ``slack``
    through fewer faces, so rounding does not decide between the faces at
    a vertex endpoint.
    """
    reflex = np.flatnonzero(net._angles > np.pi + 1e-12)
    if len(reflex):
        raise NonConvexPolygon(f"polygon {net._flat.face[reflex[0]]} has a reflex corner")
    if net._component[p.polygon] != net._component[q.polygon]:
        raise InvalidNet("surface appears disconnected: p and q are in different components")
    scale = max(net.scale, 1.0)
    slack = 1e-12 * scale
    preps = _point_representations(net, p, tol=tol)
    qreps = {}
    for g, ql in _point_representations(net, q, tol=tol):
        qreps.setdefault(g, []).append(ql)

    best_len = math.inf
    best_depth = 0
    best = None  # (state|None, psrc, q_chart, q_local, face)

    # direct same-face candidates
    for f, pl in preps:
        for ql in qreps.get(f, ()):
            d = math.hypot(ql[0] - pl[0], ql[1] - pl[1])
            if d <= slack:
                raise CoincidentPoints("p and q coincide")
            if d < best_len - slack:
                best_len, best = d, (None, pl, ql, ql, f)

    xy, nxt, face, pos, start = net._flat
    twin = net._twin
    heap = []
    counter = itertools.count()

    for f, pl in preps:
        for k in range(start[f], start[f] + len(net.polygons[f])):
            t = twin[k]
            if t < 0:
                continue
            a, b = xy[k], xy[nxt[k]]
            if _seg_dist(pl, a, b) <= slack:
                continue  # source sits on this edge; covered by its other rep
            oriented = _positive_cone_window(pl, a, b)
            if oriented is None:
                continue
            wa, wb = oriented
            st = _State(
                face=face[t], entry_edge=pos[t],
                motion=_glue_transform(xy[t], xy[nxt[t]], a, b),
                win_a=wa, win_b=wb, edge_a=a, edge_b=b,
                src=pl, depth=1, parent=None, src_rep=(f, pl),
            )
            heapq.heappush(heap, (_seg_dist(pl, wa, wb), next(counter), st))

    states_seen = 0
    while heap:
        lb, _, st = heapq.heappop(heap)
        if lb >= best_len - slack:
            break
        states_seen += 1
        if states_seen > max_states:
            raise SearchBudgetExceeded(
                f"geodesic search exceeded {max_states} states"
            )
        c, s, tx, ty = st.motion
        src, win_a, win_b = st.src, st.win_a, st.win_b
        sx, sy = src

        # q in this face?  It must sit inside the visibility cone and on the
        # far side of the entry window's supporting line.
        wdx, wdy = win_b[0] - win_a[0], win_b[1] - win_a[1]
        side = wdx * (sy - win_a[1]) - wdy * (sx - win_a[0])
        side_p = (side > 0) - (side < 0)
        for ql in qreps.get(st.face, ()):
            qx = c * ql[0] - s * ql[1] + tx
            qy = s * ql[0] + c * ql[1] + ty
            da = (win_a[0] - sx) * (qy - sy) - (win_a[1] - sy) * (qx - sx)
            db = (win_b[0] - sx) * (qy - sy) - (win_b[1] - sy) * (qx - sx)
            side_q = wdx * (qy - win_a[1]) - wdy * (qx - win_a[0])
            if da >= -slack and db <= slack and side_p * side_q <= slack * scale:
                d = math.hypot(qx - sx, qy - sy)
                if d < best_len - slack or (d <= best_len + slack
                                            and st.depth < best_depth):
                    best_len, best_depth = d, st.depth
                    best = (st, src, (qx, qy), ql, st.face)

        k0 = start[st.face]
        chart = [(c * x - s * y + tx, s * x + c * y + ty)
                 for x, y in xy[k0:k0 + len(net.polygons[st.face])]]
        entry = k0 + st.entry_edge
        for k in range(k0, k0 + len(chart)):
            t = twin[k]
            if k == entry or t < 0:
                continue
            e0, e1 = chart[k - k0], chart[nxt[k] - k0]
            win = _clip_to_cone(src, win_a, win_b, e0, e1, slack)
            if win is None:
                continue
            oriented = _positive_cone_window(src, *win)
            if oriented is None:
                continue  # sliver grazing a net vertex
            wa, wb = oriented
            lb2 = _seg_dist(src, wa, wb)
            if lb2 >= best_len - slack:
                continue
            # e0, e1 are already chart coordinates, so this transform maps
            # the next face's local coordinates straight into the chart
            st2 = _State(
                face=face[t], entry_edge=pos[t],
                motion=_glue_transform(xy[t], xy[nxt[t]], e0, e1),
                win_a=wa, win_b=wb, edge_a=e0, edge_b=e1,
                src=src, depth=st.depth + 1, parent=st, src_rep=st.src_rep,
            )
            heapq.heappush(heap, (lb2, next(counter), st2))

    if best is None:
        raise InvalidNet("no straight unfolded path joins p and q")
    return _reconstruct(net, best, best_len)


def _reconstruct(net, best, length):
    st, psrc, q_chart, q_local, q_face = best
    chain = []
    cur = st
    while cur is not None:
        chain.append(cur)
        cur = cur.parent
    chain.reverse()

    if not chain:  # same-face path
        return GeodesicPath(points=(SurfacePoint(q_face, psrc), SurfacePoint(q_face, q_local)),
                            face_sequence=(q_face,), length=length)

    xy, nxt, face, _, start = net._flat
    root_face = chain[0].src_rep[0]
    faces = [root_face] + [c.face for c in chain]
    points = [SurfacePoint(root_face, psrc)]
    segx, segy = q_chart[0] - psrc[0], q_chart[1] - psrc[1]
    for c in chain:
        # crossing parameter s on the full entry edge [edge_a -> edge_b]
        (ax, ay), (bx, by) = c.edge_a, c.edge_b
        denom = (bx - ax) * segy - (by - ay) * segx
        s = 0.5 if abs(denom) < 1e-300 else (
            ((psrc[0] - ax) * segy - (psrc[1] - ay) * segx) / denom)
        s = min(1.0, max(0.0, s))
        # express the crossing in local coords on both sides of the edge;
        # the previous face's matching edge is the identification partner
        k = start[c.face] + c.entry_edge
        j = net._twin[k]
        (p0x, p0y), (p1x, p1y) = xy[j], xy[nxt[j]]
        (q0x, q0y), (q1x, q1y) = xy[k], xy[nxt[k]]
        points.append(SurfacePoint(face[j], (p0x + s * (p1x - p0x), p0y + s * (p1y - p0y))))
        points.append(SurfacePoint(c.face, (q0x + (1.0 - s) * (q1x - q0x),
                                            q0y + (1.0 - s) * (q1y - q0y))))
    points.append(SurfacePoint(q_face, q_local))
    return GeodesicPath(points=tuple(points), face_sequence=tuple(faces), length=length)


# ---------------------------------------------------------------------------
# comparison angles


def comparison_angle(x, y, d, tol=1e-12):
    """Angle at the apex of the planar triangle with sides x, y and base d."""
    if x <= 0 or y <= 0:
        raise TriangleInequalityViolated("side lengths must be positive")
    scale = max(x, y, d)
    if d > x + y + tol * scale or d < abs(x - y) - tol * scale:
        raise TriangleInequalityViolated(
            f"sides ({x}, {y}, {d}) violate the triangle inequality"
        )
    c = (x * x + y * y - d * d) / (2.0 * x * y)
    return float(np.arccos(min(1.0, max(-1.0, c))))


def corner_angle(net, origin, a, b, **path_kw):
    """Angle between the geodesics origin->a and origin->b at the origin.

    Comparison angles at scales halving from a quarter of the shorter path
    until two agree to 1e-12; on a polyhedral metric they stabilise exactly
    once the sector between the two path germs is flat at the sampled scale.
    """
    path_a = shortest_path(net, origin, a, **path_kw)
    path_b = shortest_path(net, origin, b, **path_kw)
    s = min(path_a.length, path_b.length) * 0.25
    prev = None
    for _ in range(60):
        pk = path_a.point_at(s)
        qk = path_b.point_at(s)
        d = shortest_path(net, pk, qk, **path_kw).length
        alpha = comparison_angle(s, s, d)
        if prev is not None and abs(alpha - prev) <= 1e-12:
            return alpha
        prev = alpha
        s *= 0.5
        if s < 1e-9 * max(net.scale, 1.0):
            break
    return prev


def triangle_excess(net, a, b, c, **kw):
    """Excess alpha + beta + gamma - pi of the geodesic triangle abc.

    For convex-polytope nets this equals the total curvature of the vertex
    classes enclosed by the triangle.
    """
    alpha = corner_angle(net, a, b, c, **kw)
    beta = corner_angle(net, b, c, a, **kw)
    gamma = corner_angle(net, c, a, b, **kw)
    return alpha + beta + gamma - np.pi
