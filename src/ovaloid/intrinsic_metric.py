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
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from . import core, planar
from .errors import (
    CoincidentPoints,
    InvalidNet,
    PointOutsidePolygon,
    SearchBudgetExceeded,
    TriangleInequalityViolated,
)


def _rot(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def _cross2(u, v):
    return float(u[0] * v[1] - u[1] * v[0])


@dataclasses.dataclass(frozen=True)
class MetricNet:
    """Planar polygons plus edge identifications.

    ``polygons[i]`` is a CCW (k_i, 2) array; edge e of a polygon runs from
    corner e to corner e+1.  Each identification ((a, ea), (b, eb)) glues the
    two edges with reversed orientation: corner ea of a meets corner eb+1 of
    b, corner ea+1 meets corner eb.  ``corner_labels`` optionally tags corners
    (e.g. with source polytope vertex ids).
    """

    polygons: tuple
    identifications: tuple
    corner_labels: dict | None = None

    def __post_init__(self):
        polys = tuple(np.asarray(p, dtype=float) for p in self.polygons)
        if not polys:
            raise ValueError("a net needs at least one polygon")
        for k, p in enumerate(polys):
            if p.ndim != 2 or p.shape[1] != 2 or len(p) < 3 or not np.isfinite(p).all():
                raise ValueError(f"polygon {k} is not a finite (n>=3, 2) array")
        # twice the signed area of every polygon, by one shoelace sum
        sizes = [len(p) for p in polys]
        pts = np.concatenate(polys)
        nxt = np.roll(pts, -1, axis=0)
        nxt[np.cumsum(sizes) - 1] = [p[0] for p in polys]
        area = np.bincount(np.repeat(np.arange(len(polys)), sizes),
                           pts[:, 0] * nxt[:, 1] - nxt[:, 0] * pts[:, 1])
        if not (area > 0).all():
            raise ValueError(f"polygon {np.argmin(area > 0)} must be CCW with positive area")
        object.__setattr__(self, "polygons", polys)
        ids = tuple(
            ((int(a), int(ea)), (int(b), int(eb)))
            for (a, ea), (b, eb) in self.identifications
        )
        for f, e in itertools.chain.from_iterable(ids):
            if not (0 <= f < len(polys) and 0 <= e < len(polys[f])):
                raise ValueError(f"edge {e} of polygon {f} is not in the net")
        object.__setattr__(self, "identifications", ids)

    @property
    def scale(self):
        return max(float(np.abs(p).max()) for p in self.polygons)

    def corners(self):
        return [(f, c) for f, poly in enumerate(self.polygons) for c in range(len(poly))]

    @cached_property
    def edge_partner(self):
        """Map (polygon, edge) -> (polygon, edge); None‑safe via .get."""
        partner = {}
        for (a, ea), (b, eb) in self.identifications:
            if (a, ea) in partner or (b, eb) in partner:
                raise InvalidNet("an edge appears in more than one identification")
            partner[(a, ea)] = (b, eb)
            partner[(b, eb)] = (a, ea)
        return partner

    @cached_property
    def vertex_classes(self):
        """Corner classes induced by the identifications, each sorted, in
        the order of their first corner: the connected components of the
        graph that glues corner ea of a to eb+1 of b, and ea+1 to eb."""
        sizes = np.array([len(p) for p in self.polygons])
        start = np.cumsum(sizes) - sizes
        a, ea, b, eb = np.array(self.identifications, dtype=np.intp).reshape(-1, 4).T
        u = np.concatenate([start[a] + ea, start[a] + (ea + 1) % sizes[a]])
        w = np.concatenate([start[b] + (eb + 1) % sizes[b], start[b] + eb])
        n = int(sizes.sum())
        # connected_components numbers the components in the order of their
        # first node, so the classes come out sorted
        count, label = connected_components(
            sparse.coo_matrix((np.ones(len(u)), (u, w)), shape=(n, n)), directed=False)
        classes = [[] for _ in range(count)]
        for corner, k in zip(self.corners(), label.tolist()):
            classes[k].append(corner)
        return tuple(map(tuple, classes))

    def corner_class_of(self, f, c):
        for k, cls in enumerate(self.vertex_classes):
            if (f, c) in cls:
                return k
        raise KeyError((f, c))

    def edge_points(self, f, e):
        poly = self.polygons[f]
        return poly[e], poly[(e + 1) % len(poly)]

    def edge_length(self, f, e):
        a, b = self.edge_points(f, e)
        return float(np.linalg.norm(b - a))


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
            raise ValueError(f"arclength {s} outside [0, {self.length}]")
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
    face, tail, head, twin = core.half_edges(poly.faces)
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
    face, pos = face.tolist(), pos.tolist()
    return MetricNet(
        polygons=tuple(np.split(local, start[1:])),
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
    sizes = np.array([len(p) for p in net.polygons])
    start = np.cumsum(sizes) - sizes
    glued = np.array(net.identifications, dtype=np.intp).reshape(-1, 2, 2)
    hits = np.bincount((start[glued[..., 0]] + glued[..., 1]).ravel(),
                       minlength=int(sizes.sum()))
    unmatched = [c for c, h in zip(net.corners(), hits.tolist()) if h == 0]
    closed = not unmatched and int(hits.max()) <= 1

    # connectivity over polygons
    n_poly = len(net.polygons)
    parts, _ = connected_components(
        sparse.coo_matrix((np.ones(len(glued)), (glued[:, 0, 0], glued[:, 1, 0])),
                          shape=(n_poly, n_poly)),
        directed=False)
    connected = parts == 1

    v = len(net.vertex_classes)
    e = len(net.identifications)
    f = n_poly
    euler = v - e + f
    sphere_ok = closed and connected and euler == 2

    mismatches = []
    for k, ((a, ea), (b, eb)) in enumerate(net.identifications):
        la, lb = net.edge_length(a, ea), net.edge_length(b, eb)
        if abs(la - lb) > tol * scale:
            mismatches.append((k, la, lb))
    lengths_ok = not mismatches

    angles = [planar.interior_angles(p) for p in net.polygons]
    sums = []
    violations = []
    for ci, cls in enumerate(net.vertex_classes):
        theta = 0.0
        for (pf, pc) in cls:
            theta += float(angles[pf][pc])
        sums.append(theta)
        if theta > 2 * np.pi + tol:
            violations.append((ci, theta))
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
    """All (face, local coords) descriptions of a surface point."""
    scale = max(net.scale, 1.0)
    f = sp.polygon
    p = sp.coords
    poly = net.polygons[f]
    k = len(poly)
    # corner?
    for c in range(k):
        if np.linalg.norm(p - poly[c]) <= tol * scale:
            cls = net.vertex_classes[net.corner_class_of(f, c)]
            return [(g, np.array(net.polygons[g][cc])) for g, cc in cls]
    # on an edge?
    reps = [(f, p)]
    for e in range(k):
        a, b = net.edge_points(f, e)
        ab = b - a
        t = float(np.dot(p - a, ab) / np.dot(ab, ab))
        if 0.0 < t < 1.0 and np.linalg.norm(a + t * ab - p) <= tol * scale:
            partner = net.edge_partner.get((f, e))
            if partner is not None:
                g, eg = partner
                qa, qb = net.edge_points(g, eg)
                reps.append((g, qa + (1.0 - t) * (qb - qa)))
            break
    return reps


def _glue_transform(net, g, eg, A, B):
    """Rigid motion placing polygon g so its edge eg lands on segment B->A.

    A, B are the chart positions of the current face's edge (P0, P1); the
    reversed gluing sends Q0 -> B and Q1 -> A.
    """
    q0, q1 = net.edge_points(g, eg)
    ang = np.arctan2(*(A - B)[::-1]) - np.arctan2(*(q1 - q0)[::-1])
    rot = _rot(ang)
    t = B - rot @ q0
    return rot, t


def _seg_dist(p, a, b):
    ab = b - a
    denom = float(np.dot(ab, ab))
    if denom == 0.0:
        return float(np.linalg.norm(p - a))
    t = min(1.0, max(0.0, float(np.dot(p - a, ab) / denom)))
    return float(np.linalg.norm(a + t * ab - p))


def _clip_to_cone(src, ca, cb, e0, e1, slack):
    """Clip segment [e0, e1] to the cone at src spanned by rays to ca, cb.

    The cone is the set {x : cross(ca-src, x-src) >= 0 >= cross(cb-src, x-src)}.
    Returns (w0, w1) or None.
    """
    pts = [e0, e1]
    for anchor, sign in ((ca, 1.0), (cb, -1.0)):
        d = anchor - src
        vals = [sign * _cross2(d, p - src) for p in pts]
        inside = [v >= -slack for v in vals]
        if all(inside):
            continue
        if not any(inside):
            return None
        t = vals[0] / (vals[0] - vals[1])
        cut = pts[0] + t * (pts[1] - pts[0])
        pts = [pts[0], cut] if inside[0] else [cut, pts[1]]
    return pts


def _positive_cone_window(src, w0, w1, rel_tol=1e-13):
    """Order window endpoints CCW as seen from src; None if angularly degenerate.

    A window whose supporting line passes through the source subtends no
    angle: the only path through it grazes a net vertex, which shortest
    paths on positively curved nets never do.
    """
    ra, rb = w0 - src, w1 - src
    cr = _cross2(ra, rb)
    if abs(cr) <= rel_tol * float(np.linalg.norm(ra) * np.linalg.norm(rb)):
        return None
    return (w0, w1) if cr > 0 else (w1, w0)


@dataclasses.dataclass
class _State:
    face: int
    entry_edge: int
    rot: np.ndarray
    trans: np.ndarray
    win_a: np.ndarray
    win_b: np.ndarray
    edge_a: np.ndarray   # chart endpoints of the full entry edge (P0 side)
    edge_b: np.ndarray
    src: np.ndarray
    depth: int
    parent: object       # parent _State or None (initial states)
    src_rep: tuple       # (face, local coords) of the source in the root chart


def shortest_path(net, p, q, tol=1e-9, max_faces=32, max_states=500_000):
    """Shortest path between two surface points by windowed unfolding.

    Face sequences are explored best-first on the straight-line lower bound
    from the unfolded source to the reachability window on the entered edge.
    Sequences longer than ``max_faces`` are not expanded; a
    SearchBudgetExceeded is raised when that cap pruned a sequence whose
    lower bound is below the best length found, so a shorter path may have
    been missed (or when no path was found at all).
    """
    scale = max(net.scale, 1.0)
    slack = 1e-12 * scale
    preps = _point_representations(net, p, tol=tol)
    qreps = {}
    for g, ql in _point_representations(net, q, tol=tol):
        qreps.setdefault(g, []).append(ql)

    best_len = np.inf
    best = None  # (state|None, psrc, q_chart, q_local, face)

    # direct same-face candidates
    for f, pl in preps:
        for ql in qreps.get(f, []):
            d = float(np.linalg.norm(ql - pl))
            if d < best_len:
                best_len = d
                best = (None, pl, ql, ql, f)
    if best is not None and best_len <= slack:
        raise CoincidentPoints("p and q coincide")

    heap = []
    counter = 0
    pruned_lb = np.inf  # smallest lower bound of a sequence the cap stopped

    def push(state, lb):
        nonlocal counter
        counter += 1
        heapq.heappush(heap, (lb, counter, state))

    for f, pl in preps:
        poly = net.polygons[f]
        for e in range(len(poly)):
            partner = net.edge_partner.get((f, e))
            if partner is None:
                continue
            a, b = net.edge_points(f, e)
            if _seg_dist(pl, a, b) <= slack:
                continue  # source sits on this edge; covered by its other rep
            oriented = _positive_cone_window(pl, a, b)
            if oriented is None:
                continue
            wa, wb = oriented
            g, eg = partner
            rot, trans = _glue_transform(net, g, eg, a, b)
            st = _State(
                face=g, entry_edge=eg, rot=rot, trans=trans,
                win_a=wa, win_b=wb, edge_a=a, edge_b=b,
                src=pl, depth=1, parent=None, src_rep=(f, pl),
            )
            push(st, _seg_dist(pl, wa, wb))

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
        poly = net.polygons[st.face]
        chart = poly @ st.rot.T + st.trans

        # q in this face?  It must sit inside the visibility cone and on the
        # far side of the entry window's supporting line.
        wdir = st.win_b - st.win_a
        side_p = np.sign(_cross2(wdir, st.src - st.win_a))
        for ql in qreps.get(st.face, []):
            qc = st.rot @ ql + st.trans
            da = _cross2(st.win_a - st.src, qc - st.src)
            db = _cross2(st.win_b - st.src, qc - st.src)
            side_q = _cross2(wdir, qc - st.win_a)
            if da >= -slack and db <= slack and side_p * side_q <= slack * scale:
                d = float(np.linalg.norm(qc - st.src))
                if d < best_len:
                    best_len = d
                    best = (st, st.src, qc, ql, st.face)

        if st.depth >= max_faces:
            pruned_lb = min(pruned_lb, lb)
            continue

        k = len(poly)
        for e in range(k):
            if e == st.entry_edge:
                continue
            partner = net.edge_partner.get((st.face, e))
            if partner is None:
                continue
            e0, e1 = chart[e], chart[(e + 1) % k]
            win = _clip_to_cone(st.src, st.win_a, st.win_b, e0, e1, slack)
            if win is None:
                continue
            oriented = _positive_cone_window(st.src, win[0], win[1])
            if oriented is None:
                continue  # sliver grazing a net vertex
            wa, wb = oriented
            lb2 = _seg_dist(st.src, wa, wb)
            if lb2 >= best_len - slack:
                continue
            g, eg = partner
            # e0, e1 are already chart coordinates, so this transform maps
            # g-local coordinates straight into the chart
            rot, trans = _glue_transform(net, g, eg, e0, e1)
            st2 = _State(
                face=g, entry_edge=eg, rot=rot, trans=trans,
                win_a=wa, win_b=wb, edge_a=e0, edge_b=e1,
                src=st.src, depth=st.depth + 1, parent=st, src_rep=st.src_rep,
            )
            push(st2, lb2)

    if best is None:
        if pruned_lb < np.inf:
            raise SearchBudgetExceeded(
                f"no path found within {max_faces} faces"
            )
        raise InvalidNet("surface appears disconnected; no path found")
    if pruned_lb < best_len - slack:
        raise SearchBudgetExceeded(
            f"a path through more than {max_faces} faces may be shorter "
            f"than the {best_len} found"
        )

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
        f = q_face
        pts = (
            SurfacePoint(f, (float(psrc[0]), float(psrc[1]))),
            SurfacePoint(f, (float(q_local[0]), float(q_local[1]))),
        )
        return GeodesicPath(points=pts, face_sequence=(f,), length=length)

    root_face = chain[0].src_rep[0]
    faces = [root_face] + [c.face for c in chain]
    points = [SurfacePoint(root_face, (float(psrc[0]), float(psrc[1])))]
    seg = q_chart - psrc
    for c in chain:
        # crossing parameter s on the full entry edge [edge_a -> edge_b]
        d = c.edge_b - c.edge_a
        denom = _cross2(d, seg)
        s = 0.5 if abs(denom) < 1e-300 else _cross2(psrc - c.edge_a, seg) / denom
        s = min(1.0, max(0.0, s))
        # express the crossing in local coords on both sides of the edge;
        # the previous face's matching edge is the identification partner
        f_prev, e_prev = net.edge_partner[(c.face, c.entry_edge)]
        p0, p1 = net.edge_points(f_prev, e_prev)
        exit_local = p0 + s * (p1 - p0)
        q0, q1 = net.edge_points(c.face, c.entry_edge)
        enter_local = q0 + (1.0 - s) * (q1 - q0)
        points.append(SurfacePoint(f_prev, (float(exit_local[0]), float(exit_local[1]))))
        points.append(SurfacePoint(c.face, (float(enter_local[0]), float(enter_local[1]))))
    points.append(SurfacePoint(q_face, (float(q_local[0]), float(q_local[1]))))
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


@dataclasses.dataclass
class ScanReport:
    xs: np.ndarray
    ys: np.ndarray
    ds: np.ndarray
    alphas: np.ndarray
    violations: list          # (k, increase) where alpha[k+1] > alpha[k] + tol
    angle_estimate: float     # alpha at the smallest sampled scale
    samples: int

    def as_dict(self):
        return {
            "xs": self.xs.tolist(),
            "ys": self.ys.tolist(),
            "ds": self.ds.tolist(),
            "alphas": self.alphas.tolist(),
            "violations": [(int(k), float(v)) for k, v in self.violations],
            "angle_estimate": float(self.angle_estimate),
            "samples": int(self.samples),
        }


def angle_monotonicity_scan(net, origin, a, b, samples=8, tol=1e-9, **path_kw):
    """Comparison angles along nested sub-paths of the two geodesics.

    For k = 1..samples, take the points at arclength x*k/samples on the
    geodesic to ``a`` and y*k/samples on the geodesic to ``b``; report every
    adjacent pair where the comparison angle *increases* beyond ``tol``.
    On a net of non-negative curvature there are none.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    path_a = shortest_path(net, origin, a, **path_kw)
    path_b = shortest_path(net, origin, b, **path_kw)
    xs, ys, ds, alphas = [], [], [], []
    for k in range(1, samples + 1):
        xk = path_a.length * k / samples
        yk = path_b.length * k / samples
        pk = path_a.point_at(xk)
        qk = path_b.point_at(yk)
        dk = shortest_path(net, pk, qk, **path_kw).length
        xs.append(xk)
        ys.append(yk)
        ds.append(dk)
        alphas.append(comparison_angle(xk, yk, dk))
    alphas = np.array(alphas)
    violations = [
        (k, float(alphas[k + 1] - alphas[k]))
        for k in range(samples - 1)
        if alphas[k + 1] > alphas[k] + tol
    ]
    return ScanReport(
        xs=np.array(xs), ys=np.array(ys), ds=np.array(ds),
        alphas=alphas, violations=violations,
        angle_estimate=float(alphas[0]), samples=samples,
    )


def corner_angle(net, origin, a, b, start_fraction=0.25, converge_tol=1e-12, **path_kw):
    """Angle between the geodesics origin->a and origin->b at the origin.

    Comparison angles are evaluated at geometrically shrinking scales; on a
    polyhedral metric they stabilise exactly once the sector between the two
    path germs is flat at the sampled scale.
    """
    path_a = shortest_path(net, origin, a, **path_kw)
    path_b = shortest_path(net, origin, b, **path_kw)
    s = min(path_a.length, path_b.length) * start_fraction
    prev = None
    for _ in range(60):
        pk = path_a.point_at(s)
        qk = path_b.point_at(s)
        d = shortest_path(net, pk, qk, **path_kw).length
        alpha = comparison_angle(s, s, d)
        if prev is not None and abs(alpha - prev) <= converge_tol:
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
