"""Independent slow oracles used to cross-check the fast implementations."""

import dataclasses
import heapq
import itertools
import json

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection, SphericalVoronoi

from ovaloid import core, ma_solver, planar, rigidity_lab
from ovaloid.errors import CoincidentPoints, InvalidNet, SearchBudgetExceeded, TooFewSamples
from ovaloid.intrinsic_metric import (
    MetricNet,
    _point_representations,
    comparison_angle,
    shortest_path,
)


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _rot(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def glue_transform(net, g, eg, A, B):
    """(rotation matrix, translation) placing polygon g so its edge eg lands
    on segment B->A: the numpy form of ``intrinsic_metric._glue_transform``."""
    q0, q1 = net.edge_points(g, eg)
    ang = np.arctan2(*(A - B)[::-1]) - np.arctan2(*(q1 - q0)[::-1])
    rot = _rot(ang)
    return rot, B - rot @ q0


def _seg_dist(p, a, b):
    ab = b - a
    denom = float(np.dot(ab, ab))
    if denom == 0.0:
        return float(np.linalg.norm(p - a))
    t = min(1.0, max(0.0, float(np.dot(p - a, ab) / denom)))
    return float(np.linalg.norm(a + t * ab - p))


def _clip_to_cone(src, ca, cb, e0, e1, slack):
    pts = [e0, e1]
    for anchor, sign in ((ca, 1.0), (cb, -1.0)):
        d = anchor - src
        vals = [sign * float(_cross(d, p - src)) for p in pts]
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
    ra, rb = w0 - src, w1 - src
    cr = float(_cross(ra, rb))
    if abs(cr) <= rel_tol * float(np.linalg.norm(ra) * np.linalg.norm(rb)):
        return None
    return (w0, w1) if cr > 0 else (w1, w0)


def windowed_search(net, p, q, tol=1e-9, max_faces=32, max_states=500_000):
    """``intrinsic_metric.shortest_path`` on numpy 2-vectors and 2x2
    rotation matrices, as (length, face sequence): the same states, pruning
    and tie rule, one numpy call per vector operation."""
    scale = max(net.scale, 1.0)
    slack = 1e-12 * scale
    preps = [(f, np.asarray(xy)) for f, xy in _point_representations(net, p, tol=tol)]
    qreps = {}
    for g, ql in _point_representations(net, q, tol=tol):
        qreps.setdefault(g, []).append(np.asarray(ql))

    best_len, best_depth, best = np.inf, 0, None
    for f, pl in preps:
        for ql in qreps.get(f, []):
            d = float(np.linalg.norm(ql - pl))
            if d <= slack:
                raise CoincidentPoints("p and q coincide")
            if d < best_len - slack:
                best_len, best = d, (f,)

    heap, counter = [], itertools.count()
    pruned_lb = np.inf
    # a state: (face, entry edge, rot, trans, win_a, win_b, src, faces)
    for f, pl in preps:
        for e in range(len(net.polygons[f])):
            partner = net.edge_partner.get((f, e))
            if partner is None:
                continue
            a, b = net.edge_points(f, e)
            if _seg_dist(pl, a, b) <= slack:
                continue
            oriented = _positive_cone_window(pl, a, b)
            if oriented is None:
                continue
            g, eg = partner
            rot, trans = glue_transform(net, g, eg, a, b)
            st = (g, eg, rot, trans, *oriented, pl, (f, g))
            heapq.heappush(heap, (_seg_dist(pl, *oriented), next(counter), st))

    seen = 0
    while heap:
        lb, _, (g, eg, rot, trans, wa, wb, src, faces) = heapq.heappop(heap)
        if lb >= best_len - slack:
            break
        seen += 1
        if seen > max_states:
            raise SearchBudgetExceeded(f"geodesic search exceeded {max_states} states")
        depth = len(faces) - 1
        side_p = np.sign(_cross(wb - wa, src - wa))
        for ql in qreps.get(g, []):
            qc = rot @ ql + trans
            da, db = _cross(wa - src, qc - src), _cross(wb - src, qc - src)
            if (da >= -slack and db <= slack
                    and side_p * _cross(wb - wa, qc - wa) <= slack * scale):
                d = float(np.linalg.norm(qc - src))
                if d < best_len - slack or (d <= best_len + slack and depth < best_depth):
                    best_len, best_depth, best = d, depth, faces
        if depth >= max_faces:
            pruned_lb = min(pruned_lb, lb)
            continue
        poly = net.polygons[g]
        chart = poly @ rot.T + trans
        for e in range(len(poly)):
            partner = net.edge_partner.get((g, e))
            if e == eg or partner is None:
                continue
            e0, e1 = chart[e], chart[(e + 1) % len(poly)]
            win = _clip_to_cone(src, wa, wb, e0, e1, slack)
            oriented = win and _positive_cone_window(src, *win)
            if not oriented or _seg_dist(src, *oriented) >= best_len - slack:
                continue
            rot2, trans2 = glue_transform(net, *partner, e0, e1)
            st = (*partner, rot2, trans2, *oriented, src, faces + (partner[0],))
            heapq.heappush(heap, (_seg_dist(src, *oriented), next(counter), st))

    if best is None:
        if pruned_lb < np.inf:
            raise SearchBudgetExceeded(f"no path found within {max_faces} faces")
        raise InvalidNet("surface appears disconnected; no path found")
    if pruned_lb < best_len - slack:
        raise SearchBudgetExceeded("a longer path may be shorter")
    return best_len, best


def brute_force_distance(net, p, q, max_faces=5, tol=1e-12):
    """Exhaustive unfolding over all face sequences up to ``max_faces``.

    Enumerates sequences by depth-first search, unfolds them edge by edge,
    and accepts the straight source-target segment whenever it crosses every
    glued edge inside its span with increasing ray parameter.  No windows, no
    pruning: a deliberately naive reference for the fast windowed search.
    """
    preps = [(f, np.asarray(xy)) for f, xy in _point_representations(net, p, tol=1e-9)]
    qreps = {}
    for g, ql in _point_representations(net, q, tol=1e-9):
        qreps.setdefault(g, []).append(np.asarray(ql))

    best = [np.inf]

    def try_finish(face, rot, trans, chain, src):
        for ql in qreps.get(face, []):
            qc = rot @ ql + trans
            seg = qc - src
            seg2 = float(seg @ seg)
            if seg2 == 0.0:
                continue
            t_prev = -tol
            ok = True
            for (a, b) in chain:
                d = b - a
                denom = _cross(d, seg)
                if abs(denom) < 1e-300:
                    ok = False
                    break
                s = _cross(src - a, seg) / denom
                x = a + s * d
                t = float((x - src) @ seg) / seg2
                if not (-tol <= s <= 1 + tol) or t < t_prev - tol or t > 1 + tol:
                    ok = False
                    break
                t_prev = t
            if ok:
                best[0] = min(best[0], float(np.sqrt(seg2)))

    def rec(face, entry_edge, rot, trans, chain, src):
        try_finish(face, rot, trans, chain, src)
        if len(chain) >= max_faces:
            return
        poly = net.polygons[face]
        chart = poly @ rot.T + trans
        for e in range(len(poly)):
            if e == entry_edge:
                continue
            partner = net.edge_partner.get((face, e))
            if partner is None:
                continue
            e0, e1 = chart[e], chart[(e + 1) % len(poly)]
            g, eg = partner
            rot2, trans2 = glue_transform(net, g, eg, e0, e1)
            rec(g, eg, rot2, trans2, chain + [(e0, e1)], src)

    for f, pl in preps:
        rec(f, None, np.eye(2), np.zeros(2), [], pl)
    return best[0]


def canonical_json(obj):
    """``io.canonical_json`` through the standard encoder: numpy values made
    Python ones and keys made ``str``, then ``json.dumps`` with ``indent``."""
    return json.dumps(_plain(obj), sort_keys=True, indent=2) + "\n"


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def write_off_by_line(path, vertices, faces):
    """``io.write_off`` one ``write`` per line, each vertex formatted from
    its numpy components: the writer it replaced."""
    vertices = np.asarray(vertices, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"OFF\n{len(vertices)} {len(faces)} 0\n")
        for v in vertices:
            fh.write(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for cyc in faces:
            fh.write(" ".join([str(len(cyc))] + [str(int(i)) for i in cyc]) + "\n")


def write_net(path, net):
    """Write ``net`` as the JSON that ``io.read_net`` reads."""
    data = {
        "polygons": [p.tolist() for p in net.polygons],
        "identifications": [
            [[a, ea], [b, eb]] for (a, ea), (b, eb) in net.identifications
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def sphere_partition(n_cells, seed=None):
    """Roughly uniform sphere partition: Fibonacci centers, Voronoi areas."""
    centers = fibonacci_sphere(n_cells, seed=seed)
    sv = SphericalVoronoi(centers)
    return centers, sv.calculate_areas()


def total_normal_cone_area(poly):
    """Sum of ``core.normal_cone_area`` over the vertices; 4 pi for a body."""
    return sum(core.normal_cone_area(poly, v) for v in range(len(poly.vertices)))


def clip_halfplane(verts, labels, normal, offset, label):
    """Clip a convex polygon against {x : normal . x <= offset} (Sutherland-Hodgman).

    ``labels[k]`` tags the edge from vertex k to k+1.  Returns the clipped
    (vertices, edge_labels): an edge along the clipping line gets
    ``label``, the others keep theirs.
    """
    n = len(verts)
    if n == 0:
        return verts, []
    d = verts @ np.asarray(normal, dtype=float) - offset
    inside = d <= 0.0
    if inside.all():
        return verts, labels
    if not inside.any():
        return verts[:0], []
    out_v, out_l = [], []
    for k in range(n):
        k2 = (k + 1) % n
        if inside[k]:
            out_v.append(verts[k])
            out_l.append(labels[k])
        if inside[k] != inside[k2]:
            t = d[k] / (d[k] - d[k2])
            out_v.append(verts[k] + t * (verts[k2] - verts[k]))
            out_l.append(label if inside[k] else labels[k])
    return np.array(out_v), out_l


def convex_clip(poly, halfplanes, labels):
    """Intersect a convex polygon with halfplanes {n_k . x <= c_k}.

    ``halfplanes`` is an (m, 3) array of rows (nx, ny, c).  Returns
    (vertices, edge_labels); edges carved by halfplane k are labelled
    ``labels[k]``, the polygon's own edges None.
    """
    verts = np.asarray(poly, dtype=float)
    elabels = [None] * len(verts)
    hp = np.asarray(halfplanes, dtype=float)
    for k in range(len(hp)):
        verts, elabels = clip_halfplane(verts, elabels, hp[k, :2], hp[k, 2], labels[k])
        if len(verts) == 0:
            break
    return verts, elabels


def clipped_cell(nodes, values, i, window=None, half=100.0):
    """Subgradient cell of node i by its definition: ``window`` (or a box of
    half-width ``half`` around the origin) clipped by the halfplanes
    p . (B_k - B_i) <= v_k - v_i of all N - 1 other nodes, in index order.

    Returns (vertices, edge_labels) as ``ma_solver.subgradient_cell_polygon``
    does.  No hull and no neighbour selection: the slow reference for the
    lifted-hull cells.
    """
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    others = np.delete(np.arange(len(nodes)), i)
    start = planar.box_polygon(0.0, 0.0, half) if window is None else window
    return convex_clip(
        start,
        np.column_stack([nodes[others] - nodes[i], values[others] - values[i]]),
        labels=[int(k) for k in others],
    )


def cell_masses(nodes, values, interior_idx, theta, rel_tol=1e-6, clip=None):
    """Masses of the cells of the nodes ``interior_idx``, each weight taken
    at its node's value and position, through one ``ma_solver._cells`` call."""
    cells = ma_solver._cells(nodes, values, interior_idx, clip)
    return ma_solver._cell_masses(nodes, values, interior_idx, cells, theta,
                                  rel_tol)


def masses_from_density(domain, interior_nodes, boundary_nodes, phi,
                        rel_tol=1e-6):
    """Node masses as integrals of a density over a reference cell partition.

    The partition is the Voronoi diagram of all nodes clipped to the domain
    (obtained as the subgradient cells of the lifted paraboloid values
    |B|^2 / 2); phi maps (n, 2) points to densities.
    """
    nodes = np.vstack([interior_nodes, boundary_nodes])
    values = 0.5 * np.einsum("ij,ij->i", nodes, nodes)
    idx = np.arange(len(interior_nodes))
    cells = ma_solver._cells(nodes, values, idx, clip=domain)
    return ma_solver._cell_masses(
        nodes, values, idx, cells,
        lambda p1, p2, *_: phi(np.column_stack([p1, p2])), rel_tol)


def per_cell_masses(nodes, values, which, cells, theta, rel_tol, max_depth=30):
    """Masses of the cells of ``ma_solver._cells(nodes, values, which, ...)``,
    one cell at a time: each cell's weight taken at its node's value and
    position, one ``planar.polygon_quad`` per cell.  The reference for the
    batched quadrature of ``ma_solver._cell_masses``."""
    out = []
    for k, i in enumerate(which):
        verts = cells.cell(k)[0]
        if len(verts) < 3:
            out.append(0.0)
        elif theta is None:
            out.append(abs(planar.polygon_area(verts)))
        else:
            z, x1, x2 = float(values[i]), float(nodes[i][0]), float(nodes[i][1])
            out.append(planar.polygon_quad(lambda p: theta(p[:, 0], p[:, 1], z, x1, x2),
                                           verts, rel_tol=rel_tol, max_depth=max_depth))
    return np.array(out)


def monte_carlo_cell_areas(u, samples=1_000_000, seed=0, box=None):
    """Monte-Carlo estimate of every cell area of the PL convex function u.

    Random slopes drawn uniformly in the axis-aligned rectangle ``box``
    (given as (lo, hi) corner pair or a polygon whose bounding box is used)
    are assigned to the node attaining the Legendre maximum p . B_k - v_k;
    hit fractions estimate |cell ∩ box|.  Independent of the
    halfplane-intersection route.
    """
    if box is None:
        raise ValueError("a sampling rectangle is required")
    box = np.asarray(box, dtype=float)
    lo, hi = box.min(axis=0), box.max(axis=0)
    rng = np.random.default_rng(seed)
    counts = np.zeros(len(u.nodes))
    total = 0
    chunk = 200_000
    rect_area = float(np.prod(hi - lo))
    while total < samples:
        m = min(chunk, samples - total)
        pts = lo + rng.random((m, 2)) * (hi - lo)
        scores = pts @ u.nodes.T - u.values[None, :]
        win = scores.argmax(axis=1)
        counts += np.bincount(win, minlength=len(u.nodes)).astype(float)
        total += m
    return counts / total * rect_area


def solid_angle_monte_carlo(poly, vertex_index, samples=200_000, seed=0):
    """Monte-Carlo estimate of a vertex normal cone's solid angle.

    A direction p lies in the cone of vertex v exactly when v maximises
    <p, x> over all vertices.  Independent of the spherical-polygon formula;
    used as a cross-check oracle.
    """
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(samples, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    scores = dirs @ poly.vertices.T
    hits = np.count_nonzero(scores.argmax(axis=1) == vertex_index)
    return 4.0 * np.pi * hits / samples


def per_triangle_quad(f, poly, rel_tol=1e-3, max_depth=30):
    """``planar.polygon_quad`` one triangle at a time, depth first.

    The same fan triangles, error budget, refinement rule and depth cap as
    the batched quadrature, with one call of f per triangle: the reference
    for its level-by-level evaluation.
    """
    def triangle_quad(tri):
        return float(planar._triangle_quads(f, tri[None])[0])

    poly = np.asarray(poly, dtype=float)
    tris = list(planar._fans(poly, np.zeros(len(poly), dtype=np.intp))[0])
    ests = [triangle_quad(t) for t in tris]
    budget = rel_tol * max(abs(sum(ests)), 1e-300) / len(tris)
    diam = float(np.ptp(poly, axis=0).max())
    settled_area = 16.0 * np.finfo(float).eps * diam * diam
    total = 0.0
    stack = []
    for t, e in zip(tris, ests):
        (ax, ay), (bx, by), (cx, cy) = t
        if 0.5 * abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax)) <= settled_area:
            total += e
        else:
            stack.append((t, e, budget, 0))
    while stack:
        tri, coarse, tau, depth = stack.pop()
        a, b, c = tri
        ab, bc, ca = (a + b) / 2, (b + c) / 2, (c + a) / 2
        kids = [np.array([a, ab, ca]), np.array([ab, b, bc]),
                np.array([ca, bc, c]), np.array([ab, bc, ca])]
        parts = [triangle_quad(k) for k in kids]
        fine = sum(parts)
        if depth >= max_depth or abs(fine - coarse) <= tau:
            total += fine
        else:
            stack.extend((k, fk, tau / 4.0, depth + 1) for k, fk in zip(kids, parts))
    return total


def newell(points):
    """Plane normal and area of a 3-D planar polygon via the Newell sum."""
    p = np.asarray(points, dtype=float)
    s = np.cross(p, np.roll(p, -1, axis=0)).sum(axis=0) * 0.5
    area = np.linalg.norm(s)
    return (s / area if area > 0 else s), area


def union_find_convex_hull(points, tol=core.DEFAULT_TOL, merge_tol=1e-7):
    """``core.convex_hull`` with a union-find merge of coplanar qhull
    triangles and each face cycle chained from the directed edges that
    survive cancelling every interior edge against its reverse.  The
    reference for the component-labelled hull."""
    pts = core.as_points(points)
    hull = ConvexHull(pts)
    scale = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    eq = hull.equations
    parent = list(range(len(hull.simplices)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for s in range(len(hull.simplices)):
        for t in hull.neighbors[s]:
            if (
                t >= 0
                and np.abs(eq[s, :3] - eq[t, :3]).max() <= merge_tol
                and abs(eq[s, 3] - eq[t, 3]) <= merge_tol * max(scale, 1.0)
            ):
                ra, rb = find(s), find(int(t))
                if ra != rb:
                    parent[rb] = ra
    groups = {}
    for s in range(len(hull.simplices)):
        groups.setdefault(find(s), []).append(s)
    vmap = {int(v): k for k, v in enumerate(hull.vertices)}
    verts = pts[hull.vertices]
    faces, normals, areas, supports = [], [], [], []
    for simps in groups.values():
        n_out = eq[simps[0], :3]
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
        edge_next = dict(edges)
        cyc = [next(iter(edge_next))]
        while edge_next[cyc[-1]] != cyc[0]:
            cyc.append(edge_next[cyc[-1]])
        nvec, area = newell(verts[cyc])
        if np.dot(nvec, n_out) < 0:
            cyc.reverse()
            nvec = -nvec
        faces.append(tuple(cyc))
        normals.append(nvec)
        areas.append(area)
        supports.append(float((verts @ nvec).max()))
    return core.ConvexPolytope(
        vertices=verts,
        faces=tuple(faces),
        normals=np.array(normals),
        areas=np.array(areas),
        support_numbers=np.array(supports),
    ).validate(tol)


def per_face_polytope_from_mesh(vertices, faces, tol=core.DEFAULT_TOL):
    """``core.polytope_from_mesh`` with one Newell sum per face.  The
    reference for the half-edge sum."""
    verts = core.as_points(vertices)
    normals, areas, supports, cycles = [], [], [], []
    for cyc in faces:
        cyc = tuple(int(i) for i in cyc)
        nvec, area = newell(verts[list(cyc)])
        cycles.append(cyc)
        normals.append(nvec)
        areas.append(area)
        supports.append(float((verts @ nvec).max()))
    return core.ConvexPolytope(
        vertices=verts,
        faces=tuple(cycles),
        normals=np.array(normals),
        areas=np.array(areas),
        support_numbers=np.array(supports),
    ).validate(tol)


def per_face_net_from_polytope(poly):
    """``intrinsic_metric.net_from_polytope`` one face at a time, with the
    identifications read from a dict of directed edges.  The reference for
    the half-edge net."""
    polygons, labels, directed = [], {}, {}
    for f, cyc in enumerate(poly.faces):
        pts = poly.vertices[list(cyc)]
        e1 = pts[1] - pts[0]
        e1 = e1 / np.linalg.norm(e1)
        e2 = np.cross(poly.normals[f], e1)
        polygons.append(np.stack([(pts - pts[0]) @ e1, (pts - pts[0]) @ e2], axis=1))
        for k, v in enumerate(cyc):
            labels[(f, k)] = int(v)
            directed[(cyc[k], cyc[(k + 1) % len(cyc)])] = (f, k)
    idents = [((f, k), directed[(w, u)])
              for (u, w), (f, k) in directed.items() if u < w]
    return MetricNet(polygons=tuple(polygons), identifications=tuple(idents),
                     corner_labels=labels)


def interior_angles(poly):
    """Interior angle at every corner of a simple CCW polygon, in (0, 2*pi):
    the per-polygon form of ``MetricNet._angles``."""
    p = np.asarray(poly, dtype=float)
    prev = np.roll(p, 1, axis=0)
    nxt = np.roll(p, -1, axis=0)
    d_in = p - prev
    d_out = nxt - p
    turn = np.arctan2(
        d_in[:, 0] * d_out[:, 1] - d_in[:, 1] * d_out[:, 0],
        d_in[:, 0] * d_out[:, 0] + d_in[:, 1] * d_out[:, 1],
    )
    return np.pi - turn


def union_find_vertex_classes(net):
    """``MetricNet.vertex_classes`` by union-find over the glued corners.
    The reference for the connected-components classes."""
    parent = {c: c for c in net.corners()}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (a, ea), (b, eb) in net.identifications:
        na, nb = len(net.polygons[a]), len(net.polygons[b])
        for x, y in (((a, ea), (b, (eb + 1) % nb)), ((a, (ea + 1) % na), (b, eb))):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[ry] = rx
    groups = {}
    for c in net.corners():
        groups.setdefault(find(c), []).append(c)
    return tuple(tuple(sorted(g)) for g in sorted(groups.values()))


def _order_cycle_ccw(points, idx, normal):
    """Order vertex indices CCW (seen from the normal side) around their centroid."""
    pts = points[idx]
    c = pts.mean(axis=0)
    ref = np.eye(3)[np.argmin(np.abs(normal))]
    e1 = np.cross(normal, ref)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(normal, e1)
    ang = np.arctan2((pts - c) @ e2, (pts - c) @ e1)
    cyc = [idx[k] for k in np.argsort(-ang)]
    nvec, _ = newell(points[cyc])
    if np.dot(nvec, normal) < 0:
        cyc.reverse()
    return tuple(cyc)


def per_face_polytope_from_support(normals, support_numbers):
    """``core.polytope_from_support`` one face at a time: the vertex lists
    grown from ``dual_facets`` with a membership test, each face ordered
    and its Newell area taken on its own.  The reference for the batched
    face cycles."""
    n = core.unit_vectors(normals)
    h = np.asarray(support_numbers, dtype=float)
    res = linprog(
        c=[0.0, 0.0, 0.0, -1.0],
        A_ub=np.hstack([n, np.ones((len(n), 1))]),
        b_ub=h,
        bounds=[(None, None)] * 3 + [(0, None)],
        method="highs",
    )
    hsi = HalfspaceIntersection(np.hstack([n, -h[:, None]]), res.x[:3])
    verts = hsi.intersections
    face_verts = [[] for _ in range(len(n))]
    for k, facet in enumerate(hsi.dual_facets):
        for i in facet:
            if k not in face_verts[int(i)]:
                face_verts[int(i)].append(k)
    faces, areas = [], []
    for i in range(len(n)):
        if len(face_verts[i]) < 3:
            faces.append(())
            areas.append(0.0)
            continue
        cyc = _order_cycle_ccw(verts, face_verts[i], n[i])
        faces.append(cyc)
        areas.append(newell(verts[list(cyc)])[1])
    return core.ConvexPolytope(
        vertices=verts,
        faces=tuple(faces),
        normals=n,
        areas=np.array(areas),
        support_numbers=np.array([float((verts @ ni).max()) for ni in n]),
    )


def pair_scan_area_jacobian(poly):
    """Dense area Jacobian from a scan of all face pairs: two faces are
    neighbours when their vertex sets share exactly two vertices."""
    m = len(poly.faces)
    jac = np.zeros((m, m))
    vert_sets = [frozenset(c) for c in poly.faces]
    for i in range(m):
        if len(poly.faces[i]) < 3:
            continue
        for j in range(i + 1, m):
            shared = vert_sets[i] & vert_sets[j]
            if len(shared) != 2:
                continue
            a, b = (poly.vertices[v] for v in shared)
            ell = float(np.linalg.norm(a - b))
            ni, nj = poly.normals[i], poly.normals[j]
            sin = float(np.linalg.norm(np.cross(ni, nj)))
            if sin < 1e-14:
                continue
            cos = float(ni @ nj)
            jac[i, j] += ell / sin
            jac[j, i] += ell / sin
            jac[i, i] -= ell * cos / sin
            jac[j, j] -= ell * cos / sin
    return jac


def intersect_about(n, h, interior):
    """The halfspace intersection of unit normals ``n`` and support numbers
    ``h`` about a point strictly inside every halfspace, by scipy's
    ``HalfspaceIntersection`` and ``core._face_cycles``: the Minkowski
    solver's evaluation before ``core.dual_hull``."""
    hsi = HalfspaceIntersection(np.hstack([n, -h[:, None]]), interior)
    assert (hsi.dual_equations[:, -1] < 0).all()
    verts = hsi.intersections
    sizes = np.fromiter(map(len, hsi.dual_facets), dtype=np.intp, count=len(verts))
    face = np.fromiter(itertools.chain.from_iterable(hsi.dual_facets),
                       dtype=np.intp, count=int(sizes.sum()))
    faces, newell = core._face_cycles(verts, face,
                                      np.repeat(np.arange(len(verts)), sizes), n)
    return core.ConvexPolytope(
        vertices=verts,
        faces=faces,
        normals=n,
        areas=np.linalg.norm(newell, axis=1),
        support_numbers=(verts @ n.T).max(axis=0),
    )


def half_edge_area_jacobian(poly):
    """Sparse area Jacobian from the twins of ``core.half_edges``: every
    half-edge u -> w of a face cycle meets its twin w -> u in the
    neighbouring face, which gives the face pairs and their edge lengths."""
    m = len(poly.faces)
    face, tail, head, twin = core.half_edges(poly.faces)
    hit = twin >= 0
    i, j, tail, head = face[hit], face[twin[hit]], tail[hit], head[hit]
    sin = np.linalg.norm(np.cross(poly.normals[i], poly.normals[j]), axis=1)
    keep = sin >= 1e-14
    i, j, tail, head, sin = (x[keep] for x in (i, j, tail, head, sin))
    ell = np.linalg.norm(poly.vertices[tail] - poly.vertices[head], axis=1)
    cos = np.einsum("ij,ij->i", poly.normals[i], poly.normals[j])
    return sp.csr_matrix(
        (np.concatenate([ell / sin, -ell * cos / sin]),
         (np.concatenate([i, i]), np.concatenate([j, i]))),
        shape=(m, m),
    )


def lil_flex_system(zxx, zyy, zxy, zb):
    """The flex stencil assembled node by node into a ``lil_matrix``: the
    reference for ``rigidity_lab._flex_system``."""
    ny, nx = zb.shape

    def idx(r, c):
        return (r - 1) * (nx - 2) + (c - 1)

    nun = (ny - 2) * (nx - 2)
    mat = sp.lil_matrix((nun, nun))
    rhs = np.zeros(nun)
    for r in range(1, ny - 1):
        for c in range(1, nx - 1):
            a = zyy[r - 1, c - 1]
            b = zxx[r - 1, c - 1]
            g = zxy[r - 1, c - 1]
            row = idx(r, c)
            entries = {
                (r, c): -2.0 * a - 2.0 * b,
                (r, c + 1): a, (r, c - 1): a,
                (r + 1, c): b, (r - 1, c): b,
                (r + 1, c + 1): -0.5 * g, (r - 1, c - 1): -0.5 * g,
                (r + 1, c - 1): 0.5 * g, (r - 1, c + 1): 0.5 * g,
            }
            for (rr, cc), coef in entries.items():
                if 1 <= rr < ny - 1 and 1 <= cc < nx - 1:
                    mat[row, idx(rr, cc)] += coef
                else:
                    rhs[row] -= coef * zb[rr, cc]
    return mat.tocsr(), rhs


def loop_isometry_constraints(surface):
    """Edge-length constraint rows built edge by edge from a set of sides."""
    edges = sorted({(min(u, w), max(u, w))
                    for a, b, c in surface.triangles.tolist()
                    for u, w in ((a, b), (b, c), (c, a))})
    v = surface.vertices
    rows, cols, vals = [], [], []
    for r, (i, j) in enumerate(edges):
        d = v[i] - v[j]
        d = d / np.linalg.norm(d)
        for k in range(3):
            rows += [r, r]
            cols += [3 * i + k, 3 * j + k]
            vals += [d[k], -d[k]]
    return sp.csr_matrix((vals, (rows, cols)), shape=(len(edges), 3 * len(v)))


def full_svd_bending_space(surface, tol=1e-10):
    """``rigidity_lab.bending_space`` from one full SVD of the loop-built
    constraint matrix, with the trivial motions' residual taken edge by edge:
    (kernel_dim, nontrivial_dim, flex basis, padded singular values,
    trivial residual)."""
    mat = loop_isometry_constraints(surface).toarray()
    _, svals, vt = np.linalg.svd(mat)
    rank = int(np.sum(svals > tol * svals[0]))
    kernel = vt[rank:].T
    svals = np.concatenate([svals, np.zeros(mat.shape[1] - len(svals))])
    qt, _ = np.linalg.qr(rigidity_lab.trivial_motion_basis(surface.vertices))
    v = surface.vertices
    resid = 0.0
    for i, j in {(min(u, w), max(u, w)) for a, b, c in surface.triangles.tolist()
                 for u, w in ((a, b), (b, c), (c, a))}:
        d = v[i] - v[j]
        resid = max(resid, float(np.abs(d @ (qt[i * 3:i * 3 + 3] - qt[j * 3:j * 3 + 3])).max())
                    / float(np.linalg.norm(d)))
    proj = kernel - qt @ (qt.T @ kernel)
    u2, s2, _ = np.linalg.svd(proj, full_matrices=False)
    extra = int(np.sum(s2 > 1e-8))
    return len(kernel.T), extra, u2[:, :extra], svals, resid


def fibonacci_sphere(n, seed=None):
    """Roughly even sphere covering; optional random rotation for variety."""
    k = np.arange(n) + 0.5
    phi = np.arccos(1.0 - 2.0 * k / n)
    theta = np.pi * (1.0 + np.sqrt(5.0)) * k
    pts = np.stack(
        [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)],
        axis=1,
    )
    if seed is not None:
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        pts = pts @ q.T
    return pts


@dataclasses.dataclass
class ScanReport:
    xs: np.ndarray
    ys: np.ndarray
    ds: np.ndarray
    alphas: np.ndarray
    violations: list          # (k, increase) where alpha[k+1] > alpha[k] + tol
    angle_estimate: float     # alpha at the smallest sampled scale
    samples: int


def angle_monotonicity_scan(net, origin, a, b, samples=8, tol=1e-9, **path_kw):
    """Comparison angles along nested sub-paths of the two geodesics.

    For k = 1..samples, take the points at arclength x*k/samples on the
    geodesic to ``a`` and y*k/samples on the geodesic to ``b``; report every
    adjacent pair where the comparison angle *increases* beyond ``tol``.
    On a net of non-negative curvature there are none.
    """
    if samples < 2:
        raise TooFewSamples("need at least 2 samples")
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


def lower_envelope_evaluator(nodes, values):
    """Callable evaluating the lower convex envelope of the lifted nodes.

    The envelope is the pointwise maximum of the planes of the lifted hull's
    lower facets (``ma_solver._lower_hull``); if the lifted points are
    coplanar it is that single plane.
    """
    _, planes = ma_solver._lower_hull(nodes, values)

    def evaluate(query):
        q = np.atleast_2d(np.asarray(query, dtype=float))
        vals = q @ planes[:, :2].T + planes[:, 2][None, :]
        return vals.max(axis=1)

    return evaluate


def constraint_residual(surface, field):
    """Max edge-length-rate magnitude of a displacement field (V, 3)."""
    tau = np.asarray(field, dtype=float).reshape(len(surface.vertices), 3)
    edges = surface.edges()
    d = rigidity_lab._unit_directions(surface.vertices, edges)
    rate = np.einsum("ij,ij->i", d, tau[edges[:, 0]] - tau[edges[:, 1]])
    return float(np.abs(rate).max(initial=0.0))
