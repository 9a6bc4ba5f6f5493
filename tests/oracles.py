"""Independent slow oracles used to cross-check the fast implementations."""

import numpy as np

from ovaloid import planar
from ovaloid.intrinsic_metric import _glue_transform, _point_representations


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def brute_force_distance(net, p, q, max_faces=5, tol=1e-12):
    """Exhaustive unfolding over all face sequences up to ``max_faces``.

    Enumerates sequences by depth-first search, unfolds them edge by edge,
    and accepts the straight source-target segment whenever it crosses every
    glued edge inside its span with increasing ray parameter.  No windows, no
    pruning: a deliberately naive reference for the fast windowed search.
    """
    preps = _point_representations(net, p, tol=1e-9)
    qreps = {}
    for g, ql in _point_representations(net, q, tol=1e-9):
        qreps.setdefault(g, []).append(ql)

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
            rot2, trans2 = _glue_transform(net, g, eg, e0, e1)
            rec(g, eg, rot2, trans2, chain + [(e0, e1)], src)

    for f, pl in preps:
        rec(f, None, np.eye(2), np.zeros(2), [], pl)
    return best[0]


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
    return planar.convex_clip(
        start,
        np.column_stack([nodes[others] - nodes[i], values[others] - values[i]]),
        labels=[int(k) for k in others],
    )


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
    poly = np.asarray(poly, dtype=float)
    tris = planar.triangulate_fan(poly)
    ests = [planar.triangle_quad(f, t) for t in tris]
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
        parts = [planar.triangle_quad(f, k) for k in kids]
        fine = sum(parts)
        if depth >= max_depth or abs(fine - coarse) <= tau:
            total += fine
        else:
            stack.extend((k, fk, tau / 4.0, depth + 1) for k, fk in zip(kids, parts))
    return total
