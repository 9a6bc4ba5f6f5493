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
