"""Small 2-D helpers: polygon measures, convex clipping, triangle quadrature."""

import numpy as np

from .errors import QuadratureFailure

# 7-point degree-5 rule on the reference triangle (barycentric coords, weights sum to 1)
_SQ15 = np.sqrt(15.0)
_A1 = (6.0 - _SQ15) / 21.0
_A2 = (6.0 + _SQ15) / 21.0
_TRI_BARY = np.array(
    [
        [1 / 3, 1 / 3, 1 / 3],
        [_A1, _A1, 1 - 2 * _A1],
        [_A1, 1 - 2 * _A1, _A1],
        [1 - 2 * _A1, _A1, _A1],
        [_A2, _A2, 1 - 2 * _A2],
        [_A2, 1 - 2 * _A2, _A2],
        [1 - 2 * _A2, _A2, _A2],
    ]
)
_TRI_W = np.array(
    [9 / 40]
    + [(155.0 - _SQ15) / 1200.0] * 3
    + [(155.0 + _SQ15) / 1200.0] * 3
)


def polygon_area(poly):
    """Signed shoelace area of a closed 2-D polygon (positive if CCW)."""
    p = np.asarray(poly, dtype=float)
    if len(p) < 3:
        return 0.0
    x, y = p[:, 0], p[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _rounding_area(poly):
    """Area below which a polygon of this size is rounding noise."""
    diam = float(np.ptp(poly, axis=0).max())
    return 16.0 * np.finfo(float).eps * diam * diam


def polygon_centroid(poly):
    p = np.asarray(poly, dtype=float)
    a = polygon_area(p)
    if abs(a) <= _rounding_area(p):
        # the area formula would divide rounding noise by rounding noise
        return p.mean(axis=0)
    x, y = p[:, 0], p[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    cx = np.sum((x + xn) * cross) / (6.0 * a)
    cy = np.sum((y + yn) * cross) / (6.0 * a)
    return np.array([cx, cy])


def interior_angles(poly):
    """Interior angle at every corner of a simple CCW polygon, in (0, 2*pi)."""
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


def point_in_polygon(poly, point, tol=1e-12):
    """Winding-number test with a boundary tolerance; closed polygon assumed."""
    p = np.asarray(poly, dtype=float)
    q = np.asarray(point, dtype=float)
    scale = max(np.abs(p).max(), 1.0)
    # on-boundary check first
    for k in range(len(p)):
        a, b = p[k], p[(k + 1) % len(p)]
        ab = b - a
        t = np.dot(q - a, ab) / max(np.dot(ab, ab), 1e-300)
        t = min(1.0, max(0.0, t))
        if np.linalg.norm(a + t * ab - q) <= tol * scale:
            return True
    wind = 0
    for k in range(len(p)):
        a, b = p[k], p[(k + 1) % len(p)]
        if a[1] <= q[1] < b[1] or b[1] <= q[1] < a[1]:
            xint = a[0] + (q[1] - a[1]) * (b[0] - a[0]) / (b[1] - a[1])
            if xint > q[0]:
                wind += 1 if b[1] > a[1] else -1
    return wind != 0


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


def box_polygon(cx, cy, half):
    return np.array(
        [
            [cx - half, cy - half],
            [cx + half, cy - half],
            [cx + half, cy + half],
            [cx - half, cy + half],
        ]
    )


def _fan(poly):
    """(k, 3, 2) array of the fan triangles (centroid, p_k, p_k+1)."""
    p = np.asarray(poly, dtype=float)
    c = np.broadcast_to(polygon_centroid(p), p.shape)
    return np.stack([c, p, np.roll(p, -1, axis=0)], axis=1)


def _triangle_areas(tris):
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    return 0.5 * np.abs((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                        - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))


def _triangle_quads(f, tris):
    """Degree-5 quadrature of f over every triangle of a (T, 3, 2) array,
    from a single call of f on all T * 7 points."""
    pts = np.einsum("qk,tkd->tqd", _TRI_BARY, tris).reshape(-1, 2)
    vals = np.asarray(f(pts), dtype=float).reshape(len(tris), len(_TRI_W))
    return _triangle_areas(tris) * (vals @ _TRI_W)


def _subdivide(tris):
    """The 4-way midpoint subdivision of every triangle, as (T, 4, 3, 2)."""
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    ab, bc, ca = (a + b) / 2, (b + c) / 2, (c + a) / 2
    return np.stack([
        np.stack([a, ab, ca], axis=1),
        np.stack([ab, b, bc], axis=1),
        np.stack([ca, bc, c], axis=1),
        np.stack([ab, bc, ca], axis=1),
    ], axis=1)


def polygon_quad(f, poly, rel_tol=1e-3, max_depth=30):
    """Adaptive degree-5 quadrature of f over a convex polygon.

    Fan triangles are compared against their 4-way subdivision; a triangle is
    refined while its disagreement exceeds its share of the global error
    budget rel_tol * |coarse total| (split 4 ways at each level), so
    near-zero regions of a peaked integrand settle immediately.  A fan
    triangle whose area is at rounding level for the polygon's size is
    settled at once: on a zero-area polygon its disagreement is rounding
    noise, which no refinement brings under a budget made of that noise.
    Each refinement level evaluates f once, on all of its triangles.
    """
    poly = np.asarray(poly, dtype=float)
    tris = _fan(poly)
    ests = _triangle_quads(f, tris)
    if not np.isfinite(ests).all():
        raise QuadratureFailure("non-finite weight value inside cell")
    tau = rel_tol * max(abs(ests.sum()), 1e-300) / len(tris)
    settled = _triangle_areas(tris) <= _rounding_area(poly)
    total = float(ests[settled].sum())
    tris, coarse = tris[~settled], ests[~settled]
    for depth in range(max_depth + 1):
        if len(tris) == 0:
            break
        kids = _subdivide(tris)
        parts = _triangle_quads(f, kids.reshape(-1, 3, 2)).reshape(-1, 4)
        fine = parts.sum(axis=1)
        if not np.isfinite(fine).all():
            raise QuadratureFailure("non-finite weight value inside cell")
        done = (np.abs(fine - coarse) <= tau) | (depth == max_depth)
        total += float(fine[done].sum())
        tris = kids[~done].reshape(-1, 3, 2)
        coarse = parts[~done].reshape(-1)
        tau /= 4.0
    return total
