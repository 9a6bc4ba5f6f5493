"""Small 2-D helpers: polygon measures and triangle quadrature."""

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


def on_polygon_boundary(poly, points, tol=1e-9):
    """For each of the (n, 2) ``points``, whether it lies within ``tol``
    times max(max|poly|, 1) of an edge of the closed polygon ``poly``.  A
    zero-length edge (a repeated vertex) is the point it sits at."""
    p = np.asarray(poly, dtype=float)
    q = np.atleast_2d(np.asarray(points, dtype=float))
    scale = max(np.abs(p).max(), 1.0)
    out = np.zeros(len(q), dtype=bool)
    for a, b in zip(p, np.roll(p, -1, axis=0)):
        ab = b - a
        t = np.clip((q - a) @ ab / max(float(ab @ ab), 1e-300), 0.0, 1.0)
        out |= np.linalg.norm(q - (a + t[:, None] * ab), axis=1) <= tol * scale
    return out


def point_in_polygon(poly, point, tol=1e-12):
    """Winding-number test with a boundary tolerance; closed polygon assumed."""
    p = np.asarray(poly, dtype=float)
    q = np.asarray(point, dtype=float)
    if on_polygon_boundary(p, q, tol)[0]:
        return True
    wind = 0
    for k in range(len(p)):
        a, b = p[k], p[(k + 1) % len(p)]
        if a[1] <= q[1] < b[1] or b[1] <= q[1] < a[1]:
            xint = a[0] + (q[1] - a[1]) * (b[0] - a[0]) / (b[1] - a[1])
            if xint > q[0]:
                wind += 1 if b[1] > a[1] else -1
    return wind != 0


def box_polygon(cx, cy, half):
    return np.array(
        [
            [cx - half, cy - half],
            [cx + half, cy - half],
            [cx + half, cy + half],
            [cx - half, cy + half],
        ]
    )


def cycle_next(owner, n):
    """Index of the entry after each entry of a flat layout sorted by
    ``owner`` (n owners), cyclically within its owner."""
    b = np.searchsorted(owner, np.arange(n + 1))
    lo, hi = b[owner], b[owner + 1]
    return lo + (np.arange(len(owner)) + 1 - lo) % (hi - lo)


def _fans(verts, owner):
    """Fan triangles (apex, p_k, p_k+1) of the polygons of a flat layout.

    ``owner`` (nondecreasing) names the polygon of each vertex; a polygon
    with fewer than 3 vertices has no fan.  The apex is the polygon's
    centroid, or its vertex mean where its area is rounding noise for its
    size: the area formula would divide noise by noise there.  Returns the
    (T, 3, 2) triangles, the polygon of each and that rounding-noise area
    of its polygon.
    """
    verts = np.asarray(verts, dtype=float)
    owner = np.asarray(owner, dtype=np.intp)
    keep = np.bincount(owner)[owner] >= 3
    p, tag = verts[keep], owner[keep]
    if not len(p):
        return np.empty((0, 3, 2)), tag, np.empty(0)
    starts = np.r_[True, tag[1:] != tag[:-1]]
    first = np.flatnonzero(starts)
    q = p[cycle_next(tag, tag[-1] + 1)]
    cross = p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]
    area = 0.5 * np.add.reduceat(cross, first)
    moment = np.add.reduceat((p + q) * cross[:, None], first) / 6.0
    mean = np.add.reduceat(p, first) / np.diff(np.r_[first, len(p)])[:, None]
    diam = (np.maximum.reduceat(p, first) - np.minimum.reduceat(p, first)).max(axis=1)
    noise = 16.0 * np.finfo(float).eps * diam * diam
    flat = np.abs(area) <= noise
    apex = np.where(flat[:, None], mean, moment / np.where(flat, 1.0, area)[:, None])
    poly = np.cumsum(starts) - 1
    return np.stack([apex[poly], p, q], axis=1), tag, noise[poly]


def _triangle_areas(tris):
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    return 0.5 * np.abs((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                        - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))


def _triangle_quads(f, tris):
    """Degree-5 quadrature of f over every triangle of a (T, 3, 2) array,
    from a single call of f on all T * 7 points."""
    pts = (_TRI_BARY @ tris).reshape(-1, 2)
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


def polygons_quad(f, verts, owner, n, rel_tol=1e-3, max_depth=30):
    """Adaptive degree-5 quadrature of f over each of n convex polygons.

    The polygons come as one flat layout: ``verts`` lists them one after
    another and ``owner`` (nondecreasing, in range(n)) names the polygon of
    each vertex.  f maps (m, 2) points and the polygon of each point to m
    values.  Returns the n integrals; a polygon with fewer than 3 vertices
    has 0.

    Fan triangles are compared against their 4-way subdivision; a triangle
    is refined while its disagreement exceeds its share of its polygon's
    error budget rel_tol * |coarse total| (split 4 ways at each level), so
    near-zero regions of a peaked integrand settle immediately.  A fan
    triangle whose area is at rounding level for its polygon's size is
    settled at once: on a zero-area polygon its disagreement is rounding
    noise, which no refinement brings under a budget made of that noise.
    Each refinement level evaluates f once, on the triangles of all
    polygons, so there are at most max_depth + 2 calls.
    """
    tris, tag, noise = _fans(verts, owner)
    total = np.zeros(n)
    if not len(tris):
        return total

    def quads(tris, tag):
        return _triangle_quads(lambda p: f(p, np.repeat(tag, len(_TRI_W))), tris)

    ests = quads(tris, tag)
    if not np.isfinite(ests).all():
        raise QuadratureFailure("non-finite weight value inside cell")
    coarse_total = np.abs(np.bincount(tag, ests, n))
    tau = rel_tol * np.maximum(coarse_total, 1e-300)[tag] / np.bincount(tag, minlength=n)[tag]
    settled = _triangle_areas(tris) <= noise
    total += np.bincount(tag[settled], ests[settled], n)
    live = ~settled
    tris, tag, coarse, tau = tris[live], tag[live], ests[live], tau[live]
    for depth in range(max_depth + 1):
        if len(tris) == 0:
            break
        kids, kid_tag = _subdivide(tris).reshape(-1, 3, 2), np.repeat(tag, 4)
        parts = quads(kids, kid_tag).reshape(-1, 4)
        fine = parts.sum(axis=1)
        if not np.isfinite(fine).all():
            raise QuadratureFailure("non-finite weight value inside cell")
        done = (np.abs(fine - coarse) <= tau) | (depth == max_depth)
        total += np.bincount(tag[done], fine[done], n)
        live = np.repeat(~done, 4)
        tris, tag, coarse = kids[live], kid_tag[live], parts.reshape(-1)[live]
        tau = np.repeat(tau[~done] / 4.0, 4)
    return total


def polygon_quad(f, poly, rel_tol=1e-3, max_depth=30):
    """``polygons_quad`` over one convex polygon, f mapping (m, 2) points
    to m values."""
    poly = np.asarray(poly, dtype=float).reshape(-1, 2)
    return float(polygons_quad(lambda p, _: f(p), poly, np.zeros(len(poly), np.intp), 1,
                               rel_tol, max_depth)[0])
