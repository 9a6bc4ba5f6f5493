"""Independent checks of the CLI's outputs.

Nothing here imports ``ovaloid``.  The Monge-Ampere cells come from the
lower facets of one ``scipy.spatial.ConvexHull`` of the lifted nodes, the
weighted masses from a fixed-order, uniformly subdivided triangle rule, the
Minkowski and rigidity answers from uniqueness theorems (Minkowski, Dehn),
the flex answer from a closed-form solution and the geodesic answer from
bounds (the 3-D chord and the edge-graph distance).  Each ``check_*``
raises ``CheckFailed`` with a reason when the output is wrong.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import ConvexHull


class CheckFailed(Exception):
    """An output of the program disagrees with the independent computation."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Monge-Ampere cells and masses


def lifted_cells(nodes, values, n_int):
    """Subgradient cell of each of the first ``n_int`` nodes, CCW.

    The cell of a node on the lower hull of the lifted points (x, y, v) is
    the convex hull of the gradients of the lower facets that touch it.
    """
    hull = ConvexHull(np.column_stack([nodes, values]))
    eq = hull.equations
    lower = eq[:, 2] < -1e-9
    grads = -eq[lower, :2] / eq[lower, 2:3]
    simplices = hull.simplices[lower]
    cells = []
    for i in range(n_int):
        g = grads[(simplices == i).any(axis=1)]
        _require(len(g) >= 3, f"node {i} is not a vertex of the lower hull")
        cells.append(g[ConvexHull(g).vertices])
    return cells


def polygon_area(poly):
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


def _reference_rule(k=6, n=6):
    """Points (s, t) and weights on the unit triangle {s, t >= 0, s + t <= 1}.

    The triangle is cut into k^2 congruent subtriangles; each carries an
    n x n Gauss-Legendre rule collapsed onto it (Duffy).  Weights sum to 1/2.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    u, v = np.meshgrid(x, x, indexing="ij")
    s0, t0 = u.ravel(), ((1.0 - u) * v).ravel()
    w0 = (np.outer(w, w) * (1.0 - x)[:, None]).ravel()
    corners = []
    for i in range(k):
        for j in range(k - i):
            corners.append(((i, j), (i + 1, j), (i, j + 1)))
            if i + j <= k - 2:
                corners.append(((i + 1, j + 1), (i, j + 1), (i + 1, j)))
    pts, wts = [], []
    for a, b, c in corners:
        a, b, c = (np.array(p, float) / k for p in (a, b, c))
        pts.append(a + np.outer(s0, b - a) + np.outer(t0, c - a))
        wts.append(w0 / k**2)
    return np.vstack(pts), np.concatenate(wts)


_RULE_ST, _RULE_W = _reference_rule()


def weighted_cell_mass(poly):
    """Integral of exp(-|p|^2) over a convex polygon, fanned from vertex 0."""
    total = 0.0
    a = poly[0]
    for b, c in zip(poly[1:-1], poly[2:]):
        jac = abs((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
        p = a + np.outer(_RULE_ST[:, 0], b - a) + np.outer(_RULE_ST[:, 1], c - a)
        total += jac * float(_RULE_W @ np.exp(-(p[:, 0] ** 2 + p[:, 1] ** 2)))
    return total


def cell_masses(nodes, values, n_int, weight):
    """Masses of the interior cells: areas, or weighted by ``weight``.

    ``weight`` is None, "gauss" (exp(-|p|^2)) or "gauss_z"
    (exp(-0.3 z) exp(-|p|^2), with z the node's value).
    """
    cells = lifted_cells(nodes, values, n_int)
    if weight is None:
        return np.array([polygon_area(c) for c in cells])
    masses = np.array([weighted_cell_mass(c) for c in cells])
    if weight == "gauss_z":
        masses *= np.exp(-0.3 * np.asarray(values[:n_int]))
    return masses


def check_ma(metrics, problem, v_gen, weight, value_tol, mass_tol):
    """Recovered values equal the generating ones; their masses the targets."""
    nodes = np.vstack([problem["nodes"], np.asarray(problem["boundary"])[:, :2]])
    n_int = len(problem["nodes"])
    values = np.asarray(metrics["values"], float)
    _require(np.array_equal(np.asarray(metrics["nodes"], float), nodes),
             "reported nodes differ from the problem's")
    gap = float(np.abs(values[:n_int] - v_gen).max())
    _require(gap <= value_tol,
             f"values differ from the generating values by {gap:.3g}")
    target = np.asarray(problem["masses"], float)
    rel = float(np.max(np.abs(cell_masses(nodes, values, n_int, weight) - target)
                       / target))
    _require(rel <= mass_tol, f"masses of the values miss the targets by {rel:.3g}")


# ---------------------------------------------------------------------------
# polytopes


def hull_faces(points):
    """Triangles of the hull of ``points``, each CCW seen from outside."""
    hull = ConvexHull(points)
    faces = []
    for simplex, eq in zip(hull.simplices, hull.equations):
        a, b, c = points[simplex]
        if np.dot(np.cross(b - a, c - a), eq[:3]) < 0:
            simplex = simplex[[0, 2, 1]]
        faces.append(tuple(int(i) for i in simplex))
    return faces


def face_vectors(vertices, faces):
    """Area-weighted outer normals of polygonal faces (Newell sums)."""
    out = np.zeros((len(faces), 3))
    for k, f in enumerate(faces):
        p = vertices[list(f)]
        out[k] = 0.5 * np.cross(p, np.roll(p, -1, axis=0)).sum(axis=0)
    return out


def volume_centroid(vertices, faces):
    vol, mom = 0.0, np.zeros(3)
    for f in faces:
        a = vertices[f[0]]
        for b, c in zip(vertices[list(f[1:-1])], vertices[list(f[2:])]):
            w = float(np.dot(a, np.cross(b, c)))
            vol += w
            mom += w * (a + b + c) / 4.0
    return mom / vol


def read_off(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln.split("#", 1)[0].split() for ln in fh]
    lines = [ln for ln in lines if ln]
    _require(lines and lines[0] == ["OFF"], f"{path} has no OFF header")
    nv, nf = int(lines[1][0]), int(lines[1][1])
    verts = np.array([[float(t) for t in ln] for ln in lines[2:2 + nv]])
    faces = [tuple(int(t) for t in ln[1:]) for ln in lines[2 + nv:2 + nv + nf]]
    return verts, faces


def minkowski_data(points):
    """Normals, areas and centred support numbers of the hull of ``points``."""
    faces = hull_faces(points)
    vec = face_vectors(points, faces)
    areas = np.linalg.norm(vec, axis=1)
    normals = vec / areas[:, None]
    centred = points - volume_centroid(points, faces)
    return normals, areas, (centred @ normals.T).max(axis=0)


def check_minkowski(off_path, normals, areas, supports, area_tol=1e-7,
                    support_tol=1e-6):
    """The written body has the input normals and areas and, centred at its
    volume centroid, the source's support numbers (Minkowski uniqueness)."""
    verts, faces = read_off(off_path)
    _require(len(faces) == len(normals),
             f"{len(faces)} faces written for {len(normals)} normals")
    vec = face_vectors(verts, faces)
    out_areas = np.linalg.norm(vec, axis=1)
    match = np.argmax((vec / out_areas[:, None]) @ normals.T, axis=1)
    _require(np.array_equal(np.sort(match), np.arange(len(normals))),
             "written faces do not match the input normals one to one")
    cos = np.einsum("ij,ij->i", vec / out_areas[:, None], normals[match])
    _require(cos.min() >= 1.0 - 1e-9, f"a face normal is off by {cos.min():.12f}")
    rel = float(np.max(np.abs(out_areas - areas[match]) / areas[match]))
    _require(rel <= area_tol, f"face areas miss the input by {rel:.3g}")
    centred = verts - volume_centroid(verts, faces)
    h_out = (centred @ normals[match].T).max(axis=0)
    rel = float(np.max(np.abs(h_out - supports[match]) / np.abs(supports[match])))
    _require(rel <= support_tol, f"support numbers miss the source by {rel:.3g}")


def check_rigidity(metrics, exit_code, flexible):
    """Dehn: a simplicial convex sphere has only the 6 rigid motions.  The
    cube with face centres has one normal flex per flat centre vertex."""
    if flexible:
        _require(exit_code == 1 and metrics["nontrivial_dim"] == 6,
                 f"cube with face centres: nontrivial_dim "
                 f"{metrics['nontrivial_dim']}, exit {exit_code}")
    else:
        _require(exit_code == 0 and metrics["kernel_dim"] == 6
                 and metrics["nontrivial_dim"] == 0,
                 f"convex sphere: kernel_dim {metrics['kernel_dim']}, "
                 f"exit {exit_code}")


def check_defo(metrics, exact, h, c=0.2):
    """Second-order accuracy against the exact flex: max error <= c h^2."""
    zeta = np.asarray(metrics["zeta"], float)
    _require(zeta.shape == exact.shape, "flex field has the wrong shape")
    err = float(np.abs(zeta - exact).max())
    _require(err <= c * h * h, f"flex error {err:.3g} exceeds {c} h^2")


def edge_graph_distance(vertices, faces, src, dst):
    rows, cols = [], []
    for f in faces:
        for a, b in zip(f, f[1:] + f[:1]):
            rows.append(a)
            cols.append(b)
    rows, cols = np.array(rows), np.array(cols)
    lengths = np.linalg.norm(vertices[rows] - vertices[cols], axis=1)
    graph = csr_matrix((lengths, (rows, cols)), shape=(len(vertices),) * 2)
    return float(dijkstra(graph, indices=src)[dst])


def check_geodesic(metrics, vertices, faces, src, dst, exact=None):
    """chord <= length <= edge-graph distance; ``exact`` when it is known."""
    length = float(metrics["length"])
    chord = float(np.linalg.norm(vertices[src] - vertices[dst]))
    graph = edge_graph_distance(vertices, faces, src, dst)
    _require(chord - 1e-12 <= length <= graph + 1e-12,
             f"length {length!r} outside [{chord!r}, {graph!r}]")
    if exact is not None:
        _require(abs(length - exact) <= 1e-9,
                 f"length {length!r}, expected {exact!r}")
