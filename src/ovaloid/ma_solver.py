"""Generalized Monge-Ampere machinery on piecewise-linear convex functions.

A PL convex function is the lower convex envelope of lifted nodes (B_i, v_i)
over a convex domain.  The measure it carries at a node is the area of the
subgradient cell {p : p . (B_k - B_i) <= v_k - v_i for all k}, optionally
weighted by a positive density theta(p, z, x).  The cells are the dual of
the lower hull of the lifted nodes: every cell of an evaluation is read off
one sort of that hull's (node, facet) incidences.  Within a solve, the hull
of the last evaluation is kept for as long as it stays locally convex under
the new values.

Matching prescribed node masses is the inverse problem solved here, by the
damped Newton loop of ``newton`` (Kitagawa-Merigot-Thibert) from a strictly
convex start, on the sparse Jacobian read from the same cells as the
masses.  For a weight that depends on z, the Jacobian's diagonal also
carries each cell's integral of d theta / dz.  A given start with an empty
cell is blended toward the strictly convex one, and a solve in which no
damped step is accepted raises MaxIterExceeded.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.spatial import ConvexHull, Delaunay, QhullError

from . import newton, planar
from .errors import (
    DegenerateInput,
    DuplicateNodes,
    Infeasible,
    IncomparableProblems,
    MalformedMAProblem,
    MalformedPLFunction,
    MalformedSchedule,
    MaxIterExceeded,
    MinStepReached,
    NonPositiveDensity,
    NotEnvelopeVertex,
    UnboundedCell,
)

# 4-point Gauss-Legendre on [0, 1]
_GL_T = 0.5 * (1.0 + np.array([-0.8611363115940526, -0.3399810435848563,
                               0.3399810435848563, 0.8611363115940526]))
_GL_W = 0.5 * np.array([0.3478548451374538, 0.6521451548625461,
                        0.6521451548625461, 0.3478548451374538])


# ---------------------------------------------------------------------------
# types


@dataclasses.dataclass
class PLConvexFunction:
    """Lower convex envelope of lifted nodes over a convex domain polygon."""

    nodes: np.ndarray      # (N, 2) every node, interior and boundary
    values: np.ndarray     # (N,)
    domain: np.ndarray     # (M, 2) CCW convex polygon
    solve_info: dict | None = None

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.domain = np.asarray(self.domain, dtype=float)
        if len(self.nodes) != len(self.values):
            raise MalformedPLFunction("one value per node required")


@dataclasses.dataclass
class SubgradientCell:
    """Slopes of all supporting planes at one node, as a convex polygon."""

    node: int
    polygon: np.ndarray    # (k, 2) CCW in p-space
    area: float
    edge_constraints: list | None = None  # node index carving each edge


@dataclasses.dataclass
class MAProblem:
    """Prescribed node masses, Dirichlet boundary data and a weight."""

    domain: np.ndarray
    interior_nodes: np.ndarray
    masses: np.ndarray
    boundary_nodes: np.ndarray
    boundary_values: np.ndarray
    theta: object = None               # callable theta(p1, p2, z, x1, x2) or None
    theta_z_dependent: bool = False
    mass_bound: float | None = None    # known integral of theta over p-space

    def __post_init__(self):
        self.domain = np.asarray(self.domain, dtype=float)
        self.interior_nodes = np.asarray(self.interior_nodes, dtype=float)
        self.masses = np.asarray(self.masses, dtype=float)
        self.boundary_nodes = np.asarray(self.boundary_nodes, dtype=float)
        self.boundary_values = np.asarray(self.boundary_values, dtype=float)

    def validate(self):
        """The problem itself; MalformedMAProblem names what is wrong with
        it, and DuplicateNodes two nodes at one position."""
        bad = MalformedMAProblem
        for name, pts in (("the domain", self.domain),
                          ("the interior nodes", self.interior_nodes),
                          ("the boundary nodes", self.boundary_nodes)):
            if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
                raise bad(f"{name} must be a nonempty list of [x, y] points")
        if self.masses.ndim != 1 or self.boundary_values.ndim != 1:
            raise bad("masses and boundary values must be lists of numbers")
        if (self.masses <= 0).any():
            raise bad("all masses must be positive")
        if not np.isfinite(self.masses).all():
            raise bad("masses must be finite")
        if len(self.interior_nodes) != len(self.masses):
            raise bad("one mass per interior node required")
        if len(self.boundary_nodes) != len(self.boundary_values):
            raise bad("one value per boundary node required")
        if self.mass_bound is not None and not self.mass_bound > 0:
            raise bad("mass_bound must be positive")
        nodes = self.all_nodes()
        if not (np.isfinite(nodes).all() and np.isfinite(self.boundary_values).all()
                and np.isfinite(self.domain).all()):
            raise bad("the domain, nodes and boundary values must be finite")
        if not abs(planar.polygon_area(self.domain)) > 0:
            raise bad("the domain must have positive area")
        if len(np.unique(nodes, axis=0)) < len(nodes):
            raise DuplicateNodes("nodes must be distinct")
        b = self.boundary_nodes
        if len(b) < 3 or np.linalg.matrix_rank(b[1:] - b[0]) < 2:
            raise bad("boundary nodes must not be collinear")
        if not _on_polygon_boundary(self.domain, self.boundary_nodes).all():
            raise bad("boundary nodes must lie on the domain boundary")
        if _on_polygon_boundary(self.domain, self.interior_nodes).any():
            raise bad("interior nodes must be strictly inside the domain")
        if self.theta is None:
            # without a weight window, a cell is bounded only when its node
            # is inside the boundary nodes' hull
            try:
                eq = ConvexHull(b).equations
            except QhullError as exc:
                raise bad("boundary nodes must not be collinear") from exc
            dist = (self.interior_nodes @ eq[:, :2].T + eq[:, 2]).max(axis=1)
            if (dist > -1e-9 * max(np.abs(b).max(), 1.0)).any():
                raise bad("without a weight, interior nodes must lie strictly "
                          "inside the convex hull of the boundary nodes")
        else:
            probe = self.theta(
                np.array([0.0, 1.0, -0.5]), np.array([0.0, -1.0, 0.5]),
                0.0, 0.0, 0.0,
            )
            if not (np.asarray(probe) > 0).all():
                raise bad("theta must be positive")
        return self

    def all_nodes(self):
        return np.vstack([self.interior_nodes, self.boundary_nodes])


@dataclasses.dataclass
class HomotopySchedule:
    """Parameter grid and problem family for continuation solves."""

    ts: np.ndarray
    problem_at: object      # callable t -> MAProblem

    def __post_init__(self):
        self.ts = np.asarray(self.ts, dtype=float)
        if len(self.ts) < 2 or (np.diff(self.ts) <= 0).any():
            raise MalformedSchedule("ts must be strictly increasing with >= 2 points")


@dataclasses.dataclass
class ComparisonReport:
    ok: bool
    violations: list      # (node index, gap)
    max_gap: float


# ---------------------------------------------------------------------------
# envelope and cells


def _on_polygon_boundary(polygon, points, tol=1e-9):
    poly = np.asarray(polygon, dtype=float)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    scale = max(np.abs(poly).max(), 1.0)
    out = np.zeros(len(pts), dtype=bool)
    for k in range(len(poly)):
        a = poly[k]
        b = poly[(k + 1) % len(poly)]
        ab = b - a
        denom = float(ab @ ab)
        t = np.clip((pts - a) @ ab / denom, 0.0, 1.0)
        proj = a[None, :] + t[:, None] * ab[None, :]
        out |= np.linalg.norm(pts - proj, axis=1) <= tol * scale
    return out


def _lower_hull(nodes, values):
    """Lower facets of the convex hull of the lifted nodes (B_i, v_i).

    Returns (facets, planes): ``facets`` is an (F, 3) array of node indices
    and ``planes`` holds the plane z = s . x + t of each facet as a row
    (s1, s2, t).  When Qhull refuses the lift (coplanar lifted points) the
    facets are the Delaunay triangles of the nodes, all under the
    least-squares plane.  Collinear nodes raise DegenerateInput.
    """
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    try:
        hull = ConvexHull(np.column_stack([nodes, values]))
    except QhullError:
        lift = np.column_stack([nodes, np.ones(len(nodes))])
        coef = np.linalg.lstsq(lift, values, rcond=None)[0]
        try:
            tri = Delaunay(nodes)
        except QhullError as exc:
            raise DegenerateInput("the nodes are collinear") from exc
        return tri.simplices, np.repeat(coef[None, :], len(tri.simplices), axis=0)
    eq = hull.equations
    lower = eq[:, 2] < -1e-12
    # facet a x + b y + c z + d = 0, c < 0  ->  z = -(a x + b y + d) / c
    planes = -eq[lower][:, [0, 1, 3]] / eq[lower][:, 2:3]
    return hull.simplices[lower], planes


def lower_envelope_evaluator(nodes, values):
    """Callable evaluating the lower convex envelope of the lifted nodes.

    The envelope is the pointwise maximum of the planes of the lifted hull's
    lower facets; if the lifted points are coplanar it is that single plane.
    """
    _, planes = _lower_hull(nodes, values)

    def evaluate(query):
        q = np.atleast_2d(np.asarray(query, dtype=float))
        vals = q @ planes[:, :2].T + planes[:, 2][None, :]
        return vals.max(axis=1)

    return evaluate


def _next_in_cell(owner, n):
    """Index of the entry after each entry of a flat layout sorted by
    ``owner`` (n owners), cyclically within its owner."""
    b = np.searchsorted(owner, np.arange(n + 1))
    lo, hi = b[owner], b[owner + 1]
    return lo + (np.arange(len(owner)) + 1 - lo) % (hi - lo)


class _Topology(NamedTuple):
    """The combinatorics of one lower hull, for the cells of nodes ``which``.

    ``facets`` (F, 3) are oriented CCW in x.  The incidences of the wanted
    nodes run in fan order, node after node and CCW about each: the
    ``facet``, the ``owner`` (the node's position in ``which``) and the
    vertices ``after`` and ``before`` the node in that facet; ``fan_open``
    marks the wanted nodes whose fan is open.  Each interior edge appears
    once in ``edge_quad``, as the three vertices of one facet holding it and
    the node across it in the other facet; the row of ``edge_weights`` dots
    the four nodes' values into the height of that node over the plane of
    the facet.  ``unused`` lists the nodes that no facet uses.
    """

    facets: np.ndarray
    facet: np.ndarray
    owner: np.ndarray
    after: np.ndarray
    before: np.ndarray
    fan_open: np.ndarray
    edge_quad: np.ndarray
    edge_weights: np.ndarray
    unused: np.ndarray


class _Cells(NamedTuple):
    """Subgradient cells of n nodes in one flat layout, cell after cell.

    ``owner`` is k at every vertex of the cell of the k-th node asked for,
    whose vertices run CCW, and ``label`` the node carving the edge from
    the vertex to the next one of its cell (-1 on a window edge).
    ``topology`` is the lower hull that ``_cells`` read the cells from.
    """

    verts: np.ndarray
    owner: np.ndarray
    label: np.ndarray
    n: int
    topology: _Topology | None = None

    def bounds(self):
        return np.searchsorted(self.owner, np.arange(self.n + 1))

    def next_vertex(self):
        """Index of the vertex after each vertex in its own cell."""
        return _next_in_cell(self.owner, self.n)

    def cell(self, k):
        """(vertices, edge labels) of cell k, None labelling window edges."""
        lo, hi = np.searchsorted(self.owner, [k, k + 1])
        labels = self.label[lo:hi].tolist()
        return self.verts[lo:hi], [None if lab < 0 else lab for lab in labels]

    def clip(self, normal, offset, cut):
        """Every cell k cut by {p : normal[k] . p <= offset[k]} at once.

        One Sutherland-Hodgman pass: each vertex yields itself when inside
        and then the crossing of its edge with the line, which starts an
        edge labelled cut[k] when the vertex is inside.  A zero half-plane
        leaves its cell as it was.
        """
        nxt = self.next_vertex()
        d = np.einsum("ij,ij->i", self.verts, normal[self.owner]) - offset[self.owner]
        inside = d <= 0.0
        cross = inside != inside[nxt]
        t = d / np.where(cross, d - d[nxt], 1.0)
        x = self.verts + t[:, None] * (self.verts[nxt] - self.verts)
        keep = np.column_stack([inside, cross]).ravel()
        label = np.where(inside, cut[self.owner], self.label)
        return _Cells(np.stack([self.verts, x], axis=1).reshape(-1, 2)[keep],
                      np.repeat(self.owner, 2)[keep],
                      np.column_stack([self.label, label]).ravel()[keep], self.n,
                      self.topology)


def _topology(nodes, facets, which):
    """The ``_Topology`` of lower-hull ``facets`` for the cells of ``which``.

    With the facets oriented CCW in x, one sort of the (node, facet)
    incidences by node and by the angle of the facet centroid about the
    node lists each node's fan of facets in CCW order.  The interior edges
    are paired by one sort of the packed (smaller, larger) end keys of the
    facets' sides, which needs no orientation, and each pair's node across
    the edge is given its barycentric coordinates in the facet.
    """
    n, size = len(which), len(nodes)
    edge = nodes[facets[:, 1:]] - nodes[facets[:, :1]]
    cw = edge[:, 0, 0] * edge[:, 1, 1] < edge[:, 0, 1] * edge[:, 1, 0]
    facets = np.where(cw[:, None], facets[:, [0, 2, 1]], facets)
    # the corners of the facets, facet after facet, and the vertices after
    # and before each corner in its facet
    corner = facets.ravel()
    after, before = facets[:, [1, 2, 0]].ravel(), facets[:, [2, 0, 1]].ravel()
    # incidences of the wanted nodes, by node and CCW about it: the
    # direction from the node to the facet's centroid, times 3
    pos = np.full(size, -1)
    pos[which] = np.arange(n)
    at = np.flatnonzero(pos[corner] >= 0)
    node = corner[at]
    d = nodes[after[at]] + nodes[before[at]] - 2.0 * nodes[node]
    order = at[np.lexsort((np.arctan2(d[:, 1], d[:, 0]), pos[node]))]
    owner = pos[corner[order]]
    # a fan is closed when each facet shares an edge with the next one
    fan_open = np.bincount(
        owner, before[order] != after[order][_next_in_cell(owner, n)], n) > 0
    # corner k starts the side to after[k], across from before[k]; the
    # packed keys are intp, as size**2 outgrows qhull's int32 indices
    key = np.minimum(corner, after) * np.intp(size) + np.maximum(corner, after)
    side = np.argsort(key, kind="stable")
    twin = np.flatnonzero(key[side[1:]] == key[side[:-1]])
    quad = np.column_stack([facets[side[twin] // 3], before[side[twin + 1]]])
    # the facet's plane at the fourth node is its vertices' values weighted
    # by the node's barycentric coordinates (1 - l1 - l2, l1, l2)
    p = nodes[quad]
    ab, ac, aw = (p[:, k] - p[:, 0] for k in (1, 2, 3))
    det = ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0]
    l1 = (aw[:, 0] * ac[:, 1] - aw[:, 1] * ac[:, 0]) / det
    l2 = (ab[:, 0] * aw[:, 1] - ab[:, 1] * aw[:, 0]) / det
    weights = np.column_stack([l1 + l2 - 1.0, -l1, -l2, np.ones(len(quad))])
    return _Topology(facets, order // 3, owner, after[order], before[order],
                     fan_open, quad, weights,
                     np.flatnonzero(np.bincount(corner, minlength=size) == 0))


def _still_lower(nodes, values, topology):
    """Planes (s1, s2, t) of the facets of ``topology`` under ``values``,
    or None unless those facets are still the lower hull.

    The lifted facets are the lower hull when the surface they make is
    strictly convex across every interior edge (the node across the edge
    lies above the plane of the facet on this side: Lawson's criterion for
    regular triangulations) and no node that no facet uses lies below the
    surface, the largest facet plane at its position, by more than 1e-12
    of the largest |value|.  Across a pair of coplanar facets the gap is 0
    up to rounding, which rebuilds the hull whenever it comes out <= 0.
    Each plane z = s . x + t comes from its facet's three lifted vertices.
    """
    gap = np.einsum("ij,ij->i", topology.edge_weights, values[topology.edge_quad])
    if not (gap > 0.0).all():
        return None
    f = topology.facets
    a, b, c = (nodes[f[:, k]] for k in range(3))
    ab, ac = b - a, c - a
    za = values[f[:, 0]]
    db, dc = values[f[:, 1]] - za, values[f[:, 2]] - za
    det = ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0]
    s = np.column_stack([db * ac[:, 1] - dc * ab[:, 1],
                         dc * ab[:, 0] - db * ac[:, 0]]) / det[:, None]
    t = za - np.einsum("ij,ij->i", s, a)
    tol = 1e-12 * np.abs(values).max()
    # a few unused nodes at a time against every plane, in bounded memory
    step = max(1, (1 << 18) // len(f))
    for lo in range(0, len(topology.unused), step):
        k = topology.unused[lo:lo + step]
        if (values[k] < (nodes[k] @ s.T + t).max(axis=1) - tol).any():
            return None
    return np.column_stack([s, t])


def _cells(nodes, values, which, clip=None, check_nodes=True, reuse=None):
    """Subgradient cells of the nodes ``which``, as one ``_Cells`` layout.

    The cells are the dual of the lower hull of the lifted nodes, read off
    its ``_Topology``: the slopes of a node's fan of facets, in CCW order,
    are its cell's vertices, and the edge between two consecutive ones is
    carved by the node the two facets share besides it.  A node off the
    lower hull has an empty cell.  ``reuse`` is the topology of an earlier
    call on the same nodes and ``which``; while ``_still_lower`` certifies
    that it is still the lower hull under ``values``, no hull is built and
    the planes come from the facets' vertices.  The returned layout carries
    the topology it was read from.

    A node on the boundary of the nodes' hull has an open fan and an
    unbounded cell.  Without a ``clip`` window (a convex polygon) that
    raises UnboundedCell; with one, the cell is the window cut by the
    node's lower-hull neighbours, and so is a closed cell with a vertex
    outside the window.  If the lower hull is one plane, all other nodes
    are neighbours.  A window given clockwise is reversed first.  Each
    round of ``_Cells.clip`` cuts every recut cell by one neighbour, in
    ascending node order.  Duplicate nodes raise DuplicateNodes, unless
    ``check_nodes`` is False because the caller has checked them already.
    """
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    which = np.asarray(which, dtype=np.intp)
    n, size = len(which), len(nodes)
    if check_nodes and len(np.unique(nodes, axis=0)) < size:
        raise DuplicateNodes("two nodes share a position")
    topology = reuse
    planes = None if reuse is None else _still_lower(nodes, values, reuse)
    if planes is None:
        facets, planes = _lower_hull(nodes, values)
        topology = _topology(nodes, facets, which)
    owner, after, before = topology.owner, topology.after, topology.before
    cells = _Cells(planes[topology.facet, :2], owner, before, n, topology)
    fan_open = topology.fan_open
    if clip is None:
        if fan_open.any():
            raise UnboundedCell(f"the cell of node {which[fan_open.argmax()]} "
                                "is unbounded; pass a clip window")
        return cells
    window = np.asarray(clip, dtype=float)
    if planar.polygon_area(window) < 0:
        window = window[::-1]
    normal = (np.roll(window, -1, axis=0) - window) @ np.array([[0, -1], [1, 0]])
    outside = (cells.verts @ normal.T > (normal * window).sum(axis=1)).any(axis=1)
    flat = bool((planes == planes[0]).all())
    recut = fan_open | (np.bincount(owner, outside, n) > 0) | flat
    if not recut.any():
        return cells
    # (recut cell, neighbour) pairs, each cell's neighbours in ascending order
    kept = ~recut[owner]
    if flat:
        cell, nbr = np.divmod(np.arange(n * size), size)
        other = nbr != which[cell]
        cell, nbr = cell[other], nbr[other]
    else:
        pairs = owner * size + np.stack([after, before])
        cell, nbr = np.divmod(np.unique(pairs[:, ~kept]), size)
    # every recut cell restarts as the window; round r cuts it by its r-th
    # neighbour, and the other cells by the zero half-plane
    k = np.flatnonzero(recut)
    owner = np.concatenate([owner[kept], np.repeat(k, len(window))])
    verts = np.concatenate([cells.verts[kept], np.tile(window, (len(k), 1))])
    label = np.concatenate([before[kept], np.full(len(k) * len(window), -1)])
    order = np.argsort(owner, kind="stable")
    cells = _Cells(verts[order], owner[order], label[order], n, topology)
    rank = np.arange(len(cell)) - np.searchsorted(cell, cell)
    for s in np.split(np.argsort(rank, kind="stable"), np.cumsum(np.bincount(rank))[:-1]):
        normal, offset, cut = np.zeros((n, 2)), np.zeros(n), np.zeros(n, np.intp)
        i, cut[cell[s]] = which[cell[s]], nbr[s]
        normal[cell[s]] = nodes[nbr[s]] - nodes[i]
        offset[cell[s]] = values[nbr[s]] - values[i]
        cells = cells.clip(normal, offset, cut)
    return cells


def subgradient_cell_polygon(nodes, values, i, clip=None):
    """Cell {p : p . (B_k - B_i) <= v_k - v_i for all k} as a polygon.

    Interior cells are bounded.  For boundary nodes the cell is unbounded
    and ``clip`` (a convex window polygon) is required.  Returns
    (vertices, edge_labels), edge label k marking the edge carved by node k
    and None a window edge; empty vertices mean the node is not a vertex of
    the envelope.
    """
    return _cells(nodes, values, [i], clip).cell(0)


def ma_measure(u: PLConvexFunction, node, clip=None):
    """Subgradient cell of one node with its unweighted area.

    Raises NotEnvelopeVertex when the node lies strictly above the envelope
    (its cell is empty).
    """
    verts, labels = subgradient_cell_polygon(u.nodes, u.values, node, clip=clip)
    area = abs(planar.polygon_area(verts))
    if area == 0.0:
        raise NotEnvelopeVertex(f"node {node} carries no measure")
    return SubgradientCell(
        node=int(node), polygon=verts, area=area, edge_constraints=labels
    )


def conditional_curvature(u: PLConvexFunction, node, theta=None, clip=None,
                          rel_tol=1e-3):
    """theta-weighted measure of the node's cell (cell area when theta is None).

    theta is evaluated at the cell's generating node, z = u(B_i), x = B_i, so
    only its p-dependence is integrated (adaptive degree-5 quadrature).
    """
    cell = ma_measure(u, node, clip=clip)
    one = _Cells(cell.polygon, np.zeros(len(cell.polygon), np.intp), None, 1)
    return float(_cell_masses(u.nodes, u.values, [node], one, theta, rel_tol)[0])


# ---------------------------------------------------------------------------
# forward masses and Jacobian


def _cell_masses(nodes, values, which, cells, theta, rel_tol, max_depth=30):
    """Masses of the cells of ``_cells(nodes, values, which, ...)``.

    The weight of cell k is taken at z = u(B_i) and x = B_i of its node
    i = which[k]; one adaptive quadrature covers every cell, with one
    weight call per refinement level.
    """
    if theta is None:  # one shoelace sum
        v, w = cells.verts, cells.verts[cells.next_vertex()]
        cross = v[:, 0] * w[:, 1] - v[:, 1] * w[:, 0]
        return np.abs(0.5 * np.bincount(cells.owner, cross, cells.n))
    which = np.asarray(which, dtype=np.intp)
    z, x = values[which], nodes[which]
    return planar.polygons_quad(
        lambda p, k: theta(p[:, 0], p[:, 1], z[k], x[k, 0], x[k, 1]),
        cells.verts, cells.owner, cells.n, rel_tol, max_depth)


def _mass_jacobian(nodes, values, interior_idx, cells, theta):
    """Sparse d(mass_i)/d(value_j) of the interior nodes from their cells.

    ``cells`` is the interior nodes' ``_Cells`` layout; no hull is built
    here.  An edge of cell i carved by node k has dm_i/dv_k = (edge
    theta-integral) / |B_k - B_i|, and the diagonal collects the negated
    row total, so the matrix has Laplacian structure with an entry per pair
    of lower-hull neighbours.  When theta depends on z, the full Jacobian
    adds the diagonal ``_theta_z_masses``.
    """
    idx = np.asarray(interior_idx, dtype=np.intp)
    n = len(idx)
    carved = (cells.label >= 0) & (np.diff(cells.bounds())[cells.owner] >= 3)
    a, b = cells.verts[carved], cells.verts[cells.next_vertex()[carved]]
    rows, carvers = cells.owner[carved], cells.label[carved]
    flux = np.linalg.norm(b - a, axis=1)
    if theta is not None and len(flux):
        # Gauss points on every edge, one weight call for all of them
        p = (a[:, None, :] + _GL_T[None, :, None] * (b - a)[:, None, :]).reshape(-1, 2)
        i = np.repeat(idx[rows], len(_GL_T))
        vals = theta(p[:, 0], p[:, 1], values[i], nodes[i, 0], nodes[i, 1])
        flux *= np.asarray(vals, float).reshape(-1, len(_GL_T)) @ _GL_W
    w = flux / np.linalg.norm(nodes[carvers] - nodes[idx[rows]], axis=1)
    pos = np.full(len(nodes), -1)
    pos[idx] = np.arange(n)
    cols = pos[carvers]
    off, diag = cols >= 0, np.arange(n)
    return sparse.csc_matrix(
        (np.concatenate([w[off], -np.bincount(rows, w, n)]),
         (np.concatenate([rows[off], diag]), np.concatenate([cols[off], diag]))),
        shape=(n, n),
    )


def _theta_z_masses(nodes, values, which, cells, theta, rel_tol):
    """Integral of d theta / dz over each cell, at z = u(B_i) and x = B_i.

    This is the part of d(mass_i)/d(value_i) that comes from theta being
    taken at the node's own value.  The derivative is a central difference
    in z with step h = 1e-4 max(1, |z|).  For a weight that varies on a
    unit scale in z, its truncation error is a smooth h^2 / 6 of it and its
    rounding noise about 1e-11 of it.  No adaptive refinement settles that
    noise, so the quadrature tolerance is floored and its depth capped: the
    Jacobian only steers a damped step.
    """
    def theta_z(p1, p2, z, x1, x2):
        h = 1e-4 * np.maximum(1.0, np.abs(z))
        return (theta(p1, p2, z + h, x1, x2) - theta(p1, p2, z - h, x1, x2)) / (2.0 * h)

    return _cell_masses(nodes, values, which, cells, theta_z, max(rel_tol, 1e-9),
                        max_depth=6)


def mass_balance_bound(theta, mass_bound=None, tol=1e-9):
    """Total attainable weighted mass: the integral of theta over p-space.

    Infinite for theta == None (unweighted measure).  Computed by quadrature
    over growing squares until the increment is negligible; returns inf when
    the integral keeps growing.
    """
    if theta is None:
        return math.inf
    if mass_bound is not None:
        return float(mass_bound)
    settled = _settled_square(theta, tol)
    return math.inf if settled is None else settled[0]


@functools.cache
def _gauss_legendre(n):
    return np.polynomial.legendre.leggauss(n)


def _integrate_square(theta, half, n=96):
    x, w = (half * r for r in _gauss_legendre(n))
    xx, yy = np.meshgrid(x, x)
    vals = np.asarray(theta(xx.ravel(), yy.ravel(), 0.0, 0.0, 0.0), dtype=float)
    return float(w @ vals.reshape(n, n) @ w)


def _settled_square(theta, rel):
    """(integral, half) for the first square [-half, half]^2 whose doubling
    from half / 2 changed theta's integral by at most ``rel``; None when the
    integral keeps growing."""
    prev = None
    half = 1.0
    for _ in range(24):
        total = _integrate_square(theta, half)
        if prev is not None and abs(total - prev) <= rel * max(abs(total), 1.0):
            return total, half
        prev = total
        half *= 2.0
    return None


def _theta_window(theta, rel=1e-12):
    """Half-width of a square outside which theta's mass is negligible.

    None when the integral keeps growing (no useful window exists).
    """
    if theta is None:
        return None
    settled = _settled_square(theta, rel)
    # the doubling that changed nothing already contained the mass
    return None if settled is None else 0.75 * settled[1]


# ---------------------------------------------------------------------------
# solver


def _boundary_start_values(problem):
    """Strictly convex interior start values, for every weight.

    The start is a quadratic q(x) = y.A y + b.y + k in y = x - c, c the
    mean of the boundary nodes.  (A, b, k) first fit the boundary data in
    least squares; A is then raised by the smallest s I that makes the
    unweighted measure 4 det(A) area of q over the domain at least the
    total target, which leaves A positive definite; last, k is lowered
    until no boundary node lies below q.  Every interior node lies on the
    strictly convex q and every boundary node on or above it, so each
    interior node is a strict vertex of the lower hull and its cell has
    positive area.  For zero boundary data this is t (|x - c|^2 - rho^2),
    rho the largest distance of a boundary node from c and 4 t^2 area the
    total target.  On quadratic boundary data whose Hessian carries the
    target masses the start is that quadratic itself.
    """
    c = problem.boundary_nodes.mean(axis=0)

    def basis(x):
        y = x - c
        return np.column_stack([y[:, 0] ** 2, 2.0 * y[:, 0] * y[:, 1], y[:, 1] ** 2,
                                y, np.ones(len(y))])

    fit, g = basis(problem.boundary_nodes), problem.boundary_values
    coef = np.linalg.lstsq(fit, g, rcond=None)[0]
    lam = np.linalg.eigvalsh([[coef[0], coef[1]], [coef[1], coef[2]]])
    # 4 (lam_0 + s) (lam_1 + s) = total / area at its larger root
    m = problem.masses.sum() / abs(planar.polygon_area(problem.domain))
    s = max(0.0, 0.5 * (math.sqrt((lam[1] - lam[0]) ** 2 + m) - lam.sum()))
    coef[[0, 2]] += s
    coef[5] -= np.max(fit @ coef - g)
    return basis(problem.interior_nodes) @ coef


def solve_ma(problem: MAProblem, tol=1e-10, max_iter=400, init_values=None):
    """Solve for a PL convex function with prescribed node masses.

    ``newton.damped_newton`` (Kitagawa-Merigot-Thibert steps) on the
    interior values, from the strictly convex default start or from
    init_values.  The default start is the convex quadratic fitted to the
    boundary data by ``_boundary_start_values``: on smooth convex data it
    is close to the solution, and on quadratic data with the quadratic's
    own masses it is the solution.  Where init_values leave a cell empty
    they are blended toward the default start until every cell is
    nonempty: node i has a nonempty cell iff v_i lies below the lower
    envelope of the other lifted nodes at B_i, which is concave in the
    values, so those starts form a convex set holding the default one.
    ``problem`` is validated here, once per solve.  An accepted step keeps
    every cell above half the smallest of the starting and target masses,
    and the Jacobian comes from the cells of the last accepted evaluation.
    A z-dependent weight is taken at the node's own value, so its Jacobian
    adds each cell's integral of d theta / dz to the diagonal; under
    theta_z <= 0 that only makes the diagonal more negative.  Each
    evaluation passes the lower hull of the one before to ``_cells``, which
    builds a new hull only when that one is no longer locally convex under
    the new values.  solve_info records the residual after the start and
    after each accepted step, the accepted steps as ``newton_iters`` (and
    as ``sweeps``), the rejected trials as ``backtracks`` and the lower
    hulls built as ``hull_builds``.

    Raises Infeasible when the targets exceed the attainable mass, and
    MaxIterExceeded, carrying the current iterate with ``converged`` False,
    when no step is accepted or max_iter steps leave the residual above tol.
    """
    problem.validate()
    mu = problem.masses
    bound = mass_balance_bound(problem.theta, problem.mass_bound) \
        if not problem.theta_z_dependent else math.inf
    if mu.sum() >= bound * (1.0 - 1e-12):
        raise Infeasible(
            f"total mass {mu.sum()} reaches the attainable bound {bound}"
        )

    nodes = problem.all_nodes()
    interior_idx = np.arange(len(problem.interior_nodes))
    theta = problem.theta
    z_dependent = theta is not None and problem.theta_z_dependent

    def full(x):
        return np.concatenate([x, problem.boundary_values])

    # quadrature window: cells are intersected with a square outside which
    # theta carries negligible mass, keeping weighted quadratures bounded.
    # theta_z <= 0 makes lower z the widest profile, so a z-dependent
    # window is rebuilt only when the lowest value falls below its z
    window, window_z = None, math.inf

    def refresh_window(vals):
        nonlocal window, window_z
        z = float(vals.min())
        if theta is None or z >= window_z:
            return
        if z_dependent:
            half = _theta_window(lambda p1, p2, _, x1, x2: theta(p1, p2, z, x1, x2))
            window_z = z
        else:
            half = _theta_window(theta)
            window_z = -math.inf
        window = None if half is None else planar.box_polygon(0.0, 0.0, half)
    quad_tol = max(1e-11, 0.01 * tol)

    def quad_now(res):
        # inexact Newton: quadrature only needs to outpace the residual
        return float(np.clip(0.02 * res, quad_tol, 1e-6))

    # the lower hull of the last evaluation, and the number of hulls built
    hull, builds = None, 0

    def evaluate(x, res):
        # masses and the cells they came from, for the next Jacobian
        nonlocal hull, builds
        vals = full(x)
        refresh_window(vals)
        # the nodes never move, and validate has found them distinct
        cells = _cells(nodes, vals, interior_idx, window, check_nodes=False,
                       reuse=hull)
        builds += cells.topology is not hull
        hull = cells.topology
        m = _cell_masses(nodes, vals, interior_idx, cells, theta, quad_now(res))
        return (m, cells), float(np.max(np.abs(m - mu) / mu))

    def alive(x):
        got = evaluate(x, 1.0)
        return got if (got[0][0] > 0).all() else None

    def step(x, state, res):
        (m, cells), vals = state, full(x)
        jac = _mass_jacobian(nodes, vals, interior_idx, cells, theta)
        if z_dependent:
            jac = jac + sparse.diags(
                _theta_z_masses(nodes, vals, interior_idx, cells, theta, quad_now(res)),
                format="csc",
            )
        return newton.sparse_solve(jac, mu - m)

    start = _boundary_start_values(problem)
    init = start if init_values is None else np.asarray(init_values, dtype=float)
    x, got = newton.blend_start(start, init, alive)
    state, residual = got or evaluate(x, 1.0)
    floor = 0.5 * min(state[0].min(), mu.min())
    run = newton.damped_newton(x, state, residual, step, evaluate, tol, max_iter,
                               lambda state: state[0].min() >= floor)
    u = PLConvexFunction(
        nodes=nodes, values=full(run.x), domain=problem.domain,
        solve_info={
            "residual_history": run.history, "sweeps": run.steps,
            "newton_iters": run.steps, "backtracks": run.backtracks,
            "hull_builds": builds,
            "final_residual": run.history[-1], "converged": run.failure is None,
        },
    )
    if run.failure is not None:
        raise MaxIterExceeded(run.failure, best=u, residual=run.history[-1])
    return u


# ---------------------------------------------------------------------------
# comparison, continuation, probes


def maximum_principle_check(u1, u2, problem1, problem2, tol=1e-9):
    """Verify u1 <= u2 nodewise for ordered data (masses down, boundary up)."""
    if len(u1.nodes) != len(u2.nodes) or not np.allclose(
        u1.nodes, u2.nodes, atol=1e-12
    ):
        raise IncomparableProblems("node sets differ")
    if (problem1.masses < problem2.masses - 1e-12).any():
        raise IncomparableProblems("masses of problem1 must dominate problem2")
    if (problem1.boundary_values > problem2.boundary_values + 1e-12).any():
        raise IncomparableProblems("boundary of problem1 must lie below problem2")
    scale = max(np.ptp(u2.values), 1.0)
    gaps = u1.values - u2.values
    violations = [
        (int(k), float(gaps[k])) for k in np.nonzero(gaps > tol * scale)[0]
    ]
    return ComparisonReport(
        ok=not violations,
        violations=violations,
        max_gap=float(gaps.max()),
    )


def homotopy_solve(schedule: HomotopySchedule, tol=1e-10, min_step=1e-3,
                   max_iter=400, max_mass_step=0.5):
    """Warm-started continuation along the problem family.

    Failed steps are bisected; when the step between successful parameters
    falls below ``min_step`` a MinStepReached carrying the progress so far is
    raised.  Returns the solutions at the grid parameters.
    """
    ts = schedule.ts
    problem0 = schedule.problem_at(float(ts[0]))
    u = solve_ma(problem0, tol=tol, max_iter=max_iter)
    solutions = [u]
    step_log = [(float(ts[0]), u.solve_info["sweeps"])]
    t_good = float(ts[0])
    mu_good = problem0.masses

    for t_target in ts[1:]:
        t_target = float(t_target)
        while t_good < t_target:
            t_next = t_target
            while True:
                problem = schedule.problem_at(t_next)
                if np.max(np.abs(problem.masses - mu_good) / mu_good) <= max_mass_step:
                    try:
                        u_try = solve_ma(
                            problem, tol=tol, max_iter=max_iter,
                            init_values=u.values[: len(problem.interior_nodes)],
                        )
                        break
                    except (Infeasible, MaxIterExceeded):
                        pass
                t_next = 0.5 * (t_good + t_next)
                if t_next - t_good < min_step:
                    raise MinStepReached(
                        f"continuation stalled at t={t_good}",
                        last_t=t_good, solutions=solutions,
                    )
            u = u_try
            t_good = t_next
            mu_good = problem.masses
            step_log.append((t_good, u.solve_info["sweeps"]))
        solutions.append(u)
    solutions[-1].solve_info["step_log"] = step_log
    return solutions


def liouville_probe(radii, f=1.0, spacing=0.25, bump_height=0.0,
                    window_halfwidth=0.5, tol=1e-10, max_iter=400):
    """Deviation-from-quadratic of solves on growing squares [-R, R]^2.

    Node masses are f times the uniform-partition cell area, boundary data is
    the exact quadratic sqrt(f) |x|^2 / 2 (optionally bumped at the boundary
    node nearest (R, 0)); the report rows carry the max-norm deviation of the
    recovered values from their best-fit quadratic inside the fixed window.
    """
    if f <= 0:
        raise NonPositiveDensity("f must be a positive constant")
    rows = []
    for R in radii:
        R = float(R)
        n_seg = max(2, round(2 * R / spacing))
        coords = np.linspace(-R, R, n_seg + 1)
        xx, yy = np.meshgrid(coords, coords)
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        on_b = (np.abs(np.abs(pts[:, 0]) - R) < 1e-12) | (
            np.abs(np.abs(pts[:, 1]) - R) < 1e-12
        )
        interior = pts[~on_b]
        boundary = pts[on_b]
        h = coords[1] - coords[0]
        quad = lambda p: 0.5 * math.sqrt(f) * (p[:, 0] ** 2 + p[:, 1] ** 2)
        g = quad(boundary)
        if bump_height:
            k = int(np.argmin(np.linalg.norm(boundary - np.array([R, 0.0]), axis=1)))
            g = g.copy()
            g[k] += bump_height
        domain = np.array([[-R, -R], [R, -R], [R, R], [-R, R]])
        problem = MAProblem(
            domain=domain, interior_nodes=interior,
            masses=np.full(len(interior), f * h * h),
            boundary_nodes=boundary, boundary_values=g,
        )
        u = solve_ma(problem, tol=tol, max_iter=max_iter,
                     init_values=quad(interior))
        w = window_halfwidth + 1e-12
        sel = (np.abs(interior[:, 0]) <= w) & (np.abs(interior[:, 1]) <= w)
        win_pts = interior[sel]
        win_vals = u.values[: len(interior)][sel]
        design = np.column_stack([
            np.ones(len(win_pts)), win_pts[:, 0], win_pts[:, 1],
            win_pts[:, 0] ** 2, win_pts[:, 0] * win_pts[:, 1],
            win_pts[:, 1] ** 2,
        ])
        coef, *_ = np.linalg.lstsq(design, win_vals, rcond=None)
        deviation = float(np.abs(design @ coef - win_vals).max())
        rows.append({
            "R": R, "deviation": deviation, "spacing": h,
            "interior_nodes": int(len(interior)),
            "window_nodes": int(sel.sum()),
            "residual": u.solve_info["final_residual"],
        })
    return rows
