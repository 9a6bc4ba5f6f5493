"""Discrete Minkowski problem.

Recover a convex polytope from prescribed outer unit normals and face areas
(or from Gauss-curvature samples on the sphere, converted to per-cell areas).
The solve runs the damped Newton loop of ``newton`` on the support vector,
as the Monge-Ampere solver does: the area map is the gradient of the volume
functional, its sparse Jacobian follows from the edge geometry, and the
translation kernel is handled by a pinned sparse solve projected to the
minimum-norm step, plus recentering.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy import sparse

from .core import (
    chebyshev_centre,
    closing_defect,
    dual_hull,
    edge_pass,
    half_edges,
    unit_vectors,
)
from .errors import (
    DegenerateFace,
    DegenerateNormals,
    EmptyBody,
    MalformedMinkowskiData,
    MaxIterExceeded,
    NegativeCurvature,
    OpenAreaVector,
)
from . import newton

# NᵀN of unit normals has trace m; below this fraction of m its smallest
# eigenvalue counts as zero, and the normals as confined to a plane
SPAN_TOL = 1e-10

# an iterate is intersected about the origin when min(h) exceeds this
# fraction of max|h|; otherwise the Chebyshev LP finds an interior point
ORIGIN_MARGIN = 1e-2


@dataclasses.dataclass
class MinkowskiProblem:
    normals: np.ndarray        # (m, 3) distinct unit vectors, spanning space
    target_areas: np.ndarray   # (m,) positive
    metadata: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        self.normals = unit_vectors(self.normals)
        self.target_areas = np.asarray(self.target_areas, dtype=float)

    def validate(self, closing_tol=1e-8):
        """Self, or a named ValueError.  Positive areas, a zero closing
        defect and spanning normals make the normals span space positively,
        so every support vector bounds a body."""
        m = len(self.normals)
        if m < 4:
            raise MalformedMinkowskiData("need at least 4 normals")
        if m != len(self.target_areas):
            raise MalformedMinkowskiData("one target area per normal required")
        if (self.target_areas <= 0).any():
            raise MalformedMinkowskiData("target areas must be positive")
        gram = self.normals @ self.normals.T
        np.fill_diagonal(gram, 0.0)
        if gram.max() > 1.0 - 1e-12:
            raise DegenerateNormals("normals must be pairwise distinct")
        _require_spanning(self.normals)
        defect = np.linalg.norm(check_closing(self))
        if defect > closing_tol * self.target_areas.sum():
            raise OpenAreaVector(f"closing defect {defect} exceeds tolerance")
        return self


@dataclasses.dataclass
class CurvatureSample:
    """Sphere partition with cell centers, spherical areas, and curvatures."""

    centers: np.ndarray       # (m, 3) unit vectors
    cell_areas: np.ndarray    # (m,) spherical areas, summing to 4*pi
    curvature: np.ndarray     # (m,) positive K at each center

    def __post_init__(self):
        self.centers = unit_vectors(self.centers)
        self.cell_areas = np.asarray(self.cell_areas, dtype=float)
        self.curvature = np.asarray(self.curvature, dtype=float)

    def validate(self, tol=1e-6):
        if abs(self.cell_areas.sum() - 4 * np.pi) > tol * 4 * np.pi:
            raise MalformedMinkowskiData("cell areas must sum to the full sphere")
        if (self.curvature <= 0).any():
            raise NegativeCurvature("curvature values must be positive")
        return self


def _require_spanning(normals):
    """DegenerateNormals unless the unit ``normals`` span space."""
    if np.linalg.eigvalsh(normals.T @ normals)[0] <= SPAN_TOL * len(normals):
        raise DegenerateNormals("normals must span space (they lie in a plane)")


def check_closing(problem: MinkowskiProblem):
    """Defect vector sum(A_i n_i); zero for consistent closed data."""
    return closing_defect(problem.normals, problem.target_areas)


def discretize_curvature(sample: CurvatureSample):
    """Face areas A_i = cell_area_i / K(n_i), with the closing defect repaired.

    Partition quadrature never satisfies the closing condition exactly, so
    the minimal-norm area correction is applied and recorded in the returned
    problem's metadata.
    """
    sample.validate()
    _require_spanning(sample.centers)
    areas = sample.cell_areas / sample.curvature
    defect = closing_defect(sample.centers, areas)
    gram = sample.centers.T @ sample.centers  # sum of n n^T
    lam = np.linalg.solve(gram, defect)
    corrected = areas - sample.centers @ lam
    if (corrected <= 0).any():
        raise OpenAreaVector("closing repair produced non-positive areas")
    return MinkowskiProblem(
        normals=sample.centers,
        target_areas=corrected,
        metadata={
            "closing_defect_before": [float(v) for v in defect],
            "area_correction_norm": float(np.linalg.norm(corrected - areas)),
        },
    )


def area_map(normals, support_numbers):
    """Face areas of the halfspace intersection, in the input normal order."""
    n = unit_vectors(normals)
    h = np.asarray(support_numbers, dtype=float)
    return dual_hull(n, h, chebyshev_centre(n, h)).edges.areas


def area_jacobian(poly):
    """d(area_i)/d(h_j) of a ConvexPolytope as a sparse CSR matrix:
    edge/sin for neighbours, -sum edge*cot on the diagonal, from
    ``core.edge_pass`` over its edges, each half-edge u -> w of a face
    cycle taken once with its twin w -> u in the neighbouring face."""
    face, tail, head, twin = half_edges(poly.faces)
    k = np.flatnonzero(twin > np.arange(len(twin)))
    edges = edge_pass(poly.normals, poly.support_numbers, poly.vertices,
                      face[k], face[twin[k]], tail[k], head[k])
    return edges.jacobian().tocsr()


def _pinned_step(jac, normals, rhs):
    """Minimum-norm solution of jac @ x = rhs for an area Jacobian.

    The kernel of jac is the translations x_i = <n_i, t>.  Fixing x = 0 at
    three faces with independent normals removes it, leaving a nonsingular
    sparse system in the other m - 3 faces; its compressed columns are
    sorted straight from jac's triplets (SuperLU sums repeated entries).
    Projecting the translations out of its solution gives the minimum-norm
    step.  When the pinned system is singular, the step is not finite.
    """
    a = 0
    b = int(np.argmin(np.abs(normals @ normals[a])))  # the most nearly orthogonal
    c = int(np.argmax(np.abs(normals @ np.cross(normals[a], normals[b]))))
    free = np.ones(len(normals), dtype=bool)
    free[[a, b, c]] = False
    jac = jac.tocoo()
    keep = free[jac.row] & free[jac.col]
    at = np.cumsum(free) - 1  # index of each free face among the free ones
    row, col = at[jac.row[keep]], at[jac.col[keep]]
    order = np.lexsort((row, col))
    k = len(normals) - 3
    starts = np.searchsorted(col[order], np.arange(k + 1))
    pinned = sparse.csc_matrix((jac.data[keep][order], row[order], starts), shape=(k, k))
    x = np.zeros(len(normals))
    x[free] = newton.sparse_solve(pinned, rhs[free])
    return x - normals @ np.linalg.solve(normals.T @ normals, normals.T @ x)


def solve_minkowski(problem: MinkowskiProblem, tol=1e-9, max_iter=100,
                    init_support=None, full_output=False):
    """Polytope with the prescribed face normals and areas, centred at origin.

    ``newton.damped_newton`` steps h <- h + alpha J^+ (A0 - A(h)) with the
    sparse symmetric area Jacobian, keeping every face's area positive; the
    minimum-norm step stays orthogonal to the translation kernel and the
    body is recentred after convergence.  A plane cut off from the body has
    a zero Jacobian row that no step repairs, so an init_support with a dead
    face is blended toward the round start h = const, on which every plane
    touches the body at its own normal.  max_iter counts accepted steps.
    Raises DegenerateFace if some prescribed face vanishes at the optimum
    and MaxIterExceeded, carrying the last iterate and its residual, when
    the budget runs out or no step is accepted.

    Each iterate is one ``core.dual_hull``: its areas and sparse Jacobian
    come from one pass over its edges, and the face cycles are ordered once,
    for the returned polytope (or the one MaxIterExceeded carries).
    Residuals below ~1e-10 relative are not reachable: qhull rounds the
    vertices at that scale.
    """
    problem.validate()
    n = problem.normals
    target = problem.target_areas
    floor = 1e-14 * float(target.max())  # no accepted step takes a face below it

    def residual(hull):
        return float(np.max(np.abs(hull.edges.areas - target) / target))

    def hull_at(h):
        if h.min() > ORIGIN_MARGIN * np.abs(h).max():
            # the origin is inside the body, at least min(h) from its faces
            return dual_hull(n, h, np.zeros(3))
        return dual_hull(n, h, chebyshev_centre(n, h))

    def evaluate(h, _):
        try:
            hull = hull_at(h)
        except (EmptyBody, ValueError):
            return None
        return hull, residual(hull)

    def alive(h):
        got = evaluate(h, None)
        if got and got[0].edges.areas.min() > 1e-12 * got[0].edges.areas.max():
            return got[0]

    def step(h, hull, _):
        return _pinned_step(hull.edges.jacobian(), n, target - hull.edges.areas)

    init = np.ones(len(n)) if init_support is None else np.asarray(init_support, float)
    h, hull = newton.blend_start(np.full(len(n), float(np.abs(init).mean()) or 1.0),
                                 init, alive)
    hull = hull or hull_at(h)
    scale = np.sqrt(target.sum() / hull.edges.areas.sum())
    hull = hull.scaled(scale)
    run = newton.damped_newton(h * scale, hull, residual(hull), step, evaluate, tol,
                               max_iter, lambda hull: hull.edges.areas.min() > floor)
    hull, history = run.state, run.history
    if run.failure is not None:
        raise MaxIterExceeded(run.failure, best=hull.polytope(), residual=history[-1])

    dead = np.flatnonzero(hull.edges.areas < 1e-12 * target.max()).tolist()
    if dead:
        raise DegenerateFace(f"faces {dead} vanished at the optimum")

    centred = hull.polytope().centered()
    if full_output:
        report = {
            "iterations": len(history),
            "backtracks": run.backtracks,
            "residual_history": history,
            "final_residual": history[-1],
            "volume": centred.volume(),
            "support_numbers": centred.support_numbers.tolist(),
        }
        return centred, report
    return centred
