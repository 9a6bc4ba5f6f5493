"""Infinitesimal rigidity of triangulated surfaces and the flex equation.

First-order isometric deformations must preserve every edge length, giving
one linear constraint (v_i - v_j) . (tau_i - tau_j) = 0 per edge.  The kernel
of that system always contains the six rigid motions a x r + b; a surface is
rigid when it contains nothing else.  For graph surfaces z(x, y) the vertical
component zeta of a bending field satisfies
z_xx zeta_yy - 2 z_xy zeta_xy + z_yy zeta_xx = 0, discretised here on a
rectangular grid with central differences.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from .errors import DegenerateGeometry, NotStrictlyConvex, PrecisionWarning


@dataclasses.dataclass(frozen=True)
class TriangulatedSurface:
    vertices: np.ndarray   # (V, 3)
    triangles: np.ndarray  # (T, 3) int
    with_boundary: bool = False

    def __post_init__(self):
        object.__setattr__(self, "vertices", np.asarray(self.vertices, dtype=float))
        object.__setattr__(self, "triangles", np.asarray(self.triangles, dtype=int))

    def _sides(self):
        """Every triangle side as a sorted vertex-index pair, (3T, 2)."""
        t = self.triangles
        return np.sort(np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]),
                       axis=1)

    def edges(self):
        """Sorted vertex-index pairs of all edges, as an (E, 2) array."""
        return np.unique(self._sides(), axis=0)

    def validate(self):
        t, v = self.triangles, self.vertices
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValueError("vertices must be rows of 3 coordinates")
        if t.ndim != 2 or t.shape[1] != 3:
            raise ValueError("triangles must be rows of 3 vertex indices")
        if t.size and (t.min() < 0 or t.max() >= len(v)):
            raise ValueError("triangle vertex index out of range")
        _, counts = np.unique(self._sides(), axis=0, return_counts=True)
        bad = int((counts != 2).sum())
        if bad and not self.with_boundary:
            raise ValueError(f"{bad} edges are not shared by exactly 2 triangles")
        return self


def isometry_constraints(surface: TriangulatedSurface):
    """Sparse E x 3V system of first-order edge-length constraints.

    Row for edge (i, j) applies the unit edge direction with opposite signs
    to the two endpoint displacement blocks (row scaling by edge length).
    """
    edges = surface.edges()
    d = _unit_directions(surface.vertices, edges)
    rows = np.repeat(np.arange(len(edges)), 6)
    cols = (3 * edges[:, [0, 0, 0, 1, 1, 1]] + [0, 1, 2, 0, 1, 2]).ravel()
    return sp.csr_matrix((np.hstack([d, -d]).ravel(), (rows, cols)),
                         shape=(len(edges), 3 * len(surface.vertices)))


def _unit_directions(vertices, edges):
    d = vertices[edges[:, 0]] - vertices[edges[:, 1]]
    return d / np.linalg.norm(d, axis=1)[:, None]


def trivial_motion_basis(vertices):
    """3 translations and 3 rotations as columns of a (3V, 6) matrix."""
    v = np.asarray(vertices, dtype=float)
    nv = len(v)
    basis = np.zeros((3 * nv, 6))
    for k in range(3):
        basis[k::3, k] = 1.0
    for k, axis in enumerate(np.eye(3)):
        basis[:, 3 + k] = np.cross(axis, v).ravel()
    return basis


def constraint_residual(surface, field):
    """Max edge-length-rate magnitude of a displacement field (V, 3)."""
    tau = np.asarray(field, dtype=float).reshape(len(surface.vertices), 3)
    edges = surface.edges()
    d = _unit_directions(surface.vertices, edges)
    rate = np.einsum("ij,ij->i", d, tau[edges[:, 0]] - tau[edges[:, 1]])
    return float(np.abs(rate).max(initial=0.0))


@dataclasses.dataclass
class BendingReport:
    kernel_dim: int
    nontrivial_dim: int
    basis: np.ndarray          # (3V, nontrivial_dim) orthonormal columns
    spectrum_tail: np.ndarray  # smallest 12 singular values
    trivial_residual: float    # constraint residual of the projected basis

    def as_dict(self):
        return {
            "kernel_dim": int(self.kernel_dim),
            "nontrivial_dim": int(self.nontrivial_dim),
            "spectrum_tail": [float(s) for s in self.spectrum_tail],
            "trivial_residual": float(self.trivial_residual),
        }


def bending_space(surface: TriangulatedSurface, tol=1e-10):
    """Kernel of the constraint system split into trivial and extra flexes.

    Singular values below tol * sigma_max count as zero; the span of the six
    rigid motions is projected out of the kernel and whatever remains is the
    nontrivial flex space (empty exactly when the surface is rigid).
    """
    surface.validate()
    mat = isometry_constraints(surface)
    dense = mat.toarray()
    svals = np.linalg.svd(dense, compute_uv=False)
    smax = svals[0] if len(svals) else 1.0
    rank = int(np.sum(svals > tol * smax))
    kernel_dim = dense.shape[1] - rank
    # pad with the structural zeros svd omits when E < 3V
    svals = np.concatenate([svals, np.zeros(dense.shape[1] - len(svals))])

    triv = trivial_motion_basis(surface.vertices)
    qt, rt = np.linalg.qr(triv)
    if np.abs(np.diag(rt)).min() < 1e-12 * np.abs(np.diag(rt)).max():
        raise DegenerateGeometry("vertex set spans fewer than 6 rigid motions")
    # residual of the trivial motions themselves (should be exactly flat);
    # the rows of mat are unit edge directions
    triv_resid = float(np.abs(mat @ qt).max(initial=0.0))

    if kernel_dim == 6:
        # the six rigid motions already fill the kernel: no basis to report
        extra = 0
        basis = np.zeros((dense.shape[1], 0))
    else:
        kernel = np.linalg.svd(dense)[2][rank:].T  # (3V, kernel_dim), orthonormal
        proj = kernel - qt @ (qt.T @ kernel)
        if proj.size:
            u2, s2, _ = np.linalg.svd(proj, full_matrices=False)
            extra = int(np.sum(s2 > 1e-8))
            basis = u2[:, :extra]
        else:
            extra = 0
            basis = np.zeros((dense.shape[1], 0))
    nontrivial = kernel_dim - 6
    if nontrivial != extra:
        warnings.warn(
            f"kernel minus trivial gives {nontrivial}, projection gives {extra}",
            stacklevel=2,
        )
    tail = svals[-12:] if len(svals) >= 12 else svals
    return BendingReport(
        kernel_dim=kernel_dim,
        nontrivial_dim=nontrivial,
        basis=basis,
        spectrum_tail=tail,
        trivial_residual=triv_resid,
    )


# ---------------------------------------------------------------------------
# the flex equation on grid patches


@dataclasses.dataclass
class GridPatch:
    """Rectangular grid carrying a base graph z and a flex component zeta."""

    h: float
    z: np.ndarray      # (ny, nx); axis 0 is y, axis 1 is x
    zeta: np.ndarray   # same shape

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=float)
        self.zeta = np.asarray(self.zeta, dtype=float)
        if self.z.shape != self.zeta.shape:
            raise ValueError("z and zeta must share a shape")
        if min(self.z.shape) < 3:
            raise ValueError("need at least 3 nodes per axis")


def _second_diffs(a, h):
    """Central (f_xx, f_yy, f_xy) at interior nodes of a grid array."""
    fxx = (a[1:-1, 2:] - 2 * a[1:-1, 1:-1] + a[1:-1, :-2]) / h**2
    fyy = (a[2:, 1:-1] - 2 * a[1:-1, 1:-1] + a[:-2, 1:-1]) / h**2
    fxy = (a[2:, 2:] - a[2:, :-2] - a[:-2, 2:] + a[:-2, :-2]) / (4 * h**2)
    return fxx, fyy, fxy


def defo_residual(patch: GridPatch):
    """Max-norm residual of z_xx zeta_yy - 2 z_xy zeta_xy + z_yy zeta_xx."""
    zxx, zyy, zxy = _second_diffs(patch.z, patch.h)
    wxx, wyy, wxy = _second_diffs(patch.zeta, patch.h)
    return float(np.abs(zxx * wyy - 2 * zxy * wxy + zyy * wxx).max())


def _check_convex(zxx, zyy, zxy, tol=1e-12):
    det = zxx * zyy - zxy**2
    bad = np.nonzero((zxx <= tol) | (det <= tol))
    return list(zip(*[b.tolist() for b in bad]))


def solve_defo(z, h, zeta_boundary):
    """Dirichlet solve of the flex equation over a strictly convex base grid.

    ``zeta_boundary`` supplies the full grid array; only its outer ring is
    read.  The discrete coefficient matrix at each interior node is the
    adjugate of the Hessian of z, positive definite where z is strictly
    convex, so the linear system is elliptic.  Raises NotStrictlyConvex with
    the failing (row, col) nodes otherwise.
    """
    z = np.asarray(z, dtype=float)
    zb = np.asarray(zeta_boundary, dtype=float)
    ny, nx = z.shape
    zxx, zyy, zxy = _second_diffs(z, h)
    bad = _check_convex(zxx, zyy, zxy)
    if bad:
        raise NotStrictlyConvex(
            f"discrete Hessian fails positivity at {len(bad)} nodes",
            nodes=[(r + 1, c + 1) for r, c in bad],
        )

    mat, rhs = _flex_system(zxx, zyy, zxy, zb)
    zeta = zb.copy()
    zeta[1:-1, 1:-1] = spsolve(mat, rhs).reshape(ny - 2, nx - 2)
    return GridPatch(h=h, z=z, zeta=zeta)


def _flex_system(zxx, zyy, zxy, zb):
    """Sparse matrix and right-hand side of the flex equation at interior
    nodes, times h^2, with the Dirichlet ring of ``zb`` moved to the right.

    zeta_xx ~ E - 2C + W, zeta_yy ~ N - 2C + S and
    zeta_xy ~ (NE - NW - SE + SW) / 4, each weighted by the node's own
    coefficient; one COO block per stencil offset.
    """
    ny, nx = zb.shape
    nun = (ny - 2) * (nx - 2)
    index = np.full((ny, nx), -1)
    index[1:-1, 1:-1] = np.arange(nun).reshape(ny - 2, nx - 2)
    a, b, g = zyy, zxx, zxy  # multiply zeta_xx, zeta_yy, zeta_xy
    rows, cols, vals = [], [], []
    rhs = np.zeros_like(a)
    for dr, dc, coef in (
        (0, 0, -2.0 * a - 2.0 * b),
        (0, 1, a), (0, -1, a), (1, 0, b), (-1, 0, b),
        (1, 1, -0.5 * g), (-1, -1, -0.5 * g), (1, -1, 0.5 * g), (-1, 1, 0.5 * g),
    ):
        near = (slice(1 + dr, ny - 1 + dr), slice(1 + dc, nx - 1 + dc))
        col = index[near]
        inside = col >= 0
        rows.append(index[1:-1, 1:-1][inside])
        cols.append(col[inside])
        vals.append(coef[inside])
        rhs -= np.where(inside, 0.0, coef * zb[near])
    mat = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nun, nun),
    )
    mat.eliminate_zeros()
    return mat, rhs.ravel()


@dataclasses.dataclass
class LemmaReport:
    ok: bool
    max_det: float
    violations: list       # (row, col, det) beyond tolerance
    defo_residual: float

    def as_dict(self):
        return {
            "ok": self.ok,
            "max_det": float(self.max_det),
            "violations": [(int(r), int(c), float(d)) for r, c, d in self.violations],
            "defo_residual": float(self.defo_residual),
        }


def main_lemma_check(patch: GridPatch, tol=1e-8, residual_gate=1e-6):
    """Audit: det Hess zeta <= tol wherever Hess z is positive definite.

    Algebraically, Hess z > 0 together with a vanishing flex pairing forces
    det Hess zeta <= 0; the discrete check inherits the solver residual, so a
    PrecisionWarning is issued when that residual is too large for ``tol`` to
    be meaningful.
    """
    resid = defo_residual(patch)
    scale = max(float(np.abs(patch.z).max()), 1.0)
    if resid > residual_gate * scale:
        warnings.warn(
            f"flex residual {resid} too large for a {tol} determinant check",
            PrecisionWarning,
            stacklevel=2,
        )
    zxx, zyy, zxy = _second_diffs(patch.z, patch.h)
    wxx, wyy, wxy = _second_diffs(patch.zeta, patch.h)
    det = wxx * wyy - wxy**2
    convex = (zxx > 0) & (zxx * zyy - zxy**2 > 0)
    det_on = np.where(convex, det, -np.inf)
    viol = np.nonzero(det_on > tol)
    violations = [
        (int(r) + 1, int(c) + 1, float(det_on[r, c]))
        for r, c in zip(*viol)
    ]
    max_det = float(det_on.max()) if convex.any() else float("-inf")
    return LemmaReport(
        ok=not violations,
        max_det=max_det,
        violations=violations,
        defo_residual=resid,
    )
