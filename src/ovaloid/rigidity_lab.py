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
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, LinearOperator, bicgstab, eigsh, onenormest, splu

from . import core, newton
from .errors import (DegenerateGeometry, MalformedGrid, MalformedSurface, NotStrictlyConvex,
                     OpenSurface, PrecisionWarning)


@dataclasses.dataclass(frozen=True)
class TriangulatedSurface:
    vertices: np.ndarray   # (V, 3)
    triangles: np.ndarray  # (T, 3) int
    with_boundary: bool = False

    def __post_init__(self):
        object.__setattr__(self, "vertices", np.asarray(self.vertices, dtype=float))
        object.__setattr__(self, "triangles", np.asarray(self.triangles, dtype=int))

    @cached_property
    def _edge_sides(self):
        """``core.undirected_edges(self.triangles)``, counted once per surface."""
        return core.undirected_edges(self.triangles)

    def edges(self):
        """Sorted vertex-index pairs of all edges, as an (E, 2) array."""
        return self._edge_sides[0]

    def validate(self):
        t, v = self.triangles, self.vertices
        if v.ndim != 2 or v.shape[1] != 3:
            raise MalformedSurface("vertices must be rows of 3 coordinates")
        if t.ndim != 2 or t.shape[1] != 3:
            raise MalformedSurface("triangles must be rows of 3 vertex indices")
        if t.size and (t.min() < 0 or t.max() >= len(v)):
            raise MalformedSurface("triangle vertex index out of range")
        bad = int((self._edge_sides[1] != 2).sum())
        if bad and not self.with_boundary:
            raise OpenSurface(f"{bad} edges do not border exactly 2 faces")
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


# Below this many columns (3V) the dense SVD is as fast as the sparse path.
# With one BLAS thread the two cross between V = 80 and 100 on random convex
# spheres and between V = 100 and 120 on near-uniform ones, whose clustered
# smallest singular values take ARPACK twice the iterations.  This also
# keeps ARPACK away from tiny systems (k = 6 needs E > 12).
SPARSE_MIN_COLUMNS = 330

# Condition number of the square block P above which _rigid_spectrum_tail
# leaves the decision to the dense SVD.  The LU solves are backward stable,
# so the six singular values stay within about eps * sigma_max of the dense
# ones while eps * cond(P) is small; at a nearly flat vertex the error first
# reaches the 1e-13 * sigma_max accuracy asked of spectrum_tail near
# cond(P) = 1e13, six orders above this bound.  At the bound sigma_min is
# still about 1e-7 * sigma_max, where the dense SVD that takes over still
# tells its singular vector from the rigid motions.
MAX_BLOCK_COND = 1e7


def _rigid_spectrum_tail(mat, q, tol):
    """The 12 smallest singular values of the E x 3V constraint matrix of a
    closed sphere (E = 3V - 6) that is rigid, six of them the zeros of the
    rigid motions; None where this cannot be certified without a dense SVD.

    Pinning the six columns where the orthonormal rigid motions ``q`` are
    best conditioned (a column-pivoted QR of q^T) leaves a square block P,
    and the minimum-norm solution of M x = b is M^+ b = (I - qq^T)[P^-1 b; 0].
    The six largest eigenvalues of (M^+)^T M^+, applied through one sparse LU
    of P, are 1/sigma^2 for the six smallest nonzero singular values of M.
    The surface is rigid when the least of them exceeds ``tol`` times
    sqrt(|M|_1 |M|_inf) >= sigma_max, so a surface called rigid here is
    rigid by the dense rank test too.
    """
    n_edges, n = mat.shape
    if n_edges != n - 6 or n < SPARSE_MIN_COLUMNS:
        return None
    _, pivots = scipy.linalg.qr(q.T, mode="r", pivoting=True)
    free = np.sort(pivots[6:])
    block = mat.tocsc()[:, free]
    try:
        lu = splu(block)
    except RuntimeError:  # exactly singular
        return None
    inverse = LinearOperator(block.shape, matvec=lu.solve, dtype=float,
                             rmatvec=lambda y: lu.solve(y, trans="T"))
    if onenormest(inverse, t=1) * abs(block).sum(axis=0).max() > MAX_BLOCK_COND:
        return None

    q_free = np.ascontiguousarray(q[free])

    def gram_inverse(y):
        # [P^-1 y; 0] is zero on the pinned columns, so (I - qq^T) acts on
        # the free ones through q's free rows alone
        u = lu.solve(y)
        return lu.solve(u - q_free @ (q_free.T @ u), trans="T")

    # tol=0 (machine precision) is needed, not only safe: a looser tol lets
    # ARPACK stop before it has found every copy of a multiple eigenvalue.
    # On geodesic_sphere(2), whose singular values come in fives, tol=1e-8
    # misses copies and the tail is off by 11 %.
    try:
        lam = eigsh(LinearOperator((n_edges, n_edges), matvec=gram_inverse, dtype=float),
                    k=6, tol=0, return_eigenvectors=False,  # a fixed start: same report
                    v0=np.random.default_rng(0).standard_normal(n_edges))
    except ArpackError:
        return None
    svals = np.sort(1.0 / np.sqrt(lam))[::-1]
    absmat = abs(mat)
    if not svals[-1] > tol * np.sqrt(absmat.sum(axis=0).max() * absmat.sum(axis=1).max()):
        return None
    return np.concatenate([svals, np.zeros(6)])


def bending_space(surface: TriangulatedSurface, tol=1e-10):
    """Kernel of the constraint system split into trivial and extra flexes.

    Singular values below tol * sigma_max count as zero; the span of the six
    rigid motions is projected out of the kernel and whatever remains is the
    nontrivial flex space (empty exactly when the surface is rigid).  A rigid
    closed sphere is decided by ``_rigid_spectrum_tail``; every other surface
    takes the dense SVD.
    """
    surface.validate()
    mat = isometry_constraints(surface)
    triv = trivial_motion_basis(surface.vertices)
    qt, rt = np.linalg.qr(triv)
    if np.abs(np.diag(rt)).min() < 1e-12 * np.abs(np.diag(rt)).max():
        raise DegenerateGeometry("vertex set spans fewer than 6 rigid motions")
    # residual of the trivial motions themselves (should be exactly flat);
    # the rows of mat are unit edge directions
    triv_resid = float(np.abs(mat @ qt).max(initial=0.0))
    tail = _rigid_spectrum_tail(mat, qt, tol)
    if tail is not None:
        return BendingReport(kernel_dim=6, nontrivial_dim=0,
                             basis=np.zeros((mat.shape[1], 0)),
                             spectrum_tail=tail, trivial_residual=triv_resid)

    dense = mat.toarray()
    svals = np.linalg.svd(dense, compute_uv=False)
    smax = svals[0] if len(svals) else 1.0
    rank = int(np.sum(svals > tol * smax))
    kernel_dim = dense.shape[1] - rank
    # pad with the structural zeros svd omits when E < 3V
    svals = np.concatenate([svals, np.zeros(dense.shape[1] - len(svals))])

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


@dataclasses.dataclass(frozen=True)
class GridPatch:
    """Rectangular grid carrying a base graph z and a flex component zeta.

    Frozen; building it is the one check of a grid, and it keeps the
    second differences it takes, which every flex computation reads."""

    h: float
    z: np.ndarray      # (ny, nx); axis 0 is y, axis 1 is x
    zeta: np.ndarray   # same shape
    z_diffs: tuple = dataclasses.field(init=False, repr=False, compare=False)
    zeta_diffs: tuple = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "h", float(self.h))
        object.__setattr__(self, "z", np.asarray(self.z, dtype=float))
        object.__setattr__(self, "zeta", np.asarray(self.zeta, dtype=float))
        if self.z.shape != self.zeta.shape:
            raise MalformedGrid("z and zeta must share a shape")
        if self.z.ndim != 2 or min(self.z.shape) < 3:
            raise MalformedGrid("need a 2-D grid with at least 3 nodes per axis")
        if not (np.isfinite(self.z).all() and np.isfinite(self.zeta).all()):
            raise MalformedGrid("need finite z and zeta")
        # h^2 must be a normal float: a subnormal or zero one divides the
        # second differences into inf or NaN, an infinite one into zeros
        if not (self.h > 0 and np.finfo(float).tiny <= self.h * self.h < np.inf):
            raise MalformedGrid(f"spacing h = {self.h} has no finite normal square")
        with np.errstate(over="ignore", invalid="ignore"):
            object.__setattr__(self, "z_diffs", _second_diffs(self.z, self.h))
            object.__setattr__(self, "zeta_diffs", _second_diffs(self.zeta, self.h))
        # the Hessian determinants and the flex residual add products of two
        # second differences; NaN fails the comparison too
        diffs = self.z_diffs + self.zeta_diffs
        if not 2 * np.max([np.abs(d).max() for d in diffs]) < np.sqrt(np.finfo(float).max):
            raise MalformedGrid("second differences of z or zeta too large to multiply "
                                f"at h = {self.h}")


def _second_diffs(a, h):
    """Central (f_xx, f_yy, f_xy) at interior nodes of a grid array."""
    fxx = (a[1:-1, 2:] - 2 * a[1:-1, 1:-1] + a[1:-1, :-2]) / h**2
    fyy = (a[2:, 1:-1] - 2 * a[1:-1, 1:-1] + a[:-2, 1:-1]) / h**2
    fxy = (a[2:, 2:] - a[2:, :-2] - a[:-2, 2:] + a[:-2, :-2]) / (4 * h**2)
    return fxx, fyy, fxy


def defo_residual(patch: GridPatch):
    """Max-norm residual of z_xx zeta_yy - 2 z_xy zeta_xy + z_yy zeta_xx."""
    zxx, zyy, zxy = patch.z_diffs
    wxx, wyy, wxy = patch.zeta_diffs
    return float(np.abs(zxx * wyy - 2 * zxy * wxy + zyy * wxx).max())


def _check_convex(zxx, zyy, zxy, tol=1e-12):
    det = zxx * zyy - zxy**2
    bad = np.nonzero((zxx <= tol) | (det <= tol))
    return list(zip(*[b.tolist() for b in bad]))


# Anisotropy q = max (eigenvalue gap / trace) of the Hessian of z up to which
# solve_defo solves by BiCGSTAB instead of one SuperLU factor.  Its steps
# depend on q, not on the grid: 1 at q = 0, 8-9 at 0.3, 12-14 at 0.5, 19-24
# at 0.7 and 24-29 at 0.82 on 31^2 and 127^2 interior nodes, and 8 at
# q = 0.3 on 255^2 and 383^2.  With one BLAS thread it ties the LU near
# q = 0.7 on 127^2 nodes and is 2-5 times faster at q <= 0.3 from 127^2 up;
# on 31^2 nodes the LU is faster by about 1 ms from q = 0.3 on.
KRYLOV_MAX_ANISOTROPY = 0.7


def solve_defo(patch: GridPatch):
    """Dirichlet solve of the flex equation over a strictly convex base grid.

    Returns a new patch with the solved interior inside the outer ring of
    ``patch.zeta``; the rest of ``patch.zeta`` is not read, and ``patch`` is
    left as it is.  The discrete coefficient matrix at each interior node
    is the adjugate of the Hessian of z, positive definite where z is
    strictly convex, so the linear system is elliptic.  Raises
    NotStrictlyConvex with the failing (row, col) nodes otherwise, and
    MalformedGrid where the answer fails the checks of ``GridPatch``.

    Divided by z_xx + z_yy, the operator is half the 5-point Laplacian plus
    a term at most q times as large, q < 1 the anisotropy of the Hessian.
    Where q <= KRYLOV_MAX_ANISOTROPY, BiCGSTAB preconditioned by the exact
    inverse of that half Laplacian (``_half_laplacian_solver``) converges in
    a number of steps set by q alone.  More anisotropic grids, and a Krylov
    solve that fails, take one SuperLU factor (``newton.sparse_solve``).
    """
    zxx, zyy, zxy = patch.z_diffs
    bad = _check_convex(zxx, zyy, zxy)
    if bad:
        raise NotStrictlyConvex(
            f"discrete Hessian fails positivity at {len(bad)} nodes",
            nodes=[(r + 1, c + 1) for r, c in bad],
        )

    mat, rhs = _flex_system(zxx, zyy, zxy, patch.zeta)
    trace = zxx + zyy
    x = None
    if (np.hypot(zxx - zyy, 2 * zxy) / trace).max() <= KRYLOV_MAX_ANISOTROPY:
        x = _krylov_solve(mat, rhs, trace)
    if x is None:
        x = newton.sparse_solve(mat, rhs)
    zeta = patch.zeta.copy()
    zeta[1:-1, 1:-1] = x.reshape(trace.shape)
    return GridPatch(h=patch.h, z=patch.z, zeta=zeta)


def _krylov_solve(mat, rhs, trace):
    """BiCGSTAB answer of the flex system ``mat`` x = ``rhs``, or None when
    it does not converge to 1e-14 of |rhs| or is not finite.

    Both sides are divided row by row by ``trace`` in place (mat on its CSC
    data), which leaves the answer of the system unchanged.
    """
    scale = 1.0 / trace.ravel()
    mat.data *= scale[mat.indices]
    rhs *= scale
    precond = LinearOperator(mat.shape, matvec=_half_laplacian_solver(*trace.shape),
                             dtype=float)
    # a q <= 0.7 solve takes at most about 25 steps; more means it stagnates
    x, info = bicgstab(mat, rhs, rtol=1e-14, atol=0.0, maxiter=100, M=precond)
    return x if info == 0 and np.isfinite(x).all() else None


def _half_laplacian_solver(my, mx):
    """u -> the solution of (E + W + N + S - 4C) v / 2 = u on an my x mx
    grid with zero Dirichlet ring, u and v flat in row-major order.

    The sine modes sin(pi k i / (my + 1)) sin(pi l j / (mx + 1)) diagonalise
    the operator with eigenvalues -2 (sin^2(pi k / 2(my + 1)) +
    sin^2(pi l / 2(mx + 1))); a DST-I along each axis maps to them and back.
    """
    sy = np.sin(0.5 * np.pi * np.arange(1, my + 1) / (my + 1)) ** 2
    sx = np.sin(0.5 * np.pi * np.arange(1, mx + 1) / (mx + 1)) ** 2
    # the DST-I applied twice is (m + 1) / 2 times the identity on each
    # axis, and each of the four _dst1 calls gives -2 times a DST-I
    weight = 4.0 / ((my + 1) * (mx + 1)) / (-2.0 * (sy[:, None] + sx)) / 16.0

    def solve(u):
        return _dst1(_dst1(_dst1(_dst1(u.reshape(my, mx))) * weight)).ravel()

    return solve


def _dst1(a):
    """-2 sum_n a[:, n] sin(pi (k + 1)(n + 1) / (m + 1)) for k < m, -2 times
    the DST-I along the last axis of an (r, m) array, returned as its (m, r)
    transpose: two calls transform both axes of a grid array and restore
    its layout.

    That is the imaginary part of the FFT of the odd extension
    (0, a, 0, -reversed a), of length 2(m + 1).
    """
    rows, m = a.shape
    ext = np.zeros((rows, 2 * m + 2))
    ext[:, 1:m + 1] = a
    ext[:, m + 2:] = -a[:, ::-1]
    return np.fft.rfft(ext)[:, 1:m + 1].imag.T


def _flex_system(zxx, zyy, zxy, zb):
    """Sparse CSC matrix and right-hand side of the flex equation at
    interior nodes, times h^2, with the Dirichlet ring of ``zb`` moved to
    the right.

    zeta_xx ~ E - 2C + W, zeta_yy ~ N - 2C + S and
    zeta_xy ~ (NE - NW - SE + SW) / 4, each weighted by the node's own
    coefficient.  Column j holds, for each of the nine stencil offsets d,
    the coefficient of offset d at the node j - d, in ascending row order;
    a coefficient read off the grid (zero-padded on the ring) or equal to 0
    is left out.
    """
    ny, nx = zb.shape
    nun = (ny - 2) * (nx - 2)
    a, b, g = zyy, zxx, zxy  # multiply zeta_xx, zeta_yy, zeta_xy
    stencil = (
        (0, 0, -2.0 * a - 2.0 * b),
        (0, 1, a), (0, -1, a), (1, 0, b), (-1, 0, b),
        (1, 1, -0.5 * g), (-1, -1, -0.5 * g), (1, -1, 0.5 * g), (-1, 1, 0.5 * g),
    )
    rhs = np.zeros_like(a)
    inside = np.zeros((ny, nx), dtype=bool)
    inside[1:-1, 1:-1] = True
    for dr, dc, coef in stencil[1:]:  # the centre is never on the ring
        near = (slice(1 + dr, ny - 1 + dr), slice(1 + dc, nx - 1 + dc))
        rhs -= np.where(inside[near], 0.0, coef * zb[near])
    padded = np.zeros((ny, nx))
    vals = np.empty((nun, 9))
    shift = np.empty(9, dtype=np.int32)
    for k, (dr, dc, coef) in enumerate(sorted(stencil, key=lambda s: s[:2], reverse=True)):
        padded[1:-1, 1:-1] = coef
        vals[:, k] = padded[1 - dr:ny - 1 - dr, 1 - dc:nx - 1 - dc].ravel()
        shift[k] = dr * (nx - 2) + dc
    keep = vals != 0
    indptr = np.zeros(nun + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    rows = (np.arange(nun, dtype=np.int32)[:, None] - shift)[keep]
    return sp.csc_matrix((vals[keep], rows, indptr), shape=(nun, nun)), rhs.ravel()


@dataclasses.dataclass
class LemmaReport:
    ok: bool
    max_det: float
    violations: list       # (row, col, det) beyond tolerance
    defo_residual: float
    residual_gate_exceeded: bool  # defo_residual above the scaled RESIDUAL_GATE

    def as_dict(self):
        return {
            "ok": self.ok,
            "max_det": float(self.max_det),
            "violations": [(int(r), int(c), float(d)) for r, c, d in self.violations],
            "defo_residual": float(self.defo_residual),
            "residual_gate_exceeded": self.residual_gate_exceeded,
        }


# flex residual over max(max|z|, 1) above which main_lemma_check warns
RESIDUAL_GATE = 1e-6


def main_lemma_check(patch: GridPatch, tol=1e-8):
    """Audit: det Hess zeta <= tol wherever Hess z is positive definite.

    Algebraically, Hess z > 0 together with a vanishing flex pairing forces
    det Hess zeta <= 0; the discrete check inherits the solver residual, so
    when that residual exceeds RESIDUAL_GATE times max(max|z|, 1), too large
    for ``tol`` to be meaningful, the report says so in
    ``residual_gate_exceeded`` and a PrecisionWarning is issued.  The
    second differences are the ones the patch keeps.
    """
    resid = defo_residual(patch)
    gate_exceeded = resid > RESIDUAL_GATE * max(float(np.abs(patch.z).max()), 1.0)
    if gate_exceeded:
        warnings.warn(
            f"flex residual {resid} too large for a {tol} determinant check",
            PrecisionWarning,
            stacklevel=2,
        )
    zxx, zyy, zxy = patch.z_diffs
    wxx, wyy, wxy = patch.zeta_diffs
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
        residual_gate_exceeded=gate_exceeded,
    )
