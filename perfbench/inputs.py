"""Problem instances for the benchmark workloads, made from a seed.

Every generator draws from a ``numpy.random.Generator`` and returns the
problem data together with what its independent check needs (the generating
values, the source hull, the exact flex field).  Nothing here calls into
``ovaloid``: targets come from ``checks``, which is written apart from the
package.
"""

from __future__ import annotations

import math

import numpy as np

from checks import cell_masses, face_vectors, hull_faces

# weight expressions in the CLI's theta syntax, keyed as ``checks`` names them
THETA = {
    "gauss": "exp(-(p1**2+p2**2))",
    "gauss_z": "exp(-0.3*z)*exp(-(p1**2+p2**2))",
}


# largest interior perturbation of the generating values, in units of h^2
PERTURBATION = 0.02


def uniform_grid(n_side, extent):
    """Interior and boundary nodes of a uniform grid on [0, extent]^2."""
    coords = np.linspace(0.0, extent, n_side + 1)
    xx, yy = np.meshgrid(coords, coords)
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    on_b = (np.isin(pts[:, 0], (0.0, extent)) | np.isin(pts[:, 1], (0.0, extent)))
    domain = np.array([[0, 0], [extent, 0], [extent, extent], [0, extent]], float)
    return pts[~on_b], pts[on_b], domain


def convex_grid_values(rng, interior, boundary, extent, h, ax, ay):
    """A fixed convex quadratic plus a random h^2-scaled interior perturbation
    (none when ``rng`` is None).

    The seed draws only the perturbation, so instances differ while the
    solver's path, and so its work, hardly does.  The perturbation moves
    every second difference by at most 0.08 h^2, below the quadratic's
    smallest one (2 min(ax, ay) h^2 >= 0.3 h^2), so every interior node
    stays a vertex of the lower hull and its cell keeps a mass of order h^2
    at every grid size.
    """
    c = 0.5 * extent

    def base(p):
        return ax * (p[:, 0] - c) ** 2 + ay * (p[:, 1] - c) ** 2

    v_int = base(interior)
    if rng is not None:
        v_int += rng.uniform(-1.0, 1.0, len(interior)) * PERTURBATION * h * h
    return v_int, base(boundary)


def ma_instance(rng, n_side, extent, weight=None):
    """An ``ma-problem`` whose targets are the masses of known values.

    ``weight`` is None (unweighted), "gauss" or "gauss_z".  Returns
    (problem JSON dict, generating interior values).
    """
    interior, boundary, domain = uniform_grid(n_side, extent)
    # weighted cells must stay where exp(-|p|^2) is not negligible
    ax, ay = (0.3, 0.4) if weight is None else (0.175, 0.15)
    v_int, v_bnd = convex_grid_values(rng, interior, boundary, extent,
                                      extent / n_side, ax, ay)
    if weight is not None:
        # zero boundary data, as in the package's weighted tests: the solver
        # starts from the flat lift, where every cell is the point p = 0.
        # Curved boundary data would start it on the lower envelope of the
        # boundary, where some cells are zero-area segments that the
        # adaptive quadrature never finishes (see the README).
        v_int, v_bnd = v_int - v_bnd.max(), np.zeros_like(v_bnd)
    nodes = np.vstack([interior, boundary])
    masses = cell_masses(nodes, np.concatenate([v_int, v_bnd]), len(interior),
                         weight)
    data = {
        "kind": "ma-problem",
        "domain": domain.tolist(),
        "nodes": interior.tolist(),
        "masses": masses.tolist(),
        "boundary": np.column_stack([boundary, v_bnd]).tolist(),
    }
    if weight is not None:
        data["theta"] = THETA[weight]
        data["theta_z_dependent"] = weight == "gauss_z"
        if weight == "gauss":
            data["mass_bound"] = math.pi
    return data, v_int


def sphere_points(rng, n):
    """n near-uniform points on the unit sphere: a Fibonacci lattice turned
    by a random rotation, each point moved at random by up to a tenth of
    the lattice spacing.  Hulls of every seed then have about the same
    shape, so the work per call hardly depends on the seed.

    The points are drawn again while two hull faces are within 1e-4 rad of
    coplanar: a lattice quad that the jitter leaves almost cocircular
    splits into two such faces, and ``minkowski solve`` rightly refuses
    normals that are not pairwise distinct.
    """
    k = np.arange(n) + 0.5
    polar = np.arccos(1.0 - 2.0 * k / n)
    azimuth = np.pi * (1.0 + math.sqrt(5.0)) * k
    lattice = np.column_stack([np.sin(polar) * np.cos(azimuth),
                               np.sin(polar) * np.sin(azimuth), np.cos(polar)])
    while True:
        rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        pts = lattice @ rot.T + (rng.uniform(-1.0, 1.0, (n, 3))
                                 * 0.1 * math.sqrt(4 * np.pi / n))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        vec = face_vectors(pts, hull_faces(pts))
        normals = vec / np.linalg.norm(vec, axis=1, keepdims=True)
        cos = normals @ normals.T
        np.fill_diagonal(cos, -1.0)
        if cos.max() < math.cos(1e-4):
            return pts


def flex_instance(rng, n):
    """A ``rigidity-problem`` grid with a known flex field.

    For z = (X^2 + Y^2)/2 + gamma X Y the field
    zeta = exp(X + gamma Y) cos(sqrt(1 - gamma^2) Y) solves the flex
    equation exactly; its values on the outer ring are the Dirichlet data.
    Returns (problem JSON dict, exact zeta on the grid, h).
    """
    gamma = float(rng.uniform(-0.3, 0.3))
    x0, y0 = rng.uniform(-0.5, 0.5, 2)
    xs = np.linspace(0.0, 1.0, n)
    X, Y = np.meshgrid(x0 + xs, y0 + xs)
    z = 0.5 * (X**2 + Y**2) + gamma * X * Y
    exact = np.exp(X + gamma * Y) * np.cos(math.sqrt(1.0 - gamma**2) * Y)
    ring = exact.copy()
    ring[1:-1, 1:-1] = 0.0
    h = float(xs[1] - xs[0])
    data = {"kind": "rigidity-problem",
            "grid": {"h": h, "z": z.tolist(), "zeta": ring.tolist()}}
    return data, exact, h


def write_off(path, vertices, faces):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"OFF\n{len(vertices)} {len(faces)} 0\n")
        for v in vertices:
            fh.write(" ".join(repr(float(c)) for c in v) + "\n")
        for f in faces:
            fh.write(" ".join([str(len(f))] + [str(int(i)) for i in f]) + "\n")
