"""The benchmark's workloads as lists of CLI calls with their checks.

A workload is built from a seed into a list of ``Op``: the argv of one CLI
call, its tier (``small`` or ``large``), the exit code it must return and
the independent check of its report.  The problem files are written into
the workload's work directory here, before anything is timed.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

import checks
import inputs


@dataclasses.dataclass
class Op:
    name: str
    tier: str                 # "small" or "large"
    argv: list
    check: object             # callable(metrics, exit_code, side_file)
    expect: int = 0
    side_file: str | None = None   # file the call writes besides its report


def _write_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def _ma_op(rng, work, name, tier, n_side, extent, weight=None, tol=None,
           value_tol=1e-7, mass_tol=1e-8):
    problem, v_gen = inputs.ma_instance(rng, n_side, extent, weight)
    path = work / f"{name}.json"
    _write_json(path, problem)
    argv = ["ma", "solve", str(path)] + (["--tol", tol] if tol else [])

    def check(metrics, code, side):
        checks.check_ma(metrics, problem, v_gen, weight, value_tol, mass_tol)

    return Op(name, tier, argv, check)


def ma(rng, work):
    """Unweighted grids of 25 and 81 nodes; weighted grids of 4 and 16 nodes,
    Gaussian on the Newton path and z-dependent on the sweeps."""
    newton = dict(weight="gauss", tol="1e-8", value_tol=1e-6, mass_tol=1e-6)
    sweep = dict(weight="gauss_z", tol="1e-5", value_tol=1e-4, mass_tol=1e-4)
    return [
        *[_ma_op(rng, work, f"grid25-{k}", "small", 6, 6.0) for k in range(4)],
        *[_ma_op(rng, work, f"grid81-{k}", "large", 10, 6.0) for k in range(2)],
        _ma_op(rng, work, "gauss4-0", "small", 3, 3.0, **newton),
        _ma_op(rng, work, "gauss4-1", "small", 3, 3.0, **newton),
        # any perturbation moves the sweeps' brentq iterations, and so this
        # call's work, by up to 8 %: the sweep instance is the same for all seeds
        _ma_op(None, work, "gauss-z4", "small", 3, 3.0, **sweep),
        _ma_op(rng, work, "gauss16-0", "large", 5, 3.0, **newton),
        _ma_op(rng, work, "gauss16-1", "large", 5, 3.0, **newton),
    ]


def _minkowski_op(rng, work, name, tier, n_points):
    pts = inputs.sphere_points(rng, n_points)
    normals, areas, supports = checks.minkowski_data(pts)
    path = work / f"{name}.json"
    _write_json(path, {"kind": "minkowski-problem",
                       "normals": normals.tolist(), "areas": areas.tolist()})

    def check(metrics, code, side):
        checks.check_minkowski(side, normals, areas, supports)

    return Op(name, tier, ["minkowski", "solve", str(path)], check,
              side_file=f"{path}.solution.off")


def _rigidity_op(rng, work, name, tier, n_points):
    pts = inputs.sphere_points(rng, n_points)
    path = work / f"{name}.off"
    inputs.write_off(path, pts, checks.hull_faces(pts))

    def check(metrics, code, side):
        checks.check_rigidity(metrics, code, flexible=False)

    return Op(name, tier, ["rigidity", "analyze", str(path)], check)


def _cube_with_centres_op(work):
    corners = np.array([[x, y, z] for x in (-0.5, 0.5) for y in (-0.5, 0.5)
                        for z in (-0.5, 0.5)])
    verts, tris = [*corners], []
    for axis in range(3):
        for side in (-0.5, 0.5):
            ring = [i for i, c in enumerate(corners) if c[axis] == side]
            centre = corners[ring].mean(axis=0)
            # order the four corners around the face centre
            u, w = [k for k in range(3) if k != axis]
            ring.sort(key=lambda i: math.atan2(corners[i][w] - centre[w],
                                               corners[i][u] - centre[u]))
            verts.append(centre)
            c = len(verts) - 1
            tris += [(c, ring[k], ring[(k + 1) % 4]) for k in range(4)]
    path = work / "cube-centres.off"
    inputs.write_off(path, np.array(verts), tris)

    def check(metrics, code, side):
        checks.check_rigidity(metrics, code, flexible=True)

    return Op("cube-centres", "small", ["rigidity", "analyze", str(path)],
              check, expect=1)


def _defo_op(rng, work, name, tier, n):
    problem, exact, h = inputs.flex_instance(rng, n)
    path = work / f"{name}.json"
    _write_json(path, problem)

    def check(metrics, code, side):
        checks.check_defo(metrics, exact, h)

    return Op(name, tier, ["rigidity", "defo", "solve", str(path)], check)


def _geodesic_ops(rng, work, name, tier, n_points, queries, chord=0.8):
    """Queries between vertices about ``chord`` apart on a random hull.

    Far-apart vertices on large hulls need more than the 32 faces that
    ``net geodesic`` lets a path cross, so pairs keep a moderate distance.
    """
    pts = inputs.sphere_points(rng, n_points)
    faces = checks.hull_faces(pts)
    path = work / f"{name}.off"
    inputs.write_off(path, pts, faces)
    ops = []
    for k in range(queries):
        src = int(rng.integers(n_points))
        dst = int(np.argmin(np.abs(np.linalg.norm(pts - pts[src], axis=1) - chord)))

        def check(metrics, code, side, src=src, dst=dst):
            checks.check_geodesic(metrics, pts, faces, src, dst)

        ops.append(Op(f"{name}-q{k}", tier,
                      ["net", "geodesic", str(path), "--src", f"v{src}",
                       "--dst", f"v{dst}"], check))
    return ops


def _cube_geodesic_op(work):
    corners = np.array([[x, y, z] for x in (-0.5, 0.5) for y in (-0.5, 0.5)
                        for z in (-0.5, 0.5)])
    faces = checks.hull_faces(corners)
    path = work / "cube.off"
    inputs.write_off(path, corners, faces)

    def check(metrics, code, side):
        checks.check_geodesic(metrics, corners, faces, 0, 7, exact=math.sqrt(5.0))

    return Op("cube-geodesic", "small",
              ["net", "geodesic", str(path), "--src", "v0", "--dst", "v7"], check)


def polytope(rng, work):
    """Minkowski, rigidity, flex and geodesic calls from 100 to 796 faces."""
    return [
        _minkowski_op(rng, work, "minkowski100-0", "small", 52),
        _minkowski_op(rng, work, "minkowski100-1", "small", 52),
        _minkowski_op(rng, work, "minkowski100-2", "small", 52),
        _minkowski_op(rng, work, "minkowski100-3", "small", 52),
        _minkowski_op(rng, work, "minkowski100-4", "small", 52),
        _rigidity_op(rng, work, "rigidity196-0", "small", 100),
        _rigidity_op(rng, work, "rigidity196-1", "small", 100),
        _defo_op(rng, work, "defo33", "small", 33),
        _defo_op(rng, work, "defo65", "small", 65),
        *_geodesic_ops(rng, work, "geodesic100", "small", 52, 4),
        _cube_geodesic_op(work),
        _cube_with_centres_op(work),
        _minkowski_op(rng, work, "minkowski396", "large", 200),
        _rigidity_op(rng, work, "rigidity796", "large", 400),
        _defo_op(rng, work, "defo129", "large", 129),
        *_geodesic_ops(rng, work, "geodesic396", "large", 200, 2),
    ]


WORKLOADS = {"ma": ma, "polytope": polytope}
