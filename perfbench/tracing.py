"""Per-layer tracing of the ovaloid package without changing its files.

``Tracer.install`` replaces functions of the package (and the numpy/scipy
entry points it calls) by timing wrappers, in every module namespace that
binds them.  Calls made from inside the package look the names up in those
namespaces, so they go through the wrappers too.  For each wrapped name the
tracer keeps calls, total time and self time (total minus the time of
wrapped callees), aggregated per (name, parent), so memory stays bounded
however many calls are made.  A name or module that the package no longer
has is recorded as absent and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# (module, attribute, traced name); the traced name's prefix is its layer
TARGETS = [
    ("ovaloid.cli", "_emit", "cli._emit"),
    ("ovaloid.io", "parse_problem", "io.parse_problem"),
    ("ovaloid.io", "read_off", "io.read_off"),
    ("ovaloid.io", "_load_json", "io._load_json"),
    ("ovaloid.io", "read_net", "io.read_net"),
    ("ovaloid.io", "compile_theta", "io.compile_theta"),
    ("ovaloid.io", "canonical_json", "io.canonical_json"),
    ("ovaloid.io", "write_off", "io.write_off"),
    ("ovaloid.planar", "clip_halfplane", "planar.clip_halfplane"),
    ("ovaloid.planar", "convex_clip", "planar.convex_clip"),
    ("ovaloid.planar", "polygon_area", "planar.polygon_area"),
    ("ovaloid.planar", "polygon_quad", "planar.polygon_quad"),
    ("ovaloid.planar", "triangle_quad", "planar.triangle_quad"),
    ("ovaloid.planar", "triangulate_fan", "planar.triangulate_fan"),
    ("ovaloid.planar", "polygon_centroid", "planar.polygon_centroid"),
    ("ovaloid.ma_solver", "solve_ma", "ma.solve_ma"),
    ("ovaloid.ma_solver", "subgradient_cell_polygon", "ma.subgradient_cell_polygon"),
    ("ovaloid.ma_solver", "_masses", "ma._masses"),
    ("ovaloid.ma_solver", "_single_mass", "ma._single_mass"),
    ("ovaloid.ma_solver", "_mass_jacobian", "ma._mass_jacobian"),
    ("ovaloid.ma_solver", "_bracket_below", "ma._bracket_below"),
    ("ovaloid.ma_solver", "brentq", "ma.brentq"),
    ("ovaloid.ma_solver", "_theta_window", "ma._theta_window"),
    ("ovaloid.ma_solver", "_integrate_square", "ma._integrate_square"),
    ("ovaloid.ma_solver", "mass_balance_bound", "ma.mass_balance_bound"),
    ("ovaloid.core", "polytope_from_support", "core.polytope_from_support"),
    ("ovaloid.core", "polytope_from_mesh", "core.polytope_from_mesh"),
    ("ovaloid.core", "linprog", "core.linprog"),
    ("ovaloid.core", "HalfspaceIntersection", "core.HalfspaceIntersection"),
    ("ovaloid.core", "ConvexHull", "core.ConvexHull"),
    ("ovaloid.minkowski_solver", "solve_minkowski", "minkowski.solve_minkowski"),
    ("ovaloid.minkowski_solver", "area_jacobian", "minkowski.area_jacobian"),
    ("ovaloid.minkowski_solver", "_edge_lengths_by_face_pair",
     "minkowski._edge_lengths_by_face_pair"),
    ("ovaloid.rigidity_lab", "bending_space", "rigidity.bending_space"),
    ("ovaloid.rigidity_lab", "isometry_constraints", "rigidity.isometry_constraints"),
    ("ovaloid.rigidity_lab", "constraint_residual", "rigidity.constraint_residual"),
    ("ovaloid.rigidity_lab", "solve_defo", "rigidity.solve_defo"),
    ("ovaloid.rigidity_lab", "spsolve", "rigidity.spsolve"),
    ("ovaloid.rigidity_lab", "defo_residual", "rigidity.defo_residual"),
    ("ovaloid.intrinsic_metric", "net_from_polytope", "geodesic.net_from_polytope"),
    ("ovaloid.intrinsic_metric", "shortest_path", "geodesic.shortest_path"),
    ("ovaloid.intrinsic_metric", "_State", "geodesic._State"),
    ("numpy.linalg", "solve", "numpy.linalg.solve"),
    ("numpy.linalg", "lstsq", "numpy.linalg.lstsq"),
    ("numpy.linalg", "svd", "numpy.linalg.svd"),
    ("numpy.linalg", "qr", "numpy.linalg.qr"),
]

# per-layer metric -> (unit, what, traced names, layer of the caller or None)
# "calls" counts calls, "self" sums self time, "points" sums the size of the
# first argument (the weight's p1 array)
LAYER_METRICS = {
    "io.parse_s": ("s", "self", ("io.parse_problem", "io.read_off", "io._load_json",
                                 "io.read_net", "io.compile_theta"), None),
    "io.report_s": ("s", "self", ("cli._emit", "io.canonical_json", "io.write_off"),
                    None),
    "io.theta_calls": ("count", "calls", ("io.theta",), None),
    "io.theta_points": ("count", "points", ("io.theta",), None),
    "io.theta_s": ("s", "self", ("io.theta",), None),
    "planar.clip_calls": ("count", "calls", ("planar.clip_halfplane",), None),
    "planar.clip_s": ("s", "self", ("planar.clip_halfplane", "planar.convex_clip"),
                      None),
    "planar.quad_calls": ("count", "calls", ("planar.polygon_quad",), None),
    "planar.quad_triangles": ("count", "calls", ("planar.triangle_quad",), None),
    "planar.quad_s": ("s", "self", ("planar.polygon_quad", "planar.triangle_quad",
                                    "planar.triangulate_fan",
                                    "planar.polygon_centroid"), None),
    "planar.area_calls": ("count", "calls", ("planar.polygon_area",), None),
    "planar.area_s": ("s", "self", ("planar.polygon_area",), None),
    "ma.cell_calls": ("count", "calls", ("ma.subgradient_cell_polygon",), None),
    "ma.cell_s": ("s", "self", ("ma.subgradient_cell_polygon",), None),
    "ma.mass_evals": ("count", "calls", ("ma._masses",), None),
    "ma.jacobian_calls": ("count", "calls", ("ma._mass_jacobian",), None),
    "ma.jacobian_s": ("s", "self", ("ma._mass_jacobian",), None),
    "ma.linear_solve_s": ("s", "self", ("numpy.linalg.solve",), "ma"),
    "ma.newton_iters": ("count", "report", ("ma", "newton_iters"), None),
    "ma.sweeps": ("count", "report", ("ma", "sweeps"), None),
    "ma.single_mass_calls": ("count", "calls", ("ma._single_mass",), None),
    "ma.bracket_calls": ("count", "calls", ("ma._bracket_below",), None),
    "ma.bracket_s": ("s", "self", ("ma._bracket_below",), None),
    "ma.brentq_calls": ("count", "calls", ("ma.brentq",), None),
    "ma.brentq_s": ("s", "self", ("ma.brentq",), None),
    "ma.window_s": ("s", "self", ("ma._theta_window", "ma._integrate_square",
                                  "ma.mass_balance_bound"), None),
    "core.halfspace_calls": ("count", "calls", ("core.polytope_from_support",), None),
    "core.halfspace_s": ("s", "self", ("core.polytope_from_support",), None),
    "core.linprog_s": ("s", "self", ("core.linprog",), None),
    "core.qhull_s": ("s", "self", ("core.HalfspaceIntersection", "core.ConvexHull"),
                     None),
    "core.mesh_s": ("s", "self", ("core.polytope_from_mesh",), None),
    "minkowski.iterations": ("count", "report", ("minkowski", "iterations"), None),
    "minkowski.jacobian_s": ("s", "self", ("minkowski.area_jacobian",), None),
    "minkowski.adjacency_s": ("s", "self", ("minkowski._edge_lengths_by_face_pair",),
                              None),
    "minkowski.lstsq_s": ("s", "self", ("numpy.linalg.lstsq",), "minkowski"),
    "rigidity.constraints_s": ("s", "self", ("rigidity.isometry_constraints",), None),
    "rigidity.kernel_s": ("s", "self", ("rigidity.bending_space", "numpy.linalg.svd",
                                        "numpy.linalg.qr"), "rigidity"),
    "rigidity.residual_s": ("s", "self", ("rigidity.constraint_residual",), None),
    "rigidity.defo_s": ("s", "self", ("rigidity.solve_defo", "rigidity.spsolve",
                                      "rigidity.defo_residual"), None),
    "geodesic.net_s": ("s", "self", ("geodesic.net_from_polytope",), None),
    "geodesic.search_s": ("s", "self", ("geodesic.shortest_path", "geodesic._State"),
                          None),
    "geodesic.states": ("count", "calls", ("geodesic._State",), None),
}


class Tracer:
    """Calls, total and self time per (traced name, traced parent)."""

    def __init__(self):
        self.stats = {}     # (name, parent) -> [calls, total_s, self_s, points]
        self._stack = []    # [name, time spent in wrapped callees]
        self._saved = []
        self.absent = []

    def wrap(self, name, fn, count_points=False):
        stack, stats = self._stack, self.stats

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = stats.get((name, parent))
                if rec is None:
                    rec = stats[(name, parent)] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                if count_points:
                    rec[3] += int(np.size(args[0]))

        return traced

    def install(self):
        """Wrap every target wherever a module of the package binds it."""
        homes = {}
        for module_name in {t[0] for t in TARGETS}:
            try:
                homes[module_name] = importlib.import_module(module_name)
            except ImportError:
                homes[module_name] = None
        package = [m for n, m in list(sys.modules.items())
                   if n == "ovaloid" or n.startswith("ovaloid.")]
        for module_name, attr, name in TARGETS:
            home = homes[module_name]
            fn = getattr(home, attr, None) if home else None
            if fn is None:
                self.absent.append(name)
                continue
            inner = self._theta_compiler(fn) if name == "io.compile_theta" else fn
            wrapped = self.wrap(name, inner)
            for module in {id(m): m for m in [home, *package]}.values():
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._saved.append((module, key, value))
                        setattr(module, key, wrapped)

    def _theta_compiler(self, compile_theta):
        def compile_traced(expression):
            return self.wrap("io.theta", compile_theta(expression), count_points=True)
        return compile_traced

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()


def layer_values(stats, reports):
    """Per-layer metric values from tracer stats and the CLI reports.

    ``reports`` maps a layer ("ma", "minkowski") to the list of its calls'
    report metrics, for the counts that only the reports carry.
    """
    out = {}
    for metric, (unit, what, names, caller_layer) in LAYER_METRICS.items():
        if what == "report":
            layer, key = names
            value = sum(int(r[key]) for r in reports.get(layer, ()))
        else:
            col = {"calls": 0, "self": 2, "points": 3}[what]
            value = 0
            for (name, parent), rec in stats.items():
                if name not in names:
                    continue
                if caller_layer and (parent is None
                                     or parent.split(".")[0] != caller_layer):
                    continue
                value += rec[col]
        out[metric] = (value, unit)
    return out
