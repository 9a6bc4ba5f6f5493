"""Command-line entry point: validation, solves, and curated demos.

Every run writes a JSON report whose numeric content is deterministic for a
fixed seed; the wall-clock timestamp is isolated under its own key.

Importing this module and building the parser load only the standard library
and ``errors``: each command imports the modules it runs when it runs, and
reads its input before it imports its solver, so help, usage errors and
inputs rejected while they are read load no scipy.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from .errors import (
    CoincidentPoints,
    DuplicateNodes,
    MalformedMAProblem,
    NonConvexPolygon,
    OpenSurface,
    OvaloidError,
    ParseError,
    PointOutsidePolygon,
    SchemaError,
    UnknownDemo,
)


def _non_negative(parse):
    """An argparse type: ``parse`` of the text, a usage error unless it is
    finite and >= 0."""
    def check(text):
        value = parse(text)
        if not 0 <= value < float("inf"):
            raise argparse.ArgumentTypeError(f"expected a finite value >= 0, got {text!r}")
        return value

    check.__name__ = parse.__name__  # "invalid float value" on bad text
    return check


def _common_flags(parser):
    parser.add_argument("--tol", type=_non_negative(float), default=None,
                        help="tolerance override")
    parser.add_argument("--max-iter", type=_non_negative(int), default=None)
    parser.add_argument("--seed", type=_non_negative(int), default=0)
    parser.add_argument("--out", default=None, help="report output path")
    parser.add_argument("--format", choices=("json", "csv"), default="json")


@functools.cache
def build_parser():
    """The CLI's parser, built once per process: parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="ovaloid",
        description="Convex-geometry toolkit: nets, Monge-Ampere solves, "
                    "Minkowski recovery, rigidity analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    net = sub.add_parser("net", help="intrinsic metric operations")
    netsub = net.add_subparsers(dest="action", required=True)
    for name, extra in (
        ("validate", ()),
        ("curvature", ()),
        ("geodesic", ("--src", "--dst")),
    ):
        np_ = netsub.add_parser(name)
        np_.add_argument("path", help="net JSON or mesh OFF file")
        for flag in extra:
            np_.add_argument(flag, required=True,
                             help="point as POLY:X:Y, or vN for mesh vertex N")
        _common_flags(np_)

    map_ = sub.add_parser("ma", help="generalized Monge-Ampere solver")
    masub = map_.add_subparsers(dest="action", required=True)
    solve = masub.add_parser("solve")
    solve.add_argument("path")
    solve.add_argument("--homotopy", type=_non_negative(int), default=0, metavar="K",
                       help="continuation from uniform masses over K steps")
    _common_flags(solve)

    mink = sub.add_parser("minkowski", help="discrete Minkowski problem")
    mksub = mink.add_subparsers(dest="action", required=True)
    for name in ("solve", "check"):
        sp = mksub.add_parser(name)
        sp.add_argument("path")
        _common_flags(sp)
    rt = mksub.add_parser("roundtrip")
    rt.add_argument("--faces", type=int, default=20)
    _common_flags(rt)

    rig = sub.add_parser("rigidity", help="infinitesimal rigidity lab")
    rigsub = rig.add_subparsers(dest="action", required=True)
    an = rigsub.add_parser("analyze")
    an.add_argument("path", help="closed triangulated surface (OFF)")
    _common_flags(an)
    defo = rigsub.add_parser("defo")
    defosub = defo.add_subparsers(dest="defo_action", required=True)
    for name in ("solve", "check"):
        dp = defosub.add_parser(name)
        dp.add_argument("path", help="grid JSON (rigidity-problem kind)")
        _common_flags(dp)

    demo = sub.add_parser("demo", help="curated end-to-end scenarios")
    demo.add_argument("name")
    _common_flags(demo)

    return parser


# ---------------------------------------------------------------------------
# command implementations; each returns (exit_code, metrics)


def _check_closed(faces):
    """SchemaError mesh.closed unless every edge borders exactly two faces."""
    from . import core

    bad = int((core.undirected_edges(faces)[1] != 2).sum())
    if bad:
        raise SchemaError(
            "mesh.closed", f"{bad} edges do not border exactly 2 faces"
        )


def _load_net(path):
    from . import io

    if str(path).endswith(".off"):
        pf = io.parse_problem(path, kind="mesh")
        from . import core, intrinsic_metric as im

        _check_closed(pf.payload["faces"])
        try:
            poly = core.polytope_from_mesh(pf.payload["vertices"],
                                           pf.payload["faces"])
        except ValueError as exc:  # not the boundary of a convex polytope
            raise SchemaError("mesh.convex", str(exc)) from exc
        return im.net_from_polytope(poly)
    return io.read_net(path)


def _parse_surface_point(net, text):
    from . import intrinsic_metric as im

    try:
        if text.startswith("v"):
            vid = int(text[1:])
        else:
            f, x, y = text.split(":")
            f, x, y = int(f), float(x), float(y)
    except ValueError as exc:
        raise SchemaError("point.format", f"expected POLY:X:Y or vN, got {text!r}") from exc
    if text.startswith("v"):
        if not net.corner_labels:
            raise SchemaError("point.vertex", "vertex points need a mesh input")
        if vid not in net.labelled_corners:
            raise SchemaError("point.vertex", f"no corner labelled {vid}")
        f, c = net.labelled_corners[vid]
        xy = net.polygons[f][c]
        return im.SurfacePoint(f, (float(xy[0]), float(xy[1])))
    if not 0 <= f < len(net.polygons):
        raise SchemaError("point.polygon", f"no polygon {f} in the net")
    try:
        return im.surface_point(net, f, x, y)
    except PointOutsidePolygon as exc:
        raise SchemaError("point.outside", str(exc)) from exc


def _cmd_net(args):
    net = _load_net(args.path)
    from . import intrinsic_metric as im

    tol = args.tol if args.tol is not None else 1e-9
    if args.action == "validate":
        rep = im.validate_net(net, tol=tol)
        return (0 if rep.ok else 1), rep.as_dict()
    if args.action == "curvature":
        rep = im.vertex_curvatures(net, tol=tol)
        return 0, rep.as_dict()
    src = _parse_surface_point(net, args.src)
    dst = _parse_surface_point(net, args.dst)
    max_states = args.max_iter if args.max_iter is not None else 500_000
    try:
        path = im.shortest_path(net, src, dst, max_states=max_states)
    except CoincidentPoints as exc:
        raise SchemaError("point.distinct", str(exc)) from exc
    except NonConvexPolygon as exc:
        raise SchemaError("net.convex", str(exc)) from exc
    return 0, {
        "length": path.length,
        "face_sequence": list(path.face_sequence),
        "points": [[sp.polygon, *sp.xy] for sp in path.points],
    }


def _cmd_ma(args):
    import dataclasses

    import numpy as np

    from . import io

    problem = io.parse_problem(args.path, kind="ma-problem").payload
    from . import ma_solver as ma

    tol = args.tol if args.tol is not None else 1e-10
    max_iter = args.max_iter if args.max_iter is not None else 400
    # the solver validates each problem it is given
    try:
        if args.homotopy:
            problem.validate()
            uniform = float(problem.masses.mean())

            def family(t):
                return dataclasses.replace(
                    problem, masses=(1 - t) * uniform + t * problem.masses)

            schedule = ma.HomotopySchedule(
                ts=np.linspace(0.0, 1.0, args.homotopy + 1), problem_at=family
            )
            u = ma.homotopy_solve(schedule, tol=tol, max_iter=max_iter)[-1]
        else:
            u = ma.solve_ma(problem, tol=tol, max_iter=max_iter)
    except (MalformedMAProblem, DuplicateNodes) as exc:
        raise SchemaError("ma.valid", str(exc)) from exc
    return 0, {
        "values": u.values.tolist(),
        "nodes": u.nodes.tolist(),
        "final_residual": u.solve_info["final_residual"],
        "sweeps": u.solve_info["sweeps"],
        "newton_iters": u.solve_info["newton_iters"],
    }


def _cmd_minkowski(args):
    import numpy as np

    tol = args.tol if args.tol is not None else 1e-9
    if args.action == "roundtrip":
        from . import minkowski_solver as mk, shapes

        npts = max(4, (args.faces + 4) // 2)
        src = shapes.random_hull(npts, seed=args.seed).centered()
        problem = mk.MinkowskiProblem(normals=src.normals, target_areas=src.areas)
        rec, rep = mk.solve_minkowski(problem, tol=tol, full_output=True)
        err = float(np.max(np.abs(rec.support_numbers - src.support_numbers)
                           / np.abs(src.support_numbers)))
        metrics = {
            "faces": len(src.faces),
            "support_rel_error": err,
            "iterations": rep["iterations"],
            "final_residual": rep["final_residual"],
            "volume": rep["volume"],
        }
        return (0 if err <= 1e-6 else 1), metrics
    from . import io

    payload = io.parse_problem(args.path, kind="minkowski-problem").payload
    from . import minkowski_solver as mk

    if isinstance(payload, mk.CurvatureSample):
        try:
            problem = mk.discretize_curvature(payload).validate()
        except ValueError as exc:  # the closing repair fails or the normals are bad
            raise SchemaError("minkowski.curvature.valid", str(exc)) from exc
    else:
        problem = payload
    if args.action == "check":
        defect = mk.check_closing(problem)
        norm = float(np.linalg.norm(defect))
        ok = norm <= mk.CLOSING_TOL * problem.target_areas.sum()
        return (0 if ok else 1), {
            "closing_defect": [float(v) for v in defect],
            "norm": norm,
            "metadata": problem.metadata,
        }
    max_iter = args.max_iter if args.max_iter is not None else 100
    body, rep = mk.solve_minkowski(problem, tol=tol, max_iter=max_iter,
                                   full_output=True)
    out = str(args.path) + ".solution.off"
    io.write_off(out, body.vertices, body.faces)
    return 0, {
        "support_numbers": body.support_numbers.tolist(),
        "volume": rep["volume"],
        "final_residual": rep["final_residual"],
        "iterations": rep["iterations"],
        "mesh": out,
    }


def _cmd_rigidity(args):
    import numpy as np

    from . import io

    tol = args.tol if args.tol is not None else 1e-10
    if args.action == "analyze":
        pf = io.parse_problem(args.path, kind="mesh")
        from . import rigidity_lab as rl

        faces = pf.payload["faces"]
        if not faces or any(len(f) != 3 for f in faces):
            raise SchemaError("mesh.triangles", "the surface must be triangulated")
        # vertex lines that no face uses are not part of the surface
        used, faces = np.unique(np.ravel(faces), return_inverse=True)
        surf = rl.TriangulatedSurface(vertices=pf.payload["vertices"][used],
                                      triangles=faces.reshape(-1, 3))
        try:
            surf.validate()
        except OpenSurface as exc:
            raise SchemaError("mesh.closed", str(exc)) from exc
        rep = rl.bending_space(surf, tol=tol)
        return (0 if rep.nontrivial_dim == 0 else 1), rep.as_dict()
    patch = io.parse_problem(args.path, kind="rigidity-problem").payload
    from . import rigidity_lab as rl

    if not isinstance(patch, rl.GridPatch):
        raise SchemaError("rigidity.grid", "defo commands need a grid payload")
    if args.defo_action == "solve":
        sol = rl.solve_defo(patch.z, patch.h, patch.zeta)
        return 0, {
            "zeta": sol.zeta.tolist(),
            "residual": rl.defo_residual(sol),
        }
    rep = rl.main_lemma_check(patch, tol=args.tol if args.tol is not None else 1e-8)
    return (0 if rep.ok else 1), rep.as_dict()


# ---------------------------------------------------------------------------
# demos


def _demo_egregium(seed, tol):
    import numpy as np

    from . import core, intrinsic_metric as im, shapes

    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_total = 0.0
    for _ in range(100):
        n = int(rng.integers(6, 51))
        poly = shapes.random_hull(n, seed=int(rng.integers(0, 2**31)))
        net = im.net_from_polytope(poly)
        rep = im.vertex_curvatures(net)
        for lab, w in zip(rep.labels, rep.curvatures):
            worst = max(worst, abs(w - core.normal_cone_area(poly, lab)))
        worst_total = max(worst_total, abs(rep.total - 4 * np.pi))
    ok = worst <= tol and worst_total <= tol
    return ok, {"hulls": 100, "max_pointwise_gap": worst, "max_total_gap": worst_total}


def _demo_cube_geodesic(seed, tol):
    import numpy as np

    from . import intrinsic_metric as im, shapes

    net = im.net_from_polytope(shapes.cube())
    d = im.shortest_path(net, _parse_surface_point(net, "v0"),
                         _parse_surface_point(net, "v7")).length
    gap = abs(d - np.sqrt(5.0))
    return gap <= tol, {"corner_distance": d, "expected": float(np.sqrt(5.0)),
                        "gap": gap}


def _demo_liouville(seed, tol):
    from . import ma_solver as ma

    rows = ma.liouville_probe([1.0, 4.0], f=1.0, spacing=0.5, bump_height=1.0)
    ok = rows[1]["deviation"] < rows[0]["deviation"]
    return ok, {"rows": rows}


def _demo_minkowski_roundtrip(seed, tol):
    import numpy as np

    from . import minkowski_solver as mk, shapes

    worst = 0.0
    for k in range(5):
        src = shapes.random_hull(16, seed=seed * 100 + k).centered()
        problem = mk.MinkowskiProblem(normals=src.normals, target_areas=src.areas)
        rec = mk.solve_minkowski(problem, tol=1e-9)
        worst = max(worst, float(np.max(
            np.abs(rec.support_numbers - src.support_numbers)
            / np.abs(src.support_numbers))))
    return worst <= 1e-6, {"bodies": 5, "max_support_rel_error": worst}


DEMOS = {
    "egregium": _demo_egregium,
    "cube-geodesic": _demo_cube_geodesic,
    "liouville": _demo_liouville,
    "minkowski-roundtrip": _demo_minkowski_roundtrip,
}


def _cmd_demo(args):
    if args.name not in DEMOS:
        raise UnknownDemo(
            f"unknown demo {args.name!r}; known: {', '.join(sorted(DEMOS))}"
        )
    tol = args.tol if args.tol is not None else 1e-9
    ok, metrics = DEMOS[args.name](args.seed, tol)
    return (0 if ok else 1), metrics


# ---------------------------------------------------------------------------
# driver


def _emit(report, args):
    if args.format == "csv":
        lines = ["key,value"]
        def flat(prefix, obj):
            if isinstance(obj, dict):
                for k, v in sorted(obj.items()):
                    flat(f"{prefix}{k}/", v)
            elif isinstance(obj, (list, tuple)):
                for k, v in enumerate(obj):
                    flat(f"{prefix}{k}/", v)
            else:
                lines.append(f"{prefix.rstrip('/')},{obj}")
        flat("", report["metrics"])
        text = "\n".join(lines) + "\n"
    else:
        from . import io

        text = io.canonical_json(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "net":
            code, metrics = _cmd_net(args)
        elif args.command == "ma":
            code, metrics = _cmd_ma(args)
        elif args.command == "minkowski":
            code, metrics = _cmd_minkowski(args)
        elif args.command == "rigidity":
            code, metrics = _cmd_rigidity(args)
        else:
            code, metrics = _cmd_demo(args)
    except FileNotFoundError as exc:
        print(f"ovaloid: file not found: {exc.filename}", file=sys.stderr)
        return 2
    except (ParseError, SchemaError, UnknownDemo) as exc:
        print(f"ovaloid: {exc}", file=sys.stderr)
        return 2
    except OvaloidError as exc:
        print(f"ovaloid: {exc}", file=sys.stderr)
        return 1

    report = {
        "command": " ".join(argv),
        "config": {
            "seed": args.seed,
            "tol": args.tol,
            "max_iter": getattr(args, "max_iter", None),
        },
        "metrics": metrics,
        "exit_code": code,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    try:
        _emit(report, args)
    except OSError as exc:  # --out names a directory, or a file in a missing one
        print(f"ovaloid: cannot write report: {exc}", file=sys.stderr)
        return 2
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
