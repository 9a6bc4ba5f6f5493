import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from oracles import write_net
import ovaloid
from ovaloid import cli, core, intrinsic_metric as im, io, shapes


def run_cli(argv, capsys):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, out


def test_cli_import_leaves_out_scipy_optimize():
    # only polytope_from_support needs it (linprog), on first use
    code = ("import sys, ovaloid.cli; ovaloid.cli.build_parser(); "
            "assert 'scipy.optimize' not in sys.modules")
    src = str(pathlib.Path(ovaloid.__file__).parents[1])
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={"PYTHONPATH": src})


def test_minkowski_solve_leaves_out_scipy_optimize(tmp_path):
    # the solver intersects its iterates about the origin, with no LP
    src = shapes.random_hull(30, seed=2)
    path = tmp_path / "mk.json"
    path.write_text(json.dumps({"kind": "minkowski-problem",
                                "normals": src.normals.tolist(),
                                "areas": src.areas.tolist()}))
    code = ("import sys, ovaloid.cli; "
            f"assert ovaloid.cli.run(['minkowski', 'solve', {str(path)!r}, "
            f"'--out', {str(tmp_path / 'r.json')!r}]) == 0; "
            "assert 'scipy.optimize' not in sys.modules")
    src_dir = str(pathlib.Path(ovaloid.__file__).parents[1])
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={"PYTHONPATH": src_dir})


def test_consecutive_runs_share_no_state(tmp_path):
    # the parser is built once per process; each run parses afresh
    argv = ["minkowski", "roundtrip", "--faces", "8", "--out"]
    assert cli.run(argv + [str(tmp_path / "a"), "--tol", "1e-10", "--seed", "4"]) == 0
    assert cli.run(argv + [str(tmp_path / "b")]) == 0
    first = json.loads((tmp_path / "a").read_text())["config"]
    assert (first["tol"], first["seed"]) == (1e-10, 4)
    assert json.loads((tmp_path / "b").read_text())["config"] == {
        "seed": 0, "tol": None, "max_iter": None}
    assert cli.run(argv + [str(tmp_path / "c"), "--format", "csv"]) == 0
    assert cli.run(argv + [str(tmp_path / "d")]) == 0
    assert not (tmp_path / "c").read_text().startswith("{")
    assert json.loads((tmp_path / "d").read_text())["exit_code"] == 0


def test_net_curvature_cube(tmp_path, capsys, cube):
    path = tmp_path / "cube.off"
    io.write_off(path, cube.vertices, cube.faces)
    code, out = run_cli(["net", "curvature", str(path)], capsys)
    assert code == 0
    report = json.loads(out)
    curv = report["metrics"]["curvatures"]
    np.testing.assert_allclose(curv, np.pi / 2, atol=1e-12)
    assert abs(report["metrics"]["total"] - 4 * np.pi) < 1e-12


def test_net_validate_failure_exit_code(tmp_path, capsys, cube_net):
    polys = list(cube_net.polygons)
    polys[0] = polys[0] * 1.01
    from ovaloid import intrinsic_metric as im

    bad = im.MetricNet(polygons=tuple(polys),
                       identifications=cube_net.identifications)
    path = tmp_path / "net.json"
    write_net(path, bad)
    code, out = run_cli(["net", "validate", str(path)], capsys)
    assert code == 1
    assert json.loads(out)["metrics"]["edge_mismatches"]


def test_net_geodesic_vertices(tmp_path, capsys, cube):
    path = tmp_path / "cube.off"
    io.write_off(path, cube.vertices, cube.faces)
    i, j = 0, int(np.argmax(np.linalg.norm(cube.vertices - cube.vertices[0],
                                           axis=1)))
    code, out = run_cli(
        ["net", "geodesic", str(path), "--src", f"v{i}", "--dst", f"v{j}"],
        capsys,
    )
    assert code == 0
    assert abs(json.loads(out)["metrics"]["length"] - np.sqrt(5)) < 1e-9


def test_net_geodesic_face_cap(tmp_path, capsys):
    hull = shapes.random_hull(400, seed=7)
    path = tmp_path / "hull.off"
    io.write_off(path, hull.vertices, hull.faces)
    j = int(np.argmin(hull.vertices @ hull.vertices[0]))
    argv = ["net", "geodesic", str(path), "--src", "v0", "--dst", f"v{j}"]
    # the shortest path crosses 36 faces; the search expands 13 196 states
    code, out = run_cli(argv, capsys)
    assert code == 0
    assert abs(json.loads(out)["metrics"]["length"] - 3.021335) < 1e-6
    code, out = run_cli(argv + ["--max-iter", "32"], capsys)
    assert code == 1 and out == ""
    code, out = run_cli(argv + ["--max-iter", "1000000"], capsys)
    assert code == 0
    assert abs(json.loads(out)["metrics"]["length"] - 3.021335) < 1e-6


@pytest.mark.parametrize("argv", [
    ["net", "validate"], ["net", "curvature"], ["rigidity", "analyze"],
])
def test_open_mesh_is_schema_error(tmp_path, capsys, argv):
    # a tetrahedron with only two of its four faces
    path = tmp_path / "open.off"
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], float)
    io.write_off(path, verts, [(0, 2, 1), (0, 1, 3)])
    code = cli.run(argv + [str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("ovaloid: mesh.closed:")
    assert "Traceback" not in captured.err


def test_closed_mesh_with_spread_vertex_ids(tmp_path, capsys):
    # an octahedron among 96 unused vertex lines, its ids up to 101, beyond
    # its 24 half-edges; packed as min * 24 + max, its edges (0, 30) and
    # (1, 6) would share a key
    octa = shapes.octahedron()
    ids = np.array([0, 1, 6, 100, 30, 101])  # opposite corners: 0-3, 1-4, 2-5
    verts = np.repeat(octa.vertices[:1], 102, axis=0)
    verts[ids] = octa.vertices
    path = tmp_path / "octa.off"
    io.write_off(path, verts, [ids[list(f)] for f in octa.faces])
    code, out = run_cli(["net", "curvature", str(path)], capsys)
    assert code == 0
    assert abs(json.loads(out)["metrics"]["total"] - 4 * np.pi) < 1e-12


def test_unused_vertex_line_inside_the_body(tmp_path, capsys):
    # an octahedron OFF with one more vertex line, 0 0 0, that no face uses
    octa = shapes.octahedron()
    path = tmp_path / "octa.off"
    io.write_off(path, np.vstack([octa.vertices, np.zeros(3)]), octa.faces)
    code, out = run_cli(["net", "curvature", str(path)], capsys)
    assert code == 0
    assert abs(json.loads(out)["metrics"]["total"] - 4 * np.pi) < 1e-12


def test_rigidity_ignores_unused_vertex_lines(tmp_path, capsys):
    # the octahedron with a vertex line, 0 0 0, that no face uses put
    # between its own: the surface is rigid with the six trivial motions
    octa = shapes.octahedron()
    verts = np.insert(octa.vertices, 3, np.zeros(3), axis=0)
    faces = [[i + (i >= 3) for i in f] for f in octa.faces]
    path = tmp_path / "octa.off"
    io.write_off(path, verts, faces)
    code, out = run_cli(["rigidity", "analyze", str(path)], capsys)
    assert code == 0
    metrics = json.loads(out)["metrics"]
    assert metrics["kernel_dim"] == 6 and metrics["nontrivial_dim"] == 0


def test_rigidity_mesh_without_faces_is_schema_error(tmp_path, capsys):
    path = tmp_path / "empty.off"
    path.write_text("OFF\n3 0 0\n0 0 0\n1 0 0\n0 1 0\n")
    assert cli.run(["rigidity", "analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ovaloid: mesh.triangles:") and "Traceback" not in err


def test_mesh_without_faces_is_not_convex(tmp_path, capsys):
    path = tmp_path / "empty.off"
    path.write_text("OFF\n4 0 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n")
    assert cli.run(["net", "curvature", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "ovaloid: mesh.convex: a mesh needs at least one face\n"


def test_inside_out_mesh_is_not_convex(tmp_path, capsys):
    # a closed tetrahedron whose faces all wind clockwise seen from outside
    path = tmp_path / "inverted.off"
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], float)
    io.write_off(path, verts, [(0, 1, 2), (0, 3, 1), (0, 2, 3), (1, 3, 2)])
    assert cli.run(["net", "validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith("ovaloid: mesh.convex:")


def test_non_finite_coordinate_is_parse_error(tmp_path, capsys):
    path = tmp_path / "nan.off"
    path.write_text("OFF\n4 4 0\n0 0 0\n1 0 0\nnan 1 0\n0 0 1\n"
                    "3 0 2 1\n3 0 1 3\n3 0 3 2\n3 1 2 3\n")
    assert cli.run(["net", "validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "non-finite coordinate" in err and "line 5" in err


def test_quad_mesh_rigidity_is_schema_error(tmp_path, capsys, cube):
    path = tmp_path / "cube.off"
    io.write_off(path, cube.vertices, cube.faces)
    assert cli.run(["rigidity", "analyze", str(path)]) == 2
    assert capsys.readouterr().err.startswith("ovaloid: mesh.triangles")


def test_missing_file_is_usage_error(capsys):
    code = cli.run(["ma", "solve", "missing.json"])
    err = capsys.readouterr().err
    assert code == 2
    assert "not found" in err


@pytest.mark.parametrize("command, extra", [
    (["ma", "solve"], []),
    (["rigidity", "analyze"], []),
    (["net", "geodesic"], ["--src", "0:0:0", "--dst", "1:0:0"]),
], ids=["ma", "rigidity", "net"])
def test_directory_input_is_parse_error(tmp_path, capsys, command, extra):
    code = cli.run(command + [str(tmp_path)] + extra)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("ovaloid: cannot read: ")
    assert str(tmp_path) in captured.err


# a tetrahedron whose third vertex line holds the byte 0xff
_NON_UTF8_OFF = (b"OFF\n4 4 0\n0 0 0\n1 0 0\n0 1 \xff\n0 0 1\n"
                 b"3 0 2 1\n3 0 1 3\n3 0 3 2\n3 1 2 3\n")


@pytest.mark.parametrize("name, data, command", [
    ("prob.json", b'{"kind": "ma-problem", "theta": "\xff"}', ["ma", "solve"]),
    ("mesh.off", _NON_UTF8_OFF, ["net", "validate"]),
    ("mesh.off", _NON_UTF8_OFF, ["rigidity", "analyze"]),
], ids=["json", "off-net", "off-rigidity"])
def test_non_utf8_input_is_parse_error(tmp_path, capsys, name, data, command):
    path = tmp_path / name
    path.write_bytes(data)
    code = cli.run(command + [str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("ovaloid: not UTF-8 text: byte 0xff")
    assert str(path) in captured.err


@pytest.mark.parametrize("out", ["missing/report.json", ""],
                         ids=["missing-directory", "directory"])
def test_unwritable_report_is_usage_error(tmp_path, capsys, out):
    code = cli.run(["demo", "cube-geodesic", "--out", str(tmp_path / out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("ovaloid: cannot write report: ")


@pytest.mark.parametrize("command", [
    ["ma", "solve"], ["minkowski", "solve"], ["minkowski", "check"],
    ["rigidity", "defo", "solve"],
])
def test_off_file_for_a_json_command_is_schema_error(tmp_path, capsys, cube,
                                                      command):
    path = tmp_path / "cube.off"
    io.write_off(path, cube.vertices, cube.faces)
    code = cli.run(command + [str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("ovaloid: kind.match: ")
    assert not (tmp_path / "cube.off.solution.off").exists()


# Run in a fresh interpreter: the parser, help, usage errors and a missing
# file load neither scipy nor a solver; argv[2] then must exit 0 without
# loading any of the modules named in argv[3].
_IMPORT_BUDGET = """
import json, sys
from ovaloid import cli

def loaded(*names):
    return sorted(m for m in sys.modules if m in names or m.split(".")[0] in names)[:5]

missing, argv, absent = sys.argv[1], json.loads(sys.argv[2]), json.loads(sys.argv[3])
cli.build_parser()
assert cli.run(["--help"]) == 0 and cli.run(["ma"]) == 2
assert not loaded("numpy", "scipy"), loaded("numpy", "scipy")
assert cli.run(["ma", "solve", missing]) == 2
assert not loaded("scipy"), loaded("scipy")
assert cli.run(argv) == 0
assert not loaded(*absent), loaded(*absent)
"""


@pytest.mark.parametrize("command, absent", [
    (["rigidity", "defo", "solve"],
     ["ovaloid.ma_solver", "ovaloid.minkowski_solver", "ovaloid.intrinsic_metric",
      "scipy.fft"]),
    (["ma", "solve"],
     ["ovaloid.rigidity_lab", "ovaloid.minkowski_solver", "ovaloid.intrinsic_metric"]),
], ids=["defo", "ma"])
def test_each_command_imports_only_what_it_runs(tmp_path, command, absent):
    grid = np.add.outer(np.arange(5.0) ** 2, np.arange(5.0) ** 2) / 32
    problems = {
        "ma": _ma_payload(),
        "rigidity": {"kind": "rigidity-problem",
                     "grid": {"h": 0.25, "z": grid.tolist()}},
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problems[command[0]]))
    argv = command + [str(path), "--out", str(tmp_path / "report.json")]
    src = str(pathlib.Path(ovaloid.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_BUDGET, str(tmp_path / "missing.json"),
         json.dumps(argv), json.dumps(absent)],
        env={"PYTHONPATH": src}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_unknown_demo_is_usage_error(capsys):
    assert cli.run(["demo", "nope"]) == 2


def test_bad_subcommand_exits_2(capsys):
    assert cli.run(["frobnicate"]) == 2


@pytest.mark.parametrize("argv, flag", [
    (["ma", "solve", "P", "--tol", "nan"], "--tol"),
    (["ma", "solve", "P", "--tol", "inf"], "--tol"),
    (["ma", "solve", "P", "--tol", "-1e-9"], "--tol"),
    (["ma", "solve", "P", "--max-iter", "-3"], "--max-iter"),
    (["ma", "solve", "P", "--homotopy", "-1"], "--homotopy"),
    (["minkowski", "roundtrip", "--seed", "-1"], "--seed"),
    (["demo", "egregium", "--seed", "-1"], "--seed"),
], ids=["tol-nan", "tol-inf", "tol-negative", "max-iter-negative",
        "homotopy-negative", "roundtrip-seed-negative", "demo-seed-negative"])
def test_bad_shared_flag_is_usage_error(tmp_path, capsys, argv, flag):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(_ma_payload()))
    code = cli.run([str(path) if a == "P" else a for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"argument {flag}: expected" in captured.err


def test_zero_shared_flags_are_accepted():
    args = cli.build_parser().parse_args(
        ["ma", "solve", "P", "--tol", "0", "--max-iter", "0", "--homotopy", "0",
         "--seed", "0"])
    assert (args.tol, args.max_iter, args.homotopy, args.seed) == (0.0, 0, 0, 0)


def test_ma_solve_cli(tmp_path, capsys):
    data = {
        "kind": "ma-problem",
        "domain": [[0, 0], [2, 0], [2, 2], [0, 2]],
        "nodes": [[1.0, 1.0], [0.8, 1.2]],
        "masses": [0.7, 0.5],
        "boundary": [[0, 0, 0.0], [2, 0, 0.0], [2, 2, 0.0], [0, 2, 0.0],
                      [1, 0, 0.0], [2, 1, 0.0], [1, 2, 0.0], [0, 1, 0.0]],
        "theta": None,
    }
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(["ma", "solve", str(path)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["metrics"]["final_residual"] <= 1e-9
    # homotopy route reaches the same values
    code2, out2 = run_cli(["ma", "solve", str(path), "--homotopy", "4"], capsys)
    v1 = np.array(json.loads(out2)["metrics"]["values"])
    v0 = np.array(rep["metrics"]["values"])
    assert np.abs(v1 - v0).max() < 1e-7


def test_z_dependence_is_read_from_the_weight(tmp_path, capsys):
    """A weight whose expression names z is z-dependent whatever the file's
    "theta_z_dependent" field says; left out, the bound 3.14 of the weight
    at z = 0 made the total mass 4.5 look infeasible."""
    coords = np.linspace(0.0, 3.0, 5)
    pts = np.stack(np.meshgrid(coords, coords), -1).reshape(-1, 2)
    on_b = ((pts == 0) | (pts == 3)).any(axis=1)
    data = {"kind": "ma-problem", "domain": [[0, 0], [3, 0], [3, 3], [0, 3]],
            "nodes": pts[~on_b].tolist(), "masses": [0.5] * 9,
            "boundary": np.column_stack([pts[on_b], np.zeros(on_b.sum())]).tolist(),
            "theta": "exp(-0.3*z)*exp(-(p1**2 + p2**2))"}
    path = tmp_path / "prob.json"
    values = []
    for field in ({}, {"theta_z_dependent": True}, {"theta_z_dependent": False}):
        path.write_text(json.dumps({**data, **field}))
        code, out = run_cli(["ma", "solve", str(path), "--tol", "1e-8"], capsys)
        assert code == 0
        values.append(json.loads(out)["metrics"]["values"])
    assert values[0] == values[1] == values[2]


def _ma_payload(**changes):
    data = {
        "kind": "ma-problem",
        "domain": [[0, 0], [2, 0], [2, 2], [0, 2]],
        "nodes": [[1.0, 1.0], [0.8, 1.2]],
        "masses": [0.7, 0.5],
        "boundary": [[0, 0, 0.0], [2, 0, 0.0], [2, 2, 0.0], [0, 2, 0.0]],
    }
    data.update(changes)
    return data


@pytest.mark.parametrize("changes", [
    {"nodes": [[1.0, 1.0], [1.0, 1.0]]},
    {"boundary": [[0, 0, 0.0], [1, 0, 0.0], [2, 0, 0.0]]},
    # unweighted: the first node's cell would be unbounded
    {"nodes": [[1.8, 1.8], [0.6, 0.6]],
     "boundary": [[0, 0, 0.0], [2, 0, 0.0], [0, 2, 0.0], [1, 0, 0.0]]},
], ids=["duplicate-nodes", "collinear-boundary", "outside-boundary-hull"])
def test_degenerate_ma_nodes_are_schema_errors(tmp_path, capsys, changes):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(_ma_payload(**changes)))
    code = cli.run(["ma", "solve", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("ovaloid: ma.valid:")


@pytest.mark.parametrize("changes", [
    {"nodes": [[1.0, 1.0], [1.0, 1.0]]},
    {"boundary": [[0, 0, 0.0], [1, 0, 0.0], [2, 0, 0.0]]},
    {"masses": [0.7, -0.5]},
    {"masses": [0.7, 0.0]},
], ids=["duplicate-nodes", "collinear-boundary", "negative-mass", "zero-mass"])
def test_invalid_ma_problems_are_schema_errors_under_homotopy(tmp_path, capsys,
                                                               changes):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(_ma_payload(**changes)))
    code = cli.run(["ma", "solve", str(path), "--homotopy", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("ovaloid: ma.valid:")


def test_ma_solve_validates_its_problem_once(tmp_path, capsys, monkeypatch):
    from ovaloid import ma_solver as ma

    calls = []
    validate = ma.MAProblem.validate

    def counted(problem):
        calls.append(1)
        return validate(problem)

    monkeypatch.setattr(ma.MAProblem, "validate", counted)
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(_ma_payload()))
    code, _ = run_cli(["ma", "solve", str(path)], capsys)
    assert code == 0
    assert calls == [1]


@pytest.mark.parametrize("changes, constraint", [
    ({"domain": [[0, 0], [2, 0, 1], [2, 2], [0, 2]]}, "ma.domain"),
    ({"masses": ["a", "b"]}, "ma.masses"),
    ({"mass_bound": "pi"}, "ma.mass_bound"),
    ({"theta": "exp(-(p1**2 + p2**2)"}, "theta.syntax"),
    ({"theta": "1 / z"}, "theta.eval"),
    ({"theta": "exp(1000*p1)"}, "theta.eval"),
], ids=["ragged-domain", "string-masses", "string-mass-bound", "theta-syntax",
        "theta-zero-division", "theta-overflow"])
def test_malformed_ma_payloads_are_schema_errors(tmp_path, capsys, changes,
                                                 constraint):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(_ma_payload(**changes)))
    code = cli.run(["ma", "solve", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"ovaloid: {constraint}:")


@pytest.mark.parametrize("command", [["ma", "solve"], ["net", "validate"]])
@pytest.mark.parametrize("top", [[1, 2], 5, None], ids=["array", "number", "null"])
def test_top_level_json_non_object_is_schema_error(tmp_path, capsys, command, top):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(top))
    code = cli.run(command + [str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("ovaloid: json.object:")


@pytest.mark.parametrize("command, body, constraint", [
    (["rigidity", "defo", "check"], {"kind": "rigidity-problem", "grid": 5},
     "rigidity.grid.z"),
    (["minkowski", "solve"], {"kind": "minkowski-problem", "curvature": 3},
     "minkowski.centers"),
    (["rigidity", "defo", "check"], {"kind": "rigidity-problem", "surface": "vertices"},
     "rigidity.vertices"),
], ids=["grid", "curvature", "surface"])
def test_nested_non_object_is_schema_error(tmp_path, capsys, command, body, constraint):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(body))
    code = cli.run(command + [str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"ovaloid: {constraint}:")


TRIANGLES = [[[0, 0], [1, 0], [0, 1]], [[0, 0], [1, 0], [0, 1]]]


@pytest.mark.parametrize("glued", [[[0, 0], [5, 0]], [[0, 7], [1, 0]],
                                   [[0, -1], [1, 0]]], ids=["polygon", "edge", "negative"])
@pytest.mark.parametrize("extra", [["validate"], ["curvature"],
                                   ["geodesic", "--src", "0:0.2:0.2",
                                    "--dst", "1:0.3:0.3"]])
def test_net_out_of_range_edge_is_schema_error(tmp_path, capsys, glued, extra):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"polygons": TRIANGLES, "identifications": [
        glued, [[0, 1], [1, 1]], [[0, 2], [1, 0]]]}))
    code = cli.run(["net", extra[0], str(path), *extra[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("ovaloid: net.valid:")


def test_reflex_net_polygon_is_schema_error(tmp_path, capsys):
    path = tmp_path / "ell.json"
    ell = [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]
    write_net(path, im.MetricNet(*shapes.doubled_polygon(ell)))
    code = cli.run(["net", "geodesic", str(path), "--src", "0:1.9:0.9",
                    "--dst", "0:0.9:1.9"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("ovaloid: net.convex: polygon 0 ")


@pytest.mark.parametrize("points, constraint", [
    (["--src", "vx", "--dst", "v1"], "point.format"),
    (["--src", "0:0.2:abc", "--dst", "v1"], "point.format"),
    (["--src", "0:0.2", "--dst", "v1"], "point.format"),
    (["--src", "99:0.2:0.2", "--dst", "v1"], "point.polygon"),
    (["--src=-1:0.2:0.2", "--dst", "v1"], "point.polygon"),
    (["--src", "0:5:5", "--dst", "v1"], "point.outside"),
    (["--src", "v0", "--dst", "v0"], "point.distinct"),
])
def test_bad_geodesic_point_is_schema_error(tmp_path, capsys, cube, points,
                                            constraint):
    path = tmp_path / "cube.off"
    io.write_off(path, cube.vertices, core.fan_triangles(cube.faces))
    code = cli.run(["net", "geodesic", str(path), *points])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"ovaloid: {constraint}:")


def test_minkowski_roundtrip_cli(capsys):
    code, out = run_cli(
        ["minkowski", "roundtrip", "--faces", "20", "--seed", "7"], capsys
    )
    assert code == 0
    assert json.loads(out)["metrics"]["support_rel_error"] <= 1e-6


def test_minkowski_solve_and_check_cli(tmp_path, capsys, cube):
    path = tmp_path / "mk.json"
    path.write_text(json.dumps({
        "kind": "minkowski-problem",
        "normals": cube.normals.tolist(),
        "areas": cube.areas.tolist(),
    }))
    code, out = run_cli(["minkowski", "check", str(path)], capsys)
    assert code == 0
    code, out = run_cli(["minkowski", "solve", str(path)], capsys)
    assert code == 0
    rep = json.loads(out)
    np.testing.assert_allclose(rep["metrics"]["support_numbers"], 0.5,
                               atol=1e-9)
    # the solution mesh attachment exists and parses back to the cube
    verts, faces = io.read_off(rep["metrics"]["mesh"])
    assert len(verts) == 8 and len(faces) == 6


@pytest.mark.parametrize("action", ["check", "solve"])
@pytest.mark.parametrize("centers, cell_areas", [
    # the closing repair takes every area to zero
    (np.eye(3), np.full(3, 4 * np.pi / 3)),
    # the repair succeeds, but two normals coincide
    (np.vstack([np.eye(3), -np.eye(3), [[1.0, 0.0, 0.0]]]),
     np.full(7, 4 * np.pi / 7)),
    # the centers lie on one great circle
    (np.column_stack([np.cos(np.arange(6) * np.pi / 3), np.sin(np.arange(6) * np.pi / 3),
                      np.zeros(6)]), np.full(6, 4 * np.pi / 6)),
])
def test_bad_curvature_sample_is_schema_error(tmp_path, capsys, action,
                                              centers, cell_areas):
    path = tmp_path / "curv.json"
    path.write_text(json.dumps({
        "kind": "minkowski-problem",
        "curvature": {"centers": centers.tolist(),
                      "cell_areas": cell_areas.tolist(),
                      "K": [1.0] * len(centers)},
    }))
    code = cli.run(["minkowski", action, str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("ovaloid: minkowski.curvature.valid:")


def test_rigidity_cli(tmp_path, capsys):
    ico = shapes.icosahedron()
    path = tmp_path / "ico.off"
    io.write_off(path, ico.vertices, core.fan_triangles(ico.faces))
    code, out = run_cli(["rigidity", "analyze", str(path)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["metrics"]["kernel_dim"] == 6
    assert rep["metrics"]["nontrivial_dim"] == 0

    n = 9
    xs = np.linspace(0, 1, n)
    X, Y = np.meshgrid(xs, xs)
    gpath = tmp_path / "grid.json"
    gpath.write_text(json.dumps({
        "kind": "rigidity-problem",
        "grid": {"h": float(xs[1] - xs[0]),
                 "z": (0.5 * (X**2 + Y**2)).tolist(),
                 "zeta": (X**2 - Y**2).tolist()},
    }))
    code, out = run_cli(["rigidity", "defo", "solve", str(gpath)], capsys)
    assert code == 0
    assert json.loads(out)["metrics"]["residual"] < 1e-10
    code, out = run_cli(["rigidity", "defo", "check", str(gpath)], capsys)
    assert code == 0
    assert json.loads(out)["metrics"]["ok"]


@pytest.mark.parametrize("grid", [
    {"h": 0.25, "z": [[0.0, 1.0, float("nan")], [0.0, 1.0, 2.0], [0.0, 1.0, 2.0]]},
    {"h": 0.25, "z": np.eye(3).tolist(),
     "zeta": [[0.0, 1.0, 2.0], [0.0, float("inf"), 2.0], [0.0, 1.0, 2.0]]},
    {"h": 0.0, "z": np.eye(3).tolist()},
    {"h": -0.25, "z": np.eye(3).tolist()},
    {"h": 1e300, "z": np.eye(3).tolist()},
    {"h": 1e160, "z": np.eye(3).tolist()},
    {"h": 1e-170, "z": np.eye(3).tolist()},
    {"h": 1e-300, "z": np.eye(3).tolist()},
    {"h": 1e-100, "z": np.eye(3).tolist()},
    {"h": 0.5, "z": [0.0, 1.0, 2.0, 3.0]},
], ids=["nan-z", "inf-zeta", "zero-h", "negative-h", "h=1e300", "h=1e160", "h=1e-170",
        "h=1e-300", "h=1e-100", "one-axis"])
@pytest.mark.parametrize("action", ["solve", "check"])
def test_bad_defo_grid_is_schema_error(tmp_path, capsys, grid, action):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"kind": "rigidity-problem", "grid": grid}))
    code = cli.run(["rigidity", "defo", action, str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("ovaloid: rigidity.grid.valid:")


def test_determinism_modulo_timestamp(tmp_path, capsys):
    argv = ["minkowski", "roundtrip", "--faces", "16", "--seed", "3"]
    _, out1 = run_cli(argv, capsys)
    _, out2 = run_cli(argv, capsys)
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("timestamp")
    r2.pop("timestamp")
    assert io.canonical_json(r1) == io.canonical_json(r2)


def test_csv_format(tmp_path, capsys):
    code, out = run_cli(
        ["minkowski", "roundtrip", "--faces", "16", "--seed", "3",
         "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("support_rel_error,") for line in lines)


def test_report_written_to_file(tmp_path, capsys):
    out_path = tmp_path / "rep.json"
    code = cli.run(["demo", "cube-geodesic", "--out", str(out_path)])
    assert code == 0
    rep = json.loads(out_path.read_text())
    assert rep["metrics"]["gap"] < 1e-9


def test_demo_registry(capsys):
    code, out = run_cli(["demo", "minkowski-roundtrip", "--seed", "2"], capsys)
    assert code == 0
    assert json.loads(out)["metrics"]["max_support_rel_error"] <= 1e-6
