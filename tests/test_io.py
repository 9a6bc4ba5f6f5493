import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import canonical_json, sphere_partition, write_net, write_off_by_line
from ovaloid import core, io, shapes
from ovaloid import ma_solver as ma
from ovaloid import minkowski_solver as mk
from ovaloid import rigidity_lab as rl
from ovaloid.errors import ParseError, SchemaError


def test_off_roundtrip(tmp_path, cube):
    path = tmp_path / "cube.off"
    io.write_off(path, cube.vertices, cube.faces)
    text = path.read_text()
    assert text.startswith("OFF\n8 6 0\n")
    verts, faces = io.read_off(path)
    np.testing.assert_array_equal(verts, cube.vertices)
    assert tuple(faces) == cube.faces
    rebuilt = core.polytope_from_mesh(verts, faces)
    np.testing.assert_allclose(rebuilt.areas, cube.areas, atol=1e-12)


def test_off_random_precision(tmp_path):
    poly = shapes.random_hull(20, seed=6)
    path = tmp_path / "p.off"
    io.write_off(path, poly.vertices, poly.faces)
    verts, _ = io.read_off(path)
    np.testing.assert_array_equal(verts, poly.vertices)  # 17 digits: lossless


def test_off_bytes_match_the_line_by_line_writer(tmp_path):
    # mixed polygon sizes, an empty cycle, numpy and Python vertex ids, and
    # coordinates that format unusually: -0.0, 1e-300, integral floats
    hull = shapes.random_hull(30, seed=2)
    odd = np.array([[-0.0, 1e-300, 2.0], [3.0, -1e-300, -0.0], [1e300, 0.1, -7.0]])
    cases = [
        (hull.vertices, hull.faces),
        (np.vstack([hull.vertices, odd]),
         [hull.faces[0], np.array([0, 1, 2, 3]), (), [4, 5, 6, 7, 8, 9]]),
        (odd.tolist(), core.fan_triangles([(0, 1, 2)])),
    ]
    for k, (verts, faces) in enumerate(cases):
        fast, ref = tmp_path / f"fast{k}.off", tmp_path / f"ref{k}.off"
        io.write_off(fast, verts, faces)
        write_off_by_line(ref, verts, faces)
        assert fast.read_bytes() == ref.read_bytes()


def test_off_parse_errors(tmp_path):
    bad = tmp_path / "bad.off"
    bad.write_text("OFD\n1 0 0\n0 0 0\n")
    with pytest.raises(ParseError) as err:
        io.read_off(bad)
    assert err.value.line == 1
    bad.write_text("OFF\n2 0 0\n0 0 0\n")
    with pytest.raises(ParseError):
        io.read_off(bad)
    bad.write_text("OFF\n1 1 0\n0 0 0\n3 0 0\n")
    with pytest.raises(ParseError) as err:
        io.read_off(bad)
    assert err.value.line == 4


def test_parse_mesh_kind(tmp_path, cube):
    path = tmp_path / "cube.off"
    io.write_off(path, cube.vertices, cube.faces)
    pf = io.parse_problem(path, kind="mesh")
    assert pf.kind == "mesh"
    assert len(pf.payload["faces"]) == 6


def test_ma_problem_roundtrip(tmp_path):
    data = {
        "kind": "ma-problem",
        "domain": [[0, 0], [2, 0], [2, 2], [0, 2]],
        "nodes": [[1.0, 1.0]],
        "masses": [1.0],
        "boundary": [[0, 0, 0.5], [2, 0, 0.5], [2, 2, 0.5], [0, 2, 0.5]],
        "theta": None,
    }
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(data))
    pf = io.parse_problem(path, kind="ma-problem")
    assert isinstance(pf.payload, ma.MAProblem)
    assert len(pf.payload.masses) == 1
    u = ma.solve_ma(pf.payload, tol=1e-10)
    assert u.solve_info["converged"]


def test_ma_problem_with_theta(tmp_path):
    data = {
        "kind": "ma-problem",
        "domain": [[0, 0], [2, 0], [2, 2], [0, 2]],
        "nodes": [[1.0, 1.0]],
        "masses": [0.5],
        "boundary": [[0, 0, 0.0], [2, 0, 0.0], [2, 2, 0.0], [0, 2, 0.0]],
        "theta": "exp(-(p1**2 + p2**2))",
        "mass_bound": np.pi,
    }
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(data))
    pf = io.parse_problem(path)
    vals = pf.payload.theta(np.array([0.0, 1.0]), np.array([0.0, 0.0]), 0, 0, 0)
    np.testing.assert_allclose(vals, [1.0, np.exp(-1.0)])


def test_theta_rejects_unknown_names():
    with pytest.raises(SchemaError):
        io.compile_theta("__import__('os')")
    with pytest.raises(SchemaError):
        io.compile_theta("open('x')")


def test_schema_errors(tmp_path):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"domain": []}))
    with pytest.raises(SchemaError) as err:
        io.parse_problem(path)
    assert err.value.constraint == "kind.present"
    path.write_text(json.dumps({"kind": "ma-problem"}))
    with pytest.raises(SchemaError) as err:
        io.parse_problem(path)
    assert err.value.constraint == "ma.domain"
    path.write_text(json.dumps({"kind": "weird"}))
    with pytest.raises(SchemaError) as err:
        io.parse_problem(path)
    assert err.value.constraint == "kind.known"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        io.parse_problem(path)


def test_minkowski_problem_parse(tmp_path, cube):
    path = tmp_path / "mk.json"
    path.write_text(json.dumps({
        "kind": "minkowski-problem",
        "normals": cube.normals.tolist(),
        "areas": cube.areas.tolist(),
    }))
    pf = io.parse_problem(path, kind="minkowski-problem")
    assert isinstance(pf.payload, mk.MinkowskiProblem)
    centers, areas = sphere_partition(80, seed=0)
    path.write_text(json.dumps({
        "kind": "minkowski-problem",
        "curvature": {
            "centers": centers.tolist(),
            "cell_areas": areas.tolist(),
            "K": [1.0] * 80,
        },
    }))
    pf2 = io.parse_problem(path)
    assert isinstance(pf2.payload, mk.CurvatureSample)


@pytest.mark.parametrize("body, constraint", [
    ({"normals": [[1.0, 0.0, 0.0], [0.0, 1.0]], "areas": [1.0, 1.0]},
     "minkowski.valid"),
    ({"normals": [[2.0, 0.0, 0.0]] * 4, "areas": [1.0] * 4}, "minkowski.valid"),
    ({"normals": [], "areas": []}, "minkowski.valid"),
    ({"curvature": {"centers": [[0.0, 0.0, 1.0], [1.0]], "cell_areas": [],
                    "K": []}}, "minkowski.curvature.valid"),
    # balanced, so closed, but in one plane: no support numbers bound a body
    ({"normals": [[np.cos(t), np.sin(t), 0.0] for t in np.arange(6) * np.pi / 3],
      "areas": [1.0] * 6}, "minkowski.valid"),
], ids=["ragged", "not-unit", "empty", "ragged-centers", "coplanar"])
def test_malformed_minkowski_arrays_are_schema_errors(tmp_path, body, constraint):
    path = tmp_path / "mk.json"
    path.write_text(json.dumps({"kind": "minkowski-problem", **body}))
    with pytest.raises(SchemaError) as err:
        io.parse_problem(path)
    assert err.value.constraint == constraint


@pytest.mark.parametrize("triangles", [[[0, 1]], [[0, 1, 2], [0, 1]], [[0, 1, 5]], []],
                         ids=["pairs", "ragged", "out-of-range", "empty"])
def test_malformed_triangles_are_schema_errors(tmp_path, triangles):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({
        "kind": "rigidity-problem",
        "surface": {"vertices": np.eye(3).tolist(), "triangles": triangles},
    }))
    with pytest.raises(SchemaError) as err:
        io.parse_problem(path)
    assert err.value.constraint == "rigidity.surface.valid"


def test_ragged_grid_is_schema_error(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({
        "kind": "rigidity-problem",
        "grid": {"h": 0.25, "z": [[0.0, 1.0, 2.0], [0.0, 1.0], [0.0, 1.0, 2.0]]},
    }))
    with pytest.raises(SchemaError) as err:
        io.parse_problem(path)
    assert err.value.constraint == "rigidity.grid.valid"


def test_rigidity_problem_parse(tmp_path):
    path = tmp_path / "r.json"
    ico = shapes.icosahedron()
    path.write_text(json.dumps({
        "kind": "rigidity-problem",
        "surface": {
            "vertices": ico.vertices.tolist(),
            "triangles": core.fan_triangles(ico.faces).tolist(),
        },
    }))
    pf = io.parse_problem(path)
    assert isinstance(pf.payload, rl.TriangulatedSurface)
    path.write_text(json.dumps({
        "kind": "rigidity-problem",
        "grid": {"h": 0.25, "z": np.eye(4).tolist()},
    }))
    pf2 = io.parse_problem(path)
    assert isinstance(pf2.payload, rl.GridPatch)


def test_kind_mismatch(tmp_path, cube):
    path = tmp_path / "mk.json"
    path.write_text(json.dumps({
        "kind": "minkowski-problem",
        "normals": cube.normals.tolist(),
        "areas": cube.areas.tolist(),
    }))
    with pytest.raises(SchemaError) as err:
        io.parse_problem(path, kind="ma-problem")
    assert err.value.constraint == "kind.match"


def write_report(path, report):
    """Write a report dict as canonical JSON (sorted keys, repr floats)."""
    path.write_text(io.canonical_json(report), encoding="utf-8")


def read_report(path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_report_roundtrip(tmp_path):
    poly = shapes.random_hull(27, seed=2)  # 50 triangular faces
    assert len(poly.faces) == 50
    report = {
        "metrics": {
            "areas": poly.areas,
            "support_numbers": poly.support_numbers,
            "normals": poly.normals,
        },
        "note": "roundtrip",
    }
    path = tmp_path / "report.json"
    write_report(path, report)
    loaded = read_report(path)
    assert io.canonical_json(loaded) == io.canonical_json(report)
    # a second write of the parsed content is byte-identical
    path2 = tmp_path / "report2.json"
    write_report(path2, loaded)
    assert path.read_text() == path2.read_text()


def test_net_file_roundtrip(tmp_path, cube_net):
    path = tmp_path / "net.json"
    write_net(path, cube_net)
    net2 = io.read_net(path)
    assert len(net2.polygons) == 6
    assert net2.identifications == cube_net.identifications
    from ovaloid import intrinsic_metric as im

    assert im.validate_net(net2).ok


def _json_leaves():
    floats = st.one_of(st.floats(), st.sampled_from(
        [float("nan"), float("inf"), -float("inf"), -0.0, 1e16, 1e-5, 0.1]))
    return st.one_of(
        st.none(), st.booleans(), st.integers(), floats, st.text(),
        st.sampled_from(["", "tab\tquote\"back\\slash", "\u00e9\u4e2d\U0001f600", "\x00\x1f"]),
        floats.map(np.float64), st.floats(width=32).map(np.float32), st.integers(-2**31, 2**31 - 1).map(np.int32),
        st.booleans().map(np.bool_), st.complex_numbers(allow_nan=False),
        st.lists(floats, max_size=4).map(np.array),
        st.lists(st.integers(-9, 9), max_size=3).map(lambda v: np.array(v + v).reshape(2, -1)),
    )


def _json_trees():
    keys = st.one_of(st.text(max_size=4), st.integers(-3, 3), st.booleans(), st.none(),
                     st.floats(allow_nan=False), st.tuples(st.integers(0, 2)))
    return st.recursive(_json_leaves(), lambda inner: st.one_of(
        st.lists(inner, max_size=5), st.lists(inner, max_size=5).map(tuple),
        st.lists(st.floats(), max_size=5), st.lists(st.integers(), max_size=5),
        st.dictionaries(keys, inner, max_size=5)), max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(obj=_json_trees())
def test_canonical_json_matches_the_standard_encoder(obj):
    """The same bytes as ``json.dumps(..., sort_keys=True, indent=2)`` on
    the plain form, or the same exception."""
    try:
        expected = canonical_json(obj)
    except Exception as exc:  # noqa: BLE001 - the reference's error is the contract
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            io.canonical_json(obj)
    else:
        assert io.canonical_json(obj) == expected


def test_off_fast_path_matches_line_parse(tmp_path):
    """The all-at-once OFF parse against the line-by-line one, on triangles,
    mixed polygons, comments and trailing colour values."""
    poly = shapes.random_hull(30, seed=3)
    path = tmp_path / "hull.off"
    io.write_off(path, poly.vertices, poly.faces)
    mixed = tmp_path / "mixed.off"
    mixed.write_text("# comment\nOFF\n5 3 0\n0 0 0\n1 0 0  # corner\n1 1 0\n0 1 0\n"
                     "0.5 0.5 1\n4 0 1 2 3\n3 0 1 4 255 0 0\n\n3 1 2 4\n")
    for p in (path, mixed):
        lines = [(ln, body) for ln, raw in enumerate(p.read_text().splitlines(), start=1)
                 if (body := raw.split("#", 1)[0].strip())]
        nv, nf, _ = map(int, lines[1][1].split())
        verts, faces = io.read_off(p)
        ref_verts, ref_faces = io._off_lines(p, lines[2:], nv, nf)
        np.testing.assert_array_equal(verts, ref_verts)
        assert faces == ref_faces
    assert faces == [(0, 1, 2, 3), (0, 1, 4), (1, 2, 4)]


@pytest.mark.parametrize("text, line", [
    ("OFF\n-1 0 0\n", 2), ("OFF\n1 1 0\n0 0 nan\n3 0 0 0\n", 3),
    ("OFF\n1 1 0\n0 0 0\n3 0 0 x\n", 4), ("OFF\n1 1 0\n0 0 0\n3 0 0 1\n", 4),
    ("OFF\n1 1 0\n0 0 0\n4 0 0 0\n", 4), ("OFF\n1 1 0\n0 0\n3 0 0 0\n", 3),
    ("OFF\n1 1 0\n0 0 0\n3 0 0 99999999999999999999999\n", 4)])
def test_malformed_off_names_its_line(tmp_path, text, line):
    path = tmp_path / "bad.off"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        io.read_off(path)
    assert err.value.line == line
