"""Random small inputs through the whole CLI: every run ends in exit code 0,
1 or 2, and no exception escapes ``cli.run``."""

import json

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from ovaloid import cli, core, intrinsic_metric as im, shapes

FUZZ = settings(max_examples=30, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

coordinate = st.one_of(
    st.integers(-2, 2).map(float),
    st.floats(-3.0, 3.0, allow_nan=False),
    st.sampled_from([0.0, 1e-300, float("nan"), float("inf")]),
)
vector = st.lists(coordinate, min_size=2, max_size=4)
vectors = st.lists(vector, min_size=0, max_size=8)
numbers = st.lists(coordinate, min_size=0, max_size=8)
# what a field that should hold a JSON object may hold instead
non_object = st.one_of(vectors, coordinate, st.text(max_size=8), st.booleans(),
                       st.none())


def _run(tmp_path, name, text, argv, extra=()):
    path = tmp_path / name
    path.write_text(text)
    code = cli.run(argv + [str(path), *extra, "--max-iter", "8",
                           "--out", str(tmp_path / "report.json")])
    assert code in (0, 1, 2)


def _off_text(verts, faces):
    lines = ["OFF", f"{len(verts)} {len(faces)} 0"]
    lines += [" ".join(repr(float(c)) for c in v) for v in verts]
    lines += [" ".join(str(int(i)) for i in [len(f), *f]) for f in faces]
    return "\n".join(lines) + "\n"


@st.composite
def off_meshes(draw):
    if draw(st.booleans()):
        # a closed triangulated hull, perhaps with one triangle turned over
        hull = shapes.random_hull(draw(st.integers(4, 10)),
                                  seed=draw(st.integers(0, 2**16)))
        tris = core.fan_triangles(hull.faces)
        if draw(st.booleans()):
            tris[0] = tris[0][::-1]
        return _off_text(hull.vertices, tris)
    n = draw(st.integers(3, 7))
    verts = draw(st.lists(st.tuples(coordinate, coordinate, coordinate),
                          min_size=n, max_size=n))
    faces = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=3, max_size=4),
                          min_size=1, max_size=10))
    return _off_text(verts, faces)


@FUZZ
@given(text=off_meshes(),
       command=st.sampled_from([["net", "validate"], ["net", "curvature"],
                                ["rigidity", "analyze"]]))
def test_off_meshes(tmp_path, text, command):
    _run(tmp_path, "mesh.off", text, command)


@st.composite
def nets(draw):
    index = st.integers(-1, 6)
    if draw(st.integers(0, 4)) == 0:
        body = {"polygons": draw(non_object), "identifications": draw(non_object)}
    elif draw(st.booleans()):
        # the net of a small hull, one identification perhaps pointed elsewhere
        hull = shapes.random_hull(draw(st.integers(4, 8)),
                                  seed=draw(st.integers(0, 2**16)))
        net = im.net_from_polytope(hull)
        glued = [[list(a), list(b)] for a, b in net.identifications]
        if draw(st.booleans()):
            glued[0][draw(st.integers(0, 1))] = [draw(index), draw(index)]
        body = {"polygons": [p.tolist() for p in net.polygons],
                "identifications": glued}
    else:
        body = {"polygons": draw(st.lists(st.lists(st.tuples(coordinate, coordinate),
                                                   min_size=2, max_size=5),
                                          max_size=3)),
                "identifications": draw(st.lists(
                    st.tuples(st.tuples(index, index), st.tuples(index, index)),
                    max_size=6))}
    return json.dumps(body)


POINTS = ["0:0.1:0.05", "1:0.2:0.1", "0:0:0", "7:0.1:0.1", "0:9:9", "v0", "x"]


@FUZZ
@given(text=nets(), action=st.sampled_from(["validate", "curvature", "geodesic"]),
       src=st.sampled_from(POINTS), dst=st.sampled_from(POINTS))
def test_nets(tmp_path, text, action, src, dst):
    extra = ["--src", src, "--dst", dst] if action == "geodesic" else []
    _run(tmp_path, "net.json", text, ["net", action], extra)


@st.composite
def minkowski_problems(draw):
    shape = draw(st.sampled_from(["hull", "coplanar", "normals", "curvature", "junk"]))
    if shape == "hull":
        # a closed problem, its areas perhaps a little off
        hull = shapes.random_hull(draw(st.integers(4, 10)),
                                  seed=draw(st.integers(0, 2**16)))
        areas = hull.areas * (1.0 + draw(st.sampled_from([0.0, 1e-10, 1e-3]))
                              * (hull.normals[:, 0] > 0))
        body = {"normals": hull.normals.tolist(), "areas": areas.tolist()}
    elif shape == "coplanar":
        # balanced normals in one plane, tilted from the xy-plane: closed,
        # but no support numbers bound a body with them
        m = draw(st.integers(4, 8))
        t = 2 * np.pi * np.arange(m) / m + draw(st.floats(0.0, 1.0))
        tilt = draw(st.sampled_from([0.0, 0.3, np.pi / 2]))
        normals = np.column_stack([np.cos(t), np.sin(t) * np.cos(tilt),
                                   np.sin(t) * np.sin(tilt)])
        body = {"normals": normals.tolist(), "areas": [1.0] * m}
    elif shape == "normals":
        body = {"normals": draw(vectors), "areas": draw(numbers)}
    elif shape == "curvature":
        body = {"curvature": {"centers": draw(vectors),
                              "cell_areas": draw(numbers), "K": draw(numbers)}}
    else:
        body = {"curvature": draw(non_object)}
    return json.dumps({"kind": "minkowski-problem", **body})


@FUZZ
@given(text=minkowski_problems(), action=st.sampled_from(["check", "solve"]))
def test_minkowski_problems(tmp_path, text, action):
    _run(tmp_path, "mk.json", text, ["minkowski", action])


@st.composite
def rigidity_problems(draw):
    if draw(st.integers(0, 4)) == 0:
        body = {draw(st.sampled_from(["grid", "surface"])): draw(non_object)}
    elif draw(st.booleans()):
        ny, nx = draw(st.integers(2, 5)), draw(st.integers(2, 5))
        grid = st.lists(st.lists(coordinate, min_size=nx, max_size=nx),
                        min_size=ny, max_size=ny)
        body = {"grid": {"h": draw(coordinate), "z": draw(grid),
                         "zeta": draw(grid)}}
    else:
        body = {"surface": {
            "vertices": draw(vectors),
            "triangles": draw(st.lists(st.lists(st.integers(-1, 6), min_size=2,
                                                max_size=4), max_size=6))}}
    return json.dumps({"kind": "rigidity-problem", **body})


@FUZZ
@given(text=rigidity_problems(), action=st.sampled_from(["solve", "check"]))
def test_rigidity_problems(tmp_path, text, action):
    _run(tmp_path, "grid.json", text, ["rigidity", "defo", action])


THETAS = [None, "exp(-(p1**2 + p2**2))", "exp(-0.3*z)*exp(-(p1**2 + p2**2))",
          "1", "p1", "1 / z", "exp(", "foo(p1)", "'text'", "exp(1000*p1)"]


@st.composite
def ma_problems(draw):
    junk = st.one_of(vectors, numbers, st.text(max_size=3), st.none())
    if draw(st.integers(0, 4)) == 0:
        # a top level that is not an object
        return json.dumps(draw(st.one_of(junk, coordinate, st.booleans())))
    if draw(st.booleans()):
        # a square grid with 1 or 4 interior nodes, its data perhaps spoilt
        side = draw(st.integers(2, 3))
        ticks = np.linspace(0.0, 3.0, side + 1)
        pts = np.array([(x, y) for y in ticks for x in ticks])
        edge = (pts == 0.0).any(axis=1) | (pts == 3.0).any(axis=1)
        n = int((~edge).sum())
        body = {
            "domain": [[0, 0], [3, 0], [3, 3], [0, 3]],
            "nodes": pts[~edge].tolist(),
            "masses": draw(st.lists(st.sampled_from([0.3, 1.0, 2.5, 0.0, -1.0]),
                                    min_size=n, max_size=n)),
            "boundary": [[x, y, draw(coordinate)] for x, y in pts[edge]],
        }
    else:
        body = {"domain": draw(junk), "nodes": draw(junk),
                "masses": draw(junk), "boundary": draw(junk)}
    body["theta"] = draw(st.sampled_from(THETAS))
    body["theta_z_dependent"] = draw(st.booleans())
    body["mass_bound"] = draw(st.sampled_from([None, 3.141592653589793, -1.0,
                                               "pi"]))
    return json.dumps({"kind": "ma-problem", **body})


@FUZZ
@given(text=ma_problems())
def test_ma_problems(tmp_path, text):
    _run(tmp_path, "ma.json", text, ["ma", "solve"])


def _flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


@st.composite
def shared_flags(draw, homotopy):
    """(argv, valid): --tol, --max-iter, --seed and perhaps --homotopy, each
    left out or set to a number, valid or not."""
    tol = draw(st.one_of(st.floats(), st.sampled_from(
        [0.0, -0.0, -1.0, 1e-8, float("nan"), float("inf"), float("-inf")])))
    count = st.integers(-3, 4)
    argv = draw(_flag("--tol", st.just(repr(tol))))
    argv += draw(_flag("--max-iter", count.map(str)))
    argv += draw(_flag("--seed", count.map(str)))
    if homotopy:
        argv += draw(_flag("--homotopy", count.map(str)))
    values = [float(v) for v in argv[1::2]]
    return argv, all(np.isfinite(v) and v >= 0 for v in values)


MA_TEXT = json.dumps({
    "kind": "ma-problem", "domain": [[0, 0], [2, 0], [2, 2], [0, 2]],
    "nodes": [[1.0, 1.0], [0.8, 1.2]], "masses": [0.7, 0.5],
    "boundary": [[0, 0, 0.0], [2, 0, 0.0], [2, 2, 0.0], [0, 2, 0.0]],
})


@FUZZ
@given(flags=shared_flags(homotopy=True))
def test_ma_solve_shared_flags(tmp_path, flags):
    argv, valid = flags
    path = tmp_path / "ma.json"
    path.write_text(MA_TEXT)
    code = cli.run(["ma", "solve", str(path), *argv,
                    "--out", str(tmp_path / "report.json")])
    assert code in ((0, 1) if valid else (2,))


@FUZZ
@given(flags=shared_flags(homotopy=False))
def test_minkowski_roundtrip_shared_flags(tmp_path, flags):
    argv, valid = flags
    code = cli.run(["minkowski", "roundtrip", "--faces", "8", *argv,
                    "--out", str(tmp_path / "report.json")])
    assert code in ((0, 1) if valid else (2,))
