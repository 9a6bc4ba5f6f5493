"""File formats: OFF meshes, JSON problem files, JSON reports.

Problem files are UTF-8 JSON with a top-level "kind" discriminator; all
reals are serialized with repr precision (17 significant digits).  The OFF
writer emits exactly "OFF\\n<nv> <nf> 0\\n" as its header.
"""

from __future__ import annotations

import itertools
import json
import math
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import OpenAreaVector, ParseError, SchemaError


# ---------------------------------------------------------------------------
# OFF meshes


def read_off(path):
    """Vertices and face index cycles from an ASCII OFF file.

    All vertex lines are converted at once, and so are all face lines; the
    line-by-line parse runs only on a malformed file, to name its line.
    """
    lines = _read_text(path).split("\n")
    tokens = []
    for ln, raw in enumerate(lines, start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            tokens.append((ln, body))
    if not tokens:
        raise ParseError("empty OFF file", path=path)
    ln0, header = tokens[0]
    if header != "OFF":
        raise ParseError("missing OFF header", path=path, line=ln0)
    if len(tokens) < 2:
        raise ParseError("missing element counts", path=path, line=ln0)
    ln1, counts = tokens[1]
    parts = counts.split()
    if len(parts) != 3:
        raise ParseError("element count line needs 3 integers", path=path, line=ln1)
    try:
        nv, nf, _ = (int(p) for p in parts)
    except ValueError as exc:
        raise ParseError(f"bad element counts: {exc}", path=path, line=ln1) from exc
    if nv < 0 or nf < 0:
        raise ParseError("element counts must not be negative", path=path, line=ln1)
    body = tokens[2:]
    if len(body) < nv + nf:
        raise ParseError(
            f"expected {nv} vertex and {nf} face lines, found {len(body)}",
            path=path, line=ln1,
        )
    parsed = _off_body(body, nv, nf)
    return parsed if parsed is not None else _off_lines(path, body, nv, nf)


def _off_body(body, nv, nf):
    """Vertices and faces of the OFF body lines, each kind converted at once;
    None when a line is malformed.  Tokens after a face's indices (colours)
    are ignored."""
    rows = [text.split() for _, text in body[:nv + nf]]
    if any(len(row) != 3 for row in rows[:nv]):
        return None
    try:
        verts = np.array(list(map(float, itertools.chain.from_iterable(rows[:nv]))))
        cnt = np.array([int(row[0]) for row in rows[nv:]], dtype=np.intp)
        if not np.isfinite(verts).all() or (cnt < 0).any():
            return None
        flat = list(map(int, itertools.chain.from_iterable(
            row[1:1 + c] for row, c in zip(rows[nv:], cnt.tolist()))))
        idx = np.array(flat, dtype=np.intp)
    except (ValueError, OverflowError):
        return None
    if len(idx) != cnt.sum() or ((idx < 0) | (idx >= nv)).any():
        return None
    ends = np.cumsum(cnt).tolist()
    faces = [tuple(flat[b - c:b]) for b, c in zip(ends, cnt.tolist())]
    return verts.reshape(nv, 3), faces


def _off_lines(path, body, nv, nf):
    """``read_off``'s body one line at a time, naming the first bad line."""
    verts = np.empty((nv, 3))
    for k in range(nv):
        ln, text = body[k]
        parts = text.split()
        if len(parts) != 3:
            raise ParseError("vertex line needs 3 coordinates", path=path, line=ln)
        try:
            verts[k] = [float(p) for p in parts]
        except ValueError as exc:
            raise ParseError(f"bad coordinate: {exc}", path=path, line=ln) from exc
    bad = np.flatnonzero(~np.isfinite(verts).all(axis=1))
    if len(bad):
        raise ParseError("non-finite coordinate", path=path, line=body[bad[0]][0])
    faces = []
    for k in range(nf):
        ln, text = body[nv + k]
        parts = text.split()
        try:
            cnt = int(parts[0])
            idx = [int(p) for p in parts[1 : 1 + cnt]]
        except (ValueError, IndexError) as exc:
            raise ParseError(f"bad face line: {exc}", path=path, line=ln) from exc
        if len(idx) != cnt:
            raise ParseError(
                f"face announces {cnt} indices but carries {len(idx)}",
                path=path, line=ln,
            )
        if any(i < 0 or i >= nv for i in idx):
            raise ParseError("face index out of range", path=path, line=ln)
        faces.append(tuple(idx))
    return verts, faces


def write_off(path, vertices, faces):
    """Write an OFF mesh: coordinates with 17 significant digits, each face
    as its vertex count and its integer vertex ids."""
    rows = np.asarray(vertices, dtype=float).tolist()
    body = "".join([f"{x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in rows])
    cycles = "".join([" ".join((str(len(cyc)), *map(str, map(int, cyc)))) + "\n"
                      for cyc in faces])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"OFF\n{len(rows)} {len(faces)} 0\n{body}{cycles}")


# ---------------------------------------------------------------------------
# theta expressions

_THETA_NAMES = {
    "exp": np.exp, "sqrt": np.sqrt, "log": np.log,
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "abs": np.abs, "minimum": np.minimum, "maximum": np.maximum,
    "hypot": np.hypot, "pi": math.pi, "e": math.e,
}


def compile_theta(expression):
    """Compile a weight expression in variables p1, p2, z, x1, x2.

    The weight returns one float per slope, also for an expression that
    does not depend on p.  An expression that does not compile is
    ``theta.syntax``; one that cannot be evaluated (a division by zero, an
    overflow, a string value) raises ``theta.eval`` when it is called.
    """
    try:
        code = compile(expression, "<theta>", "eval")
    except (SyntaxError, TypeError, ValueError) as exc:
        raise SchemaError("theta.syntax", f"theta does not compile: {exc}") from exc
    for name in code.co_names:
        if name not in _THETA_NAMES and name not in ("p1", "p2", "z", "x1", "x2"):
            raise SchemaError("theta.names", f"unknown name {name!r} in theta")

    def theta(p1, p2, z, x1, x2):
        env = dict(_THETA_NAMES)
        env.update({"p1": p1, "p2": p2, "z": z, "x1": x1, "x2": x2})
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                value = np.asarray(eval(code, {"__builtins__": {}}, env), dtype=float)
            if value.shape != np.shape(p1):
                value = np.broadcast_to(value, np.shape(p1))
            return value
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise SchemaError("theta.eval", f"theta cannot be evaluated: {exc}") from exc

    return theta


# ---------------------------------------------------------------------------
# problem files


def _need(data, field, constraint):
    if not isinstance(data, dict):
        raise SchemaError(constraint, f"expected an object holding {field!r}")
    if field not in data:
        raise SchemaError(constraint, f"missing field {field!r}")
    return data[field]


def _read_text(path):
    """The file's UTF-8 text; a ParseError naming the path when the file
    exists but cannot be read as text (a directory, an undecodable byte)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise ParseError(f"cannot read: {exc.strerror}", path=path) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: byte {exc.object[exc.start]:#04x} "
                         f"at offset {exc.start}", path=path) from exc


def _load_json(path):
    """The JSON object in the file; ``json.object`` when the top level is not
    one."""
    try:
        data = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, path=path, line=exc.lineno) from exc
    if not isinstance(data, dict):
        raise SchemaError("json.object", "the file must hold a JSON object")
    return data


def parse_problem(path, kind=None):
    """The checked object a problem file's command runs: ``read_off``'s
    (vertices, faces), an ``MAProblem``, a ``MinkowskiProblem`` (from a
    curvature sample too; open areas pass, for ``minkowski check`` to
    report) or a ``GridPatch``.  ``kind`` checks/selects the schema."""
    if str(path).endswith(".off") or kind == "mesh":
        mesh = read_off(path)
        if kind not in (None, "mesh"):
            raise SchemaError("kind.match", f"expected {kind!r}, an OFF file holds a mesh")
        return mesh
    data = _load_json(path)
    file_kind = data.get("kind")
    if file_kind is None:
        raise SchemaError("kind.present", "problem JSON needs a 'kind' field")
    if kind is not None and file_kind != kind:
        raise SchemaError("kind.match", f"expected {kind!r}, file says {file_kind!r}")
    if file_kind == "ma-problem":
        return _parse_ma(data)
    if file_kind == "minkowski-problem":
        return _parse_minkowski(data)
    if file_kind == "rigidity-problem":
        return _parse_rigidity(data)
    raise SchemaError("kind.known", f"unknown kind {file_kind!r}")


def _real_array(data, field):
    """The field as a float array; ``ma.<field>`` when it is missing or is not
    a (possibly nested) list of numbers of one shape."""
    try:
        return np.asarray(_need(data, field, f"ma.{field}"), dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"ma.{field}", f"{field} must be numbers: {exc}") from exc


def _parse_ma(data):
    from .ma_solver import MAProblem

    domain, nodes, masses, boundary = (
        _real_array(data, field) for field in ("domain", "nodes", "masses", "boundary"))
    if boundary.ndim != 2 or boundary.shape[1] != 3:
        raise SchemaError("ma.boundary.shape", "boundary rows must be [x, y, value]")
    mass_bound = data.get("mass_bound")
    if mass_bound is not None and (not isinstance(mass_bound, (int, float))
                                   or isinstance(mass_bound, bool)):
        raise SchemaError("ma.mass_bound", "mass_bound must be a number")
    theta_src = data.get("theta")
    theta = compile_theta(theta_src) if theta_src else None
    # the weight depends on z exactly when its expression, which
    # compile_theta has checked, names z; a "theta_z_dependent" field is
    # not read
    z_dependent = bool(theta_src) and "z" in compile(theta_src, "<theta>", "eval").co_names
    # the geometric checks are MAProblem.validate, which solve_ma runs
    return MAProblem(
        domain=domain,
        interior_nodes=nodes,
        masses=masses,
        boundary_nodes=boundary[:, :2],
        boundary_values=boundary[:, 2],
        theta=theta,
        theta_z_dependent=z_dependent,
        mass_bound=mass_bound,
    )


def _parse_minkowski(data):
    from .minkowski_solver import CurvatureSample, MinkowskiProblem, discretize_curvature

    if "curvature" in data:
        cur = data["curvature"]
        centers = _need(cur, "centers", "minkowski.centers")
        cell_areas = _need(cur, "cell_areas", "minkowski.cell_areas")
        curvature = _need(cur, "K", "minkowski.K")
        try:
            return discretize_curvature(CurvatureSample(
                centers=np.asarray(centers, float),
                cell_areas=np.asarray(cell_areas, float),
                curvature=np.asarray(curvature, float),
            )).validate()
        except ValueError as exc:  # a bad sample, or a failed closing repair
            raise SchemaError("minkowski.curvature.valid", str(exc)) from exc
    normals = _need(data, "normals", "minkowski.normals")
    areas = _need(data, "areas", "minkowski.areas")
    try:
        problem = MinkowskiProblem(normals=np.asarray(normals, float),
                                   target_areas=np.asarray(areas, float))
        return problem.validate()
    except OpenAreaVector:
        # the closing test is the last one, so every other check has passed
        return problem
    except ValueError as exc:
        raise SchemaError("minkowski.valid", str(exc)) from exc


def _parse_rigidity(data):
    from .rigidity_lab import GridPatch

    grid = _need(data, "grid", "rigidity.grid")
    z = _need(grid, "z", "rigidity.grid.z")
    h = _need(grid, "h", "rigidity.grid.h")
    zeta = grid.get("zeta")
    try:
        z = np.asarray(z, dtype=float)
        zeta = np.zeros_like(z) if zeta is None else np.asarray(zeta, dtype=float)
        return GridPatch(h=float(h), z=z, zeta=zeta)
    except (TypeError, ValueError) as exc:  # MalformedGrid is a ValueError
        raise SchemaError("rigidity.grid.valid", str(exc)) from exc


# ---------------------------------------------------------------------------
# nets


def read_net(path):
    """MetricNet from JSON {"polygons": [...], "identifications": [...]}."""
    from .intrinsic_metric import MetricNet

    data = _load_json(path)
    polys = _need(data, "polygons", "net.polygons")
    idents = _need(data, "identifications", "net.identifications")
    try:
        return MetricNet(
            polygons=tuple(np.asarray(p, dtype=float) for p in polys),
            identifications=tuple(
                ((int(a), int(ea)), (int(b), int(eb)))
                for (a, ea), (b, eb) in idents
            ),
        )
    except (ValueError, TypeError) as exc:
        raise SchemaError("net.valid", str(exc)) from exc


# ---------------------------------------------------------------------------
# reports


def canonical_json(obj):
    """Canonical serialized form used for round-trip comparisons.

    The bytes of ``json.dumps(obj, sort_keys=True, indent=2) + "\n"`` once
    numpy arrays and scalars are lists and Python numbers and keys are
    ``str``, written without the pure-Python encoder that ``indent`` selects:
    a list of floats (or of ints) is one join of their reprs.
    """
    return _encode(obj, "\n") + "\n"


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _encode(obj, nl):
    """``obj`` as indented JSON, its nested lines starting with ``nl``."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return int.__repr__(int(obj))
    if isinstance(obj, (float, np.floating)):
        text = float.__repr__(float(obj))
        return _NON_FINITE.get(text, text)
    if isinstance(obj, np.ndarray):
        obj = list(obj.tolist())
    inner = nl + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        sep = "," + inner
        numbers = set(map(type, obj)) in ({float}, {int})
        text = sep.join(map(repr, obj)) if numbers else ""
        if not numbers or "n" in text:  # nan and inf are spelled otherwise
            text = sep.join(map(_encode, obj, itertools.repeat(inner)))
        return "[" + inner + text + nl + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = sorted({str(k): v for k, v in obj.items()}.items())
        return "{" + inner + ("," + inner).join(
            encode_basestring_ascii(k) + ": " + _encode(v, inner) for k, v in items) + nl + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
