"""Self-test of the benchmark's independent checks.

Each check must accept the CLI's answer on a small instance and reject the
same answer perturbed just beyond its tolerance.  Run from the root of a
checkout (it is not part of the package's test suite):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
import workloads
from run import OUT, load_cli


def _answer(cli, op, work):
    report = work / f"{op.name}.report.json"
    code = cli.run([*op.argv, "--out", str(report)])
    with open(report, encoding="utf-8") as fh:
        return json.load(fh)["metrics"], code


def _rejects(check, *args):
    try:
        check(*args)
    except checks.CheckFailed:
        return True
    return False


def main():
    cli = load_cli()
    rng = np.random.default_rng(2024)
    results = []

    def case(name, accepted, rejected):
        ok = accepted and rejected
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {name} (accepts the answer: {accepted},"
              f" rejects the perturbed one: {rejected})")

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        work = Path(tmp)

        for weight, tol, value_tol, mass_tol in ((None, None, 1e-7, 1e-8),
                                                 ("gauss", "1e-8", 1e-6, 1e-6),
                                                 ("gauss_z", "1e-5", 1e-4, 1e-4)):
            problem, v_gen = workloads.inputs.ma_instance(rng, 3, 3.0, weight)
            path = work / f"ma-{weight}.json"
            path.write_text(json.dumps(problem))
            report = work / f"ma-{weight}.report.json"
            cli.run(["ma", "solve", str(path), "--out", str(report)]
                    + (["--tol", tol] if tol else []))
            metrics = json.loads(report.read_text())["metrics"]
            args = (problem, v_gen, weight, value_tol, mass_tol)
            accepted = not _rejects(checks.check_ma, metrics, *args)
            bad = copy.deepcopy(metrics)
            bad["values"][0] += 10 * value_tol
            rejected = _rejects(checks.check_ma, bad, *args)
            # a wrong generating value makes only the mass check fail
            shifted = v_gen.copy()
            shifted[0] = bad["values"][0]
            rejected &= _rejects(checks.check_ma, bad, problem, shifted, weight,
                                 value_tol, mass_tol)
            case(f"ma solve, weight {weight}", accepted, rejected)

        op = workloads._minkowski_op(rng, work, "minkowski", "small", 20)
        _answer(cli, op, work)
        verts, faces = checks.read_off(op.side_file)
        accepted = not _rejects(op.check, None, 0, op.side_file)
        scaled = work / "scaled.off"
        workloads.inputs.write_off(scaled, verts * (1 + 1e-6), faces)
        case("minkowski solve", accepted, _rejects(op.check, None, 0, scaled))

        op = workloads._rigidity_op(rng, work, "rigidity", "small", 20)
        metrics, code = _answer(cli, op, work)
        accepted = not _rejects(op.check, metrics, code, None)
        bad = dict(metrics, kernel_dim=7, nontrivial_dim=1)
        case("rigidity analyze, sphere", accepted, _rejects(op.check, bad, 1, None))

        op = workloads._cube_with_centres_op(work)
        metrics, code = _answer(cli, op, work)
        accepted = not _rejects(op.check, metrics, code, None)
        bad = dict(metrics, nontrivial_dim=5)
        case("rigidity analyze, cube with face centres", accepted,
             _rejects(op.check, bad, code, None))

        problem, exact, h = workloads.inputs.flex_instance(rng, 17)
        path = work / "defo.json"
        path.write_text(json.dumps(problem))
        report = work / "defo.report.json"
        cli.run(["rigidity", "defo", "solve", str(path), "--out", str(report)])
        metrics = json.loads(report.read_text())["metrics"]
        accepted = not _rejects(checks.check_defo, metrics, exact, h)
        bad = copy.deepcopy(metrics)
        bad["zeta"][8][8] += 0.5 * h * h
        case("rigidity defo solve", accepted,
             _rejects(checks.check_defo, bad, exact, h))

        op = workloads._geodesic_ops(rng, work, "geodesic", "small", 30, 1)[0]
        metrics, code = _answer(cli, op, work)
        accepted = not _rejects(op.check, metrics, code, None)
        verts, faces = checks.read_off(op.argv[2])
        src, dst = (int(op.argv[k][1:]) for k in (4, 6))
        chord = float(np.linalg.norm(verts[src] - verts[dst]))
        graph = checks.edge_graph_distance(verts, faces, src, dst)
        rejected = (_rejects(op.check, {"length": chord * (1 - 1e-9)}, 0, None)
                    and _rejects(op.check, {"length": graph * (1 + 1e-9)}, 0, None))
        case("net geodesic, random hull", accepted, rejected)

        op = workloads._cube_geodesic_op(work)
        metrics, code = _answer(cli, op, work)
        accepted = not _rejects(op.check, metrics, code, None)
        bad = {"length": math.sqrt(5.0) + 1e-8}
        case("net geodesic, cube", accepted, _rejects(op.check, bad, code, None))

    sys.exit(0 if all(results) else 1)


if __name__ == "__main__":
    main()
