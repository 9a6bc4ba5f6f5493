"""Acceptance suite: one test per release criterion, at fixed tolerances.

Each test prints a single PASS/FAIL line (visible with pytest -s) carrying
its wall-clock time; the stated runtime budgets are asserted as well.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import corner_point, grid_problem, random_face_point
from oracles import (
    angle_monotonicity_scan,
    brute_force_distance,
    constraint_residual,
    monte_carlo_cell_areas,
)
from ovaloid import core, intrinsic_metric as im, ma_solver as ma
from ovaloid import minkowski_solver as mk, rigidity_lab as rl, shapes
from ovaloid.errors import MinStepReached, NotEnvelopeVertex, OvaloidError


@contextmanager
def criterion(name, budget_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        dt = time.perf_counter() - t0
        print(f"\nACCEPTANCE {name}: FAIL ({dt:.1f}s)")
        raise
    dt = time.perf_counter() - t0
    print(f"\nACCEPTANCE {name}: PASS ({dt:.1f}s)")
    assert dt < budget_s, f"runtime {dt:.1f}s exceeds budget {budget_s}s"


def test_01_theorema_egregium():
    with criterion("01 theorema-egregium", 10.0):
        rng = np.random.default_rng(2024)
        worst_point = 0.0
        worst_total = 0.0
        for _ in range(100):
            n = int(rng.integers(6, 51))
            poly = shapes.random_hull(n, seed=int(rng.integers(0, 2**31)))
            net = im.net_from_polytope(poly)
            rep = im.vertex_curvatures(net)
            for lab, w in zip(rep.labels, rep.curvatures):
                worst_point = max(
                    worst_point, abs(w - core.normal_cone_area(poly, lab))
                )
            worst_total = max(worst_total, abs(rep.total - 4 * np.pi))
        assert worst_point <= 1e-9, worst_point
        assert worst_total <= 1e-9, worst_total


def test_02_net_validation():
    with criterion("02 net-validation", 1.0):
        cube_net = im.net_from_polytope(shapes.cube())
        tet_net = im.net_from_polytope(shapes.regular_tetrahedron())
        tri = np.array([[0, 0], [1, 0], [0.5, np.sqrt(3) / 2]])
        polys, ids = shapes.doubled_polygon(tri)
        dbl = im.MetricNet(polygons=polys, identifications=ids)
        for net in (cube_net, tet_net, dbl):
            rep = im.validate_net(net)
            assert rep.ok
            assert rep.sphere_topology_ok and rep.edge_lengths_ok
            assert rep.angle_sums_ok
        # every single-edge 1% perturbation is caught by condition (2)
        for k, ((a, ea), _) in enumerate(cube_net.identifications):
            p0, p1 = cube_net.edge_points(a, ea)
            e = (p1 - p0) / np.linalg.norm(p1 - p0)
            stretch = np.eye(2) + 0.01 * np.outer(e, e)
            polys = list(cube_net.polygons)
            polys[a] = (polys[a] - p0) @ stretch.T + p0
            bad = im.MetricNet(polygons=tuple(polys),
                               identifications=cube_net.identifications)
            rep = im.validate_net(bad)
            assert not rep.edge_lengths_ok
            assert any(m[0] == k for m in rep.edge_mismatches)


def test_03_geodesics_against_oracle():
    with criterion("03 geodesics", 30.0):
        net = im.net_from_polytope(shapes.cube())
        p, q = corner_point(net, 0), corner_point(net, 7)
        d = im.shortest_path(net, p, q).length
        assert abs(d - np.sqrt(5.0)) <= 1e-9
        assert abs(d - brute_force_distance(net, p, q, max_faces=4)) <= 1e-9
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = random_face_point(net, rng)
            b = random_face_point(net, rng)
            fast = im.shortest_path(net, a, b).length
            slow = brute_force_distance(net, a, b, max_faces=4)
            assert abs(fast - slow) <= 1e-9


def test_04_comparison_angle_monotonicity():
    with criterion("04 angle-monotonicity", 60.0):
        rng = np.random.default_rng(99)
        nets = [
            im.net_from_polytope(shapes.random_hull(13, seed=s))
            for s in (11, 12, 13)
        ]
        done = 0
        failed_scans = 0
        while done < 20:
            net = nets[done % len(nets)]
            O = random_face_point(net, rng)
            A = random_face_point(net, rng)
            B = random_face_point(net, rng)
            try:
                rep = angle_monotonicity_scan(net, O, A, B, samples=8)
            except OvaloidError:
                # a named failure skips the configuration; none occurs with
                # this seed, and a few more would point at a geodesic bug
                failed_scans += 1
                assert failed_scans <= 3, "too many failed angle scans"
                continue
            if not (0.25 < rep.alphas[0] < np.pi - 0.25):
                continue  # keep configurations numerically well-conditioned
            assert rep.violations == [], rep.violations
            done += 1


def test_05_ma_measures():
    with criterion("05 ma-measures", 120.0):
        # cone atom
        dom = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], float)
        nodes = np.vstack([[0.0, 0.0], dom])
        u = ma.PLConvexFunction(
            nodes=nodes, values=np.array([0.0, 1, 1, 1, 1]), domain=dom
        )
        assert abs(ma.ma_measure(u, 0).area - 2.0) <= 1e-12

        # quadratic total mass equals the domain area
        rng = np.random.default_rng(31)
        G = np.array([[0, 0], [2.5, 0], [2.5, 2], [0, 2]], float)
        inner = np.column_stack(
            [rng.uniform(0.3, 2.2, 14), rng.uniform(0.3, 1.7, 14)]
        )
        pts = np.vstack([G, inner])
        uq = ma.PLConvexFunction(
            nodes=pts, values=0.5 * (pts[:, 0] ** 2 + pts[:, 1] ** 2), domain=G
        )
        total = 0.0
        for i in range(len(pts)):
            try:
                total += ma.ma_measure(uq, i, clip=G).area
            except NotEnvelopeVertex:
                pass
        assert abs(total - 5.0) <= 1e-9

        # 20 random PL functions vs the Monte-Carlo subgradient oracle; the
        # sampling box hugs the cells so 10^6 draws put the estimator's sigma
        # well below the 1% gate for every compared cell
        for seed in range(20):
            rng = np.random.default_rng(5000 + seed)
            dom = np.array([[0, 0], [2, 0], [2, 2], [0, 2]], float)
            inner = rng.uniform(0.55, 1.45, (3, 2))
            nodes = np.vstack([dom, inner])
            values = 0.8 * ((nodes[:, 0] - 1) ** 2 + (nodes[:, 1] - 1) ** 2)
            values += rng.normal(0, 0.05, len(nodes))
            u = ma.PLConvexFunction(nodes=nodes, values=values, domain=dom)
            cells = {}
            for i in range(4, len(nodes)):
                try:
                    cells[i] = ma.ma_measure(u, i)
                except NotEnvelopeVertex:
                    pass
            if not cells:
                continue
            allv = np.vstack([c.polygon for c in cells.values()])
            lo, hi = allv.min(axis=0), allv.max(axis=0)
            pad = 0.02 * (hi - lo).max() + 1e-6
            box = np.array([lo - pad, hi + pad])
            box_area = float(np.prod(box[1] - box[0]))
            mc = monte_carlo_cell_areas(u, samples=1_000_000,
                                        seed=seed, box=box)
            for i, c in cells.items():
                if c.area >= 0.08 * box_area:
                    assert abs(mc[i] - c.area) / c.area <= 0.01, (seed, i)


def test_06_ma_inverse_roundtrip_and_maximum_principle():
    with criterion("06 ma-inverse", 120.0):
        from test_ma_solver import random_forward_instance

        for seed in range(10):
            problem, v_int = random_forward_instance(100 + seed, n_side=6)
            u = ma.solve_ma(problem, tol=1e-11)
            assert np.abs(u.values[: len(v_int)] - v_int).max() <= 1e-7
            hist = u.solve_info["residual_history"]
            assert all(
                hist[k + 1] <= hist[k] + 1e-9 for k in range(len(hist) - 1)
            )
        # 20 comparable pairs: doubled masses and lowered boundary
        for seed in range(20):
            problem, _ = random_forward_instance(300 + seed, n_side=4)
            heavier = ma.MAProblem(
                domain=problem.domain,
                interior_nodes=problem.interior_nodes,
                masses=2.0 * problem.masses,
                boundary_nodes=problem.boundary_nodes,
                boundary_values=problem.boundary_values - 0.1,
            )
            u1 = ma.solve_ma(heavier, tol=1e-10)
            u2 = ma.solve_ma(problem, tol=1e-10)
            rep = ma.maximum_principle_check(u1, u2, heavier, problem)
            assert rep.ok, (seed, rep.violations)


def test_07_homotopy_driver():
    with criterion("07 homotopy", 120.0):
        base = grid_problem(5, 5.0)  # 4x4 interior grid
        nin = len(base.interior_nodes)
        mu0 = np.full(nin, 1.0)
        w = np.linspace(1.0, 10.0, nin)
        mu1 = mu0 * w / w.mean()

        def skew(t):
            return ma.MAProblem(
                domain=base.domain, interior_nodes=base.interior_nodes,
                masses=(1 - t) * mu0 + t * mu1,
                boundary_nodes=base.boundary_nodes,
                boundary_values=base.boundary_values,
            )

        tol = 1e-10
        sols = ma.homotopy_solve(
            ma.HomotopySchedule(ts=np.linspace(0, 1, 6), problem_at=skew),
            tol=tol,
        )
        assert sols[-1].solve_info["final_residual"] <= tol
        assert len(sols[-1].solve_info["step_log"]) >= 6

        theta = lambda p1, p2, z, x1, x2: np.exp(-(p1**2 + p2**2))
        small = grid_problem(3, 3.0)
        nin2 = len(small.interior_nodes)

        def infeasible_family(t):
            total = np.pi * (0.3 + t)  # attainable bound pi is hit at t = 0.7
            return ma.MAProblem(
                domain=small.domain, interior_nodes=small.interior_nodes,
                masses=np.full(nin2, total / nin2),
                boundary_nodes=small.boundary_nodes,
                boundary_values=small.boundary_values,
                theta=theta, mass_bound=np.pi,
            )

        with pytest.raises(MinStepReached) as err:
            ma.homotopy_solve(
                ma.HomotopySchedule(ts=np.linspace(0, 1, 11),
                                    problem_at=infeasible_family),
                tol=1e-7, min_step=0.01, max_iter=150,
            )
        assert abs(err.value.last_t - 0.7) <= 0.05, err.value.last_t


def test_08_minkowski_roundtrip():
    with criterion("08 minkowski", 120.0):
        rng = np.random.default_rng(55)
        for k in range(20):
            npts = int(rng.integers(10, 35))  # up to 64 faces
            src = shapes.random_hull(npts, seed=7000 + k).centered()
            prob = mk.MinkowskiProblem(
                normals=src.normals, target_areas=src.areas
            )
            rec = mk.solve_minkowski(prob, tol=1e-9)
            rel = np.max(
                np.abs(rec.support_numbers - src.support_numbers)
                / np.abs(src.support_numbers)
            )
            assert rel <= 1e-6, (k, rel)
            vol = rec.volume()
            assert abs(vol - (rec.areas @ rec.support_numbers) / 3.0) <= 1e-9 * vol
        # finite-difference gradient check: d(vol)/dh_i = A_i
        src = shapes.random_hull(14, seed=77)
        n, h = src.normals, src.support_numbers
        base = core.polytope_from_support(n, h)
        eps = 1e-6
        for i in range(len(n)):
            hp, hm = h.copy(), h.copy()
            hp[i] += eps
            hm[i] -= eps
            fd = (
                core.polytope_from_support(n, hp).volume()
                - core.polytope_from_support(n, hm).volume()
            ) / (2 * eps)
            assert abs(fd - base.areas[i]) <= 1e-6


def test_09_rigidity_dimensions():
    with criterion("09 rigidity", 30.0):
        oct_p = shapes.octahedron()
        surf = rl.TriangulatedSurface(
            vertices=oct_p.vertices, triangles=core.fan_triangles(oct_p.faces)
        )
        assert rl.bending_space(surf).kernel_dim == 6
        ico = shapes.icosahedron()
        surf2 = rl.TriangulatedSurface(
            vertices=ico.vertices, triangles=core.fan_triangles(ico.faces)
        )
        assert rl.bending_space(surf2).kernel_dim == 6
        v, t = shapes.cube_with_face_centers()
        surf3 = rl.TriangulatedSurface(vertices=v, triangles=t)
        assert rl.bending_space(surf3).nontrivial_dim == 6
        rng = np.random.default_rng(0)
        for _ in range(100):
            a, b = rng.normal(size=3), rng.normal(size=3)
            tau = np.cross(a, surf2.vertices) + b
            assert constraint_residual(surf2, tau) <= 1e-12


def test_10_flex_equation():
    with criterion("10 flex-equation", 60.0):
        gamma = 0.2
        mu = np.sqrt(1 - gamma**2)
        exact = lambda X, Y: np.exp(X + gamma * Y) * np.cos(mu * Y)
        errs = []
        for n in (9, 17, 33):
            xs = np.linspace(0, 1, n)
            X, Y = np.meshgrid(xs, xs)
            z = 0.5 * (X**2 + Y**2) + gamma * X * Y
            sol = rl.solve_defo(z, xs[1] - xs[0], exact(X, Y))
            errs.append(np.abs(sol.zeta - exact(X, Y)).max())
        for k in range(2):
            order = np.log2(errs[k] / errs[k + 1])
            assert abs(order - 2.0) <= 0.3, order
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = 15
            xs = np.linspace(0, 1, n)
            X, Y = np.meshgrid(xs, xs)
            ax, ay = rng.uniform(0.5, 2.0, 2)
            gxy = rng.uniform(-0.4, 0.4) * np.sqrt(ax * ay)
            z = 0.5 * (ax * X**2 + ay * Y**2) + gxy * X * Y
            sol = rl.solve_defo(z, xs[1] - xs[0], rng.normal(0, 1, (n, n)))
            rep = rl.main_lemma_check(sol, tol=1e-8)
            assert rep.ok, rep.violations


def test_11_liouville_probe():
    with criterion("11 liouville", 60.0):
        rows = ma.liouville_probe(
            [1.0, 4.0], f=1.0, spacing=0.5, bump_height=1.0,
            window_halfwidth=0.5,
        )
        assert rows[1]["deviation"] < rows[0]["deviation"], rows
