"""Benchmark of the ovaloid command line, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ma-grid --seed 1 --seconds 20 --trace 0

It builds the workload's problem files from the seed, times every CLI call
(``ovaloid.cli.run``, in this process) from outside, checks each report
against ``checks`` and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the package's
functions are wrapped (see ``tracing``) and the metrics are per layer.
Details of the run go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_RUNS = 5      # fresh interpreters timed for setup_s
MIN_ROUNDS = 3      # every call is timed at least this often


def load_cli():
    """Import ``ovaloid.cli`` from this checkout's sources, or exit."""
    if not (SRC / "ovaloid" / "cli.py").is_file():
        sys.exit(f"perfbench: no ovaloid sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from ovaloid import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: ovaloid was imported from {cli.__file__}")
    return cli


def setup_seconds(runs=SETUP_RUNS):
    """Median time for a fresh interpreter to import the CLI and build its
    parser.  One untimed run first writes the bytecode of a new checkout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import ovaloid.cli as c; c.build_parser()"]
    subprocess.run(cmd, env=env, check=True)
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def interleave(ops):
    """Spread the large tier evenly among the small one."""
    small = [op for op in ops if op.tier == "small"]
    large = [op for op in ops if op.tier == "large"]
    keyed = [(k / len(small), op) for k, op in enumerate(small)]
    keyed += [((k + 0.5) / len(large), op) for k, op in enumerate(large)]
    return [op for _, op in sorted(keyed, key=lambda item: item[0])]


def call(cli, argv):
    """Exit code of one CLI call, or the exception it raised."""
    try:
        return cli.run(argv)
    except Exception as exc:  # a traceback is a failed call, not a crash
        return exc


def warm_up(cli, ops, work):
    """Run the first call of each command once, untimed."""
    seen = set()
    for op in ops:
        command = tuple(op.argv[:2])
        if command not in seen:
            seen.add(command)
            call(cli, [*op.argv, "--out", str(work / "warm-up.json")])


def run_rounds(cli, ops, work, seconds):
    """Whole rounds of every call, at least MIN_ROUNDS, for about ``seconds``.

    Returns per call name the list of its times and a list of
    (round, op, exit code or exception) for the checks.
    """
    times = {op.name: [] for op in ops}
    results = []
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or (
            (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds):
        for op in ops:
            report = work / f"r{rounds}-{op.name}.report.json"
            gc.collect()
            t0 = time.perf_counter()
            code = call(cli, [*op.argv, "--out", str(report)])
            times[op.name].append(time.perf_counter() - t0)
            side = None
            if op.side_file and os.path.exists(op.side_file):
                side = work / f"r{rounds}-{op.name}.side"
                os.replace(op.side_file, side)
            results.append((rounds, op, code, report, side))
        rounds += 1
    return times, results, rounds


def check_all(results):
    """(failed calls, wrong outputs, reports by layer); reasons go to stderr."""
    import checks

    failed = wrong = 0
    reports = {}
    for rnd, op, code, report, side in results:
        if isinstance(code, Exception) or code != op.expect:
            failed += 1
            print(f"perfbench: round {rnd} {op.name}: exit {code!r}, expected "
                  f"{op.expect}", file=sys.stderr)
            continue
        try:
            with open(report, encoding="utf-8") as fh:
                metrics = json.load(fh)["metrics"]
            op.check(metrics, code, side)
        except (checks.CheckFailed, KeyError, ValueError, OSError) as exc:
            failed += 1
            wrong += 1
            print(f"perfbench: round {rnd} {op.name}: {exc}", file=sys.stderr)
            continue
        reports.setdefault(op.argv[0], []).append(metrics)
    return failed, wrong, reports


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    import numpy as np

    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"known: {', '.join(WORKLOADS)}")
    work = OUT / args.workload
    work.mkdir(parents=True, exist_ok=True)
    ops = interleave(WORKLOADS[args.workload](np.random.default_rng(args.seed),
                                              work))

    setup = None if args.trace else setup_seconds()
    warm_up(cli, ops, work)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        times, results, rounds = run_rounds(cli, ops, work, args.seconds)
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, wrong, reports = check_all(results)

    # each sample is one round's total over a tier, several seconds of work
    per_round = {tier: [sum(times[op.name][r] for op in ops if op.tier == tier)
                        for r in range(rounds)] for tier in ("small", "large")}
    tier = {name: statistics.median(t) for name, t in per_round.items()}
    wall = statistics.median(map(sum, zip(*per_round.values())))
    if tracer:
        values = tracing.layer_values(tracer.stats, reports)
        metrics = {name: {"value": _per_round(value, unit, rounds), "unit": unit}
                   for name, (value, unit) in values.items()}
    else:
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "small_s": {"value": tier["small"], "unit": "s"},
            "large_s": {"value": tier["large"], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": rounds, "wall_s": wall, "times_s": times,
        "metrics": metrics,
    }
    if tracer:
        detail["absent"] = tracer.absent
        detail["stats"] = [[name, parent, *rec]
                           for (name, parent), rec in sorted(
                               tracer.stats.items(), key=lambda kv: -kv[1][2])]
    suffix = "-trace" if args.trace else ""
    with open(OUT / f"{args.workload}-seed{args.seed}{suffix}.json", "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    if tracer and tracer.absent:
        print(f"perfbench: absent from the package: {', '.join(tracer.absent)}",
              file=sys.stderr)
    print(json.dumps({"correct": wrong == 0, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))


def _per_round(value, unit, rounds):
    """A round's share of a traced total; counts stay whole when every
    round repeated them exactly."""
    if unit == "count" and value % rounds == 0:
        return value // rounds
    return value / rounds


if __name__ == "__main__":
    main()
