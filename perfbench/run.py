"""homlab benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload growth-3d --seed 1 --seconds 20 \
        --trace 0

Run from the root of a checkout; homlab is imported from its ``src/``.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-module metrics of a traced run (see README.md).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a copy of the result with the
environment fingerprint and the check details goes to ``perfbench/out/``.
"""

import os
import time

T_START = time.perf_counter()

# one thread for BLAS and OpenMP, set before numpy is first imported
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# set-ups per untraced run; setup_s reports their median
SETUP_REPEATS = 3


def import_homlab():
    """Import homlab from the checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    hl = importlib.import_module("homlab")
    if not Path(hl.__file__).resolve().is_relative_to(src):
        raise ImportError(f"homlab imported from {hl.__file__}, not {src}")
    return hl


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def fingerprint(hl):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "homlab": hl.__version__,
        "use_numba": bool(hl.kernels.USE_NUMBA),
        "blas_threads": {v: os.environ[v] for v in _THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run_rounds(work, seconds, clock, first=0, rounds=None):
    """Rounds k = first, first + 1, ... until their summed wall time reaches
    ``seconds`` (or exactly ``rounds`` of them); checks run between rounds,
    outside the timed sum.  Returns (outcomes, timed seconds)."""
    outcomes, timed, k = [], 0.0, first
    while (timed < seconds) if rounds is None else (k < first + rounds):
        t0 = clock()
        outs = work.round(k, clock)
        timed += clock() - t0
        work.check_round(outs)
        outcomes += outs
        k += 1
    return outcomes, timed


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(work, args, import_s):
    clock = time.perf_counter
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        work.setup()
        setups.append(clock() - t0)
    outcomes, timed = run_rounds(work, args.seconds, clock)
    rss = peak_rss_mb()
    done = [o.seconds for o in outcomes if o.seconds is not None]
    metrics = {
        "setup_s": metric(import_s + statistics.median(setups), "s"),
        "realizations_per_s": metric(len(done) / timed, "1/s"),
        "realization_s_p50": metric(statistics.median(done or [timed]), "s"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    detail = {"setups_s": setups, "import_s": import_s, "timed_s": timed,
              "realization_s": done}
    return outcomes, metrics, detail


def traced(work, args, hl):
    """Set-up under the tracer, then every round twice, untraced and
    traced in alternating order, until the untraced passes reach half the
    run; module metrics come from the traced passes."""
    clock = time.perf_counter
    tracer = spans.Tracer(hl)
    tracer.install()
    work.setup()
    tracer.uninstall()
    setup_end = tracer.mark()
    outcomes, plain_s, traced_s, ops, k = [], 0.0, 0.0, 0, 0
    while plain_s < args.seconds / 2.0:
        for tracing in ((False, True) if k % 2 == 0 else (True, False)):
            if tracing:
                tracer.install()
            outs, dt = run_rounds(work, 0.0, clock, first=k, rounds=1)
            if tracing:
                tracer.uninstall()
                traced_s += dt
                ops += sum(o.seconds is not None for o in outs)
            else:
                plain_s += dt
            outcomes += outs
        k += 1
    ops = max(ops, 1)
    setup_stats = spans.SpanStats(tracer.spans, 0, setup_end)
    timed_stats = spans.SpanStats(tracer.spans, setup_end, tracer.mark())
    metrics = spans.module_metrics(setup_stats, timed_stats, ops)
    metrics["partition.cells"] = metric(
        work.extra.get("partition_cells", 0), "count")
    metrics["trace.overhead_s"] = metric((traced_s - plain_s) / ops, "s")
    metrics["trace.covered_share"] = metric(
        timed_stats.covered() / traced_s, "ratio")
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"{args.workload}-seed{args.seed}-spans.json",
                setup_end=setup_end)
    detail = {"untraced_s": plain_s, "traced_s": traced_s, "rounds": k}
    return outcomes, metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        hl = import_homlab()
    except ImportError as exc:
        print(f"cannot import homlab from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    work = workloads.WORKLOADS[args.workload](hl, args.seed)
    if args.trace:
        outcomes, metrics, detail = traced(work, args, hl)
    else:
        outcomes, metrics, detail = end_to_end(work, args, import_s)
    rng = np.random.default_rng([args.seed, 7])
    run_problems = work.check_run(outcomes, rng)
    failed = [o for o in outcomes if o.failed]
    result = {
        "correct": not run_problems and len(outcomes) > 0,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
    }
    report = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  env=fingerprint(hl), detail=detail, checks=work.extra,
                  run_problems=run_problems,
                  failures=[o.problems for o in failed][:10])
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
              ".json", "w") as fh:
        json.dump(report, fh, indent=1)
    for problem in run_problems + [p for o in failed for p in o.problems]:
        print(f"problem: {problem}")
    print("env: " + json.dumps(report["env"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
