#!/usr/bin/env python3
"""ffperm benchmark: one seeded workload per run, the result as one JSON line.

    python3 perfbench/run.py --workload nu-scan --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the library is imported from its
``src`` directory.  ``--trace 0`` times untraced passes and reports the
end-to-end metrics.  ``--trace 1`` runs one untraced and one traced pass,
writes the spans to ``.bench_out/`` and reports the per-layer metrics.
``--smoke`` shrinks every workload to a few seconds (for the benchmark's
own test).  The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench_trace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
              "query_p50_ms": "ms", "query_p90_ms": "ms"}


def _cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def _blas_threads() -> int:
    """Thread count of the BLAS behind numpy's float64 matmul."""
    import numpy
    for path in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def _import_seconds() -> float:
    """Median wall time of a fresh interpreter importing the CLI, as each `ffperm` call pays."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import ffperm.cli"
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _run_pass(wl, inputs, tracer=None):
    """(wall seconds, ops, verdicts) of one pass; the oracle runs untraced, after the wall."""
    uninstall = bench_trace.install(tracer) if tracer else None
    try:
        t0 = time.perf_counter()
        ops = tracer.root(wl.run_pass, inputs) if tracer else wl.run_pass(inputs)
        wall = time.perf_counter() - t0
    finally:
        if uninstall:
            uninstall()
    verdicts = wl.check(inputs, ops)
    for op in ops:
        op.result = None            # large sweep results are not kept across passes
    return wall, ops, verdicts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["nu-scan", "sweep", "query", "selftest"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "ffperm" / "__init__.py").is_file():
        print(f"error: no ffperm sources at {SRC}", file=sys.stderr)
        return 2
    # one process, no more BLAS threads than cores; set before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(_cpu_count())
    sys.path.insert(0, str(SRC))
    import ffperm
    if Path(ffperm.__file__).resolve().parent != SRC / "ffperm":
        print(f"error: imported ffperm from {ffperm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from bench_workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    setups, inputs = [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        again = wl.make_inputs(args.seed, args.smoke)
        setups.append(time.perf_counter() - t0)
        if inputs is not None and again != inputs:
            print("error: the same seed gave different inputs", file=sys.stderr)
            return 3
        inputs = again

    passes = []
    if args.trace:
        passes.append(_run_pass(wl, inputs))
        tracer = bench_trace.Tracer()
        passes.append(_run_pass(wl, inputs, tracer))
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{wl.name}-seed{args.seed}.jsonl")
        values = bench_trace.layer_metrics(tracer, passes[0][0], passes[1][0], _blas_threads())
        metrics = {k: {"value": values[k], "unit": bench_trace.unit_of(k)}
                   for k in bench_trace.PER_LAYER}
    else:
        measured = 0.0
        while not passes or measured + passes[-1][0] <= args.seconds:
            passes.append(_run_pass(wl, inputs))
            measured += passes[-1][0]
        if wl.latency_per_op:
            latencies = [op.latency * 1e3 for _, ops, _ in passes for op in ops]
        else:
            latencies = [wall * 1e3 for wall, _, _ in passes]
        values = {
            "setup_s": _import_seconds() + statistics.median(setups),
            "wall_s": statistics.median(wall for wall, _, _ in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "query_p50_ms": bench_trace.quantile(latencies, "p50"),
            "query_p90_ms": bench_trace.quantile(latencies, "p90"),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    verdicts = [v for _, _, vs in passes for v in vs]
    failed = sum(1 for v in verdicts if not v)
    for _, ops, vs in passes:
        for op, ok in zip(ops, vs):
            if not ok:
                print(f"# failed op {op.kind}: {op.error or 'wrong answer'}", file=sys.stderr)
    print(f"# workload={wl.name} loop={wl.loop} seed={args.seed} passes={len(passes)} "
          f"ops={len(verdicts)} samples={len(passes[-1][1])}/pass "
          f"error_rate={failed / len(verdicts):.4f} blas_threads={_blas_threads()} "
          f"cores={_cpu_count()}")
    print(json.dumps({"correct": failed == 0, "attempted": len(verdicts), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
