"""Benchmark entry point: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark writes the seeded stand-in
inputs under perfbench/work/ (removed again at exit), builds nothing, and
imports shiftnet from the checkout's src/. With --trace 0 it reports the
end-to-end metrics of an untraced closed loop; with --trace 1 it reports the
per-layer metrics of a traced run and writes the spans and the per-layer
join to perfbench/out/. Human-readable lines come first; the last line of
standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# One BLAS thread: the train path assumes single-threaded execution for
# bitwise reproducibility, and one thread is the steadiest on a shared box.
# It is never above nproc.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measured time of the run's closed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _format(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None, records=None, workdir=None, out_dir=None) -> int:
    """Run one workload.

    records (train, test), workdir and out_dir are for the benchmark's own
    tests; records defaults to CIFAR-10's 50,000 + 10,000.
    """
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "shiftnet", "__init__.py")):
        print(f"perfbench: no shiftnet sources at {os.path.relpath(SRC)}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in _THREAD_VARS:
        os.environ[var] = str(threads)
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)

    import shiftnet
    from perfbench import envinfo, workloads

    if not os.path.abspath(shiftnet.__file__).startswith(SRC + os.sep):
        print(f"perfbench: shiftnet imported from {shiftnet.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    records = records or workloads.RECORDS
    env = envinfo.environment(threads)
    print("env " + json.dumps(env, sort_keys=True))
    workdir = workdir or os.path.join(HERE, "work", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        run = workloads.run_traced if args.trace else workloads.run_e2e
        metrics, tally, detail = run(w, records, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}  "
          f"load model: closed loop, 1 client, batch {detail['batch']}, "
          f"BLAS threads {threads} of nproc {env['nproc']}")
    for key in ("samples", "setup_reps", "traced_steps", "fused_gate_worst_rel"):
        if key in detail:
            print(f"  {key:<28} {detail[key]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {_format(value):>14} {unit}")
    print(f"  {'error_rate':<28} {_format(error_rate):>14} 1  "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    for note in tally.notes:
        print(f"  FAILED: {note}")
    if args.trace:
        out_dir = out_dir or os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{w.name}-seed{args.seed}.json")
        with open(path, "w") as f:
            json.dump({"workload": w.name, "seed": args.seed, "env": env,
                       "metrics": {k: v for k, (v, _) in metrics.items()},
                       **detail}, f)
        print(f"  spans and per-layer join: {os.path.relpath(path)}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
