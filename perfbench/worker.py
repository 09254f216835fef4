"""One workload in one fresh process; ``run.py`` starts it.

Sets its BLAS/OpenMP threads to one before numpy loads, imports esarb,
builds the workload's inputs, makes one warm-up call, confirms that it
runs a single thread, and then runs whole passes until ``--seconds`` have
passed and at least three passes are done. With ``--setup-only`` it stops
after set-up. Prints one JSON object as its last line of output.
"""

import os
import sys
import time

T0 = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
# passes a run makes even when --seconds runs out sooner, so that wall_s
# is a median of at least three
MIN_PASSES = 3


def _thread_count() -> int:
    return len(os.listdir("/proc/self/task"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()

    start = time.perf_counter()
    import esarb
    import_s = time.perf_counter() - start
    if not Path(esarb.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"esarb was imported from {esarb.__file__}, not from {SRC}")

    import numpy as np
    import tracing
    import workloads

    a = np.ones((256, 256))
    a @ a
    threads = _thread_count()
    if threads != 1:
        sys.exit(f"the worker runs {threads} threads after a matrix product, expected 1")

    workload = workloads.WORKLOADS[args.workload](args.seed, args.out_dir)
    workload.warm_up()
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        missing = tracer.install(esarb)
        if missing:
            print(f"not traced, missing from esarb: {', '.join(missing)}", file=sys.stderr)

    run = workloads.Run(tracer)
    pass_s, per_pass = [], []
    began = time.perf_counter()
    while len(pass_s) < MIN_PASSES or time.perf_counter() - began < args.seconds:
        before = (run.program_s, run.attempted, run.failed)
        workload.run_pass(run)
        pass_s.append(run.program_s - before[0])
        per_pass.append((run.attempted - before[1], run.failed - before[2]))
    if len(set(per_pass)) != 1:
        print(f"passes attempted and failed different numbers of operations: {per_pass}",
              file=sys.stderr)
    threads = _thread_count()
    if threads != 1:
        sys.exit(f"the worker ran {threads} threads, expected 1")

    result = {
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "passes": len(pass_s),
        "pass_s": pass_s,
        "wall_s": statistics.median(pass_s),
        "setup_s": setup_s,
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        layers = tracer.metrics(len(pass_s))
        layers["import_s"] = import_s
        layers["trace.wall_s"] = result["wall_s"]
        result["layers"] = layers
        tracer.write(os.path.join(args.out_dir, f"trace-{args.workload}-seed{args.seed}.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
